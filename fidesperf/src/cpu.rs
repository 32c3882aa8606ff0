//! CPU time per thread group, read from `/proc/self/task/*/stat`.
//!
//! Threads are grouped by the names the program already gives them
//! (`fides-server-*`, `fides-wal-writer`, `fides-pool-*`) plus the
//! benchmark's own client threads (`perf-client-*`). The process total
//! comes from `/proc/self/stat`, which also keeps the time of threads
//! that exited inside the window.

use std::collections::BTreeMap;

/// Clock ticks per second of the `stat` time fields (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// The name prefix of the benchmark's client threads.
pub const CLIENT_THREAD_PREFIX: &str = "perf-client-";

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    Server,
    Wal,
    Pool,
    Client,
    Other,
}

impl Group {
    /// The group of a thread, from its (kernel-truncated) name.
    pub fn of(comm: &str) -> Group {
        if comm.starts_with("fides-server-") {
            Group::Server
        } else if comm.starts_with("fides-wal-") {
            Group::Wal
        } else if comm.starts_with("fides-pool-") {
            Group::Pool
        } else if comm.starts_with(CLIENT_THREAD_PREFIX) {
            Group::Client
        } else {
            Group::Other
        }
    }
}

/// Thread name and user+system CPU ticks from one `stat` line, or
/// `None` when the line is malformed. The name sits in parentheses and
/// may itself contain spaces or parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU ticks per live thread (by tid) and for the whole process.
#[derive(Clone, Debug, Default)]
pub struct CpuSnapshot {
    threads: BTreeMap<u64, (Group, u64)>,
    process_ticks: u64,
}

impl CpuSnapshot {
    /// Reads every thread of this process. A thread that exits between
    /// listing and reading is skipped.
    pub fn take() -> CpuSnapshot {
        let mut threads = BTreeMap::new();
        if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
            for entry in entries.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
                    continue;
                };
                if let Some((comm, ticks)) = parse_stat(&line) {
                    threads.insert(tid, (Group::of(&comm), ticks));
                }
            }
        }
        let process_ticks = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|line| parse_stat(&line))
            .map_or(0, |(_, ticks)| ticks);
        CpuSnapshot {
            threads,
            process_ticks,
        }
    }

    /// CPU milliseconds spent per group between `start` and `self`, plus
    /// the process total. A thread born inside the window counts from
    /// zero.
    pub fn since(&self, start: &CpuSnapshot) -> CpuUsage {
        let mut by_group = BTreeMap::new();
        for (tid, (group, ticks)) in &self.threads {
            let before = start.threads.get(tid).map_or(0, |(_, t)| *t);
            *by_group.entry(*group).or_insert(0.0) += ticks_to_ms(ticks.saturating_sub(before));
        }
        CpuUsage {
            by_group,
            total_ms: ticks_to_ms(self.process_ticks.saturating_sub(start.process_ticks)),
        }
    }
}

fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / TICKS_PER_SEC
}

/// CPU time used over a window.
#[derive(Clone, Debug, Default)]
pub struct CpuUsage {
    pub by_group: BTreeMap<Group, f64>,
    pub total_ms: f64,
}

impl CpuUsage {
    pub fn group_ms(&self, group: Group) -> f64 {
        self.by_group.get(&group).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_with_spaces_and_parentheses() {
        let line = "4242 (fides-server-3) S 1 1 1 0 -1 4194368 10 0 0 0 250 17 0 0 20 0 9 0";
        assert_eq!(parse_stat(line), Some(("fides-server-3".into(), 267)));
        let odd = "7 (a (b) c) R 1 1 1 0 -1 0 0 0 0 0 3 4 0 0";
        assert_eq!(parse_stat(odd), Some(("a (b) c".into(), 7)));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn groups_follow_thread_names() {
        assert_eq!(Group::of("fides-server-0"), Group::Server);
        assert_eq!(Group::of("fides-wal-write"), Group::Wal);
        assert_eq!(Group::of("fides-pool-1"), Group::Pool);
        assert_eq!(Group::of("perf-client-1"), Group::Client);
        assert_eq!(Group::of("fides-net-sched"), Group::Other);
        assert_eq!(Group::of("fidesperf"), Group::Other);
    }

    #[test]
    fn usage_is_a_per_thread_delta() {
        let mut start = CpuSnapshot::default();
        start.threads.insert(1, (Group::Server, 100));
        start.threads.insert(2, (Group::Wal, 5));
        start.process_ticks = 200;
        let mut end = start.clone();
        end.threads.insert(1, (Group::Server, 150));
        end.threads.insert(3, (Group::Server, 20)); // born in the window
        end.process_ticks = 290;
        let usage = end.since(&start);
        assert_eq!(usage.group_ms(Group::Server), 700.0);
        assert_eq!(usage.group_ms(Group::Wal), 0.0);
        assert_eq!(usage.group_ms(Group::Pool), 0.0);
        assert_eq!(usage.total_ms, 900.0);
    }

    #[test]
    fn reads_this_process() {
        let snap = CpuSnapshot::take();
        assert!(!snap.threads.is_empty());
    }
}
