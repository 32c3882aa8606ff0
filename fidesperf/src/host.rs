//! Host diagnostics printed with every result. They describe the
//! machine a run measured on; no metric is normalised by them.

use std::time::Instant;

use fides_crypto::Sha256;

/// Static facts about the host.
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl HostInfo {
    pub fn read() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }
}

/// The aggregate `cpu` line of `/proc/stat`: (steal ticks, all ticks).
#[derive(Clone, Copy, Debug, Default)]
pub struct StealSnapshot {
    steal: u64,
    total: u64,
}

impl StealSnapshot {
    pub fn take() -> StealSnapshot {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| stat.lines().next().map(parse_cpu_line))
            .unwrap_or_default()
    }

    /// Percentage of all CPU time the hypervisor stole since `start`.
    pub fn steal_pct_since(&self, start: &StealSnapshot) -> f64 {
        crate::stats::pct(
            self.steal.saturating_sub(start.steal) as f64,
            self.total.saturating_sub(start.total) as f64,
        )
    }
}

/// Parses `cpu  user nice system idle iowait irq softirq steal ...`.
fn parse_cpu_line(line: &str) -> StealSnapshot {
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    StealSnapshot {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().sum(),
    }
}

/// Milliseconds a fixed single-thread SHA-256 chain takes: a probe of
/// how fast this host runs right now, taken before and after a window.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut digest = Sha256::digest(b"fidesperf calibration");
    for _ in 0..50_000 {
        digest = Sha256::digest(std::hint::black_box(digest.as_bytes()));
    }
    std::hint::black_box(digest);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_cpu_lines() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0");
        let b = parse_cpu_line("cpu  150 0 60 880 10 0 0 50 0 0");
        assert_eq!(a.total, 1000);
        assert_eq!(b.steal_pct_since(&a), 10.0 / 150.0 * 100.0);
    }
}
