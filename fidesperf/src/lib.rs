//! fidesperf — the end-to-end and per-layer benchmark of Fides.
//!
//! Four workloads drive a 4-server cluster through its public API
//! (`FidesCluster`, `ClientSession`, `Auditor::audit`,
//! `recover_server`, `select_canonical_log`) and read the server-side
//! layers from counters the program already exports. See `README.md`
//! in this directory for the workloads, the metric map and how to run
//! it.

pub mod audit;
pub mod cluster;
pub mod commit;
pub mod cpu;
pub mod drive;
pub mod host;
pub mod read;
pub mod report;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fides_telemetry::Span;

use crate::cpu::{CpuSnapshot, Group};
use crate::host::StealSnapshot;
use crate::report::{Checks, Values};
use crate::stats::{pct, per};

/// Load before every measured window, so caches, registries and the
/// thread pool are warm when timing starts.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The program's own span sampler in traced runs: 1 in this many
/// commits.
const PROGRAM_TRACE_SAMPLE: &str = "64";

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "commit_uniform",
    "commit_hot",
    "read_verified",
    "audit_replay",
];

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub e2e: Values,
    pub layers: Values,
    /// Sample counts behind the reported percentiles, and other counts
    /// the diagnostics line reports.
    pub counts: Vec<(&'static str, u64)>,
    /// Spans of the traced window (benchmark and program).
    pub spans: Vec<Span>,
}

/// Runs one workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload.as_str() {
        "commit_uniform" => commit::run("commit_uniform", opts, None),
        "commit_hot" => commit::run("commit_hot", opts, Some(0.99)),
        "read_verified" => read::run(opts),
        "audit_replay" => audit::run(opts),
        other => panic!("unknown workload {other}"),
    }
}

/// A seed for stream `stream` of a run seeded with `seed`
/// (SplitMix64 finalizer: distinct, well-mixed seeds per client).
pub fn mix_seed(seed: u64, stream: u32) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(stream) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix_seed(self.0, 0) % n
    }
}

/// Turns the program's span sampler on or off for sessions created
/// from now on (it reads `FIDES_TRACE_SAMPLE` when a session is built).
pub fn set_program_tracing(on: bool) {
    if on {
        std::env::set_var("FIDES_TRACE_SAMPLE", PROGRAM_TRACE_SAMPLE);
    } else {
        std::env::remove_var("FIDES_TRACE_SAMPLE");
    }
}

/// Sleeps until `at` (returns at once if it has passed).
pub fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// The mean of each value over the windows that report it.
pub fn mean_values(windows: &[Values]) -> Values {
    let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for values in windows {
        for (name, value) in values {
            let entry = sums.entry(name).or_default();
            entry.0 += value;
            entry.1 += 1.0;
        }
    }
    sums.into_iter()
        .map(|(name, (sum, n))| (name, sum / n))
        .collect()
}

/// CPU and steal over one window.
pub struct Meter {
    cpu: CpuSnapshot,
    steal: StealSnapshot,
    started: Instant,
}

/// CPU time by thread group and host steal measured over a window.
pub struct Metered {
    usage: cpu::CpuUsage,
    steal_pct: f64,
    wall_s: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            cpu: CpuSnapshot::take(),
            steal: StealSnapshot::take(),
            started: Instant::now(),
        }
    }

    pub fn stop(self) -> Metered {
        Metered {
            usage: CpuSnapshot::take().since(&self.cpu),
            steal_pct: StealSnapshot::take().steal_pct_since(&self.steal),
            wall_s: self.started.elapsed().as_secs_f64(),
        }
    }
}

impl Metered {
    /// CPU per operation by thread group, how busy the host's cores
    /// were, and the host's steal share (a diagnostic).
    pub fn layers(&self, ops: f64, out: &mut Values) {
        let u = &self.usage;
        out.insert("cpu.server_ms_per_op", per(u.group_ms(Group::Server), ops));
        out.insert("cpu.wal_ms_per_op", per(u.group_ms(Group::Wal), ops));
        out.insert("cpu.pool_ms_per_op", per(u.group_ms(Group::Pool), ops));
        out.insert("cpu.client_ms_per_op", per(u.group_ms(Group::Client), ops));
        out.insert("cpu.total_ms_per_op", per(u.total_ms, ops));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        out.insert("cpu.busy_pct", pct(u.total_ms, self.wall_s * 1e3 * nproc));
        out.insert(STEAL_KEY, self.steal_pct);
    }
}

/// Where a window's steal share travels with its layer values; it is a
/// host diagnostic, not a metric.
pub const STEAL_KEY: &str = "host.steal_pct";

/// A window's throughput, kept with its layer values to report the
/// cost of tracing.
pub const WINDOW_RATE_KEY: &str = "trace.txns_per_s";

/// The per-layer values of a run: the traced window's, plus the
/// throughput of the untraced and traced windows and the tracing
/// overhead between them.
pub fn traced_layers(untraced: &Values, traced: Option<Values>) -> Values {
    let Some(mut layers) = traced else {
        return untraced.clone();
    };
    let plain = untraced.get(WINDOW_RATE_KEY).copied().unwrap_or(0.0);
    let with = layers.get(WINDOW_RATE_KEY).copied().unwrap_or(0.0);
    layers.insert("trace.untraced_txns_per_s", plain);
    layers.insert("trace.traced_txns_per_s", with);
    layers.insert("trace.overhead_pct", pct(plain - with, plain));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_per_stream_and_repeat() {
        assert_eq!(mix_seed(7, 0), mix_seed(7, 0));
        assert_ne!(mix_seed(7, 0), mix_seed(7, 1));
        assert_ne!(mix_seed(7, 0), mix_seed(8, 0));
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert!((0..100).all(|_| a.below(10) == b.below(10)));
    }

    #[test]
    fn window_values_average_over_the_windows_reporting_them() {
        let a = Values::from([("x", 1.0), ("y", 4.0)]);
        let b = Values::from([("x", 3.0)]);
        let mean = mean_values(&[a, b]);
        assert_eq!(mean["x"], 2.0);
        assert_eq!(mean["y"], 4.0);
    }

    #[test]
    fn tracing_overhead_is_the_relative_rate_loss() {
        let mut plain = Values::new();
        plain.insert(WINDOW_RATE_KEY, 800.0);
        let mut traced = Values::new();
        traced.insert(WINDOW_RATE_KEY, 760.0);
        let layers = traced_layers(&plain, Some(traced));
        assert_eq!(layers["trace.overhead_pct"], 5.0);
        assert_eq!(layers["trace.untraced_txns_per_s"], 800.0);
        assert_eq!(layers["trace.traced_txns_per_s"], 760.0);
    }
}
