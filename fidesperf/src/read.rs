//! `read_verified`: verified read-only transactions over a ledger
//! preloaded in set-up; no commit runs while reads are timed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fides_core::{ClientSession, FidesCluster, ReadConsistency, ReadStats};
use fides_ledger::{Decision, TamperProofLog};
use fides_store::{Key, Value};

use crate::cluster::{self, check_ledger, quiesce, Probe, WorkDir, ITEMS_PER_SHARD, SERVERS};
use crate::commit::{preload, CLIENTS};
use crate::cpu::CLIENT_THREAD_PREFIX;
use crate::report::{Checks, Values};
use crate::spans::SpanLog;
use crate::stats::{pct, per, Samples};
use crate::{mix_seed, sleep_until, Meter, Options, Outcome, Rng, WARMUP, WINDOW_RATE_KEY};

/// Transactions committed in set-up before reads start.
const PRELOAD_TXNS: usize = 400;
/// Blocks between snapshots: small enough that every shard has a
/// checkpoint mirrored on its peers after the preload.
const SNAPSHOT_INTERVAL: u64 = 8;
/// Keys per read: present keys drawn uniformly over every shard, plus
/// keys no shard holds (proved absent).
const PRESENT_KEYS: usize = 28;
const ABSENT_KEYS: usize = 4;
/// Bounded staleness lets mirror holders serve reads.
const CONSISTENCY: ReadConsistency = ReadConsistency::BoundedStaleness(64);
/// Fresh deployments (start + preload) per run. The window is split
/// evenly over them and their samples pooled, for the reason given at
/// `commit::DEPLOYMENTS`; set-up time is the median of their set-ups.
const DEPLOYMENTS: usize = 4;

/// The keys of one read: distinct present keys and absent ones.
fn read_keys(rng: &mut Rng) -> Vec<Key> {
    let pool = SERVERS as u64 * ITEMS_PER_SHARD as u64;
    let mut picked: Vec<u64> = Vec::with_capacity(PRESENT_KEYS);
    while picked.len() < PRESENT_KEYS {
        let g = rng.below(pool);
        if !picked.contains(&g) {
            picked.push(g);
        }
    }
    let present = picked.into_iter().map(|g| {
        let items = ITEMS_PER_SHARD as u64;
        FidesCluster::key_name((g / items) as u32, (g % items) as usize)
    });
    let absent = (0..ABSENT_KEYS).map(|_| {
        let server = rng.below(u64::from(SERVERS)) as u32;
        let beyond = ITEMS_PER_SHARD + rng.below(ITEMS_PER_SHARD as u64) as usize;
        FidesCluster::key_name(server, beyond)
    });
    present.chain(absent).collect()
}

/// Per key, every value it held in the ledger, oldest first.
type History = HashMap<Key, Vec<Value>>;

/// What one read client measured.
#[derive(Default)]
struct ReadOut {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    latency: Samples,
    stats: ReadStats,
    spans: Vec<fides_telemetry::Span>,
}

impl ReadOut {
    fn merge(&mut self, other: ReadOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.latency.extend(&other.latency);
        self.stats.merge(&other.stats);
        self.spans.extend(other.spans);
    }
}

fn read_client(
    session: &mut ClientSession,
    seed: u64,
    history: &History,
    measure_from: Instant,
    until: Instant,
    mut log: Option<SpanLog>,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut rng = Rng::new(seed);
    let mut measuring = false;
    loop {
        let now = Instant::now();
        if now >= until {
            break;
        }
        if !measuring && now >= measure_from {
            // Drop the warm-up's read statistics.
            session.take_read_stats();
            measuring = true;
        }
        let keys = read_keys(&mut rng);
        let t0 = fides_telemetry::trace::now_ns();
        let result = session.read_only(&keys, CONSISTENCY);
        let t1 = fides_telemetry::trace::now_ns();
        if !measuring {
            continue;
        }
        out.attempted += 1;
        match result {
            Ok(values) => {
                out.latency.push((t1 - t0) as f64 / 1e6);
                if let Some(log) = log.as_mut() {
                    let trace = out.attempted;
                    log.record("client.read_only", trace, 0, t0, t1);
                }
                let correct = keys
                    .iter()
                    .zip(&values)
                    .all(|(k, v)| match (v, history.get(k)) {
                        (Some(v), Some(held)) => held.contains(v),
                        (None, None) => true,
                        _ => false,
                    });
                if !correct {
                    out.mismatches += 1;
                    out.failed += 1;
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    out.stats = session.take_read_stats();
    out.spans = log.map(SpanLog::into_spans).unwrap_or_default();
    out.spans.extend(session.spans());
    out
}

/// One measured window of reads.
fn window(
    cluster: &FidesCluster,
    opts: &Options,
    history: &History,
    traced: bool,
    next_slot: &mut u32,
) -> (ReadOut, Values) {
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let until = measure_from + Duration::from_secs_f64(opts.seconds);
    let first_slot = *next_slot;
    *next_slot += CLIENTS;
    let (outs, meter, probes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut session = cluster.client(first_slot + c);
                let seed = mix_seed(opts.seed, first_slot + c);
                let log = traced.then(|| SpanLog::new(u64::from(c)));
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD_PREFIX}{c}"))
                    .spawn_scoped(scope, move || {
                        read_client(&mut session, seed, history, measure_from, until, log)
                    })
                    .expect("spawn a client thread")
            })
            .collect();
        sleep_until(measure_from);
        let meter = Meter::start();
        let before = Probe::take(cluster);
        sleep_until(until);
        let after = Probe::take(cluster);
        let meter = meter.stop();
        let outs: Vec<ReadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, meter, (before, after))
    });
    let mut out = ReadOut::default();
    for o in outs {
        out.merge(o);
    }
    let reads = out.latency.len() as f64;
    let (before, after) = probes;
    let mut layers = Values::new();
    after.layers_since(&before, reads, opts.seconds, &mut layers);
    meter.layers(reads, &mut layers);
    let stats = &out.stats;
    layers.insert("client.read_ms", out.latency.mean());
    layers.insert("client.latency_p99_ms", out.latency.quantile(0.99));
    layers.insert(
        "read.verify_us_per_key",
        per(stats.verify_nanos() as f64 / 1e3, stats.keys_read as f64),
    );
    layers.insert(
        "read.registry_hit_pct",
        pct(
            stats.registry.hits as f64,
            (stats.registry.hits + stats.registry.misses) as f64,
        ),
    );
    layers.insert(
        "read.refused_pct",
        pct(stats.refusals as f64, out.attempted as f64),
    );
    layers.insert(WINDOW_RATE_KEY, per(reads, opts.seconds));
    (out, layers)
}

/// Every value each key held at some height of the ledger in `log`: a
/// bounded-staleness read may return any of them (a mirror serves its
/// checkpoint's height, not the tip).
fn history_of(log: Option<&TamperProofLog>) -> History {
    let mut history: History = cluster::initial_state()
        .into_iter()
        .map(|(k, v)| (k, vec![v]))
        .collect();
    let commits = log
        .map(|l| l.blocks())
        .unwrap_or_default()
        .iter()
        .filter(|b| b.decision == Decision::Commit);
    for write in commits.flat_map(|b| &b.txns).flat_map(|t| &t.write_set) {
        history
            .entry(write.key.clone())
            .or_default()
            .push(write.new_value.clone());
    }
    history
}

/// Runs `read_verified`: the window is split evenly over `DEPLOYMENTS`
/// fresh deployments, whose samples are pooled.
pub fn run(opts: &Options) -> Outcome {
    let dir = WorkDir::new("read_verified");
    let part = Options {
        seconds: opts.seconds / DEPLOYMENTS as f64,
        ..opts.clone()
    };
    let mut setup = Samples::default();
    let mut checks = Checks::default();
    let mut untraced = ReadOut::default();
    let mut traced = ReadOut::default();
    let mut plain_layers = Vec::new();
    let mut traced_layers = Vec::new();
    let mut cluster_spans = Vec::new();
    for _ in 0..DEPLOYMENTS {
        dir.reset();
        let started = Instant::now();
        let cluster = FidesCluster::start(cluster::config(cluster::persistence(
            dir.path(),
            SNAPSHOT_INTERVAL,
        )));
        let loaded = preload(&cluster, opts.seed, PRELOAD_TXNS);
        let settled = quiesce(&cluster);
        setup.push(started.elapsed().as_secs_f64());
        checks.check(
            "preload outcomes co-signed",
            loaded.anomalies == 0 && loaded.failed == 0,
        );
        checks.check("servers settle after the preload", settled.is_some());
        let history = history_of(settled.iter().flatten().next().map(|(log, _)| log));

        let mut next_slot = CLIENTS;
        let (plain, layers) = window(&cluster, &part, &history, false, &mut next_slot);
        untraced.merge(plain);
        plain_layers.push(layers);
        if opts.trace {
            crate::set_program_tracing(true);
            let (t, layers) = window(&cluster, &part, &history, true, &mut next_slot);
            crate::set_program_tracing(false);
            traced.merge(t);
            traced_layers.push(layers);
            cluster_spans.extend(cluster.dump_traces());
        }
        let mut reader = cluster.client(next_slot);
        check_ledger(&cluster, &mut reader, loaded.committed, &mut checks);
        cluster.shutdown();
    }
    checks.check(
        "verified reads return values the ledger held",
        untraced.mismatches + traced.mismatches == 0,
    );

    let mut e2e = Values::new();
    e2e.insert(
        "txns_per_s",
        per(untraced.latency.len() as f64, opts.seconds),
    );
    e2e.insert("latency_p50_ms", untraced.latency.quantile(0.50));
    e2e.insert("setup_s", setup.quantile(0.5));
    let mut spans = std::mem::take(&mut traced.spans);
    spans.extend(cluster_spans);
    Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        checks,
        e2e,
        layers: crate::traced_layers(
            &crate::mean_values(&plain_layers),
            opts.trace.then(|| crate::mean_values(&traced_layers)),
        ),
        counts: vec![
            ("latency_samples", untraced.latency.len() as u64),
            ("setup_samples", setup.len() as u64),
        ],
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_span_present_and_absent_keys() {
        let keys = read_keys(&mut Rng::new(11));
        assert_eq!(keys.len(), PRESENT_KEYS + ABSENT_KEYS);
        let state = cluster::initial_state();
        let present = keys.iter().filter(|k| state.contains_key(*k)).count();
        assert_eq!(present, PRESENT_KEYS);
        assert_eq!(read_keys(&mut Rng::new(11)), keys);
    }
}
