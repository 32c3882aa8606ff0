//! `commit_uniform` and `commit_hot`: pipelined read-modify-write
//! transfers committed through TFCommit.

use std::time::{Duration, Instant};

use fides_core::FidesCluster;
use fides_telemetry::Span;
use fides_workload::{KeyChooser, WorkloadConfig, WorkloadGenerator};

use crate::cluster::{self, check_ledger, Probe, WorkDir, ITEMS_PER_SHARD, SERVERS};
use crate::cpu::CLIENT_THREAD_PREFIX;
use crate::drive::{run_commits, CommitOut, Plan};
use crate::report::{Checks, Values};
use crate::spans::{tiling_error_ns, SpanLog, TXN_ROOT};
use crate::stats::{pct, per, Samples};
use crate::{mix_seed, sleep_until, Meter, Options, Outcome, WARMUP, WINDOW_RATE_KEY};

/// Client threads (at most the host's two cores) and commits each
/// keeps in flight.
pub const CLIENTS: u32 = 2;
pub const DEPTH: usize = 16;
/// Fresh clusters per run. The window is split evenly over them: a
/// cluster can settle into a slower regime that lasts the rest of its
/// life, and pooling several keeps one such cluster from setting the
/// run's figures. Set-up time is the median of their starts.
const DEPLOYMENTS: usize = 4;
/// The commit workloads take no shard snapshots: snapshot saving and
/// checkpoint mirroring are measured by `read_verified` and
/// `audit_replay`, and a snapshot landing inside some windows but not
/// others would make throughput depend on where the window falls.
const NO_SNAPSHOTS: u64 = 0;

/// A transaction key generator for client `client` of a run.
pub fn generator(
    seed: u64,
    client: u32,
    zipf: Option<f64>,
) -> WorkloadGenerator<fn(u32, usize) -> fides_store::Key> {
    let config =
        WorkloadConfig::paper_default(SERVERS, ITEMS_PER_SHARD).seed(mix_seed(seed, client));
    let config = match zipf {
        Some(theta) => config.chooser(KeyChooser::Zipfian { theta }),
        None => config,
    };
    WorkloadGenerator::new(config, FidesCluster::key_name as fn(u32, usize) -> _)
}

/// One measured window of commit load on a running cluster.
struct Window {
    out: CommitOut,
    layers: Values,
    spans: Vec<Span>,
}

/// Drives `CLIENTS` commit clients (slots from `*next_slot`) for the
/// warm-up plus `seconds`, and reads the server layers over the
/// measured part.
fn window(
    cluster: &FidesCluster,
    opts: &Options,
    zipf: Option<f64>,
    traced: bool,
    next_slot: &mut u32,
) -> Window {
    let start = Instant::now();
    let plan = Plan {
        depth: DEPTH,
        measure_from: start + WARMUP,
        until: start + WARMUP + Duration::from_secs_f64(opts.seconds),
        budget: usize::MAX,
    };
    let pks = cluster.server_pks().to_vec();
    let first_slot = *next_slot;
    *next_slot += CLIENTS;
    let (outs, meter, server) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut session = cluster.client(first_slot + c);
                let mut keys = generator(opts.seed, first_slot + c, zipf);
                let pks = &pks;
                std::thread::Builder::new()
                    .name(format!("{CLIENT_THREAD_PREFIX}{c}"))
                    .spawn_scoped(scope, move || {
                        let mut log = traced.then(|| SpanLog::new(c as u64));
                        let out = run_commits(
                            &mut session,
                            pks,
                            || keys.next_txn().keys,
                            plan,
                            log.as_mut(),
                        );
                        let mut spans = log.map(SpanLog::into_spans).unwrap_or_default();
                        spans.extend(session.spans());
                        (out, spans)
                    })
                    .expect("spawn a client thread")
            })
            .collect();
        sleep_until(plan.measure_from);
        let meter = Meter::start();
        let probe = Probe::take(cluster);
        sleep_until(plan.until);
        let server = (probe, Probe::take(cluster));
        let meter = meter.stop();
        let outs: Vec<(CommitOut, Vec<Span>)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, meter, server)
    });
    let mut out = CommitOut::default();
    let mut spans = Vec::new();
    for (o, s) in outs {
        out.merge(&o);
        spans.extend(s);
    }
    let (before, after) = server;
    let ops = after.committed_since(&before) as f64;
    let mut layers = Values::new();
    after.layers_since(&before, ops, opts.seconds, &mut layers);
    meter.layers(ops, &mut layers);
    let committed = out.committed as f64;
    layers.insert("client.exec_ms", per(out.exec_ms, committed));
    layers.insert("client.submit_us", per(out.submit_ms * 1e3, committed));
    layers.insert("client.outcome_wait_ms", per(out.wait_ms, committed));
    layers.insert(
        "client.verify_us_per_outcome",
        per(out.finalize_ms * 1e3, out.finalized as f64),
    );
    layers.insert(
        "client.abort_pct",
        pct(out.aborted as f64, (out.committed + out.aborted) as f64),
    );
    layers.insert("client.latency_p99_ms", out.latency.quantile(0.99));
    let outside = layers["client.outcome_wait_ms"] - layers["commit.round_ms"];
    layers.insert("commit.outside_round_ms", outside);
    layers.insert(WINDOW_RATE_KEY, per(committed, opts.seconds));
    Window { out, layers, spans }
}

/// Commits `txns` uniform transfers with the commit workload's clients
/// in client slots `0..CLIENTS` — the set-up of `read_verified`.
pub fn preload(cluster: &FidesCluster, seed: u64, txns: usize) -> CommitOut {
    let pks = cluster.server_pks().to_vec();
    let now = Instant::now();
    let plan = Plan {
        depth: DEPTH,
        measure_from: now,
        until: now + Duration::from_secs(120),
        budget: txns / CLIENTS as usize,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut session = cluster.client(c);
                let mut keys = generator(seed, c, None);
                let pks = &pks;
                scope.spawn(move || {
                    run_commits(&mut session, pks, || keys.next_txn().keys, plan, None)
                })
            })
            .collect();
        let mut all = CommitOut::default();
        for h in handles {
            all.merge(&h.join().expect("preload client panicked"));
        }
        all
    })
}

/// Runs `commit_uniform` (`zipf == None`) or `commit_hot`: the window
/// is split evenly over `DEPLOYMENTS` fresh clusters, whose samples are
/// pooled.
pub fn run(name: &str, opts: &Options, zipf: Option<f64>) -> Outcome {
    let dir = WorkDir::new(name);
    let part = Options {
        seconds: opts.seconds / DEPLOYMENTS as f64,
        ..opts.clone()
    };
    let mut setup = Samples::default();
    let mut checks = Checks::default();
    let mut untraced = CommitOut::default();
    let mut traced = CommitOut::default();
    let mut plain_layers = Vec::new();
    let mut traced_layers = Vec::new();
    let mut spans = Vec::new();
    for _ in 0..DEPLOYMENTS {
        dir.reset();
        let started = Instant::now();
        let cluster = FidesCluster::start(cluster::config(cluster::persistence(
            dir.path(),
            NO_SNAPSHOTS,
        )));
        setup.push(started.elapsed().as_secs_f64());

        let mut next_slot = 0;
        let plain = window(&cluster, &part, zipf, false, &mut next_slot);
        let mut committed = plain.out.committed;
        untraced.merge(&plain.out);
        plain_layers.push(plain.layers);
        if opts.trace {
            crate::set_program_tracing(true);
            let t = window(&cluster, &part, zipf, true, &mut next_slot);
            crate::set_program_tracing(false);
            let (roots, worst_ns) = tiling_error_ns(&t.spans, TXN_ROOT);
            checks.check(
                "client spans tile every traced transaction",
                roots as u64 == t.out.committed && worst_ns == 0,
            );
            committed += t.out.committed;
            traced.merge(&t.out);
            traced_layers.push(t.layers);
            spans.extend(t.spans);
            spans.extend(cluster.dump_traces());
        }
        let mut reader = cluster.client(next_slot);
        check_ledger(&cluster, &mut reader, committed, &mut checks);
        cluster.shutdown();
    }

    let mut all = CommitOut::default();
    all.merge(&untraced);
    all.merge(&traced);
    checks.check("outcomes co-signed", all.anomalies == 0);
    let phases = all.exec_ms + all.submit_ms + all.wait_ms + all.verify_ms;
    let latency = all.latency.sum();
    checks.check(
        "client phases sum to client latency",
        (phases - latency).abs() <= 1e-6 * latency.max(1.0),
    );

    let mut e2e = Values::new();
    e2e.insert("txns_per_s", per(untraced.committed as f64, opts.seconds));
    e2e.insert("latency_p50_ms", untraced.latency.quantile(0.50));
    e2e.insert("setup_s", setup.quantile(0.5));
    let layers = crate::traced_layers(
        &crate::mean_values(&plain_layers),
        opts.trace.then(|| crate::mean_values(&traced_layers)),
    );
    Outcome {
        attempted: all.attempted,
        failed: all.failed,
        checks,
        e2e,
        layers,
        counts: vec![
            ("latency_samples", untraced.latency.len() as u64),
            ("setup_samples", setup.len() as u64),
            ("aborted", all.aborted),
            ("refused_after_retries", all.refused),
        ],
        spans,
    }
}
