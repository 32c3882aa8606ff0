//! `audit_replay`: repeated full audits of a ledger committed in
//! set-up, alternating with verified recoveries of one server at a time
//! from its on-disk WAL and snapshots. The commit path does no work
//! while this is timed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fides_core::audit::AuditInput;
use fides_core::recovery::{recover_server, PersistenceConfig, DEFAULT_SNAPSHOT_INTERVAL};
use fides_core::{Auditor, CommitProtocol, FidesCluster, Partitioner};
use fides_crypto::PublicKey;
use fides_durability::{recover_ledger, FileSnapshotStore, SnapshotStore, WalBlockLog};
use fides_ledger::{select_canonical_log, TamperProofLog};
use fides_store::{AuthenticatedShard, Key};

use crate::cluster::{
    self, check_ledger, initial_shard, quiesce, WorkDir, ITEMS_PER_SHARD, SERVERS,
};
use crate::drive::{run_commits, CommitOut, Plan};
use crate::report::{Checks, Values};
use crate::spans::SpanLog;
use crate::stats::{per, Samples};
use crate::{mix_seed, Meter, Metered, Options, Outcome, Rng, WARMUP, WINDOW_RATE_KEY};

/// Transactions committed in set-up: the ledger every audit replays.
/// An audit's cost grows linearly with the ledger, and one audit's time
/// varies by ±20% on a shared host, so a short ledger audited often
/// (about 40 times in 20 s on the development host) gives a steadier
/// median than a long ledger audited a few times.
const LEDGER_TXNS: usize = 4;
/// Deployments (start + commit + capture) per run; set-up time is
/// their median.
const SETUPS: usize = 3;

/// Commits the audited ledger: `LEDGER_TXNS` transfers, one at a time
/// from one client, each over one key of every shard plus a second key
/// of one shard (cycling). Every block then holds one transaction that
/// writes to every shard, so every run's ledger has the same shape and
/// asks the auditor for the same work; the seed picks only the items.
fn commit_ledger(cluster: &FidesCluster, seed: u64) -> CommitOut {
    let mut rng = Rng::new(mix_seed(seed, 0));
    let items = ITEMS_PER_SHARD as u64;
    let mut txn = 0u32;
    let next_keys = || {
        let mut keys: Vec<Key> = Vec::with_capacity(SERVERS as usize + 1);
        let doubled = txn % SERVERS;
        txn += 1;
        for s in 0..SERVERS {
            let item = rng.below(items);
            keys.push(FidesCluster::key_name(s, item as usize));
            if s == doubled {
                let other = (item + 1 + rng.below(items - 1)) % items;
                keys.push(FidesCluster::key_name(s, other as usize));
            }
        }
        keys
    };
    let now = Instant::now();
    let plan = Plan {
        depth: 1,
        measure_from: now,
        until: now + Duration::from_secs(120),
        budget: LEDGER_TXNS,
    };
    let pks = cluster.server_pks().to_vec();
    run_commits(&mut cluster.client(0), &pks, next_keys, plan, None)
}

/// The captured ledger and everything needed to audit and recover it.
struct Ledger {
    logs: Vec<TamperProofLog>,
    shards: Vec<AuthenticatedShard>,
    partitioner: Partitioner,
    pks: Vec<PublicKey>,
    /// Where the servers persisted it.
    dir: PathBuf,
    persistence: PersistenceConfig,
    txns: u64,
}

/// What one window measured.
#[derive(Default)]
struct AuditOut {
    audits: Samples,
    recoveries: Samples,
    select: Samples,
    wal_read: Samples,
    verify: Samples,
    unclean_audits: u64,
    bad_recoveries: u64,
    spans: Vec<fides_telemetry::Span>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Alternates full audits and single-server recoveries for the warm-up
/// plus `seconds`. A traced window also times log selection alone and
/// the WAL read and ledger verification that recovery is made of.
fn window(ledger: &Ledger, opts: &Options, traced: bool) -> (AuditOut, Metered) {
    let auditor = Auditor::new(
        ledger.partitioner.clone(),
        ledger.pks.clone(),
        cluster::initial_state(),
    );
    let input = AuditInput::new(ledger.logs.clone(), ledger.shards.clone());
    let mut out = AuditOut::default();
    let mut log = traced.then(|| SpanLog::new(0));
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let until = measure_from + Duration::from_secs_f64(opts.seconds);
    let mut meter = None;
    let mut next_server = 0u32;
    // At least one audit is measured, however slow audits are.
    while Instant::now() < until || out.audits.is_empty() {
        let measured = Instant::now() >= measure_from;
        if measured && meter.is_none() {
            meter = Some(Meter::start());
        }
        if let Some(log) = log.as_mut() {
            let t = Instant::now();
            log.time("audit.select", || {
                select_canonical_log(&ledger.logs, &ledger.pks)
            });
            out.select.push(ms_since(t));
        }
        let t = Instant::now();
        let report = match log.as_mut() {
            Some(log) => log.time("audit.audit", || auditor.audit(&input)),
            None => auditor.audit(&input),
        };
        let audit_ms = ms_since(t);
        if !report.is_clean() {
            out.unclean_audits += 1;
        }

        let s = next_server;
        next_server = (next_server + 1) % SERVERS;
        if let Some(log) = log.as_mut() {
            let dir = PersistenceConfig::server_dir(&ledger.dir, s);
            let t = Instant::now();
            let (blocks, snapshot) = log.time("recover.wal_read", || {
                let snapshot = FileSnapshotStore::open(dir.join("snapshots"))
                    .ok()
                    .and_then(|store| store.load_latest().ok().flatten());
                let (_wal, blocks) = WalBlockLog::open(dir.join("wal"), ledger.persistence.wal)
                    .expect("reopen the WAL");
                (blocks, snapshot)
            });
            out.wal_read.push(ms_since(t));
            let t = Instant::now();
            let verified = log.time("recover.verify", || {
                recover_ledger(blocks, snapshot, &ledger.pks, true)
            });
            out.verify.push(ms_since(t));
            if verified.is_err() {
                out.bad_recoveries += 1;
            }
        }
        let t = Instant::now();
        let recovered = recover_server(
            s,
            initial_shard(s),
            &ledger.partitioner,
            &ledger.pks,
            CommitProtocol::TfCommit,
            &ledger.persistence,
        );
        let recover_ms = ms_since(t);
        let matches = recovered.is_ok_and(|r| {
            let (log, shard) = (&ledger.logs[s as usize], &ledger.shards[s as usize]);
            r.log.next_height() == log.next_height()
                && r.log.tip_hash() == log.tip_hash()
                && r.shard.root() == shard.root()
        });
        if !matches {
            out.bad_recoveries += 1;
        }
        if measured {
            out.audits.push(audit_ms);
            out.recoveries.push(recover_ms);
        }
    }
    let meter = meter.unwrap_or_else(Meter::start).stop();
    out.spans = log.map(SpanLog::into_spans).unwrap_or_default();
    (out, meter)
}

impl Ledger {
    /// Ledger transactions audited per second of auditing.
    fn audit_rate(&self, out: &AuditOut) -> f64 {
        per(
            self.txns as f64 * out.audits.len() as f64,
            out.audits.sum() / 1e3,
        )
    }
}

pub fn run(opts: &Options) -> Outcome {
    let dir = WorkDir::new("audit_replay");
    let persistence = cluster::persistence(dir.path(), DEFAULT_SNAPSHOT_INTERVAL);
    let mut setup = Samples::default();
    let mut checks = Checks::default();
    let mut ledger = None;
    for i in 0..SETUPS {
        dir.reset();
        let started = Instant::now();
        let cluster = FidesCluster::start(cluster::config(persistence.clone()));
        let loaded = commit_ledger(&cluster, opts.seed);
        let settled = quiesce(&cluster);
        let partitioner = cluster.partitioner().clone();
        let pks = cluster.server_pks().to_vec();
        let last = i + 1 == SETUPS;
        let checking = Instant::now();
        if last {
            checks.check(
                "preload outcomes co-signed",
                loaded.anomalies == 0 && loaded.failed == 0,
            );
            let mut reader = cluster.client(1);
            check_ledger(&cluster, &mut reader, loaded.committed, &mut checks);
        }
        let checked = checking.elapsed();
        cluster.shutdown();
        setup.push((started.elapsed() - checked).as_secs_f64());
        if last {
            let (logs, shards): (Vec<_>, Vec<_>) = settled.unwrap_or_default().into_iter().unzip();
            let txns = logs
                .first()
                .map_or(0, |l| l.iter().map(|b| b.txns.len() as u64).sum());
            ledger = Some(Ledger {
                logs,
                shards,
                partitioner,
                pks,
                dir: dir.path().to_path_buf(),
                persistence: persistence.clone(),
                txns,
            });
        }
    }
    let ledger = ledger.expect("at least one deployment");
    if ledger.logs.len() != SERVERS as usize {
        checks.check("servers settle after the preload", false);
    }

    let (untraced, plain_meter) = window(&ledger, opts, false);
    let traced = opts.trace.then(|| window(&ledger, opts, true));

    let mut all_unclean = untraced.unclean_audits;
    let mut all_bad = untraced.bad_recoveries;
    if let Some((t, _)) = &traced {
        all_unclean += t.unclean_audits;
        all_bad += t.bad_recoveries;
    }
    checks.check("every audit is clean", all_unclean == 0);
    checks.check("recovered tips and roots match", all_bad == 0);
    checks.check("audits ran", !untraced.audits.is_empty());

    let layer_values = |out: &AuditOut, meter: &Metered| {
        let mut layers = Values::new();
        let rate = ledger.audit_rate(out);
        meter.layers(ledger.txns as f64 * out.audits.len() as f64, &mut layers);
        let select = out.select.mean();
        layers.insert("audit.select_ms", select);
        layers.insert("client.latency_p99_ms", out.audits.quantile(0.99));
        layers.insert("audit.replay_ms", out.audits.mean() - select);
        layers.insert("recover.p50_ms", out.recoveries.quantile(0.5));
        layers.insert("recover.wal_read_ms", out.wal_read.mean());
        layers.insert("recover.verify_ms", out.verify.mean());
        layers.insert(WINDOW_RATE_KEY, rate);
        layers
    };
    let plain_layers = layer_values(&untraced, &plain_meter);
    let traced_layers = traced.as_ref().map(|(t, m)| layer_values(t, m));

    let mut e2e = Values::new();
    e2e.insert("txns_per_s", ledger.audit_rate(&untraced));
    e2e.insert("latency_p50_ms", untraced.audits.quantile(0.50));
    e2e.insert("setup_s", setup.quantile(0.5));
    let mut attempted = (untraced.audits.len() + untraced.recoveries.len()) as u64;
    if let Some((t, _)) = &traced {
        attempted += (t.audits.len() + t.recoveries.len()) as u64;
    }
    Outcome {
        attempted,
        failed: all_unclean + all_bad,
        checks,
        e2e,
        layers: crate::traced_layers(&plain_layers, traced_layers),
        counts: vec![
            ("latency_samples", untraced.audits.len() as u64),
            ("recover_samples", untraced.recoveries.len() as u64),
            ("setup_samples", setup.len() as u64),
            ("ledger_txns", ledger.txns),
        ],
        spans: traced.map(|(t, _)| t.spans).unwrap_or_default(),
    }
}
