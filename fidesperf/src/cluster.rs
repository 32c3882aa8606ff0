//! The deployment every workload runs on, the server-side counters read
//! over a window, and the correctness gate run after it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use fides_core::recovery::PersistenceConfig;
use fides_core::server::RoundStats;
use fides_core::{ClientSession, ClusterConfig, FidesCluster, ReadConsistency};
use fides_durability::{SyncPolicy, WalConfig};
use fides_ledger::{validate_chain, Decision, TamperProofLog};
use fides_store::{AuthenticatedShard, Key, Value};
use fides_telemetry::{HistogramSnapshot, MetricsSnapshot};

use crate::report::{Checks, Values};
use crate::stats::{pct, per};

pub const SERVERS: u32 = 4;
pub const ITEMS_PER_SHARD: usize = 10_000;
pub const BATCH: usize = 100;
pub const INITIAL_VALUE: i64 = 100;

/// File-backed persistence with the pipelined (group-commit) WAL.
pub fn persistence(dir: &Path, snapshot_interval: u64) -> PersistenceConfig {
    PersistenceConfig::files(dir)
        .wal(WalConfig {
            sync: SyncPolicy::Pipelined,
            ..WalConfig::default()
        })
        .snapshot_interval(snapshot_interval)
}

/// How long a leader waits for more transactions before it closes a
/// partial batch (the default of the `throughput` bench binary).
pub const FLUSH_INTERVAL: Duration = Duration::from_millis(10);

/// 4 servers, 10k items per shard, batch 100, rotating leaders.
pub fn config(persistence: PersistenceConfig) -> ClusterConfig {
    ClusterConfig::new(SERVERS)
        .items_per_shard(ITEMS_PER_SHARD)
        .batch_size(BATCH)
        .flush_interval(FLUSH_INTERVAL)
        .rotate_leaders(true)
        .initial_value(INITIAL_VALUE)
        .persistence(persistence)
}

/// Server `server`'s preloaded population — the replay base of a
/// recovery without a snapshot.
pub fn initial_shard(server: u32) -> AuthenticatedShard {
    AuthenticatedShard::new(
        (0..ITEMS_PER_SHARD)
            .map(|i| {
                (
                    FidesCluster::key_name(server, i),
                    Value::from_i64(INITIAL_VALUE),
                )
            })
            .collect(),
    )
}

/// The whole preloaded database: the auditor's trusted genesis state.
pub fn initial_state() -> HashMap<Key, Value> {
    (0..SERVERS)
        .flat_map(|s| (0..ITEMS_PER_SHARD).map(move |i| FidesCluster::key_name(s, i)))
        .map(|k| (k, Value::from_i64(INITIAL_VALUE)))
        .collect()
}

/// A working directory inside the benchmark's own directory, removed
/// when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(name: &str) -> WorkDir {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's work directory");
        WorkDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Empties the directory for a fresh deployment.
    pub fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.path);
        std::fs::create_dir_all(&self.path).expect("recreate the benchmark's work directory");
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Server-side counters the program exports, read at one instant.
pub struct Probe {
    metrics: MetricsSnapshot,
    rounds: RoundStats,
    merkle_nodes: u64,
    merkle_ns: u128,
    msgs: u64,
    bytes: u64,
}

impl Probe {
    pub fn take(cluster: &FidesCluster) -> Probe {
        let mht = cluster.mht_stats();
        Probe {
            metrics: cluster.metrics(),
            rounds: cluster.round_stats(),
            merkle_nodes: mht.iter().map(|m| m.nodes_recomputed).sum(),
            merkle_ns: mht.iter().map(|m| m.elapsed.as_nanos()).sum(),
            msgs: cluster.network_stats().messages_sent(),
            bytes: cluster.network_stats().bytes_sent(),
        }
    }

    fn hist(&self, start: &Probe, name: &str) -> (f64, f64) {
        let (a, b): (HistogramSnapshot, HistogramSnapshot) =
            (start.metrics.histogram(name), self.metrics.histogram(name));
        (
            b.count.saturating_sub(a.count) as f64,
            b.sum.saturating_sub(a.sum) as f64,
        )
    }

    fn counter(&self, start: &Probe, name: &str) -> f64 {
        self.metrics
            .counter(name)
            .saturating_sub(start.metrics.counter(name)) as f64
    }

    fn gauge_max(&self, name: &str) -> f64 {
        self.metrics.gauges.get(name).map_or(0, |g| g.max) as f64
    }

    /// Committed transactions between `start` and this probe.
    pub fn committed_since(&self, start: &Probe) -> u64 {
        self.rounds.committed_txns - start.rounds.committed_txns
    }

    /// Fills the server-side layer metrics for the window from `start`
    /// to this probe. `ops` is the unit of the workload's throughput.
    pub fn layers_since(&self, start: &Probe, ops: f64, window_s: f64, out: &mut Values) {
        let rounds = (self.rounds.rounds - start.rounds.rounds) as f64;
        let committed = self.committed_since(start) as f64;
        let aborted = (self.rounds.aborted_txns - start.rounds.aborted_txns) as f64;
        let round_ns = (self.rounds.round_nanos - start.rounds.round_nanos) as f64;
        out.insert("commit.round_ms", per(round_ns, rounds) / 1e6);
        for (stage, metric) in [
            ("batch_form", "commit.stage.batch_form_ms"),
            ("occ_validate", "commit.stage.occ_validate_ms"),
            ("merkle_update", "commit.stage.merkle_update_ms"),
            ("cosi_assemble", "commit.stage.cosi_assemble_ms"),
            ("wal_fsync", "commit.stage.wal_fsync_ms"),
            ("outcome_send", "commit.stage.outcome_send_ms"),
        ] {
            let (count, sum_ns) = self.hist(start, &format!("commit.stage.{stage}"));
            out.insert(metric, per(sum_ns, count) / 1e6);
        }
        out.insert("commit.txns_per_round", per(committed + aborted, rounds));
        out.insert("commit.rounds_per_s", per(rounds, window_s));
        out.insert(
            "commit.inflight_rounds_max",
            self.gauge_max("commit.inflight_rounds"),
        );
        out.insert("occ.abort_pct", pct(aborted, committed + aborted));
        out.insert(
            "commit.round_timeouts",
            self.counter(start, "commit.round.timeouts"),
        );
        out.insert(
            "store.nodes_rehashed_per_txn",
            per((self.merkle_nodes - start.merkle_nodes) as f64, committed),
        );
        out.insert(
            "store.merkle_us_per_txn",
            per((self.merkle_ns - start.merkle_ns) as f64 / 1e3, committed),
        );
        out.insert(
            "net.msgs_per_txn",
            per((self.msgs - start.msgs) as f64, ops),
        );
        out.insert(
            "net.bytes_per_txn",
            per((self.bytes - start.bytes) as f64, ops),
        );
        let (fsyncs, fsync_ns) = self.hist(start, "durability.fsync_ns");
        let (batches, blocks) = self.hist(start, "durability.batch_blocks");
        out.insert("wal.fsync_us", per(fsync_ns, fsyncs) / 1e3);
        out.insert("wal.blocks_per_fsync", per(blocks, batches));
        out.insert("wal.fsyncs_per_txn", per(fsyncs, committed));
        out.insert(
            "wal.queue_depth_max",
            self.gauge_max("durability.queue_depth"),
        );
        let owner = self.counter(start, "read.serve.owner");
        let mirror = self.counter(start, "read.serve.mirror");
        out.insert("read.mirror_share", per(mirror, owner + mirror));
    }
}

/// Every server's consistent `(log, shard)` pair after the cluster has
/// quiesced.
pub fn quiesce(cluster: &FidesCluster) -> Option<Vec<(TamperProofLog, AuthenticatedShard)>> {
    cluster.flush();
    cluster.settle(Duration::from_secs(20))?;
    Some(
        (0..SERVERS)
            .map(|s| cluster.server_state(s).audit_snapshot())
            .collect(),
    )
}

/// Committed transactions recorded in a log.
pub fn ledger_commits(log: &TamperProofLog) -> u64 {
    log.iter()
        .filter(|b| b.decision == Decision::Commit)
        .map(|b| b.txns.len() as u64)
        .sum()
}

/// The correctness gate on a quiesced cluster: one tip on every server,
/// valid chains, client commits backed by the ledger, conserved value
/// sum, written values proving against logged roots, fresh reads that
/// match the store, and no refuted read. `reader` is a session used for
/// nothing else.
pub fn check_ledger(
    cluster: &FidesCluster,
    reader: &mut ClientSession,
    client_commits: u64,
    checks: &mut Checks,
) {
    let Some(states) = quiesce(cluster) else {
        checks.check("servers settle to one height", false);
        return;
    };
    let pks = cluster.server_pks();
    let (first_log, _) = &states[0];
    checks.check(
        "one tip and tip hash on every server",
        states.iter().all(|(log, _)| {
            log.next_height() == first_log.next_height() && log.tip_hash() == first_log.tip_hash()
        }),
    );
    checks.check(
        "every chain validates",
        states
            .iter()
            .all(|(log, _)| validate_chain(log, pks).is_ok()),
    );
    checks.check(
        "client commits <= ledger commits",
        client_commits <= ledger_commits(first_log),
    );
    let total: i64 = states
        .iter()
        .flat_map(|(_, shard)| {
            shard
                .keys()
                .map(|k| shard.read(k).and_then(|s| s.value.as_i64()).unwrap_or(0))
        })
        .sum();
    checks.check(
        "value sum conserved",
        total == SERVERS as i64 * ITEMS_PER_SHARD as i64 * INITIAL_VALUE,
    );

    // The shard's live root must be the root its newest commit logged,
    // and the values of the newest commit that wrote to the shard must
    // prove against it.
    let partitioner = cluster.partitioner();
    let mut proved = true;
    let mut sample: Vec<Key> = Vec::new();
    for (s, (log, shard)) in states.iter().enumerate() {
        let s = s as u32;
        let mut commits = log
            .blocks()
            .iter()
            .rev()
            .filter(|b| b.decision == Decision::Commit);
        let logged_root = commits
            .clone()
            .find_map(|b| b.roots.iter().find(|r| r.server == s).map(|r| r.root));
        let writes: Vec<(Key, Value)> = commits
            .find_map(|b| {
                let writes: Vec<(Key, Value)> = b
                    .txns
                    .iter()
                    .flat_map(|t| &t.write_set)
                    .filter(|w| partitioner.owner(&w.key) == s)
                    .map(|w| (w.key.clone(), w.new_value.clone()))
                    .collect();
                (!writes.is_empty()).then_some(writes)
            })
            .unwrap_or_default();
        let Some(root) = logged_root else {
            proved = false;
            continue;
        };
        let keys: Vec<Key> = writes.iter().map(|(k, _)| k.clone()).collect();
        let expected: Vec<Option<Value>> = writes.into_iter().map(|(_, v)| Some(v)).collect();
        proved &= shard.root() == root
            && !keys.is_empty()
            && shard.prove_read(&keys).verify(&keys, &root).ok() == Some(expected);
        sample.extend(keys.into_iter().take(8));
    }
    checks.check("written values prove against logged roots", proved);

    // Fresh reads through the verified read plane match the stores.
    sample.extend((0..SERVERS).map(|s| FidesCluster::key_name(s, 0)));
    let expected: Vec<Option<Value>> = sample
        .iter()
        .map(|k| {
            let (_, shard) = &states[partitioner.owner(k) as usize];
            shard.read(k).map(|s| s.value)
        })
        .collect();
    checks.check(
        "fresh reads match the store",
        reader.read_only(&sample, ReadConsistency::Fresh).ok() == Some(expected),
    );
    checks.check("no read refuted", cluster.read_evidence().is_empty());
}
