//! The Fides database server (paper §3.1 Figure 3, §4).
//!
//! Each server is one thread owning the four components of Figure 3:
//! an **execution layer** (transactional reads and buffered writes), a
//! **commitment layer** (TFCommit cohort and, on the designated server,
//! the TFCommit coordinator; or their 2PC counterparts), a **datastore**
//! (a Merkle-authenticated multi-versioned shard) and the
//! **tamper-proof log**.
//!
//! # The pipelined commit hot path
//!
//! Server state is **lock-split into independent stages** (see
//! `docs/pipeline.md` for the full locking protocol), so the commit
//! path of block *h* overlaps work on its neighbours instead of
//! serializing everything behind one state mutex:
//!
//! * [`ExecState`] — write buffers, CoSi witnesses, buffered
//!   out-of-order decisions (the inbox/validation stage);
//! * [`ShardStage`] — the Merkle-authenticated datastore, whose batch
//!   leaf updates fan out over the process-wide thread pool
//!   (`MerkleTree::update_leaves_parallel`);
//! * [`LedgerStage`] — the tamper-proof log plus audit evidence;
//! * the durability stage — a [`Durability`] engine which, under
//!   `SyncPolicy::Pipelined`, is a dedicated WAL writer thread batching
//!   appends **across rounds** behind one covering fsync.
//!
//! A server therefore validates block *h+1* (exec + shard reads) while
//! the pool is hashing *h*'s subtree updates and the writer thread is
//! fsyncing *h−1*. Stage locks are never held two at a time by the
//! commit path; cross-stage consistency for the auditor comes from
//! [`ShardStage::applied_height`] (see [`ServerState::audit_snapshot`]).
//!
//! # Persistence
//!
//! A server may carry a [`Durability`] engine (attached at
//! construction, see [`crate::recovery`]). Every terminated block —
//! commit *and* abort — is appended to the durable log; inline modes
//! fsync on the commit path, the pipelined mode defers the fsync to the
//! writer thread and **acknowledges commits to clients only after the
//! covering fsync** (ordered acks). Every `snapshot_interval` blocks
//! the shard is checkpointed so restarts replay only a log suffix; the
//! pipelined mode saves snapshots only once their height is durable and
//! can prune WAL segments below them. On restart,
//! [`crate::recovery::recover_server`] re-validates the whole persisted
//! chain (hash links + batched collective-signature verification) and
//! cross-checks the replayed shard against the co-signed Merkle roots
//! before the server is allowed to serve traffic; a corrupted or
//! tampered disk fails startup rather than silently serving forged
//! state. Without an engine the server keeps the original memory-only
//! behavior.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fides_crypto::cosi::{self, Witness};
use fides_crypto::encoding::{Decodable, Encodable};
use fides_crypto::schnorr::{KeyPair, PublicKey};
use fides_crypto::Digest;
use fides_ledger::block::{Block, BlockBuilder, BlockHeader, Decision, ShardRoot, TxnRecord};
use fides_ledger::log::TamperProofLog;
use fides_net::{Endpoint, Envelope, NodeId};
use fides_store::authenticated::{AuthenticatedShard, MhtUpdateStats};
use fides_store::types::{ItemState, Key, Timestamp, Value};

use fides_durability::ShardSnapshot;
use fides_net::EndpointSender;

use crate::behavior::Behavior;
use crate::messages::{CommitProtocol, InvolvedVote, Message, PartialBlock, Refusal, TxnHandle};
use crate::occ;
use crate::partition::Partitioner;
use crate::recovery::{Durability, RecoveredServer};
use crate::repair::{verify_transfer, RepairEvidence, RepairFault, RepairShared};
use crate::telemetry::ServerTelemetry;
use fides_telemetry::trace::now_ns;
use fides_telemetry::{FlightRecorder, Level, Span, Stage, Stall, Stopwatch, TraceContext};

/// Map from node address to public key — the paper's "servers and
/// clients are uniquely identifiable using their public keys" (§3.1).
pub type Directory = Arc<HashMap<NodeId, PublicKey>>;

/// The inbox/validation stage: per-transaction buffers and per-round
/// protocol state. Touched by the execution layer and the vote/response
/// phases — never by the block-apply hot path's heavy work.
#[derive(Debug, Default)]
pub struct ExecState {
    /// Buffered (unapplied) writes per in-flight transaction (§4.2.1).
    pub write_buffers: HashMap<TxnHandle, Vec<(Key, Value)>>,
    /// CoSi witness state per block height.
    witnesses: HashMap<u64, Witness>,
    /// Root sent in the vote for each height (to detect replacement,
    /// Scenario 2).
    sent_roots: HashMap<u64, Digest>,
    /// Decision blocks that arrived ahead of this server's log tip
    /// (out-of-order delivery). They are verified **in batch** and
    /// applied as soon as the gap closes (the catch-up loop).
    pending_decisions: BTreeMap<u64, Block>,
    /// Rotation: `GetVote` rounds that arrived ahead of this server's
    /// log tip — the next leader raced this cohort's application of the
    /// previous decision. Voted as soon as catch-up closes the gap.
    gated_votes: BTreeMap<u64, (NodeId, PartialBlock)>,
    /// Rotation: `Challenge` phases that arrived ahead of the log tip,
    /// replayed after catch-up (same race as `gated_votes`).
    gated_challenges: BTreeMap<
        u64,
        (
            NodeId,
            Box<Block>,
            cosi::Commitment,
            fides_crypto::scalar::Scalar,
        ),
    >,
}

/// Where the co-signed root covering a shard's current state lives —
/// what a snapshot-read response must hand the client as its trust
/// anchor.
#[derive(Debug, Clone)]
pub enum RootProvenance {
    /// No root-bearing block has touched this shard yet: its state is
    /// the deterministic genesis population, which clients hold as a
    /// trusted root (applied height 0).
    Genesis,
    /// The newest applied block that carried this shard's root; its
    /// header is the self-authenticating carrier (applied height =
    /// `header.height + 1`).
    Header(Box<BlockHeader>),
    /// The state descends from a checkpoint whose co-signed root lives
    /// in a block this server no longer holds (checkpoint bootstrap
    /// with a root-less suffix): reads are refused until the next
    /// root-bearing block lands.
    Unknown,
}

impl RootProvenance {
    /// The newest applied block carrying the shard's root, from a log.
    fn from_log(log: &TamperProofLog, idx: u32) -> RootProvenance {
        for block in log.blocks().iter().rev() {
            if block.decision == Decision::Commit && block.root_of(idx).is_some() {
                return RootProvenance::Header(Box::new(block.header()));
            }
        }
        if log.base_height() == 0 {
            RootProvenance::Genesis
        } else {
            RootProvenance::Unknown
        }
    }

    /// `(applied root height, header to ship)` — `None` when reads
    /// cannot be anchored.
    fn anchor(&self) -> Option<(u64, Option<BlockHeader>)> {
        match self {
            RootProvenance::Genesis => Some((0, None)),
            RootProvenance::Header(h) => Some((h.height + 1, Some((**h).clone()))),
            RootProvenance::Unknown => None,
        }
    }
}

/// The datastore stage: the Merkle-authenticated shard plus the commit
/// watermark reads validate against.
#[derive(Debug)]
pub struct ShardStage {
    /// The authenticated datastore shard.
    pub shard: AuthenticatedShard,
    /// Highest committed transaction timestamp (end-txn requests at or
    /// below this are ignored, §4.3.1).
    pub last_committed: Timestamp,
    /// Height up to which blocks have been applied to the shard. Lags
    /// the ledger stage briefly while a block is mid-apply; the auditor
    /// uses it to take consistent (log, shard) snapshots.
    pub applied_height: u64,
    /// Provenance of the co-signed root covering the shard's current
    /// state (the verified read plane's trust anchor).
    pub last_root: RootProvenance,
    /// Newest committed write timestamp per key, across **all** shards
    /// (every server applies every commit block). The leader's batch
    /// former consults this to keep transactions whose read set is
    /// already overwritten — certain to abort under OCC — out of clean
    /// blocks ([`Server::select_batch`]).
    pub write_watermarks: HashMap<Key, Timestamp>,
}

/// A mirror's read-serving state, built once per mirrored checkpoint
/// and swapped **atomically** (one `Arc` per checkpoint): a read served
/// mid-supersede sees exactly one `(shard, root)` pair, never a torn
/// mix of old and new mirror.
#[derive(Debug)]
struct MirrorReadState {
    /// The mirrored checkpoint's applied height (= coverage watermark).
    covered: u64,
    /// Applied height of the co-signed root anchoring the mirror.
    root_height: u64,
    /// The root's carrier (`None` = genesis).
    header: Option<BlockHeader>,
    /// The restored shard the proofs are generated from.
    shard: AuthenticatedShard,
}

/// The ledger stage: the replicated log plus the audit evidence this
/// server accumulates.
#[derive(Debug, Default)]
pub struct LedgerStage {
    /// This server's copy of the globally replicated log.
    pub log: TamperProofLog,
    /// Rounds this server refused to co-sign (protocol anomalies it
    /// detected first-hand).
    pub refusals: Vec<(u64, Refusal)>,
    /// Culprits the coordinator identified via partial-signature checks
    /// (Lemma 4): `(height, server indices)`.
    pub cosi_culprits: Vec<(u64, Vec<u32>)>,
    /// Coordinator-side round statistics.
    pub round_stats: RoundStats,
}

/// Server state shared with the harness/auditor, **lock-split into
/// independently locked stages** so the commit pipeline's stages never
/// contend on one global mutex (see module docs). The commit path
/// acquires at most one stage lock at a time, in the fixed order
/// exec → shard → ledger → durability; multi-stage readers (the
/// auditor) synchronize through [`ShardStage::applied_height`].
#[derive(Debug)]
pub struct ServerState {
    /// This server's index (= shard index).
    pub idx: u32,
    /// Fault-injection configuration (immutable once running).
    behavior: Behavior,
    exec: parking_lot::Mutex<ExecState>,
    shard: parking_lot::Mutex<ShardStage>,
    ledger: parking_lot::Mutex<LedgerStage>,
    /// Persistence engine (`None` = original memory-only behavior).
    durability: parking_lot::Mutex<Option<Durability>>,
    /// Repair-plane state: lagging/repairing status, refuted-transfer
    /// evidence, and peers' checkpoint mirrors.
    repair: parking_lot::Mutex<RepairShared>,
    /// Per-origin mirror read-serving state, rebuilt lazily whenever a
    /// newer mirror supersedes the cached one (see [`MirrorReadState`]).
    mirror_reads: parking_lot::Mutex<HashMap<u32, Arc<MirrorReadState>>>,
    /// Lock-free metric handles (stage timers, counters, event ring).
    /// Recording never takes a stage lock; snapshots go through
    /// [`ServerState::metrics`].
    pub telemetry: ServerTelemetry,
}

/// Commit-round accounting (coordinator only).
///
/// The paper's "commit latency" ("time taken to terminate a transaction
/// once the client sends end transaction request") is
/// `round_nanos / committed_txns`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Protocol rounds driven to completion.
    pub rounds: u64,
    /// Total wall-clock time inside rounds, in nanoseconds.
    pub round_nanos: u128,
    /// Transactions committed across all rounds.
    pub committed_txns: u64,
    /// Transactions aborted across all rounds.
    pub aborted_txns: u64,
}

impl RoundStats {
    /// Folds another server's stats in — under rotating leadership the
    /// cluster's round accounting is the sum over every leader.
    pub fn merge(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
        self.round_nanos += other.round_nanos;
        self.committed_txns += other.committed_txns;
        self.aborted_txns += other.aborted_txns;
    }
}

impl ServerState {
    pub(crate) fn new(idx: u32, shard: AuthenticatedShard, behavior: Behavior) -> Self {
        ServerState {
            idx,
            behavior,
            exec: parking_lot::Mutex::new(ExecState::default()),
            shard: parking_lot::Mutex::new(ShardStage {
                shard,
                last_committed: Timestamp::ZERO,
                applied_height: 0,
                last_root: RootProvenance::Genesis,
                write_watermarks: HashMap::new(),
            }),
            ledger: parking_lot::Mutex::new(LedgerStage::default()),
            durability: parking_lot::Mutex::new(None),
            repair: parking_lot::Mutex::new(RepairShared::default()),
            mirror_reads: parking_lot::Mutex::new(HashMap::new()),
            telemetry: ServerTelemetry::new(idx as u64),
        }
    }

    /// State for a restarted server: log, shard, commit watermark,
    /// durability engine and persisted checkpoint mirrors come out of
    /// [`crate::recovery::recover_server`].
    pub(crate) fn recovered(idx: u32, behavior: Behavior, recovered: RecoveredServer) -> Self {
        let applied_height = recovered.log.next_height();
        let repair = RepairShared {
            mirrors: recovered.mirrors.into_iter().collect(),
            // A provisionally adopted checkpoint (snapshot ahead of a
            // torn WAL) starts the server in `Repairing`: it must not
            // serve commit votes until a peer's co-signed chain
            // confirms or replaces the adopted tip.
            repairing: recovered.provisional,
            since: recovered.provisional.then(Instant::now),
            ..RepairShared::default()
        };
        let last_root = RootProvenance::from_log(&recovered.log, idx);
        ServerState {
            idx,
            behavior,
            exec: parking_lot::Mutex::new(ExecState::default()),
            shard: parking_lot::Mutex::new(ShardStage {
                shard: recovered.shard,
                last_committed: recovered.last_committed,
                applied_height,
                last_root,
                write_watermarks: watermarks_from_log(&recovered.log),
            }),
            ledger: parking_lot::Mutex::new(LedgerStage {
                log: recovered.log,
                ..LedgerStage::default()
            }),
            durability: parking_lot::Mutex::new(Some(recovered.durability)),
            repair: parking_lot::Mutex::new(repair),
            mirror_reads: parking_lot::Mutex::new(HashMap::new()),
            telemetry: ServerTelemetry::new(idx as u64),
        }
    }

    /// A point-in-time snapshot of this server's metrics.
    pub fn metrics(&self) -> fides_telemetry::MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// The structured events this server recorded (newest-capacity
    /// window), ordered by sequence number.
    pub fn events(&self) -> Vec<fides_telemetry::Event> {
        self.telemetry.events.snapshot()
    }

    /// The fault-injection configuration.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// A point-in-time copy of this server's log.
    pub fn log(&self) -> TamperProofLog {
        self.ledger.lock().log.clone()
    }

    /// The log's tip height (`base + len` — correct for suffix logs).
    pub fn next_height(&self) -> u64 {
        self.ledger.lock().log.next_height()
    }

    /// Runs `f` over the shard (read access for tests/examples).
    pub fn with_shard<R>(&self, f: impl FnOnce(&AuthenticatedShard) -> R) -> R {
        f(&self.shard.lock().shard)
    }

    /// Runs `f` over the shard mutably — fault injection in tests.
    #[doc(hidden)]
    pub fn with_shard_mut<R>(&self, f: impl FnOnce(&mut AuthenticatedShard) -> R) -> R {
        f(&mut self.shard.lock().shard)
    }

    /// Highest committed transaction timestamp.
    pub fn last_committed(&self) -> Timestamp {
        self.shard.lock().last_committed
    }

    /// Refusals this server recorded (protocol anomalies).
    pub fn refusals(&self) -> Vec<(u64, Refusal)> {
        self.ledger.lock().refusals.clone()
    }

    /// Culprits identified by partial-signature checks (Lemma 4).
    pub fn cosi_culprits(&self) -> Vec<(u64, Vec<u32>)> {
        self.ledger.lock().cosi_culprits.clone()
    }

    /// Commit-round statistics (meaningful on the coordinator).
    pub fn round_stats(&self) -> RoundStats {
        self.ledger.lock().round_stats
    }

    /// Merkle-maintenance statistics.
    pub fn mht_stats(&self) -> MhtUpdateStats {
        self.shard.lock().shard.stats()
    }

    /// Zeroes the Merkle-maintenance statistics.
    pub fn reset_mht_stats(&self) {
        self.shard.lock().shard.reset_stats();
    }

    /// `true` while this server is repairing (gap detected, verified
    /// state transfer not yet installed). A repairing server votes
    /// abort for blocks touching its shard and is treated by the
    /// auditor as lagging, not faulty, until the grace deadline.
    pub fn is_repairing(&self) -> bool {
        self.repair.lock().repairing
    }

    /// When the current repair began (`None` when not repairing).
    pub fn repair_since(&self) -> Option<Instant> {
        self.repair.lock().since
    }

    /// Completed verified repairs over this server's lifetime.
    pub fn repair_completions(&self) -> u64 {
        self.repair.lock().completions
    }

    /// Refuted transfer attempts recorded against Byzantine peers.
    pub fn repair_evidence(&self) -> Vec<RepairEvidence> {
        self.repair.lock().evidence.clone()
    }

    /// Heights of the checkpoint mirrors this server holds for peers.
    pub fn mirror_heights(&self) -> Vec<(u32, u64)> {
        let repair = self.repair.lock();
        let mut heights: Vec<(u32, u64)> = repair
            .mirrors
            .iter()
            .map(|(origin, snap)| (*origin, snap.height))
            .collect();
        heights.sort_unstable();
        heights
    }

    /// The newest snapshot persisted on this server's disk — what it
    /// surrenders to the auditor so a suffix-log audit (peers pruned
    /// their WALs) can seed its replay from verified checkpoints.
    pub fn persisted_snapshot(&self) -> Option<ShardSnapshot> {
        let durability = self.durability.lock();
        match durability.as_ref()? {
            Durability::Inline { snapshots, .. } => snapshots.load_latest().ok().flatten(),
            Durability::Pipelined { pipeline, .. } => pipeline.load_latest_snapshot(),
        }
    }

    /// Height below which this server's blocks are durable — `None`
    /// without persistence; under inline durability every applied block
    /// is durable.
    pub fn durable_height(&self) -> Option<u64> {
        let durability = self.durability.lock();
        match durability.as_ref()? {
            Durability::Pipelined { pipeline, .. } => Some(pipeline.durable_height()),
            Durability::Inline { log, .. } => Some(log.block_count()),
        }
    }

    /// Blocks until everything submitted to the durability engine is
    /// stable (no-op without persistence or in inline mode, where the
    /// commit path already fsyncs).
    pub fn flush_durability(&self) {
        let durability = self.durability.lock();
        if let Some(Durability::Pipelined { pipeline, .. }) = durability.as_ref() {
            pipeline.flush();
        }
    }

    /// The log copy this server would hand an auditor — with its log
    /// faults applied (tampering happens at surrender time, §4.4).
    pub fn log_for_audit(&self) -> TamperProofLog {
        self.faulted(self.log())
    }

    fn faulted(&self, mut log: TamperProofLog) -> TamperProofLog {
        if let Some(h) = self.behavior.tamper_log_at {
            log.tamper_block(h, |b| {
                b.decision = match b.decision {
                    Decision::Commit => Decision::Abort,
                    Decision::Abort => Decision::Commit,
                }
            });
        }
        if let Some((a, b)) = self.behavior.reorder_log {
            log.reorder_blocks(a, b);
        }
        if let Some(keep) = self.behavior.truncate_log_to {
            log.truncate(keep);
        }
        log
    }

    /// Drops the durability engine, flushing a pipelined one (its Drop
    /// drains, fsyncs and joins the writer thread). Called by cluster
    /// shutdown so a restart can reopen the same directories.
    pub(crate) fn shutdown_durability(&self) {
        let _ = self.durability.lock().take();
    }

    /// Crash-test hook: tears the durability engine down **without**
    /// flushing — a pipelined engine abandons its un-fsynced tail, so
    /// the on-disk state is exactly what the last covering fsync left
    /// (the in-process stand-in for `kill -9` mid-stream). The server
    /// keeps running memory-only afterwards.
    #[doc(hidden)]
    pub fn kill_durability(&self) {
        if let Some(Durability::Pipelined { pipeline, .. }) = self.durability.lock().take() {
            pipeline.kill();
        }
    }

    /// A **consistent** `(log-for-audit, shard)` pair: the shard has
    /// applied exactly the blocks of the returned log. Because the
    /// stages are locked independently, the apply path can momentarily
    /// hold a block in the ledger that the shard has not absorbed yet;
    /// this retries until the [`ShardStage::applied_height`] watermark
    /// matches the log tip (instant on a settled cluster).
    pub fn audit_snapshot(&self) -> (TamperProofLog, AuthenticatedShard) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let log = self.log();
            let (shard, applied) = {
                let stage = self.shard.lock();
                (stage.shard.clone(), stage.applied_height)
            };
            if applied == log.next_height() || Instant::now() >= deadline {
                return (self.faulted(log), shard);
            }
            std::thread::yield_now();
        }
    }
}

/// Static per-server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// This server's index.
    pub idx: u32,
    /// Total number of servers.
    pub n_servers: u32,
    /// Which commitment protocol to run.
    pub protocol: CommitProtocol,
    /// Transactions per block (coordinator only).
    pub batch_size: usize,
    /// Idle time after which the coordinator terminates a partial batch.
    pub flush_interval: Duration,
    /// Phase timeout for vote/response collection.
    pub round_timeout: Duration,
    /// Run the repair plane (anti-entropy state transfer). Only
    /// meaningful under TFCommit — 2PC blocks are unsigned, so a
    /// transfer could not be verified.
    pub repair: bool,
    /// Broadcast saved snapshots to peers as checkpoint mirrors and
    /// persist received ones (see
    /// [`crate::recovery::PersistenceConfig::mirror_checkpoints`]).
    pub mirror_checkpoints: bool,
    /// Withhold client outcomes until a majority of servers reports the
    /// block durable (see
    /// [`crate::recovery::PersistenceConfig::quorum_acks`]).
    pub quorum_acks: bool,
    /// Rotate commit leadership deterministically by block height
    /// (`height % n_servers`) instead of pinning every round on
    /// [`COORDINATOR_IDX`]. TFCommit only; under rotation every server
    /// accepts end-transaction traffic and forwards queued work to the
    /// frontier leader ([`Message::EndTxnFwd`]) so no batch starves.
    pub rotate_leaders: bool,
    /// Liveness watchdog threshold: how long the frontier may sit still
    /// *with work outstanding* (live CoSi witnesses or queued end-txns)
    /// before the round-progress monitor declares a [`Stall`] and dumps
    /// the flight recorder. `Duration::ZERO` disables the watchdog.
    /// The main loop ticks at least every `flush_interval`, so
    /// detection lands within `stall_timeout + flush_interval` — with
    /// the default `stall_timeout == round_timeout`, well inside 2×
    /// the round timeout.
    pub stall_timeout: Duration,
}

/// The running server: message loop plus protocol handlers.
pub struct Server {
    state: Arc<ServerState>,
    endpoint: Endpoint,
    keypair: KeyPair,
    directory: Directory,
    partitioner: Partitioner,
    config: ServerConfig,
    /// Public keys of all servers, by index (the CoSi witness set).
    server_pks: Vec<PublicKey>,
    /// Coordinator: queued end-transaction requests.
    pending: Vec<PendingTxn>,
    /// Coordinator: when the oldest queued end-txn must be terminated
    /// even though the batch is not full. Deadline-based (not
    /// idle-based): a steady stream of execution traffic cannot starve
    /// block formation.
    batch_deadline: Option<Instant>,
    /// Authenticated messages awaiting dispatch: the transport is
    /// drained in bursts whose signatures are verified with **one**
    /// batched check ([`fides_net::verify_envelopes`]), and the decoded
    /// survivors queue here in arrival order.
    inbox: std::collections::VecDeque<(NodeId, Message, Option<TraceContext>)>,
    /// The in-flight anti-entropy repair, when this server detected a
    /// gap. While a task is active incoming decisions are buffered
    /// (never applied) so the verified transfer installs against a
    /// frozen base.
    repair_task: Option<RepairTask>,
    /// Rate limiter for repair-gap gossip queries.
    last_repair_query: Option<Instant>,
    /// Coordinator-only: outcomes withheld until a quorum of servers
    /// reports the block durable (`ServerConfig::quorum_acks`).
    quorum: Option<Arc<QuorumAcks>>,
    /// Per-peer liveness gauges (`net.peer.<i>.last_heard_ms`): set to
    /// milliseconds-on-the-process-epoch at every authenticated
    /// envelope receipt from that server.
    peer_last_heard: Vec<Arc<fides_telemetry::Gauge>>,
    /// Round-progress monitor state (see [`Server::tick_watchdog`]).
    watchdog: WatchdogTick,
    /// Coordinator: clients to notify per handle.
    running: bool,
}

#[derive(Clone, Debug)]
struct PendingTxn {
    handle: TxnHandle,
    client: NodeId,
    record: TxnRecord,
    /// The sampled trace context this end-txn arrived with (fides-trace
    /// — `None` for the unsampled 1−1/N of traffic). Survives
    /// forwarding; the round that terminates the transaction parents
    /// its spans under this context.
    trace: Option<TraceContext>,
    /// Rounds this transaction sat out because the leader's write
    /// watermarks already doom its read set (see
    /// [`Server::select_batch`]). Bounded by [`MAX_DOOMED_DEFERRALS`].
    deferrals: u32,
}

/// Round-progress watchdog state: when the frontier last moved, and
/// which stalled height was already reported (fire once per height).
struct WatchdogTick {
    last_frontier: u64,
    since: Instant,
    fired_for: Option<u64>,
}

/// The per-round causal context on the leader: every stage span of the
/// round hangs off `round_span`, which itself hangs off the sampled
/// client's root span.
#[derive(Clone, Copy)]
struct RoundTrace {
    ctx: TraceContext,
    round_span: u64,
    start_ns: u64,
}

impl RoundTrace {
    /// The context downstream messages (GetVote/Challenge/Decision) and
    /// spans carry: same trace, parented under the round span.
    fn child_ctx(&self) -> TraceContext {
        TraceContext {
            trace_id: self.ctx.trace_id,
            parent_span: self.round_span,
        }
    }
}

/// Blocks fetched per `RepairRequest` round trip.
const REPAIR_CHUNK: u32 = 64;

/// Cap on rounds parked in [`ExecState::gated_votes`] /
/// [`ExecState::gated_challenges`] (same bound as buffered decisions —
/// a Byzantine leader cannot balloon cohort memory with far-future
/// rounds).
const MAX_GATED_ROUNDS: usize = 1024;

/// How many rounds a doomed transaction (read set already overwritten
/// per the leader's write watermarks) may be held out of clean batches
/// before it is flushed into a dedicated abort round anyway.
const MAX_DOOMED_DEFERRALS: u32 = 4;

/// Minimum spacing between repair-gap gossip broadcasts.
const REPAIR_QUERY_GAP: Duration = Duration::from_millis(100);

/// One anti-entropy repair attempt: the staging area for blocks (and
/// possibly a checkpoint) fetched from `peer`, verified as a whole
/// before any byte reaches live state.
#[derive(Debug)]
struct RepairTask {
    /// The peer currently serving the transfer.
    peer: u32,
    /// Height the staged run starts at (this server's frozen tip, or
    /// the transferred checkpoint's height).
    base_height: u64,
    /// The hash the first staged block must link to (own verified tip,
    /// or the checkpoint's recorded tip hash).
    base_tip: Digest,
    /// A transferred checkpoint of this server's own shard, staged when
    /// peers pruned below `base_height` (verified internally on
    /// receipt; cross-checked against co-signed roots at install).
    checkpoint: Option<ShardSnapshot>,
    /// Blocks staged so far, consecutive from `base_height`.
    staged: Vec<Block>,
    /// The tip to reach (grows if the serving peer advances).
    target: u64,
    /// Peers that failed or refused this repair (tried and excluded).
    excluded: HashSet<u32>,
    /// Whether a checkpoint was already requested from `peer`.
    asked_checkpoint: bool,
    /// Last time `peer` responded (drives the unresponsive-peer
    /// retarget).
    last_activity: Instant,
    /// When the gap was first detected (spans retargets; feeds the
    /// `repair.duration_ns` histogram at install).
    started: Instant,
}

/// Coordinator-side quorum-durable outcome gate: client outcomes for a
/// block are released only once `quorum` distinct servers (the
/// coordinator included) report the block fsync-durable. Shared with
/// the WAL writer thread, whose ordered-ack callback records the
/// coordinator's own durability.
struct QuorumAcks {
    quorum: usize,
    sender: EndpointSender,
    keypair: KeyPair,
    from: NodeId,
    inner: parking_lot::Mutex<QuorumInner>,
}

#[derive(Default)]
struct QuorumInner {
    /// Outcome payloads withheld per height.
    pending: HashMap<u64, Vec<(NodeId, Vec<u8>)>>,
    /// Servers whose copy of each height is durable.
    acks: HashMap<u64, HashSet<u32>>,
}

impl QuorumAcks {
    /// Registers a block's withheld outcomes (coordinator thread, after
    /// the decision broadcast and before any `Durable` message for the
    /// height can be dispatched).
    fn register(&self, height: u64, payloads: Vec<(NodeId, Vec<u8>)>) {
        let mut inner = self.inner.lock();
        inner.pending.insert(height, payloads);
        self.release_if_ready(&mut inner, height);
    }

    /// Records that `server`'s copy of `height` is durable, releasing
    /// the withheld outcomes once the quorum is reached.
    fn record(&self, height: u64, server: u32) {
        let mut inner = self.inner.lock();
        inner.acks.entry(height).or_default().insert(server);
        // Bound stale entries: acks from rounds that never registered
        // outcomes, and withheld payloads whose quorum can no longer
        // realistically arrive (their clients timed out long ago).
        if height > 4096 {
            let floor = height - 4096;
            inner.acks.retain(|h, _| *h >= floor);
            inner.pending.retain(|h, _| *h >= floor);
        }
        self.release_if_ready(&mut inner, height);
    }

    fn release_if_ready(&self, inner: &mut QuorumInner, height: u64) {
        let ready = inner
            .acks
            .get(&height)
            .is_some_and(|acks| acks.len() >= self.quorum)
            && inner.pending.contains_key(&height);
        if !ready {
            return;
        }
        let payloads = inner.pending.remove(&height).expect("checked");
        inner.acks.remove(&height);
        for (client, payload) in payloads {
            self.sender
                .send(Envelope::sign(&self.keypair, self.from, client, payload));
        }
    }
}

/// The coordinator index (the "designated server", §4.1).
pub const COORDINATOR_IDX: u32 = 0;

/// The commit leader for block `height`: `height % n_servers` under
/// rotating leadership ([`ServerConfig::rotate_leaders`]), the fixed
/// [`COORDINATOR_IDX`] otherwise. Clients use this to aim end-txn
/// traffic at the server that will form the next block; a miss is
/// harmless (the receiver forwards via [`Message::EndTxnFwd`]).
pub fn leader_for_height(height: u64, n_servers: u32, rotate: bool) -> u32 {
    if rotate {
        (height % n_servers.max(1) as u64) as u32
    } else {
        COORDINATOR_IDX
    }
}

/// Computes the node id of server `idx` (servers occupy the low id
/// range).
pub fn server_node(idx: u32) -> NodeId {
    NodeId::new(idx)
}

/// Node id of client `idx`.
pub fn client_node(idx: u32) -> NodeId {
    NodeId::new(1 << 20 | idx)
}

/// Node id of the harness/admin endpoint (sends `Flush`/`Shutdown`).
pub fn admin_node() -> NodeId {
    NodeId::new(u32::MAX)
}

impl Server {
    /// Builds a server around pre-constructed state. Returns the shared
    /// state handle for the harness/auditor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: ServerConfig,
        shard: AuthenticatedShard,
        behavior: Behavior,
        endpoint: Endpoint,
        keypair: KeyPair,
        directory: Directory,
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
    ) -> (Server, Arc<ServerState>) {
        let state = ServerState::new(config.idx, shard, behavior);
        Server::from_state(
            config,
            state,
            endpoint,
            keypair,
            directory,
            partitioner,
            server_pks,
        )
    }

    /// Builds a server around an explicit [`ServerState`] — the restart
    /// path, where the state (log, shard, `last_committed`, durability
    /// handles) comes out of [`crate::recovery::recover_server`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_state(
        config: ServerConfig,
        state: ServerState,
        endpoint: Endpoint,
        keypair: KeyPair,
        directory: Directory,
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
    ) -> (Server, Arc<ServerState>) {
        let state = Arc::new(state);
        // Attach the metric handles the WAL writer thread records into
        // (fsync latency, batch size, queue depth) before any traffic.
        if let Some(Durability::Pipelined { pipeline, .. }) = state.durability.lock().as_ref() {
            pipeline.set_metrics(state.telemetry.pipeline_metrics());
        }
        // Under rotation every server leads some heights, so every
        // server needs the quorum tracker for the outcomes it withholds.
        let quorum = (config.quorum_acks
            && (config.idx == COORDINATOR_IDX || config.rotate_leaders))
            .then(|| {
                Arc::new(QuorumAcks {
                    quorum: (config.n_servers as usize / 2) + 1,
                    sender: endpoint.sender(),
                    keypair,
                    from: endpoint.node(),
                    inner: parking_lot::Mutex::new(QuorumInner::default()),
                })
            });
        let peer_last_heard = (0..config.n_servers)
            .map(|peer| {
                state
                    .telemetry
                    .registry
                    .gauge(&format!("net.peer.{peer}.last_heard_ms"))
            })
            .collect();
        let server = Server {
            state: Arc::clone(&state),
            endpoint,
            keypair,
            directory,
            partitioner,
            config,
            server_pks,
            pending: Vec::new(),
            batch_deadline: None,
            inbox: std::collections::VecDeque::new(),
            repair_task: None,
            last_repair_query: None,
            quorum,
            peer_last_heard,
            watchdog: WatchdogTick {
                last_frontier: 0,
                since: Instant::now(),
                fired_for: None,
            },
            running: true,
        };
        (server, state)
    }

    fn is_coordinator(&self) -> bool {
        self.config.idx == COORDINATOR_IDX
    }

    /// Whether deterministic leader rotation is active (TFCommit only —
    /// 2PC keeps the fixed designated coordinator).
    fn rotation_on(&self) -> bool {
        self.config.rotate_leaders && matches!(self.config.protocol, CommitProtocol::TfCommit)
    }

    /// The leader of the round at `height`.
    fn leader_of(&self, height: u64) -> u32 {
        leader_for_height(height, self.config.n_servers, self.rotation_on())
    }

    /// The height the next formed block will occupy — the frontier
    /// round. Takes the ledger lock; never call while holding a stage
    /// lock.
    fn frontier_height(&self) -> u64 {
        self.state.ledger.lock().log.next_height()
    }

    /// Whether this server leads the frontier round (and may therefore
    /// form the next batch).
    fn leads_frontier(&self) -> bool {
        if self.rotation_on() {
            self.leader_of(self.frontier_height()) == self.config.idx
        } else {
            self.is_coordinator()
        }
    }

    /// The server's message loop. Returns when a `Shutdown` message
    /// arrives or the network disappears.
    ///
    /// The coordinator terminates a round as soon as a full batch is
    /// pending, or when the oldest pending end-txn has waited
    /// `flush_interval` — a hard deadline, so block formation keeps
    /// pace even while execution traffic streams in continuously.
    pub fn run(mut self) {
        // Startup gossip: announce our tip so peers can tell us (and we
        // can tell them) about any gap — the rejoin path after a
        // restart, and a no-op on a fresh, level cluster.
        if self.repair_enabled() {
            self.broadcast_repair_query();
        }
        while self.running {
            let timeout = match self.batch_deadline {
                Some(deadline) if self.is_coordinator() || self.rotation_on() => deadline
                    .saturating_duration_since(Instant::now())
                    .min(self.config.flush_interval),
                _ => self.config.flush_interval,
            };
            match self.next_message(Instant::now() + timeout) {
                Ok((from, msg, trace)) => {
                    self.dispatch(from, msg, trace);
                    self.drive_rounds();
                    self.maybe_forward_pending();
                    self.drive_repair();
                }
                Err(fides_net::RecvError::Timeout) => {
                    self.drive_rounds();
                    self.maybe_forward_pending();
                    self.drive_repair();
                }
                Err(fides_net::RecvError::Disconnected) => break,
            }
            self.tick_watchdog();
        }
    }

    /// The round-progress liveness monitor, ticked every main-loop
    /// iteration (the loop wakes at least every `flush_interval`).
    ///
    /// A stall is declared when the frontier height has not moved for
    /// [`ServerConfig::stall_timeout`] **while work is outstanding** —
    /// live CoSi witnesses (votes cast whose decision never arrived)
    /// or queued end-transactions. Idle quiet is not a stall. On
    /// detection it records a structured [`Stall`] naming the stalled
    /// height and its leader, dumps a [`FlightRecorder`] (recent event
    /// ring + metrics snapshot + inflight round state) into the
    /// server's [`fides_telemetry::StallLog`], and fires once per
    /// stalled height — the trigger substrate for a timeout-driven
    /// view change (ROADMAP item 1).
    fn tick_watchdog(&mut self) {
        if self.config.stall_timeout.is_zero() {
            return;
        }
        let frontier = self.frontier_height();
        if frontier != self.watchdog.last_frontier {
            self.watchdog.last_frontier = frontier;
            self.watchdog.since = Instant::now();
            self.watchdog.fired_for = None;
            return;
        }
        let (witness_heights, gated) = {
            let exec = self.state.exec.lock();
            (
                exec.witnesses.keys().copied().collect::<Vec<u64>>(),
                exec.gated_votes.len() + exec.gated_challenges.len(),
            )
        };
        if witness_heights.is_empty() && self.pending.is_empty() {
            // Nothing outstanding: a still frontier is just quiet.
            self.watchdog.since = Instant::now();
            return;
        }
        let waited = self.watchdog.since.elapsed();
        if waited < self.config.stall_timeout || self.watchdog.fired_for == Some(frontier) {
            return;
        }
        self.watchdog.fired_for = Some(frontier);
        let stall = Stall {
            leader: self.leader_of(frontier) as u64,
            height: frontier,
            waited_ms: waited.as_millis() as u64,
        };
        self.state.telemetry.stalls.inc();
        self.state.telemetry.events.record(
            Level::Error,
            "watchdog",
            format!(
                "stall at height {} (leader {}, waited {} ms)",
                stall.height, stall.leader, stall.waited_ms
            ),
        );
        let mut notes = vec![
            format!("observer: server {}", self.config.idx),
            format!("live CoSi witnesses at heights {witness_heights:?}"),
            format!("queued end-txns: {}", self.pending.len()),
            format!("gated rounds (votes+challenges): {gated}"),
        ];
        if self.state.is_repairing() {
            notes.push("shard is repairing".to_string());
        }
        self.state.telemetry.stall_log.report(FlightRecorder {
            stall,
            at_ns: now_ns(),
            events: self.state.telemetry.events.snapshot(),
            metrics: self.state.telemetry.snapshot(),
            notes,
        });
    }

    /// The next authenticated message: pops the pre-verified inbox, or
    /// drains a burst from the transport and batch-verifies its
    /// signatures ([`fides_net::Endpoint::recv_verified_burst`] — one
    /// batched check with per-envelope fallback, so only forgeries
    /// drop; undecodable payloads are discarded, §3.1).
    fn next_message(
        &mut self,
        deadline: Instant,
    ) -> Result<(NodeId, Message, Option<TraceContext>), fides_net::RecvError> {
        /// Upper bound on one burst (bounds worst-case batch latency).
        const MAX_BURST: usize = 64;
        loop {
            if let Some(message) = self.inbox.pop_front() {
                return Ok(message);
            }
            let burst = self
                .endpoint
                .recv_verified_burst(deadline, &self.directory, MAX_BURST)?;
            for env in &burst {
                // Liveness gauge: any authenticated envelope from a
                // server peer counts as hearing from it.
                if let Some(gauge) = self.peer_last_heard.get(env.from.raw() as usize) {
                    gauge.set((now_ns() / 1_000_000) as i64);
                }
                if let Ok(msg) = Message::decode(&env.payload) {
                    self.inbox.push_back((env.from, msg, env.trace));
                }
            }
        }
    }

    /// Runs rounds while a full batch is queued or the batch deadline
    /// has passed (later end-txns may arrive during a round).
    ///
    /// A repairing coordinator drives no rounds: its log tip is behind
    /// the chain, so any block it formed would not extend its peers'
    /// logs. Pending end-txns wait (or get bounced as stale) until the
    /// repair installs.
    fn drive_rounds(&mut self) {
        if self.repair_task.is_some() || self.state.is_repairing() {
            return;
        }
        while self.running && self.leads_frontier() && !self.pending.is_empty() {
            let due = self.pending.len() >= self.config.batch_size
                || self
                    .batch_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline);
            if !due {
                return;
            }
            let before = self.pending.len();
            self.run_round();
            self.batch_deadline = if self.pending.is_empty() {
                None
            } else {
                // Leftovers start a fresh window.
                Some(Instant::now() + self.config.flush_interval)
            };
            if self.pending.len() >= before {
                break; // nothing progressed (all deferred)
            }
        }
    }

    /// Rotation liveness *and* batch concentration: a server holding
    /// queued end-txns it does not lead at the frontier (clients aim at
    /// an estimated leader and may race a leadership change) hands them
    /// to the frontier leader immediately. Forwarding eagerly — rather
    /// than waiting out the batch deadline — keeps the whole cluster's
    /// backlog concentrated at the one server about to run a round, so
    /// rotating blocks stay as full as fixed-coordinator blocks. A
    /// forward that races another leadership change simply hops again
    /// from the new recipient until it lands on the current leader.
    fn maybe_forward_pending(&mut self) {
        if !self.rotation_on()
            || self.pending.is_empty()
            || self.repair_task.is_some()
            || self.state.is_repairing()
        {
            return;
        }
        if !self.leads_frontier() {
            self.forward_pending();
        }
    }

    /// Sends every queued end-txn to the frontier leader as
    /// [`Message::EndTxnFwd`]. The forward carries the originating
    /// client's raw node id so the leader answers the client directly.
    fn forward_pending(&mut self) {
        let leader = self.leader_of(self.frontier_height());
        if leader == self.config.idx {
            return;
        }
        for txn in std::mem::take(&mut self.pending) {
            // A sampled txn's context rides the forward envelope, so
            // the eventual leader still parents the round under the
            // client's root span.
            self.send_traced(
                server_node(leader),
                &Message::EndTxnFwd {
                    client: txn.client.raw(),
                    handle: txn.handle,
                    record: txn.record,
                },
                txn.trace,
            );
        }
        self.batch_deadline = None;
    }

    fn send(&self, to: NodeId, msg: &Message) {
        self.send_traced(to, msg, None);
    }

    fn send_traced(&self, to: NodeId, msg: &Message, trace: Option<TraceContext>) {
        let env =
            Envelope::sign_traced(&self.keypair, self.endpoint.node(), to, msg.encode(), trace);
        self.endpoint.send(env);
    }

    fn broadcast_to_servers(&self, msg: &Message) {
        self.broadcast_to_servers_traced(msg, None);
    }

    fn broadcast_to_servers_traced(&self, msg: &Message, trace: Option<TraceContext>) {
        for s in 0..self.config.n_servers {
            if s != self.config.idx {
                self.send_traced(server_node(s), msg, trace);
            }
        }
    }

    fn dispatch(&mut self, from: NodeId, msg: Message, trace: Option<TraceContext>) {
        match msg {
            Message::Begin { txn } => self.handle_begin(txn),
            Message::Read { txn, key } => self.handle_read(from, txn, key),
            Message::ReadMany { txn, keys } => self.handle_read_many(from, txn, keys),
            Message::Write { txn, key, value } => self.handle_write(from, txn, key, value),
            Message::EndTxn { handle, record } => {
                // Rounds are driven by the main loop once a full batch
                // is pending.
                self.handle_end_txn(from, handle, record, trace);
            }
            Message::EndTxnFwd {
                client,
                handle,
                record,
            } if self.rotation_on() && from.raw() < self.config.n_servers => {
                self.enqueue_end_txn(NodeId::new(client), handle, record, trace);
            }
            Message::Flush if !self.pending.is_empty() && !self.state.is_repairing() => {
                if self.leads_frontier() {
                    self.run_round();
                } else if self.rotation_on() {
                    self.forward_pending();
                }
            }
            Message::GetVote { partial } => self.handle_get_vote(from, partial, trace),
            Message::Challenge {
                block,
                aggregate,
                challenge,
            } => self.handle_challenge(from, block, aggregate, challenge, trace),
            Message::Decision { block } => self.handle_decision_traced(block, trace),
            Message::TwoPcGetVote { partial } => self.handle_2pc_get_vote(from, partial),
            Message::TwoPcDecision { block } => self.handle_2pc_decision(block),
            Message::RepairQuery { next_height } => self.handle_repair_query(from, next_height),
            Message::RepairInfo {
                next_height,
                tip_hash,
                base_height,
                mirror_height,
            } => self.handle_repair_info(from, next_height, tip_hash, base_height, mirror_height),
            Message::RepairRequest { from: wanted, max } => {
                self.handle_repair_request(from, wanted, max);
            }
            Message::RepairBlocks {
                from: served_from,
                blocks,
                base_height,
                next_height,
            } => self.handle_repair_blocks(from, served_from, blocks, base_height, next_height),
            Message::RepairCheckpointRequest => self.handle_repair_checkpoint_request(from),
            Message::RepairCheckpoint { snapshot } => {
                self.handle_repair_checkpoint(from, snapshot.map(|s| *s));
            }
            Message::CheckpointMirror { snapshot } => {
                self.handle_checkpoint_mirror(from, *snapshot);
            }
            Message::Durable { height } => self.handle_durable(from, height),
            Message::SnapshotRead {
                req,
                shard,
                keys,
                min_covered,
                at_height,
            } => self.handle_snapshot_read(from, req, shard, keys, min_covered, at_height),
            Message::RootQuery { from: from_height } => self.handle_root_query(from, from_height),
            Message::Shutdown => self.running = false,
            // Responses to rounds we are not currently collecting for —
            // stale protocol traffic — are dropped.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Execution layer (§4.2.1).
    // ------------------------------------------------------------------

    fn handle_begin(&mut self, txn: TxnHandle) {
        self.state.exec.lock().write_buffers.entry(txn).or_default();
    }

    /// The batched read: one locked pass over the shard answers every
    /// key this transaction needs from this server, and the whole
    /// response costs one signature.
    fn handle_read_many(&mut self, from: NodeId, txn: TxnHandle, keys: Vec<Key>) {
        let stage = self.state.shard.lock();
        let items: Vec<crate::messages::ReadManyItem> = keys
            .into_iter()
            .map(|key| {
                let state = stage.shard.read(&key).map(|item| {
                    let value = if self.state.behavior().stale_read_keys.contains(&key) {
                        stale_value(&stage, &key, &item)
                    } else {
                        item.value.clone()
                    };
                    (value, item.rts, item.wts)
                });
                (key, state)
            })
            .collect();
        drop(stage);
        self.send(from, &Message::ReadManyResp { txn, items });
    }

    fn handle_read(&mut self, from: NodeId, txn: TxnHandle, key: Key) {
        let stage = self.state.shard.lock();
        let reply = match stage.shard.read(&key) {
            None => Message::ReadErr { txn, key },
            Some(item) => {
                let value = if self.state.behavior().stale_read_keys.contains(&key) {
                    stale_value(&stage, &key, &item)
                } else {
                    item.value.clone()
                };
                Message::ReadResp {
                    txn,
                    key,
                    value,
                    rts: item.rts,
                    wts: item.wts,
                }
            }
        };
        drop(stage);
        self.send(from, &reply);
    }

    fn handle_write(&mut self, from: NodeId, txn: TxnHandle, key: Key, value: Value) {
        let old = self
            .state
            .shard
            .lock()
            .shard
            .read(&key)
            .map(|item| (item.value, item.rts, item.wts));
        self.state
            .exec
            .lock()
            .write_buffers
            .entry(txn)
            .or_default()
            .push((key.clone(), value));
        self.send(from, &Message::WriteAck { txn, key, old });
    }

    fn handle_end_txn(
        &mut self,
        from: NodeId,
        handle: TxnHandle,
        record: TxnRecord,
        trace: Option<TraceContext>,
    ) {
        if !self.is_coordinator() && !self.rotation_on() {
            return; // only the designated coordinator terminates txns
        }
        self.enqueue_end_txn(from, handle, record, trace);
    }

    /// Queues a termination request (from a client directly, or relayed
    /// by a peer via [`Message::EndTxnFwd`]). Under rotation every
    /// server queues; a non-leader hands its queue to the frontier
    /// leader when the batch deadline passes.
    fn enqueue_end_txn(
        &mut self,
        client: NodeId,
        handle: TxnHandle,
        record: TxnRecord,
        trace: Option<TraceContext>,
    ) {
        let last = self.state.last_committed();
        if record.id <= last {
            // §4.3.1: "servers ignore any end transaction request with a
            // timestamp lower than the latest committed timestamp" — we
            // additionally tell the client so it can retry.
            self.send(client, &Message::EndTxnRejected { handle, hint: last });
            return;
        }
        if self.pending.iter().any(|p| p.handle == handle) {
            return; // forwarded duplicate of a request already queued
        }
        if self.pending.is_empty() {
            self.batch_deadline = Some(Instant::now() + self.config.flush_interval);
        }
        self.pending.push(PendingTxn {
            handle,
            client,
            record,
            trace,
            deferrals: 0,
        });
    }

    // ------------------------------------------------------------------
    // Cohort: TFCommit phases 2 and 4 (§4.3.1).
    // ------------------------------------------------------------------

    /// Phase 2 `<Vote, SchCommitment>` — shared by cohorts (message
    /// handler) and the coordinator (local call).
    ///
    /// OCC validation of large batches fans out per-transaction over
    /// the thread pool ([`occ::validate_batch_parallel`]), and the
    /// speculative root's Merkle work runs on the pool too — the
    /// "parallel Merkle/OCC execution" half of the commit pipeline.
    fn cohort_vote(&self, partial: &PartialBlock) -> (cosi::Commitment, Option<InvolvedVote>) {
        // Round id binds the nonce to (height, prev hash).
        let mut round_id = partial.height.to_be_bytes().to_vec();
        round_id.extend_from_slice(partial.prev_hash.as_bytes());
        let record_hint = partial.encode();
        let witness = Witness::commit(&self.keypair, &round_id, &record_hint);
        let commitment = witness.commitment();
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.insert(partial.height, witness);
            // Open rounds from this server's view: voted, not applied.
            self.state
                .telemetry
                .inflight_rounds
                .set(exec.witnesses.len() as i64);
        }

        let involved = self.involvement(&partial.txns);
        let involved_vote = if involved.contains(&self.config.idx) {
            if self.state.is_repairing() {
                // A repairing shard cannot validate reads or compute a
                // trustworthy speculative root — vote abort until the
                // verified transfer installs. The CoSi witness half
                // above still participates, so rounds not touching this
                // shard proceed at full speed.
                return (
                    commitment,
                    Some(InvolvedVote {
                        commit: false,
                        root: None,
                        failed: Vec::new(),
                    }),
                );
            }
            let mut stage = self.state.shard.lock();
            // Local OCC validation over this shard's slice (§4.3.1).
            let shard = &stage.shard;
            let failed = occ::validate_batch_parallel(&partial.txns, |key| {
                if self.partitioner.owner(key) == self.config.idx {
                    shard.read(key)
                } else {
                    None
                }
            });
            // Also enforce the sequential-log rule for the whole batch.
            let stale = partial.txns.iter().any(|t| t.id <= stage.last_committed);
            if failed.is_empty() && !stale {
                // Commit vote: compute the speculative root over all of
                // the block's writes that land on this shard.
                let writes = shard_writes(&partial.txns, &self.partitioner, self.config.idx);
                let root = stage.shard.speculative_root(&writes);
                drop(stage);
                self.state
                    .exec
                    .lock()
                    .sent_roots
                    .insert(partial.height, root);
                Some(InvolvedVote {
                    commit: true,
                    root: Some(root),
                    failed: Vec::new(),
                })
            } else {
                Some(InvolvedVote {
                    commit: false,
                    root: None,
                    failed,
                })
            }
        } else {
            None
        };
        (commitment, involved_vote)
    }

    fn handle_get_vote(
        &mut self,
        from: NodeId,
        partial: PartialBlock,
        trace: Option<TraceContext>,
    ) {
        if self.rotation_on() {
            if from.raw() != self.leader_of(partial.height) {
                return; // not that round's leader — ignore
            }
            let tip = self.frontier_height();
            if partial.height < tip {
                return; // stale round; the chain moved past it
            }
            if partial.height > tip {
                // The next leader raced our application of the previous
                // decision: park the round and vote right after
                // catch-up closes the gap.
                let mut exec = self.state.exec.lock();
                if exec.gated_votes.len() < MAX_GATED_ROUNDS {
                    exec.gated_votes.insert(partial.height, (from, partial));
                }
                return;
            }
        }
        let t0 = Instant::now();
        let start_ns = now_ns();
        let (commitment, involved) = self.cohort_vote(&partial);
        self.state
            .telemetry
            .stages
            .record(Stage::OccValidate, t0.elapsed().as_nanos() as u64);
        if let Some(ctx) = trace {
            // Cohort-side child of the leader's round span: where this
            // server spent the vote phase for the sampled transaction.
            let sink = &self.state.telemetry.spans;
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                "cohort.occ_validate",
                start_ns,
                partial.height,
            );
        }
        self.send(
            from,
            &Message::Vote {
                height: partial.height,
                commitment,
                involved,
            },
        );
    }

    /// Phase 4 `<null, SchResponse>` — the cohort-side checks of
    /// Lemma 5 / Scenario 2 followed by the Schnorr response.
    fn cohort_response(
        &self,
        block: &Block,
        aggregate: &cosi::Commitment,
        challenge: &fides_crypto::scalar::Scalar,
    ) -> Result<cosi::Response, Refusal> {
        // Fork guard: never co-sign a block at a height this log
        // already holds — a coordinator that restarted short (and has
        // not finished repairing) or is equivocating could otherwise
        // collect honest signatures for a second history.
        if block.height < self.state.ledger.lock().log.next_height() {
            return Err(Refusal::StaleHeight);
        }
        let involved = self.involvement(&block.txns);

        // Decision/roots consistency (§4.3.1 phase 4): a commit block
        // carries roots from *all* involved servers; an abort block has
        // at least one missing.
        let roots_present: HashSet<u32> = block.roots.iter().map(|r| r.server).collect();
        match block.decision {
            Decision::Commit => {
                if !involved.iter().all(|s| roots_present.contains(s)) {
                    return Err(Refusal::MissingRoots);
                }
            }
            Decision::Abort => {
                if !involved.is_empty() && involved.iter().all(|s| roots_present.contains(s)) {
                    return Err(Refusal::DecisionInconsistent);
                }
            }
        }

        let mut exec = self.state.exec.lock();
        // Own-root check (Scenario 2: a malicious coordinator storing an
        // incorrect root for a benign server is caught here).
        if let Some(sent) = exec.sent_roots.get(&block.height) {
            if block.decision == Decision::Commit && block.root_of(self.config.idx) != Some(*sent) {
                return Err(Refusal::RootMismatch);
            }
        }

        // Challenge recomputation (Lemma 5 Case 1: an equivocating
        // coordinator's challenge cannot correspond to both blocks).
        let expected = cosi::challenge(&aggregate.0, &block.signing_bytes());
        if expected != *challenge {
            return Err(Refusal::BadChallenge);
        }

        let witness = exec
            .witnesses
            .remove(&block.height)
            .ok_or(Refusal::BadChallenge)?;
        if self.state.behavior().corrupt_cosi_response {
            Ok(witness.respond_corrupt(challenge))
        } else {
            Ok(witness.respond(challenge))
        }
    }

    fn handle_challenge(
        &mut self,
        from: NodeId,
        block: Block,
        aggregate: cosi::Commitment,
        challenge: fides_crypto::scalar::Scalar,
        trace: Option<TraceContext>,
    ) {
        let height = block.height;
        if self.rotation_on() {
            if from.raw() != self.leader_of(height) {
                // Fork guard, rotation case: only `height % n` may
                // assemble the challenge for this height.
                self.state.telemetry.events.record(
                    Level::Warn,
                    "commit",
                    format!("refused to co-sign height {height}: WrongLeader"),
                );
                self.state
                    .ledger
                    .lock()
                    .refusals
                    .push((height, Refusal::WrongLeader));
                self.send(
                    from,
                    &Message::Response {
                        height,
                        result: Err(Refusal::WrongLeader),
                    },
                );
                return;
            }
            if height > self.frontier_height() {
                // Reordered ahead of the decision we have not applied
                // yet: park and replay after catch-up. (A height below
                // the tip falls through to the StaleHeight refusal.)
                let mut exec = self.state.exec.lock();
                if exec.gated_challenges.len() < MAX_GATED_ROUNDS {
                    exec.gated_challenges
                        .insert(height, (from, Box::new(block), aggregate, challenge));
                }
                return;
            }
        }
        let t0 = Instant::now();
        let start_ns = now_ns();
        let result = self.cohort_response(&block, &aggregate, &challenge);
        self.state
            .telemetry
            .stages
            .record(Stage::CosiAssemble, t0.elapsed().as_nanos() as u64);
        if let Some(ctx) = trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                "cohort.cosi_respond",
                start_ns,
                height,
            );
        }
        if let Err(refusal) = &result {
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("refused to co-sign height {height}: {refusal:?}"),
            );
            self.state.ledger.lock().refusals.push((height, *refusal));
        }
        self.send(from, &Message::Response { height, result });
    }

    /// Phase 5: verify the co-sign, then append and apply (§4.1 steps
    /// 6–7). Both commit and abort blocks are logged; only commit
    /// blocks update the datastore.
    ///
    /// Decisions that arrive **ahead** of this server's log tip
    /// (reordered delivery) are buffered unverified; once the gap
    /// closes, the whole consecutive run is verified with one
    /// [`cosi::verify_batch`] call in [`Server::catch_up`] instead of
    /// one full signature check per block.
    ///
    /// Takes the envelope's trace context when the decision arrived for
    /// a sampled round (buffered/replayed decisions lose it — only the
    /// direct path is attributed, which is the common case).
    fn handle_decision_traced(&mut self, block: Block, trace: Option<TraceContext>) {
        /// Upper bound on buffered future decisions (memory guard).
        const MAX_BUFFERED_DECISIONS: u64 = 1024;

        let tip = self.state.ledger.lock().log.next_height();
        // While a repair task is staging a transfer, every decision is
        // buffered — the verified install must land against a frozen
        // base, and the catch-up loop drains the buffer afterwards.
        if block.height > tip || self.repair_task.is_some() {
            let gapped = block.height > tip;
            if block.height >= tip && block.height - tip <= MAX_BUFFERED_DECISIONS {
                self.state
                    .exec
                    .lock()
                    .pending_decisions
                    .insert(block.height, block);
            }
            if gapped {
                // A gap: the decisions between our tip and this height
                // went missing (or we restarted short). Gossip our tip
                // so a peer's RepairInfo can start a transfer.
                self.maybe_query_repair();
            }
            return;
        }
        if !block
            .cosign
            .verify(&block.signing_bytes(), &self.server_pks)
        {
            // An unsigned/invalidly-signed block is never logged; the
            // anomaly surfaces at the clients and the audit.
            return;
        }
        self.apply_block_traced(block, CommitProtocol::TfCommit, trace);
        self.catch_up();
    }

    /// The catch-up loop: applies buffered decisions that have become
    /// consecutive with the log tip.
    ///
    /// The whole run is verified with a **single** batched
    /// collective-signature check; only if that fails does the loop
    /// fall back to per-block verification, applying valid blocks and
    /// stopping at the first invalid one (which cannot be linked into
    /// the chain, and whose absence will surface at the audit).
    fn catch_up(&mut self) {
        self.catch_up_decisions();
        self.drain_gated();
    }

    /// Rotation: replays `GetVote`/`Challenge` phases that were parked
    /// because they arrived ahead of the log tip, now that catch-up may
    /// have closed the gap. Entries the chain moved past are dropped.
    fn drain_gated(&mut self) {
        if !self.rotation_on() {
            return;
        }
        let tip = self.frontier_height();
        let (vote, challenge) = {
            let mut exec = self.state.exec.lock();
            exec.gated_votes.retain(|&h, _| h >= tip);
            exec.gated_challenges.retain(|&h, _| h >= tip);
            (
                exec.gated_votes.remove(&tip),
                exec.gated_challenges.remove(&tip),
            )
        };
        if let Some((from, partial)) = vote {
            self.handle_get_vote(from, partial, None);
        }
        if let Some((from, block, aggregate, scalar)) = challenge {
            self.handle_challenge(from, *block, aggregate, scalar, None);
        }
    }

    fn catch_up_decisions(&mut self) {
        if self.repair_task.is_some() {
            return; // frozen while a transfer is staging
        }
        loop {
            let run: Vec<Block> = {
                let tip = self.state.ledger.lock().log.next_height();
                let mut exec = self.state.exec.lock();
                let mut next = tip;
                let mut run = Vec::new();
                while let Some(block) = exec.pending_decisions.remove(&next) {
                    run.push(block);
                    next += 1;
                }
                // Drop stale entries at or below the tip.
                exec.pending_decisions.retain(|&h, _| h > tip);
                run
            };
            if run.is_empty() {
                return;
            }
            let records: Vec<Vec<u8>> = run.iter().map(|b| b.signing_bytes()).collect();
            let items: Vec<(&[u8], cosi::CollectiveSignature)> = records
                .iter()
                .map(Vec::as_slice)
                .zip(run.iter().map(|b| b.cosign))
                .collect();
            if cosi::verify_batch(&items, &self.server_pks) {
                for block in run {
                    self.apply_block(block, CommitProtocol::TfCommit);
                }
            } else {
                // Pinpoint the first invalid signature; the chain
                // cannot continue past it.
                let valid_prefix = items
                    .iter()
                    .position(|(record, sig)| !sig.verify(record, &self.server_pks))
                    .unwrap_or(items.len());
                let mut blocks = run.into_iter();
                for block in blocks.by_ref().take(valid_prefix) {
                    self.apply_block(block, CommitProtocol::TfCommit);
                }
                // Discard the invalid block, but re-buffer the blocks
                // behind it: a correctly signed copy of the bad height
                // may still arrive and let them apply.
                let _invalid = blocks.next();
                let mut exec = self.state.exec.lock();
                for block in blocks {
                    exec.pending_decisions.insert(block.height, block);
                }
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Cohort: 2PC baseline (§6.1).
    // ------------------------------------------------------------------

    fn handle_2pc_get_vote(&mut self, from: NodeId, partial: PartialBlock) {
        let involved = self.involvement(&partial.txns);
        let (commit, failed) = if involved.contains(&self.config.idx) {
            let stage = self.state.shard.lock();
            let shard = &stage.shard;
            let failed = occ::validate_batch_parallel(&partial.txns, |key| {
                if self.partitioner.owner(key) == self.config.idx {
                    shard.read(key)
                } else {
                    None
                }
            });
            (failed.is_empty(), failed)
        } else {
            (true, Vec::new())
        };
        self.send(
            from,
            &Message::TwoPcVote {
                height: partial.height,
                commit,
                failed,
            },
        );
    }

    fn handle_2pc_decision(&mut self, block: Block) {
        self.apply_block(block, CommitProtocol::TwoPhaseCommit);
    }

    // ------------------------------------------------------------------
    // Repair plane: serving side (any up-to-date server is a repair
    // peer) and requesting side (the gap-detection / staging / verified
    // install state machine). See `crate::repair` for the verification
    // obligations and `docs/repair.md` for the message flow.
    // ------------------------------------------------------------------

    /// Whether the repair plane runs on this server: TFCommit only
    /// (2PC blocks are unsigned, so a transfer could not be verified)
    /// and pointless without peers.
    fn repair_enabled(&self) -> bool {
        self.config.repair
            && self.config.protocol == CommitProtocol::TfCommit
            && self.config.n_servers > 1
    }

    /// Broadcasts our tip to every peer (rate-limited): the gossip that
    /// turns a height divergence into a repair in either direction.
    fn maybe_query_repair(&mut self) {
        if !self.repair_enabled() {
            return;
        }
        if self
            .last_repair_query
            .is_some_and(|at| at.elapsed() < REPAIR_QUERY_GAP)
        {
            return;
        }
        self.broadcast_repair_query();
    }

    fn broadcast_repair_query(&mut self) {
        self.last_repair_query = Some(Instant::now());
        let next_height = self.state.ledger.lock().log.next_height();
        self.broadcast_to_servers(&Message::RepairQuery { next_height });
    }

    /// Serving side of the gossip: answer with our tip, our servable
    /// floor and any mirror we hold for the requester — and, if the
    /// *requester* is ahead of us, treat the query as our own gap
    /// detection.
    fn handle_repair_query(&mut self, from: NodeId, their_next: u64) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let (next_height, tip_hash, base_height) = {
            let ledger = self.state.ledger.lock();
            (
                ledger.log.next_height(),
                ledger.log.tip_hash(),
                ledger.log.base_height(),
            )
        };
        let mirror_height = self
            .state
            .repair
            .lock()
            .mirrors
            .get(&from.raw())
            .map(|snap| snap.height);
        self.send(
            from,
            &Message::RepairInfo {
                next_height,
                tip_hash,
                base_height,
                mirror_height,
            },
        );
        if their_next > next_height {
            self.begin_repair(from.raw(), their_next);
        }
    }

    fn handle_repair_info(
        &mut self,
        from: NodeId,
        next_height: u64,
        tip_hash: Digest,
        _base_height: u64,
        _mirror_height: Option<u64>,
    ) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let (mine_next, mine_tip) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if next_height > mine_next {
            self.begin_repair(from.raw(), next_height);
            return;
        }
        if next_height == mine_next && tip_hash == mine_tip && self.repair_task.is_none() {
            // A peer at our exact tip: a provisionally adopted
            // checkpoint (snapshot recovered ahead of a torn WAL) is
            // now confirmed against the live chain.
            let mut repair = self.state.repair.lock();
            if repair.repairing {
                repair.repairing = false;
                repair.since = None;
            }
        }
    }

    /// Serving side of a block fetch. Ranges below the in-memory log's
    /// base are retried against the durability archive (pruned segments
    /// parked by [`fides_durability::SegmentArchive`]; inline engines
    /// only — under `SyncPolicy::Pipelined` the writer thread owns the
    /// log, and an archive-configured server holds the full history in
    /// memory anyway); a range gone from both is answered empty with
    /// our floor, steering the requester toward checkpoint transfer.
    fn handle_repair_request(&mut self, from: NodeId, wanted: u64, max: u32) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let max = max.min(REPAIR_CHUNK) as usize;
        let (mut blocks, mut base_height, next_height) = {
            let ledger = self.state.ledger.lock();
            (
                ledger.log.blocks_from(wanted, max),
                ledger.log.base_height(),
                ledger.log.next_height(),
            )
        };
        if blocks.is_empty() && wanted < base_height {
            // The in-memory log is a suffix; pruned history may still be
            // readable from the archive directory.
            let durability = self.state.durability.lock();
            if let Some(Durability::Inline { log, .. }) = durability.as_ref() {
                if let Ok(Some(archived)) = log.read_archived() {
                    if let Some(first) = archived.first() {
                        base_height = base_height.min(first.height);
                        let skip = wanted.saturating_sub(first.height) as usize;
                        if skip < archived.len() {
                            let end = skip.saturating_add(max).min(archived.len());
                            blocks = archived[skip..end].to_vec();
                        }
                    }
                }
            }
        }
        if self.state.behavior().tamper_repair_blocks {
            if let Some(block) = blocks.first_mut() {
                block.decision = match block.decision {
                    Decision::Commit => Decision::Abort,
                    Decision::Abort => Decision::Commit,
                };
            }
        }
        self.send(
            from,
            &Message::RepairBlocks {
                from: wanted,
                blocks,
                base_height,
                next_height,
            },
        );
    }

    /// Serving side of checkpoint transfer: hand back the requester's
    /// own mirrored shard image, if we hold one.
    fn handle_repair_checkpoint_request(&mut self, from: NodeId) {
        if !self.repair_enabled() || from.raw() >= self.config.n_servers {
            return;
        }
        let mut snapshot = self.state.repair.lock().mirrors.get(&from.raw()).cloned();
        if self.state.behavior().tamper_repair_checkpoint {
            if let Some(snap) = &mut snapshot {
                if let Some(item) = snap.checkpoint.items.first_mut() {
                    if let Some(version) = item.versions.last_mut() {
                        version.1 = fides_store::types::Value::from_i64(i64::MAX);
                    }
                }
            }
        }
        self.send(
            from,
            &Message::RepairCheckpoint {
                snapshot: snapshot.map(Box::new),
            },
        );
    }

    /// Stores (and persists) a peer's checkpoint mirror. The mirror is
    /// only provisional custody — a repairer adopting it re-verifies it
    /// against the co-signed chain — but refusing internally
    /// inconsistent images early keeps garbage off the disk.
    fn handle_checkpoint_mirror(&mut self, from: NodeId, snapshot: ShardSnapshot) {
        let origin = from.raw();
        if !self.config.mirror_checkpoints
            || !self.repair_enabled()
            || origin >= self.config.n_servers
            || origin == self.config.idx
        {
            return;
        }
        if snapshot.restore_verified().is_err() {
            return;
        }
        {
            let mut repair = self.state.repair.lock();
            let newer = repair
                .mirrors
                .get(&origin)
                .is_none_or(|held| snapshot.height > held.height);
            if !newer {
                return;
            }
            repair.mirrors.insert(origin, snapshot.clone());
        }
        // The superseded mirror's read cache is stale now; the next
        // snapshot read rebuilds it from the new checkpoint (reads in
        // flight keep their Arc — exactly one co-signed root each).
        self.state.mirror_reads.lock().remove(&origin);
        let mut durability = self.state.durability.lock();
        match durability.as_mut() {
            None => {}
            Some(Durability::Inline { snapshots, .. }) => {
                snapshots
                    .save_mirror(origin, &snapshot)
                    .expect("mirror save failed");
            }
            Some(Durability::Pipelined { pipeline, .. }) => {
                pipeline.submit_mirror(origin, snapshot);
            }
        }
    }

    /// Quorum-durable acks: a cohort reported its copy of `height`
    /// fsync-durable.
    fn handle_durable(&mut self, from: NodeId, height: u64) {
        if from.raw() >= self.config.n_servers {
            return;
        }
        if let Some(quorum) = &self.quorum {
            quorum.record(height, from.raw());
        }
    }

    // ------------------------------------------------------------------
    // Verified read plane: proof-carrying snapshot reads served from
    // the live shard (owner) or from a verified checkpoint mirror of a
    // peer's shard (any holder) — read-only traffic never enters a
    // commit round. See `docs/reads.md`.
    // ------------------------------------------------------------------

    /// Coarse estimate of the remaining repair time, shipped in
    /// `ReadRefusal::Repairing` so clients retarget instead of burning
    /// their op-timeout against this server.
    fn repair_eta_ms(&self) -> u32 {
        match &self.repair_task {
            Some(task) => {
                let staged = task.base_height + task.staged.len() as u64;
                let remaining = task.target.saturating_sub(staged);
                // ~1 ms/block transfer+verify, floored at one gossip gap.
                (remaining.saturating_mul(1).clamp(100, 5_000)) as u32
            }
            None => 100,
        }
    }

    fn refuse_read(&self, to: NodeId, req: u64, reason: crate::messages::ReadRefusal) {
        self.state.telemetry.read_refusals.inc();
        self.state.telemetry.events.record(
            Level::Debug,
            "read",
            format!("refused snapshot read {req}: {reason:?}"),
        );
        self.send(to, &Message::SnapshotReadRefused { req, reason });
    }

    /// Serves a proof-carrying snapshot read: from the live shard when
    /// this server owns it, from a cached verified mirror otherwise.
    fn handle_snapshot_read(
        &mut self,
        from: NodeId,
        req: u64,
        shard_idx: u32,
        keys: Vec<Key>,
        min_covered: u64,
        at_height: Option<u64>,
    ) {
        use crate::messages::ReadRefusal;
        if self.config.protocol != CommitProtocol::TfCommit {
            // The 2PC baseline co-signs nothing and keeps no Merkle
            // tree: no proof a client could verify exists. Refusing is
            // the honest answer (serving would only earn an honest
            // server false TamperedRead evidence).
            self.refuse_read(from, req, ReadRefusal::NoSnapshot);
            return;
        }
        if self.state.is_repairing() {
            // A repairing shard cannot anchor trustworthy reads, and a
            // mirror held here may be what the repair itself is about.
            let eta_hint_ms = self.repair_eta_ms();
            self.refuse_read(from, req, ReadRefusal::Repairing { eta_hint_ms });
            return;
        }
        let ignore_bounds = self.state.behavior().ignore_read_bounds;
        let (root_height, covered, header, proof) = if shard_idx == self.config.idx {
            // Owner path: one shard-stage lock covers proof generation
            // and the anchor — a consistent (state, root) pair even
            // while the commit pipeline is mid-flight.
            let stage = self.state.shard.lock();
            let Some((root_height, header)) = stage.last_root.anchor() else {
                // Checkpoint bootstrap with no root-bearing block yet.
                self.refuse_read(from, req, ReadRefusal::TooStale { best_covered: 0 });
                return;
            };
            let covered = stage.applied_height;
            if covered < min_covered && !ignore_bounds {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: covered,
                    },
                );
                return;
            }
            if at_height.is_some_and(|h| root_height > h || h > covered) && !ignore_bounds {
                // The live state is not the state at `h` (a root landed
                // after it, or `h` is in the future).
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: covered,
                    },
                );
                return;
            }
            let proof = stage.shard.prove_read(&keys);
            (root_height, covered, header, proof)
        } else {
            // Mirror path: serve a *peer's* shard from its verified
            // checkpoint mirror. The whole response derives from one
            // cached `Arc<MirrorReadState>` — a mirror superseded
            // mid-read cannot produce a torn (state, root) mix.
            let Some(mirror) = self.mirror_read_state(shard_idx) else {
                self.refuse_read(from, req, ReadRefusal::NoSnapshot);
                return;
            };
            if mirror.covered < min_covered && !ignore_bounds {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: mirror.covered,
                    },
                );
                return;
            }
            if at_height.is_some_and(|h| mirror.root_height > h || h > mirror.covered)
                && !ignore_bounds
            {
                self.refuse_read(
                    from,
                    req,
                    ReadRefusal::TooStale {
                        best_covered: mirror.covered,
                    },
                );
                return;
            }
            let proof = mirror.shard.prove_read(&keys);
            (
                mirror.root_height,
                mirror.covered,
                mirror.header.clone(),
                proof,
            )
        };

        // Byzantine switches: forge values/absences inside the response
        // (the genuine proofs then refute the forgery client-side).
        let mut proof = proof;
        let behavior = self.state.behavior();
        if !behavior.forge_read_values.is_empty() || !behavior.forge_read_absence.is_empty() {
            for (key, entry) in keys.iter().zip(proof.entries.iter_mut()) {
                if behavior.forge_read_values.contains(key) {
                    if let fides_store::ReadEntryProof::Present { value, .. } = entry {
                        *value = Value::from_i64(i64::MAX);
                    }
                }
                if behavior.forge_read_absence.contains(key) {
                    *entry = fides_store::ReadEntryProof::Absent(fides_store::AbsenceProof {
                        pred: None,
                        succ: fides_store::AbsenceSuccessor::Empty,
                    });
                }
            }
        }

        if shard_idx == self.config.idx {
            self.state.telemetry.reads_owner.inc();
        } else {
            self.state.telemetry.reads_mirror.inc();
        }
        self.send(
            from,
            &Message::SnapshotReadResp {
                req,
                shard: shard_idx,
                root_height,
                covered_height: covered,
                header: header.map(Box::new),
                proof: Box::new(proof),
            },
        );
    }

    /// The cached read-serving state for `origin`'s mirror, built (and
    /// cross-checked against the co-signed chain) on first use per
    /// checkpoint.
    fn mirror_read_state(&self, origin: u32) -> Option<Arc<MirrorReadState>> {
        let snapshot = self.state.repair.lock().mirrors.get(&origin).cloned()?;
        {
            let cache = self.state.mirror_reads.lock();
            if let Some(state) = cache.get(&origin) {
                if state.covered == snapshot.height {
                    return Some(Arc::clone(state));
                }
            }
        }
        self.state.telemetry.mirror_rebuilds.inc();
        // Build outside the cache lock (restore is expensive).
        let shard = snapshot.restore_verified().ok()?;
        // Anchor: the newest commit block below the checkpoint height
        // carrying the origin's root. The restored mirror must match it
        // — a forged-but-internally-consistent mirror is refused here
        // rather than served.
        let (root_height, header) = {
            let ledger = self.state.ledger.lock();
            let base = ledger.log.base_height();
            let mut found = None;
            let mut h = snapshot.height;
            while h > base {
                h -= 1;
                let block = ledger.log.get(h)?;
                if block.decision == Decision::Commit && block.root_of(origin).is_some() {
                    found = Some(Box::new(block.header()));
                    break;
                }
            }
            match found {
                Some(header) => (header.height + 1, Some(*header)),
                None if base == 0 => (0, None),
                // The anchoring history is pruned here: cannot serve.
                None => return None,
            }
        };
        if let Some(header) = &header {
            if header.root_of(origin) != Some(shard.root()) {
                return None;
            }
        }
        let state = Arc::new(MirrorReadState {
            covered: snapshot.height,
            root_height,
            header,
            shard,
        });
        self.state
            .mirror_reads
            .lock()
            .insert(origin, Arc::clone(&state));
        Some(state)
    }

    /// Serves recent co-signed headers (the pull half of the root
    /// announcement): walking down from the tip, every header that
    /// contributes a shard's newest commit root, until all shards are
    /// covered, the scan cap is hit, or `from` is passed.
    fn handle_root_query(&mut self, from: NodeId, from_height: u64) {
        const MAX_SCAN: usize = 256;
        const MAX_HEADERS: usize = 32;
        if self.config.protocol != CommitProtocol::TfCommit {
            // Unsigned (2PC) blocks yield no verifiable headers.
            self.send(
                from,
                &Message::RootAnnounce {
                    headers: Vec::new(),
                },
            );
            return;
        }
        let headers = {
            let ledger = self.state.ledger.lock();
            let tip = ledger.log.next_height();
            let base = ledger.log.base_height();
            let mut headers: Vec<BlockHeader> = Vec::new();
            let mut covered: HashSet<u32> = HashSet::new();
            let mut scanned = 0usize;
            let mut h = tip;
            while h > base && scanned < MAX_SCAN && headers.len() < MAX_HEADERS {
                h -= 1;
                scanned += 1;
                let Some(block) = ledger.log.get(h) else {
                    break;
                };
                let contributes = block.decision == Decision::Commit
                    && block.roots.iter().any(|r| !covered.contains(&r.server));
                // The tip header always ships (freshness evidence).
                if headers.is_empty() || contributes {
                    if block.decision == Decision::Commit {
                        covered.extend(block.roots.iter().map(|r| r.server));
                    }
                    headers.push(block.header());
                }
                if covered.len() >= self.config.n_servers as usize && h <= from_height {
                    break;
                }
            }
            headers
        };
        self.send(from, &Message::RootAnnounce { headers });
    }

    // ---- Requesting side ------------------------------------------------

    /// Starts a repair toward `target` served by `peer`, unless one is
    /// already running or we are not actually behind.
    fn begin_repair(&mut self, peer: u32, target: u64) {
        if !self.repair_enabled() || self.repair_task.is_some() || peer == self.config.idx {
            return;
        }
        let (tip, tip_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if target <= tip {
            return;
        }
        {
            let mut repair = self.state.repair.lock();
            if !repair.repairing {
                repair.repairing = true;
                repair.since = Some(Instant::now());
            }
        }
        let mut excluded = HashSet::new();
        excluded.insert(self.config.idx);
        self.state.telemetry.repair_started.inc();
        self.state.telemetry.events.record(
            Level::Info,
            "repair",
            format!("gap detected: tip {tip}, target {target}, serving peer {peer}"),
        );
        self.repair_task = Some(RepairTask {
            peer,
            base_height: tip,
            base_tip: tip_hash,
            checkpoint: None,
            staged: Vec::new(),
            target,
            excluded,
            asked_checkpoint: false,
            last_activity: Instant::now(),
            started: Instant::now(),
        });
        self.send_repair_request();
    }

    fn send_repair_request(&mut self) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        let from = task.base_height + task.staged.len() as u64;
        let peer = server_node(task.peer);
        task.last_activity = Instant::now();
        self.send(
            peer,
            &Message::RepairRequest {
                from,
                max: REPAIR_CHUNK,
            },
        );
    }

    /// Requesting side: stage a served chunk, fall back to checkpoint
    /// transfer when the peer pruned the range, finalize when the
    /// target is reached.
    fn handle_repair_blocks(
        &mut self,
        from: NodeId,
        served_from: u64,
        blocks: Vec<Block>,
        peer_base: u64,
        peer_next: u64,
    ) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        if from.raw() != task.peer {
            return;
        }
        task.last_activity = Instant::now();
        let expected = task.base_height + task.staged.len() as u64;
        if served_from != expected {
            return; // stale response from an earlier staging position
        }
        task.target = task.target.max(peer_next);
        if blocks.is_empty() {
            if expected < peer_base {
                // The peer pruned this range: its own WAL floor is above
                // what we need. Fall back to a checkpoint of our shard.
                if task.checkpoint.is_none() && !task.asked_checkpoint {
                    task.asked_checkpoint = true;
                    let peer = server_node(task.peer);
                    self.send(peer, &Message::RepairCheckpointRequest);
                    return;
                }
                self.retarget_repair(true);
                return;
            }
            if expected >= task.target {
                self.finalize_repair();
            } else {
                // The peer claims a tip it cannot serve toward: move on.
                self.retarget_repair(true);
            }
            return;
        }
        // Cheap structural gate (full verification happens at install):
        // the chunk must be consecutive from the requested height.
        if blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.height != expected + i as u64)
        {
            self.retarget_repair(true);
            return;
        }
        self.state.telemetry.repair_blocks.add(blocks.len() as u64);
        self.state
            .telemetry
            .repair_bytes
            .add(blocks.iter().map(|b| b.encode().len() as u64).sum());
        task.staged.extend(blocks);
        if task.base_height + task.staged.len() as u64 >= task.target {
            self.finalize_repair();
        } else {
            self.send_repair_request();
        }
    }

    /// Requesting side of checkpoint transfer: verify the mirrored
    /// image internally, then restage the fetch from its height — the
    /// chain anchoring at install refutes a forged `tip_hash`.
    fn handle_repair_checkpoint(&mut self, from: NodeId, snapshot: Option<ShardSnapshot>) {
        let Some(task) = &mut self.repair_task else {
            return;
        };
        if from.raw() != task.peer || !task.asked_checkpoint {
            return;
        }
        task.last_activity = Instant::now();
        let Some(snapshot) = snapshot else {
            // An honest "I hold no mirror for you" — not evidence.
            self.retarget_repair(true);
            return;
        };
        if snapshot.restore_verified().is_err() {
            let peer = task.peer;
            self.record_repair_evidence(peer, RepairFault::BadCheckpoint);
            self.retarget_repair(true);
            return;
        }
        if snapshot.height <= task.base_height {
            // Older than what we already hold: useless here.
            self.retarget_repair(true);
            return;
        }
        task.target = task.target.max(snapshot.height);
        task.base_height = snapshot.height;
        task.base_tip = snapshot.tip_hash;
        self.state
            .telemetry
            .repair_bytes
            .add(snapshot.encode().len() as u64);
        task.checkpoint = Some(snapshot);
        task.staged.clear();
        if task.base_height >= task.target {
            self.finalize_repair();
        } else {
            self.send_repair_request();
        }
    }

    /// Verifies the complete staged transfer and installs it, or
    /// records evidence against the serving peer and retries elsewhere.
    fn finalize_repair(&mut self) {
        let Some(task) = self.repair_task.take() else {
            return;
        };
        let (base_shard, base_last_committed) = match &task.checkpoint {
            Some(snap) => (
                snap.restore_verified().expect("verified on receipt"),
                snap.last_committed,
            ),
            None => {
                let stage = self.state.shard.lock();
                (stage.shard.clone(), stage.last_committed)
            }
        };
        match verify_transfer(
            self.config.idx,
            &self.partitioner,
            &self.server_pks,
            self.config.protocol,
            crate::repair::TransferBase {
                height: task.base_height,
                tip: task.base_tip,
                shard: base_shard,
                last_committed: base_last_committed,
            },
            &task.staged,
        ) {
            Err(fault) => {
                // Attribution discipline: a base mismatch on an
                // *extension* transfer means our own (provisionally
                // adopted) anchor is wrong — the peer served genuinely
                // co-signed blocks and must not be accused. On a
                // checkpoint transfer the same fault proves the
                // checkpoint the peer served carries a forged tip hash.
                match fault {
                    RepairFault::BaseMismatch { .. } if task.checkpoint.is_none() => {}
                    RepairFault::BaseMismatch { .. } => {
                        self.record_repair_evidence(task.peer, RepairFault::BadCheckpoint);
                    }
                    fault => self.record_repair_evidence(task.peer, fault),
                }
                let mut excluded = task.excluded;
                excluded.insert(task.peer);
                self.restart_repair_task(excluded, task.target, task.started);
            }
            Ok(verified) => {
                // A checkpoint installed with no co-signed suffix on top
                // carries an unconfirmed tip hash: stay provisional
                // (repairing) until a peer at the same height confirms
                // it — see `handle_repair_info`.
                let provisional = task.checkpoint.is_some() && task.staged.is_empty();
                let install_start = Instant::now();
                self.install_transfer(&task, verified.shard, verified.last_committed);
                self.state
                    .telemetry
                    .repair_install_ns
                    .record_duration(install_start.elapsed());
                {
                    let mut repair = self.state.repair.lock();
                    repair.repairing = provisional;
                    repair.since = provisional.then(Instant::now);
                    repair.completions += 1;
                }
                self.state.telemetry.repair_completed.inc();
                self.state
                    .telemetry
                    .repair_duration_ns
                    .record_duration(task.started.elapsed());
                self.state.telemetry.events.record(
                    Level::Info,
                    "repair",
                    format!(
                        "installed verified transfer from peer {}: {} blocks to height {}{}",
                        task.peer,
                        task.staged.len(),
                        task.base_height + task.staged.len() as u64,
                        if provisional { " (provisional)" } else { "" },
                    ),
                );
                // Buffered live decisions apply now that the base moved.
                self.catch_up();
                // The chain may have advanced while we staged: re-gossip
                // so a remaining gap starts a fresh (short) repair.
                self.broadcast_repair_query();
            }
        }
    }

    /// Installs a verified transfer into the staged server state, one
    /// stage lock at a time (same order as the live apply path). For a
    /// checkpoint bootstrap the ledger becomes a suffix log, the WAL is
    /// reset to restart at the checkpoint height (which is persisted
    /// first), and the shard is replaced wholesale.
    fn install_transfer(
        &mut self,
        task: &RepairTask,
        shard: AuthenticatedShard,
        last_committed: Timestamp,
    ) {
        let new_tip = task.base_height + task.staged.len() as u64;
        // Stage 1 — ledger.
        {
            let mut ledger = self.state.ledger.lock();
            if task.checkpoint.is_some() {
                ledger.log = TamperProofLog::from_suffix(
                    task.base_height,
                    task.base_tip,
                    task.staged.clone(),
                )
                .expect("verified transfer chains");
            } else {
                for block in task.staged.iter().cloned() {
                    ledger
                        .log
                        .append(block)
                        .expect("verified transfer extends the log");
                }
            }
        }
        // Stage 2 — exec: round state below the new tip is stale; the
        // buffered decisions at or above it feed the catch-up loop.
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.retain(|h, _| *h >= new_tip);
            exec.sent_roots.retain(|h, _| *h >= new_tip);
            exec.pending_decisions.retain(|h, _| *h >= new_tip);
        }
        // Stage 3 — durability: checkpoint first (it vouches for the
        // discarded prefix), then the WAL restarts at its height and the
        // transferred blocks follow. With quorum acks on, a repaired
        // cohort also reports the transferred heights durable — the
        // coordinator may still be withholding outcomes for them.
        // Under rotation the repairer is a cohort for every height it
        // did not lead (per-height check below where the target varies).
        let quorum_cohort =
            self.config.quorum_acks && (self.rotation_on() || !self.is_coordinator());
        {
            let mut durability = self.state.durability.lock();
            match durability.as_mut() {
                None => {}
                Some(Durability::Inline { log, snapshots, .. }) => {
                    if let Some(snap) = &task.checkpoint {
                        snapshots
                            .save(snap)
                            .expect("checkpoint-adoption snapshot save failed");
                        log.reset_to(task.base_height).expect("WAL reset failed");
                    }
                    for block in &task.staged {
                        log.append_block(block).expect("repair WAL append failed");
                    }
                    log.sync().expect("repair WAL fsync failed");
                }
                Some(Durability::Pipelined { pipeline, .. }) => {
                    if let Some(snap) = &task.checkpoint {
                        pipeline.reset_to(snap.clone());
                    }
                    for block in &task.staged {
                        pipeline.submit_block(block);
                        if quorum_cohort && self.leader_of(block.height) != self.config.idx {
                            let height = block.height;
                            let sender = self.endpoint.sender();
                            let keypair = self.keypair;
                            let from = self.endpoint.node();
                            let leader = server_node(self.leader_of(height));
                            pipeline.on_durable(
                                height,
                                Box::new(move || {
                                    let msg = Message::Durable { height };
                                    sender.send(Envelope::sign(
                                        &keypair,
                                        from,
                                        leader,
                                        msg.encode(),
                                    ));
                                }),
                            );
                        }
                    }
                }
            }
            let inline_durable = !matches!(durability.as_ref(), Some(Durability::Pipelined { .. }));
            drop(durability);
            if quorum_cohort && inline_durable {
                for block in &task.staged {
                    if self.leader_of(block.height) == self.config.idx {
                        continue;
                    }
                    self.send(
                        server_node(self.leader_of(block.height)),
                        &Message::Durable {
                            height: block.height,
                        },
                    );
                }
            }
        }
        // Stage 4 — shard: swap in the verified replay and publish the
        // watermark. The read anchor is re-derived from the installed
        // log (the staged run may or may not carry this shard's root).
        {
            let (last_root, watermarks) = {
                let ledger = self.state.ledger.lock();
                (
                    RootProvenance::from_log(&ledger.log, self.config.idx),
                    watermarks_from_log(&ledger.log),
                )
            };
            let mut stage = self.state.shard.lock();
            stage.shard = shard;
            stage.last_committed = last_committed;
            stage.applied_height = new_tip;
            stage.last_root = last_root;
            stage.write_watermarks = watermarks;
        }
    }

    /// Retries the current repair with the next untried peer (dropping
    /// the staged transfer); with every peer tried, the task is
    /// abandoned and the rate-limited gossip loop starts over.
    fn retarget_repair(&mut self, exclude_current: bool) {
        let Some(task) = self.repair_task.take() else {
            return;
        };
        let mut excluded = task.excluded;
        if exclude_current {
            excluded.insert(task.peer);
        }
        self.restart_repair_task(excluded, task.target, task.started);
    }

    fn restart_repair_task(&mut self, excluded: HashSet<u32>, target: u64, started: Instant) {
        let (tip, tip_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        if target <= tip {
            // Caught up through other means; nothing left to repair.
            let mut repair = self.state.repair.lock();
            repair.repairing = false;
            repair.since = None;
            return;
        }
        let Some(peer) =
            (0..self.config.n_servers).find(|s| *s != self.config.idx && !excluded.contains(s))
        else {
            // Every peer tried and failed: leave the repairing flag up
            // (the audit grace clock keeps ticking) and let the gossip
            // loop retry from scratch.
            self.repair_task = None;
            return;
        };
        self.state.telemetry.repair_retargets.inc();
        self.state.telemetry.events.record(
            Level::Info,
            "repair",
            format!("retargeting repair to peer {peer} (target {target})"),
        );
        self.repair_task = Some(RepairTask {
            peer,
            base_height: tip,
            base_tip: tip_hash,
            checkpoint: None,
            staged: Vec::new(),
            target,
            excluded,
            asked_checkpoint: false,
            last_activity: Instant::now(),
            started,
        });
        self.send_repair_request();
    }

    /// Periodic repair upkeep from the message loop: drop an
    /// unresponsive serving peer, and keep gossiping while lagging with
    /// no active task.
    fn drive_repair(&mut self) {
        if !self.repair_enabled() {
            return;
        }
        if let Some(task) = &self.repair_task {
            if task.last_activity.elapsed() > self.config.round_timeout {
                self.retarget_repair(true);
            }
        } else if self.state.is_repairing() {
            self.maybe_query_repair();
        }
    }

    fn record_repair_evidence(&self, peer: u32, fault: RepairFault) {
        /// Hard cap: a retry loop against persistent Byzantine peers
        /// must not grow evidence without bound.
        const MAX_EVIDENCE: usize = 512;
        let evidence = RepairEvidence { peer, fault };
        let mut repair = self.state.repair.lock();
        // A stuck retry loop against the same Byzantine peer would
        // otherwise record the identical refutation every cycle.
        if repair.evidence.len() < MAX_EVIDENCE && repair.evidence.last() != Some(&evidence) {
            self.state.telemetry.events.record(
                Level::Warn,
                "repair",
                format!("refuted transfer from peer {peer}: {:?}", evidence.fault),
            );
            repair.evidence.push(evidence);
        }
    }

    // ------------------------------------------------------------------
    // Applying a terminated block.
    // ------------------------------------------------------------------

    /// The staged apply path. Each stage takes exactly one lock and
    /// releases it before the next — under pipelined durability the
    /// expensive steps (fsync, snapshot save, WAL pruning) run on the
    /// writer thread, off this server's message loop entirely:
    ///
    /// 1. **ledger** — dedupe + hash-chain append;
    /// 2. **exec** — drop the round's witness state;
    /// 3. **durability** — inline write-ahead (append + fsync on this
    ///    thread) or a pipeline submit (fsync later, acks deferred);
    /// 4. **shard** — apply committed writes with pool-parallel Merkle
    ///    updates, then publish `applied_height`;
    /// 5. **checkpoint** — capture a snapshot every `snapshot_interval`
    ///    blocks; the pipeline saves it only after the covering fsync.
    fn apply_block(&mut self, block: Block, protocol: CommitProtocol) {
        self.apply_block_traced(block, protocol, None);
    }

    /// [`Server::apply_block`] attributing the durability hand-off and
    /// the Merkle/apply segment to a sampled transaction's trace. The
    /// fsync itself is recorded by the WAL writer thread
    /// (`wal.fsync`, submit → covering fsync), so the queue wait is
    /// visible; the `commit.stage.merkle_update` span covers the rest
    /// of the apply.
    fn apply_block_traced(
        &mut self,
        block: Block,
        protocol: CommitProtocol,
        trace: Option<TraceContext>,
    ) {
        let apply_start = Instant::now();
        let apply_start_ns = now_ns();
        let durability_ns;
        let decision = block.decision;
        let max_ts = block.max_txn_ts();
        let height = block.height;
        let behavior = self.state.behavior();
        // A commit block carrying this shard's root becomes the read
        // plane's new trust anchor (abort blocks carry *speculative*
        // roots that were never applied — they must not move it).
        let read_anchor = (protocol == CommitProtocol::TfCommit
            && decision == Decision::Commit
            && block.root_of(self.config.idx).is_some())
        .then(|| Box::new(block.header()));

        // Stage 1 — ledger.
        let tip_hash = {
            let mut ledger = self.state.ledger.lock();
            if ledger.log.get(height).is_some() {
                return; // duplicate decision (e.g. coordinator's copy)
            }
            if ledger.log.append(block.clone()).is_err() {
                return; // does not extend our log; ignore
            }
            ledger.log.tip_hash()
        };

        // Stage 2 — exec cleanup.
        {
            let mut exec = self.state.exec.lock();
            exec.witnesses.remove(&height);
            exec.sent_roots.remove(&height);
            self.state
                .telemetry
                .inflight_rounds
                .set(exec.witnesses.len() as i64);
        }

        // Stage 3 — durability. Inline modes keep the write-ahead
        // invariant (block durable before the datastore moves); the
        // pipelined mode trades that for asynchronous group commit —
        // sound because recovery rebuilds purely from the WAL and
        // clients are acked only after the covering fsync.
        {
            let durability_start = Instant::now();
            let quorum_cohort =
                self.config.quorum_acks && self.leader_of(height) != self.config.idx;
            let mut report_now = quorum_cohort;
            let mut durability = self.state.durability.lock();
            match durability.as_mut() {
                None => {}
                Some(Durability::Inline { log, .. }) => {
                    log.append_block(&block)
                        .and_then(|()| log.sync())
                        .expect("write-ahead log append failed");
                }
                Some(Durability::Pipelined { pipeline, .. }) => {
                    pipeline.submit_block_traced(&block, trace);
                    if quorum_cohort {
                        // Report durability from the writer thread once
                        // the covering fsync lands (ordered acks).
                        report_now = false;
                        let sender = self.endpoint.sender();
                        let keypair = self.keypair;
                        let from = self.endpoint.node();
                        let leader = server_node(self.leader_of(height));
                        pipeline.on_durable(
                            height,
                            Box::new(move || {
                                let msg = Message::Durable { height };
                                sender.send(Envelope::sign(&keypair, from, leader, msg.encode()));
                            }),
                        );
                    }
                }
            }
            drop(durability);
            if report_now {
                // Inline durability fsynced above (and a memory-only
                // cohort has nothing a crash could take back): report
                // immediately.
                self.send(
                    server_node(self.leader_of(height)),
                    &Message::Durable { height },
                );
            }
            durability_ns = durability_start.elapsed().as_nanos() as u64;
        }

        // Stage 4 — shard.
        {
            let mut stage = self.state.shard.lock();
            if decision == Decision::Commit {
                for txn in &block.txns {
                    let reads: Vec<Key> = txn
                        .read_set
                        .iter()
                        .filter(|r| self.partitioner.owner(&r.key) == self.config.idx)
                        .map(|r| r.key.clone())
                        .collect();
                    let mut writes: Vec<(Key, Value)> = txn
                        .write_set
                        .iter()
                        .filter(|w| self.partitioner.owner(&w.key) == self.config.idx)
                        .map(|w| (w.key.clone(), w.new_value.clone()))
                        .collect();
                    // Fault: silently skip configured writes (§5
                    // Scenario 3).
                    if !behavior.skip_write_keys.is_empty() {
                        writes.retain(|(k, _)| !behavior.skip_write_keys.contains(k));
                    }
                    match protocol {
                        CommitProtocol::TfCommit => {
                            stage.shard.apply_commit(txn.id, &reads, &writes);
                        }
                        CommitProtocol::TwoPhaseCommit => {
                            stage.shard.apply_commit_store_only(txn.id, &reads, &writes);
                        }
                    }
                    // Batch-former doom filter: track the newest
                    // committed write per key across *all* shards.
                    for w in &txn.write_set {
                        let mark = stage
                            .write_watermarks
                            .entry(w.key.clone())
                            .or_insert(txn.id);
                        if txn.id > *mark {
                            *mark = txn.id;
                        }
                    }
                    // Clean the paper's write buffer for this txn.
                    // (Handles are client-side; buffers are
                    // garbage-collected lazily since the block only
                    // carries timestamps.)
                }
                if let Some(ts) = max_ts {
                    if ts > stage.last_committed {
                        stage.last_committed = ts;
                    }
                }
                // Fault: corrupt the datastore after applying (§5
                // Scenario 3).
                if let Some((key, value)) = behavior.corrupt_after_commit.clone() {
                    if self.partitioner.owner(&key) == self.config.idx {
                        if let Some(ts) = max_ts {
                            stage.shard.store_mut().corrupt_version(&key, ts, value);
                        }
                    }
                }
                if let Some(header) = read_anchor {
                    stage.last_root = RootProvenance::Header(header);
                }
            }
            stage.applied_height = height + 1;
        }

        // Stage 5 — periodic checkpoint: snapshot the shard (with the
        // block's writes applied) so recovery replays only the suffix
        // above it. Only under TFCommit: the 2PC baseline maintains no
        // Merkle tree, so there is no meaningful root to bind a
        // snapshot to — its recovery replays the full (unsigned) log
        // instead.
        let snapshot_interval = self
            .state
            .durability
            .lock()
            .as_ref()
            .map_or(0, Durability::snapshot_interval);
        let applied = height + 1;
        if protocol == CommitProtocol::TfCommit
            && snapshot_interval > 0
            && applied.is_multiple_of(snapshot_interval)
        {
            let snapshot = {
                let stage = self.state.shard.lock();
                ShardSnapshot::capture(&stage.shard, applied, tip_hash, stage.last_committed)
            };
            // Mirror the checkpoint to peers before pruning can bite:
            // once every server prunes its WAL below this height, the
            // mirrors are what keep *this* shard recoverable should our
            // disk die with the history (checkpoint state transfer).
            if self.config.mirror_checkpoints && self.repair_enabled() {
                self.broadcast_to_servers(&Message::CheckpointMirror {
                    snapshot: Box::new(snapshot.clone()),
                });
            }
            let mut durability = self.state.durability.lock();
            match durability.as_mut() {
                None => {}
                Some(Durability::Inline {
                    log,
                    snapshots,
                    prune_wal,
                    ..
                }) => {
                    snapshots
                        .save(&snapshot)
                        .expect("shard snapshot save failed");
                    if *prune_wal {
                        log.prune_below(applied).expect("WAL prune failed");
                    }
                }
                Some(Durability::Pipelined { pipeline, .. }) => {
                    // Saved by the writer thread after the covering
                    // fsync (and pruned there, if enabled).
                    pipeline.submit_snapshot(snapshot);
                }
            }
        }

        // Stage split for the round breakdown: the durability hand-off
        // (inline fsync, or pipeline submit — the asynchronous fsync
        // itself shows up as `durability.fsync_ns`) vs everything else
        // in the apply (ledger append, Merkle recomputation, exec
        // cleanup, checkpointing). Recorded on every role: the
        // coordinator's round laps deliberately skip this segment.
        let total_ns = apply_start.elapsed().as_nanos() as u64;
        self.state
            .telemetry
            .stages
            .record(Stage::WalFsync, durability_ns);
        self.state
            .telemetry
            .stages
            .record(Stage::MerkleUpdate, total_ns.saturating_sub(durability_ns));
        if let Some(ctx) = trace {
            let sink = &self.state.telemetry.spans;
            // The inline durability hand-off (pipelined mode's real
            // fsync is the writer thread's `wal.fsync` span instead).
            sink.record(Span {
                trace_id: ctx.trace_id,
                span_id: sink.next_id(),
                parent: ctx.parent_span,
                name: Stage::WalFsync.metric_name(),
                node: sink.tag(),
                start_ns: apply_start_ns,
                end_ns: apply_start_ns + durability_ns,
                aux: height,
            });
            sink.close(
                ctx.trace_id,
                sink.next_id(),
                ctx.parent_span,
                Stage::MerkleUpdate.metric_name(),
                apply_start_ns + durability_ns,
                height,
            );
        }
    }

    // ------------------------------------------------------------------
    // Coordinator (§4.1: "one designated server acts as the transaction
    // coordinator responsible for terminating all transactions").
    // ------------------------------------------------------------------

    /// Terminates the current pending batch with one protocol round.
    ///
    /// The round clock starts *before* batch selection so the six stage
    /// histograms ([`Stage`]) tile `round_nanos`: contiguous
    /// [`Stopwatch`] laps cover batch formation through outcome send.
    fn run_round(&mut self) {
        let start = Instant::now();
        let mut watch = Stopwatch::new();
        let round_start_ns = now_ns();
        let batch = self.select_batch();
        if batch.is_empty() {
            return;
        }
        // One sampled transaction makes the whole round traced: the
        // round span parents every stage span this leader records and
        // (via the traced broadcasts) every cohort span elsewhere.
        let round_trace = batch.iter().find_map(|p| p.trace).map(|ctx| RoundTrace {
            ctx,
            round_span: self.state.telemetry.spans.next_id(),
            start_ns: round_start_ns,
        });
        self.state
            .telemetry
            .stages
            .record(Stage::BatchForm, watch.lap_ns());
        let n_txns = batch.len() as u64;
        let height_before = self.state.ledger.lock().log.next_height();
        if let Some(rt) = round_trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                sink.next_id(),
                rt.round_span,
                Stage::BatchForm.metric_name(),
                round_start_ns,
                height_before,
            );
        }
        match self.config.protocol {
            CommitProtocol::TfCommit => self.run_tfcommit_round(batch, &mut watch, round_trace),
            CommitProtocol::TwoPhaseCommit => self.run_2pc_round(batch),
        }
        if let Some(rt) = round_trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                rt.round_span,
                rt.ctx.parent_span,
                "commit.round",
                rt.start_ns,
                height_before,
            );
        }
        let elapsed = start.elapsed();
        self.state.telemetry.rounds.inc();
        self.state.telemetry.rounds_led.inc();
        let mut ledger = self.state.ledger.lock();
        ledger.round_stats.rounds += 1;
        ledger.round_stats.round_nanos += elapsed.as_nanos();
        // Committed iff the round appended a commit block.
        let committed = ledger.log.next_height() > height_before
            && ledger
                .log
                .last()
                .is_some_and(|b| b.decision == Decision::Commit);
        if committed {
            ledger.round_stats.committed_txns += n_txns;
        } else {
            ledger.round_stats.aborted_txns += n_txns;
        }
    }

    /// Picks up to `batch_size` pending transactions, in timestamp
    /// order, skipping any that conflict (share a key) with an earlier
    /// selection — "a set of non-conflicting transactions" (§4.6).
    ///
    /// Transactions whose timestamp has fallen at or below
    /// `last_committed` while queued are bounced back to their clients
    /// for a fresh timestamp instead of entering the batch: one stale
    /// straggler would otherwise make every cohort vote abort for the
    /// **whole block** (§4.3.1's sequential-log rule), amplifying a
    /// single retry into a full batch of aborts under deep pipelining.
    fn select_batch(&mut self) -> Vec<PendingTxn> {
        let last_committed = self.state.last_committed();
        let stale: Vec<PendingTxn> = {
            let (stale, fresh) = self
                .pending
                .drain(..)
                .partition(|p| p.record.id <= last_committed);
            self.pending = fresh;
            stale
        };
        for p in &stale {
            self.send(
                p.client,
                &Message::EndTxnRejected {
                    handle: p.handle,
                    hint: last_committed,
                },
            );
        }
        self.pending.sort_by_key(|p| p.record.id);
        // Doom filter: a transaction whose read entry (key, wts) is
        // older than the newest committed write of that key is certain
        // to fail OCC at its owner — one such straggler makes every
        // cohort vote abort for the whole block. Keep doomed
        // transactions out of clean batches; they terminate through a
        // dedicated round of their own (which aborts and gives their
        // clients a properly co-signed abort outcome) once no clean
        // work is pending or they have deferred [`MAX_DOOMED_DEFERRALS`]
        // times.
        let (clean, mut doomed): (Vec<PendingTxn>, Vec<PendingTxn>) = {
            let stage = self.state.shard.lock();
            self.pending.drain(..).partition(|p| {
                !p.record.read_set.iter().any(|r| {
                    stage
                        .write_watermarks
                        .get(&r.key)
                        .is_some_and(|mark| *mark > r.wts)
                })
            })
        };
        let flush_doomed = !doomed.is_empty()
            && (clean.is_empty() || doomed.iter().any(|p| p.deferrals >= MAX_DOOMED_DEFERRALS));
        let (mut source, mut rest) = if flush_doomed {
            (doomed, clean)
        } else {
            for p in &mut doomed {
                p.deferrals += 1;
            }
            (clean, doomed)
        };
        let mut touched: HashSet<Key> = HashSet::new();
        let mut batch = Vec::new();
        for txn in source.drain(..) {
            let keys: Vec<Key> = txn
                .record
                .read_set
                .iter()
                .map(|r| r.key.clone())
                .chain(txn.record.write_set.iter().map(|w| w.key.clone()))
                .collect();
            let conflicts = keys.iter().any(|k| touched.contains(k));
            if batch.len() < self.config.batch_size && !conflicts {
                touched.extend(keys);
                batch.push(txn);
            } else {
                rest.push(txn);
            }
        }
        self.pending = rest;
        batch
    }

    fn run_tfcommit_round(
        &mut self,
        batch: Vec<PendingTxn>,
        watch: &mut Stopwatch,
        trace: Option<RoundTrace>,
    ) {
        let (height, prev_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        let partial = PartialBlock {
            height,
            txns: batch.iter().map(|p| p.record.clone()).collect(),
            prev_hash,
        };
        // Downstream envelopes carry the round span as parent, so the
        // cohort spans of a sampled round attach under it.
        let child_ctx = trace.map(|t| t.child_ctx());
        let mut stage_start_ns = now_ns();

        // Phase 1 <GetVote, SchAnnouncement>.
        self.broadcast_to_servers_traced(
            &Message::GetVote {
                partial: partial.clone(),
            },
            child_ctx,
        );
        // The coordinator is also a witness/cohort (§4.3.1 phase 2).
        let (own_commitment, own_involved) = self.cohort_vote(&partial);

        // Phase 2: collect votes from every other server.
        let mut commitments: Vec<Option<cosi::Commitment>> =
            vec![None; self.config.n_servers as usize];
        let mut involved_votes: Vec<Option<InvolvedVote>> =
            vec![None; self.config.n_servers as usize];
        commitments[self.config.idx as usize] = Some(own_commitment);
        involved_votes[self.config.idx as usize] = own_involved;

        let ok = self.collect_votes(height, &mut commitments, &mut involved_votes);
        self.state
            .telemetry
            .stages
            .record(Stage::OccValidate, watch.lap_ns());
        if let Some(rt) = trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                sink.next_id(),
                rt.round_span,
                Stage::OccValidate.metric_name(),
                stage_start_ns,
                height,
            );
        }
        stage_start_ns = now_ns();
        if ok && self.state.behavior().stall_after_votes {
            // Fault hook for the liveness watchdog tests: the leader
            // collects every vote, then goes silent — no Challenge, no
            // Decision, no rejection. Cohorts hold their CoSi witnesses
            // open forever; their round-progress watchdogs must fire.
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("stall_after_votes: abandoning round at height {height}"),
            );
            return;
        }
        if !ok {
            // Timed-out round (crashed cohort): TFCommit is blocking
            // (§4.3.1); we surface the failure to the clients instead of
            // blocking forever.
            self.state.telemetry.round_timeouts.inc();
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("vote collection timed out at height {height}"),
            );
            self.reject_batch(&batch);
            return;
        }

        // Phase 3 <null, SchChallenge>: form the decision and the block.
        let all_commit = involved_votes.iter().flatten().all(|v| v.commit);
        let decision = if all_commit {
            Decision::Commit
        } else {
            Decision::Abort
        };
        let mut builder = BlockBuilder::new(height, prev_hash)
            .txns(partial.txns.clone())
            .decision(decision);
        for (s, vote) in involved_votes.iter().enumerate() {
            if let Some(InvolvedVote {
                commit: true,
                root: Some(root),
                ..
            }) = vote
            {
                builder = builder.root(ShardRoot {
                    server: s as u32,
                    root: *root,
                });
            }
        }
        let mut block = builder.build_unsigned();

        // Fault: replace a benign server's root (§5 Scenario 2).
        let fake_root_for = self.state.behavior().fake_root_for;
        if let Some(victim) = fake_root_for {
            for r in &mut block.roots {
                if r.server == victim {
                    r.root = Digest::new([0xEE; 32]);
                }
            }
        }

        let all_commitments: Vec<cosi::Commitment> =
            commitments.iter().map(|c| c.expect("collected")).collect();
        let aggregate =
            cosi::Commitment(cosi::aggregate_commitments(all_commitments.iter().copied()));
        let challenge = cosi::challenge(&aggregate.0, &block.signing_bytes());

        // Fault: equivocate (Lemma 5 Case 1) — commit block to even
        // cohorts, abort block to odd cohorts, same challenge.
        let equivocate = self.state.behavior().equivocate_decision;
        if equivocate {
            let alt = Block {
                decision: Decision::Abort,
                roots: Vec::new(),
                ..block.clone()
            };
            for s in 0..self.config.n_servers {
                if s == self.config.idx {
                    continue;
                }
                let which = if s % 2 == 0 {
                    block.clone()
                } else {
                    alt.clone()
                };
                self.send(
                    server_node(s),
                    &Message::Challenge {
                        block: which,
                        aggregate,
                        challenge,
                    },
                );
            }
        } else {
            self.broadcast_to_servers_traced(
                &Message::Challenge {
                    block: block.clone(),
                    aggregate,
                    challenge,
                },
                child_ctx,
            );
        }

        // The coordinator's own response.
        let own_response = self.cohort_response(&block, &aggregate, &challenge);

        // Phase 4: collect responses.
        let mut responses: Vec<Option<Result<cosi::Response, Refusal>>> =
            vec![None; self.config.n_servers as usize];
        responses[self.config.idx as usize] = Some(own_response);
        if !self.collect_responses(height, &mut responses) {
            self.state
                .telemetry
                .stages
                .record(Stage::CosiAssemble, watch.lap_ns());
            self.state.telemetry.round_timeouts.inc();
            self.state.telemetry.events.record(
                Level::Warn,
                "commit",
                format!("response collection timed out at height {height}"),
            );
            self.reject_batch(&batch);
            return;
        }

        // Phase 5 <Decision, null>: assemble the collective signature.
        let mut ok_responses = Vec::with_capacity(self.config.n_servers as usize);
        let mut refused = false;
        for r in responses.iter().flatten() {
            match r {
                Ok(resp) => ok_responses.push(*resp),
                Err(_) => refused = true,
            }
        }
        let mut cosign_valid = false;
        let cosign = if refused {
            // At least one cohort refused: no valid signature can exist.
            fides_crypto::cosi::CollectiveSignature::placeholder()
        } else {
            let sig = fides_crypto::cosi::CollectiveSignature::assemble(
                aggregate.0,
                ok_responses.iter().copied(),
            );
            // Lemma 4: an invalid aggregate lets the coordinator identify
            // the precise culprits by checking partial signatures.
            if sig.verify(&block.signing_bytes(), &self.server_pks) {
                cosign_valid = true;
            } else {
                let resp_list: Vec<cosi::Response> = ok_responses.clone();
                let culprits: Vec<u32> = cosi::identify_invalid_responses(
                    &challenge,
                    &all_commitments,
                    &resp_list,
                    &self.server_pks,
                )
                .into_iter()
                .map(|i| i as u32)
                .collect();
                self.state
                    .ledger
                    .lock()
                    .cosi_culprits
                    .push((height, culprits));
            }
            sig
        };

        let signed = Block { cosign, ..block };
        self.broadcast_to_servers_traced(
            &Message::Decision {
                block: signed.clone(),
            },
            child_ctx,
        );
        self.state
            .telemetry
            .stages
            .record(Stage::CosiAssemble, watch.lap_ns());
        if let Some(rt) = trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                sink.next_id(),
                rt.round_span,
                Stage::CosiAssemble.metric_name(),
                stage_start_ns,
                height,
            );
        }
        if cosign_valid {
            // The coordinator verified this signature when assembling
            // it; re-running the check in `handle_decision` would be
            // pure waste on the hot path.
            self.apply_block_traced(signed.clone(), CommitProtocol::TfCommit, child_ctx);
            self.catch_up();
        } else {
            self.handle_decision_traced(signed.clone(), child_ctx);
        }
        // The apply segment was recorded from inside `apply_block`
        // (MerkleUpdate + WalFsync); restart the lap clock so the
        // outcome stage does not double-count it.
        let _ = watch.lap_ns();
        stage_start_ns = now_ns();

        // Figure 5 step 8: respond to the clients. Under pipelined
        // durability the outcome is the commit acknowledgement, so it
        // is deferred until the WAL writer's fsync covers this height
        // (ordered acks — the client never observes a commit a crash
        // could undo); the coordinator itself moves straight on to the
        // next round. An invalidly signed block was never logged (and
        // never reaches the WAL), so its outcome — which the clients
        // will classify as an anomaly — goes out immediately.
        self.send_outcomes(height, &batch, &signed, cosign_valid);
        self.state
            .telemetry
            .stages
            .record(Stage::OutcomeSend, watch.lap_ns());
        if let Some(rt) = trace {
            let sink = &self.state.telemetry.spans;
            sink.close(
                rt.ctx.trace_id,
                sink.next_id(),
                rt.round_span,
                Stage::OutcomeSend.metric_name(),
                stage_start_ns,
                height,
            );
        }
    }

    /// Sends `Outcome` messages for a terminated batch — one message
    /// per **client** (covering all of that client's transactions in
    /// the block).
    ///
    /// With `durable_when_fsynced` under pipelined durability, the
    /// sends run from the WAL writer thread once the covering fsync
    /// lands; otherwise (inline durability, no durability, or a block
    /// that was never applied — e.g. an invalid collective signature
    /// the clients must see to detect the anomaly) they go out
    /// immediately.
    fn send_outcomes(
        &self,
        height: u64,
        batch: &[PendingTxn],
        signed: &Block,
        durable_when_fsynced: bool,
    ) {
        // Group the batch's handles by client, preserving order.
        let mut per_client: Vec<(NodeId, Vec<TxnHandle>)> = Vec::new();
        for p in batch {
            match per_client.iter_mut().find(|(c, _)| *c == p.client) {
                Some((_, handles)) => handles.push(p.handle),
                None => per_client.push((p.client, vec![p.handle])),
            }
        }
        // Encode the block once; every client's payload reuses the
        // bytes (the block is the payload's dominant cost at batch
        // sizes, and re-encoding it per client serialized the whole
        // fan-out on the leader).
        let block_bytes = signed.encode();
        let payload_for =
            |handles: &[TxnHandle]| crate::messages::encode_outcome_payload(handles, &block_bytes);
        // Quorum-durable acks: withhold the outcomes until a majority
        // of servers (this coordinator included) reports the block
        // fsync-durable — an acknowledged commit then survives the loss
        // of any minority of disks, not just a coordinator crash.
        if durable_when_fsynced {
            if let Some(quorum) = &self.quorum {
                let payloads: Vec<(NodeId, Vec<u8>)> = per_client
                    .into_iter()
                    .map(|(client, handles)| {
                        let payload = payload_for(&handles);
                        (client, payload)
                    })
                    .collect();
                quorum.register(height, payloads);
                // The coordinator's own durability vote.
                let durability = self.state.durability.lock();
                match durability.as_ref() {
                    Some(Durability::Pipelined { pipeline, .. }) => {
                        let quorum = Arc::clone(quorum);
                        let own = self.config.idx;
                        pipeline.on_durable(height, Box::new(move || quorum.record(height, own)));
                    }
                    // Inline engines fsynced on the apply path; a
                    // memory-only coordinator has nothing to lose.
                    _ => quorum.record(height, self.config.idx),
                }
                return;
            }
        }
        let durability = self.state.durability.lock();
        if let Some(Durability::Pipelined { pipeline, .. }) = durability.as_ref() {
            if durable_when_fsynced {
                let sender = self.endpoint.sender();
                let keypair = self.keypair;
                let from = self.endpoint.node();
                let messages: Vec<(NodeId, Vec<u8>)> = per_client
                    .into_iter()
                    .map(|(client, handles)| {
                        let payload = payload_for(&handles);
                        (client, payload)
                    })
                    .collect();
                pipeline.on_durable(
                    height,
                    Box::new(move || {
                        for (client, payload) in messages {
                            sender.send(Envelope::sign(&keypair, from, client, payload));
                        }
                    }),
                );
                return;
            }
        }
        drop(durability);
        for (client, handles) in per_client {
            let payload = payload_for(&handles);
            self.endpoint.send(Envelope::sign(
                &self.keypair,
                self.endpoint.node(),
                client,
                payload,
            ));
        }
    }

    fn run_2pc_round(&mut self, batch: Vec<PendingTxn>) {
        let (height, prev_hash) = {
            let ledger = self.state.ledger.lock();
            (ledger.log.next_height(), ledger.log.tip_hash())
        };
        let partial = PartialBlock {
            height,
            txns: batch.iter().map(|p| p.record.clone()).collect(),
            prev_hash,
        };
        self.broadcast_to_servers(&Message::TwoPcGetVote {
            partial: partial.clone(),
        });

        // Own vote.
        let own_commit = {
            let stage = self.state.shard.lock();
            let shard = &stage.shard;
            occ::validate_batch_parallel(&partial.txns, |key| {
                if self.partitioner.owner(key) == self.config.idx {
                    shard.read(key)
                } else {
                    None
                }
            })
            .is_empty()
        };

        let mut votes: Vec<Option<bool>> = vec![None; self.config.n_servers as usize];
        votes[self.config.idx as usize] = Some(own_commit);
        if !self.collect_2pc_votes(height, &mut votes) {
            self.reject_batch(&batch);
            return;
        }
        let decision = if votes.iter().flatten().all(|c| *c) {
            Decision::Commit
        } else {
            Decision::Abort
        };
        let block = BlockBuilder::new(height, prev_hash)
            .txns(partial.txns)
            .decision(decision)
            .build_unsigned();
        self.broadcast_to_servers(&Message::TwoPcDecision {
            block: block.clone(),
        });
        self.handle_2pc_decision(block.clone());
        self.send_outcomes(height, &batch, &block, true);
    }

    fn reject_batch(&mut self, batch: &[PendingTxn]) {
        let hint = self.state.last_committed();
        for p in batch {
            self.send(
                p.client,
                &Message::EndTxnRejected {
                    handle: p.handle,
                    hint,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Round message collection. While waiting for protocol responses the
    // coordinator keeps servicing execution-layer traffic so clients of
    // *other* transactions are not blocked.
    // ------------------------------------------------------------------

    fn collect_votes(
        &mut self,
        height: u64,
        commitments: &mut [Option<cosi::Commitment>],
        involved: &mut [Option<InvolvedVote>],
    ) -> bool {
        let deadline = Instant::now() + self.config.round_timeout;
        let mut missing: usize = commitments.iter().filter(|c| c.is_none()).count();
        while missing > 0 {
            let Some((from, msg)) = self.recv_during_round(deadline) else {
                return false;
            };
            if let Message::Vote {
                height: h,
                commitment,
                involved: inv,
            } = msg
            {
                if h == height && from.raw() < self.config.n_servers {
                    let idx = from.raw() as usize;
                    if commitments[idx].is_none() {
                        commitments[idx] = Some(commitment);
                        involved[idx] = inv;
                        missing -= 1;
                    }
                }
            }
        }
        true
    }

    fn collect_responses(
        &mut self,
        height: u64,
        responses: &mut [Option<Result<cosi::Response, Refusal>>],
    ) -> bool {
        let deadline = Instant::now() + self.config.round_timeout;
        let mut missing: usize = responses.iter().filter(|r| r.is_none()).count();
        while missing > 0 {
            let Some((from, msg)) = self.recv_during_round(deadline) else {
                return false;
            };
            if let Message::Response { height: h, result } = msg {
                if h == height && from.raw() < self.config.n_servers {
                    let idx = from.raw() as usize;
                    if responses[idx].is_none() {
                        responses[idx] = Some(result);
                        missing -= 1;
                    }
                }
            }
        }
        true
    }

    fn collect_2pc_votes(&mut self, height: u64, votes: &mut [Option<bool>]) -> bool {
        let deadline = Instant::now() + self.config.round_timeout;
        let mut missing: usize = votes.iter().filter(|v| v.is_none()).count();
        while missing > 0 {
            let Some((from, msg)) = self.recv_during_round(deadline) else {
                return false;
            };
            if let Message::TwoPcVote {
                height: h, commit, ..
            } = msg
            {
                if h == height && from.raw() < self.config.n_servers {
                    let idx = from.raw() as usize;
                    if votes[idx].is_none() {
                        votes[idx] = Some(commit);
                        missing -= 1;
                    }
                }
            }
        }
        true
    }

    /// Receives during a protocol round: execution messages are serviced
    /// inline, end-transaction requests are queued for the next batch,
    /// protocol messages are returned to the caller. `None` = deadline
    /// passed.
    fn recv_during_round(&mut self, deadline: Instant) -> Option<(NodeId, Message)> {
        loop {
            let (from, msg, trace) = match self.next_message(deadline) {
                Ok(message) => message,
                Err(_) => return None,
            };
            match msg {
                Message::Begin { txn } => self.handle_begin(txn),
                Message::Read { txn, key } => self.handle_read(from, txn, key),
                Message::ReadMany { txn, keys } => self.handle_read_many(from, txn, keys),
                Message::Write { txn, key, value } => self.handle_write(from, txn, key, value),
                Message::EndTxn { handle, record } => {
                    self.handle_end_txn(from, handle, record, trace);
                }
                Message::EndTxnFwd {
                    client,
                    handle,
                    record,
                } if self.rotation_on() && from.raw() < self.config.n_servers => {
                    self.enqueue_end_txn(NodeId::new(client), handle, record, trace);
                }
                // Repair-plane service and durability acks are also
                // handled inline: a mid-round coordinator must neither
                // starve a repairing peer nor drop quorum votes.
                Message::RepairQuery { next_height } => {
                    self.handle_repair_query(from, next_height);
                }
                Message::RepairRequest { from: wanted, max } => {
                    self.handle_repair_request(from, wanted, max);
                }
                Message::RepairCheckpointRequest => self.handle_repair_checkpoint_request(from),
                Message::CheckpointMirror { snapshot } => {
                    self.handle_checkpoint_mirror(from, *snapshot);
                }
                Message::Durable { height } => self.handle_durable(from, height),
                // Snapshot reads are served mid-round too: the read
                // plane must not stall behind commit traffic.
                Message::SnapshotRead {
                    req,
                    shard,
                    keys,
                    min_covered,
                    at_height,
                } => self.handle_snapshot_read(from, req, shard, keys, min_covered, at_height),
                Message::RootQuery { from: from_height } => {
                    self.handle_root_query(from, from_height);
                }
                Message::Flush => {} // already mid-round
                Message::Shutdown => {
                    self.running = false;
                    return None;
                }
                other => return Some((from, other)),
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers.
    // ------------------------------------------------------------------

    /// The servers whose shards are accessed by these transactions.
    fn involvement(&self, txns: &[TxnRecord]) -> HashSet<u32> {
        let mut set = HashSet::new();
        for txn in txns {
            for r in &txn.read_set {
                set.insert(self.partitioner.owner(&r.key));
            }
            for w in &txn.write_set {
                set.insert(self.partitioner.owner(&w.key));
            }
        }
        set
    }
}

/// Rebuilds the per-key committed-write watermarks from a log's commit
/// blocks — the recovery and repair-install paths, where the live map
/// cannot be patched incrementally. A checkpoint-truncated log yields a
/// partial map, which only weakens the batch former's doom filter
/// (stale stragglers then abort through a round, as before).
fn watermarks_from_log(log: &TamperProofLog) -> HashMap<Key, Timestamp> {
    let mut marks: HashMap<Key, Timestamp> = HashMap::new();
    for block in log.blocks() {
        if block.decision != Decision::Commit {
            continue;
        }
        for txn in &block.txns {
            for w in &txn.write_set {
                let mark = marks.entry(w.key.clone()).or_insert(txn.id);
                if txn.id > *mark {
                    *mark = txn.id;
                }
            }
        }
    }
    marks
}

/// All writes in the batch that land on `server`'s shard, in txn order.
fn shard_writes(txns: &[TxnRecord], partitioner: &Partitioner, server: u32) -> Vec<(Key, Value)> {
    let mut writes = Vec::new();
    for txn in txns {
        for w in &txn.write_set {
            if partitioner.owner(&w.key) == server {
                writes.push((w.key.clone(), w.new_value.clone()));
            }
        }
    }
    writes
}

/// Previous-version value used by the stale-read fault (§5 Scenario 1:
/// the malicious server returns the old value with up-to-date
/// timestamps).
fn stale_value(stage: &ShardStage, key: &Key, item: &ItemState) -> Value {
    let wts = item.wts;
    if wts == Timestamp::ZERO {
        return item.value.clone();
    }
    let just_before = Timestamp::new(wts.counter().saturating_sub(1), u32::MAX);
    stage
        .shard
        .store()
        .value_at(key, just_before)
        .unwrap_or_else(|| item.value.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ranges_are_disjoint() {
        assert_ne!(server_node(0), client_node(0));
        assert_ne!(client_node(0), admin_node());
        assert!(server_node(100).raw() < client_node(0).raw());
    }

    #[test]
    fn shard_writes_filters_by_owner() {
        use fides_store::rwset::WriteEntry;
        let p = Partitioner::from_assignments(2, [(Key::new("a"), 0), (Key::new("b"), 1)]);
        let txn = TxnRecord {
            id: Timestamp::new(1, 0),
            read_set: vec![],
            write_set: vec![
                WriteEntry {
                    key: Key::new("a"),
                    new_value: Value::from_i64(1),
                    old_value: None,
                    rts: Timestamp::ZERO,
                    wts: Timestamp::ZERO,
                },
                WriteEntry {
                    key: Key::new("b"),
                    new_value: Value::from_i64(2),
                    old_value: None,
                    rts: Timestamp::ZERO,
                    wts: Timestamp::ZERO,
                },
            ],
        };
        let w0 = shard_writes(std::slice::from_ref(&txn), &p, 0);
        assert_eq!(w0.len(), 1);
        assert_eq!(w0[0].0, Key::new("a"));
        let w1 = shard_writes(&[txn], &p, 1);
        assert_eq!(w1.len(), 1);
        assert_eq!(w1[0].0, Key::new("b"));
    }
}
