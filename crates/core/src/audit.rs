//! The offline auditor (paper §3.3, §4.2.2, §4.3.2, §4.4, §4.5, §5).
//!
//! The auditor is "a powerful external entity" that (1) gathers the
//! tamper-proof logs from all servers and identifies the correct and
//! complete log (Lemmas 6–7), (2) replays it to detect incorrect reads
//! (Lemma 1) and serializability violations (Lemma 3), (3)
//! authenticates each server's datastore against the logged Merkle
//! roots using verification objects (Lemma 2), and (4) checks the
//! block-level commit/abort invariants backing atomicity (Lemma 5).
//!
//! Every detected violation names the block height and, where the fault
//! is attributable, the precise misbehaving server — the paper's twin
//! guarantees that "a malicious fault … is undeniably linked to the
//! malicious server" and "a benign server can always defend itself
//! against falsified accusations" (§1).
//!
//! The per-block cosign check behind `verify_cosign` runs on the
//! verification fast path: chain validation
//! ([`fides_ledger::validate::validate_chain`]) verifies each log
//! copy's collective signatures with **one** batched
//! random-linear-combination check
//! ([`fides_crypto::cosi::verify_batch`]) and falls back to per-block
//! verification only when the batch fails — so the violation still
//! names the exact block, at a fraction of the honest-case cost. With
//! `S` servers each surrendering an `N`-block log, the audit performs
//! `S` batched checks instead of `S·N` full signature verifications.
//!
//! Lemma 2 costs one full tree build per shard per audit, not one per
//! logged write. Every write is checked against its block's composite
//! root, and a block's root depends only on the shard and the block's
//! version, so the auditor asks each shard once for the roots at all of
//! its audited versions ([`AuthenticatedShard::roots_at_versions`]).
//! The shard builds its value and key trees at the first version, then
//! re-hashes only the leaves whose stored chain changes before each next
//! version. The changed leaves come from the store's own version chains,
//! so a stored version the log never wrote is still caught. The shards
//! are processed in parallel. A write then authenticates when its key
//! exists at the version and the shard's root there equals the logged
//! one, which is what the per-write verification object shows.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use fides_crypto::schnorr::PublicKey;
use fides_durability::ShardSnapshot;
use fides_ledger::block::{Block, Decision, TxnRecord};
use fides_ledger::log::TamperProofLog;
use fides_ledger::validate::{select_canonical_log, ChainFault, LogAssessment};
use fides_store::authenticated::AuthenticatedShard;
use fides_store::types::{ItemState, Key, Timestamp, Value};

use crate::occ::{self, Conflict};
use crate::partition::Partitioner;
use crate::repair::RepairFault;

/// What the auditor found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The server's log failed chain validation (Lemma 6).
    TamperedLog(ChainFault),
    /// The server's log is a valid but short prefix (Lemma 7).
    IncompleteLog {
        /// Blocks the server kept.
        len: usize,
        /// Canonical length.
        canonical_len: usize,
    },
    /// The server's log is validly signed but diverges — global
    /// collusion evidence.
    ForkedLog {
        /// First divergent height.
        height: u64,
    },
    /// A committed read does not match the value established by the
    /// log (Lemma 1).
    IncorrectRead {
        /// The transaction that observed the bad value.
        txn: Timestamp,
        /// The item.
        key: Key,
        /// What the log says the value was.
        expected: Value,
        /// What the server returned.
        observed: Value,
    },
    /// A committed transaction conflicts with the timestamp order
    /// (Lemma 3).
    SerializabilityViolation {
        /// The offending transaction.
        txn: Timestamp,
        /// The conflict details.
        conflict: Conflict,
    },
    /// The serialization graph over the committed history has a cycle
    /// (the graph formulation of Lemma 3).
    SerializationCycle {
        /// Transactions on the detected cycle.
        cycle: Vec<Timestamp>,
    },
    /// A server's datastore does not authenticate against the root it
    /// co-signed (Lemma 2).
    DatastoreCorruption {
        /// The item whose proof failed.
        key: Key,
        /// The audited version.
        version: Timestamp,
    },
    /// A commit block is missing an involved server's root, or an abort
    /// block carries a complete root set (Lemma 5 supporting invariant).
    InconsistentRoots {
        /// The block's decision.
        decision: Decision,
    },
    /// A repair peer served a state-transfer payload that failed the
    /// repairer's verification (tampered suffix, forged checkpoint) —
    /// evidence collected by the repairing server and surrendered with
    /// the audit.
    TamperedTransfer {
        /// What the repairer's verification caught.
        fault: RepairFault,
    },
    /// A surrendered checkpoint does not bind to the canonical chain
    /// (wrong tip hash, impossible height, or a payload that cannot
    /// reproduce its recorded root) — the server's shard cannot seed
    /// the suffix replay and its reads go unaudited below the tip.
    BadCheckpoint {
        /// The checkpoint's claimed height.
        height: u64,
    },
    /// A server answered a proof-carrying snapshot read with a response
    /// the client's verification refuted — a forged value, a forged
    /// absence, a forged header, or a stale-beyond-bound serve
    /// (evidence collected client-side, surrendered with the audit).
    TamperedRead {
        /// What the client's verification caught.
        fault: fides_read::ReadFault,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::TamperedLog(fault) => write!(f, "tampered log ({fault})"),
            ViolationKind::IncompleteLog { len, canonical_len } => {
                write!(f, "incomplete log ({len} of {canonical_len} blocks)")
            }
            ViolationKind::ForkedLog { height } => write!(f, "forked log at height {height}"),
            ViolationKind::IncorrectRead {
                txn,
                key,
                expected,
                observed,
            } => write!(
                f,
                "incorrect read by {txn} on {key}: expected {expected}, observed {observed}"
            ),
            ViolationKind::SerializabilityViolation { txn, conflict } => {
                write!(f, "serializability violation by {txn}: {conflict}")
            }
            ViolationKind::SerializationCycle { cycle } => {
                write!(f, "serialization cycle through {} txns", cycle.len())
            }
            ViolationKind::DatastoreCorruption { key, version } => {
                write!(f, "datastore corruption of {key} at version {version}")
            }
            ViolationKind::InconsistentRoots { decision } => {
                write!(f, "inconsistent root set for a {decision} block")
            }
            ViolationKind::TamperedTransfer { fault } => {
                write!(f, "served a refused repair transfer ({fault})")
            }
            ViolationKind::BadCheckpoint { height } => {
                write!(
                    f,
                    "surrendered checkpoint at height {height} does not bind to the chain"
                )
            }
            ViolationKind::TamperedRead { fault } => {
                write!(f, "served a refuted snapshot read ({fault})")
            }
        }
    }
}

/// One detected violation: the kind, the block where it surfaced and —
/// when attributable — the culprit server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The misbehaving server's index, when attributable.
    pub server: Option<u32>,
    /// The block height where the violation surfaced.
    pub height: Option<u64>,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.server, self.height) {
            (Some(s), Some(h)) => write!(f, "[server {s}, block {h}] {}", self.kind),
            (Some(s), None) => write!(f, "[server {s}] {}", self.kind),
            (None, Some(h)) => write!(f, "[block {h}] {}", self.kind),
            (None, None) => write!(f, "{}", self.kind),
        }
    }
}

/// The audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
    /// Length of the canonical log used for replay.
    pub canonical_len: usize,
    /// Base height of the canonical log (0 unless every server
    /// surrendered a pruned suffix; then replay was seeded from the
    /// surrendered checkpoints).
    pub canonical_base: u64,
    /// Number of committed blocks replayed.
    pub blocks_replayed: usize,
    /// Servers whose logs stop short because they are **repairing**
    /// within the grace deadline — lagging, not faulty, so no
    /// incomplete-log violation is raised against them.
    pub lagging: Vec<u32>,
}

impl AuditReport {
    /// `true` when no violation of any kind was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations attributed to a given server.
    pub fn against_server(&self, server: u32) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| v.server == Some(server))
            .collect()
    }

    /// The first violation in log order (the paper: "the auditor
    /// identifies the first occurrence of any of these violations", §4.5).
    pub fn first(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .min_by_key(|v| v.height.unwrap_or(u64::MAX))
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "audit clean: {} blocks replayed, no violations",
                self.blocks_replayed
            )
        } else {
            writeln!(f, "audit found {} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Everything the auditor collects from the (untrusted) servers.
#[derive(Debug)]
pub struct AuditInput {
    /// Per-server log copies, as surrendered (possibly doctored).
    pub logs: Vec<TamperProofLog>,
    /// Per-server datastore snapshots (the auditor probes these for
    /// verification objects; a corrupted store yields failing proofs).
    pub shards: Vec<AuthenticatedShard>,
    /// Per-server newest persisted checkpoints. Only consulted when
    /// the canonical log is a *suffix* (every server pruned its WAL
    /// below a snapshot): each checkpoint is bound to the canonical
    /// chain (height + tip hash + root re-computation, the PR 2
    /// snapshot-binding machinery) and then seeds the replay state for
    /// that server's shard.
    pub checkpoints: Vec<Option<ShardSnapshot>>,
}

impl AuditInput {
    /// An input without surrendered checkpoints (full-log audits).
    pub fn new(logs: Vec<TamperProofLog>, shards: Vec<AuthenticatedShard>) -> Self {
        let checkpoints = vec![None; logs.len()];
        AuditInput {
            logs,
            shards,
            checkpoints,
        }
    }
}

/// The offline auditor.
#[derive(Debug, Clone)]
pub struct Auditor {
    partitioner: Partitioner,
    server_pks: Vec<PublicKey>,
    /// The initial database contents (the trusted genesis state that
    /// seeds replay).
    initial: HashMap<Key, Value>,
    /// Verify collective signatures (disabled when auditing a 2PC
    /// cluster, which has none).
    verify_cosign: bool,
    /// Servers known to be mid-repair (within the grace deadline):
    /// their short logs are lagging, not omission faults, and their
    /// stale shards are not probed for verification objects.
    lagging: HashSet<u32>,
}

impl Auditor {
    /// Creates an auditor.
    pub fn new(
        partitioner: Partitioner,
        server_pks: Vec<PublicKey>,
        initial: HashMap<Key, Value>,
    ) -> Self {
        Auditor {
            partitioner,
            server_pks,
            initial,
            verify_cosign: true,
            lagging: HashSet::new(),
        }
    }

    /// Disables co-sign verification (2PC baseline audits).
    pub fn without_cosign_verification(mut self) -> Self {
        self.verify_cosign = false;
        self
    }

    /// Marks servers as repairing-within-grace: lagging, not faulty.
    pub fn with_lagging(mut self, lagging: HashSet<u32>) -> Self {
        self.lagging = lagging;
        self
    }

    /// Runs the complete audit.
    pub fn audit(&self, input: &AuditInput) -> AuditReport {
        let mut violations = Vec::new();
        let mut lagging_report = Vec::new();

        // ---- Step 1: log gathering and selection (Lemmas 6–7). -------
        let canonical = if self.verify_cosign {
            let selection = select_canonical_log(&input.logs, &self.server_pks);
            for (server, assessment) in selection.assessments.iter().enumerate() {
                let server = server as u32;
                match assessment {
                    LogAssessment::Complete => {}
                    LogAssessment::Incomplete { len, canonical_len } => {
                        // A repairing server (within its grace window)
                        // is lagging, not omitting: the repair plane is
                        // resynchronizing it.
                        if self.lagging.contains(&server) {
                            lagging_report.push(server);
                        } else {
                            violations.push(Violation {
                                server: Some(server),
                                height: Some(*len as u64),
                                kind: ViolationKind::IncompleteLog {
                                    len: *len,
                                    canonical_len: *canonical_len,
                                },
                            });
                        }
                    }
                    LogAssessment::Tampered(fault) => violations.push(Violation {
                        server: Some(server),
                        height: Some(fault.height),
                        kind: ViolationKind::TamperedLog(*fault),
                    }),
                    LogAssessment::Forked { height } => violations.push(Violation {
                        server: Some(server),
                        height: Some(*height),
                        kind: ViolationKind::ForkedLog { height: *height },
                    }),
                }
            }
            selection.canonical
        } else {
            // Without signatures the longest log is taken on faith.
            input
                .logs
                .iter()
                .max_by_key(|l| l.len())
                .cloned()
                .unwrap_or_default()
        };

        // ---- Step 2: replay (Lemmas 1 and 3). -------------------------
        //
        // A canonical log with base 0 replays from the trusted genesis
        // population. When every server pruned below a checkpoint the
        // canonical log is a *suffix*: replay is then seeded from the
        // surrendered checkpoints, each first **bound** to the canonical
        // chain (height within coverage, recorded tip hash matching the
        // chain, payload reproducing its recorded root). A shard without
        // a bindable checkpoint stays inactive — its keys go unchecked
        // rather than producing false accusations from unknown state.
        let base = canonical.base_height();
        let mut state: HashMap<Key, ItemState> = HashMap::new();
        let mut active_from: HashMap<u32, u64> = HashMap::new();
        if base == 0 {
            state = self
                .initial
                .iter()
                .map(|(k, v)| (k.clone(), ItemState::initial(v.clone())))
                .collect();
        } else {
            for (server, checkpoint) in input.checkpoints.iter().enumerate() {
                let server = server as u32;
                let Some(snap) = checkpoint else {
                    active_from.insert(server, u64::MAX);
                    continue;
                };
                let expected_tip = if snap.height == base {
                    Some(canonical.base_tip())
                } else {
                    canonical.get(snap.height.wrapping_sub(1)).map(Block::hash)
                };
                let bound = snap.height >= base
                    && snap.height <= canonical.next_height()
                    && expected_tip == Some(snap.tip_hash)
                    && snap.restore_verified().is_ok();
                if !bound {
                    violations.push(Violation {
                        server: Some(server),
                        height: Some(snap.height),
                        kind: ViolationKind::BadCheckpoint {
                            height: snap.height,
                        },
                    });
                    active_from.insert(server, u64::MAX);
                    continue;
                }
                active_from.insert(server, snap.height);
                for item in &snap.checkpoint.items {
                    let (wts, value) = item.versions.last().expect("non-empty chains");
                    state.insert(
                        item.key.clone(),
                        ItemState {
                            value: value.clone(),
                            rts: item.rts,
                            wts: *wts,
                        },
                    );
                }
            }
        }
        // A key's checks and effects activate once replay passes its
        // owner's seed height (everything below is already inside the
        // seeding checkpoint).
        let active = |active_from: &HashMap<u32, u64>, server: u32, height: u64| {
            height >= active_from.get(&server).copied().unwrap_or(0)
        };
        let mut committed_txns: Vec<TxnRecord> = Vec::new();
        let mut blocks_replayed = 0;

        for block in canonical.iter() {
            self.check_root_consistency(block, &mut violations);
            if block.decision != Decision::Commit {
                continue;
            }
            blocks_replayed += 1;
            for txn in &block.txns {
                // Lemma 1: each read must reflect the latest logged write.
                for read in &txn.read_set {
                    if !active(
                        &active_from,
                        self.partitioner.owner(&read.key),
                        block.height,
                    ) {
                        continue;
                    }
                    if let Some(expected) = state.get(&read.key) {
                        if read.value != expected.value || read.wts != expected.wts {
                            violations.push(Violation {
                                server: Some(self.partitioner.owner(&read.key)),
                                height: Some(block.height),
                                kind: ViolationKind::IncorrectRead {
                                    txn: txn.id,
                                    key: read.key.clone(),
                                    expected: expected.value.clone(),
                                    observed: read.value.clone(),
                                },
                            });
                        }
                    }
                }
                // Lemma 3: timestamp-order conflicts.
                for conflict in occ::validate_txn(txn, |key| state.get(key).cloned()) {
                    if !active(
                        &active_from,
                        self.partitioner.owner(&conflict.key),
                        block.height,
                    ) {
                        continue;
                    }
                    violations.push(Violation {
                        server: Some(self.partitioner.owner(&conflict.key)),
                        height: Some(block.height),
                        kind: ViolationKind::SerializabilityViolation {
                            txn: txn.id,
                            conflict,
                        },
                    });
                }
                // Apply effects (skipped below a shard's seed height —
                // the checkpoint already includes them).
                for read in &txn.read_set {
                    if !active(
                        &active_from,
                        self.partitioner.owner(&read.key),
                        block.height,
                    ) {
                        continue;
                    }
                    if let Some(st) = state.get_mut(&read.key) {
                        if txn.id > st.rts {
                            st.rts = txn.id;
                        }
                    }
                }
                for write in &txn.write_set {
                    if !active(
                        &active_from,
                        self.partitioner.owner(&write.key),
                        block.height,
                    ) {
                        continue;
                    }
                    let st = state
                        .entry(write.key.clone())
                        .or_insert_with(|| ItemState::initial(write.new_value.clone()));
                    st.value = write.new_value.clone();
                    if txn.id > st.wts {
                        st.wts = txn.id;
                    }
                    if txn.id > st.rts {
                        st.rts = txn.id;
                    }
                }
                committed_txns.push(txn.clone());
            }
        }

        // Lemma 3, graph form: the committed history must have an
        // acyclic serialization graph.
        if let Err(cycle) = serialization_graph_check(&committed_txns) {
            violations.push(Violation {
                server: None,
                height: None,
                kind: ViolationKind::SerializationCycle { cycle },
            });
        }

        // ---- Step 3: datastore authentication (Lemma 2). -------------
        //
        // The logged root is the **composite** `H(value_root ‖
        // key_root)` ([`fides_store::combine_roots`]). Every logged write
        // of a committed block is checked at the block's version: the
        // server's *actual* (possibly corrupted) store must hold the key
        // there and reproduce the co-signed root (§4.2.2). The roots are
        // computed once per distinct (server, version), in one rolled
        // pass per shard, the shards in parallel.
        let mut checks: Vec<(u64, Timestamp, u32, &Key, fides_crypto::Digest)> = Vec::new();
        let mut versions: BTreeMap<u32, BTreeSet<Timestamp>> = BTreeMap::new();
        for block in canonical.iter() {
            if block.decision != Decision::Commit {
                continue;
            }
            let Some(version) = block.max_txn_ts() else {
                continue;
            };
            for txn in &block.txns {
                for write in &txn.write_set {
                    let server = self.partitioner.owner(&write.key);
                    if self.lagging.contains(&server) {
                        // A mid-repair shard legitimately lacks recent
                        // writes; it is re-audited once the transfer
                        // installs.
                        continue;
                    }
                    let Some(logged_root) = block.root_of(server) else {
                        continue; // missing roots reported separately
                    };
                    if input.shards.get(server as usize).is_none() {
                        continue;
                    }
                    checks.push((block.height, version, server, &write.key, logged_root));
                    versions.entry(server).or_default().insert(version);
                }
            }
        }
        let per_shard: Vec<(u32, Vec<Timestamp>)> = versions
            .into_iter()
            .map(|(server, vs)| (server, vs.into_iter().collect()))
            .collect();
        let shard_roots = rayon::parallel_map(&per_shard, |(server, vs)| {
            input.shards[*server as usize].roots_at_versions(vs)
        });
        let roots: HashMap<(u32, Timestamp), fides_crypto::Digest> = per_shard
            .iter()
            .zip(shard_roots)
            .flat_map(|((server, vs), rs)| vs.iter().map(|v| (*server, *v)).zip(rs))
            .collect();
        for (height, version, server, key, logged_root) in checks {
            let shard = &input.shards[server as usize];
            let authentic =
                shard.exists_at_version(key, version) && roots[&(server, version)] == logged_root;
            if !authentic {
                violations.push(Violation {
                    server: Some(server),
                    height: Some(height),
                    kind: ViolationKind::DatastoreCorruption {
                        key: key.clone(),
                        version,
                    },
                });
            }
        }

        AuditReport {
            violations,
            canonical_len: canonical.len(),
            canonical_base: base,
            blocks_replayed,
            lagging: lagging_report,
        }
    }

    /// Block-level root invariants (§4.3.1): commit ⇒ all involved
    /// roots present; abort ⇒ at least one missing.
    fn check_root_consistency(&self, block: &Block, violations: &mut Vec<Violation>) {
        let mut involved: HashSet<u32> = HashSet::new();
        for txn in &block.txns {
            for r in &txn.read_set {
                involved.insert(self.partitioner.owner(&r.key));
            }
            for w in &txn.write_set {
                involved.insert(self.partitioner.owner(&w.key));
            }
        }
        if !self.verify_cosign {
            return; // the 2PC baseline logs no roots
        }
        let present: HashSet<u32> = block.roots.iter().map(|r| r.server).collect();
        let bad = match block.decision {
            Decision::Commit => !involved.iter().all(|s| present.contains(s)),
            Decision::Abort => !involved.is_empty() && involved.iter().all(|s| present.contains(s)),
        };
        if bad {
            violations.push(Violation {
                server: None,
                height: Some(block.height),
                kind: ViolationKind::InconsistentRoots {
                    decision: block.decision,
                },
            });
        }
    }
}

/// Builds the serialization graph of a committed history and checks it
/// for cycles (Lemma 3: "this is equivalent to verifying that no cycle
/// exists in the Serialization Graph").
///
/// Versions are identified by the recorded timestamps: a write by
/// transaction `T` creates version `T.id` of the key, and a read entry's
/// `wts` names the version the transaction actually observed (the
/// *reads-from* relation). Edges follow the classic rules:
///
/// * **WR** — version writer → its readers,
/// * **WW** — writer of each version → writer of the next version,
/// * **RW** — reader of a version → writer of the next version
///   (anti-dependency).
///
/// Because edges are derived from the recorded versions rather than log
/// positions, a history whose reads contradict the log order produces a
/// genuine cycle.
///
/// # Errors
///
/// Returns one detected cycle (as the list of transaction ids on it).
pub fn serialization_graph_check(txns: &[TxnRecord]) -> Result<(), Vec<Timestamp>> {
    let n = txns.len();
    let mut edges: Vec<HashSet<usize>> = vec![HashSet::new(); n];

    // Version chains per key: (version ts, writer index), sorted by ts.
    let mut versions: HashMap<Key, Vec<(Timestamp, usize)>> = HashMap::new();
    for (i, txn) in txns.iter().enumerate() {
        for write in &txn.write_set {
            versions
                .entry(write.key.clone())
                .or_default()
                .push((txn.id, i));
        }
    }
    for chain in versions.values_mut() {
        chain.sort_unstable_by_key(|(ts, _)| *ts);
        // WW edges along the version order.
        for pair in chain.windows(2) {
            let (_, w1) = pair[0];
            let (_, w2) = pair[1];
            if w1 != w2 {
                edges[w1].insert(w2);
            }
        }
    }

    // WR and RW edges from the reads-from relation.
    for (i, txn) in txns.iter().enumerate() {
        for read in &txn.read_set {
            let Some(chain) = versions.get(&read.key) else {
                continue; // only ever-initial versions: no edges
            };
            match chain.binary_search_by_key(&read.wts, |(ts, _)| *ts) {
                Ok(pos) => {
                    let writer = chain[pos].1;
                    if writer != i {
                        edges[writer].insert(i); // WR
                    }
                    if let Some(&(_, next_writer)) = chain.get(pos + 1) {
                        if next_writer != i {
                            edges[i].insert(next_writer); // RW
                        }
                    }
                }
                Err(pos) => {
                    // Read a version not produced by any logged write
                    // (e.g. the initial version): anti-depend on the
                    // first overwriting transaction.
                    if let Some(&(_, next_writer)) = chain.get(pos) {
                        if next_writer != i {
                            edges[i].insert(next_writer); // RW
                        }
                    }
                }
            }
        }
    }

    // Iterative DFS cycle detection with colouring.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                color[node] = Color::Black;
                continue;
            }
            if color[node] == Color::Black {
                continue;
            }
            color[node] = Color::Grey;
            stack.push((node, true));
            for &next in &edges[node] {
                match color[next] {
                    Color::White => {
                        parent[next] = node;
                        stack.push((next, false));
                    }
                    Color::Grey => {
                        // Cycle: walk parents from node back to next.
                        let mut cycle = vec![txns[next].id];
                        let mut cur = node;
                        while cur != next && cur != usize::MAX {
                            cycle.push(txns[cur].id);
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Err(cycle);
                    }
                    Color::Black => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_store::rwset::{ReadEntry, WriteEntry};

    fn ts(c: u64) -> Timestamp {
        Timestamp::new(c, 0)
    }

    fn r(key: &str, wts: u64) -> ReadEntry {
        ReadEntry {
            key: Key::new(key),
            value: Value::from_i64(0),
            rts: Timestamp::ZERO,
            wts: ts(wts),
        }
    }

    fn w(key: &str) -> WriteEntry {
        WriteEntry {
            key: Key::new(key),
            new_value: Value::from_i64(1),
            old_value: None,
            rts: Timestamp::ZERO,
            wts: Timestamp::ZERO,
        }
    }

    fn txn(id: u64, reads: Vec<ReadEntry>, writes: Vec<WriteEntry>) -> TxnRecord {
        TxnRecord {
            id: ts(id),
            read_set: reads,
            write_set: writes,
        }
    }

    #[test]
    fn acyclic_history_passes() {
        // T1 writes x, T2 reads x then writes y, T3 reads y.
        let history = vec![
            txn(1, vec![], vec![w("x")]),
            txn(2, vec![r("x", 1)], vec![w("y")]),
            txn(3, vec![r("y", 2)], vec![]),
        ];
        assert!(serialization_graph_check(&history).is_ok());
    }

    #[test]
    fn rw_ww_cycle_detected() {
        // Write-skew made visible in the log: T1 read x@initial and
        // wrote y@1; T2 read y@initial (NOT T1's version) and wrote x@2.
        // Reads-from gives RW edges T1→T2 (x) and T2→T1 (y): a cycle.
        let history = vec![
            txn(1, vec![r("x", 0)], vec![w("y")]),
            txn(2, vec![r("y", 0)], vec![w("x")]),
        ];
        let err = serialization_graph_check(&history);
        assert!(err.is_err());
        let cycle = err.unwrap_err();
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn reads_from_later_version_is_acyclic_wr_edge() {
        // T2 reads the version T1 wrote: a single WR edge, no cycle.
        let history = vec![
            txn(1, vec![], vec![w("x")]),
            txn(2, vec![r("x", 1)], vec![]),
        ];
        assert!(serialization_graph_check(&history).is_ok());
    }

    #[test]
    fn ww_chain_is_acyclic() {
        let history = vec![
            txn(1, vec![], vec![w("x")]),
            txn(2, vec![], vec![w("x")]),
            txn(3, vec![], vec![w("x")]),
        ];
        assert!(serialization_graph_check(&history).is_ok());
    }

    #[test]
    fn self_conflicts_ignored() {
        // A txn that reads and writes the same key has no self-edge.
        let history = vec![txn(1, vec![r("x", 0)], vec![w("x")])];
        assert!(serialization_graph_check(&history).is_ok());
    }

    #[test]
    fn empty_history_passes() {
        assert!(serialization_graph_check(&[]).is_ok());
    }

    #[test]
    fn report_display_and_helpers() {
        let report = AuditReport {
            violations: vec![Violation {
                server: Some(2),
                height: Some(7),
                kind: ViolationKind::IncorrectRead {
                    txn: ts(9),
                    key: Key::new("x"),
                    expected: Value::from_i64(900),
                    observed: Value::from_i64(1000),
                },
            }],
            canonical_len: 10,
            canonical_base: 0,
            blocks_replayed: 10,
            lagging: Vec::new(),
        };
        assert!(!report.is_clean());
        assert_eq!(report.against_server(2).len(), 1);
        assert_eq!(report.against_server(0).len(), 0);
        assert_eq!(report.first().unwrap().height, Some(7));
        let text = report.to_string();
        assert!(text.contains("server 2"));
        assert!(text.contains("block 7"));
    }

    #[test]
    fn clean_report_displays() {
        let report = AuditReport {
            violations: vec![],
            canonical_len: 3,
            canonical_base: 0,
            blocks_replayed: 3,
            lagging: Vec::new(),
        };
        assert!(report.is_clean());
        assert!(report.to_string().contains("clean"));
        assert!(report.first().is_none());
    }
}
