//! The pipelined commit client: read-modify-write transfers kept
//! `depth` deep in flight through `commit_async`, outcomes collected
//! with `drain_outcomes` and verified in batches with
//! `finalize_outcomes`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fides_core::{
    finalize_outcomes, ClientSession, CommitProtocol, PendingCommit, TxnHandle, TxnOutcome,
};
use fides_crypto::PublicKey;
use fides_store::{Key, Value};
use fides_telemetry::trace::now_ns;

use crate::spans::{SpanLog, TXN_ROOT};
use crate::stats::Samples;

/// How long a client keeps draining its in-flight commits once it
/// stops submitting.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The client phases that tile one transaction's latency.
const PHASES: [&str; 4] = [
    "client.exec",
    "client.submit",
    "client.outcome_wait",
    "client.verify",
];

/// When a commit client submits, and which of its transactions count.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Transactions kept in flight.
    pub depth: usize,
    /// Transactions submitted at or after this instant are measured.
    pub measure_from: Instant,
    /// No submission at or after this instant.
    pub until: Instant,
    /// No more than this many submissions.
    pub budget: usize,
}

/// What one commit client measured.
#[derive(Debug, Default)]
pub struct CommitOut {
    /// Measured transactions submitted (or attempted and failed before
    /// submission).
    pub attempted: u64,
    pub committed: u64,
    /// Aborted outcomes plus `refused`.
    pub aborted: u64,
    /// Transactions the client gave up on after the servers refused
    /// its end-transaction as stale on every retry.
    pub refused: u64,
    /// Client errors, timeouts, and outcomes whose collective signature
    /// failed verification.
    pub failed: u64,
    /// Outcomes that failed signature verification.
    pub anomalies: u64,
    /// Client latency of measured committed transactions, begin to
    /// verified outcome, and its four tiling phases (sums, ms).
    pub latency: Samples,
    pub exec_ms: f64,
    pub submit_ms: f64,
    pub wait_ms: f64,
    pub verify_ms: f64,
    /// Batched outcome verification: total time and outcomes verified.
    pub finalize_ms: f64,
    pub finalized: u64,
}

impl CommitOut {
    pub fn merge(&mut self, other: &CommitOut) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.refused += other.refused;
        self.failed += other.failed;
        self.anomalies += other.anomalies;
        self.latency.extend(&other.latency);
        self.exec_ms += other.exec_ms;
        self.submit_ms += other.submit_ms;
        self.wait_ms += other.wait_ms;
        self.verify_ms += other.verify_ms;
        self.finalize_ms += other.finalize_ms;
        self.finalized += other.finalized;
    }
}

/// The transfer a transaction writes: the first key gives one unit to
/// each other key, so the database's value sum never changes.
pub fn transfer(keys: &[Key], values: Vec<Value>) -> Vec<(Key, Value)> {
    let others = keys.len() as i64 - 1;
    keys.iter()
        .zip(values)
        .enumerate()
        .map(|(i, (key, value))| {
            let v = value.as_i64().unwrap_or(0);
            let next = if i == 0 { v - others } else { v + 1 };
            (key.clone(), Value::from_i64(next))
        })
        .collect()
}

/// Runs one commit client to `plan`, drawing each transaction's keys
/// from `next_keys`. With `spans`, every measured committed transaction
/// leaves a root span tiled by its four client phases.
pub fn run_commits(
    client: &mut ClientSession,
    server_pks: &[PublicKey],
    mut next_keys: impl FnMut() -> Vec<Key>,
    plan: Plan,
    mut spans: Option<&mut SpanLog>,
) -> CommitOut {
    let mut out = CommitOut::default();
    let mut pending: Vec<PendingCommit> = Vec::new();
    // handle → (measured, [begin, executed, submitted]) in trace ns.
    let mut started: HashMap<TxnHandle, (bool, [u64; 3])> = HashMap::new();
    let mut submitted = 0usize;
    let mut grace_until: Option<Instant> = None;
    loop {
        let accepting = Instant::now() < plan.until && submitted < plan.budget;
        if !accepting {
            if pending.is_empty() {
                break;
            }
            grace_until.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
        }
        while accepting && pending.len() < plan.depth && submitted < plan.budget {
            let measured = Instant::now() >= plan.measure_from;
            let keys = next_keys();
            let t0 = now_ns();
            let mut txn = client.begin();
            let executed = client
                .read_all(&mut txn, &keys)
                .and_then(|values| client.write_all(&mut txn, &transfer(&keys, values)));
            submitted += 1;
            if executed.is_err() {
                if measured {
                    out.attempted += 1;
                    out.failed += 1;
                }
                continue;
            }
            let t1 = now_ns();
            let commit = client.commit_async(txn);
            let t2 = now_ns();
            started.insert(commit.handle, (measured, [t0, t1, t2]));
            pending.push(commit);
            if Instant::now() >= plan.until {
                break;
            }
        }
        let drain_until = match grace_until {
            Some(grace) => grace,
            None => Instant::now() + Duration::from_millis(2),
        };
        let resolved = client.drain_outcomes(&mut pending, drain_until);
        let t3 = now_ns();
        if resolved.is_empty() {
            if grace_until.is_some_and(|g| Instant::now() >= g) {
                break;
            }
            continue;
        }
        let handles: Vec<TxnHandle> = resolved.iter().map(|o| o.handle).collect();
        let outcomes = finalize_outcomes(resolved, server_pks, CommitProtocol::TfCommit);
        let t4 = now_ns();
        out.finalize_ms += (t4 - t3) as f64 / 1e6;
        out.finalized += outcomes.len() as u64;
        for (handle, outcome) in handles.iter().zip(&outcomes) {
            let Some((measured, [t0, t1, t2])) = started.remove(handle) else {
                continue;
            };
            if !measured {
                continue;
            }
            out.attempted += 1;
            match outcome {
                TxnOutcome::Committed { .. } => {
                    out.committed += 1;
                    out.latency.push((t4 - t0) as f64 / 1e6);
                    out.exec_ms += (t1 - t0) as f64 / 1e6;
                    out.submit_ms += (t2 - t1) as f64 / 1e6;
                    out.wait_ms += (t3 - t2) as f64 / 1e6;
                    out.verify_ms += (t4 - t3) as f64 / 1e6;
                    if let Some(log) = spans.as_deref_mut() {
                        log.record_tiled(TXN_ROOT, &PHASES, &[t0, t1, t2, t3, t4]);
                    }
                }
                TxnOutcome::Aborted { .. } => out.aborted += 1,
                TxnOutcome::Anomaly { .. } => {
                    out.anomalies += 1;
                    out.failed += 1;
                }
            }
        }
    }
    // Still pending after the grace: timed out. Gone from `pending`
    // without an outcome: the servers bounced its end-transaction as
    // stale (older than the newest commit) on every one of the
    // client's retries, so it can never commit — counted as aborted.
    for commit in &pending {
        if started
            .remove(&commit.handle)
            .is_some_and(|(measured, _)| measured)
        {
            out.attempted += 1;
            out.failed += 1;
        }
    }
    let refused = started.values().filter(|(measured, _)| *measured).count() as u64;
    out.attempted += refused;
    out.aborted += refused;
    out.refused += refused;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_conserve_the_sum() {
        let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("k{i}"))).collect();
        let values: Vec<Value> = [100, 7, -3, 0, 42].map(Value::from_i64).to_vec();
        let before: i64 = values.iter().filter_map(Value::as_i64).sum();
        let writes = transfer(&keys, values);
        let after: i64 = writes.iter().filter_map(|(_, v)| v.as_i64()).sum();
        assert_eq!(before, after);
        assert_eq!(writes[0].1.as_i64(), Some(96));
        assert_eq!(writes[1].1.as_i64(), Some(8));
    }
}
