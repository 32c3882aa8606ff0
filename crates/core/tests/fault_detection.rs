//! Fault-injection test suite: every malicious behaviour from the
//! paper's §3.2/§5 is injected into a running cluster and must be (a)
//! detected and (b) attributed to the misbehaving server — the paper's
//! two audit guarantees (§3.3).

use std::time::Duration;

use fides_core::audit::ViolationKind;
use fides_core::behavior::Behavior;
use fides_core::messages::Refusal;
use fides_core::system::{ClusterConfig, FidesCluster};
use fides_store::{Key, Value};

fn commit_some_txns(cluster: &FidesCluster, n: usize) {
    let mut client = cluster.client(0);
    for i in 0..n {
        let key = cluster.key_of((i % 3) as u32, i % 4);
        let outcome = client.run_rmw(&[key], 1).unwrap();
        assert!(outcome.committed(), "setup txn {i} must commit");
    }
}

// ----------------------------------------------------------------------
// Scenario 1 (§5): incorrect reads — Lemma 1.
// ----------------------------------------------------------------------

#[test]
fn stale_read_detected_and_attributed() {
    let victim_key_holder = 1u32;
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        victim_key_holder,
        Behavior {
            stale_read_keys: vec![Key::new("s001:item-000002")],
            ..Behavior::default()
        },
    ));
    let key = cluster.key_of(victim_key_holder, 2);
    let mut client = cluster.client(0);

    // T1 establishes a version (write 100 -> 150).
    assert!(client
        .run_rmw(std::slice::from_ref(&key), 50)
        .unwrap()
        .committed());
    // T2 reads: the malicious server returns the stale value (100) with
    // up-to-date timestamps — exactly Figure 10. The stale value flows
    // into T2's logged read set.
    assert!(client
        .run_rmw(std::slice::from_ref(&key), 7)
        .unwrap()
        .committed());

    let report = cluster.audit();
    assert!(!report.is_clean(), "stale read must be detected");
    let against = report.against_server(victim_key_holder);
    assert!(
        against.iter().any(|v| matches!(
            &v.kind,
            ViolationKind::IncorrectRead { key: k, .. } if *k == key
        )),
        "expected IncorrectRead against server {victim_key_holder}: {report}"
    );
    // No false accusations against benign servers.
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(2).is_empty());
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Scenario 3 (§5): datastore corruption — Lemma 2.
// ----------------------------------------------------------------------

#[test]
fn skipped_write_detected_as_datastore_corruption() {
    let faulty = 2u32;
    let key = Key::new("s002:item-000001");
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        faulty,
        Behavior {
            skip_write_keys: vec![key.clone()],
            ..Behavior::default()
        },
    ));
    let mut client = cluster.client(0);
    // The write commits globally but the faulty server never applies it.
    assert!(client
        .run_rmw(std::slice::from_ref(&key), 11)
        .unwrap()
        .committed());

    let report = cluster.audit();
    let against = report.against_server(faulty);
    assert!(
        against.iter().any(|v| matches!(
            &v.kind,
            ViolationKind::DatastoreCorruption { key: k, .. } if *k == key
        )),
        "expected DatastoreCorruption against server {faulty}: {report}"
    );
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(1).is_empty());
    cluster.shutdown();
}

#[test]
fn post_commit_corruption_detected_at_precise_version() {
    let faulty = 1u32;
    let key = Key::new("s001:item-000000");
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        faulty,
        Behavior {
            corrupt_after_commit: Some((key.clone(), Value::from_i64(999_999))),
            ..Behavior::default()
        },
    ));
    let mut client = cluster.client(0);
    assert!(client
        .run_rmw(std::slice::from_ref(&key), 5)
        .unwrap()
        .committed());

    let report = cluster.audit();
    let against = report.against_server(faulty);
    assert!(
        against
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::DatastoreCorruption { .. })),
        "expected corruption report: {report}"
    );
    // The first violation pinpoints the block of the corrupted version.
    let first = report.first().unwrap();
    assert_eq!(first.height, Some(0));
    cluster.shutdown();
}

#[test]
fn unlogged_store_version_detected_between_audited_versions() {
    // The store of server 1 gains a version of a key the log never
    // writes, timestamped between two audited versions. Lemma 2 must see
    // it at the first block whose version covers it — the roots come
    // from the store's own chains, not from the logged writes.
    let faulty = 1u32;
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4));
    let written = [
        cluster.key_of(faulty, 0),
        cluster.key_of(faulty, 1),
        cluster.key_of(faulty, 0),
    ];
    let untouched = cluster.key_of(faulty, 3);
    let mut client = cluster.client(0);
    for key in &written {
        assert!(client
            .run_rmw(std::slice::from_ref(key), 3)
            .unwrap()
            .committed());
    }
    cluster.settle(Duration::from_secs(5)).expect("settled");

    // (height, version) of each commit block, in log order.
    let blocks: Vec<(u64, fides_store::Timestamp)> = cluster
        .server_state(0)
        .log()
        .iter()
        .filter(|b| b.decision == fides_ledger::block::Decision::Commit)
        .filter_map(|b| Some((b.height, b.max_txn_ts()?)))
        .collect();
    assert_eq!(blocks.len(), 3, "{blocks:?}");
    let (first_height, v1) = blocks[0];
    let (second_height, v2) = blocks[1];
    let injected = fides_store::Timestamp::new(v1.counter(), v1.client() + 1);
    assert!(v1 < injected && injected < v2, "{v1} < {injected} < {v2}");
    cluster.server_state(faulty).with_shard_mut(|shard| {
        shard
            .store_mut()
            .commit_write(&untouched, Value::from_i64(-1), injected)
    });

    let report = cluster.audit();
    let against = report.against_server(faulty);
    assert!(
        against
            .iter()
            .all(|v| matches!(v.kind, ViolationKind::DatastoreCorruption { .. })),
        "{report}"
    );
    // Nothing at the block below the injected version; the first report
    // is the next block, on the key it logged, at its version.
    assert!(against.iter().all(|v| v.height != Some(first_height)));
    let first = against
        .iter()
        .min_by_key(|v| v.height)
        .expect("the unlogged version must be detected");
    assert_eq!(first.height, Some(second_height));
    assert_eq!(
        first.kind,
        ViolationKind::DatastoreCorruption {
            key: written[1].clone(),
            version: v2,
        }
    );
    assert!(report.against_server(0).is_empty(), "{report}");
    assert!(report.against_server(2).is_empty(), "{report}");
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Scenario 2 (§5): incorrect block creation — benign cohort defends
// itself by refusing to co-sign (Lemma 5 machinery).
// ----------------------------------------------------------------------

#[test]
fn fake_root_refused_by_benign_cohort() {
    let victim = 1u32;
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        0, // the coordinator lies
        Behavior {
            fake_root_for: Some(victim),
            ..Behavior::default()
        },
    ));
    let mut client = cluster.client(0);
    let key = cluster.key_of(victim, 1);
    let mut txn = client.begin();
    let v = client.read(&mut txn, &key).unwrap();
    client
        .write(&mut txn, &key, Value::from_i64(v.as_i64().unwrap() + 1))
        .unwrap();
    let outcome = client.commit(txn).unwrap();
    // The benign victim refuses; no valid co-sign can exist; the client
    // detects the anomaly (§4.3.1 phase 5).
    assert!(outcome.is_anomaly(), "got {outcome:?}");

    let state = cluster.server_state(victim);
    let refusals = state.refusals();
    assert!(
        refusals.iter().any(|(_, r)| *r == Refusal::RootMismatch),
        "victim should have refused with RootMismatch: {refusals:?}"
    );
    // Nothing was appended: the unsigned block never enters any log.
    assert_eq!(cluster.settle(Duration::from_secs(1)), Some(0));
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Lemma 4: wrong CoSi values — the coordinator identifies the culprit.
// ----------------------------------------------------------------------

#[test]
fn corrupt_cosi_response_culprit_identified() {
    let culprit = 2u32;
    let cluster = FidesCluster::start(ClusterConfig::new(4).items_per_shard(4).behavior(
        culprit,
        Behavior {
            corrupt_cosi_response: true,
            ..Behavior::default()
        },
    ));
    let mut client = cluster.client(0);
    let key = cluster.key_of(0, 0);
    let outcome = client.run_rmw(&[key], 1).unwrap();
    assert!(outcome.is_anomaly(), "got {outcome:?}");

    let coord = cluster.server_state(0);
    let culprits = coord.cosi_culprits();
    assert_eq!(culprits.len(), 1);
    assert_eq!(culprits[0].1, vec![culprit]);
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Lemma 5: atomicity violation (equivocation) — correct servers detect
// the inconsistent challenge.
// ----------------------------------------------------------------------

#[test]
fn equivocating_coordinator_detected() {
    let cluster = FidesCluster::start(ClusterConfig::new(4).items_per_shard(4).behavior(
        0,
        Behavior {
            equivocate_decision: true,
            ..Behavior::default()
        },
    ));
    let mut client = cluster.client(0);
    let key = cluster.key_of(1, 0);
    let outcome = client.run_rmw(&[key], 1).unwrap();
    assert!(outcome.is_anomaly(), "got {outcome:?}");

    // The cohorts that received the abort block refuse (BadChallenge or
    // the root-consistency check, both manifestations of Lemma 5).
    let mut refusal_count = 0;
    for s in 1..4 {
        refusal_count += cluster.server_state(s).refusals().len();
    }
    assert!(refusal_count > 0, "at least one cohort must refuse");
    // Atomicity preserved: nobody appended either block.
    assert_eq!(cluster.settle(Duration::from_secs(1)), Some(0));
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Lemmas 6–7: log tampering, reordering and truncation.
// ----------------------------------------------------------------------

#[test]
fn tampered_log_detected_at_height() {
    let faulty = 1u32;
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        faulty,
        Behavior {
            tamper_log_at: Some(2),
            ..Behavior::default()
        },
    ));
    commit_some_txns(&cluster, 5);

    let report = cluster.audit();
    let against = report.against_server(faulty);
    assert!(
        against
            .iter()
            .any(|v| { matches!(&v.kind, ViolationKind::TamperedLog(fault) if fault.height == 2) }),
        "expected TamperedLog at height 2: {report}"
    );
    assert!(report.against_server(0).is_empty());
    assert!(report.against_server(2).is_empty());
    cluster.shutdown();
}

#[test]
fn reordered_log_detected() {
    let faulty = 2u32;
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        faulty,
        Behavior {
            reorder_log: Some((1, 3)),
            ..Behavior::default()
        },
    ));
    commit_some_txns(&cluster, 5);

    let report = cluster.audit();
    assert!(
        report
            .against_server(faulty)
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::TamperedLog(_))),
        "expected reorder detection: {report}"
    );
    cluster.shutdown();
}

#[test]
fn truncated_log_detected_as_incomplete() {
    let faulty = 0u32; // even the coordinator can omit its tail
    let cluster = FidesCluster::start(ClusterConfig::new(3).items_per_shard(4).behavior(
        faulty,
        Behavior {
            truncate_log_to: Some(2),
            ..Behavior::default()
        },
    ));
    commit_some_txns(&cluster, 5);

    let report = cluster.audit();
    assert!(
        report.against_server(faulty).iter().any(|v| matches!(
            &v.kind,
            ViolationKind::IncompleteLog {
                len: 2,
                canonical_len: 5
            }
        )),
        "expected IncompleteLog 2/5: {report}"
    );
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Multiple simultaneous faults: detection requires only one correct
// server (§3.2, n > f).
// ----------------------------------------------------------------------

#[test]
fn n_minus_one_faulty_logs_still_audited() {
    // Servers 0 and 1 truncate their logs; server 2 is the single
    // correct server the model requires.
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(4)
            .behavior(
                0,
                Behavior {
                    truncate_log_to: Some(1),
                    ..Behavior::default()
                },
            )
            .behavior(
                1,
                Behavior {
                    tamper_log_at: Some(0),
                    ..Behavior::default()
                },
            ),
    );
    commit_some_txns(&cluster, 4);

    let report = cluster.audit();
    assert_eq!(report.canonical_len, 4, "correct log found via server 2");
    assert!(!report.against_server(0).is_empty());
    assert!(!report.against_server(1).is_empty());
    assert!(report.against_server(2).is_empty());
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Crash/partition: TFCommit is blocking (§4.3.1); our implementation
// surfaces the stall as a client-visible failure instead of hanging.
// ----------------------------------------------------------------------

#[test]
fn partitioned_cohort_stalls_commitment() {
    let cluster = FidesCluster::start(
        ClusterConfig::new(3)
            .items_per_shard(4)
            .round_timeout(Duration::from_millis(200)),
    );
    // Cut the coordinator off from cohort 2 (both directions).
    cluster
        .network()
        .partition_pair(fides_net::NodeId::new(0), fides_net::NodeId::new(2));

    let mut client = cluster.client(0);
    client.set_op_timeout(Duration::from_secs(3));
    let key = cluster.key_of(1, 0);
    let result = client.run_rmw(std::slice::from_ref(&key), 1);
    // Either the coordinator rejected the batch after its vote timeout
    // (client exhausts retries) or the client timed out waiting.
    assert!(result.is_err(), "commitment must not succeed: {result:?}");

    // Heal and verify the system recovers.
    cluster.network().heal();
    let mut client2 = cluster.client(1);
    let outcome = client2.run_rmw(&[key], 1).unwrap();
    assert!(outcome.committed());
    cluster.shutdown();
}

// ----------------------------------------------------------------------
// Honest-cluster sanity: no false positives at scale.
// ----------------------------------------------------------------------

#[test]
fn honest_cluster_audits_clean_after_many_txns() {
    let cluster = FidesCluster::start(ClusterConfig::new(4).items_per_shard(16).batch_size(4));
    let mut handles = Vec::new();
    for c in 0..4u32 {
        let mut client = cluster.client(c);
        let keys: Vec<Key> = (0..4).map(|s| cluster.key_of(s, c as usize * 2)).collect();
        handles.push(std::thread::spawn(move || {
            let mut committed = 0;
            for _ in 0..10 {
                if client.run_rmw(&keys, 1).unwrap().committed() {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 40, "all transactions commit");
    cluster.flush();
    let report = cluster.audit();
    assert!(report.is_clean(), "{report}");
    cluster.shutdown();
}
