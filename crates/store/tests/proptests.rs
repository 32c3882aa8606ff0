//! Property-based tests for the datastore substrate.

use fides_store::authenticated::{leaf_digest, AuthenticatedShard};
use fides_store::{Key, MultiVersionStore, SingleVersionStore, Timestamp, Value};
use proptest::prelude::*;

fn key(i: u8) -> Key {
    Key::new(format!("k{i:03}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The speculative root equals the root after actually committing
    /// the same writes — the invariant TFCommit's vote phase depends on
    /// (§4.3.1).
    #[test]
    fn speculative_root_matches_commit(
        n in 1usize..24,
        writes in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..12),
    ) {
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i as u8), Value::from_i64(i as i64))).collect();
        let mut spec_shard = AuthenticatedShard::new(items.clone());
        let mut commit_shard = AuthenticatedShard::new(items);

        let writes: Vec<(Key, Value)> = writes
            .into_iter()
            .map(|(k, v)| (key(k % n as u8), Value::from_i64(v)))
            .collect();
        // Deduplicate: within one block each key is written once
        // (non-conflicting batch); keep the last write per key.
        let mut dedup: std::collections::BTreeMap<Key, Value> = Default::default();
        for (k, v) in writes {
            dedup.insert(k, v);
        }
        let writes: Vec<(Key, Value)> = dedup.into_iter().collect();

        let before = spec_shard.root();
        let speculative = spec_shard.speculative_root(&writes);
        prop_assert_eq!(spec_shard.root(), before, "speculation must not mutate");

        commit_shard.apply_commit(Timestamp::new(1, 0), &[], &writes);
        prop_assert_eq!(speculative, commit_shard.root());
    }

    /// Committed values are always provable against the live root, and
    /// proofs never validate wrong values.
    #[test]
    fn proofs_sound_after_random_history(
        ops in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..30),
    ) {
        let n = 16u8;
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i), Value::from_i64(0))).collect();
        let mut shard = AuthenticatedShard::new(items);
        let mut ts = 0u64;
        for (k, v) in ops {
            ts += 1;
            shard.apply_commit(
                Timestamp::new(ts, 0),
                &[],
                &[(key(k % n), Value::from_i64(v))],
            );
        }
        // Membership proofs anchor to the value root, which recombines
        // with the key root into the co-signed composite root.
        let value_root = shard.value_root();
        prop_assert_eq!(
            fides_store::combine_roots(&value_root, &shard.key_root()),
            shard.root()
        );
        for i in 0..n {
            let (value, vo) = shard.proof_latest(&key(i)).expect("preloaded");
            prop_assert!(vo.verify(leaf_digest(&key(i), &value), &value_root));
            // A different value must not verify.
            let wrong = Value::from_i64(value.as_i64().unwrap_or(0) + 1);
            prop_assert!(!vo.verify(leaf_digest(&key(i), &wrong), &value_root));
        }
        // Batched reads (multiproof + absence brackets) verify against
        // the composite root, and absent keys are provably unbound.
        let request: Vec<Key> = (0..n).map(key).chain([Key::new("nope")]).collect();
        let bundle = shard.prove_read(&request);
        let values = bundle.verify(&request, &shard.root()).expect("bundle verifies");
        prop_assert!(values[..n as usize].iter().all(|v| v.is_some()));
        prop_assert!(values[n as usize].is_none());
    }

    /// Historical reconstruction agrees with the roots observed live at
    /// every version (multi-versioned audit, §4.2.2).
    #[test]
    fn version_reconstruction_matches_live_roots(
        ops in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..16),
    ) {
        let n = 8u8;
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i), Value::from_i64(0))).collect();
        let mut shard = AuthenticatedShard::new(items);
        let mut observed: Vec<(Timestamp, fides_crypto::Digest)> = Vec::new();
        let mut ts = 0u64;
        for (k, v) in ops {
            ts += 1;
            let stamp = Timestamp::new(ts, 0);
            shard.apply_commit(stamp, &[], &[(key(k % n), Value::from_i64(v))]);
            observed.push((stamp, shard.root()));
        }
        for (stamp, root) in observed {
            prop_assert_eq!(shard.root_at_version(stamp), root);
        }
    }

    /// The auditor's rolled Lemma 2 pass equals one rebuild per
    /// version, over histories with out-of-order writes, same-timestamp
    /// double writes, keys created between audited versions, corrupted
    /// versions and stored versions no commit wrote.
    #[test]
    fn rolled_roots_match_per_version_rebuild(
        n in 1u8..10,
        ops in proptest::collection::vec(
            (0u8..6, any::<u8>(), any::<i64>(), 1u64..40, 0u32..3),
            1..40,
        ),
        audited in proptest::collection::vec((0u64..44, 0u32..3), 0..16),
    ) {
        let items: Vec<(Key, Value)> =
            (0..n).map(|i| (key(i), Value::from_i64(i as i64))).collect();
        let mut shard = AuthenticatedShard::new(items);
        let mut created = n;
        for (kind, k, v, counter, client) in ops {
            let ts = Timestamp::new(counter, client);
            let existing = key(k % created);
            let value = Value::from_i64(v);
            match kind {
                // A logged write at any timestamp (out of order too).
                0 | 1 => {
                    shard.apply_commit(ts, &[], &[(existing, value)]);
                }
                // The same key written twice at one timestamp: in one
                // transaction, then again by a second apply.
                2 => {
                    let twice = Value::from_i64(v.wrapping_add(1));
                    shard.apply_commit(ts, &[], &[(existing.clone(), value), (existing.clone(), twice)]);
                    shard.apply_commit(ts, &[], &[(existing, Value::from_i64(v.wrapping_sub(1)))]);
                }
                // Key creation (possibly before keys created earlier).
                3 => {
                    shard.apply_commit(ts, &[], &[(key(created), value)]);
                    created += 1;
                }
                // Silent corruption of the version visible at ts.
                4 => {
                    shard.store_mut().corrupt_version(&existing, ts, value);
                }
                // A stored version no commit wrote.
                _ => {
                    shard.store_mut().commit_write(&existing, value, ts);
                }
            }
        }
        let mut versions: Vec<Timestamp> = audited
            .into_iter()
            .map(|(counter, client)| Timestamp::new(counter, client))
            .collect();
        versions.sort_unstable();
        let expected: Vec<fides_crypto::Digest> =
            versions.iter().map(|v| shard.root_at_version(*v)).collect();
        prop_assert_eq!(shard.roots_at_versions(&versions), expected);
    }

    /// Rollback never leaves versions newer than the target and keeps
    /// the surviving history intact.
    #[test]
    fn rollback_invariants(
        writes in proptest::collection::vec((any::<u8>(), 1u64..50), 1..20),
        cut in 1u64..50,
    ) {
        let mut store = MultiVersionStore::new();
        for i in 0..4u8 {
            store.load(key(i), Value::from_i64(0));
        }
        for (k, t) in &writes {
            store.commit_write(&key(k % 4), Value::from_i64(*t as i64), Timestamp::new(*t, 0));
        }
        let cut_ts = Timestamp::new(cut, u32::MAX);
        let expected: std::collections::HashMap<Key, Option<Value>> = (0..4u8)
            .map(|i| (key(i), store.value_at(&key(i), cut_ts)))
            .collect();
        store.rollback_to(cut_ts);
        for i in 0..4u8 {
            let k = key(i);
            prop_assert_eq!(store.get(&k).map(|s| s.value), expected[&k].clone());
            if let Some(state) = store.get(&k) {
                prop_assert!(state.wts <= cut_ts);
                prop_assert!(state.rts <= cut_ts);
            }
        }
    }

    /// Single-version store timestamps are monotone under any op mix.
    #[test]
    fn single_version_timestamps_monotone(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>(), 1u64..100), 1..40),
    ) {
        let mut store = SingleVersionStore::new();
        for i in 0..4u8 {
            store.load(key(i), Value::from_i64(0));
        }
        let mut high_water: std::collections::HashMap<Key, (Timestamp, Timestamp)> =
            Default::default();
        for (is_write, k, t) in ops {
            let k = key(k % 4);
            let ts = Timestamp::new(t, 0);
            if is_write {
                store.commit_write(&k, Value::from_i64(t as i64), ts);
            } else {
                store.commit_read(&k, ts);
            }
            let state = store.get(&k).unwrap();
            let entry = high_water.entry(k).or_insert((Timestamp::ZERO, Timestamp::ZERO));
            prop_assert!(state.rts >= entry.0, "rts regressed");
            prop_assert!(state.wts >= entry.1, "wts regressed");
            *entry = (state.rts, state.wts);
            prop_assert!(state.rts >= state.wts, "rts >= wts invariant (writes bump both)");
        }
    }
}
