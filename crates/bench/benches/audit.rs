//! Audit micro-benchmarks — the cost of Lemma 2 (§4.2.2): the composite
//! roots of one 10k-item shard at 16 audited versions, computed in one
//! rolled pass versus one full rebuild per version, plus the batched
//! leaf hashing every from-scratch build starts with.

use criterion::{criterion_group, criterion_main, Criterion};
use fides_crypto::merkle::{hash_leaf, hash_leaf_many};
use fides_store::{AuthenticatedShard, Key, Timestamp, Value};

const ITEMS: usize = 10_000;
const VERSIONS: u64 = 16;
const WRITES_PER_VERSION: usize = 100;

/// A 10k-item shard with 16 committed versions of 100 writes each, and
/// the versions an auditor checks it at.
fn audited_shard() -> (AuthenticatedShard, Vec<Timestamp>) {
    let key = |i: usize| Key::new(format!("item-{i:06}"));
    let mut shard = AuthenticatedShard::new(
        (0..ITEMS)
            .map(|i| (key(i), Value::from_i64(i as i64)))
            .collect(),
    );
    let mut versions = Vec::new();
    for v in 1..=VERSIONS {
        let ts = Timestamp::new(v, 0);
        let writes: Vec<(Key, Value)> = (0..WRITES_PER_VERSION)
            .map(|w| {
                let i = (v as usize * 7919 + w * 313) % ITEMS;
                (key(i), Value::from_i64(v as i64))
            })
            .collect();
        shard.apply_commit(ts, &[], &writes);
        versions.push(ts);
    }
    (shard, versions)
}

fn bench_lemma2_roots(c: &mut Criterion) {
    let (shard, versions) = audited_shard();
    let mut group = c.benchmark_group("audit/lemma2_roots_10000x16");
    group.sample_size(10);
    group.bench_function("rolled", |b| {
        b.iter(|| shard.roots_at_versions(std::hint::black_box(&versions)))
    });
    group.bench_function("per_version_rebuild", |b| {
        b.iter(|| {
            std::hint::black_box(&versions)
                .iter()
                .map(|v| shard.root_at_version(*v))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_leaf_hashing(c: &mut Criterion) {
    // Leaf data the size of an encoded `(key, value)` pair.
    let data: Vec<Vec<u8>> = (0..ITEMS)
        .map(|i| format!("item-{i:06}/value-{i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut group = c.benchmark_group("audit/leaf_digests_10000");
    group.sample_size(20);
    group.bench_function("hash_leaf_many", |b| {
        b.iter(|| hash_leaf_many(std::hint::black_box(&refs)))
    });
    group.bench_function("hash_leaf_each", |b| {
        b.iter(|| {
            std::hint::black_box(&refs)
                .iter()
                .map(|d| hash_leaf(d))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lemma2_roots, bench_leaf_hashing);
criterion_main!(benches);
