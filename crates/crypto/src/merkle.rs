//! Merkle hash trees with verification objects (paper §2.3).
//!
//! Fides authenticates each server's datastore by storing the Merkle root
//! of every involved shard in the transaction block (§4.2). During an
//! audit, a server produces a **verification object** (VO) — the sibling
//! hashes along the path from a data item to the root — and the auditor
//! recomputes the root to compare against the logged one (Lemma 2).
//!
//! The tree supports **incremental updates**: changing one leaf recomputes
//! only the `log₂ n` nodes on its path, which is exactly the "MHT update"
//! cost the paper measures in Figures 14–15.
//!
//! Leaves and internal nodes are domain-separated (`0x00` / `0x01`
//! prefixes) so an internal node can never be confused with a leaf.
//!
//! # Example
//!
//! ```
//! use fides_crypto::merkle::{hash_leaf, MerkleTree};
//!
//! let leaves: Vec<_> = (0u8..8).map(|i| hash_leaf(&[i])).collect();
//! let mut tree = MerkleTree::from_leaves(leaves);
//! let root = tree.root();
//!
//! let vo = tree.proof(3);
//! assert!(vo.verify(hash_leaf(&[3]), &root));
//!
//! // Update leaf 3; the old proof no longer matches the new root.
//! tree.update_leaf(3, hash_leaf(b"new"));
//! assert!(!vo.verify(hash_leaf(&[3]), &tree.root()));
//! assert!(tree.proof(3).verify(hash_leaf(b"new"), &tree.root()));
//! ```

use crate::encoding::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::hash::Digest;
use crate::sha256::Sha256;

/// Domain prefix for leaf hashing.
const LEAF_PREFIX: u8 = 0x00;
/// Domain prefix for internal-node hashing.
const NODE_PREFIX: u8 = 0x01;

/// Hashes raw leaf data with leaf domain separation.
pub fn hash_leaf(data: &[u8]) -> Digest {
    Sha256::digest_parts(&[&[LEAF_PREFIX], data])
}

/// Batch form of [`hash_leaf`]: hashes every leaf's data through the
/// multi-lane [`Sha256::digest_many`]. Identical output to mapping
/// [`hash_leaf`] — the from-scratch tree builds hash thousands of short
/// leaves at once.
pub fn hash_leaf_many(data: &[&[u8]]) -> Vec<Digest> {
    if data.len() < 2 {
        return data.iter().map(|d| hash_leaf(d)).collect();
    }
    let messages: Vec<Vec<u8>> = data
        .iter()
        .map(|d| {
            let mut m = Vec::with_capacity(1 + d.len());
            m.push(LEAF_PREFIX);
            m.extend_from_slice(d);
            m
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    Sha256::digest_many(&refs)
}

/// Hashes two child digests into their parent:
/// `h(left ‖ right)` with node domain separation.
pub fn hash_nodes(left: &Digest, right: &Digest) -> Digest {
    Sha256::digest_parts(&[&[NODE_PREFIX], left.as_bytes(), right.as_bytes()])
}

/// Batch form of [`hash_nodes`]: hashes every `(left, right)` pair
/// through the multi-lane [`Sha256::digest_many`], compressing up to 8
/// node messages per pass. Identical output to mapping [`hash_nodes`].
pub fn hash_nodes_many(pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    if pairs.len() < 2 {
        return pairs.iter().map(|(l, r)| hash_nodes(l, r)).collect();
    }
    let messages: Vec<[u8; 65]> = pairs
        .iter()
        .map(|(l, r)| {
            let mut m = [0u8; 65];
            m[0] = NODE_PREFIX;
            m[1..33].copy_from_slice(l.as_bytes());
            m[33..].copy_from_slice(r.as_bytes());
            m
        })
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
    Sha256::digest_many(&refs)
}

/// The digest used to pad the leaf level up to a power of two.
///
/// Computed once and cached: `from_leaves` appends this for every
/// padding slot, and recomputing a SHA-256 digest per padding leaf is
/// measurable on large trees.
pub fn empty_leaf() -> Digest {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<Digest> = OnceLock::new();
    *EMPTY.get_or_init(|| hash_leaf(b"fides.merkle.empty.v1"))
}

/// A binary Merkle hash tree over a vector of leaf digests.
///
/// Internally stores every level (`levels[0]` = padded leaves, last level
/// = root), trading memory for `O(log n)` updates and proofs.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` is the padded leaf level; `levels.last()` has length 1.
    levels: Vec<Vec<Digest>>,
    /// Number of real (un-padded) leaves.
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree over `leaves`. An empty input produces a one-leaf
    /// tree holding the [`empty_leaf`] digest so that every tree has a
    /// root.
    pub fn from_leaves(leaves: Vec<Digest>) -> Self {
        let leaf_count = leaves.len();
        let width = leaf_count.max(1).next_power_of_two();
        let mut level0 = leaves;
        level0.resize(width, empty_leaf());

        let mut levels = vec![level0];
        while levels.last().expect("at least one level").len() > 1 {
            let prev = levels.last().expect("at least one level");
            let pairs: Vec<(Digest, Digest)> = prev.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            levels.push(hash_nodes_many(&pairs));
        }
        MerkleTree { levels, leaf_count }
    }

    /// The number of real leaves.
    pub fn len(&self) -> usize {
        self.leaf_count
    }

    /// Returns `true` if the tree was built over zero leaves.
    pub fn is_empty(&self) -> bool {
        self.leaf_count == 0
    }

    /// Tree height in edges (root of an n-leaf tree is at height
    /// `log₂ n`).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("at least one level")[0]
    }

    /// The digest currently stored at leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn leaf(&self, index: usize) -> Digest {
        assert!(index < self.leaf_count, "leaf index out of range");
        self.levels[0][index]
    }

    /// Replaces leaf `index` and recomputes the path to the root.
    ///
    /// Returns the number of node hashes recomputed (the path length),
    /// which the benchmark harness aggregates into the paper's "MHT
    /// update time" series (Figure 14).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn update_leaf(&mut self, index: usize, digest: Digest) -> usize {
        assert!(index < self.leaf_count, "leaf index out of range");
        self.levels[0][index] = digest;
        let mut idx = index;
        let mut recomputed = 0;
        for lvl in 0..self.levels.len() - 1 {
            let parent_idx = idx / 2;
            let left = self.levels[lvl][parent_idx * 2];
            let right = self.levels[lvl][parent_idx * 2 + 1];
            self.levels[lvl + 1][parent_idx] = hash_nodes(&left, &right);
            recomputed += 1;
            idx = parent_idx;
        }
        recomputed
    }

    /// Replaces a batch of leaves and recomputes each affected internal
    /// node **once**, bottom-up — a true batch update.
    ///
    /// Per-leaf path walks rehash a shared ancestor once per leaf
    /// (`k·log₂ n` node hashes for `k` updates); this recomputes the
    /// union of the dirty paths instead, which for clustered or large
    /// batches approaches the rebuild lower bound while still touching
    /// nothing outside the dirty region. Duplicate indices are allowed;
    /// the last write wins. Returns the number of internal-node hashes
    /// recomputed.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.len()`.
    pub fn update_leaves(&mut self, updates: &[(usize, Digest)]) -> usize {
        if updates.is_empty() {
            return 0;
        }
        for &(index, digest) in updates {
            assert!(index < self.leaf_count, "leaf index out of range");
            self.levels[0][index] = digest;
        }
        // Dirty parent indices, deduplicated level by level.
        let mut dirty: Vec<usize> = updates.iter().map(|&(i, _)| i / 2).collect();
        let mut recomputed = 0;
        for lvl in 0..self.levels.len() - 1 {
            dirty.sort_unstable();
            dirty.dedup();
            // One multi-lane batch per level: all dirty parents hash
            // together instead of one compression chain at a time.
            let pairs: Vec<(Digest, Digest)> = dirty
                .iter()
                .map(|&p| (self.levels[lvl][p * 2], self.levels[lvl][p * 2 + 1]))
                .collect();
            for (&parent, digest) in dirty.iter().zip(hash_nodes_many(&pairs)) {
                self.levels[lvl + 1][parent] = digest;
            }
            recomputed += dirty.len();
            for parent in dirty.iter_mut() {
                *parent /= 2;
            }
        }
        recomputed
    }

    /// [`MerkleTree::update_leaves`], with the subtree rehashing spread
    /// over the process-wide thread pool.
    ///
    /// The dirty leaves are partitioned by the subtree they fall under
    /// at a split level chosen from the pool width; each dirty subtree
    /// is rehashed bottom-up by one pool task over its **disjoint**
    /// slice of every level, and the path from the split level to the
    /// root is merged serially. Small batches (or a one-thread pool)
    /// fall back to the serial batch update — the result is bit-for-bit
    /// identical either way.
    ///
    /// Returns the number of internal-node hashes recomputed.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.len()`.
    pub fn update_leaves_parallel(&mut self, updates: &[(usize, Digest)]) -> usize {
        /// Below this many dirty leaves the fork/join overhead exceeds
        /// the hashing it saves.
        const PARALLEL_MIN_LEAVES: usize = 64;
        let pool = rayon::global();
        let height = self.levels.len() - 1;
        if updates.len() < PARALLEL_MIN_LEAVES || pool.current_num_threads() == 1 || height < 4 {
            return self.update_leaves(updates);
        }
        // Pick the split level so there are ~4 subtrees per worker for
        // steal-balancing; if that leaves no parallel levels, fall back.
        let want_subtrees = (4 * pool.current_num_threads()).next_power_of_two();
        let log_want = want_subtrees.trailing_zeros() as usize;
        let split = height.saturating_sub(log_want).max(2);
        let n_subtrees = self.levels[0].len() >> split;
        if n_subtrees <= 1 {
            return self.update_leaves(updates);
        }

        // Phase 1 (serial, cheap): write the new leaf digests.
        for &(index, digest) in updates {
            assert!(index < self.leaf_count, "leaf index out of range");
            self.levels[0][index] = digest;
        }

        // Partition dirty leaves by subtree.
        let mut dirty_leaves: Vec<Vec<usize>> = vec![Vec::new(); n_subtrees];
        for &(index, _) in updates {
            dirty_leaves[index >> split].push(index);
        }

        // Phase 2 (parallel): rehash levels 1..=split inside each dirty
        // subtree. Every task owns a disjoint mutable slice of each
        // level, carved out up front, so no synchronization is needed.
        struct SubtreeTask<'a> {
            /// Node index at the split level (= subtree id).
            id: usize,
            /// Dirty leaf indices (global) under this subtree.
            leaves: Vec<usize>,
            /// `chunks[k]` = this subtree's slice of level `k + 1`.
            chunks: Vec<&'a mut [Digest]>,
            /// Internal nodes this task recomputed.
            recomputed: usize,
        }
        let (low, _high) = self.levels.split_at_mut(split + 1);
        let (leaf_level, mid) = low.split_first_mut().expect("leaf level exists");
        let leaf_level: &[Digest] = leaf_level;
        let mut level_chunks: Vec<_> = mid
            .iter_mut()
            .enumerate()
            .map(|(k, level)| level.chunks_mut(1usize << (split - (k + 1))))
            .collect();
        let mut tasks: Vec<SubtreeTask<'_>> = Vec::new();
        for (id, leaves) in dirty_leaves.into_iter().enumerate() {
            let chunks: Vec<&mut [Digest]> = level_chunks
                .iter_mut()
                .map(|it| it.next().expect("one chunk per subtree"))
                .collect();
            if !leaves.is_empty() {
                tasks.push(SubtreeTask {
                    id,
                    leaves,
                    chunks,
                    recomputed: 0,
                });
            }
        }
        pool.scope(|s| {
            for task in &mut tasks {
                s.spawn(move || {
                    let base_leaf = task.id << split;
                    let mut dirty: Vec<usize> =
                        task.leaves.iter().map(|i| (i - base_leaf) / 2).collect();
                    for lvl in 1..=split {
                        dirty.sort_unstable();
                        dirty.dedup();
                        let (children, parents) = task.chunks.split_at_mut(lvl - 1);
                        let parents = &mut parents[0];
                        let pairs: Vec<(Digest, Digest)> = dirty
                            .iter()
                            .map(|&p| {
                                if lvl == 1 {
                                    let g = base_leaf + 2 * p;
                                    (leaf_level[g], leaf_level[g + 1])
                                } else {
                                    let c = &children[lvl - 2];
                                    (c[2 * p], c[2 * p + 1])
                                }
                            })
                            .collect();
                        for (&p, digest) in dirty.iter().zip(hash_nodes_many(&pairs)) {
                            parents[p] = digest;
                        }
                        task.recomputed += dirty.len();
                        for p in dirty.iter_mut() {
                            *p /= 2;
                        }
                    }
                });
            }
        });
        let mut recomputed: usize = tasks.iter().map(|t| t.recomputed).sum();
        let mut dirty: Vec<usize> = tasks.iter().map(|t| t.id).collect();
        drop(tasks);

        // Phase 3 (serial): merge the dirty split-level nodes to the
        // root — at most `n_subtrees` nodes wide, `height - split` deep.
        for lvl in split..height {
            for p in dirty.iter_mut() {
                *p /= 2;
            }
            dirty.dedup();
            let pairs: Vec<(Digest, Digest)> = dirty
                .iter()
                .map(|&p| (self.levels[lvl][p * 2], self.levels[lvl][p * 2 + 1]))
                .collect();
            for (&parent, digest) in dirty.iter().zip(hash_nodes_many(&pairs)) {
                self.levels[lvl + 1][parent] = digest;
            }
            recomputed += dirty.len();
        }
        recomputed
    }

    /// The root the tree **would** have if `updates` were applied —
    /// computed against an immutable tree by carrying the dirty nodes
    /// in a scratch overlay. One bottom-up pass, no mutation: compared
    /// to the mutate-then-revert way of speculating (two full batch
    /// updates), this halves the hashing and never touches the live
    /// tree. Duplicate indices: last write wins.
    ///
    /// Returns `(root, nodes_hashed)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.len()`.
    pub fn root_with_updates(&self, updates: &[(usize, Digest)]) -> (Digest, usize) {
        if updates.is_empty() {
            return (self.root(), 0);
        }
        // The overlay: sorted (node index, digest) pairs of one level.
        let mut overlay: Vec<(usize, Digest)> = Vec::with_capacity(updates.len());
        for &(index, digest) in updates {
            assert!(index < self.leaf_count, "leaf index out of range");
            match overlay.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(at) => overlay[at].1 = digest,
                Err(at) => overlay.insert(at, (index, digest)),
            }
        }
        let mut hashed = 0;
        for level in &self.levels[..self.levels.len() - 1] {
            let mut parents: Vec<(usize, Digest)> = Vec::with_capacity(overlay.len());
            let mut i = 0;
            while i < overlay.len() {
                let parent = overlay[i].0 / 2;
                let lookup = |child: usize, from: usize| {
                    overlay[from..]
                        .iter()
                        .take(2)
                        .find(|&&(idx, _)| idx == child)
                        .map(|&(_, d)| d)
                        .unwrap_or(level[child])
                };
                let left = lookup(parent * 2, i);
                let right = lookup(parent * 2 + 1, i);
                parents.push((parent, hash_nodes(&left, &right)));
                hashed += 1;
                // Skip the sibling if it is the next overlay entry.
                i += 1;
                if i < overlay.len() && overlay[i].0 / 2 == parent {
                    i += 1;
                }
            }
            overlay = parents;
        }
        (overlay[0].1, hashed)
    }

    /// Appends a new leaf, growing (and if necessary re-padding) the
    /// tree. Returns the new leaf's index.
    pub fn push_leaf(&mut self, digest: Digest) -> usize {
        let index = self.leaf_count;
        if index < self.levels[0].len() {
            // Fits in existing padding.
            self.leaf_count += 1;
            self.update_leaf(index, digest);
            index
        } else {
            // Doubling the width: rebuild (rare; amortized O(1) pushes).
            let mut leaves: Vec<Digest> = self.levels[0][..self.leaf_count].to_vec();
            leaves.push(digest);
            *self = MerkleTree::from_leaves(leaves);
            index
        }
    }

    /// Generates the verification object for leaf `index`: the sibling
    /// digests along the path to the root (paper §2.3, "all the sibling
    /// nodes along the path from the data value to the root").
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn proof(&self, index: usize) -> VerificationObject {
        assert!(index < self.leaf_count, "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.height());
        let mut idx = index;
        for lvl in 0..self.levels.len() - 1 {
            let sibling_idx = idx ^ 1;
            siblings.push(self.levels[lvl][sibling_idx]);
            idx /= 2;
        }
        VerificationObject {
            index: index as u64,
            siblings,
        }
    }

    /// All current leaf digests (without padding).
    pub fn leaves(&self) -> &[Digest] {
        &self.levels[0][..self.leaf_count]
    }

    /// Like [`MerkleTree::proof`], but also allows proving a **padding
    /// slot** (an index in `len()..width`): the proof then links the
    /// public [`empty_leaf`] digest to the root. Absence proofs use
    /// this to show that the slot right after the last real leaf is
    /// padding — i.e. nothing sorts after that leaf.
    ///
    /// # Panics
    ///
    /// Panics if `index` is at or beyond the padded width.
    pub fn proof_padding(&self, index: usize) -> VerificationObject {
        assert!(index < self.levels[0].len(), "index beyond padded width");
        let mut siblings = Vec::with_capacity(self.height());
        let mut idx = index;
        for lvl in 0..self.levels.len() - 1 {
            siblings.push(self.levels[lvl][idx ^ 1]);
            idx /= 2;
        }
        VerificationObject {
            index: index as u64,
            siblings,
        }
    }

    /// Generates one **batched** proof covering all of `indices` against
    /// this tree's root — the multiproof behind the verified read
    /// plane's `SnapshotRead`.
    ///
    /// Per-leaf verification objects repeat every shared ancestor's
    /// sibling once per leaf (`k·log₂ n` digests for `k` leaves); the
    /// multiproof carries only the **frontier complement** — siblings
    /// not derivable from the proven leaves themselves — so clustered
    /// key sets approach `log₂ n` total digests and verification hashes
    /// each shared ancestor exactly once. Duplicate indices are
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.len()`.
    pub fn multiproof(&self, indices: &[usize]) -> MultiProof {
        for &index in indices {
            assert!(index < self.leaf_count, "leaf index out of range");
        }
        let mut frontier: Vec<usize> = indices.to_vec();
        frontier.sort_unstable();
        frontier.dedup();
        let mut siblings = Vec::new();
        for level in &self.levels[..self.levels.len() - 1] {
            let mut parents = Vec::with_capacity(frontier.len());
            let mut i = 0;
            while i < frontier.len() {
                let idx = frontier[i];
                let sibling = idx ^ 1;
                if idx & 1 == 0 && frontier.get(i + 1) == Some(&sibling) {
                    // The sibling is itself proven: derivable, not sent.
                    i += 2;
                } else {
                    siblings.push(level[sibling]);
                    i += 1;
                }
                parents.push(idx / 2);
            }
            parents.dedup();
            frontier = parents;
        }
        MultiProof {
            height: self.height() as u32,
            siblings,
        }
    }
}

/// A batched Merkle proof for a *set* of leaves against one root, with
/// shared-path deduplication (see [`MerkleTree::multiproof`]).
///
/// Verification recomputes the root bottom-up from the proven
/// `(index, leaf digest)` pairs, pairing adjacent proven leaves
/// internally and consuming one carried sibling everywhere the
/// complement is needed — the same deterministic order generation used,
/// so a proof is valid for exactly one leaf set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiProof {
    /// Tree height in levels (so verification knows when the frontier
    /// must have collapsed to the root).
    height: u32,
    /// The complement siblings, in consumption order.
    siblings: Vec<Digest>,
}

impl MultiProof {
    /// Tree height this proof was generated against.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of carried sibling digests (the proof's wire size driver).
    pub fn sibling_count(&self) -> usize {
        self.siblings.len()
    }

    /// Recomputes the root implied by this proof for the given
    /// `(leaf index, leaf digest)` set. Returns `None` when the proof is
    /// malformed for this set: wrong sibling count, duplicate indices,
    /// or an empty set. Pairs may be given in any order.
    pub fn compute_root(&self, leaves: &[(u64, Digest)]) -> Option<Digest> {
        // `height < 64` keeps the `1 << height` width computation below
        // from overflowing on attacker-supplied proofs.
        if leaves.is_empty() || self.height >= 64 {
            return None;
        }
        let mut frontier: Vec<(u64, Digest)> = leaves.to_vec();
        frontier.sort_unstable_by_key(|&(i, _)| i);
        if frontier.windows(2).any(|w| w[0].0 == w[1].0) {
            return None; // duplicate indices
        }
        if frontier.last()?.0 >= (1u64 << self.height) {
            return None; // index outside the tree
        }
        let mut stream = self.siblings.iter();
        for _ in 0..self.height {
            // Resolve every parent's (left, right) children first, then
            // hash the whole level in one multi-lane batch.
            let mut jobs: Vec<(u64, (Digest, Digest))> = Vec::with_capacity(frontier.len());
            let mut i = 0;
            while i < frontier.len() {
                let (idx, digest) = frontier[i];
                let children = if idx & 1 == 0
                    && frontier
                        .get(i + 1)
                        .is_some_and(|&(next, _)| next == idx + 1)
                {
                    let (_, right) = frontier[i + 1];
                    i += 2;
                    (digest, right)
                } else {
                    let sibling = *stream.next()?;
                    i += 1;
                    if idx & 1 == 0 {
                        (digest, sibling)
                    } else {
                        (sibling, digest)
                    }
                };
                jobs.push((idx / 2, children));
            }
            let pairs: Vec<(Digest, Digest)> = jobs.iter().map(|&(_, p)| p).collect();
            frontier = jobs
                .iter()
                .zip(hash_nodes_many(&pairs))
                .map(|(&(idx, _), digest)| (idx, digest))
                .collect();
        }
        if stream.next().is_some() || frontier.len() != 1 {
            return None; // leftover siblings / unmerged frontier
        }
        Some(frontier[0].1)
    }

    /// Returns `true` if the proof links every `(index, leaf)` pair to
    /// `root`.
    pub fn verify(&self, leaves: &[(u64, Digest)], root: &Digest) -> bool {
        self.compute_root(leaves) == Some(*root)
    }
}

impl Encodable for MultiProof {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u32(self.height);
        enc.put_seq(&self.siblings, |e, d| e.put_digest(d));
    }
}

impl Decodable for MultiProof {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let height = dec.take_u32()?;
        if height >= 64 {
            return Err(DecodeError::InvalidValue(
                "multiproof 64 or more levels deep",
            ));
        }
        let siblings = dec.take_seq(|d| d.take_digest())?;
        Ok(MultiProof { height, siblings })
    }
}

/// A Merkle proof: the sibling path for one leaf (paper §2.3's VO).
///
/// `VO(a)` for a tree of `n` leaves has `log₂ n` siblings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationObject {
    index: u64,
    siblings: Vec<Digest>,
}

impl VerificationObject {
    /// The index of the proven leaf.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The sibling digests, leaf level first.
    pub fn siblings(&self) -> &[Digest] {
        &self.siblings
    }

    /// Recomputes the root implied by this proof for `leaf` — the
    /// auditor-side computation of §4.2.2.
    pub fn compute_root(&self, leaf: Digest) -> Digest {
        let mut acc = leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            acc = if idx & 1 == 0 {
                hash_nodes(&acc, sibling)
            } else {
                hash_nodes(sibling, &acc)
            };
            idx >>= 1;
        }
        acc
    }

    /// Returns `true` if the proof links `leaf` to `root`.
    pub fn verify(&self, leaf: Digest, root: &Digest) -> bool {
        self.compute_root(leaf) == *root
    }
}

impl Encodable for VerificationObject {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.index);
        enc.put_seq(&self.siblings, |e, d| e.put_digest(d));
    }
}

impl Decodable for VerificationObject {
    fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let index = dec.take_u64()?;
        let siblings = dec.take_seq(|d| d.take_digest())?;
        if siblings.len() > 64 {
            return Err(DecodeError::InvalidValue("proof deeper than 64 levels"));
        }
        Ok(VerificationObject { index, siblings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| hash_leaf(&(i as u64).to_be_bytes()))
            .collect()
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::from_leaves(leaves(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.root(), tree.leaf(0));
    }

    #[test]
    fn empty_tree_has_root() {
        let tree = MerkleTree::from_leaves(vec![]);
        assert!(tree.is_empty());
        assert_eq!(tree.root(), empty_leaf());
    }

    #[test]
    fn figure2_structure_four_leaves() {
        // Paper Figure 2: h_root = h(h(h(a)|h(b)) | h(h(c)|h(d))).
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let c = hash_leaf(b"c");
        let d = hash_leaf(b"d");
        let tree = MerkleTree::from_leaves(vec![a, b, c, d]);
        let hab = hash_nodes(&a, &b);
        let hcd = hash_nodes(&c, &d);
        assert_eq!(tree.root(), hash_nodes(&hab, &hcd));
        assert_eq!(tree.height(), 2);
    }

    #[test]
    fn proof_verifies_for_all_leaves() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 100] {
            let ls = leaves(n);
            let tree = MerkleTree::from_leaves(ls.clone());
            let root = tree.root();
            for (i, leaf) in ls.iter().enumerate() {
                let vo = tree.proof(i);
                assert!(vo.verify(*leaf, &root), "n={n} i={i}");
                assert_eq!(vo.siblings().len(), tree.height());
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let tree = MerkleTree::from_leaves(leaves(8));
        let vo = tree.proof(2);
        assert!(!vo.verify(hash_leaf(b"tampered"), &tree.root()));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let tree = MerkleTree::from_leaves(leaves(8));
        let vo = tree.proof(2);
        assert!(!vo.verify(tree.leaf(2), &Digest::ZERO));
    }

    #[test]
    fn proof_fails_for_swapped_index() {
        // A proof for leaf 2 presented as leaf 3 must not verify (the
        // index determines left/right hashing order).
        let tree = MerkleTree::from_leaves(leaves(8));
        let mut vo = tree.proof(2);
        vo.index = 3;
        assert!(!vo.verify(tree.leaf(2), &tree.root()));
    }

    #[test]
    fn update_changes_root_and_path_length() {
        let mut tree = MerkleTree::from_leaves(leaves(1024));
        let old_root = tree.root();
        let recomputed = tree.update_leaf(512, hash_leaf(b"new"));
        assert_eq!(recomputed, 10); // log2(1024)
        assert_ne!(tree.root(), old_root);
    }

    #[test]
    fn update_matches_rebuild() {
        let mut ls = leaves(10);
        let mut tree = MerkleTree::from_leaves(ls.clone());
        ls[7] = hash_leaf(b"replacement");
        tree.update_leaf(7, ls[7]);
        let rebuilt = MerkleTree::from_leaves(ls);
        assert_eq!(tree.root(), rebuilt.root());
    }

    #[test]
    fn batch_update_matches_rebuild() {
        let mut ls = leaves(13);
        let mut tree = MerkleTree::from_leaves(ls.clone());
        let updates = [
            (0usize, hash_leaf(b"u0")),
            (5, hash_leaf(b"u5")),
            (6, hash_leaf(b"u6")),
            (12, hash_leaf(b"u12")),
        ];
        for &(i, d) in &updates {
            ls[i] = d;
        }
        tree.update_leaves(&updates);
        assert_eq!(tree.root(), MerkleTree::from_leaves(ls).root());
    }

    #[test]
    fn batch_update_shares_internal_nodes() {
        // Sibling leaves share their whole path: the batch recomputes
        // log2(n) nodes total, not 2*log2(n).
        let mut tree = MerkleTree::from_leaves(leaves(16));
        let recomputed = tree.update_leaves(&[(4, hash_leaf(b"a")), (5, hash_leaf(b"b"))]);
        assert_eq!(recomputed, 4); // log2(16) shared path
        let mut per_leaf = MerkleTree::from_leaves(leaves(16));
        let n1 = per_leaf.update_leaf(4, hash_leaf(b"a"));
        let n2 = per_leaf.update_leaf(5, hash_leaf(b"b"));
        assert_eq!(n1 + n2, 8);
        assert_eq!(tree.root(), per_leaf.root());
    }

    #[test]
    fn batch_update_duplicate_index_last_write_wins() {
        let mut ls = leaves(8);
        let mut tree = MerkleTree::from_leaves(ls.clone());
        tree.update_leaves(&[(3, hash_leaf(b"first")), (3, hash_leaf(b"second"))]);
        ls[3] = hash_leaf(b"second");
        assert_eq!(tree.root(), MerkleTree::from_leaves(ls).root());
    }

    #[test]
    fn overlay_root_matches_applied_root() {
        for n in [1usize, 2, 5, 13, 64, 1000] {
            let tree = MerkleTree::from_leaves(leaves(n));
            let updates: Vec<(usize, Digest)> = (0..n.min(7))
                .map(|i| (i * 97 % n, hash_leaf(&[i as u8, 0xAA])))
                .collect();
            let (root, hashed) = tree.root_with_updates(&updates);
            let mut applied = MerkleTree::from_leaves(leaves(n));
            applied.update_leaves(&updates);
            assert_eq!(root, applied.root(), "n={n}");
            if !updates.is_empty() && n > 1 {
                assert!(hashed > 0);
            }
            // The live tree was never touched.
            assert_eq!(tree.root(), MerkleTree::from_leaves(leaves(n)).root());
        }
    }

    #[test]
    fn overlay_root_duplicate_index_last_write_wins() {
        let tree = MerkleTree::from_leaves(leaves(16));
        let (root, _) = tree.root_with_updates(&[
            (3, hash_leaf(b"first")),
            (5, hash_leaf(b"x")),
            (3, hash_leaf(b"second")),
        ]);
        let mut applied = MerkleTree::from_leaves(leaves(16));
        applied.update_leaves(&[(5, hash_leaf(b"x")), (3, hash_leaf(b"second"))]);
        assert_eq!(root, applied.root());
    }

    #[test]
    fn overlay_root_adjacent_siblings() {
        // Sibling pairs exercise the skip logic.
        let tree = MerkleTree::from_leaves(leaves(8));
        let updates = [
            (2usize, hash_leaf(b"a")),
            (3, hash_leaf(b"b")),
            (6, hash_leaf(b"c")),
            (7, hash_leaf(b"d")),
        ];
        let (root, hashed) = tree.root_with_updates(&updates);
        let mut applied = MerkleTree::from_leaves(leaves(8));
        let applied_count = applied.update_leaves(&updates);
        assert_eq!(root, applied.root());
        assert_eq!(hashed, applied_count, "same dirty-node union");
    }

    #[test]
    fn parallel_update_matches_rebuild() {
        // Large enough to clear the parallel threshold, odd-sized to
        // exercise padding, scattered and clustered indices.
        let n = 5000;
        let mut ls = leaves(n);
        let mut tree = MerkleTree::from_leaves(ls.clone());
        let updates: Vec<(usize, Digest)> = (0..200)
            .map(|i| {
                let idx = (i * 37 + i * i) % n;
                (idx, hash_leaf(format!("p{i}").as_bytes()))
            })
            .collect();
        for &(i, d) in &updates {
            ls[i] = d;
        }
        let recomputed = tree.update_leaves_parallel(&updates);
        assert!(recomputed > 0);
        assert_eq!(tree.root(), MerkleTree::from_leaves(ls).root());
    }

    #[test]
    fn parallel_update_matches_serial_batch() {
        let n = 4096;
        let updates: Vec<(usize, Digest)> = (0..128)
            .map(|i| (i * 31 % n, hash_leaf(&(i as u64).to_le_bytes())))
            .collect();
        let mut serial = MerkleTree::from_leaves(leaves(n));
        let mut parallel = MerkleTree::from_leaves(leaves(n));
        serial.update_leaves(&updates);
        parallel.update_leaves_parallel(&updates);
        assert_eq!(serial.root(), parallel.root());
        // Every internal level must agree, not just the root.
        for (ls, lp) in serial.levels.iter().zip(&parallel.levels) {
            assert_eq!(ls, lp);
        }
    }

    #[test]
    fn parallel_update_duplicate_index_last_write_wins() {
        let n = 2048;
        let mut ls = leaves(n);
        let mut updates: Vec<(usize, Digest)> = (0..100)
            .map(|i| (i * 13 % n, hash_leaf(&[i as u8])))
            .collect();
        updates.push((13, hash_leaf(b"first")));
        updates.push((13, hash_leaf(b"second")));
        for &(i, d) in &updates {
            ls[i] = d;
        }
        let mut tree = MerkleTree::from_leaves(leaves(n));
        tree.update_leaves_parallel(&updates);
        assert_eq!(tree.root(), MerkleTree::from_leaves(ls).root());
    }

    #[test]
    fn parallel_update_small_batch_falls_back() {
        let mut tree = MerkleTree::from_leaves(leaves(64));
        let recomputed = tree.update_leaves_parallel(&[(5, hash_leaf(b"x"))]);
        assert_eq!(recomputed, 6); // log2(64): the serial path ran
    }

    #[test]
    fn hash_leaf_many_matches_hash_leaf() {
        // With the 1-byte leaf prefix, data lengths 54/55 straddle the
        // one-block padding cliff (55/56-byte messages) and 62/63/64
        // the block boundary; a mixed batch also exercises lanes whose
        // block counts differ.
        let lengths = [
            0usize, 1, 53, 54, 55, 56, 62, 63, 64, 65, 118, 119, 120, 200,
        ];
        let data: Vec<Vec<u8>> = lengths
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expected: Vec<Digest> = refs.iter().map(|d| hash_leaf(d)).collect();
        assert_eq!(hash_leaf_many(&refs), expected);
        for &d in &refs {
            assert_eq!(hash_leaf_many(&[d]), vec![hash_leaf(d)]);
        }
        assert!(hash_leaf_many(&[]).is_empty());
    }

    #[test]
    fn batch_update_empty_is_noop() {
        let mut tree = MerkleTree::from_leaves(leaves(8));
        let root = tree.root();
        assert_eq!(tree.update_leaves(&[]), 0);
        assert_eq!(tree.root(), root);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn batch_update_out_of_range_panics() {
        let mut tree = MerkleTree::from_leaves(leaves(4));
        tree.update_leaves(&[(4, Digest::ZERO)]);
    }

    #[test]
    fn update_then_prove() {
        let mut tree = MerkleTree::from_leaves(leaves(16));
        tree.update_leaf(9, hash_leaf(b"v2"));
        let vo = tree.proof(9);
        assert!(vo.verify(hash_leaf(b"v2"), &tree.root()));
    }

    #[test]
    fn push_within_padding() {
        let mut tree = MerkleTree::from_leaves(leaves(5)); // width 8
        let idx = tree.push_leaf(hash_leaf(b"sixth"));
        assert_eq!(idx, 5);
        assert_eq!(tree.len(), 6);
        assert!(tree.proof(5).verify(hash_leaf(b"sixth"), &tree.root()));
    }

    #[test]
    fn push_forces_growth() {
        let mut tree = MerkleTree::from_leaves(leaves(4)); // width 4, full
        let idx = tree.push_leaf(hash_leaf(b"fifth"));
        assert_eq!(idx, 4);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.height(), 3); // width 8 now
        assert!(tree.proof(4).verify(hash_leaf(b"fifth"), &tree.root()));
        // Old leaves still provable.
        assert!(tree
            .proof(0)
            .verify(hash_leaf(&0u64.to_be_bytes()), &tree.root()));
    }

    #[test]
    fn domain_separation_leaf_vs_node() {
        // A leaf containing exactly (prefix || left || right) bytes must
        // not hash to the same digest as the internal node.
        let l = hash_leaf(b"l");
        let r = hash_leaf(b"r");
        let node = hash_nodes(&l, &r);
        let mut fake_leaf_data = Vec::new();
        fake_leaf_data.extend_from_slice(l.as_bytes());
        fake_leaf_data.extend_from_slice(r.as_bytes());
        assert_ne!(hash_leaf(&fake_leaf_data), node);
    }

    #[test]
    fn different_leaf_order_different_root() {
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let t1 = MerkleTree::from_leaves(vec![a, b]);
        let t2 = MerkleTree::from_leaves(vec![b, a]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn vo_size_is_log2n() {
        // Paper §2.3: VO(a) is of size log2(n).
        let tree = MerkleTree::from_leaves(leaves(1 << 14)); // 16384 = padded 10k shard
        assert_eq!(tree.proof(0).siblings().len(), 14);
    }

    #[test]
    fn vo_encoding_roundtrip() {
        let tree = MerkleTree::from_leaves(leaves(32));
        let vo = tree.proof(17);
        let decoded = VerificationObject::decode(&vo.encode()).unwrap();
        assert_eq!(decoded, vo);
        assert!(decoded.verify(tree.leaf(17), &tree.root()));
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn out_of_range_proof_panics() {
        let tree = MerkleTree::from_leaves(leaves(4));
        let _ = tree.proof(4);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn out_of_range_update_panics() {
        let mut tree = MerkleTree::from_leaves(leaves(4));
        tree.update_leaf(4, Digest::ZERO);
    }

    #[test]
    fn multiproof_verifies_for_many_shapes() {
        for n in [1usize, 2, 3, 5, 8, 13, 64, 100] {
            let ls = leaves(n);
            let tree = MerkleTree::from_leaves(ls.clone());
            let root = tree.root();
            for mut set in [
                vec![0usize],
                vec![n - 1],
                vec![0, n - 1],
                (0..n).step_by(3).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>(),
            ] {
                set.dedup();
                let proof = tree.multiproof(&set);
                let pairs: Vec<(u64, Digest)> = set.iter().map(|&i| (i as u64, ls[i])).collect();
                assert!(proof.verify(&pairs, &root), "n={n} set={set:?}");
            }
        }
    }

    #[test]
    fn multiproof_shares_paths() {
        // Adjacent leaves 4,5 share everything: one multiproof carries
        // log2(16)-1 siblings vs 2*log2(16) for two VOs.
        let tree = MerkleTree::from_leaves(leaves(16));
        let proof = tree.multiproof(&[4, 5]);
        assert_eq!(proof.sibling_count(), 3);
        assert_eq!(
            tree.proof(4).siblings().len() + tree.proof(5).siblings().len(),
            8
        );
    }

    #[test]
    fn multiproof_rejects_wrong_leaf() {
        let ls = leaves(16);
        let tree = MerkleTree::from_leaves(ls.clone());
        let proof = tree.multiproof(&[2, 9]);
        let mut pairs = vec![(2u64, ls[2]), (9u64, ls[9])];
        assert!(proof.verify(&pairs, &tree.root()));
        pairs[1].1 = hash_leaf(b"forged");
        assert!(!proof.verify(&pairs, &tree.root()));
    }

    #[test]
    fn multiproof_rejects_wrong_index_set() {
        let ls = leaves(16);
        let tree = MerkleTree::from_leaves(ls.clone());
        let proof = tree.multiproof(&[2, 9]);
        // A subset, a superset and a swapped index all fail.
        assert!(!proof.verify(&[(2, ls[2])], &tree.root()));
        assert!(!proof.verify(&[(2, ls[2]), (9, ls[9]), (10, ls[10])], &tree.root()));
        assert!(!proof.verify(&[(3, ls[2]), (9, ls[9])], &tree.root()));
    }

    #[test]
    fn multiproof_rejects_duplicates_and_empty() {
        let ls = leaves(8);
        let tree = MerkleTree::from_leaves(ls.clone());
        let proof = tree.multiproof(&[1]);
        assert!(proof.compute_root(&[]).is_none());
        assert!(proof.compute_root(&[(1, ls[1]), (1, ls[1])]).is_none());
        assert!(proof.compute_root(&[(99, ls[1])]).is_none());
    }

    #[test]
    fn multiproof_unsorted_input_and_duplicates_in_generation() {
        let ls = leaves(32);
        let tree = MerkleTree::from_leaves(ls.clone());
        let proof = tree.multiproof(&[20, 3, 20, 7]);
        let pairs = vec![(7u64, ls[7]), (3, ls[3]), (20, ls[20])];
        assert!(proof.verify(&pairs, &tree.root()));
    }

    #[test]
    fn multiproof_single_leaf_tree() {
        let ls = leaves(1);
        let tree = MerkleTree::from_leaves(ls.clone());
        let proof = tree.multiproof(&[0]);
        assert_eq!(proof.sibling_count(), 0);
        assert!(proof.verify(&[(0, ls[0])], &tree.root()));
    }

    #[test]
    fn multiproof_encoding_roundtrip() {
        let tree = MerkleTree::from_leaves(leaves(40));
        let proof = tree.multiproof(&[0, 17, 39]);
        let decoded = MultiProof::decode(&proof.encode()).unwrap();
        assert_eq!(decoded, proof);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn multiproof_out_of_range_panics() {
        let tree = MerkleTree::from_leaves(leaves(4));
        let _ = tree.multiproof(&[4]);
    }

    #[test]
    fn leaves_accessor_excludes_padding() {
        let ls = leaves(5);
        let tree = MerkleTree::from_leaves(ls.clone());
        assert_eq!(tree.leaves(), &ls[..]);
    }
}
