//! The inter-block skip-list index (paper §6.2, Fig. 7).
//!
//! Each block carries entries at exponentially growing distances
//! `2, 4, …, 2^L`. The entry at distance `k` of block `h` summarizes the
//! `k` *preceding* blocks `h−k ..= h−1`: the hash chain binding them
//! (`PreSkippedHash`), the multiset **sum** of their attributes, and its
//! AttDigest. A single disjointness proof against an entry lets the user
//! skip all `k` blocks during verification.
//!
//! (The paper's Algorithm 4 is ambiguous about whether the current block is
//! part of its own skip; we summarize strictly *preceding* blocks and have
//! the SP process the current block before jumping, which is
//! completeness-safe — see DESIGN.md §4.)

use std::sync::Arc;

use vchain_acc::{Accumulator, MultiSet};
use vchain_hash::{hash_concat, Digest};

use crate::element::ElementId;
use crate::vo::Att;

/// One skip level.
#[derive(Clone, Debug)]
pub struct SkipEntry<A: Accumulator> {
    /// Number of preceding blocks covered (`2^j`).
    pub distance: u64,
    /// `hash(block-hash_{h−k} | … | block-hash_{h−1})`.
    pub pre_skipped_hash: Digest,
    /// `Σ W_j` over the covered blocks.
    pub ms: MultiSet<ElementId>,
    /// `acc(Σ W_j)`.
    pub att: A::Value,
}

impl<A: Accumulator> SkipEntry<A> {
    /// `hash_Lk = hash(PreSkippedHash | AttDigest)`.
    pub fn level_hash(&self) -> Digest {
        level_hash_from_parts(&self.pre_skipped_hash, &Att::of::<A>(&self.att))
    }
}

/// `hash_Lk` from its parts (also used by the verifier).
pub fn level_hash_from_parts(pre_skipped: &Digest, att: &Att) -> Digest {
    hash_concat(&[b"vchain/skip", &pre_skipped.0, att.as_bytes()])
}

/// `PreSkippedHash` over an ordered run of block hashes.
pub fn pre_skipped_hash(block_hashes: &[Digest]) -> Digest {
    let parts: Vec<&[u8]> = std::iter::once(&b"vchain/preskip"[..])
        .chain(block_hashes.iter().map(|d| &d.0[..]))
        .collect();
    hash_concat(&parts)
}

/// The whole per-block skip list.
#[derive(Clone, Debug, Default)]
pub struct SkipList<A: Accumulator> {
    /// Entries in increasing distance order (`2, 4, …`). Levels whose
    /// distance exceeds the current height are absent.
    pub entries: Vec<SkipEntry<A>>,
}

/// Summary of an already-mined block the miner keeps for index maintenance.
#[derive(Clone, Debug)]
pub struct BlockSummary<A: Accumulator> {
    /// The block hash.
    pub hash: Digest,
    /// The block-level multiset sum of its objects' attributes.
    pub ms: MultiSet<ElementId>,
    /// `acc(ms)` — reused by Construction 2's `Sum` aggregation.
    pub att: A::Value,
    /// The block's own skip list, shared with its
    /// [`IndexedBlock`](crate::miner::IndexedBlock) rather than copied: later
    /// blocks' lists are summed from its entries ([`SkipList::build`]).
    pub skiplist: Arc<SkipList<A>>,
}

impl<A: Accumulator> SkipList<A> {
    /// Build block `h`'s skip list from the mined history
    /// (`history[j]` = summary of block `j`, `history.len() == h`), whose
    /// own lists were built with at least `levels` levels.
    ///
    /// The list *doubles*: the `2ʲ` blocks an entry covers are two runs of
    /// `2ʲ⁻¹` that are summed already — the nearer is this list's entry one
    /// level down, the farther block `h − 2ʲ⁻¹`'s entry at that level (level
    /// 1: the two preceding blocks' own summaries) — so a level costs one
    /// multiset sum however long its run, not one per covered block.
    ///
    /// With an aggregating accumulator the entry digest is the `Sum` of the
    /// two halves' digests — the paper's explanation of why acc2 is an order
    /// of magnitude cheaper here (Table 1). Otherwise the levels' digests
    /// are set up from scratch on the summed multisets, as one batch.
    pub fn build(history: &[BlockSummary<A>], levels: u8, acc: &A) -> Self {
        let h = history.len();
        let depth = (1..=levels).take_while(|&j| 1usize << j <= h).count();
        // The farther half of level `j`'s run.
        let far = |j: usize| match j {
            1 => (&history[h - 2].ms, &history[h - 2].att),
            _ => {
                let entry = history[h - (1 << (j - 1))].skiplist.entries.get(j - 2);
                let entry = entry.expect("the history's own lists reach this level");
                (&entry.ms, &entry.att)
            }
        };
        let mut multisets: Vec<MultiSet<ElementId>> = Vec::with_capacity(depth);
        for j in 1..=depth {
            let near = if j == 1 { &history[h - 1].ms } else { &multisets[j - 2] };
            multisets.push(far(j).0.sum(near));
        }
        let atts = if acc.supports_aggregation() {
            let mut atts: Vec<A::Value> = Vec::with_capacity(depth);
            for j in 1..=depth {
                let near = if j == 1 { &history[h - 1].att } else { &atts[j - 2] };
                let sum = acc.sum(&[far(j).1.clone(), near.clone()]);
                atts.push(sum.expect("aggregating accumulator"));
            }
            atts
        } else {
            acc.setup_batch(&multisets.iter().collect::<Vec<_>>())
                .into_iter()
                .map(|att| att.expect("the chain's attributes lie within the key's bounds"))
                .collect()
        };
        let entries = multisets
            .into_iter()
            .zip(atts)
            .enumerate()
            .map(|(level, (ms, att))| {
                let distance = 2usize << level;
                let hashes: Vec<Digest> = history[h - distance..].iter().map(|s| s.hash).collect();
                SkipEntry {
                    distance: distance as u64,
                    pre_skipped_hash: pre_skipped_hash(&hashes),
                    ms,
                    att,
                }
            })
            .collect();
        Self { entries }
    }

    /// `SkipListRoot = hash(hash_L2 | hash_L4 | …)`; `Digest::ZERO` when the
    /// list is empty (matching a header without the inter-block index).
    pub fn root(&self) -> Digest {
        if self.entries.is_empty() {
            return Digest::ZERO;
        }
        let level_hashes: Vec<Digest> = self.entries.iter().map(|e| e.level_hash()).collect();
        skiplist_root_from_hashes(&level_hashes)
    }

    /// `(distance, hash_Lk)` of every level but the one at `distance` — what
    /// a VO that uses that entry ships so the verifier can rebuild
    /// `SkipListRoot`.
    pub(crate) fn siblings_of(&self, distance: u64) -> Vec<(u64, Digest)> {
        self.entries
            .iter()
            .filter(|e| e.distance != distance)
            .map(|e| (e.distance, e.level_hash()))
            .collect()
    }

    /// Nominal ADS bytes this list adds to a block (Table 1 "S" metric).
    pub fn ads_size_bytes(&self, acc: &A) -> usize {
        self.entries.len() * (Digest::LEN + acc.value_size())
    }
}

/// Combine per-level hashes (increasing distance order) into the root.
pub fn skiplist_root_from_hashes(level_hashes: &[Digest]) -> Digest {
    let parts: Vec<&[u8]> = std::iter::once(&b"vchain/skiplist"[..])
        .chain(level_hashes.iter().map(|d| &d.0[..]))
        .collect();
    hash_concat(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use vchain_acc::{Acc2, Accumulator};
    use vchain_hash::hash_bytes;

    fn acc() -> Acc2 {
        static A: OnceLock<Acc2> = OnceLock::new();
        A.get_or_init(|| Acc2::keygen(64, &mut StdRng::seed_from_u64(5))).clone()
    }

    /// A history of `blocks.len()` blocks, block `i` over the elements
    /// `blocks[i]`, every block's list built from the blocks before it — as
    /// the miner builds it.
    fn history<B: AsRef<[u64]>>(a: &Acc2, levels: u8, blocks: &[B]) -> Vec<BlockSummary<Acc2>> {
        let mut history = Vec::new();
        for (height, elems) in blocks.iter().enumerate() {
            let ms: MultiSet<ElementId> =
                elems.as_ref().iter().map(|e| ElementId::keyword(&format!("sk:{e}"))).collect();
            let skiplist = Arc::new(SkipList::build(&history, levels, a));
            let hash = hash_bytes(&(height as u64).to_le_bytes());
            history.push(BlockSummary { hash, att: a.setup(&ms), ms, skiplist });
        }
        history
    }

    #[test]
    fn entries_appear_with_height() {
        let a = acc();
        let blocks: Vec<[u64; 2]> = (0..9).map(|h| [h % 5 + 1, 6]).collect();
        let history = history(&a, 3, &blocks);
        for (h, block) in history.iter().enumerate() {
            let distances: Vec<u64> = block.skiplist.entries.iter().map(|e| e.distance).collect();
            let expected: Vec<u64> = [2, 4, 8].into_iter().filter(|&d| d <= h as u64).collect();
            assert_eq!(distances, expected, "height {h}");
        }
    }

    #[test]
    fn entry_is_sum_of_covered_blocks() {
        let a = acc();
        let history = history(&a, 2, &[[1], [2], [3], [4]]);
        let list = SkipList::build(&history, 2, &a);
        let e2 = list.entries.iter().find(|e| e.distance == 2).unwrap();
        // distance 2 covers blocks 2 and 3
        let expect = history[2].ms.sum(&history[3].ms);
        assert_eq!(e2.ms, expect);
        // aggregated digest equals direct setup of the summed multiset
        assert_eq!(e2.att, a.setup(&expect));
        // distance-4 entry covers everything
        let e4 = list.entries.iter().find(|e| e.distance == 4).unwrap();
        assert_eq!(e4.ms.total_count(), history.iter().map(|s| s.ms.total_count()).sum::<u64>());
        assert_eq!(
            e4.pre_skipped_hash,
            pre_skipped_hash(&history.iter().map(|s| s.hash).collect::<Vec<_>>())
        );
    }

    #[test]
    fn root_commits_all_levels() {
        let a = acc();
        let history = history(&a, 2, &[[1], [2], [3], [4]]);
        let list = SkipList::build(&history, 2, &a);
        let root = list.root();
        assert_ne!(root, Digest::ZERO);
        // tampering any level's PreSkippedHash changes the root
        let mut tampered = list.clone();
        tampered.entries[0].pre_skipped_hash = hash_bytes(b"evil");
        assert_ne!(tampered.root(), root);
        // empty list commits to zero (no inter-block index)
        let empty: SkipList<Acc2> = SkipList { entries: Vec::new() };
        assert_eq!(empty.root(), Digest::ZERO);
    }

    #[test]
    fn pre_skipped_hash_binds_order() {
        let h1 = hash_bytes(b"a");
        let h2 = hash_bytes(b"b");
        assert_ne!(pre_skipped_hash(&[h1, h2]), pre_skipped_hash(&[h2, h1]));
    }
}
