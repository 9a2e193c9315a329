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
}

impl<A: Accumulator> SkipList<A> {
    /// Build block `h`'s skip list from the mined history
    /// (`history[j]` = summary of block `j`, `history.len() == h`).
    ///
    /// With an aggregating accumulator the entry digest is
    /// `Sum(att_{h−k}, …, att_{h−1})` — the paper's explanation of why acc2
    /// is an order of magnitude cheaper here (Table 1). Otherwise the digest
    /// is set up from scratch on the summed multiset.
    pub fn build(history: &[BlockSummary<A>], levels: u8, acc: &A) -> Self {
        let h = history.len() as u64;
        let mut entries = Vec::new();
        for j in 1..=levels {
            let distance = 1u64 << j;
            if distance > h {
                break;
            }
            let range = &history[(h - distance) as usize..];
            let hashes: Vec<Digest> = range.iter().map(|s| s.hash).collect();
            let mut ms = MultiSet::new();
            for s in range {
                ms = ms.sum(&s.ms);
            }
            let att = if acc.supports_aggregation() {
                let atts: Vec<A::Value> = range.iter().map(|s| s.att.clone()).collect();
                acc.sum(&atts).expect("aggregating accumulator")
            } else {
                acc.setup(&ms)
            };
            entries.push(SkipEntry {
                distance,
                pre_skipped_hash: pre_skipped_hash(&hashes),
                ms,
                att,
            });
        }
        Self { entries }
    }

    /// `SkipListRoot = hash(hash_L2 | hash_L4 | …)`; `Digest::ZERO` when the
    /// list is empty (matching a header without the inter-block index).
    pub fn root(&self) -> Digest {
        if self.entries.is_empty() {
            return Digest::ZERO;
        }
        let level_hashes: Vec<Digest> = self.entries.iter().map(SkipEntry::level_hash).collect();
        skiplist_root_from_hashes(&level_hashes)
    }

    /// Entry at an exact distance, if present.
    pub fn entry_at(&self, distance: u64) -> Option<&SkipEntry<A>> {
        self.entries.iter().find(|e| e.distance == distance)
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

    fn summary(a: &Acc2, seed: u64, elems: &[u64]) -> BlockSummary<Acc2> {
        let ms: vchain_acc::MultiSet<u64> = elems.iter().copied().collect();
        // tests use u64 elements directly (AccElem impl), bypassing ElementId
        let att = a.setup(&ms);
        let ms_ids: MultiSet<crate::element::ElementId> =
            ms.elements().map(|e| crate::element::ElementId::keyword(&format!("sk:{e}"))).collect();
        let att_ids = a.setup(&ms_ids);
        let _ = att;
        BlockSummary { hash: hash_bytes(&seed.to_le_bytes()), ms: ms_ids, att: att_ids }
    }

    #[test]
    fn entries_appear_with_height() {
        let a = acc();
        let mut history = Vec::new();
        for h in 0..9u64 {
            let list = SkipList::build(&history, 3, &a);
            let expected_levels = [2u64, 4, 8].iter().filter(|&&d| d <= h).count();
            assert_eq!(list.entries.len(), expected_levels, "height {h}");
            history.push(summary(&a, h, &[h % 5 + 1, 6]));
        }
    }

    #[test]
    fn entry_is_sum_of_covered_blocks() {
        let a = acc();
        let history: Vec<_> = (0..4u64).map(|h| summary(&a, h, &[h + 1])).collect();
        let list = SkipList::build(&history, 2, &a);
        let e2 = list.entry_at(2).unwrap();
        // distance 2 covers blocks 2 and 3
        let expect = history[2].ms.sum(&history[3].ms);
        assert_eq!(e2.ms, expect);
        // aggregated digest equals direct setup of the summed multiset
        assert_eq!(e2.att, a.setup(&expect));
        // distance-4 entry covers everything
        let e4 = list.entry_at(4).unwrap();
        assert_eq!(e4.ms.total_count(), history.iter().map(|s| s.ms.total_count()).sum::<u64>());
    }

    #[test]
    fn root_commits_all_levels() {
        let a = acc();
        let history: Vec<_> = (0..4u64).map(|h| summary(&a, h, &[h + 1])).collect();
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
