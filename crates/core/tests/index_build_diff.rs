//! Differential layer for the miner's index build: what [`Miner`] plans and
//! sets up in batches — the intra-block tree (plan on multisets, one
//! `setup_batch`, hash in arena order) and the skip list (each level doubled
//! from two summed halves) — against builders that follow the definitions
//! one step at a time: Algorithm 2 picking, pairing, uniting, setting up
//! and hashing node by node, and a skip entry as the `setup` of its covered
//! blocks' multisets summed from scratch.
//!
//! Every node's `ms` / `att` / `hash`, every skip entry's `ms` / `att` /
//! `PreSkippedHash` and every header's two roots must be equal, for both
//! constructions, the three index schemes and `skip_levels` 5 and 7, over a
//! seeded chain whose 70 heights cross every "this level first appears"
//! boundary up to distance 64 and the heights in between.
//!
//! Both sides run in one process and are compared with each other: nothing
//! here pins bytes (Acc2 digests follow `ElementId` interning order).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc1, Acc2, Accumulator, MultiSet};
use vchain_chain::{Difficulty, Object};
use vchain_core::element::ElementId;
use vchain_core::inter::{level_hash_from_parts, pre_skipped_hash, skiplist_root_from_hashes};
use vchain_core::intra::{internal_hash, leaf_hash, IntraNodeKind};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::object_multiset;
use vchain_core::vo::Att;
use vchain_hash::{hash_pair, Digest};

const DOMAIN_BITS: u8 = 4;
const NUM_BLOCKS: u64 = 70;

fn acc2() -> &'static Acc2 {
    static ACC: OnceLock<Acc2> = OnceLock::new();
    ACC.get_or_init(|| Acc2::keygen(512, &mut StdRng::seed_from_u64(0x1D1F)))
}

/// Capacity for the widest thing set up: 64 blocks' multisets summed.
fn acc1() -> &'static Acc1 {
    static ACC: OnceLock<Acc1> = OnceLock::new();
    ACC.get_or_init(|| Acc1::keygen(2400, &mut StdRng::seed_from_u64(0x1D1F)))
}

/// 70 blocks of 1 to 6 objects — single-leaf trees, odd frontiers with a
/// node carried upward, full pairs — over two numeric dimensions and a
/// 12-keyword pool; an object now and then repeats a keyword, so a leaf
/// (and the unions above it) holds a multiplicity of two.
fn chain() -> Vec<(u64, Vec<Object>)> {
    let mut rng = StdRng::seed_from_u64(0x70B1);
    let mut id = 0;
    (0..NUM_BLOCKS)
        .map(|h| {
            let ts = 100 + 10 * h;
            let objects = (0..rng.gen_range(1..=6))
                .map(|_| {
                    id += 1;
                    let numeric = vec![rng.gen_range(0..16), rng.gen_range(0..16)];
                    let mut keywords: Vec<String> = (0..rng.gen_range(1..=3))
                        .map(|_| format!("kw{}", rng.gen_range(0..12)))
                        .collect();
                    if rng.gen_bool(0.15) {
                        keywords.push(keywords[0].clone());
                    }
                    Object::new(id, ts, numeric, keywords)
                })
                .collect();
            (ts, objects)
        })
        .collect()
}

/// A node as the definitions give it.
struct Node<A: Accumulator> {
    ms: MultiSet<ElementId>,
    att: Option<A::Value>,
    hash: Digest,
    kind: IntraNodeKind,
}

fn leaves<A: Accumulator>(objects: &[Object], acc: &A) -> Vec<Node<A>> {
    objects
        .iter()
        .enumerate()
        .map(|(obj_idx, o)| {
            let ms = object_multiset(o, DOMAIN_BITS);
            let att = acc.setup(&ms);
            Node {
                hash: leaf_hash(&o.digest(), &Att::of::<A>(&att)),
                ms,
                att: Some(att),
                kind: IntraNodeKind::Leaf { obj_idx },
            }
        })
        .collect()
}

/// Algorithm 2, a node at a time: take the frontier node with the largest
/// support, pair it with the one most similar to it, and give the parent its
/// union, its digest and its hash on the spot. Returns the arena and the
/// root's index.
fn clustered_by_definition<A: Accumulator>(objects: &[Object], acc: &A) -> (Vec<Node<A>>, usize) {
    let mut arena = leaves(objects, acc);
    let mut frontier: Vec<usize> = (0..arena.len()).collect();
    while frontier.len() > 1 {
        let mut next_level = Vec::new();
        while frontier.len() > 1 {
            let (li, _) = frontier
                .iter()
                .enumerate()
                .max_by_key(|(_, &n)| arena[n].ms.distinct_len())
                .unwrap();
            let left = frontier.swap_remove(li);
            let (ri, _) = frontier
                .iter()
                .enumerate()
                .map(|(i, &n)| (i, arena[left].ms.jaccard(&arena[n].ms)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let right = frontier.swap_remove(ri);
            let ms = arena[left].ms.union(&arena[right].ms);
            let att = acc.setup(&ms);
            let pair = hash_pair(&arena[left].hash, &arena[right].hash);
            arena.push(Node {
                hash: internal_hash(&pair, &Att::of::<A>(&att)),
                ms,
                att: Some(att),
                kind: IntraNodeKind::Internal { left, right },
            });
            next_level.push(arena.len() - 1);
        }
        next_level.append(&mut frontier);
        frontier = next_level;
    }
    (arena, frontier[0])
}

/// The `nil` baseline: pair neighbours in arrival order, plain Merkle
/// interiors without a digest.
fn nil_by_definition<A: Accumulator>(objects: &[Object], acc: &A) -> (Vec<Node<A>>, usize) {
    let mut arena = leaves(objects, acc);
    let mut frontier: Vec<usize> = (0..arena.len()).collect();
    while frontier.len() > 1 {
        let mut next = Vec::new();
        for pair in frontier.chunks(2) {
            let &[left, right] = pair else {
                next.push(pair[0]);
                continue;
            };
            arena.push(Node {
                hash: hash_pair(&arena[left].hash, &arena[right].hash),
                ms: arena[left].ms.union(&arena[right].ms),
                att: None,
                kind: IntraNodeKind::Internal { left, right },
            });
            next.push(arena.len() - 1);
        }
        frontier = next;
    }
    (arena, frontier[0])
}

/// Mine the chain under `scheme` and `skip_levels` and hold every block's
/// indexes, summary and header against the definitions.
fn assert_miner_matches_definitions<A: Accumulator>(acc: &A, scheme: IndexScheme, skip_levels: u8) {
    let cfg = MinerConfig {
        scheme,
        skip_levels,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(0),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc.clone());
    // What the definitions need of the blocks below the current one.
    let mut block_multisets: Vec<MultiSet<ElementId>> = Vec::new();
    let mut block_hashes: Vec<Digest> = Vec::new();
    let mut levels_seen = 0;

    for (ts, objects) in chain() {
        let h = miner.mine_block(ts, objects.clone()) as usize;
        let ctx = format!("{} {scheme:?} L{skip_levels} block {h}", acc.name());
        let (indexed, summary) = (&miner.indexed()[h], &miner.history()[h]);
        let header = &miner.store().block(h as u64).unwrap().header;

        // --- the intra-block tree ------------------------------------------
        let (nodes, root) = match scheme {
            IndexScheme::Nil => nil_by_definition(&objects, acc),
            IndexScheme::Intra | IndexScheme::Both => clustered_by_definition(&objects, acc),
        };
        assert_eq!(indexed.tree.nodes.len(), nodes.len(), "{ctx}");
        assert_eq!(indexed.tree.root, root, "{ctx}");
        for (i, (got, want)) in indexed.tree.nodes.iter().zip(&nodes).enumerate() {
            assert_eq!(got.kind, want.kind, "{ctx} node {i}");
            assert_eq!(got.ms, want.ms, "{ctx} node {i}");
            assert_eq!(got.att, want.att, "{ctx} node {i}");
            assert_eq!(got.hash, want.hash, "{ctx} node {i}");
        }
        assert_eq!(header.ads_root, nodes[root].hash, "{ctx}");

        // --- the skip list ---------------------------------------------------
        let distances: Vec<usize> = match scheme {
            IndexScheme::Both => {
                (1..=skip_levels).map(|j| 1usize << j).take_while(|&d| d <= h).collect()
            }
            _ => Vec::new(),
        };
        assert_eq!(indexed.skiplist.entries.len(), distances.len(), "{ctx}");
        let mut level_hashes = Vec::new();
        for (got, &d) in indexed.skiplist.entries.iter().zip(&distances) {
            let ms = block_multisets[h - d..].iter().fold(MultiSet::new(), |sum, b| sum.sum(b));
            let att = acc.setup(&ms);
            let pre = pre_skipped_hash(&block_hashes[h - d..]);
            assert_eq!(got.distance, d as u64, "{ctx}");
            assert_eq!(got.ms, ms, "{ctx} distance {d}");
            assert_eq!(got.att, att, "{ctx} distance {d}");
            assert_eq!(got.pre_skipped_hash, pre, "{ctx} distance {d}");
            level_hashes.push(level_hash_from_parts(&pre, &Att::of::<A>(&att)));
        }
        let skiplist_root = match level_hashes.is_empty() {
            true => Digest::ZERO,
            false => skiplist_root_from_hashes(&level_hashes),
        };
        assert_eq!(header.skiplist_root, skiplist_root, "{ctx}");
        levels_seen = levels_seen.max(distances.len());

        // --- the block's summary ---------------------------------------------
        assert_eq!(summary.ms, nodes[root].ms, "{ctx}");
        assert_eq!(summary.att, acc.setup(&summary.ms), "{ctx}");
        assert_eq!(summary.hash, header.block_hash(), "{ctx}");
        assert_eq!(summary.skiplist.entries.len(), distances.len(), "{ctx}");
        block_multisets.push(nodes[root].ms.clone());
        block_hashes.push(summary.hash);
    }
    let expected_levels = if scheme == IndexScheme::Both { skip_levels.min(6) as usize } else { 0 };
    assert_eq!(levels_seen, expected_levels, "distance 64 first appears at height 64 of 70");
}

fn assert_all_schemes<A: Accumulator>(acc: &A) {
    assert_miner_matches_definitions(acc, IndexScheme::Nil, 5);
    assert_miner_matches_definitions(acc, IndexScheme::Intra, 5);
    assert_miner_matches_definitions(acc, IndexScheme::Both, 5);
    assert_miner_matches_definitions(acc, IndexScheme::Both, 7);
}

#[test]
fn acc2_miner_matches_definitions() {
    assert_all_schemes(acc2());
}

/// Construction 1 does not aggregate: its skip entries are set up from the
/// summed multisets, the levels of a block as one batch.
#[test]
fn acc1_miner_matches_definitions() {
    assert_all_schemes(acc1());
}
