//! Differential layer for the subscription engine: the attribute-indexed
//! match path ([`WalkStrategy::Indexed`]) must be **byte-identical** to the
//! retained naive walk ([`WalkStrategy::Naive`]) — same publish schedule,
//! same update encodings, to the last proof byte — across both accumulator
//! constructions, both publication modes, both cell-sharing settings
//! (`use_iptree`), and both standing-query skew profiles (Zipf and
//! adversarial) — plus the `nil` scheme under cell sharing, where only
//! leaves can be refuted, checked end to end against a light client and a
//! brute-force filter.
//!
//! The Acc1 cell-sharing run is additionally pinned to a golden SHA-256 of
//! its encoded updates, computed before the engine's joint walk was replaced
//! by the per-query cell rule in `IntraTree::query`: those bytes must not
//! move. (Acc1 digests hash canonical element bytes, so the pin does not
//! depend on element interning order; an Acc2 one would.)
//!
//! Everything is seeded: a failure replays from the config tuple alone.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::{Acc1, Acc2, Accumulator};
use vchain_chain::{Block, Difficulty, LightClient};
use vchain_core::miner::{IndexScheme, IndexedBlock, Miner, MinerConfig};
use vchain_core::query::Query;
use vchain_core::subscribe::{
    verify_encoded_subscription_update, SubscriptionEngine, SubscriptionMode, WalkStrategy,
};
use vchain_core::wire::encode_update;
use vchain_datagen::{Dataset, SkewProfile, SubscriptionSpec, WorkloadSpec};
use vchain_hash::Sha256;

const DOMAIN_BITS: u8 = 6;
const NUM_BLOCKS: usize = 104;

fn cfg() -> MinerConfig {
    cfg_with(IndexScheme::Both)
}

fn cfg_with(scheme: IndexScheme) -> MinerConfig {
    MinerConfig {
        scheme,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(0),
        bloom_bits_per_key: 10,
    }
}

fn acc2() -> &'static Acc2 {
    static ACC: OnceLock<Acc2> = OnceLock::new();
    ACC.get_or_init(|| Acc2::keygen(4096, &mut StdRng::seed_from_u64(0xD1FF)))
}

fn acc1() -> &'static Acc1 {
    static ACC: OnceLock<Acc1> = OnceLock::new();
    ACC.get_or_init(|| Acc1::keygen(600, &mut StdRng::seed_from_u64(0xD1FF)))
}

/// The standing-query population: Zipf-skewed pool clauses, adversarial
/// attribute skew (hot clause, ghost keywords, stacked cells), plus edge
/// shapes (an everything-matcher and a wider-than-the-exact-mask CNF).
fn population(zipf_n: usize, adversarial_n: usize) -> Vec<Query> {
    let mut zipf = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
    zipf.domain_bits = DOMAIN_BITS;
    zipf.clause_pool = 12;
    zipf.clause_size = 2;
    zipf.range_bits = 2;
    let mut adv = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Adversarial);
    adv.domain_bits = DOMAIN_BITS;
    adv.clause_pool = 8;
    adv.clause_size = 2;
    adv.range_bits = 2;

    let mut qs = zipf.generate(zipf_n);
    qs.extend(adv.generate(adversarial_n));
    // Matches every block: the classifier must pass it straight through.
    qs.push(Query { time_window: None, ranges: vec![], keywords: vec![] });
    // More clauses than the classifier's 64-bit exact mask: forced onto the
    // candidate walk, where the twin takes the identical path.
    qs.push(Query {
        time_window: None,
        ranges: vec![],
        keywords: (0..70).map(|i| vec![format!("unindexed:{i}")]).collect(),
    });
    qs
}

fn chain<A: Accumulator + Clone>(acc: &A) -> (Vec<Block>, Vec<IndexedBlock<A>>) {
    chain_with(cfg(), NUM_BLOCKS, acc)
}

fn chain_with<A: Accumulator + Clone>(
    cfg: MinerConfig,
    num_blocks: usize,
    acc: &A,
) -> (Vec<Block>, Vec<IndexedBlock<A>>) {
    let mut spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, num_blocks);
    spec.domain_bits = DOMAIN_BITS;
    spec.objects_per_block = 3;
    let w = spec.generate();
    let mut miner = Miner::new(cfg, acc.clone());
    for (ts, objs) in &w.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    let blocks: Vec<Block> = miner.store().blocks().to_vec();
    let indexed = miner.indexed().to_vec();
    (blocks, indexed)
}

/// Drive the indexed engine and the naive twin over the same chain; assert
/// an identical publish schedule and byte-identical update encodings,
/// including the deregistration flushes. Returns the SHA-256 (hex) of the
/// concatenated encodings.
fn assert_twins<A: Accumulator + Clone>(
    acc: &A,
    mode: SubscriptionMode,
    use_iptree: bool,
    queries: &[Query],
    blocks: &[Block],
    indexed: &[IndexedBlock<A>],
) -> String {
    let mut digest = Sha256::new();
    let mut fast = SubscriptionEngine::new(cfg(), acc.clone(), mode, use_iptree);
    let mut twin = SubscriptionEngine::new(cfg(), acc.clone(), mode, use_iptree)
        .with_strategy(WalkStrategy::Naive);
    assert_eq!(fast.strategy(), WalkStrategy::Indexed, "indexed is the default");

    let ids: Vec<u32> = queries.iter().map(|q| fast.register(q)).collect();
    for q in queries {
        twin.register(q);
    }

    for (block, idx) in blocks.iter().zip(indexed) {
        let h = block.header.height;
        let a = fast.process_block(block, idx);
        let b = twin.process_block(block, idx);
        assert_eq!(
            a.len(),
            b.len(),
            "publish schedule diverged at height {h} ({mode:?}, iptree={use_iptree})"
        );
        for (ua, ub) in a.iter().zip(&b) {
            assert_eq!(ua.query_id, ub.query_id, "schedule order diverged at height {h}");
            let bytes = encode_update(ua);
            digest.update(&bytes);
            assert_eq!(
                bytes,
                encode_update(ub),
                "update bytes diverged at height {h} for query {} ({mode:?}, \
                 iptree={use_iptree})",
                ua.query_id
            );
        }
    }

    // Lazy stacks flush on deregistration; those must agree byte-for-byte
    // too (including "nothing pending" agreement).
    for id in ids {
        match (fast.deregister(id), twin.deregister(id)) {
            (None, None) => {}
            (Some(ua), Some(ub)) => {
                let bytes = encode_update(&ua);
                digest.update(&bytes);
                assert_eq!(bytes, encode_update(&ub), "flush diverged for {id}");
            }
            (a, b) => panic!(
                "flush presence diverged for {id}: indexed={:?} naive={:?}",
                a.map(|u| (u.from_height, u.to_height)),
                b.map(|u| (u.from_height, u.to_height))
            ),
        }
    }
    digest.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn acc2_realtime_indexed_equals_naive() {
    let (blocks, indexed) = chain(acc2());
    let qs = population(24, 12);
    for use_iptree in [true, false] {
        assert_twins(acc2(), SubscriptionMode::Realtime, use_iptree, &qs, &blocks, &indexed);
    }
}

#[test]
fn acc2_lazy_indexed_equals_naive() {
    let (blocks, indexed) = chain(acc2());
    let qs = population(24, 12);
    for use_iptree in [true, false] {
        assert_twins(acc2(), SubscriptionMode::Lazy, use_iptree, &qs, &blocks, &indexed);
    }
}

/// SHA-256 over the concatenated encoded updates of the Acc1 / Realtime /
/// `use_iptree = true` run below, recorded at the last commit whose engine
/// still walked all queries jointly.
const ACC1_CELL_SHARING_GOLDEN: &str =
    "03143cbfd6d8ddab423d79b81151f939ed8842f1f0b9d125ab79c0e4f8bd70fd";

#[test]
fn acc1_realtime_indexed_equals_naive() {
    let (blocks, indexed) = chain(acc1());
    let qs = population(10, 6);
    let [shared, unshared] = [true, false].map(|use_iptree| {
        assert_twins(acc1(), SubscriptionMode::Realtime, use_iptree, &qs, &blocks, &indexed)
    });
    assert_eq!(shared, ACC1_CELL_SHARING_GOLDEN, "cell-sharing VO bytes moved");
    assert_ne!(shared, unshared, "the fixture must exercise cell refutations");
}

/// Under the `nil` scheme interior nodes carry no AttDigest, so cell
/// sharing can refute leaves only. (The engine's former joint walk tried to
/// prune the interior and panicked.) Both strategies must agree byte for
/// byte, every update must verify from its wire bytes, and the verified
/// results must be what a scan of the block finds.
fn assert_nil_cell_sharing<A: Accumulator + Clone>(acc: &A) {
    let cfg = cfg_with(IndexScheme::Nil);
    let (blocks, indexed) = chain_with(cfg, 12, acc);
    let qs = population(10, 6);
    let mut light = LightClient::new(cfg.difficulty);
    let new_engine = || SubscriptionEngine::new(cfg, acc.clone(), SubscriptionMode::Realtime, true);
    let mut fast = new_engine();
    let mut twin = new_engine().with_strategy(WalkStrategy::Naive);
    for q in &qs {
        fast.register(q);
        twin.register(q);
    }
    for (block, idx) in blocks.iter().zip(&indexed) {
        light.sync_header(block.header.clone()).expect("honest header");
        let a = fast.process_block(block, idx);
        let b = twin.process_block(block, idx);
        assert_eq!(a.len(), qs.len(), "realtime publishes to every query");
        assert_eq!(a.len(), b.len());
        for (ua, ub) in a.iter().zip(&b) {
            let bytes = encode_update(ua);
            assert_eq!(bytes, encode_update(ub), "nil update bytes diverged");
            let q = fast.compiled(ua.query_id).expect("registered");
            let verified = verify_encoded_subscription_update(q, &bytes, &light, &cfg, acc)
                .expect("honest nil update must verify");
            let mut got: Vec<u64> = verified.iter().map(|o| o.id).collect();
            let mut want: Vec<u64> =
                block.objects.iter().filter(|o| q.object_matches(o)).map(|o| o.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {} at height {}", ua.query_id, block.header.height);
        }
    }
}

#[test]
fn nil_scheme_cell_sharing_is_total_and_exact() {
    assert_nil_cell_sharing(acc1());
    assert_nil_cell_sharing(acc2());
}
