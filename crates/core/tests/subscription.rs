//! Subscription-query integration tests (paper §7): real-time and lazy
//! publication, per-cell proof sharing, and verification of every update.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc2;
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{Query, RangeSpec};
use vchain_core::subindex::Cell;
use vchain_core::subscribe::{
    verify_subscription_update, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate,
};
use vchain_core::vo::{BlockCoverage, MismatchProof, VoNode};
use vchain_core::ProofCache;

const DOMAIN_BITS: u8 = 6;

fn cfg() -> MinerConfig {
    MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    }
}

fn acc() -> Acc2 {
    Acc2::keygen(4096, &mut StdRng::seed_from_u64(100))
}

fn queries() -> Vec<Query> {
    vec![
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 20 }],
            keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
        },
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 8, hi: 24 }],
            keywords: vec![vec!["Sedan".into()]],
        },
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 40, hi: 47 }],
            keywords: vec![vec!["Van".into()]],
        },
    ]
}

fn blocks(n: u64, seed: u64) -> Vec<(u64, Vec<Object>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi"];
    let mut id = 0;
    (0..n)
        .map(|b| {
            let objs = (0..3)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b + 1) * 10,
                        vec![rng.gen_range(0..64)],
                        vec![
                            kinds[rng.gen_range(0..kinds.len())].to_string(),
                            brands[rng.gen_range(0..brands.len())].to_string(),
                        ],
                    )
                })
                .collect();
            ((b + 1) * 10, objs)
        })
        .collect()
}

struct Harness {
    miner: Miner<Acc2>,
    light: LightClient,
    engine: SubscriptionEngine<Acc2>,
}

impl Harness {
    fn new(mode: SubscriptionMode, use_iptree: bool) -> Self {
        let c = cfg();
        let a = acc();
        Self {
            miner: Miner::new(c, a.clone()),
            light: LightClient::new(c.difficulty),
            engine: SubscriptionEngine::new(c, a, mode, use_iptree),
        }
    }

    /// Mine one block and publish subscription updates for it.
    fn step(&mut self, ts: u64, objs: Vec<Object>) -> Vec<SubscriptionUpdate<Acc2>> {
        let h = self.miner.mine_block(ts, objs);
        let header = self.miner.headers()[h as usize].clone();
        self.light.sync_header(header).unwrap();
        let block = self.miner.store().block(h).unwrap().clone();
        let indexed = self.miner.indexed()[h as usize].clone();
        self.engine.process_block(&block, &indexed)
    }
}

/// Ground truth: which objects of the stream match each query.
fn naive_matches(stream: &[(u64, Vec<Object>)], q: &Query) -> Vec<u64> {
    let cq = q.compile(DOMAIN_BITS);
    let mut ids: Vec<u64> = stream
        .iter()
        .flat_map(|(_, objs)| objs.iter())
        .filter(|o| cq.object_matches(o))
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

fn collect_and_verify(
    h: &Harness,
    updates: &[SubscriptionUpdate<Acc2>],
    per_query: &mut std::collections::BTreeMap<u32, Vec<u64>>,
) {
    for u in updates {
        let q = h.engine.compiled(u.query_id).expect("registered");
        let verified = verify_subscription_update(q, u, &h.light, &h.engine.cfg, &h.engine.acc)
            .expect("honest update must verify");
        per_query.entry(u.query_id).or_default().extend(verified.iter().map(|o| o.id));
    }
}

fn run_mode(mode: SubscriptionMode, use_iptree: bool) {
    let stream = blocks(12, 42);
    let mut h = Harness::new(mode, use_iptree);
    let qs = queries();
    let ids: Vec<u32> = qs.iter().map(|q| h.engine.register(q)).collect();

    let mut got: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for (ts, objs) in stream.clone() {
        let updates = h.step(ts, objs);
        collect_and_verify(&h, &updates, &mut got);
    }
    // flush lazy leftovers
    for qid in &ids {
        if let Some(u) = h.engine.deregister(*qid) {
            let q = qs[*qid as usize].compile(DOMAIN_BITS);
            let verified =
                verify_subscription_update(&q, &u, &h.light, &h.engine.cfg, &h.engine.acc)
                    .expect("flush update must verify");
            got.entry(*qid).or_default().extend(verified.iter().map(|o| o.id));
        }
    }

    for (qid, q) in ids.iter().zip(&qs) {
        let mut mine = got.get(qid).cloned().unwrap_or_default();
        mine.sort_unstable();
        let expected = naive_matches(&stream, q);
        assert_eq!(mine, expected, "query {qid} ({mode:?}, iptree={use_iptree})");
    }
}

#[test]
fn realtime_without_iptree() {
    run_mode(SubscriptionMode::Realtime, false);
}

#[test]
fn realtime_with_iptree() {
    run_mode(SubscriptionMode::Realtime, true);
}

#[test]
fn lazy_without_iptree() {
    run_mode(SubscriptionMode::Lazy, false);
}

#[test]
fn lazy_with_iptree() {
    run_mode(SubscriptionMode::Lazy, true);
}

#[test]
fn lazy_defers_and_aggregates() {
    // A never-matching query: lazy must buffer everything and flush only at
    // deregistration, using skip aggregation for runs of mismatches.
    let mut h = Harness::new(SubscriptionMode::Lazy, false);
    let q = Query {
        time_window: None,
        ranges: vec![],
        keywords: vec![vec!["NeverPresentKeyword".into()]],
    };
    let qid = h.engine.register(&q);
    let stream = blocks(9, 77);
    let mut published = 0;
    for (ts, objs) in stream {
        published += h.step(ts, objs).len();
    }
    assert_eq!(published, 0, "lazy mode must not publish while nothing matches");
    let flush = h.engine.deregister(qid).expect("pending coverage to flush");
    assert_eq!(flush.from_height, 0);
    assert_eq!(flush.to_height, 8);
    // skip aggregation must have compressed at least one run
    let skips = flush.coverage.iter().filter(|c| matches!(c, BlockCoverage::Skip { .. })).count();
    assert!(skips >= 1, "expected aggregated skip coverage, got none");
    let cq = q.compile(DOMAIN_BITS);
    let verified =
        verify_subscription_update(&cq, &flush, &h.light, &h.engine.cfg, &h.engine.acc).unwrap();
    assert!(verified.is_empty());
}

#[test]
fn iptree_shares_proofs_and_stays_correct() {
    // Many queries sharing keyword clauses: the IP-Tree path must produce
    // exactly the same verified result sets as the per-query path.
    let stream = blocks(6, 9);
    let many: Vec<Query> = (0..8)
        .map(|i| Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: (i % 4) * 16, hi: (i % 4) * 16 + 15 }],
            keywords: vec![vec!["Sedan".into()]],
        })
        .collect();

    let run = |use_iptree: bool| {
        let mut h = Harness::new(SubscriptionMode::Realtime, use_iptree);
        for q in &many {
            h.engine.register(q);
        }
        let mut got: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
        for (ts, objs) in stream.clone() {
            let updates = h.step(ts, objs);
            collect_and_verify(&h, &updates, &mut got);
        }
        got
    };

    let with = run(true);
    let without = run(false);
    assert_eq!(with, without, "IP-Tree must not change any query's results");
}

/// `IntraTree::query` is total over its arguments: under §6.3 grouping a
/// cell refutation stays an inline proof beside the grouped clause
/// refutations, and the mixed VO verifies.
#[test]
fn cell_rule_composes_with_batch_grouping() {
    fn count(node: &VoNode<Acc2>, inline_cells: &mut usize, grouped: &mut usize) {
        match node {
            VoNode::Internal { left, right, .. } => {
                count(left, inline_cells, grouped);
                count(right, inline_cells, grouped);
            }
            VoNode::InternalMismatch { proof, .. } | VoNode::LeafMismatch { proof, .. } => {
                match proof {
                    MismatchProof::Inline { .. } => *inline_cells += 1,
                    MismatchProof::Group(_) => *grouped += 1,
                }
            }
            VoNode::LeafMatch { .. } => {}
        }
    }

    let mut h = Harness::new(SubscriptionMode::Realtime, false);
    let q = Query {
        time_window: None,
        ranges: vec![RangeSpec { dim: 0, lo: 16, hi: 31 }],
        keywords: vec![vec!["Sedan".into()]],
    }
    .compile(DOMAIN_BITS);
    let cell = Cell::enclosing(&q, &[0], DOMAIN_BITS, 4);
    assert_eq!(cell.depth, 2, "[16, 31] is the 6-bit prefix 01");
    let (mut inline_cells, mut grouped) = (0, 0);
    for (ts, objs) in blocks(8, 21) {
        h.step(ts, objs);
        let height = h.light.headers().len() as u64 - 1;
        let block = h.miner.store().block(height).unwrap();
        let tree = &h.miner.indexed()[height as usize].tree;
        let (results, vo) = tree.query(
            &block.objects,
            &q,
            Some(&cell),
            &h.engine.acc,
            true,
            &ProofCache::default(),
        );
        count(&vo.root, &mut inline_cells, &mut grouped);
        let update = SubscriptionUpdate {
            query_id: 0,
            from_height: height,
            to_height: height,
            results: if results.is_empty() { vec![] } else { vec![(height, results)] },
            coverage: vec![BlockCoverage::Block { height, vo }],
        };
        verify_subscription_update(&q, &update, &h.light, &h.engine.cfg, &h.engine.acc)
            .expect("a VO mixing inline cell proofs and §6.3 groups verifies");
    }
    assert!(inline_cells > 0 && grouped > 0, "{inline_cells} cell / {grouped} grouped");
}
