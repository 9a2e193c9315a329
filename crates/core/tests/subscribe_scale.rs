//! Scale smoke test: 10⁵ standing queries over 50 blocks.
//!
//! Gated behind `VCHAIN_SCALE_TEST=1` (it registers 100 000 subscriptions
//! and publishes 5 million updates, which is too heavy for the default
//! tier-1 loop; CI runs it in the bench job). Asserts the two properties
//! the inverted match path is sold on:
//!
//! 1. **Pre-filtering works** — the per-block candidate count (queries
//!    that take the exact walk) stays far below Q; everything else is
//!    refuted through the attribute index and settled with shared,
//!    deduplicated disjointness proofs.
//! 2. **Publishing stays correct** — for a deterministic sample of the
//!    population, the published results equal a naive `object_matches`
//!    ground truth on every block, and the updates verify end-to-end
//!    against a light client.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::Acc2;
use vchain_chain::{Difficulty, LightClient};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::subscribe::{verify_subscription_update, SubscriptionEngine, SubscriptionMode};
use vchain_datagen::{Dataset, SkewProfile, SubscriptionSpec, WorkloadSpec};

const NUM_QUERIES: usize = 100_000;
const NUM_BLOCKS: usize = 50;
const SAMPLE_STRIDE: usize = 997;

#[test]
fn scale_100k_subscriptions_50_blocks() {
    if std::env::var("VCHAIN_SCALE_TEST").as_deref() != Ok("1") {
        eprintln!("skipping scale smoke test; set VCHAIN_SCALE_TEST=1 to run it");
        return;
    }

    let mut spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, NUM_BLOCKS);
    spec.objects_per_block = 4;
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: spec.domain_bits,
        difficulty: Difficulty(0),
        bloom_bits_per_key: 10,
    };
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(0x5CA1E));

    let w = spec.generate();
    let mut miner = Miner::new(cfg, acc.clone());
    let mut light = LightClient::new(cfg.difficulty);
    for (ts, objs) in &w.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }

    // 100k standing queries: every one carries selective grid-aligned
    // ranges plus a pooled keyword clause, so blocks refute the vast
    // majority through the index.
    let mut sub = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
    sub.domain_bits = spec.domain_bits;
    sub.range_fraction = 1.0;
    let queries = sub.generate(NUM_QUERIES);

    let mut engine = SubscriptionEngine::new(cfg, acc.clone(), SubscriptionMode::Realtime, false);
    let t0 = std::time::Instant::now();
    let ids: Vec<u32> = queries.iter().map(|q| engine.register(q)).collect();
    eprintln!("registered {NUM_QUERIES} subscriptions in {:?}", t0.elapsed());

    let sample: Vec<u32> = ids.iter().copied().step_by(SAMPLE_STRIDE).collect();
    let compiled: Vec<_> =
        sample.iter().map(|&id| (id, engine.compiled(id).expect("registered").clone())).collect();

    let mut max_candidates = 0usize;
    let t1 = std::time::Instant::now();
    for h in 0..NUM_BLOCKS {
        let block = miner.store().blocks()[h].clone();
        let indexed = &miner.indexed()[h];

        let m = engine.match_block(&block, indexed);
        max_candidates = max_candidates.max(m.candidates);
        assert!(
            m.candidates < NUM_QUERIES / 10,
            "pre-filtering collapsed at height {h}: {} candidates of {NUM_QUERIES}",
            m.candidates
        );
        let updates = engine.publish(m, indexed);

        // Sampled ground truth: published results must equal a naive
        // object_matches sweep, and the updates must verify.
        for (id, cq) in &compiled {
            let expected: Vec<u64> =
                block.objects.iter().filter(|o| cq.object_matches(o)).map(|o| o.id).collect();
            let update = updates
                .iter()
                .find(|u| u.query_id == *id)
                .unwrap_or_else(|| panic!("no update for sampled query {id} at height {h}"));
            let got: Vec<u64> =
                update.results.iter().flat_map(|(_, objs)| objs.iter().map(|o| o.id)).collect();
            assert_eq!(got, expected, "results diverged for query {id} at height {h}");
            verify_subscription_update(cq, update, &light, &cfg, &acc)
                .expect("sampled update verifies");
        }
    }
    eprintln!(
        "processed {NUM_BLOCKS} blocks in {:?}; worst-case candidates {} / {NUM_QUERIES}",
        t1.elapsed(),
        max_candidates
    );
    assert!(max_candidates > 0, "workload never exercised the exact walk");
}
