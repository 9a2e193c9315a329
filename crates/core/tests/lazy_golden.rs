//! A known-answer test for Lazy subscriptions (paper §7.2, Algorithm 5):
//! the SHA-256 of every encoded update and deregister flush of a fixed
//! 40-block run, with and without grid cells, under Construction 2 and the
//! `Both` scheme. A compression covers `d` buffered blocks with one skip
//! entry and its proof; the run is long enough that compressions fire at
//! distances 2, 4 and 8. The digest pins those proofs byte for byte, however
//! the engine comes by them.
//!
//! One `#[test]` in its own file on purpose: element ids come from a
//! process-wide interner, so the bytes depend on what else interned
//! elements first in the same process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc2;
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{Query, RangeSpec};
use vchain_core::subscribe::{
    verify_subscription_update, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate,
};
use vchain_core::vo::BlockCoverage;
use vchain_core::wire::encode_update;
use vchain_hash::hash_bytes;

const DOMAIN_BITS: u8 = 6;
const BLOCKS: u64 = 40;

/// Recorded against the engine that summed member proofs (`ProofSum`)
/// instead of proving each skip entry from its own multiset.
const GOLDEN: &str = "2091c67edc47e59f3331e70d7d71b1fcacc34a5bfeab1a5fbf82d74e38307b3b";

fn queries() -> Vec<Query> {
    let kw = |groups: &[&[&str]]| -> Vec<Vec<String>> {
        groups.iter().map(|g| g.iter().map(|k| k.to_string()).collect()).collect()
    };
    vec![
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 20 }],
            keywords: kw(&[&["Sedan"], &["Benz", "BMW"]]),
        },
        Query { time_window: None, ranges: vec![], keywords: kw(&[&["Van"], &["Audi"]]) },
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 40, hi: 47 }],
            keywords: kw(&[&["Truck"]]),
        },
        Query { time_window: None, ranges: vec![], keywords: kw(&[&["NeverPresent"]]) },
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 60, hi: 61 }],
            keywords: vec![],
        },
    ]
}

fn blocks() -> Vec<(u64, Vec<Object>)> {
    let mut rng = StdRng::seed_from_u64(2024);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi"];
    let mut id = 0;
    (0..BLOCKS)
        .map(|b| {
            let objs = (0..3)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b + 1) * 10,
                        vec![rng.gen_range(0..58)],
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

/// Run one engine over the stream; append every encoded update, then every
/// deregister flush, to `out` (each length-prefixed), verifying each one.
/// Returns the skip entries published, by distance (2, 4, 8).
fn run(use_iptree: bool, out: &mut Vec<u8>) -> [usize; 3] {
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    };
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(100));
    let mut miner = Miner::new(cfg, acc.clone());
    let mut light = LightClient::new(cfg.difficulty);
    let mut engine = SubscriptionEngine::new(cfg, acc.clone(), SubscriptionMode::Lazy, use_iptree);
    let compiled: Vec<_> = queries().iter().map(|q| q.compile(DOMAIN_BITS)).collect();
    let ids: Vec<u32> = queries().iter().map(|q| engine.register(q)).collect();
    let mut skips = [0usize; 3];
    let mut emit = |light: &LightClient, u: &SubscriptionUpdate<Acc2>| {
        let q = &compiled[u.query_id as usize];
        verify_subscription_update(q, u, light, &cfg, &acc).expect("an honest update verifies");
        for cov in &u.coverage {
            if let BlockCoverage::Skip { distance, .. } = cov {
                skips[distance.trailing_zeros() as usize - 1] += 1;
            }
        }
        let bytes = encode_update(u);
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    };
    for (ts, objs) in blocks() {
        let h = miner.mine_block(ts, objs);
        light.sync_header(miner.headers()[h as usize].clone()).unwrap();
        let block = miner.store().block(h).unwrap().clone();
        for u in engine.process_block(&block, &miner.indexed()[h as usize]) {
            emit(&light, &u);
        }
    }
    for id in ids {
        if let Some(u) = engine.deregister(id) {
            emit(&light, &u);
        }
    }
    skips
}

#[test]
fn lazy_updates_are_byte_identical_to_the_recorded_run() {
    let mut bytes = Vec::new();
    let plain = run(false, &mut bytes);
    let cells = run(true, &mut bytes);
    println!("skips by distance (2, 4, 8): plain {plain:?}, cells {cells:?}");
    for (d, n) in [2, 4, 8].iter().zip(plain.iter().zip(&cells)) {
        assert!(n.0 + n.1 > 0, "no skip entry of distance {d} was published");
    }
    assert_eq!(hash_bytes(&bytes).to_hex(), GOLDEN);
}
