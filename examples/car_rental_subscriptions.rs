//! Domain example 2 (paper Example 3.2): a blockchain-based car rental
//! marketplace with *subscription* queries. Users register standing
//! interests like ⟨price ∈ [200, 250], "Sedan" ∧ ("Benz" ∨ "BMW")⟩ and the
//! SP pushes verifiable updates on every confirmed block — here in lazy
//! mode (§7.2), so runs of mismatching blocks are covered by skip-list
//! entries, one proof each, until a match appears.
//!
//! ```sh
//! cargo run --release --example car_rental_subscriptions
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain::acc::Acc2;
use vchain::chain::{Difficulty, LightClient, Object};
use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
use vchain::core::query::{Query, RangeSpec};
use vchain::core::subscribe::{verify_subscription_update, SubscriptionEngine, SubscriptionMode};

fn main() {
    let cfg = MinerConfig {
        scheme: IndexScheme::Both, // lazy mode needs the inter-block index
        skip_levels: 3,
        domain_bits: 8,
        difficulty: Difficulty(4),
        bloom_bits_per_key: 10,
    };
    println!("generating accumulator public key (q-DHE construction)…");
    let acc = Acc2::keygen(2048, &mut StdRng::seed_from_u64(11));

    let mut miner = Miner::new(cfg, acc.clone());
    let mut light = LightClient::new(cfg.difficulty);
    let mut engine = SubscriptionEngine::new(cfg, acc.clone(), SubscriptionMode::Lazy, true);

    // Example 3.2's subscription.
    let query = Query {
        time_window: None,
        ranges: vec![RangeSpec { dim: 0, lo: 200, hi: 250 }],
        keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
    };
    let qid = engine.register(&query);
    let cq = query.compile(cfg.domain_bits);
    println!("registered subscription {qid}: price ∈ [200,250] ∧ Sedan ∧ (Benz ∨ BMW)");

    // Stream rental listings; matches are rare so lazy mode defers proofs.
    let mut rng = StdRng::seed_from_u64(3);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi", "Toyota"];
    let mut next_id = 0u64;
    let mut total_updates = 0usize;
    for b in 0..12u64 {
        let ts = (b + 1) * 30;
        let listings: Vec<Object> = (0..4)
            .map(|_| {
                next_id += 1;
                // bias away from matches so deferral is visible
                let kind =
                    kinds[if rng.gen_bool(0.15) { 0 } else { rng.gen_range(1..kinds.len()) }];
                let brand = brands[rng.gen_range(0..brands.len())];
                Object::new(
                    next_id,
                    ts,
                    vec![rng.gen_range(40..=255)],
                    vec![kind.to_string(), brand.to_string()],
                )
            })
            .collect();
        let h = miner.mine_block(ts, listings);
        light.sync_header(miner.headers()[h as usize].clone()).unwrap();
        let block = miner.store().block(h).unwrap().clone();
        let indexed = miner.indexed()[h as usize].clone();
        let updates = engine.process_block(&block, &indexed);
        for u in &updates {
            total_updates += 1;
            let verified =
                verify_subscription_update(&cq, u, &light, &cfg, &acc).expect("update verifies");
            println!(
                "block {h}: update covering blocks {}..{} with {} verified match(es)",
                u.from_height,
                u.to_height,
                verified.len()
            );
            for o in verified {
                println!("  → listing {} price {} {:?}", o.id, o.numeric[0], o.keywords);
            }
        }
        if updates.is_empty() {
            println!("block {h}: no update (mismatch buffered lazily)");
        }
    }

    // Deregister: any buffered mismatch coverage is flushed and verified.
    if let Some(u) = engine.deregister(qid) {
        let verified =
            verify_subscription_update(&cq, &u, &light, &cfg, &acc).expect("flush verifies");
        println!(
            "deregistered: final flush covers blocks {}..{} ({} results, {} coverage entries)",
            u.from_height,
            u.to_height,
            verified.len(),
            u.coverage.len()
        );
    }
    println!("total published updates: {total_updates}");
}
