//! Quickstart: mine a small vChain, run one verifiable time-window query
//! as a light client, and watch tampering get caught.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain::acc::Acc2;
use vchain::chain::{Difficulty, LightClient, Object};
use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
use vchain::core::query::{Query, RangeSpec};
use vchain::core::verify::verify_response;
use vchain::core::wire::encode_response_v2;

fn main() {
    // ---- system parameters (public) -----------------------------------
    let cfg = MinerConfig {
        scheme: IndexScheme::Both, // intra-block + inter-block indexes
        skip_levels: 3,
        domain_bits: 8, // numeric attributes live in [0, 255]
        difficulty: Difficulty(4),
        bloom_bits_per_key: 10,
    };
    println!("generating accumulator public key…");
    let acc = Acc2::keygen(2048, &mut StdRng::seed_from_u64(42));

    // ---- the miner builds blocks with embedded ADS --------------------
    let mut miner = Miner::new(cfg, acc);
    let listings = [
        (10, 220, &["Sedan", "Benz"][..]),
        (10, 240, &["Sedan", "BMW"]),
        (20, 95, &["Van", "Benz"]),
        (20, 210, &["Sedan", "Audi"]),
        (30, 230, &["Sedan", "Benz"]),
        (30, 60, &["Truck", "Toyota"]),
    ];
    let mut by_ts: std::collections::BTreeMap<u64, Vec<Object>> = Default::default();
    for (i, (ts, price, kws)) in listings.iter().enumerate() {
        by_ts.entry(*ts).or_default().push(Object::new(
            i as u64 + 1,
            *ts,
            vec![*price],
            kws.iter().map(|s| s.to_string()).collect(),
        ));
    }
    for (ts, objs) in by_ts {
        let h = miner.mine_block(ts, objs);
        println!("mined block {h} at t={ts}");
    }

    // ---- a light client holds headers only ----------------------------
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).expect("valid header chain");
    }
    println!("light client synced {} headers ({} bits)", light.len(), light.storage_bits());

    // ---- the untrusted SP answers a Boolean range query ---------------
    // Example 3.2 of the paper: price ∈ [200, 250] ∧ Sedan ∧ (Benz ∨ BMW)
    let query = Query {
        time_window: Some((0, 40)),
        ranges: vec![RangeSpec { dim: 0, lo: 200, hi: 250 }],
        keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
    };
    let q = query.compile(cfg.domain_bits);
    let sp = miner.into_service_provider();
    let resp = sp.time_window_query(&q);
    println!(
        "SP returned {} results, {} bytes on the wire",
        resp.result_count(),
        encode_response_v2(&resp).len()
    );

    // ---- the user verifies soundness & completeness -------------------
    let results = verify_response(&q, &resp, &light, &cfg, &sp.acc).expect("honest SP verifies");
    for o in &results {
        println!("verified result: object {} price {} {:?}", o.id, o.numeric[0], o.keywords);
    }
    assert_eq!(results.len(), 3);

    // ---- a tampering SP is caught --------------------------------------
    let mut forged = resp.clone();
    forged.results[0].1[0].numeric[0] = 999 % 256; // falsify a price
    match verify_response(&q, &forged, &light, &cfg, &sp.acc) {
        Err(e) => println!("tampered response rejected: {e}"),
        Ok(_) => unreachable!("forgery must not verify"),
    }
}
