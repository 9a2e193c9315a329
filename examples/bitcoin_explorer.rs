//! Domain example 1 (paper Example 3.1): a cryptocurrency transaction
//! search service. Each object is a coin transfer ⟨timestamp, amount,
//! {sender/receiver addresses}⟩; users issue verifiable time-window queries
//! like "all transfers of amount ≥ X touching address A between t₁ and t₂".
//!
//! ```sh
//! cargo run --release --example bitcoin_explorer
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain::acc::Acc1;
use vchain::chain::{Difficulty, LightClient};
use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
use vchain::core::query::{Query, RangeSpec};
use vchain::core::verify::verify_response;
use vchain::core::wire::encode_response_v2;
use vchain::datagen::{Dataset, WorkloadSpec};

fn main() {
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: 8,
        difficulty: Difficulty(4),
        bloom_bits_per_key: 10,
    };
    println!("generating accumulator public key (q-SDH construction)…");
    // Construction 1: compact public key sized by the max multiset degree.
    let acc = Acc1::keygen(2048, &mut StdRng::seed_from_u64(7));

    // ETH-shaped stream: log-normal-ish amounts, sparse Zipf addresses.
    let spec = WorkloadSpec::paper_defaults(Dataset::Ethereum, 16);
    let workload = spec.generate();
    println!(
        "simulated {} transactions in {} blocks (15s interval)",
        workload.total_objects(),
        workload.blocks.len()
    );

    let mut miner = Miner::new(cfg, acc);
    for (ts, objs) in &workload.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).unwrap();
    }

    // "transfer amount in the top half, touching a hot address, last 8 blocks"
    let window = workload.window_of_last(8);
    let hot_addr = "addr:00000".to_string(); // rank-0 address of the Zipf pool
    let query = Query {
        time_window: Some(window),
        ranges: vec![RangeSpec { dim: 0, lo: 128, hi: 255 }],
        keywords: vec![vec![hot_addr.clone()]],
    };
    let q = query.compile(cfg.domain_bits);

    let sp = miner.into_service_provider();
    let t0 = std::time::Instant::now();
    let resp = sp.time_window_query(&q);
    let sp_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let results = verify_response(&q, &resp, &light, &cfg, &sp.acc).expect("verifies");
    let user_time = t1.elapsed();

    println!("query: amount ∈ [128, 255] ∧ {hot_addr} over blocks {}..{}", window.0, window.1);
    println!(
        "  {} verified results | SP {:.3}s | user {:.3}s | response {:.1} KB",
        results.len(),
        sp_time.as_secs_f64(),
        user_time.as_secs_f64(),
        encode_response_v2(&resp).len() as f64 / 1024.0
    );
    for o in results.iter().take(5) {
        println!("  tx {}: amount {} parties {:?}", o.id, o.numeric[0], o.keywords);
    }
}
