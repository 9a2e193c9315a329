//! Workspace-level integration tests: datagen → miner → SP → light client,
//! written against the `vchain` facade crate, with randomized workloads and
//! queries cross-checked against a naive scan.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain::acc::Acc2;
use vchain::chain::{Difficulty, LightClient};
use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
use vchain::core::verify::verify_response;
use vchain::core::wire::encode_response_v2;
use vchain::datagen::{Dataset, WorkloadSpec};

fn acc() -> Acc2 {
    static ACC: OnceLock<Acc2> = OnceLock::new();
    ACC.get_or_init(|| Acc2::keygen(8192, &mut StdRng::seed_from_u64(0xBEEF))).clone()
}

fn run_dataset(ds: Dataset, seed: u64) {
    let mut spec = WorkloadSpec::paper_defaults(ds, 8);
    spec.objects_per_block = 4;
    spec.seed = seed;
    let w = spec.generate();
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 2,
        domain_bits: spec.domain_bits,
        difficulty: Difficulty(1),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc());
    for (ts, objs) in &w.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).unwrap();
    }
    let sp = miner.into_service_provider();

    let mut qg = spec.query_gen(seed * 31 + 1);
    for trial in 0..3 {
        let window = w.window_of_last(4 + (trial % 4));
        let q = qg.time_window(window).compile(spec.domain_bits);
        let resp = sp.time_window_query(&q);
        let verified = verify_response(&q, &resp, &light, &cfg, &sp.acc)
            .unwrap_or_else(|e| panic!("{ds:?} trial {trial}: {e}"));
        // ground truth by naive scan
        let mut expect: Vec<u64> = w
            .blocks
            .iter()
            .flat_map(|(_, objs)| objs.iter())
            .filter(|o| q.object_matches(o))
            .map(|o| o.id)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = verified.iter().map(|o| o.id).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "{ds:?} trial {trial}");
        assert!(!encode_response_v2(&resp).is_empty());
    }
}

#[test]
fn foursquare_pipeline() {
    run_dataset(Dataset::FourSquare, 11);
}

#[test]
fn weather_pipeline() {
    run_dataset(Dataset::Weather, 12);
}

#[test]
fn ethereum_pipeline() {
    run_dataset(Dataset::Ethereum, 13);
}

#[test]
fn schemes_agree_on_results() {
    // nil / intra / both must produce identical verified result sets.
    let mut spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, 6);
    spec.objects_per_block = 4;
    let w = spec.generate();
    let mut per_scheme = Vec::new();
    for scheme in [IndexScheme::Nil, IndexScheme::Intra, IndexScheme::Both] {
        let cfg = MinerConfig {
            scheme,
            skip_levels: 2,
            domain_bits: spec.domain_bits,
            difficulty: Difficulty(1),
            bloom_bits_per_key: 10,
        };
        let mut miner = Miner::new(cfg, acc());
        for (ts, objs) in &w.blocks {
            miner.mine_block(*ts, objs.clone());
        }
        let mut light = LightClient::new(cfg.difficulty);
        for h in miner.headers() {
            light.sync_header(h).unwrap();
        }
        let sp = miner.into_service_provider();
        let mut qg = spec.query_gen(77);
        let q = qg.time_window(w.window_of_last(5)).compile(spec.domain_bits);
        let resp = sp.time_window_query(&q);
        let mut ids: Vec<u64> = verify_response(&q, &resp, &light, &cfg, &sp.acc)
            .unwrap()
            .iter()
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        per_scheme.push(ids);
    }
    assert_eq!(per_scheme[0], per_scheme[1]);
    assert_eq!(per_scheme[1], per_scheme[2]);
}

#[test]
fn headers_are_light() {
    // A light client stores orders of magnitude less than the full chain.
    let spec = WorkloadSpec::paper_defaults(Dataset::Ethereum, 6);
    let w = spec.generate();
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 2,
        domain_bits: spec.domain_bits,
        difficulty: Difficulty(1),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc());
    for (ts, objs) in &w.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).unwrap();
    }
    let header_bytes = light.storage_bits() / 8;
    let ads_bytes: usize = miner.indexed().iter().map(|ib| ib.ads_size_bytes(&miner.acc)).sum();
    assert!(
        header_bytes * 4 < ads_bytes,
        "headers ({header_bytes} B) must be far smaller than the ADS ({ads_bytes} B)"
    );
}
