//! # vChain — verifiable Boolean range queries over blockchain databases
//!
//! Facade crate of the workspace reproducing *"vChain: Enabling Verifiable
//! Boolean Range Queries over Blockchain Databases"* (Xu, Zhang, Xu —
//! SIGMOD 2019). It re-exports the public API of every layer:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `vchain-core` | the paper's contribution: `trans(·)`, intra/inter indexes, verifiable queries, subscriptions |
//! | [`acc`] | `vchain-acc` | the two multiset accumulator constructions |
//! | [`chain`] | `vchain-chain` | blocks, mining, chain store, light client |
//! | [`pairing`] | `vchain-pairing` | from-scratch BLS12-381 |
//! | [`hash`] | `vchain-hash` | SHA-256 and digests |
//! | [`bigint`] | `vchain-bigint` | fixed-width Montgomery integers |
//! | [`datagen`] | `vchain-datagen` | the paper's three dataset simulators |
//!
//! ## Quickstart
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use vchain::acc::Acc2;
//! use vchain::chain::{Difficulty, LightClient, Object};
//! use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
//! use vchain::core::query::{Query, RangeSpec};
//! use vchain::core::verify::verify_response;
//!
//! // 1. system parameters + accumulator key
//! let cfg = MinerConfig {
//!     scheme: IndexScheme::Both,
//!     skip_levels: 3,
//!     domain_bits: 8,
//!     difficulty: Difficulty(2),
//!     bloom_bits_per_key: 10,
//! };
//! let acc = Acc2::keygen(2048, &mut StdRng::seed_from_u64(1));
//!
//! // 2. mine a couple of blocks with embedded ADS
//! let mut miner = Miner::new(cfg, acc);
//! miner.mine_block(10, vec![Object::new(1, 10, vec![220], vec!["Sedan".into(), "Benz".into()])]);
//! miner.mine_block(20, vec![Object::new(2, 20, vec![90], vec!["Van".into(), "BMW".into()])]);
//!
//! // 3. a light client syncs headers only
//! let mut light = LightClient::new(cfg.difficulty);
//! for h in miner.headers() { light.sync_header(h).unwrap(); }
//!
//! // 4. the (untrusted) SP answers; the user verifies against headers
//! let sp = miner.into_service_provider();
//! let q = Query {
//!     time_window: Some((0, 30)),
//!     ranges: vec![RangeSpec { dim: 0, lo: 200, hi: 250 }],
//!     keywords: vec![vec!["Sedan".into()]],
//! }.compile(cfg.domain_bits);
//! let resp = sp.time_window_query(&q);
//! let results = verify_response(&q, &resp, &light, &cfg, &sp.acc).expect("verified");
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].id, 1);
//! ```
//!
//! ## Serving at scale
//!
//! For a long-lived deployment, wrap the SP in the persistent, sharded
//! serving layer ([`core::sp::ShardedServiceProvider`]): proofs — and
//! nothing else — are written behind the serving path to per-shard
//! append-only logs, and a restarted provider rehydrates them instead of
//! re-proving (witnesses are derived again at open, counters start at
//! zero) — answering the same queries byte-identically, warm:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use vchain::acc::Acc2;
//! use vchain::chain::{Difficulty, Object};
//! use vchain::core::miner::{IndexScheme, Miner, MinerConfig};
//! use vchain::core::query::Query;
//! use vchain::core::wire::encode_response_v2;
//! use vchain::core::{ShardedConfig, ShardedServiceProvider};
//!
//! let cfg = MinerConfig {
//!     scheme: IndexScheme::Both,
//!     skip_levels: 2,
//!     domain_bits: 6,
//!     difficulty: Difficulty(2),
//!     bloom_bits_per_key: 10,
//! };
//! let build_sp = || {
//!     let mut miner = Miner::new(cfg, Acc2::keygen(512, &mut StdRng::seed_from_u64(7)));
//!     miner.mine_block(10, vec![Object::new(1, 10, vec![3], vec!["Sedan".into()])]);
//!     miner.mine_block(20, vec![Object::new(2, 20, vec![9], vec!["Van".into()])]);
//!     miner.into_service_provider()
//! };
//! let q = Query {
//!     time_window: Some((0, 30)),
//!     ranges: vec![],
//!     keywords: vec![vec!["Sedan".into()]],
//! }
//! .compile(cfg.domain_bits);
//!
//! let dir = std::env::temp_dir().join(format!("vchain-facade-doc-{}", std::process::id()));
//! let shard_cfg = ShardedConfig { shards: 2, cache_capacity: 1024, flush_threshold: 1 };
//!
//! // Cold run: proofs are proved once and logged behind the serving path.
//! let (cold, _) = ShardedServiceProvider::open(build_sp(), shard_cfg, &dir).unwrap();
//! let cold_bytes = encode_response_v2(&cold.query(&q));
//! cold.shutdown().unwrap();
//!
//! // "Deploy": a fresh process reopens the same logs and serves warm.
//! let (warm, recovery) = ShardedServiceProvider::open(build_sp(), shard_cfg, &dir).unwrap();
//! assert!(recovery.proofs_loaded > 0);
//! assert_eq!(encode_response_v2(&warm.query(&q)), cold_bytes);
//! assert!(warm.merged_stats().hits > 0); // served from the rehydrated cache
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub use vchain_acc as acc;
pub use vchain_bigint as bigint;
pub use vchain_chain as chain;
pub use vchain_core as core;
pub use vchain_datagen as datagen;
pub use vchain_hash as hash;
pub use vchain_pairing as pairing;
