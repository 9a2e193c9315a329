//! Concurrency suite for the sharded serving front: deterministic routing,
//! no lost or duplicated cache entries under concurrent serving + flushing,
//! and shard-merged statistics that reconcile with a single-shard twin.
//!
//! The key workload trick: each distinct query carries a unique, unmatched
//! keyword clause, so every cache entry `(att, clause)` belongs to exactly
//! one query — and therefore, under deterministic routing, to exactly one
//! shard. Cross-shard duplication or loss becomes directly observable in
//! the per-shard logs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc2;
use vchain_chain::{Difficulty, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query};
use vchain_core::store::LogStore;
use vchain_core::wire::encode_response_v2;
use vchain_core::{ServiceProvider, ShardedConfig, ShardedServiceProvider};
use vchain_hash::Digest;

const DOMAIN_BITS: u8 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vchain-shards-{}-{tag}-{n}", std::process::id()))
}

fn build_sp() -> ServiceProvider<Acc2> {
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    };
    let mut rng = StdRng::seed_from_u64(11);
    let kinds = ["Sedan", "Van", "Truck"];
    let mut miner = Miner::new(cfg, Acc2::keygen(4096, &mut StdRng::seed_from_u64(4)));
    let mut id = 0;
    for b in 0..12u64 {
        let objs = (0..4)
            .map(|_| {
                id += 1;
                Object::new(
                    id,
                    (b + 1) * 10,
                    vec![rng.gen_range(0..64)],
                    vec![kinds[rng.gen_range(0..kinds.len())].to_string()],
                )
            })
            .collect();
        miner.mine_block((b + 1) * 10, objs);
    }
    miner.into_service_provider()
}

/// `n` distinct queries over overlapping windows, each with a clause no
/// object carries — so each query's proofs are keyed uniquely to it.
fn unique_clause_pool(n: usize) -> Vec<CompiledQuery> {
    (0..n)
        .map(|i| {
            let lo = 10 + (i as u64 % 6) * 10;
            Query {
                time_window: Some((lo, (lo + 60).min(120))),
                ranges: vec![],
                keywords: vec![vec![format!("shard-suite-absent-{i}")]],
            }
            .compile(DOMAIN_BITS)
        })
        .collect()
}

/// Distinct `(att, clause)` keys persisted in one shard log.
fn persisted_keys(path: &PathBuf) -> BTreeSet<(Digest, Digest)> {
    let (_, records, report) = LogStore::open(path).unwrap();
    assert_eq!(report.skipped_corrupt, 0);
    assert_eq!(report.truncated_bytes, 0);
    records.into_iter().map(|r| (r.key.att, r.key.clause)).collect()
}

#[test]
fn routing_is_deterministic_and_spreads_queries() {
    let cfg = ShardedConfig { shards: 4, cache_capacity: 1024, flush_threshold: 64 };
    let a = ShardedServiceProvider::new(build_sp(), cfg);
    let b = ShardedServiceProvider::new(build_sp(), cfg);
    let pool = unique_clause_pool(32);

    let mut used = BTreeSet::new();
    for q in &pool {
        let shard = a.route(q);
        assert!(shard < 4);
        // Stable across calls and across instances with the same shape.
        assert_eq!(shard, a.route(q));
        assert_eq!(shard, b.route(q));
        used.insert(shard);
    }
    assert!(used.len() >= 2, "32 distinct queries must not all hash to one shard");

    // Routing depends only on query content: a recompiled equal query
    // routes identically.
    let q =
        Query { time_window: Some((20, 90)), ranges: vec![], keywords: vec![vec!["Sedan".into()]] };
    assert_eq!(a.route(&q.clone().compile(DOMAIN_BITS)), a.route(&q.compile(DOMAIN_BITS)));
}

#[test]
fn concurrent_clients_lose_and_duplicate_nothing() {
    const SHARDS: usize = 4;
    const THREADS: usize = 8;
    let dir = temp_dir("hammer");
    // flush_threshold 1 ⇒ every insert-bearing query triggers a flush:
    // maximal contention between serving threads and the write-behind path.
    let cfg = ShardedConfig { shards: SHARDS, cache_capacity: 4096, flush_threshold: 1 };
    let (ssp, _) = ShardedServiceProvider::open(build_sp(), cfg, &dir).unwrap();

    let pool = unique_clause_pool(16);
    // 64-query stream: every pool query four times, interleaved.
    let stream: Vec<usize> = (0..64).map(|i| i % pool.len()).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&qi) = stream.get(i) else { break };
                let resp = ssp.query(&pool[qi]);
                // Sanity under concurrency: served responses are the
                // deterministic per-query answer, whatever thread ran them.
                assert_eq!(
                    encode_response_v2(&resp),
                    encode_response_v2(&ssp.inner().time_window_query(&pool[qi]))
                );
            });
        }
    });
    assert_eq!(ssp.total_served(), stream.len() as u64);
    assert!(ssp.take_flush_error().is_none(), "no flush may fail under contention");
    ssp.flush().unwrap();

    // Per-shard ground truth from the logs themselves.
    let mut union: BTreeSet<(Digest, Digest)> = BTreeSet::new();
    let mut per_shard_total = 0;
    for i in 0..SHARDS {
        let keys = persisted_keys(&dir.join(format!("shard-{i}.log")));
        assert_eq!(
            keys.len(),
            ssp.shard_cache(i).len(),
            "shard {i}: persisted keys must equal resident entries (nothing lost)"
        );
        per_shard_total += keys.len();
        union.extend(keys);
    }
    assert_eq!(
        union.len(),
        per_shard_total,
        "no (att, clause) key may appear in two shard logs (nothing duplicated)"
    );
    assert_eq!(union.len(), ssp.total_entries());

    // A restart over the hammered logs rehydrates every entry.
    drop(ssp);
    let (reopened, rec) = ShardedServiceProvider::open(build_sp(), cfg, &dir).unwrap();
    assert_eq!(rec.proofs_loaded, union.len());
    assert_eq!(reopened.total_entries(), union.len());
    for q in &pool {
        reopened.query(q);
    }
    assert_eq!(reopened.merged_stats().misses, 0, "every entry serves from the log");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_stats_equal_single_shard_twin_totals() {
    let pool = unique_clause_pool(12);
    let stream: Vec<usize> = (0..36).map(|i| (i * 5) % pool.len()).collect();
    let queries: Vec<CompiledQuery> = stream.iter().map(|&i| pool[i].clone()).collect();

    let sharded = ShardedServiceProvider::new(
        build_sp(),
        ShardedConfig { shards: 4, cache_capacity: 4096, flush_threshold: 64 },
    );
    let twin = ShardedServiceProvider::new(
        build_sp(),
        ShardedConfig { shards: 1, cache_capacity: 4096, flush_threshold: 64 },
    );

    let fanned = sharded.query_batch(&queries);
    let serial = twin.query_batch(&queries);
    for (a, b) in fanned.iter().zip(&serial) {
        assert_eq!(encode_response_v2(a), encode_response_v2(b), "fan-out must not change answers");
    }

    // Unique clauses ⇒ no cross-query key sharing, and each bucket serves
    // in input order ⇒ first touch of every key is a miss on both sides:
    // the rollup must reconcile exactly with the single-shard twin.
    assert_eq!(sharded.merged_stats(), twin.merged_stats());
    assert_eq!(sharded.total_entries(), twin.total_entries());
    assert_eq!(sharded.total_served(), twin.total_served());
    assert_eq!(sharded.total_served(), queries.len() as u64);
}

#[test]
fn shard_stats_roll_up_to_totals() {
    let cfg = ShardedConfig { shards: 3, cache_capacity: 1024, flush_threshold: 64 };
    let ssp = ShardedServiceProvider::new(build_sp(), cfg);
    let pool = unique_clause_pool(9);
    for q in &pool {
        ssp.query(q);
    }

    let stats = ssp.shard_stats();
    assert_eq!(stats.len(), 3);
    let mut expected_served = [0u64; 3];
    for q in &pool {
        expected_served[ssp.route(q)] += 1;
    }
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(s.shard, i);
        assert_eq!(s.served, expected_served[i], "per-shard served must follow routing");
    }
    assert_eq!(stats.iter().map(|s| s.served).sum::<u64>(), ssp.total_served());
    assert_eq!(stats.iter().map(|s| s.entries).sum::<usize>(), ssp.total_entries());
    let merged = ssp.merged_stats();
    assert_eq!(stats.iter().map(|s| s.cache.hits).sum::<u64>(), merged.hits);
    assert_eq!(stats.iter().map(|s| s.cache.misses).sum::<u64>(), merged.misses);
}
