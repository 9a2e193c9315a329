//! Crash-recovery differential suite for the persistent serving layer
//! (`core::store` + `ShardedServiceProvider`).
//!
//! The invariant under test: a service provider that crashes, tears a
//! write, or suffers bit-rot in its logs must — after recovery — answer
//! every query **byte-identically** to a twin that never crashed. Damage
//! may only ever cost cache warmth (a re-prove), never correctness.
//!
//! Set `VCHAIN_RECOVERY_ITERS` (CI's `store-recovery` job does) to widen
//! the torn-write and bit-flip sweeps beyond the default sample.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Acc2;
use vchain_chain::{Difficulty, Object};
use vchain_core::cache::{CacheStats, ProofCache};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query, RangeSpec};
use vchain_core::store::{
    frame_record, payload_check, LogStore, LEN_CHECK_XOR, RECORD_VERSION, STORE_HEADER_LEN,
    STORE_MAGIC, STORE_VERSION,
};
use vchain_core::wire::encode_response_v2;
use vchain_core::{
    Adversary, RecordKey, ServiceProvider, ShardedConfig, ShardedServiceProvider, StoreRecord,
};
use vchain_hash::Digest;
use vchain_pairing::{stats, G1Spec};

const DOMAIN_BITS: u8 = 6;

/// Sweep multiplier: 1 by default, raised by CI's store-recovery job.
fn recovery_iters() -> usize {
    std::env::var("VCHAIN_RECOVERY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .clamp(1, 64)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vchain-recovery-{}-{tag}-{n}", std::process::id()))
}

fn temp_file(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vchain-recovery-{}-{tag}-{n}.log", std::process::id()))
}

// --- chain + query harness (mirrors end_to_end.rs) -------------------------

fn cfg() -> MinerConfig {
    MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    }
}

fn workload(seed: u64) -> Vec<Vec<Object>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi", "Toyota"];
    let mut id = 0;
    (0..12)
        .map(|b| {
            (0..4)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b as u64 + 1) * 10,
                        vec![rng.gen_range(0..64), rng.gen_range(0..64)],
                        vec![
                            kinds[rng.gen_range(0..kinds.len())].to_string(),
                            brands[rng.gen_range(0..brands.len())].to_string(),
                        ],
                    )
                })
                .collect()
        })
        .collect()
}

/// A fresh, identical SP. Everything is seeded, so every call builds the
/// same chain — the basis of all twin comparisons below.
fn build_sp() -> ServiceProvider<Acc2> {
    let mut miner = Miner::new(cfg(), Acc2::keygen(4096, &mut StdRng::seed_from_u64(4)));
    for (i, objs) in workload(7).into_iter().enumerate() {
        miner.mine_block((i as u64 + 1) * 10, objs);
    }
    miner.into_service_provider()
}

/// Overlapping-window query pool: re-served queries hit the cache, fresh
/// windows extend it — the dashboard/scan shape the serving layer targets.
fn query_pool() -> Vec<CompiledQuery> {
    let qs = vec![
        Query {
            time_window: Some((20, 90)),
            ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
            keywords: vec![vec!["Sedan".into(), "Van".into()], vec!["Benz".into(), "BMW".into()]],
        },
        Query { time_window: Some((10, 60)), ranges: vec![], keywords: vec![vec!["Truck".into()]] },
        Query {
            time_window: Some((40, 120)),
            ranges: vec![RangeSpec { dim: 1, lo: 0, hi: 32 }],
            keywords: vec![],
        },
        Query {
            time_window: Some((20, 90)),
            ranges: vec![],
            keywords: vec![vec!["Sedan".into()], vec!["Audi".into(), "Toyota".into()]],
        },
        Query {
            time_window: Some((30, 70)),
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 63 }],
            keywords: vec![vec!["Van".into(), "Truck".into()]],
        },
        Query {
            time_window: Some((10, 120)),
            ranges: vec![],
            keywords: vec![vec!["NoSuchKeywordAnywhere".into()]],
        },
    ];
    qs.into_iter().map(|q| q.compile(DOMAIN_BITS)).collect()
}

/// A Zipf-ish replay stream over the pool (heavy repetition of low ids).
fn stream_indices(len: usize) -> Vec<usize> {
    const PATTERN: [usize; 12] = [0, 1, 0, 2, 1, 0, 3, 2, 4, 0, 1, 5];
    (0..len).map(|i| PATTERN[i % PATTERN.len()]).collect()
}

fn serve_stream(
    ssp: &ShardedServiceProvider<Acc2>,
    pool: &[CompiledQuery],
    len: usize,
) -> Vec<Vec<u8>> {
    stream_indices(len).into_iter().map(|i| encode_response_v2(&ssp.query(&pool[i]))).collect()
}

fn sharded_cfg() -> ShardedConfig {
    // Small flush threshold so write-behind flushes fire *during* the run,
    // not only at shutdown.
    ShardedConfig { shards: 4, cache_capacity: 4096, flush_threshold: 8 }
}

// --- 1. warm start: kill, reopen, replay ----------------------------------

#[test]
fn warm_start_replay_is_byte_identical_with_high_hit_rate() {
    let pool = query_pool();
    let dir = temp_dir("warmstart");
    const STREAM: usize = 24;

    // Never-crashed twin (memory only).
    let twin = ShardedServiceProvider::new(build_sp(), sharded_cfg());
    let expected = serve_stream(&twin, &pool, STREAM);

    // Run A: persistent, cold caches; graceful shutdown flushes everything.
    let (run_a, rec_a) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();
    assert_eq!(rec_a.proofs_loaded, 0, "first boot has nothing to rehydrate");
    let cold = serve_stream(&run_a, &pool, STREAM);
    assert_eq!(cold, expected, "cold persistent run must match the memory-only twin");
    assert!(run_a.take_flush_error().is_none());
    let entries_a = run_a.total_entries();
    assert!(entries_a > 0);
    run_a.shutdown().unwrap();

    // Run B: restart over the same directory.
    let (run_b, rec_b) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();
    assert_eq!(rec_b.proofs_loaded, entries_a, "every cache entry survives the restart");
    for r in &rec_b.shard_reports {
        assert_eq!(r.skipped_corrupt, 0);
        assert_eq!(r.truncated_bytes, 0);
    }

    let before = run_b.merged_stats();
    let warm = serve_stream(&run_b, &pool, STREAM);
    let after = run_b.merged_stats();
    assert_eq!(warm, expected, "rehydrated SP must answer byte-identically to the twin");

    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    assert!(lookups > 0);
    let hit_rate = hits as f64 / lookups as f64;
    assert!(
        hit_rate >= 0.90,
        "warm replay must be served from the rehydrated cache: hit rate {hit_rate:.3} \
         ({hits}/{lookups})"
    );
    assert!(run_b.take_flush_error().is_none());
    assert_eq!(run_b.rejected_proofs(), 0, "every persisted proof decodes at its first hit");

    std::fs::remove_dir_all(&dir).ok();
}

// --- 2. torn writes: truncate at every byte boundary ----------------------

fn sample_record(i: usize) -> StoreRecord {
    StoreRecord {
        key: RecordKey {
            block_height: i as u64,
            att: Digest([i as u8; 32]),
            clause: Digest([(i as u8).wrapping_add(1); 32]),
        },
        proof: vec![i as u8; 48 + i % 7],
    }
}

fn sample_records(n: usize) -> Vec<StoreRecord> {
    (0..n).map(sample_record).collect()
}

/// Byte offsets where each frame starts, plus the end-of-file offset.
fn frame_boundaries(records: &[StoreRecord]) -> Vec<usize> {
    let mut bounds = vec![STORE_HEADER_LEN];
    for r in records {
        let last = *bounds.last().unwrap();
        bounds.push(last + frame_record(r).len());
    }
    bounds
}

#[test]
fn torn_tail_truncation_at_every_byte_boundary() {
    let records = sample_records(6 * recovery_iters());
    let base = temp_file("torn-base");
    {
        let (mut store, loaded, _) = LogStore::open(&base).unwrap();
        assert!(loaded.is_empty());
        store.append_all(&records).unwrap();
        store.sync().unwrap();
    }
    let bytes = std::fs::read(&base).unwrap();
    let bounds = frame_boundaries(&records);
    assert_eq!(*bounds.last().unwrap(), bytes.len());

    let victim = temp_file("torn-cut");
    // Every possible kill point inside the record region: after the cut,
    // exactly the frames that fit below it must survive, the torn tail must
    // be measured and healed, and an append must land cleanly.
    for cut in STORE_HEADER_LEN..bytes.len() {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let (mut store, loaded, report) = LogStore::open(&victim).unwrap();
        let intact = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(loaded, records[..intact], "cut at byte {cut}");
        assert_eq!(report.skipped_corrupt, 0, "cut at byte {cut}");
        assert_eq!(report.truncated_bytes, (cut - bounds[intact]) as u64, "cut at byte {cut}");

        // The log is healed: a post-recovery append replays cleanly.
        if cut % 13 == 0 || cut + 1 == bytes.len() {
            let fresh = sample_record(777);
            store.append(&fresh).unwrap();
            store.sync().unwrap();
            drop(store);
            let (_, reloaded, re) = LogStore::open(&victim).unwrap();
            assert_eq!(reloaded.len(), intact + 1);
            assert_eq!(reloaded[..intact], records[..intact]);
            assert_eq!(*reloaded.last().unwrap(), fresh);
            assert_eq!(re.truncated_bytes, 0);
        }
    }
    // A torn *file header* (shorter than magic+version) rewrites fresh.
    for cut in 0..STORE_HEADER_LEN {
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        let (_, loaded, report) = LogStore::open(&victim).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(report.truncated_bytes, cut as u64);
    }

    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&victim).ok();
}

// --- 3. bit rot: flip, classify, recover past -----------------------------

#[test]
fn bit_flip_corruption_is_detected_skipped_and_healed() {
    let records = sample_records(6);
    let base = temp_file("flip-base");
    {
        let (mut store, _, _) = LogStore::open(&base).unwrap();
        store.append_all(&records).unwrap();
        store.sync().unwrap();
    }
    let bytes = std::fs::read(&base).unwrap();
    let bounds = frame_boundaries(&records);

    // Which frame does byte `pos` fall in, and is it header or payload?
    let classify = |pos: usize| -> (usize, bool) {
        let frame = bounds.iter().rposition(|&b| b <= pos).unwrap();
        let in_header = pos < bounds[frame] + 16; // FRAME_HEADER_LEN
        (frame, in_header)
    };

    let body_bits = (bytes.len() - STORE_HEADER_LEN) * 8;
    let sample: Vec<usize> = if recovery_iters() > 1 {
        (0..body_bits).collect() // exhaustive single-bit sweep (CI)
    } else {
        let mut rng = StdRng::seed_from_u64(0xB17F11F);
        (0..256).map(|_| rng.gen_range(0..body_bits)).collect()
    };

    let victim = temp_file("flip-victim");
    for bit in sample {
        let abs_bit = STORE_HEADER_LEN * 8 + bit;
        let flipped = Adversary::flip_bit(&bytes, abs_bit);
        std::fs::write(&victim, &flipped).unwrap();

        // Recovery must never panic and never return bytes that were not
        // appended: every loaded record equals one of the originals.
        let (mut store, loaded, report) = LogStore::open(&victim).unwrap();
        for r in &loaded {
            assert!(records.contains(r), "bit {bit}: recovered a record nobody wrote");
        }

        let (frame, in_header) = classify(abs_bit / 8);
        let len_field = abs_bit / 8 < bounds[frame] + 8;
        if in_header && len_field {
            // The length word is untrustworthy: torn-tail truncation here.
            assert_eq!(loaded, records[..frame], "bit {bit}");
            assert_eq!(report.skipped_corrupt, 0, "bit {bit}");
            assert_eq!(report.truncated_bytes, (bytes.len() - bounds[frame]) as u64, "bit {bit}");
        } else {
            // Payload (or its checksum) damaged: that one record is
            // skipped, everything else survives, the framing still walks.
            let expect: Vec<StoreRecord> = records
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != frame)
                .map(|(_, r)| r.clone())
                .collect();
            assert_eq!(loaded, expect, "bit {bit}");
            assert_eq!(report.skipped_corrupt, 1, "bit {bit}");
            assert_eq!(report.truncated_bytes, 0, "bit {bit}");
        }

        // Recovered past: the store accepts appends and reopens cleanly.
        let fresh = sample_record(123);
        store.append(&fresh).unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, reloaded, _) = LogStore::open(&victim).unwrap();
        assert_eq!(reloaded.last(), Some(&fresh), "bit {bit}: append after recovery lost");
    }

    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&victim).ok();
}

// --- 4. end-to-end: bit-rotted logs still serve correct proofs ------------

#[test]
fn corrupted_shard_logs_never_serve_wrong_proofs() {
    let pool = query_pool();
    let dir = temp_dir("bitrot-e2e");
    const STREAM: usize = 12;

    let twin = ShardedServiceProvider::new(build_sp(), sharded_cfg());
    let expected = serve_stream(&twin, &pool, STREAM);

    let (run_a, _) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();
    let cold = serve_stream(&run_a, &pool, STREAM);
    assert_eq!(cold, expected);
    run_a.shutdown().unwrap();

    // Rot one payload byte in every shard log that holds a record.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        let target = STORE_HEADER_LEN + 16 + 2; // inside the first payload
        if bytes.len() > target + 1 {
            std::fs::write(&path, Adversary::flip_bit(&bytes, target * 8 + 5)).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 2, "expected several shard logs to hold records");

    let (run_b, rec_b) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();

    // Detected damage costs warmth only: responses stay byte-identical.
    let replay = serve_stream(&run_b, &pool, STREAM);
    assert_eq!(replay, expected, "a damaged store must never change an answer");
    assert!(run_b.take_flush_error().is_none());
    // Counted after serving: a record that passes its checksum but not the
    // checked decode is rejected at its first hit, not at open.
    let damage = rec_b.shard_reports.iter().map(|r| r.skipped_corrupt).sum::<usize>()
        + run_b.rejected_proofs() as usize;
    assert!(damage >= 1, "the flips must have been detected, not silently accepted");

    std::fs::remove_dir_all(&dir).ok();
}

// --- 5. a directory written by an earlier build ---------------------------

/// Frame an arbitrary record payload the way `LogStore::append` does. The
/// witness and counter-snapshot records of earlier builds have no encoder
/// any more, so the fixture below builds their bytes by hand.
fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::new();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_CHECK_XOR).to_le_bytes());
    out.extend_from_slice(&payload_check(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Retired tag 1: `height(u64) att(32) count(u32) witness`.
fn retired_witness_frame(height: u64, att: Digest, witness: &[u8]) -> Vec<u8> {
    let mut p = vec![RECORD_VERSION, 1];
    p.extend_from_slice(&height.to_le_bytes());
    p.extend_from_slice(att.as_bytes());
    p.extend_from_slice(&(witness.len() as u32).to_le_bytes());
    p.extend_from_slice(witness);
    frame_payload(&p)
}

/// Retired tag 2: `hits(u64) misses(u64) evictions(u64)`.
fn retired_stats_frame(hits: u64, misses: u64, evictions: u64) -> Vec<u8> {
    let mut p = vec![RECORD_VERSION, 2];
    for v in [hits, misses, evictions] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    frame_payload(&p)
}

#[test]
fn directory_written_by_the_parent_format_opens_as_the_proof_cache_it_is() {
    let pool = query_pool();
    let dir = temp_dir("parent-format");
    const STREAM: usize = 24;

    let twin = ShardedServiceProvider::new(build_sp(), sharded_cfg());
    let expected = serve_stream(&twin, &pool, STREAM);

    let (run_a, _) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();
    assert_eq!(serve_stream(&run_a, &pool, STREAM), expected);
    let entries_a = run_a.total_entries();
    run_a.shutdown().unwrap();

    // Rewrite the directory the way the parent build left one: a stats
    // snapshot closing every flush batch and a stray witness record among
    // the proofs of each shard log, and the witness log beside them.
    let file_header = [&STORE_MAGIC[..], &[STORE_VERSION]].concat();
    let mut proofs_written = 0;
    let mut retired_written = Vec::new();
    for shard in 0..sharded_cfg().shards {
        let path = dir.join(format!("shard-{shard}.log"));
        let (_, records, _) = LogStore::open(&path).unwrap();
        let mut bytes = file_header.clone();
        bytes.extend(retired_witness_frame(shard as u64, Digest([7; 32]), &[1; 21]));
        for (i, r) in records.iter().enumerate() {
            bytes.extend(frame_record(r));
            bytes.extend(retired_stats_frame(777 + i as u64, 7, 1));
        }
        std::fs::write(&path, bytes).unwrap();
        proofs_written += records.len();
        retired_written.push(1 + records.len());
    }
    assert_eq!(proofs_written, entries_a);
    let mut witness_log = file_header;
    for h in 0..5u64 {
        witness_log.extend(retired_witness_frame(h, Digest([h as u8; 32]), &[h as u8; 37]));
    }
    std::fs::write(dir.join("witnesses").with_extension("log"), witness_log).unwrap();

    let (run_b, rec_b) = ShardedServiceProvider::open(build_sp(), sharded_cfg(), &dir).unwrap();
    assert_eq!(rec_b.proofs_loaded, proofs_written, "every proof record loads");
    for (report, retired) in rec_b.shard_reports.iter().zip(&retired_written) {
        assert_eq!(report.skipped_corrupt, *retired, "retired records are skipped, one by one");
        assert_eq!(report.truncated_bytes, 0, "and the framing walks past them");
    }
    assert_eq!(run_b.merged_stats(), CacheStats::default(), "counters start at zero");

    let warm = serve_stream(&run_b, &pool, STREAM);
    assert_eq!(warm, expected, "the old directory serves byte-identically to the twin");
    assert_eq!(run_b.merged_stats().misses, 0, "and from its proofs alone");
    assert_eq!(run_b.rejected_proofs(), 0);
    assert!(run_b.take_flush_error().is_none());

    std::fs::remove_dir_all(&dir).ok();
}

// --- 6. persisted proofs stay bytes until a query asks for them ----------

/// Serve `run`'s whole pool once and shut down: every key the pool asks for
/// is then in the shard logs under `dir`.
fn persist_pool(dir: &std::path::Path, cfg: ShardedConfig, pool: &[CompiledQuery]) {
    let (run, _) = ShardedServiceProvider::open(build_sp(), cfg, dir).unwrap();
    for q in pool {
        run.query(q);
    }
    run.shutdown().unwrap();
}

/// A reopen counts only what the reopened cache does: preloading more
/// records than the caches hold displaces the oldest, and that is not an
/// eviction anything served.
#[test]
fn preloading_past_capacity_counts_no_evictions() {
    let pool = query_pool();
    let dir = temp_dir("preload-evictions");
    let shards = 3;
    persist_pool(&dir, ShardedConfig { shards, cache_capacity: 4096, flush_threshold: 8 }, &pool);

    let cache_capacity = 4;
    for shard in 0..shards {
        let (_, records, _) = LogStore::open(dir.join(format!("shard-{shard}.log"))).unwrap();
        assert!(records.len() > cache_capacity, "shard {shard} must overflow its reopened cache");
    }
    let cfg = ShardedConfig { shards, cache_capacity, flush_threshold: 8 };
    let (ssp, rec) = ShardedServiceProvider::open(build_sp(), cfg, &dir).unwrap();
    assert_eq!(ssp.merged_stats(), CacheStats::default(), "a preload counts nothing");
    assert_eq!(ssp.total_entries(), shards * cache_capacity);
    assert!(rec.proofs_loaded > ssp.total_entries(), "displaced records were loaded too");

    std::fs::remove_dir_all(&dir).ok();
}

/// Open decodes no point; a query's first hit on a persisted key decodes it
/// once, and a repeat decodes nothing. A record whose bytes pass the
/// checksum but not the checked decode costs one miss at its first hit,
/// never an answer, and the re-proved proof is logged after it, so the next
/// open serves the key warm.
#[test]
fn persisted_proofs_decode_once_at_first_hit_and_a_bad_one_costs_a_miss() {
    let pool = query_pool();
    let dir = temp_dir("first-hit");
    let cfg = sharded_cfg();
    let twin = ShardedServiceProvider::new(build_sp(), cfg);
    let expected: Vec<Vec<u8>> = pool.iter().map(|q| encode_response_v2(&twin.query(q))).collect();
    persist_pool(&dir, cfg, &pool);

    let checks = stats::g1_subgroup_checks;
    let sp = build_sp();
    let before = checks();
    let (ssp, rec) = ShardedServiceProvider::open(sp, cfg, &dir).unwrap();
    assert_eq!(checks() - before, 0, "open decodes nothing");
    assert!(rec.proofs_loaded > 0);

    // Each shard's distinct keys so far, mirrored in a cache that proves.
    let seen: Vec<ProofCache<Acc2>> = (0..cfg.shards).map(|_| ProofCache::new(4096)).collect();
    let mut decoded = 0;
    for (q, bytes) in pool.iter().zip(&expected) {
        let mirror = &seen[ssp.route(q)];
        let misses = mirror.stats().misses;
        ssp.inner().time_window_query_with(q, mirror, None);
        let fresh_keys = mirror.stats().misses - misses;

        let before = checks();
        assert_eq!(&encode_response_v2(&ssp.query(q)), bytes);
        assert_eq!(checks() - before, fresh_keys, "one check per distinct persisted key hit");
        decoded += fresh_keys;
        let before = checks();
        assert_eq!(&encode_response_v2(&ssp.query(q)), bytes);
        assert_eq!(checks() - before, 0, "a decoded proof is not decoded again");
    }
    assert!(decoded > 0);
    assert_eq!(ssp.merged_stats().misses, 0, "every key was persisted");
    assert_eq!(ssp.rejected_proofs(), 0);
    drop(ssp);

    // A wrong-subgroup point under a key the pool asks for, framed with a
    // valid payload check behind the honest record of that key: it wins.
    let (path, records) = (0..cfg.shards)
        .map(|i| dir.join(format!("shard-{i}.log")))
        .map(|path| (path.clone(), LogStore::open(&path).unwrap().1))
        .find(|(_, records)| !records.is_empty())
        .expect("a shard log holds records");
    let victim = records.last().unwrap().clone();
    let bad = Adversary::new(28).mutate_point::<G1Spec>(&victim.proof, 3, &[]);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend(frame_record(&StoreRecord { key: victim.key, proof: bad }));
    std::fs::write(&path, bytes).unwrap();

    let (ssp, rec) = ShardedServiceProvider::open(build_sp(), cfg, &dir).unwrap();
    assert!(rec.shard_reports.iter().all(|r| r.skipped_corrupt == 0), "the frame is intact");
    for (q, bytes) in pool.iter().zip(&expected) {
        assert_eq!(&encode_response_v2(&ssp.query(q)), bytes, "a bad record costs no answer");
    }
    assert_eq!(ssp.rejected_proofs(), 1);
    assert_eq!(ssp.merged_stats().misses, 1, "the bad record cost one re-prove");
    assert_eq!(ssp.flush().unwrap(), 1, "the re-proved proof is logged again");
    let (_, records, _) = LogStore::open(&path).unwrap();
    assert_eq!(records.last(), Some(&victim), "behind the bad record, the honest bytes");
    drop(ssp);

    let (ssp, _) = ShardedServiceProvider::open(build_sp(), cfg, &dir).unwrap();
    for (q, bytes) in pool.iter().zip(&expected) {
        assert_eq!(&encode_response_v2(&ssp.query(q)), bytes);
    }
    assert_eq!(ssp.rejected_proofs(), 0, "the later record wins");
    assert_eq!(ssp.merged_stats().misses, 0);

    std::fs::remove_dir_all(&dir).ok();
}
