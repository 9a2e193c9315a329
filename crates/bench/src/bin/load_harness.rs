//! Datagen-driven load harness for the persistent, sharded SP serving
//! layer: replay a Zipf query stream against a `ShardedServiceProvider`
//! across client threads, restart it from its logs, replay again warm, and
//! report steady-state serving throughput and tail latency.
//!
//! ```text
//! load_harness                      # write BENCH_sp_serve.json
//! load_harness --merge FILE.json    # splice entries into a bench-smoke file
//! ```
//!
//! The `--merge` form is the CI path: `bench_smoke` writes
//! `BENCH_current.json`, this harness adds its `sp_serve_*` entries to the
//! same file, and `bench_check` gates all of them against the committed
//! ledger in one comparison.
//!
//! Emitted entries (all lower-is-better µs, as the gate requires):
//!
//! * `sp_serve_qps` — *inverse* warm throughput, wall-clock µs per served
//!   query across all client threads (the actual q/s is printed to
//!   stderr). Stored inverted so the regression gate's "bigger is worse"
//!   arithmetic applies unchanged.
//! * `sp_serve_p50_us` — median per-query serve latency of the warm
//!   replay. (72 samples cannot carry a p99: the tail is `vbench`'s
//!   `serve_hot` / `serve_churn` `op_ms_p99`.)
//!
//! The harness is also a correctness check: it asserts the restarted
//! provider answers the replayed stream byte-identically to the
//! pre-restart run and serves ≥90% of warm lookups from the rehydrated
//! cache, exiting nonzero otherwise — so the CI smoke step doubles as a
//! warm-start end-to-end test at load-harness scale.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vchain_acc::Acc2;
use vchain_bench::check;
use vchain_bench::{build_chain, shared_acc2};
use vchain_core::miner::IndexScheme;
use vchain_core::query::CompiledQuery;
use vchain_core::sp::ServiceProvider;
use vchain_core::wire::encode_response_v2;
use vchain_core::{ShardedConfig, ShardedServiceProvider};
use vchain_datagen::{Dataset, WorkloadSpec};
use vchain_hash::{hash_bytes, Digest};

// Fixed scale: the committed `sp_serve_*` ledger numbers are recorded at
// exactly this shape, and CI replays it identically.
const BLOCKS: usize = 12;
const POOL: usize = 12;
const STREAM: usize = 72;
const CLIENTS: usize = 4;

fn sharded_cfg() -> ShardedConfig {
    ShardedConfig { shards: 4, cache_capacity: 8192, flush_threshold: 16 }
}

fn build_sp(w: &vchain_datagen::Workload) -> ServiceProvider<Acc2> {
    let (sp, _light, _cfg) = build_chain(w, IndexScheme::Both, 4, shared_acc2());
    sp
}

/// Serve the stream from `CLIENTS` threads pulling off a shared cursor.
/// Returns (per-query latency µs in stream order, response digest per
/// stream slot, total wall µs).
fn replay(
    ssp: &ShardedServiceProvider<Acc2>,
    stream: &[CompiledQuery],
) -> (Vec<u64>, Vec<Digest>, f64) {
    let cursor = AtomicUsize::new(0);
    let wall = Instant::now();
    let mut per_thread: Vec<Vec<(usize, u64, Digest)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = stream.get(i) else { break };
                        let t0 = Instant::now();
                        let resp = ssp.query(q);
                        let us = t0.elapsed().as_micros() as u64;
                        out.push((i, us, hash_bytes(&encode_response_v2(&resp))));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().expect("client thread panicked"));
        }
    });
    let wall_us = wall.elapsed().as_secs_f64() * 1e6;
    let mut lat = vec![0u64; stream.len()];
    let mut digests = vec![Digest([0u8; 32]); stream.len()];
    for (i, us, d) in per_thread.into_iter().flatten() {
        lat[i] = us;
        digests[i] = d;
    }
    (lat, digests, wall_us)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let merge_target: Option<PathBuf> = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--merge" => Some(PathBuf::from(path)),
        _ => {
            eprintln!("usage: load_harness [--merge BENCH_current.json]");
            std::process::exit(2);
        }
    };

    eprintln!("[load-harness] building {BLOCKS}-block chain…");
    let spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, BLOCKS);
    let w = spec.generate();
    let stream: Vec<CompiledQuery> = w
        .zipf_query_stream(POOL, STREAM, 0x10AD)
        .iter()
        .map(|q| q.compile(spec.domain_bits))
        .collect();

    let dir = std::env::temp_dir().join(format!("vchain-load-harness-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Phase 1: cold persistent run, then graceful shutdown.
    let (cold_ssp, _) =
        ShardedServiceProvider::open(build_sp(&w), sharded_cfg(), &dir).expect("open store dir");
    eprintln!("[load-harness] cold replay: {STREAM} queries × {CLIENTS} clients…");
    let (_, cold_digests, cold_wall) = replay(&cold_ssp, &stream);
    assert!(cold_ssp.take_flush_error().is_none(), "write-behind flush failed");
    let entries = cold_ssp.total_entries();
    cold_ssp.shutdown().expect("graceful shutdown");
    eprintln!(
        "[load-harness] cold: {:.0} q/s, {entries} cache entries persisted",
        STREAM as f64 / (cold_wall / 1e6)
    );

    // Phase 2: restart from the logs and replay warm.
    let (warm_ssp, recovery) =
        ShardedServiceProvider::open(build_sp(&w), sharded_cfg(), &dir).expect("reopen store dir");
    // `proofs_loaded` counts log records; concurrent cold clients may race
    // the same key (both prove, both insert), so records ≥ distinct keys.
    assert!(recovery.proofs_loaded >= entries, "every persisted entry must rehydrate");
    assert_eq!(warm_ssp.total_entries(), entries, "distinct rehydrated keys must match");
    assert_eq!(recovery.proofs_rejected, 0);
    let before = warm_ssp.merged_stats();
    eprintln!("[load-harness] warm replay after restart…");
    let (mut warm_lat, warm_digests, warm_wall) = replay(&warm_ssp, &stream);
    let after = warm_ssp.merged_stats();

    // Correctness gates: byte-identical answers, ≥90% warm hit rate.
    assert_eq!(
        warm_digests, cold_digests,
        "restarted SP must answer the replayed stream byte-identically"
    );
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    eprintln!("[load-harness] warm hit rate: {hit_rate:.3} ({hits}/{lookups})");
    assert!(hit_rate >= 0.90, "warm replay hit rate {hit_rate:.3} below the 0.90 floor");

    warm_lat.sort_unstable();
    let p50 = warm_lat[(warm_lat.len() - 1) / 2];
    let qps = STREAM as f64 / (warm_wall / 1e6);
    let inv_qps_us = warm_wall / STREAM as f64;
    eprintln!(
        "[load-harness] warm: {qps:.0} q/s ({inv_qps_us:.1} µs/query), \
         p50 {p50} µs"
    );

    std::fs::remove_dir_all(&dir).ok();

    let entries = vec![
        ("sp_serve_qps".to_string(), STREAM as u32, inv_qps_us),
        ("sp_serve_p50_us".to_string(), STREAM as u32, p50 as f64),
    ];

    match merge_target {
        Some(path) => {
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let merged = check::merge_entries(&json, &entries).expect("mergeable bench file");
            std::fs::write(&path, merged).expect("write merged bench file");
            eprintln!("[load-harness] merged {} entries into {}", entries.len(), path.display());
        }
        None => {
            use std::fmt::Write as _;
            let mut json =
                String::from("{\n  \"schema\": \"vchain-bench-smoke/v1\",\n  \"timings\": [\n");
            for (i, (name, iters, us)) in entries.iter().enumerate() {
                let comma = if i + 1 == entries.len() { "" } else { "," };
                let _ = writeln!(
                    json,
                    "    {{\"name\": \"{name}\", \"iters\": {iters}, \"us_per_iter\": {us:.3}}}{comma}"
                );
            }
            json.push_str("  ]\n}\n");
            std::fs::write("BENCH_sp_serve.json", &json).expect("write BENCH_sp_serve.json");
            println!("{json}");
            eprintln!("[load-harness] wrote BENCH_sp_serve.json");
        }
    }
}
