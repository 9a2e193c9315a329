//! `serve_hot` and `serve_churn` — the persistent, sharded SP under a Zipf
//! stream of window queries from two client threads on a shared cursor.
//! The op is `ShardedServiceProvider::query` + `wire::encode_response_v2`,
//! and every response's bytes are compared with the reference encoding
//! recorded in set-up.
//!
//! The two share one pool and one popularity law (256 queries, Zipf 0.6) and
//! differ in cache capacity. `serve_hot`'s working set fits the cache:
//! index walk, cache lookup and encode are all of the op; proving, pairing
//! and the store do nothing — it is the bypass workload for every
//! accumulator or client optimisation, and where lock contention and the
//! serving tail show. `serve_churn`'s working set is several times the
//! cache: cold proving, LRU eviction, write-behind flush + fsync and log
//! growth do the work — the same layer used as writes beside reads.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::Acc2;
use vchain_chain::LightClient;
use vchain_core::cache::CacheStats;
use vchain_core::query::CompiledQuery;
use vchain_core::sp::{ServingRecovery, ShardedConfig, ShardedServiceProvider};
use vchain_core::verify::verify_encoded_response;
use vchain_core::wire;
use vchain_datagen::Zipf;

use super::{
    dir_bytes, same_objects, sub_seed, Bench, Config, Fixture, Layers, RoundOutcome, Scale,
    VoShape, SERVE_THREADS,
};
use crate::stats::Round;
use crate::trace::Tracer;

/// Pool entries (most popular first) whose reference encoding is verified
/// by a light client in set-up; every entry's result set is oracle-checked.
const VERIFY_SAMPLE: usize = 16;

/// What distinguishes the two serving workloads.
pub struct ServeShape {
    pub shards: usize,
    /// Per-shard cache capacity, in proof entries.
    pub shard_entries: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
    /// Zipf exponent of query popularity.
    pub zipf: f64,
    pub flush_threshold: usize,
    pub ops_per_round: usize,
    /// Discarded rounds after the set-up pass, so each measured round starts
    /// from the LRU state the previous one left.
    pub warmup_rounds: usize,
}

impl ServeShape {
    fn sharded(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            cache_capacity: self.shard_entries,
            flush_threshold: self.flush_threshold,
        }
    }
}

pub trait Shape {
    const NAME: &'static str;
    fn shape(scale: Scale) -> ServeShape;
}

pub struct Hot;
pub struct Churn;

impl Shape for Hot {
    const NAME: &'static str = "serve_hot";
    fn shape(scale: Scale) -> ServeShape {
        ServeShape {
            shards: 2,
            shard_entries: 8192,
            pool: scale.pick(256, 4),
            zipf: 0.6,
            flush_threshold: 64,
            ops_per_round: scale.pick(3000, 40),
            warmup_rounds: 0,
        }
    }
}

impl Shape for Churn {
    const NAME: &'static str = "serve_churn";
    fn shape(scale: Scale) -> ServeShape {
        ServeShape {
            shards: 2,
            shard_entries: scale.pick(512, 24),
            pool: scale.pick(256, 8),
            zipf: 0.6,
            flush_threshold: scale.pick(64, 8),
            ops_per_round: scale.pick(1200, 24),
            warmup_rounds: 1,
        }
    }
}

pub type ServeHot = Serve<Hot>;
pub type ServeChurn = Serve<Churn>;

pub struct Serve<S: Shape> {
    fx: Fixture,
    light: LightClient,
    shape: ServeShape,
    ssp: ShardedServiceProvider<Acc2>,
    pool: Vec<CompiledQuery>,
    /// Reference v2 encoding per pool entry.
    reference: Vec<Vec<u8>>,
    /// Pool index per op of a round.
    stream: Vec<usize>,
    main_dir: PathBuf,
    /// Copy of the store directory taken after the set-up pass: restart
    /// cycles reopen this, so what they load does not depend on how many
    /// rounds the time budget allowed.
    snapshot_dir: PathBuf,
    restarting: Option<ShardedServiceProvider<Acc2>>,
    /// Wrong answers found by the set-up pass, reported with the first round.
    setup_failed: u64,
    _shape: PhantomData<fn() -> S>,
}

/// One shutdown → open → first query cycle.
struct Reopen {
    total_s: f64,
    open_s: f64,
    recovery: ServingRecovery,
    ok: bool,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

impl<S: Shape> Serve<S> {
    /// Serve op `i` of the stream on the calling thread.
    fn op(&self, i: usize) -> Vec<u8> {
        wire::encode_response_v2(&self.ssp.query(&self.pool[self.stream[i]]))
    }

    /// One round from [`SERVE_THREADS`] closed-loop clients sharing a cursor.
    fn threaded_round(&self) -> RoundOutcome {
        let n = self.stream.len();
        let cursor = AtomicUsize::new(0);
        let wall = Instant::now();
        let per_thread: Vec<Vec<(usize, f64, usize, bool)>> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..SERVE_THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break out;
                            }
                            let t0 = Instant::now();
                            let bytes = self.op(i);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let ok = bytes == self.reference[self.stream[i]];
                            out.push((i, ms, bytes.len(), ok));
                        }
                    })
                })
                .collect();
            // A client that panicked leaves its ops unanswered; they count
            // as failed below.
            clients.into_iter().map(|c| c.join().unwrap_or_default()).collect()
        });
        let wall_s = wall.elapsed().as_secs_f64();

        let mut lat_ms = vec![0.0; n];
        let (mut answered, mut wrong, mut bytes) = (0usize, 0u64, 0u64);
        for (i, ms, len, ok) in per_thread.into_iter().flatten() {
            lat_ms[i] = ms;
            answered += 1;
            bytes += len as u64;
            wrong += u64::from(!ok);
        }
        let mut failed = wrong + (n - answered) as u64;
        // A parked write-behind error means the op's proofs did not reach
        // the log: the answer was right, the serving layer was not.
        if let Some(e) = self.ssp.take_flush_error() {
            eprintln!("[vbench] {}: write-behind flush failed: {e}", S::NAME);
            failed += 1;
        }
        RoundOutcome { round: Round { lat_ms, wall_s }, failed: failed.min(n as u64), bytes }
    }

    /// Shut the restart instance down, reopen the snapshot with a fresh
    /// provider and serve the stream's first query.
    fn reopen(&mut self) -> Result<Reopen, String> {
        let store = |e| format!("{}: store: {e}", S::NAME);
        // Scaffolding, untimed: `open` consumes a provider and `shutdown`
        // drops it, so each cycle needs a newly mined one.
        let cfg = self.shape.sharded();
        let old = match self.restarting.take() {
            Some(ssp) => ssp,
            None => {
                ShardedServiceProvider::open(self.fx.mine()?.sp, cfg, &self.snapshot_dir)
                    .map_err(store)?
                    .0
            }
        };
        let next = self.fx.mine()?.sp;
        let first = self.stream[0];

        let t0 = Instant::now();
        old.shutdown().map_err(store)?;
        let t_open = Instant::now();
        let (ssp, recovery) =
            ShardedServiceProvider::open(next, cfg, &self.snapshot_dir).map_err(store)?;
        let open_s = t_open.elapsed().as_secs_f64();
        let bytes = wire::encode_response_v2(&ssp.query(&self.pool[first]));
        let total_s = t0.elapsed().as_secs_f64();

        self.restarting = Some(ssp);
        Ok(Reopen { total_s, open_s, recovery, ok: bytes == self.reference[first] })
    }
}

fn delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
    }
}

impl<S: Shape> Bench for Serve<S> {
    const NAME: &'static str = S::NAME;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let shape = S::shape(cfg.scale);
        let mut fx = Fixture::new(cfg, cfg.scale.pick(128, 20))?;
        let chain = fx.mine_timed()?;
        let main_dir = cfg.work_dir.join(format!("{}-store", S::NAME));
        let snapshot_dir = cfg.work_dir.join(format!("{}-snapshot", S::NAME));
        for dir in [&main_dir, &snapshot_dir] {
            std::fs::remove_dir_all(dir).ok();
        }
        let (ssp, _) = ShardedServiceProvider::open(chain.sp, shape.sharded(), &main_dir)
            .map_err(|e| format!("{}: open store: {e}", S::NAME))?;

        let pool = fx.window_queries(shape.pool, sub_seed(cfg.seed, 1));
        let zipf = Zipf::new(shape.pool, shape.zipf);
        let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 2));
        let stream = (0..shape.ops_per_round).map(|_| zipf.sample(&mut rng)).collect();

        // The set-up pass: every pool query answered once (which pre-warms
        // the cache), its result set checked against the oracle, and the
        // most popular entries verified from their bytes by a light client.
        let mut reference = Vec::with_capacity(pool.len());
        let mut setup_failed = 0u64;
        for (rank, (q, resp)) in pool.iter().zip(ssp.query_batch(&pool)).enumerate() {
            let bytes = wire::encode_response_v2(&resp);
            let want = fx.oracle(q);
            let mut ok = same_objects(resp.all_results().cloned().collect(), &want);
            if rank < VERIFY_SAMPLE {
                ok &= verify_encoded_response(q, &bytes, &chain.light, &fx.cfg, &fx.acc)
                    .is_ok_and(|got| same_objects(got, &want));
            }
            setup_failed += u64::from(!ok);
            reference.push(bytes);
        }

        let mut this = Self {
            fx,
            light: chain.light,
            shape,
            ssp,
            pool,
            reference,
            stream,
            main_dir,
            snapshot_dir,
            restarting: None,
            setup_failed,
            _shape: PhantomData,
        };
        // The snapshot holds what the set-up pass persisted: every pool
        // query's proofs, once.
        this.ssp.flush().map_err(|e| format!("{}: flush: {e}", S::NAME))?;
        copy_dir(&this.main_dir, &this.snapshot_dir)
            .map_err(|e| format!("{}: snapshot store: {e}", S::NAME))?;
        for _ in 0..this.shape.warmup_rounds {
            this.setup_failed += this.threaded_round().failed;
        }
        Ok(this)
    }

    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let s = &self.shape;
        vec![
            ("threads", SERVE_THREADS.to_string()),
            ("shards", s.shards.to_string()),
            ("shard_entries", s.shard_entries.to_string()),
            ("pool", s.pool.to_string()),
            ("zipf", s.zipf.to_string()),
            ("flush_threshold", s.flush_threshold.to_string()),
            ("chain_blocks", self.light.len().to_string()),
        ]
    }

    fn ops_per_round(&self) -> usize {
        self.stream.len()
    }

    fn round(&mut self) -> RoundOutcome {
        let mut out = self.threaded_round();
        out.failed += std::mem::take(&mut self.setup_failed);
        out
    }

    /// The round on one thread, through the functions `query` is made of
    /// (`route`, `time_window_query_with` on the home shard's cache, the
    /// flush policy), so the store's work gets a span of its own. The policy
    /// is a copy of `ShardedServiceProvider::maybe_flush_shard`; if that
    /// changes, this must follow.
    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> RoundOutcome {
        let n = self.stream.len();
        let ssp = &self.ssp;
        let log_before = dir_bytes(&self.main_dir);
        let mut per_shard = vec![0usize; ssp.shard_count()];
        let (mut lat_ms, mut failed, mut bytes) = (Vec::with_capacity(n), 0u64, 0u64);
        let mut cache = CacheStats::default();
        let (mut cold_ms, mut cold_n, mut warm_ms, mut warm_n, mut prove_ms) =
            (0.0, 0usize, 0.0, 0usize, 0.0);
        let mut shape = VoShape::default();
        let wall = Instant::now();
        for i in 0..n {
            let q = &self.pool[self.stream[i]];
            let shard = ssp.route(q);
            per_shard[shard] += 1;
            let shard_cache = ssp.shard_cache(shard);
            let before = shard_cache.stats();

            let op = tr.open("op", None, i as u64);
            let query = tr.open("sp.query", Some(op), i as u64);
            let resp = ssp.inner().time_window_query_with(q, shard_cache, Some(ssp.witnesses()));
            tr.close(query);
            let encoded =
                tr.time("wire.encode", Some(op), i as u64, || wire::encode_response_v2(&resp));
            // `query`'s write-behind policy: flush when the *home* shard's
            // dirty queue reaches the threshold. Its one-shard flush is
            // private, so the span holds `flush()`, which also writes and
            // syncs whatever the other shard has queued: a traced flush is at
            // most one fsync and one sub-threshold batch dearer than the
            // product's, and the other shard's next one is due later.
            let due = shard_cache.dirty_len() >= self.shape.flush_threshold;
            if due && tr.time("store.flush", Some(op), i as u64, || ssp.flush()).is_err() {
                failed += 1;
            }
            tr.close(op);
            lat_ms.push(tr.duration_ms(op));

            let d = delta(shard_cache.stats(), before);
            cache.hits += d.hits;
            cache.misses += d.misses;
            cache.evictions += d.evictions;
            let query_ms = tr.duration_ms(query);
            if d.misses == 0 {
                warm_ms += query_ms;
                warm_n += 1;
            } else {
                // Outside the op: the same query again, now warm.
                let rerun = tr.open("sp.query_warm", None, i as u64);
                std::hint::black_box(ssp.inner().time_window_query_with(
                    q,
                    shard_cache,
                    Some(ssp.witnesses()),
                ));
                tr.close(rerun);
                cold_ms += query_ms;
                cold_n += 1;
                prove_ms += (query_ms - tr.duration_ms(rerun)).max(0.0);
            }

            failed += u64::from(encoded != self.reference[self.stream[i]]);
            bytes += encoded.len() as u64;
            shape.add(&resp);
        }
        let wall_s = wall.elapsed().as_secs_f64();
        // Whatever is still dirty reaches the log before it is sized.
        if tr.time("store.flush", None, n as u64, || ssp.flush()).is_err() {
            failed += 1;
        }
        let log_bytes = dir_bytes(&self.main_dir).saturating_sub(log_before);

        let lookups = (cache.hits + cache.misses) as usize;
        let mean_served = n as f64 / per_shard.len() as f64;
        let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
        layers.set_mean("sp.query_cold_ms", cold_ms, cold_n);
        layers.set_mean("sp.query_warm_ms", warm_ms, warm_n);
        layers.set_mean("sp.prove_ms", prove_ms, n);
        layers.set_mean("sp.proofs_per_op", cache.misses as f64, n);
        layers.set_vo_shape(shape, n);
        layers.set("sp.shard_imbalance", busiest / mean_served - 1.0, n);
        layers.set_mean("accumulator.prove_us_per_proof", prove_ms * 1e3, cache.misses as usize);
        layers.set_mean("cache.hit_ratio", cache.hits as f64, lookups);
        layers.set_mean("cache.evictions_per_op", cache.evictions as f64, n);
        layers.set("cache.resident_entries", ssp.total_entries() as f64, 1);
        let (flush_ms, flushes) = tr.mean_ms("store.flush");
        layers.set("store.flush_ms", flush_ms, flushes);
        layers.set_mean("store.log_bytes_per_op", log_bytes as f64, n);
        layers.set("wire.encode_ms", tr.per_op_ms("wire.encode", n), n);

        match self.reopen() {
            Ok(r) => {
                failed += u64::from(!r.ok);
                layers.set("store.open_ms", r.open_s * 1e3, 1);
                layers.set("store.proofs_loaded", r.recovery.proofs_loaded as f64, 1);
            }
            Err(e) => {
                eprintln!("[vbench] {e}");
                failed += 1;
            }
        }
        RoundOutcome { round: Round { lat_ms, wall_s }, failed: failed.min(n as u64), bytes }
    }

    fn restart(&mut self) -> Result<Option<(f64, bool)>, String> {
        self.reopen().map(|r| Some((r.total_s, r.ok)))
    }
}
