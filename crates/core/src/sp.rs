//! The service provider role (paper Fig. 3): answers time-window queries
//! with `⟨R, VO⟩`, using the intra-block index (Algorithm 3) and the
//! inter-block skip list (Algorithm 4).
//!
//! The proving pipeline is plan → resolve → fill. A query first walks its
//! whole window — every block's index, every skip decision (a skip needs a
//! disjoint clause, never a proof) — recording each refutation as a
//! [`ProofRequest`]: inline, §6.3 group or skip entry, keyed by digests the
//! walk already holds (`(AttDigest, clause)`, or a group's member AttDigests
//! and its clause). One [`ProofCache::resolve`] then answers them all: what
//! the window-level cache holds is not proved again — overlapping windows,
//! the common shape of dashboard/scan workloads, re-prove nothing, and a
//! fully warm query does no curve arithmetic at all — and what it lacks
//! reaches the prover as one batch.
//! Whether a block's clause refutations travel as §6.3 groups is derived,
//! not set: they do exactly when the accumulator aggregates
//! ([`Accumulator::supports_aggregation`], i.e. Construction 2).
//! Parallel batches are the sharded layer's job
//! ([`ShardedServiceProvider::query_batch`]), and so is persistence: a
//! [`ShardedServiceProvider`] opened over a directory logs **proof records
//! only**, and reopens them as bytes that decode on first hit. The SP is a
//! full node, so everything else it serves from is derived from the chain,
//! and the cache counters start at zero.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use vchain_acc::{AccElem, Accumulator};
use vchain_chain::ChainStore;
use vchain_hash::{hash_domain, Digest};

use crate::cache::{CacheKey, CacheStats, DirtyEntry, ProofCache, ProofRequest};
use crate::inter::SkipEntry;
use crate::intra::PlannedVo;
use crate::miner::{IndexScheme, IndexedBlock, MinerConfig};
use crate::query::CompiledQuery;
use crate::store::{LogStore, RecordKey, RecoveryReport, StoreError, StoreRecord};
use crate::vo::{Att, BlockCoverage, ClauseRef, QueryResponse};

/// A full node serving verifiable queries.
pub struct ServiceProvider<A: Accumulator> {
    /// The public system parameters this chain was mined under.
    pub cfg: MinerConfig,
    /// The accumulator scheme handle (public key).
    pub acc: A,
    store: ChainStore,
    indexed: Vec<IndexedBlock<A>>,
    history: Vec<crate::inter::BlockSummary<A>>,
    cache: ProofCache<A>,
}

impl<A: Accumulator> ServiceProvider<A> {
    pub(crate) fn new(
        cfg: MinerConfig,
        acc: A,
        store: ChainStore,
        indexed: Vec<IndexedBlock<A>>,
        history: Vec<crate::inter::BlockSummary<A>>,
    ) -> Self {
        Self { cfg, acc, store, indexed, history, cache: ProofCache::default() }
    }

    /// The replicated chain.
    pub fn store(&self) -> &ChainStore {
        &self.store
    }

    /// The per-block authenticated indexes.
    pub fn indexed(&self) -> &[IndexedBlock<A>] {
        &self.indexed
    }

    /// The per-block summaries (for subscription engines).
    pub fn history(&self) -> &[crate::inter::BlockSummary<A>] {
        &self.history
    }

    /// The window-level proof cache (inspect its [`stats`] to observe warm
    /// vs cold behaviour).
    ///
    /// [`stats`]: ProofCache::stats
    pub fn proof_cache(&self) -> &ProofCache<A> {
        &self.cache
    }

    /// Answer a time-window query (paper §3; Algorithms 3 & 4).
    ///
    /// The window is processed from the newest in-window block backwards.
    /// Under the `Both` scheme, after each processed block the SP tries the
    /// largest applicable skip whose summary mismatches the query, covering
    /// a whole run of preceding blocks with one proof.
    pub fn time_window_query(&self, q: &CompiledQuery) -> QueryResponse<A> {
        self.time_window_query_with(q, &self.cache, None)
    }

    /// [`ServiceProvider::time_window_query`] against an *external* proof
    /// cache — the form the sharded serving layer uses, where each shard
    /// owns its cache. The response is byte-identical regardless of which
    /// cache is supplied or how warm it is: proofs are deterministic
    /// functions of `(X₁, clause)`.
    ///
    /// The third parameter is ignored (see [`WitnessTable`]).
    pub fn time_window_query_with(
        &self,
        q: &CompiledQuery,
        cache: &ProofCache<A>,
        _witnesses: Option<&WitnessTable>,
    ) -> QueryResponse<A> {
        let (ts, te) = q.time_window.expect("time-window query requires a window");
        let heights = self.store.heights_in_window(ts, te);
        let mut results = Vec::new();
        let Some(&start) = heights.first() else {
            return QueryResponse { results, coverage: Vec::new() };
        };
        let end = *heights.last().expect("non-empty");
        // §6.3 groups wherever the accumulator aggregates.
        let batch = self.acc.supports_aggregation();

        // Plan the whole window: nothing below proves.
        let mut requests = Vec::with_capacity(2 * heights.len());
        let mut planned = Vec::with_capacity(heights.len());
        let mut h = end as i64;
        while h >= start as i64 {
            let height = h as u64;
            // 1. process this block individually
            let block = self.store.block(height).expect("height in range");
            let tree = &self.indexed[height as usize].tree;
            let (block_results, vo) = tree.plan(&block.objects, q, None, batch, &mut requests);
            if !block_results.is_empty() {
                results.push((height, block_results));
            }
            planned.push(PlannedCoverage::Block { height, vo });
            h -= 1;

            // 2. greedily skip preceding mismatching runs
            while self.cfg.scheme == IndexScheme::Both && h >= start as i64 {
                let cur = (h + 1) as u64; // block whose skip list we use
                let Some((entry, clause)) = self.find_skip(cur, start, q) else {
                    break;
                };
                // Overlapping windows replay the same (skip entry, clause)
                // pairs — exactly what the cache is for.
                let clause_ms = q.cnf.0[clause as usize].to_multiset();
                requests.push(ProofRequest::node::<A>(&entry.att, &entry.ms, clause_ms));
                let proof = requests.len() - 1;
                planned.push(PlannedCoverage::Skip { height: cur, entry, clause, proof });
                h -= entry.distance as i64;
            }
        }

        // Prove once, then put the proofs where the plan says.
        let proofs = cache.resolve(&self.acc, requests);
        let coverage = planned
            .into_iter()
            .map(|planned| match planned {
                PlannedCoverage::Block { height, vo } => {
                    BlockCoverage::Block { height, vo: vo.fill(&proofs) }
                }
                PlannedCoverage::Skip { height, entry, clause, proof } => BlockCoverage::Skip {
                    height,
                    distance: entry.distance,
                    att: Att::of::<A>(&entry.att),
                    proof: proofs[proof].clone().expect("disjointness established"),
                    clause: ClauseRef::Index(clause),
                    siblings: self.indexed[height as usize].skiplist.siblings_of(entry.distance),
                },
            })
            .collect();
        QueryResponse { results, coverage }
    }

    /// The largest skip at block `cur` covering `cur-distance ..= cur-1`
    /// entirely inside `[start, cur-1]` whose summary mismatches the query,
    /// with the index of the clause that refutes it.
    fn find_skip(&self, cur: u64, start: u64, q: &CompiledQuery) -> Option<(&SkipEntry<A>, u16)> {
        self.indexed[cur as usize].skiplist.entries.iter().rev().find_map(|entry| {
            if entry.distance > cur || cur - entry.distance < start {
                return None; // would overshoot the window start
            }
            let clause = q.cnf.find_disjoint_clause(&entry.ms)?;
            Some((entry, clause as u16))
        })
    }
}

/// One stretch of a window's coverage as the planning pass leaves it:
/// [`BlockCoverage`] with request indices where the proofs go.
enum PlannedCoverage<'a, A: Accumulator> {
    Block { height: u64, vo: PlannedVo },
    Skip { height: u64, entry: &'a SkipEntry<A>, clause: u16, proof: usize },
}

// ---------------------------------------------------------------------------
// Persistent, sharded serving front
// ---------------------------------------------------------------------------

/// An empty shell. It held serialized `X₁`-side proving witnesses until
/// PR 18 (PR 15 had measured finalizing from one at the cost of a cold
/// proof); the type, [`ShardedServiceProvider::witnesses`] and the third
/// parameter of [`ServiceProvider::time_window_query_with`] remain only
/// because the frozen benchmark sources name them
/// (`vbench/workloads/serve.rs`), like [`crate::client::PipelineMode`].
/// ROADMAP item 1 (ii) removes all three.
#[derive(Debug, Default)]
pub struct WitnessTable;

/// Shape of a [`ShardedServiceProvider`]: how many shards, how much cache
/// per shard, and how many dirty entries accumulate before a shard's
/// write-behind flush.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Per-shard [`ProofCache`] capacity, in entries.
    pub cache_capacity: usize,
    /// Dirty-entry count that triggers an automatic shard flush (the
    /// "insert batch" of the write-behind policy). Graceful shutdown
    /// flushes regardless.
    pub flush_threshold: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self { shards: 4, cache_capacity: 4096, flush_threshold: 64 }
    }
}

/// Per-shard counters rolled up by [`ShardedServiceProvider::shard_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Queries this shard served.
    pub served: u64,
    /// Entries currently resident in the shard's cache.
    pub entries: usize,
    /// The shard cache's hit/miss/eviction counters.
    pub cache: CacheStats,
}

/// What [`ShardedServiceProvider::open`] found and repaired. A loaded
/// proof stays the bytes its record carried: the SP never decodes one, and
/// a record that passes its checksum but does not decode is refused by the
/// client that receives it (`docs/SECURITY.md`).
#[derive(Clone, Debug, Default)]
pub struct ServingRecovery {
    /// Per-shard store recovery reports (`shards[i]` ↔ `shard-i.log`).
    pub shard_reports: Vec<RecoveryReport>,
    /// Proof records preloaded into shard caches, as bytes: every intact
    /// record counts, including a key's earlier records (the last one
    /// wins) and records a later preload displaced from a full cache — so
    /// this can exceed the entries left resident
    /// ([`ShardedServiceProvider::total_entries`]).
    pub proofs_loaded: usize,
}

struct Shard<A: Accumulator> {
    cache: ProofCache<A>,
    log: Option<Mutex<LogStore>>,
    served: AtomicU64,
}

/// The production serving front: one [`ServiceProvider`] behind `N` worker
/// shards with deterministic query routing, per-shard proof caches and
/// write-behind persistence.
///
/// * **Routing** — [`ShardedServiceProvider::route`] hashes the compiled
///   query's canonical content (window, CNF element indices, ranges,
///   domain bits) into a shard index. The same query always lands on the
///   same shard, so each distinct query's proofs are cached (and
///   persisted) exactly once, and the per-shard store segments partition
///   cleanly.
/// * **Fan-out** — [`ShardedServiceProvider::query_batch`] runs one scoped
///   thread per non-empty shard; responses return in input order and are
///   byte-identical to the single-threaded path.
/// * **Durability** — each shard owns `shard-i.log`; a shard flushes when
///   its dirty queue reaches [`ShardedConfig::flush_threshold`], at batch
///   boundaries, and on [`ShardedServiceProvider::shutdown`]. The logs
///   hold proof records and nothing else. Flush failures in the serving
///   hot path are deferred to [`ShardedServiceProvider::take_flush_error`]
///   rather than failing the query (the response itself is still correct —
///   only durability of the cache is at stake), and the failed batch stays
///   queued for the next flush.
pub struct ShardedServiceProvider<A: Accumulator> {
    sp: ServiceProvider<A>,
    shards: Vec<Shard<A>>,
    flush_threshold: usize,
    flush_error: Mutex<Option<StoreError>>,
}

impl<A: Accumulator> ShardedServiceProvider<A> {
    /// An ephemeral (memory-only) sharded front: same routing and fan-out,
    /// no disk.
    pub fn new(sp: ServiceProvider<A>, cfg: ShardedConfig) -> Self {
        assert!(cfg.shards >= 1, "at least one shard");
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                cache: ProofCache::new(cfg.cache_capacity),
                log: None,
                served: AtomicU64::new(0),
            })
            .collect();
        Self::assemble(sp, shards, cfg)
    }

    /// Open (or create) the persistent serving state under `dir`: one
    /// proof log per shard (`shard-i.log`), whose surviving records are
    /// preloaded into that shard's cache as checksummed bytes
    /// ([`ProofCache::preload`]). No point is decoded, here or at a hit.
    /// Nothing else is read, and the cache counters start at zero.
    pub fn open(
        sp: ServiceProvider<A>,
        cfg: ShardedConfig,
        dir: &Path,
    ) -> Result<(Self, ServingRecovery), StoreError> {
        assert!(cfg.shards >= 1, "at least one shard");
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let mut recovery = ServingRecovery::default();
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let (log, records, report) = LogStore::open(dir.join(format!("shard-{i}.log")))?;
            recovery.shard_reports.push(report);
            let cache = ProofCache::new(cfg.cache_capacity).with_persistence();
            recovery.proofs_loaded += records.len();
            for StoreRecord { key, proof } in records {
                cache.preload(CacheKey { att: key.att, clause: key.clause }, proof);
            }
            shards.push(Shard { cache, log: Some(Mutex::new(log)), served: AtomicU64::new(0) });
        }
        Ok((Self::assemble(sp, shards, cfg), recovery))
    }

    fn assemble(sp: ServiceProvider<A>, shards: Vec<Shard<A>>, cfg: ShardedConfig) -> Self {
        Self {
            sp,
            shards,
            flush_threshold: cfg.flush_threshold.max(1),
            flush_error: Mutex::new(None),
        }
    }

    /// The wrapped single-node service provider.
    pub fn inner(&self) -> &ServiceProvider<A> {
        &self.sp
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s proof cache (tests and introspection).
    pub fn shard_cache(&self, i: usize) -> &ProofCache<A> {
        &self.shards[i].cache
    }

    /// The empty shell the frozen benchmark sources ask for
    /// ([`WitnessTable`]).
    pub fn witnesses(&self) -> &WitnessTable {
        &WitnessTable
    }

    /// Deterministic shard routing: a domain-separated digest over the
    /// compiled query's canonical content, reduced mod the shard count.
    /// Depends only on the query (not on arrival order, thread, or cache
    /// state), so one query's proofs live on exactly one shard.
    pub fn route(&self, q: &CompiledQuery) -> usize {
        let d = routing_digest(q);
        let mut x = [0u8; 8];
        x.copy_from_slice(&d.as_bytes()[..8]);
        (u64::from_le_bytes(x) % self.shards.len() as u64) as usize
    }

    /// Serve one query on its home shard (the caller's thread), then apply
    /// the write-behind flush policy.
    pub fn query(&self, q: &CompiledQuery) -> QueryResponse<A> {
        let i = self.route(q);
        let shard = &self.shards[i];
        let resp = self.sp.time_window_query_with(q, &shard.cache, None);
        shard.served.fetch_add(1, Ordering::Relaxed);
        self.maybe_flush_shard(i);
        resp
    }

    /// Serve a batch: queries are bucketed by home shard, one scoped thread
    /// runs each non-empty bucket, and responses return in input order.
    pub fn query_batch(&self, queries: &[CompiledQuery]) -> Vec<QueryResponse<A>> {
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (qi, q) in queries.iter().enumerate() {
            buckets[self.route(q)].push(qi);
        }
        let mut out: Vec<Option<QueryResponse<A>>> = (0..queries.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .iter()
                .enumerate()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(si, bucket)| {
                    s.spawn(move || {
                        let shard = &self.shards[si];
                        bucket
                            .iter()
                            .map(|&qi| {
                                let resp = self.sp.time_window_query_with(
                                    &queries[qi],
                                    &shard.cache,
                                    None,
                                );
                                shard.served.fetch_add(1, Ordering::Relaxed);
                                (qi, resp)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (qi, resp) in h.join().expect("shard worker panicked") {
                    out[qi] = Some(resp);
                }
            }
        });
        for i in 0..self.shards.len() {
            self.maybe_flush_shard(i);
        }
        out.into_iter().map(|o| o.expect("every query was routed and served")).collect()
    }

    fn maybe_flush_shard(&self, i: usize) {
        let shard = &self.shards[i];
        if shard.log.is_some() && shard.cache.dirty_len() >= self.flush_threshold {
            if let Err(e) = self.flush_shard(i) {
                *self.flush_error.lock() = Some(e);
            }
        }
    }

    /// Flush shard `i`'s dirty queue to its log and fsync. Returns the
    /// number of proof records appended. On an I/O error the drained batch
    /// goes back to the front of the queue: the entries are still served
    /// from RAM, and the next flush writes them once the disk recovers.
    fn flush_shard(&self, i: usize) -> Result<usize, StoreError> {
        let shard = &self.shards[i];
        let Some(log) = &shard.log else { return Ok(0) };
        let dirty = shard.cache.take_dirty();
        if dirty.is_empty() {
            return Ok(0);
        }
        let written = self.write_batch(&mut log.lock(), &dirty);
        if written.is_err() {
            shard.cache.requeue_dirty(dirty);
        }
        written
    }

    /// Append `dirty` to `log` — deduplicated last-wins, in deterministic
    /// (key-sorted) order, as one all-or-nothing write
    /// ([`LogStore::append_all`]) — and fsync.
    fn write_batch(&self, log: &mut LogStore, dirty: &[DirtyEntry]) -> Result<usize, StoreError> {
        let mut by_key: BTreeMap<[u8; 64], &DirtyEntry> = BTreeMap::new();
        for e in dirty {
            let mut kb = [0u8; 64];
            kb[..32].copy_from_slice(e.key.att.as_bytes());
            kb[32..].copy_from_slice(e.key.clause.as_bytes());
            by_key.insert(kb, e); // last write wins
        }
        let height = self.sp.store().height().unwrap_or(0);
        let records: Vec<StoreRecord> = by_key
            .values()
            .map(|e| StoreRecord {
                key: RecordKey { block_height: height, att: e.key.att, clause: e.key.clause },
                proof: e.proof.clone(),
            })
            .collect();
        log.append_all(&records)?;
        log.sync()?;
        Ok(records.len())
    }

    /// Flush every shard's dirty queue. Returns total proof records
    /// appended.
    pub fn flush(&self) -> Result<usize, StoreError> {
        let mut total = 0;
        for i in 0..self.shards.len() {
            total += self.flush_shard(i)?;
        }
        Ok(total)
    }

    /// Graceful shutdown: flush every shard and fsync. After this, a
    /// subsequent [`ShardedServiceProvider::open`] over the same directory
    /// rehydrates every proof this instance held.
    pub fn shutdown(self) -> Result<(), StoreError> {
        self.flush().map(drop)
    }

    /// The last deferred write-behind flush error, if any (cleared on
    /// read). Queries never fail on flush errors; operators poll this.
    pub fn take_flush_error(&self) -> Option<StoreError> {
        self.flush_error.lock().take()
    }

    /// Per-shard counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                served: s.served.load(Ordering::Relaxed),
                entries: s.cache.len(),
                cache: s.cache.stats(),
            })
            .collect()
    }

    /// Cache counters summed across shards.
    pub fn merged_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let c = s.cache.stats();
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
        }
        total
    }

    /// Queries served, summed across shards.
    pub fn total_served(&self) -> u64 {
        self.shards.iter().map(|s| s.served.load(Ordering::Relaxed)).sum()
    }

    /// Proof entries resident across all shard caches.
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }
}

/// The canonical routing digest of a compiled query: domain bits, window,
/// every CNF clause's sorted element indices, and every range predicate.
/// Everything that distinguishes two compiled queries is folded in, so
/// equal queries route identically and distinct queries spread uniformly.
fn routing_digest(q: &CompiledQuery) -> Digest {
    let mut bytes = Vec::with_capacity(64);
    bytes.push(q.domain_bits);
    match q.time_window {
        Some((ts, te)) => {
            bytes.push(1);
            bytes.extend_from_slice(&ts.to_le_bytes());
            bytes.extend_from_slice(&te.to_le_bytes());
        }
        None => bytes.push(0),
    }
    bytes.extend_from_slice(&(q.cnf.0.len() as u32).to_le_bytes());
    for clause in &q.cnf.0 {
        bytes.extend_from_slice(&(clause.0.len() as u32).to_le_bytes());
        for e in &clause.0 {
            bytes.extend_from_slice(&e.to_index().to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(q.ranges.len() as u32).to_le_bytes());
    for r in &q.ranges {
        bytes.push(r.dim);
        bytes.extend_from_slice(&r.lo.to_le_bytes());
        bytes.extend_from_slice(&r.hi.to_le_bytes());
    }
    hash_domain("vchain/shard-route", &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Miner;
    use crate::query::Query;
    use crate::vo::ProofBytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vchain_acc::{Acc2, MultiSet};
    use vchain_chain::{Difficulty, Object};

    const DOMAIN_BITS: u8 = 3;

    /// A small seeded chain: every call builds the same provider. Element
    /// ids come from the process-wide interner, so the universe leaves room
    /// for everything the crate's other unit tests intern (≈ 500 ids).
    fn sp() -> ServiceProvider<Acc2> {
        let cfg = MinerConfig {
            scheme: IndexScheme::Both,
            skip_levels: 2,
            domain_bits: DOMAIN_BITS,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        static ACC: std::sync::OnceLock<Acc2> = std::sync::OnceLock::new();
        let acc = ACC.get_or_init(|| Acc2::keygen(2048, &mut StdRng::seed_from_u64(15))).clone();
        let mut miner = Miner::new(cfg, acc);
        let kinds = ["Sedan", "Van", "Truck"];
        for b in 0..6u64 {
            let objs = (0..2u64)
                .map(|o| {
                    let kind = kinds[((b + o) % 3) as usize].to_string();
                    Object::new(2 * b + o + 1, (b + 1) * 10, vec![(b + o) % 8], vec![kind])
                })
                .collect();
            miner.mine_block((b + 1) * 10, objs);
        }
        miner.into_service_provider()
    }

    fn queries() -> Vec<CompiledQuery> {
        ["Sedan", "Van", "Bus"]
            .iter()
            .map(|kw| {
                Query {
                    time_window: Some((10, 60)),
                    ranges: vec![],
                    keywords: vec![vec![kw.to_string()]],
                }
                .compile(DOMAIN_BITS)
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vchain-sp-unit-{}-{tag}", std::process::id()))
    }

    /// A write-behind flush that fails must not lose its batch: the entries
    /// stay queued, and the first flush after the disk recovers writes them.
    #[test]
    fn failed_flush_keeps_its_entries_for_the_next_one() {
        let dir = temp_dir("failed-flush");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ShardedConfig { shards: 1, cache_capacity: 4096, flush_threshold: 1 };
        let (ssp, _) = ShardedServiceProvider::open(sp(), cfg, &dir).unwrap();
        let path = dir.join("shard-0.log");
        let swap_log = |log: LogStore| *ssp.shards[0].log.as_ref().unwrap().lock() = log;

        // The disk stops taking writes: every threshold flush now fails.
        swap_log(LogStore::read_only(&path).unwrap());
        for q in &queries() {
            ssp.query(q);
        }
        assert!(matches!(ssp.take_flush_error(), Some(StoreError::Io(_))));
        let queued = ssp.shard_cache(0).dirty_len();
        assert!(queued > 0);
        assert_eq!(queued, ssp.total_entries(), "no proved entry left the queue");
        assert!(ssp.flush().is_err());
        assert_eq!(ssp.shard_cache(0).dirty_len(), queued, "a failed flush drains nothing");

        // The disk recovers: the next flush appends every entry.
        swap_log(LogStore::open(&path).unwrap().0);
        assert_eq!(ssp.flush().unwrap(), queued);
        assert_eq!(ssp.shard_cache(0).dirty_len(), 0);
        drop(ssp);
        let (_, recovery) = ShardedServiceProvider::open(sp(), cfg, &dir).unwrap();
        assert_eq!(recovery.proofs_loaded, queued);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// ROADMAP item 5's gap: a flush that fails part-way through a frame must
    /// not tear the *middle* of the shard log — the next flush would append
    /// good frames behind the torn one, and the next open would cut them all
    /// off as a torn tail. At every byte offset of a 3-record batch: the
    /// failed flush keeps its entries and leaves no bytes, the healed handle
    /// writes them, and the reopened log holds both flushes whole.
    #[test]
    fn failed_flush_leaves_no_torn_frame_mid_log() {
        let dir = temp_dir("mid-log-tear");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ShardedConfig { shards: 1, cache_capacity: 4096, flush_threshold: usize::MAX };
        let (ssp, _) = ShardedServiceProvider::open(sp(), cfg, &dir).unwrap();
        let (cache, log) = (&ssp.shards[0].cache, ssp.shards[0].log.as_ref().unwrap());
        let proof = {
            let (x1, x2): (MultiSet<u64>, MultiSet<u64>) =
                ([1u64].into_iter().collect(), [2u64].into_iter().collect());
            ProofBytes::of(&ssp.inner().acc.prove_disjoint(&x1, &x2).unwrap())
        };
        let insert = |ids: core::ops::Range<u8>| {
            for i in ids {
                let key = CacheKey { att: Digest([i; 32]), clause: Digest([7; 32]) };
                cache.insert(key, proof.clone());
            }
        };
        let frame = crate::store::frame_record(&StoreRecord {
            key: RecordKey { block_height: 0, att: Digest([0; 32]), clause: Digest([7; 32]) },
            proof: proof.as_bytes().to_vec(),
        });
        for n in 0..3 * frame.len() {
            let path = dir.join(format!("tear-{n}.log"));
            *log.lock() = LogStore::open(&path).unwrap().0;
            cache.clear();
            insert(0..2);
            assert_eq!(ssp.flush().unwrap(), 2);

            insert(2..5);
            log.lock().fail_after(n);
            assert!(matches!(ssp.flush(), Err(StoreError::Io(_))), "offset {n}");
            assert_eq!(cache.dirty_len(), 3, "offset {n}: the failed batch stays queued");
            assert_eq!(ssp.flush().unwrap(), 3, "offset {n}");

            let (_, records, report) = LogStore::open(&path).unwrap();
            let whole = RecoveryReport { loaded: 5, skipped_corrupt: 0, truncated_bytes: 0 };
            assert_eq!(report, whole, "offset {n}");
            let atts: Vec<u8> = records.iter().map(|r| r.key.att.as_bytes()[0]).collect();
            assert_eq!(atts, [0, 1, 2, 3, 4], "offset {n}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Proofs in a block's VO: its §6.3 groups plus its inline mismatches.
    fn proofs_in(node: &crate::vo::VoNode<Acc2>) -> usize {
        use crate::vo::{MismatchProof, VoNode};
        match node {
            VoNode::Internal { left, right, .. } => proofs_in(left) + proofs_in(right),
            VoNode::InternalMismatch { proof: MismatchProof::Inline { .. }, .. }
            | VoNode::LeafMismatch { proof: MismatchProof::Inline { .. }, .. } => 1,
            _ => 0,
        }
    }

    /// The resolver, without a clock. A cold query computes one proof per
    /// distinct `(group | skip entry, clause)` key — `CacheStats::misses`,
    /// the counter `vbench` derives `sp.proofs_per_op` from — a warm one
    /// computes none, and a cache that can hold a single proof still serves
    /// the same bytes: proofs are placed from the resolver's results, not
    /// read back after eviction.
    #[test]
    fn misses_are_distinct_proofs_and_capacity_does_not_change_the_answer() {
        let sp = sp();
        let mut multi_proof_queries = 0;
        for q in &queries() {
            let cache = ProofCache::default();
            let cold = sp.time_window_query_with(q, &cache, None);
            let requested: usize = cold
                .coverage
                .iter()
                .map(|cov| match cov {
                    BlockCoverage::Block { vo, .. } => vo.groups.len() + proofs_in(&vo.root),
                    BlockCoverage::Skip { .. } => 1,
                })
                .sum();
            let stats = cache.stats();
            assert_eq!(stats.misses as usize, cache.len(), "a miss is a distinct proof computed");
            assert_eq!((stats.hits + stats.misses) as usize, requested);
            multi_proof_queries += usize::from(stats.misses > 1);

            let bytes = crate::wire::encode_response_v2(&cold);
            let warm = sp.time_window_query_with(q, &cache, None);
            assert_eq!(cache.stats().misses, stats.misses, "a warm query proves nothing");
            assert_eq!(crate::wire::encode_response_v2(&warm), bytes);

            let tiny = ProofCache::new(1);
            let squeezed = sp.time_window_query_with(q, &tiny, None);
            assert_eq!(crate::wire::encode_response_v2(&squeezed), bytes);
            assert_eq!(tiny.stats().misses, stats.misses);
        }
        assert!(multi_proof_queries > 0, "the fixture has queries of several proofs");
    }
}
