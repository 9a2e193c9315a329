//! The service provider role (paper Fig. 3): answers time-window queries
//! with `⟨R, VO⟩`, using the intra-block index (Algorithm 3) and the
//! inter-block skip list (Algorithm 4).
//!
//! The proving pipeline is cache-backed: every mismatch proof — inline,
//! §6.3 group or skip entry — goes through a window-level [`ProofCache`],
//! keyed by digests the walk already holds (`(AttDigest, clause)`, or a
//! group's member AttDigests and its clause), so overlapping windows — the
//! common shape of dashboard/scan workloads — re-prove nothing they have
//! proven before, and a fully warm query does no curve arithmetic at all.
//! Whether a block's clause refutations travel as §6.3 groups is derived,
//! not set: they do exactly when the accumulator aggregates
//! ([`Accumulator::supports_aggregation`], i.e. Construction 2).
//! Parallel batches are the sharded layer's job
//! ([`ShardedServiceProvider::query_batch`]), and so is persistence: a
//! [`ShardedServiceProvider`] opened over a directory logs **proof records
//! only**. The SP is a full node, so everything else it serves from — the
//! [`WitnessTable`] included — is derived from the chain at open, and the
//! cache counters start at zero.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use vchain_acc::{AccElem, Accumulator};
use vchain_chain::ChainStore;
use vchain_hash::{hash_domain, Digest};

use crate::cache::{CacheKey, CacheStats, DirtyEntry, ProofCache};
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
    /// cache and optional witness table — the form the sharded
    /// serving layer uses, where each shard owns its cache and all shards
    /// share one read-only [`WitnessTable`]. The response is byte-identical
    /// regardless of which cache is supplied or how warm it is: proofs are
    /// deterministic functions of `(X₁, clause)`.
    pub fn time_window_query_with(
        &self,
        q: &CompiledQuery,
        cache: &ProofCache<A>,
        witnesses: Option<&WitnessTable>,
    ) -> QueryResponse<A> {
        let (ts, te) = q.time_window.expect("time-window query requires a window");
        let heights = self.store.heights_in_window(ts, te);
        let mut results = Vec::new();
        let mut coverage = Vec::new();
        let Some(&start) = heights.first() else {
            return QueryResponse { results, coverage };
        };
        let end = *heights.last().expect("non-empty");

        let mut h = end as i64;
        while h >= start as i64 {
            let height = h as u64;
            // 1. process this block individually
            let block = self.store.block(height).expect("height in range");
            let idx = &self.indexed[height as usize];
            // `true`: clause refutations travel as §6.3 groups (wherever the
            // accumulator aggregates — the walk checks).
            let (block_results, vo) =
                idx.tree.query(&block.objects, q, None, &self.acc, true, cache);
            if !block_results.is_empty() {
                results.push((height, block_results));
            }
            coverage.push(BlockCoverage::Block { height, vo });
            h -= 1;

            // 2. greedily skip preceding mismatching runs
            if self.cfg.scheme == IndexScheme::Both {
                loop {
                    if h < start as i64 {
                        break;
                    }
                    let cur = (h + 1) as u64; // block whose skip list we use
                    let Some(jump) = self.try_skip(cur, start, q, cache, witnesses) else {
                        break;
                    };
                    coverage.push(jump.0);
                    h -= jump.1 as i64;
                }
            }
        }
        QueryResponse { results, coverage }
    }

    /// Try the largest skip at block `cur` covering `cur-distance ..= cur-1`
    /// entirely inside `[start, cur-1]` whose summary mismatches the query.
    fn try_skip(
        &self,
        cur: u64,
        start: u64,
        q: &CompiledQuery,
        cache: &ProofCache<A>,
        witnesses: Option<&WitnessTable>,
    ) -> Option<(BlockCoverage<A>, u64)> {
        let skiplist = &self.indexed[cur as usize].skiplist;
        for entry in skiplist.entries.iter().rev() {
            if entry.distance > cur || cur - entry.distance < start {
                continue; // would overshoot the window start
            }
            if let Some(clause_idx) = q.cnf.find_disjoint_clause(&entry.ms) {
                let clause_ms = q.cnf.0[clause_idx].to_multiset();
                // Overlapping windows replay the same (skip entry, clause)
                // pairs — exactly what the cache is for. A tabled witness,
                // when available, lets a miss finalize the proof without
                // re-extracting from the multiset.
                let wb = witnesses.and_then(|w| w.get(&ProofCache::<A>::att_digest(&entry.att)));
                let proof = cache
                    .get_or_prove_with_witness(&self.acc, &entry.att, &entry.ms, &clause_ms, wb)
                    .expect("disjointness established");
                return Some((
                    BlockCoverage::Skip {
                        height: cur,
                        distance: entry.distance,
                        att: Att::of::<A>(&entry.att),
                        proof,
                        clause: ClauseRef::Index(clause_idx as u16),
                        siblings: skiplist.siblings_of(entry.distance),
                    },
                    entry.distance,
                ));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Persistent, sharded serving front
// ---------------------------------------------------------------------------

/// A read-only, in-memory table of serialized `X₁`-side proving witnesses,
/// keyed by the accumulative-value digest ([`ProofCache::att_digest`]).
/// Derived from the skip-list entries every time a
/// [`ShardedServiceProvider`] is built ([`ShardedServiceProvider::new`] and
/// [`ShardedServiceProvider::open`] alike — it is never persisted), then
/// shared immutably by every shard.
#[derive(Debug, Default)]
pub struct WitnessTable {
    map: HashMap<Digest, Vec<u8>>,
}

impl WitnessTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// File a witness under its accumulative-value digest.
    pub fn insert(&mut self, att: Digest, witness: Vec<u8>) {
        self.map.insert(att, witness);
    }

    /// The witness bytes for an accumulative-value digest, if present.
    pub fn get(&self, att: &Digest) -> Option<&[u8]> {
        self.map.get(att).map(Vec::as_slice)
    }

    /// Number of stored witnesses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

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

/// What [`ShardedServiceProvider::open`] found and repaired.
#[derive(Clone, Debug, Default)]
pub struct ServingRecovery {
    /// Per-shard store recovery reports (`shards[i]` ↔ `shard-i.log`).
    pub shard_reports: Vec<RecoveryReport>,
    /// Proof entries rehydrated into shard caches.
    pub proofs_loaded: usize,
    /// Persisted proof records whose bytes failed the checked accumulator
    /// decode (skipped — the entry becomes a cache miss, never a wrong
    /// proof).
    pub proofs_rejected: usize,
}

struct Shard<A: Accumulator> {
    cache: ProofCache<A>,
    log: Option<Mutex<LogStore>>,
    served: AtomicU64,
}

/// The production serving front: one [`ServiceProvider`] behind `N` worker
/// shards with deterministic query routing, per-shard proof caches and
/// write-behind persistence, and a shared in-memory witness table.
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
    witnesses: WitnessTable,
    flush_threshold: usize,
    flush_error: Mutex<Option<StoreError>>,
}

impl<A: Accumulator> ShardedServiceProvider<A> {
    /// An ephemeral (memory-only) sharded front: same routing and fan-out,
    /// no disk. The witness table is still built, so skip proofs use the
    /// cheap finalization path.
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
    /// proof log per shard (`shard-i.log`), whose surviving entries are
    /// preloaded into that shard's cache. Nothing else is read: the witness
    /// table is derived from `sp` exactly as [`ShardedServiceProvider::new`]
    /// derives it, and the cache counters start at zero.
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
            for StoreRecord { key, proof } in records {
                match sp.acc.proof_from_bytes(&proof) {
                    Ok(p) => {
                        cache.preload(CacheKey { att: key.att, clause: key.clause }, p);
                        recovery.proofs_loaded += 1;
                    }
                    Err(_) => recovery.proofs_rejected += 1,
                }
            }
            shards.push(Shard { cache, log: Some(Mutex::new(log)), served: AtomicU64::new(0) });
        }
        Ok((Self::assemble(sp, shards, cfg), recovery))
    }

    /// The one place a sharded front is put together, and the one place its
    /// witness table is derived: a serialized witness per distinct
    /// skip-entry digest, for constructions that have one.
    fn assemble(sp: ServiceProvider<A>, shards: Vec<Shard<A>>, cfg: ShardedConfig) -> Self {
        let mut witnesses = WitnessTable::new();
        for idx in sp.indexed() {
            for entry in &idx.skiplist.entries {
                let att_d = ProofCache::<A>::att_digest(&entry.att);
                if witnesses.get(&att_d).is_none() {
                    if let Some(wb) = sp.acc.witness_bytes(&entry.ms) {
                        witnesses.insert(att_d, wb);
                    }
                }
            }
        }
        Self {
            sp,
            shards,
            witnesses,
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

    /// The shared in-memory witness table.
    pub fn witnesses(&self) -> &WitnessTable {
        &self.witnesses
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
        let resp = self.sp.time_window_query_with(q, &shard.cache, Some(&self.witnesses));
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
                                    Some(&self.witnesses),
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
    /// (key-sorted) order — and fsync.
    fn write_batch(&self, log: &mut LogStore, dirty: &[DirtyEntry]) -> Result<usize, StoreError> {
        let mut by_key: BTreeMap<[u8; 64], &DirtyEntry> = BTreeMap::new();
        for e in dirty {
            let mut kb = [0u8; 64];
            kb[..32].copy_from_slice(e.key.att.as_bytes());
            kb[32..].copy_from_slice(e.key.clause.as_bytes());
            by_key.insert(kb, e); // last write wins
        }
        let height = self.sp.store().height().unwrap_or(0);
        for e in by_key.values() {
            log.append(&StoreRecord {
                key: RecordKey { block_height: height, att: e.key.att, clause: e.key.clause },
                proof: e.proof.clone(),
            })?;
        }
        log.sync()?;
        Ok(by_key.len())
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vchain_acc::Acc2;
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

    /// Witnesses are derived, never read: the memory-only front and a
    /// first-boot persistent one hold the same table.
    #[test]
    fn new_and_first_boot_open_hold_equal_witness_tables() {
        let dir = temp_dir("witness-tables");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ShardedConfig::default();
        let in_memory = ShardedServiceProvider::new(sp(), cfg);
        let (opened, _) = ShardedServiceProvider::open(sp(), cfg, &dir).unwrap();
        assert!(!in_memory.witnesses().is_empty());
        assert_eq!(in_memory.witnesses().map, opened.witnesses().map);
        std::fs::remove_dir_all(&dir).ok();
    }
}
