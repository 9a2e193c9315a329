//! The service provider role (paper Fig. 3): answers time-window queries
//! with `⟨R, VO⟩`, using the intra-block index (Algorithm 3) and the
//! inter-block skip list (Algorithm 4).
//!
//! The proving pipeline is cache-backed: every inline mismatch proof and
//! every skip-entry proof goes through a window-level [`ProofCache`] keyed
//! by `(AttDigest, clause)`, so overlapping windows — the common shape of
//! dashboard/scan workloads — re-prove nothing they have proven before.
//! Parallel batches are the sharded layer's job
//! ([`ShardedServiceProvider::query_batch`]).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use vchain_acc::{AccElem, Accumulator};
use vchain_chain::ChainStore;
use vchain_hash::{hash_domain, Digest};

use crate::cache::{CacheKey, CacheStats, ProofCache};
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
    /// §6.3 online batch verification (effective with Construction 2 only).
    pub batch_verify: bool,
}

impl<A: Accumulator> ServiceProvider<A> {
    pub(crate) fn new(
        cfg: MinerConfig,
        acc: A,
        store: ChainStore,
        indexed: Vec<IndexedBlock<A>>,
        history: Vec<crate::inter::BlockSummary<A>>,
    ) -> Self {
        let batch_verify = acc.supports_aggregation();
        Self { cfg, acc, store, indexed, history, cache: ProofCache::default(), batch_verify }
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

    /// Enable / disable §6.3 grouped proofs in the VOs this SP produces.
    pub fn with_batch_verify(mut self, enabled: bool) -> Self {
        self.batch_verify = enabled && self.acc.supports_aggregation();
        self
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
    /// cache and optional persisted-witness table — the form the sharded
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
            let (block_results, vo) =
                idx.tree.query_cached(&block.objects, q, &self.acc, self.batch_verify, Some(cache));
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
                // pairs — exactly what the cache is for. A persisted
                // witness, when available, lets a cold restart finalize the
                // proof without re-extracting from the multiset.
                let wb = witnesses.and_then(|w| w.get(&ProofCache::<A>::att_digest(&entry.att)));
                let proof = cache
                    .get_or_prove_with_witness(&self.acc, &entry.att, &entry.ms, &clause_ms, wb)
                    .expect("disjointness established");
                let siblings = skiplist
                    .entries
                    .iter()
                    .filter(|e| e.distance != entry.distance)
                    .map(|e| (e.distance, e.level_hash()))
                    .collect();
                return Some((
                    BlockCoverage::Skip {
                        height: cur,
                        distance: entry.distance,
                        att: Att::of::<A>(&entry.att),
                        proof,
                        clause: ClauseRef::Index(clause_idx as u16),
                        siblings,
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

/// A read-only table of persisted `X₁`-side proving witnesses, keyed by
/// the accumulative-value digest ([`ProofCache::att_digest`]). Built once
/// at [`ShardedServiceProvider::open`] time from the skip-list entries
/// (and rehydrated from the witness log on warm starts), then shared
/// immutably by every shard.
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

/// What [`ShardedServiceProvider::open`] found, rebuilt and repaired.
#[derive(Clone, Debug, Default)]
pub struct ServingRecovery {
    /// Per-shard store recovery reports (`shards[i]` ↔ `shard-i.log`).
    pub shard_reports: Vec<RecoveryReport>,
    /// Recovery report of the shared witness log.
    pub witness_report: RecoveryReport,
    /// Proof entries rehydrated into shard caches.
    pub proofs_loaded: usize,
    /// Persisted proof records whose bytes failed the checked accumulator
    /// decode (skipped — the entry becomes a cache miss, never a wrong
    /// proof).
    pub proofs_rejected: usize,
    /// Witnesses rehydrated from the witness log.
    pub witnesses_loaded: usize,
    /// Witnesses extracted fresh (first boot, or log gaps) and appended.
    pub witnesses_built: usize,
}

struct Shard<A: Accumulator> {
    cache: ProofCache<A>,
    log: Option<Mutex<LogStore>>,
    served: AtomicU64,
}

/// The production serving front: one [`ServiceProvider`] behind `N` worker
/// shards with deterministic query routing, per-shard proof caches and
/// write-behind persistence, and a shared persisted-witness table.
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
///   boundaries, and on [`ShardedServiceProvider::shutdown`]. Flush
///   failures in the serving hot path are deferred to
///   [`ShardedServiceProvider::take_flush_error`] rather than failing the
///   query (the response itself is still correct — only durability of the
///   cache is at stake).
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
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                cache: ProofCache::new(cfg.cache_capacity),
                log: None,
                served: AtomicU64::new(0),
            })
            .collect();
        Self {
            sp,
            shards,
            witnesses,
            flush_threshold: cfg.flush_threshold.max(1),
            flush_error: Mutex::new(None),
        }
    }

    /// Open (or create) the persistent serving state under `dir`:
    /// rehydrate the shared witness log (`witnesses.log`, extracting and
    /// appending any witnesses the log does not yet cover) and each
    /// shard's proof log (`shard-i.log`), preloading surviving proof
    /// entries into the shard caches and restoring the last persisted
    /// stats snapshot per shard.
    pub fn open(
        sp: ServiceProvider<A>,
        cfg: ShardedConfig,
        dir: &Path,
    ) -> Result<(Self, ServingRecovery), StoreError> {
        assert!(cfg.shards >= 1, "at least one shard");
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let mut recovery = ServingRecovery::default();

        // Shared witness log first: skip proofs on every shard use it.
        let (mut wlog, wrecords, wreport) = LogStore::open(dir.join("witnesses.log"))?;
        recovery.witness_report = wreport;
        let mut witnesses = WitnessTable::new();
        for r in wrecords {
            if let StoreRecord::Witness { att, witness, .. } = r {
                // Validate against this key before trusting log bytes: a
                // witness that doesn't round-trip is dropped (it would be
                // rejected at finalize time anyway and re-derived below).
                if sp.acc.finalize_from_witness_bytes(&witness, &no_elements()).is_some() {
                    witnesses.insert(att, witness);
                    recovery.witnesses_loaded += 1;
                }
            }
        }
        for (height, idx) in sp.indexed().iter().enumerate() {
            for entry in &idx.skiplist.entries {
                let att_d = ProofCache::<A>::att_digest(&entry.att);
                if witnesses.get(&att_d).is_none() {
                    if let Some(wb) = sp.acc.witness_bytes(&entry.ms) {
                        wlog.append(&StoreRecord::Witness {
                            block_height: height as u64,
                            att: att_d,
                            witness: wb.clone(),
                        })?;
                        witnesses.insert(att_d, wb);
                        recovery.witnesses_built += 1;
                    }
                }
            }
        }
        wlog.sync()?;
        drop(wlog);

        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let (log, records, report) = LogStore::open(dir.join(format!("shard-{i}.log")))?;
            recovery.shard_reports.push(report);
            let cache = ProofCache::new(cfg.cache_capacity).with_persistence();
            let mut last_stats = None;
            for r in records {
                match r {
                    StoreRecord::Proof { key, proof } => match sp.acc.proof_from_bytes(&proof) {
                        Ok(p) => {
                            cache.preload(CacheKey { att: key.att, clause: key.clause }, p);
                            recovery.proofs_loaded += 1;
                        }
                        Err(_) => recovery.proofs_rejected += 1,
                    },
                    StoreRecord::Stats { hits, misses, evictions } => {
                        last_stats = Some(CacheStats { hits, misses, evictions });
                    }
                    StoreRecord::Witness { .. } => {}
                }
            }
            if let Some(stats) = last_stats {
                cache.restore_stats(stats);
            }
            shards.push(Shard { cache, log: Some(Mutex::new(log)), served: AtomicU64::new(0) });
        }

        Ok((
            Self {
                sp,
                shards,
                witnesses,
                flush_threshold: cfg.flush_threshold.max(1),
                flush_error: Mutex::new(None),
            },
            recovery,
        ))
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

    /// The shared persisted-witness table.
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
            if let Err(e) = self.flush_shard(i, false) {
                *self.flush_error.lock() = Some(e);
            }
        }
    }

    /// Flush shard `i`'s dirty queue to its log: entries are deduplicated
    /// last-wins and written in deterministic (key-sorted) order, followed
    /// by a stats snapshot, then fsynced. Returns the number of proof
    /// records appended.
    fn flush_shard(&self, i: usize, force_stats: bool) -> Result<usize, StoreError> {
        let shard = &self.shards[i];
        let Some(log) = &shard.log else { return Ok(0) };
        let dirty = shard.cache.take_dirty();
        if dirty.is_empty() && !force_stats {
            return Ok(0);
        }
        let mut by_key: BTreeMap<[u8; 64], crate::cache::DirtyEntry> = BTreeMap::new();
        for e in dirty {
            let mut kb = [0u8; 64];
            kb[..32].copy_from_slice(e.key.att.as_bytes());
            kb[32..].copy_from_slice(e.key.clause.as_bytes());
            by_key.insert(kb, e); // last write wins
        }
        let height = self.sp.store().height().unwrap_or(0);
        let n = by_key.len();
        let stats = shard.cache.stats();
        let mut g = log.lock();
        for e in by_key.into_values() {
            g.append(&StoreRecord::Proof {
                key: RecordKey { block_height: height, att: e.key.att, clause: e.key.clause },
                proof: e.proof,
            })?;
        }
        g.append(&StoreRecord::Stats {
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
        })?;
        g.sync()?;
        Ok(n)
    }

    /// Flush every shard's dirty queue. Returns total proof records
    /// appended.
    pub fn flush(&self) -> Result<usize, StoreError> {
        let mut total = 0;
        for i in 0..self.shards.len() {
            total += self.flush_shard(i, false)?;
        }
        Ok(total)
    }

    /// Graceful shutdown: flush every shard (writing a final stats
    /// snapshot even when no entries are dirty) and fsync. After this, a
    /// subsequent [`ShardedServiceProvider::open`] over the same directory
    /// rehydrates every entry and counter this instance held.
    pub fn shutdown(self) -> Result<(), StoreError> {
        for i in 0..self.shards.len() {
            self.flush_shard(i, true)?;
        }
        Ok(())
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

/// An empty multiset of the canonical element type, used to validate
/// persisted witness bytes (finalizing against ∅ exercises the full codec
/// check without proving anything).
fn no_elements() -> vchain_acc::MultiSet<crate::element::ElementId> {
    vchain_acc::MultiSet::new()
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
