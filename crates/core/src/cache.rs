//! The window-level proof cache of the SP proving pipeline.
//!
//! Disjointness proofs are *deterministic* functions of
//! `(X₁, clause)` — both accumulator constructions derive the proof point
//! from the two multisets and the public key alone — so any two proving
//! sites that agree on the accumulative value `acc(X₁)` (a binding,
//! collision-resistant commitment to `X₁`) and on the clause's element set
//! can share one proof verbatim. Overlapping time-window queries replay the
//! same skip entries against the same clauses; consecutive blocks of a
//! subscription replay the same per-node refutations; both were re-proving
//! from scratch before this cache existed.
//!
//! [`ProofCache`] is a fixed-capacity, thread-safe LRU map from
//! [`CacheKey`] — the pair `(H(acc(X₁)), H(clause))` of digests over the
//! *serialized* accumulative value and the clause's canonical index/count
//! encoding — to the proof. A hit is sound whenever SHA-256 is
//! collision-resistant; the cache never needs to retain the (potentially
//! large) multisets themselves. All entries of one cache refer to one
//! accumulator public key; callers that rotate keys must use fresh caches.
//!
//! A §6.3 group proof is over the multiset *sum* of its member nodes, and
//! is keyed ([`ProofCache::group_key`]) by one digest over the members'
//! serialized values in walk order, not by the `Sum` of those values: each
//! value binds its multiset, so the sequence binds the sum, and asking
//! costs a hash. Summing (curve additions, two field inversions a group)
//! is for a miss.
//!
//! # The resolver
//!
//! The SP walks before it proves. A walk (`IntraTree::plan`, the skip
//! decisions of a time window, a block's root-level subscription
//! refutations) records each refutation as a [`ProofRequest`] and carries on;
//! [`ProofCache::resolve`] then settles all of a query's — or a block's —
//! requests in one call: every distinct key is looked up once, the misses go
//! to the prover *together*
//! ([`Accumulator::prove_disjoint_batch`], grouped by `X₁`), the proofs are
//! inserted, and each request is answered from the resolver's own table.
//! It is the only place the SP proves.
//!
//! # Persistence
//!
//! A cache built [`ProofCache::with_persistence`] additionally queues a
//! [`DirtyEntry`] (the key halves plus canonical proof bytes) on every
//! insert of a key that is not already resident (proofs are deterministic:
//! two threads that miss on the same query insert the same bytes, and the
//! log gets them once). The serving layer drains the queue with
//! [`ProofCache::take_dirty`] and appends it to a [`crate::store::LogStore`]
//! — write-behind, so the proving hot path never waits on a disk. Because
//! dirty capture happens at *insert* and is independent of the LRU list,
//! an entry later evicted from memory has still been persisted: eviction
//! bounds RAM, the log bounds re-proving. A flush that fails hands its
//! batch back (`requeue_dirty`), so the next flush writes it.
//!
//! On warm start, [`ProofCache::preload`] rehydrates entries as the
//! canonical bytes their log records carried — no point is decoded at open,
//! and neither the counters nor the dirty queue are touched (a preload that
//! displaces an older preload is not an eviction). The first lookup that
//! hits a bytes entry decodes it with the checked
//! [`Accumulator::proof_from_bytes`], outside the lock, and writes the proof
//! back in place; a hit that decodes is a hit. Bytes that fail the decode
//! are dropped and counted ([`ProofCache::rejected`]), and the lookup is a
//! miss: the request is proved, inserted and logged afresh, so a damaged
//! record costs warmth, never an answer. Proofs are all that is persisted:
//! the counters of a reopened cache start at zero.
//!
//! *Upgrading over a warm log.* Builds before PR 17 keyed a group proof by
//! the digest of the summed value. Such records still preload, are never
//! asked for again and age out by LRU, while the same proofs are re-proved
//! once and re-logged under [`ProofCache::group_key`]: warmth lost, never
//! a wrong proof. Inline and skip records keep their keys.

use std::borrow::Cow;
use std::collections::HashMap;

use parking_lot::Mutex;
use vchain_acc::{AccElem, AccError, Accumulator, MultiSet};
use vchain_hash::{hash_bytes, hash_concat, hash_concat_iter, Digest};

/// Sentinel index for "no node" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Hit/miss/eviction counters of a [`ProofCache`] (monotonic since
/// construction or the last [`ProofCache::clear`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without proving: from the cache, or — a request
    /// repeating a key of its own [`ProofCache::resolve`] call — from that
    /// call's table.
    pub hits: u64,
    /// Lookups that fell through to the prover: the distinct proofs
    /// computed (a failed proof attempt counts too).
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
}

/// The two halves of a proof-cache key, kept separate so persistence can
/// store them: `att` commits to the serialized accumulative value
/// (`H(value_bytes(acc(X₁)))`), `clause` to the clause's canonical
/// `(index, count)` encoding. The map itself is keyed by their
/// domain-separated combination ([`CacheKey::digest`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the serialized accumulative value.
    pub att: Digest,
    /// Digest of the canonical clause bytes.
    pub clause: Digest,
}

impl CacheKey {
    /// The combined map key: `H(tag ‖ att ‖ clause)`.
    pub fn digest(&self) -> Digest {
        hash_concat(&[b"vchain/proof-cache", self.att.as_bytes(), self.clause.as_bytes()])
    }
}

/// One queued write-behind entry: the key halves plus the proof's
/// canonical bytes, ready to become a [`crate::store::StoreRecord`] without
/// any further access to accumulator types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyEntry {
    /// The entry's cache key.
    pub key: CacheKey,
    /// Canonical proof bytes ([`Accumulator::proof_bytes`]).
    pub proof: Vec<u8>,
}

/// One refutation a walk wants proved — `X₁ ∩ clause = ∅` — under the cache
/// key the walk already holds. The currency of [`ProofCache::resolve`].
#[derive(Clone, Debug)]
pub struct ProofRequest<'a, E: AccElem> {
    key: CacheKey,
    x1: X1<'a, E>,
    clause: MultiSet<E>,
}

/// The `X₁` of a [`ProofRequest`], borrowed from the index.
#[derive(Clone, Debug)]
enum X1<'a, E: AccElem> {
    /// A node's or skip entry's multiset.
    Node(&'a MultiSet<E>),
    /// The members of a §6.3 group: `X₁` is their sum, computed only on a
    /// miss.
    Group(Vec<&'a MultiSet<E>>),
}

impl<'a, E: AccElem> ProofRequest<'a, E> {
    /// Refute one node or skip entry — multiset `ms`, committed as `att` —
    /// by `clause` ([`ProofCache::key`]).
    pub fn node<A: Accumulator>(att: &A::Value, ms: &'a MultiSet<E>, clause: MultiSet<E>) -> Self {
        Self { key: ProofCache::<A>::key(att, &clause), x1: X1::Node(ms), clause }
    }

    /// Refute a §6.3 group — the multiset *sum* of `members`, each given as
    /// `(AttDigest, multiset)` in walk order — by `clause`
    /// ([`ProofCache::group_key`]).
    pub fn group<'v, A: Accumulator>(
        members: impl IntoIterator<Item = (&'v A::Value, &'a MultiSet<E>)>,
        clause: MultiSet<E>,
    ) -> Self
    where
        A::Value: 'v,
    {
        let mut x1 = Vec::new();
        let att = ProofCache::<A>::group_att(members.into_iter().map(|(att, ms)| {
            x1.push(ms);
            att
        }));
        Self { key: CacheKey { att, clause: clause_digest(&clause) }, x1: X1::Group(x1), clause }
    }
}

/// The misses of one [`ProofCache::resolve`] that share an `X₁`: one job
/// group for the prover.
struct Misses<'a, E: AccElem> {
    x1: Cow<'a, MultiSet<E>>,
    clauses: Vec<MultiSet<E>>,
    /// Each clause's slot in the resolver's table and its cache key.
    slots: Vec<(usize, CacheKey)>,
}

/// What a cache slot holds: a decoded proof, or — until its first hit —
/// the canonical bytes of a preloaded log record.
enum Entry<P> {
    Proof(P),
    Bytes(Vec<u8>),
}

struct Node<P> {
    key: Digest,
    entry: Entry<P>,
    prev: usize,
    next: usize,
}

struct Inner<P> {
    map: HashMap<Digest, usize>,
    nodes: Vec<Node<P>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: CacheStats,
    rejected: u64,
    dirty: Vec<DirtyEntry>,
}

impl<P> Inner<P> {
    /// Unlink node `i` and free its slot.
    fn remove(&mut self, i: usize) {
        self.detach(i);
        let key = self.nodes[i].key;
        self.map.remove(&key);
        self.free.push(i);
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }
}

/// A thread-safe LRU cache of disjointness proofs, keyed by
/// `(accumulative value, clause element set)`. See the module docs for the
/// soundness argument; see [`ProofCache::resolve`] for the one call every SP
/// site's proofs go through.
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use vchain_acc::{Acc2, Accumulator, MultiSet};
/// use vchain_core::cache::{ProofCache, ProofRequest};
///
/// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(4));
/// let cache: ProofCache<Acc2> = ProofCache::new(128);
/// let x1: MultiSet<u64> = [1u64, 2].into_iter().collect();
/// let clause: MultiSet<u64> = [10u64].into_iter().collect();
/// let att = acc.setup(&x1);
/// let ask = || vec![ProofRequest::node::<Acc2>(&att, &x1, clause.clone())];
/// let cold = cache.resolve(&acc, ask()).remove(0).unwrap();
/// let warm = cache.resolve(&acc, ask()).remove(0).unwrap();
/// assert_eq!(Acc2::proof_bytes(&cold), Acc2::proof_bytes(&warm));
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// ```
pub struct ProofCache<A: Accumulator> {
    inner: Mutex<Inner<A::Proof>>,
    capacity: usize,
    persist: bool,
}

impl<A: Accumulator> ProofCache<A> {
    /// Default capacity: generous for whole-chain scans (a few thousand
    /// distinct (skip-entry, clause) pairs) while bounding memory to a few
    /// hundred kilobytes of proofs.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A cache holding at most `capacity` proofs (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "proof cache capacity must be positive");
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                stats: CacheStats::default(),
                rejected: 0,
                dirty: Vec::new(),
            }),
            capacity,
            persist: false,
        }
    }

    /// Turn on write-behind capture: every subsequent [`ProofCache::insert`]
    /// (and the insert half of [`ProofCache::resolve`]) also queues a
    /// [`DirtyEntry`] for [`ProofCache::take_dirty`].
    pub fn with_persistence(mut self) -> Self {
        self.persist = true;
        self
    }

    /// The cache key for proving `X₁` (committed as `att`) disjoint from
    /// `clause`: digests over the serialized accumulative value and the
    /// clause's canonical `(index, count)` encoding.
    pub fn key<E: AccElem>(att: &A::Value, clause: &MultiSet<E>) -> CacheKey {
        CacheKey { att: hash_bytes(&A::value_bytes(att)), clause: clause_digest(clause) }
    }

    /// The cache key for proving the multiset *sum* of a §6.3 group's
    /// members (committed as `members`, in walk order) disjoint from
    /// `clause`: one domain-separated digest over the members' serialized
    /// values, so no `Sum` is computed to ask — and a one-member group
    /// hashes what an inline key hashes.
    pub fn group_key<E: AccElem>(members: &[&A::Value], clause: &MultiSet<E>) -> CacheKey {
        CacheKey { att: Self::group_att(members.iter().copied()), clause: clause_digest(clause) }
    }

    /// The `att` half of [`ProofCache::group_key`].
    fn group_att<'v>(members: impl Iterator<Item = &'v A::Value>) -> Digest
    where
        A::Value: 'v,
    {
        let tag = Cow::Borrowed(&b"vchain/group-key"[..]);
        hash_concat_iter(core::iter::once(tag).chain(members.map(|v| A::value_bytes(v).into())))
    }

    /// Look up a proof, refreshing its recency on a hit. A preloaded entry
    /// is decoded (checked) with `acc` on its first hit; see the module docs.
    pub fn get(&self, acc: &A, key: &CacheKey) -> Option<A::Proof> {
        self.get_digest(acc, &key.digest())
    }

    /// [`ProofCache::get`] under the combined map key.
    fn get_digest(&self, acc: &A, digest: &Digest) -> Option<A::Proof> {
        let bytes = {
            let mut g = self.inner.lock();
            let Some(i) = g.map.get(digest).copied() else {
                g.stats.misses += 1;
                return None;
            };
            g.detach(i);
            g.push_front(i);
            match &g.nodes[i].entry {
                Entry::Proof(p) => {
                    let p = p.clone();
                    g.stats.hits += 1;
                    return Some(p);
                }
                Entry::Bytes(b) => b.clone(),
            }
        };
        // First hit on a persisted record: the checked decode, unlocked.
        let decoded = acc.proof_from_bytes(&bytes).ok();
        let mut g = self.inner.lock();
        // Still the bytes we decoded? (Another thread may have written back
        // or re-proved meanwhile, or the entry may have been evicted.)
        let resident =
            g.map.get(digest).copied().filter(|&i| matches!(g.nodes[i].entry, Entry::Bytes(_)));
        match &decoded {
            Some(p) => {
                g.stats.hits += 1;
                if let Some(i) = resident {
                    g.nodes[i].entry = Entry::Proof(p.clone());
                }
            }
            None => {
                g.stats.misses += 1;
                if let Some(i) = resident {
                    g.remove(i);
                    g.rejected += 1;
                }
            }
        }
        decoded
    }

    /// Insert (or refresh) a proof, evicting the least-recently-used entry
    /// when full. With persistence on, a key that was not resident is also
    /// queued for write-behind — *before* any eviction decision, so an entry
    /// evicted later has still been captured durably. A refresh queues
    /// nothing: the key was queued, or preloaded, when it became resident.
    pub fn insert(&self, key: CacheKey, proof: A::Proof) {
        self.insert_inner(key, Entry::Proof(proof));
    }

    /// Rehydrate an entry from the persistent store as the canonical proof
    /// bytes its record carried, decoded on first hit: identical placement
    /// to [`ProofCache::insert`], but never re-queued as dirty (it came
    /// *from* the log) and without touching the counters — a preload that
    /// displaces another counts no eviction. A later preload of the same key
    /// replaces the earlier one: the last record wins.
    pub fn preload(&self, key: CacheKey, proof: Vec<u8>) {
        self.insert_inner(key, Entry::Bytes(proof));
    }

    /// [`ProofCache::insert`] of a proof, [`ProofCache::preload`] of bytes.
    fn insert_inner(&self, key: CacheKey, entry: Entry<A::Proof>) {
        let digest = key.digest();
        let mut g = self.inner.lock();
        if let Some(&i) = g.map.get(&digest) {
            g.nodes[i].entry = entry;
            g.detach(i);
            g.push_front(i);
            return;
        }
        let preload = matches!(entry, Entry::Bytes(_));
        if let Entry::Proof(proof) = &entry {
            if self.persist {
                g.dirty.push(DirtyEntry { key, proof: A::proof_bytes(proof) });
            }
        }
        if g.map.len() == self.capacity {
            let lru = g.tail;
            g.remove(lru);
            if !preload {
                g.stats.evictions += 1;
            }
        }
        let node = Node { key: digest, entry, prev: NIL, next: NIL };
        let i = match g.free.pop() {
            Some(i) => {
                g.nodes[i] = node;
                i
            }
            None => {
                g.nodes.push(node);
                g.nodes.len() - 1
            }
        };
        g.map.insert(digest, i);
        g.push_front(i);
    }

    /// Drain the write-behind queue (insertion order preserved; the same
    /// key appears more than once only if it was evicted and re-inserted in
    /// between — flushers dedupe last-wins).
    pub fn take_dirty(&self) -> Vec<DirtyEntry> {
        core::mem::take(&mut self.inner.lock().dirty)
    }

    /// Entries currently queued for write-behind.
    pub fn dirty_len(&self) -> usize {
        self.inner.lock().dirty.len()
    }

    /// Hand a drained batch back after a failed flush: `entries` return to
    /// the *front* of the queue, ahead of whatever was inserted since the
    /// drain, so the next flush writes them in their original order.
    pub(crate) fn requeue_dirty(&self, mut entries: Vec<DirtyEntry>) {
        let mut g = self.inner.lock();
        entries.append(&mut g.dirty);
        g.dirty = entries;
    }

    /// Settle a batch of requests — all of one query's, or one block's: look
    /// every distinct key up once, prove the misses together, remember them,
    /// and answer each request, in order, from this call's own results (so
    /// the answer does not depend on what the cache could hold on to).
    ///
    /// A request that repeats a key of the same call costs a hit, not a
    /// second proof: [`CacheStats::misses`] counts distinct proofs computed.
    /// A group's `X₁` is summed only if its key misses. Errors are not
    /// cached (they are cheap to re-derive and carry context): a request
    /// whose proof fails gets the `Err` [`Accumulator::prove_disjoint`] would
    /// have given it, alone.
    pub fn resolve<E: AccElem>(
        &self,
        acc: &A,
        requests: Vec<ProofRequest<'_, E>>,
    ) -> Vec<Result<A::Proof, AccError>> {
        // One slot per distinct key, in first-request order.
        let mut slot_of: HashMap<Digest, usize> = HashMap::with_capacity(requests.len());
        let mut slots: Vec<Option<Result<A::Proof, AccError>>> = Vec::with_capacity(requests.len());
        let mut answers: Vec<usize> = Vec::with_capacity(requests.len());
        // The misses, grouped by X₁ — the `att` half of the key commits to it.
        let mut group_of: HashMap<Digest, usize> = HashMap::new();
        let mut groups: Vec<Misses<'_, E>> = Vec::new();
        for ProofRequest { key, x1, clause } in requests {
            let digest = key.digest();
            let slot = *slot_of.entry(digest).or_insert_with(|| {
                let hit = self.get_digest(acc, &digest);
                if hit.is_none() {
                    let group = *group_of.entry(key.att).or_insert_with(|| {
                        let x1 = match x1 {
                            X1::Node(ms) => Cow::Borrowed(ms),
                            X1::Group(members) => Cow::Owned(
                                members.iter().fold(MultiSet::new(), |sum, ms| sum.sum(ms)),
                            ),
                        };
                        groups.push(Misses { x1, clauses: Vec::new(), slots: Vec::new() });
                        groups.len() - 1
                    });
                    groups[group].clauses.push(clause);
                    groups[group].slots.push((slots.len(), key));
                }
                slots.push(hit.map(Ok));
                slots.len() - 1
            });
            answers.push(slot);
        }
        self.inner.lock().stats.hits += (answers.len() - slots.len()) as u64;

        if !groups.is_empty() {
            let jobs: Vec<(&MultiSet<E>, &[MultiSet<E>])> =
                groups.iter().map(|g| (&*g.x1, &g.clauses[..])).collect();
            let proved = acc.prove_disjoint_batch(&jobs);
            let missed = groups.iter().flat_map(|g| &g.slots);
            for (&(slot, key), result) in missed.zip(proved) {
                if let Ok(proof) = &result {
                    self.insert(key, proof.clone());
                }
                slots[slot] = Some(result);
            }
        }
        answers
            .into_iter()
            .map(|slot| slots[slot].clone().expect("every slot was a hit or has been proved"))
            .collect()
    }

    /// Number of cached proofs.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached proofs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Preloaded entries dropped because their bytes failed the checked
    /// decode at first hit (each such lookup also counted a miss).
    pub fn rejected(&self) -> u64 {
        self.inner.lock().rejected
    }

    /// Drop every entry and reset the counters (the rejection count too).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.map.clear();
        g.nodes.clear();
        g.free.clear();
        g.head = NIL;
        g.tail = NIL;
        g.stats = CacheStats::default();
        g.rejected = 0;
        g.dirty.clear();
    }
}

/// Digest of a clause's canonical `(index, count)` encoding — the `clause`
/// half of every [`CacheKey`].
fn clause_digest<E: AccElem>(clause: &MultiSet<E>) -> Digest {
    let mut bytes = Vec::with_capacity(16 * clause.distinct_len());
    for (e, c) in clause.iter() {
        bytes.extend_from_slice(&e.to_index().to_le_bytes());
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    hash_bytes(&bytes)
}

impl<A: Accumulator> Default for ProofCache<A> {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl<A: Accumulator> core::fmt::Debug for ProofCache<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let stats = self.stats();
        write!(f, "ProofCache(len={}, cap={}, {stats:?})", self.len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vchain_acc::Acc2;

    fn acc() -> Acc2 {
        Acc2::keygen(32, &mut StdRng::seed_from_u64(9))
    }

    fn ms(v: &[u64]) -> MultiSet<u64> {
        v.iter().copied().collect()
    }

    /// A one-request resolve: what a query with a single refutation asks.
    fn prove_one(
        cache: &ProofCache<Acc2>,
        a: &Acc2,
        att: &<Acc2 as Accumulator>::Value,
        x1: &MultiSet<u64>,
        clause: &MultiSet<u64>,
    ) -> Result<<Acc2 as Accumulator>::Proof, AccError> {
        cache.resolve(a, vec![ProofRequest::node::<Acc2>(att, x1, clause.clone())]).remove(0)
    }

    #[test]
    fn cold_then_warm_byte_identical() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(8);
        let x1 = ms(&[1, 2, 3]);
        let clause = ms(&[10, 11]);
        let att = a.setup(&x1);
        let cold = prove_one(&cache, &a, &att, &x1, &clause).unwrap();
        let warm = prove_one(&cache, &a, &att, &x1, &clause).unwrap();
        assert_eq!(Acc2::proof_bytes(&cold), Acc2::proof_bytes(&warm));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_separates_values_and_clauses() {
        let a = acc();
        let att1 = a.setup(&ms(&[1]));
        let att2 = a.setup(&ms(&[2]));
        let c1 = ms(&[10]);
        let c2 = ms(&[10, 10]); // multiplicity is part of the key
        assert_ne!(ProofCache::<Acc2>::key(&att1, &c1), ProofCache::<Acc2>::key(&att2, &c1));
        assert_ne!(ProofCache::<Acc2>::key(&att1, &c1), ProofCache::<Acc2>::key(&att1, &c2));
    }

    #[test]
    fn lru_evicts_oldest_and_refreshes_on_hit() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(2);
        let x = ms(&[1]);
        let att = a.setup(&x);
        let clauses = [ms(&[10]), ms(&[11]), ms(&[12])];
        let keys: Vec<CacheKey> =
            clauses.iter().map(|c| ProofCache::<Acc2>::key(&att, c)).collect();
        for c in &clauses[..2] {
            prove_one(&cache, &a, &att, &x, c).unwrap();
        }
        // touch the first entry so the *second* is now least recent
        assert!(cache.get(&a, &keys[0]).is_some());
        prove_one(&cache, &a, &att, &x, &clauses[2]).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a, &keys[0]).is_some(), "refreshed entry survives");
        assert!(cache.get(&a, &keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.get(&a, &keys[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn insert_same_key_updates_in_place() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(2);
        let x = ms(&[1]);
        let att = a.setup(&x);
        let key = ProofCache::<Acc2>::key(&att, &ms(&[10]));
        let p = a.prove_disjoint(&x, &ms(&[10])).unwrap();
        cache.insert(key, p);
        cache.insert(key, p);
        assert_eq!(cache.len(), 1);
    }

    /// Two threads that miss on the same query both insert; the second
    /// insert finds the key resident and must not log it again.
    #[test]
    fn insert_of_a_resident_key_queues_nothing() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(2).with_persistence();
        let x = ms(&[1]);
        let att = a.setup(&x);
        let key = ProofCache::<Acc2>::key(&att, &ms(&[10]));
        let p = a.prove_disjoint(&x, &ms(&[10])).unwrap();
        cache.insert(key, p);
        assert_eq!(cache.dirty_len(), 1);
        cache.insert(key, p);
        assert_eq!(cache.dirty_len(), 1, "a resident key is already queued or logged");
        cache.take_dirty();
        cache.insert(key, p);
        assert_eq!(cache.dirty_len(), 0, "flushed and still resident: nothing to write");
    }

    #[test]
    fn group_key_binds_members_order_and_clause() {
        let a = acc();
        let (att1, att2) = (a.setup(&ms(&[1])), a.setup(&ms(&[2])));
        let (c1, c2) = (ms(&[10]), ms(&[11]));
        let key = ProofCache::<Acc2>::group_key::<u64>;
        assert_eq!(key(&[&att1, &att2], &c1), key(&[&att1, &att2], &c1));
        assert_ne!(key(&[&att1, &att2], &c1), key(&[&att2, &att1], &c1));
        assert_ne!(key(&[&att1, &att2], &c1), key(&[&att1], &c1));
        assert_ne!(key(&[&att1, &att2], &c1), key(&[&att1, &att2], &c2));
        // a one-member group is not the member's inline entry
        assert_ne!(key(&[&att1], &c1).att, ProofCache::<Acc2>::key(&att1, &c1).att);
        assert_eq!(key(&[&att1], &c1).clause, ProofCache::<Acc2>::key(&att1, &c1).clause);
        // and it is the key shard logs have carried since PR 17: the tag,
        // then each member's serialized value, every part length-prefixed
        let (v1, v2) = (Acc2::value_bytes(&att1), Acc2::value_bytes(&att2));
        let logged = hash_concat(&[b"vchain/group-key", &v1, &v2]);
        assert_eq!(key(&[&att1, &att2], &c1).att, logged);
        let (x1, x2) = (ms(&[1]), ms(&[2]));
        let request = ProofRequest::group::<Acc2>([(&att1, &x1), (&att2, &x2)], c1);
        assert_eq!(request.key.att, logged);
    }

    #[test]
    fn clear_resets_everything() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(4);
        let x = ms(&[1]);
        let att = a.setup(&x);
        prove_one(&cache, &a, &att, &x, &ms(&[10])).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn errors_are_not_cached() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(4);
        let x = ms(&[1]);
        let att = a.setup(&x);
        assert_eq!(prove_one(&cache, &a, &att, &x, &ms(&[1])).unwrap_err(), AccError::NotDisjoint);
        assert!(cache.is_empty());
    }

    /// One resolve over a mixed bag — a warm key, cold keys on two nodes and
    /// a §6.3 group, a repeated key, a clause that cannot be proved — answers
    /// every request in order with what `prove_disjoint` gives, and counts a
    /// miss per distinct proof attempted, a hit per request answered without
    /// proving.
    #[test]
    fn resolve_answers_in_order_and_misses_are_distinct_proofs() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(16);
        let (x, y) = (ms(&[1, 2]), ms(&[2, 3]));
        let (att_x, att_y) = (a.setup(&x), a.setup(&y));
        let warm = prove_one(&cache, &a, &att_x, &x, &ms(&[10])).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, evictions: 0 });

        let node = |att, x1, clause: &[u64]| ProofRequest::node::<Acc2>(att, x1, ms(clause));
        let group =
            |clause: &[u64]| ProofRequest::group::<Acc2>([(&att_x, &x), (&att_y, &y)], ms(clause));
        let answers = cache.resolve(
            &a,
            vec![
                node(&att_x, &x, &[11]),
                node(&att_x, &x, &[10]), // warm
                node(&att_y, &y, &[11]),
                group(&[11, 12]),
                node(&att_x, &x, &[11]), // repeats request 0
                node(&att_y, &y, &[3]),  // intersects
                group(&[11, 12]),        // repeats request 3
                node(&att_x, &x, &[12]),
            ],
        );
        let sum = x.sum(&y);
        let expect = [
            a.prove_disjoint(&x, &ms(&[11])),
            Ok(warm),
            a.prove_disjoint(&y, &ms(&[11])),
            a.prove_disjoint(&sum, &ms(&[11, 12])),
            a.prove_disjoint(&x, &ms(&[11])),
            Err(AccError::NotDisjoint),
            a.prove_disjoint(&sum, &ms(&[11, 12])),
            a.prove_disjoint(&x, &ms(&[12])),
        ];
        assert_eq!(answers, expect);
        // five distinct cold keys (one of them unprovable), one warm key, two
        // repeats
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 6, evictions: 0 });
        assert_eq!(cache.len(), 5, "the failed proof is not cached");
        assert!(cache.resolve(&a, Vec::<ProofRequest<'_, u64>>::new()).is_empty());
    }

    /// Answers come from the resolver's own results: a cache that can hold
    /// one proof still answers a request for six, repeats included.
    #[test]
    fn capacity_one_cache_answers_a_multi_proof_resolve() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(1);
        let x = ms(&[1, 2, 3]);
        let att = a.setup(&x);
        let clauses: Vec<MultiSet<u64>> =
            [10u64, 11, 12, 10, 13, 11].iter().map(|&e| ms(&[e])).collect();
        let requests = clauses.iter().map(|c| ProofRequest::node::<Acc2>(&att, &x, c.clone()));
        let answers = cache.resolve(&a, requests.collect());
        for (answer, c) in answers.iter().zip(&clauses) {
            assert_eq!(*answer, a.prove_disjoint(&x, c));
        }
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 4, evictions: 3 });
        assert_eq!(cache.len(), 1);
    }

    /// A preloaded record stays bytes until a lookup asks for it; a good
    /// one decodes into a hit, a bad one is dropped, counted and re-proved
    /// as a miss — and the re-proved proof is queued for the log again.
    #[test]
    fn preloaded_bytes_decode_on_first_hit_and_bad_bytes_cost_a_miss() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(2).with_persistence();
        let x = ms(&[1]);
        let att = a.setup(&x);
        let (good, bad) = (ms(&[10]), ms(&[11]));
        let proof = a.prove_disjoint(&x, &good).unwrap();
        let n = a.proof_size();
        // the first of three preloads into two slots is displaced
        cache.preload(ProofCache::<Acc2>::key(&att, &ms(&[12])), vec![0; n]);
        cache.preload(ProofCache::<Acc2>::key(&att, &good), Acc2::proof_bytes(&proof));
        cache.preload(ProofCache::<Acc2>::key(&att, &bad), vec![0xff; n]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), CacheStats::default(), "a preload counts nothing");
        assert_eq!(cache.dirty_len(), 0);

        assert_eq!(prove_one(&cache, &a, &att, &x, &good), Ok(proof));
        assert_eq!(prove_one(&cache, &a, &att, &x, &good), Ok(proof));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 0, evictions: 0 });
        assert_eq!(cache.dirty_len(), 0, "a decoded write-back is not re-logged");

        assert_eq!(prove_one(&cache, &a, &att, &x, &bad), a.prove_disjoint(&x, &bad));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, evictions: 0 });
        assert_eq!(cache.rejected(), 1);
        assert_eq!(cache.dirty_len(), 1, "the re-proved proof is logged afresh");
        assert_eq!(prove_one(&cache, &a, &att, &x, &bad), a.prove_disjoint(&x, &bad));
        assert_eq!((cache.stats().hits, cache.rejected()), (3, 1));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let a = acc();
        let cache: ProofCache<Acc2> = ProofCache::new(64);
        let x = ms(&[1, 2]);
        let att = a.setup(&x);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, a, x, att) = (&cache, &a, &x, &att);
                s.spawn(move || {
                    for i in 0..8u64 {
                        let clause = ms(&[10 + (t + i) % 6]);
                        prove_one(cache, a, att, x, &clause).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 6, "one entry per distinct clause");
    }
}
