//! Client-side result verification (paper §5.1, §6; security model §8).
//!
//! The light-node user holds only validated block headers. Given `⟨R, VO⟩`
//! from the untrusted SP, verification establishes:
//!
//! * **Soundness** — every returned object is authentic (its leaf hash
//!   reconstructs the header commitment) and satisfies the query (checked
//!   directly), and every mismatch proof verifies against a clause that is
//!   genuinely part of the query.
//! * **Completeness** — the coverage entries reconstruct the committed ADS
//!   roots, so no leaf can be hidden; every in-window block is covered
//!   exactly once; skips verify against the committed skip-list roots.

// This module sits on the Byzantine-SP boundary: every function here runs
// on attacker-shaped input, so panicking constructs are denied outright
// (audited again by the `panic_audit` integration test).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

use vchain_acc::{Accumulator, BatchItem, DecodeError};
use vchain_chain::{LightClient, Object};
use vchain_hash::{hash_pair, Digest};

use crate::client::StreamVerifier;
use crate::inter::{level_hash_from_parts, pre_skipped_hash, skiplist_root_from_hashes};
use crate::intra::{internal_hash, leaf_hash};
use crate::miner::{IndexScheme, MinerConfig};
use crate::query::CompiledQuery;
use crate::vo::{
    Att, BlockCoverage, BlockVo, ClauseRef, MismatchProof, ProofBytes, QueryResponse, VoNode,
};
use crate::wire::WireError;

/// Why verification rejected a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The reconstructed ADS root differs from the block header.
    RootMismatch {
        /// Offending block height.
        height: u64,
    },
    /// A disjointness proof failed.
    BadProof {
        /// Offending block height.
        height: u64,
    },
    /// A clause reference is not valid for this query.
    BadClause {
        /// Offending block height.
        height: u64,
    },
    /// A returned object does not satisfy the query (or its timestamp lies
    /// outside the window).
    ResultNotMatching {
        /// Offending block height.
        height: u64,
        /// Id of the object that does not match.
        object_id: u64,
    },
    /// Results referenced by the VO are missing or duplicated.
    ResultIndexing {
        /// Offending block height.
        height: u64,
    },
    /// A block in the window is not covered by the VO.
    MissingCoverage {
        /// The uncovered height.
        height: u64,
    },
    /// A block is covered more than once.
    DuplicateCoverage {
        /// The doubly-covered height.
        height: u64,
    },
    /// The skip hash chain does not match the light client's headers.
    SkipHashMismatch {
        /// Height of the block whose skip list was used.
        height: u64,
    },
    /// The reconstructed skip-list root differs from the header.
    SkipRootMismatch {
        /// Height of the block whose skip list was used.
        height: u64,
    },
    /// The response used a structure the scheme does not provide.
    SchemeViolation,
    /// The light client has no header at this height.
    UnknownBlock {
        /// The unknown height.
        height: u64,
    },
    /// A batch group reference is dangling.
    BadGroup {
        /// Offending block height.
        height: u64,
    },
    /// Batch groups require an aggregating accumulator.
    AggregationUnsupported,
    /// Time-window verification was invoked on a query compiled without a
    /// window (a subscription query fed to the wrong entry point).
    MissingWindow,
    /// A subscription update claims an invalid or unanchored height
    /// interval (`from > to`, or endpoints beyond the known chain).
    InvalidUpdateInterval {
        /// Claimed first covered height.
        from: u64,
        /// Claimed last covered height.
        to: u64,
    },
    /// The response bytes failed structural decoding before any
    /// cryptographic check ran.
    Malformed(crate::wire::WireError),
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VerifyError {}

/// Verify a time-window query response straight from untrusted wire bytes
/// ([`crate::wire::encode_response_v2`], a one-window frame stream): the
/// streamed pipeline ([`StreamVerifier`]) fed the whole input at once. This
/// is the light client's network-facing entry point for a single window —
/// no input can panic it. Bytes that are not a one-window stream (another
/// declared window count, another body version, an empty or cut input) are
/// [`VerifyError::Malformed`].
pub fn verify_encoded_response<A: Accumulator>(
    q: &CompiledQuery,
    bytes: &[u8],
    light: &LightClient,
    cfg: &MinerConfig,
    acc: &A,
) -> Result<Vec<Object>, VerifyError> {
    let mut v = StreamVerifier::new(vec![q.clone()], light.clone(), *cfg, acc.clone());
    v.feed(bytes)?;
    let (windows, _) = v.finish()?;
    // one result list per query, and there is one query
    Ok(windows.into_iter().flatten().collect())
}

/// Verify a time-window query response against the light client's headers.
/// On success returns the verified result objects (newest block first).
pub fn verify_response<A: Accumulator>(
    q: &CompiledQuery,
    response: &QueryResponse<A>,
    light: &LightClient,
    cfg: &MinerConfig,
    acc: &A,
) -> Result<Vec<Object>, VerifyError> {
    let verifier = WindowVerifier::for_window(Cow::Borrowed(q), Cow::Borrowed(light), *cfg)?;
    verify_coverage(verifier, &response.results, &response.coverage, acc)
}

/// Deferred disjointness checks, collected across a whole response — or,
/// handed from window to window by `core::client::WindowScan`, a whole
/// scan — then flushed as one random-linear-combination batch: every
/// skip-entry, inline-mismatch and §6.3 batch-group check lands here, so
/// an entire query response (or an 8-window scan) costs O(1) final
/// exponentiations instead of O(clauses).
///
/// This is also where a VO stops being bytes. A VO carries AttDigests as
/// [`Att`]s and proofs as [`ProofBytes`]. The AttDigests a check consumes
/// become group elements through [`DisjointBatch::operand`] — only the
/// component the pairing equation reads ([`Accumulator::Operand`]) — and
/// every proof pushed becomes one through the checked
/// [`Accumulator::proof_from_bytes`]; each distinct byte string is decoded
/// once per batch. A failed decode of either is the SP's malformed bytes,
/// [`VerifyError::Malformed`] with [`WireError::Accumulator`].
///
/// The Fiat–Shamir transcript for the batch coefficients is bound to the
/// covered block heights in push order
/// ([`vchain_acc::Accumulator::batch_verify_disjoint`]'s `context`):
/// the *cross-block transcript*. Coefficients are verifier-local, so this
/// binding changes nothing on the wire.
pub struct DisjointBatch<A: Accumulator> {
    items: Vec<BatchItem<A>>,
    heights: Vec<u64>,
    operands: HashMap<Att, A::Operand>,
    proofs: HashMap<ProofBytes<A>, A::Proof>,
}

impl<A: Accumulator> Default for DisjointBatch<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Accumulator> DisjointBatch<A> {
    /// An empty batch.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            heights: Vec::new(),
            operands: HashMap::new(),
            proofs: HashMap::new(),
        }
    }

    /// The pairing operand of an AttDigest, through the checked decode
    /// ([`Accumulator::operand_from_bytes`]) the first time these bytes are
    /// seen and from the batch's cache afterwards. A failed decode is the
    /// SP's malformed bytes, reported as such.
    pub fn operand(&mut self, acc: &A, att: &Att) -> Result<A::Operand, VerifyError> {
        decode_once(&mut self.operands, att, || acc.operand_from_bytes(att.as_bytes()))
    }

    /// Defer one disjointness check of `a1` against the clause value `a2`
    /// by `proof`, attributed to `height` for error reporting and
    /// transcript binding. The proof passes the checked decode
    /// ([`Accumulator::proof_from_bytes`]) the first time these bytes are
    /// seen and comes from the batch's cache afterwards; bytes that fail it
    /// are [`VerifyError::Malformed`], and nothing is deferred.
    pub fn push(
        &mut self,
        acc: &A,
        a1: A::Operand,
        a2: A::Value,
        proof: &ProofBytes<A>,
        height: u64,
    ) -> Result<(), VerifyError> {
        let proof =
            decode_once(&mut self.proofs, proof, || acc.proof_from_bytes(proof.as_bytes()))?;
        self.items.push((a1, a2, proof));
        self.heights.push(height);
        Ok(())
    }

    /// Deferred checks currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch holds no deferred checks.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cross-block transcript context: the covered heights, length
    /// prefixed, in push order.
    fn context(&self) -> Vec<u8> {
        let mut ctx = Vec::with_capacity(8 + 8 * self.heights.len());
        ctx.extend_from_slice(&(self.heights.len() as u64).to_le_bytes());
        for h in &self.heights {
            ctx.extend_from_slice(&h.to_le_bytes());
        }
        ctx
    }

    /// Run the aggregated check
    /// ([`vchain_acc::Accumulator::batch_verify_disjoint`]); on rejection
    /// its per-item fallback re-verifies the *same* item slice, so the
    /// error still names the offending height.
    pub fn flush(self, acc: &A) -> Result<(), VerifyError> {
        let ctx = self.context();
        acc.batch_verify_disjoint(&ctx, &self.items).map_err(|i| VerifyError::BadProof {
            height: self.heights.get(i).copied().unwrap_or(0),
        })
    }
}

/// Incremental window verification: the per-coverage-entry core of
/// [`verify_with_expected`], factored out so callers can drive it one
/// entry at a time — which is exactly what the streamed pipeline
/// (`core::client`) needs to verify block *i* before block *i + 1* has
/// arrived.
///
/// Borrows are [`Cow`]s: the batch path ([`verify_with_expected`]) passes
/// borrowed query/headers and pays zero clones; the streamed pipeline
/// passes owned copies, giving a `WindowVerifier<'static, A>` its scan can
/// hold beside the queries it owns. The accumulator is *not* stored —
/// every method takes it by reference.
pub struct WindowVerifier<'a, A: Accumulator> {
    q: Cow<'a, CompiledQuery>,
    light: Cow<'a, LightClient>,
    cfg: MinerConfig,
    expected: BTreeSet<u64>,
    covered: BTreeSet<u64>,
    verified_results: Vec<Object>,
    result_heights: BTreeSet<u64>,
    clause_cache: ClauseCache<A>,
    batch: DisjointBatch<A>,
}

impl<'a, A: Accumulator> WindowVerifier<'a, A> {
    /// A verifier over an explicit expected-coverage set (the subscription
    /// entry point; window queries use [`WindowVerifier::for_window`]).
    pub fn new(
        q: Cow<'a, CompiledQuery>,
        light: Cow<'a, LightClient>,
        cfg: MinerConfig,
        expected: BTreeSet<u64>,
    ) -> Self {
        Self {
            q,
            light,
            cfg,
            expected,
            covered: BTreeSet::new(),
            verified_results: Vec::new(),
            result_heights: BTreeSet::new(),
            clause_cache: ClauseCache::new(),
            batch: DisjointBatch::new(),
        }
    }

    /// A verifier whose expected coverage is derived from the query's time
    /// window against the light client's headers: every known block whose
    /// timestamp is in-window. Errors with [`VerifyError::MissingWindow`]
    /// on a windowless (subscription) query.
    pub fn for_window(
        q: Cow<'a, CompiledQuery>,
        light: Cow<'a, LightClient>,
        cfg: MinerConfig,
    ) -> Result<Self, VerifyError> {
        let (ts, te) = q.time_window.ok_or(VerifyError::MissingWindow)?;
        let expected: BTreeSet<u64> = light
            .headers()
            .iter()
            .filter(|h| h.timestamp >= ts && h.timestamp <= te)
            .map(|h| h.height)
            .collect();
        Ok(Self::new(q, light, cfg, expected))
    }

    /// Continue `batch` instead of starting an empty one: a scan hands its
    /// one batch — deferred checks and decoded operands — from each window
    /// to the next ([`WindowVerifier::finish_deferred`] gives it back).
    pub fn with_batch(mut self, batch: DisjointBatch<A>) -> Self {
        self.batch = batch;
        self
    }

    /// The expected coverage set this verifier enforces.
    pub fn expected(&self) -> &BTreeSet<u64> {
        &self.expected
    }

    /// Deferred pairing checks collected so far (flushed or folded by the
    /// finish flavours).
    pub fn pending_checks(&self) -> usize {
        self.batch.len()
    }

    /// Verify one coverage entry. `block_results` are the claimed result
    /// objects for the entry's block (empty for skips). Defers all pairing
    /// checks into the internal batch; a returned error is terminal for the
    /// response.
    pub fn entry(
        &mut self,
        acc: &A,
        cov: &BlockCoverage<A>,
        block_results: &[Object],
    ) -> Result<(), VerifyError> {
        match cov {
            BlockCoverage::Block { height, vo } => {
                let header = self
                    .light
                    .header(*height)
                    .ok_or(VerifyError::UnknownBlock { height: *height })?;
                let ads_root = header.ads_root;
                if !self.covered.insert(*height) {
                    return Err(VerifyError::DuplicateCoverage { height: *height });
                }
                if !block_results.is_empty() {
                    self.result_heights.insert(*height);
                }
                let root = verify_block_vo_into(
                    vo,
                    block_results,
                    &self.q,
                    acc,
                    *height,
                    &self.cfg,
                    &mut self.clause_cache,
                    &mut self.batch,
                )?;
                if root != ads_root {
                    return Err(VerifyError::RootMismatch { height: *height });
                }
                // every result object satisfies the query *and* the window
                for o in block_results {
                    if !self.q.object_matches(o) {
                        return Err(VerifyError::ResultNotMatching {
                            height: *height,
                            object_id: o.id,
                        });
                    }
                }
                self.verified_results.extend(block_results.iter().cloned());
                Ok(())
            }
            BlockCoverage::Skip { height, distance, att, proof, clause, siblings } => {
                if self.cfg.scheme != IndexScheme::Both {
                    return Err(VerifyError::SchemeViolation);
                }
                let header = self
                    .light
                    .header(*height)
                    .ok_or(VerifyError::UnknownBlock { height: *height })?;
                if *distance > *height {
                    return Err(VerifyError::SkipHashMismatch { height: *height });
                }
                let skiplist_root = header.skiplist_root;
                // 1. the covered run: mark blocks as covered
                for hh in (*height - *distance)..*height {
                    // blocks outside the window may be covered harmlessly,
                    // but duplicates within the window are rejected
                    if self.expected.contains(&hh) && !self.covered.insert(hh) {
                        return Err(VerifyError::DuplicateCoverage { height: hh });
                    }
                }
                // 2. recompute PreSkippedHash from the user's own headers
                let mut hashes = Vec::with_capacity(*distance as usize);
                for hh in (*height - *distance)..*height {
                    hashes.push(
                        self.light
                            .block_hash(hh)
                            .ok_or(VerifyError::UnknownBlock { height: hh })?,
                    );
                }
                let psh = pre_skipped_hash(&hashes);
                // 3. rebuild SkipListRoot with the provided sibling levels
                let mut level_hashes: Vec<(u64, Digest)> = siblings.clone();
                level_hashes.push((*distance, level_hash_from_parts(&psh, att)));
                level_hashes.sort_by_key(|(d, _)| *d);
                let root = skiplist_root_from_hashes(
                    &level_hashes.iter().map(|(_, h)| *h).collect::<Vec<_>>(),
                );
                if root != skiplist_root {
                    return Err(VerifyError::SkipRootMismatch { height: *height });
                }
                // 4. the disjointness proof against a valid clause
                let clause_val = resolve_clause(acc, &self.q, clause, &mut self.clause_cache)
                    .ok_or(VerifyError::BadClause { height: *height })?;
                let operand = self.batch.operand(acc, att)?;
                self.batch.push(acc, operand, clause_val, proof, *height)
            }
        }
    }

    /// The completeness checks shared by both finish flavours: every
    /// expected block covered, no results smuggled in for uncovered blocks.
    fn check_complete(&self) -> Result<(), VerifyError> {
        if let Some(&missing) = self.expected.difference(&self.covered).next() {
            return Err(VerifyError::MissingCoverage { height: missing });
        }
        for h in &self.result_heights {
            if !self.expected.contains(h) {
                return Err(VerifyError::ResultIndexing { height: *h });
            }
        }
        Ok(())
    }

    /// Flush the deferred pairing batch, run the completeness checks, and
    /// return the verified results (coverage order).
    pub fn finish(mut self, acc: &A) -> Result<Vec<Object>, VerifyError> {
        std::mem::take(&mut self.batch).flush(acc)?;
        self.check_complete()?;
        Ok(self.verified_results)
    }

    /// Like [`WindowVerifier::finish`], but instead of flushing, hand the
    /// batch back with this window's deferred pairing checks in it — the
    /// cross-window aggregation a multi-window scan uses to pay for one
    /// pairing flush instead of one per window (`core::client::WindowScan`).
    ///
    /// The returned results are *provisional* until the batch is flushed:
    /// the structural and hash-chain checks have all passed, but the
    /// disjointness proofs have not been pairing-checked yet.
    pub fn finish_deferred(self) -> Result<(Vec<Object>, DisjointBatch<A>), VerifyError> {
        self.check_complete()?;
        Ok((self.verified_results, self.batch))
    }
}

/// Verification against an explicit set of expected block heights — the
/// form subscription updates (§7) take, whose expected coverage is the
/// interval since the last update.
pub fn verify_with_expected<A: Accumulator>(
    q: &CompiledQuery,
    results: &[(u64, Vec<Object>)],
    coverage: &[BlockCoverage<A>],
    light: &LightClient,
    cfg: &MinerConfig,
    acc: &A,
    expected: BTreeSet<u64>,
) -> Result<Vec<Object>, VerifyError> {
    let verifier = WindowVerifier::new(Cow::Borrowed(q), Cow::Borrowed(light), *cfg, expected);
    verify_coverage(verifier, results, coverage, acc)
}

/// Drive `verifier` over the coverage entries, pairing each block entry
/// with its claimed result objects, then flush and check completeness.
fn verify_coverage<A: Accumulator>(
    mut verifier: WindowVerifier<'_, A>,
    results: &[(u64, Vec<Object>)],
    coverage: &[BlockCoverage<A>],
    acc: &A,
) -> Result<Vec<Object>, VerifyError> {
    let results_by_height: BTreeMap<u64, &Vec<Object>> =
        results.iter().map(|(h, v)| (*h, v)).collect();
    if results_by_height.len() != results.len() {
        return Err(VerifyError::ResultIndexing { height: 0 });
    }

    static EMPTY: Vec<Object> = Vec::new();
    for cov in coverage {
        let block_results = match cov {
            BlockCoverage::Block { height, .. } => {
                results_by_height.get(height).copied().unwrap_or(&EMPTY)
            }
            BlockCoverage::Skip { .. } => &EMPTY,
        };
        verifier.entry(acc, cov, block_results)?;
    }

    let expected = verifier.expected().clone();
    let verified_results = verifier.finish(acc)?;

    // No results smuggled in for uncovered blocks — including height keys
    // that carry an *empty* object list, which the entry-level bookkeeping
    // above cannot see.
    for h in results_by_height.keys() {
        if !expected.contains(h) {
            return Err(VerifyError::ResultIndexing { height: *h });
        }
    }

    Ok(verified_results)
}

/// A cache of clause accumulator values. Clause sets are query-side and
/// reused across blocks, so the verifier computes each `acc(ϒᵢ)` once.
pub struct ClauseCache<A: Accumulator>(HashMap<ClauseKey, A::Value>);

impl<A: Accumulator> ClauseCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        Self(HashMap::new())
    }
}

impl<A: Accumulator> Default for ClauseCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum ClauseKey {
    Index(u16),
    Cell(u8, Vec<(u8, u64)>),
}

fn clause_key(c: &ClauseRef) -> ClauseKey {
    match c {
        ClauseRef::Index(i) => ClauseKey::Index(*i),
        ClauseRef::Cell { len, prefixes } => ClauseKey::Cell(*len, prefixes.clone()),
    }
}

/// Resolve a clause reference to its accumulator value, caching by key.
/// `None` when the reference is not valid for this query.
pub fn resolve_clause<A: Accumulator>(
    acc: &A,
    q: &CompiledQuery,
    clause: &ClauseRef,
    cache: &mut ClauseCache<A>,
) -> Option<A::Value> {
    let key = clause_key(clause);
    if let Some(v) = cache.0.get(&key) {
        return Some(v.clone());
    }
    let ms = clause.resolve(q).ok()?;
    // The reference decoded from the VO can name element sets the key was
    // never sized for — that is the SP's problem, not a verifier panic.
    let v = acc.try_setup(&ms).ok()?;
    cache.0.insert(key, v.clone());
    Some(v)
}

/// `cache[key]`, or else `decode()`'s value, remembered under `key`: a
/// batch decodes each distinct byte string once. A failed decode is the
/// SP's malformed bytes.
fn decode_once<K: Clone + Eq + Hash, V: Clone>(
    cache: &mut HashMap<K, V>,
    key: &K,
    decode: impl FnOnce() -> Result<V, DecodeError>,
) -> Result<V, VerifyError> {
    if let Some(v) = cache.get(key) {
        return Ok(v.clone());
    }
    let v = decode().map_err(|e| VerifyError::Malformed(WireError::Accumulator(e)))?;
    cache.insert(key.clone(), v.clone());
    Ok(v)
}

/// Verify one block VO and return the reconstructed ADS root, with the
/// pairing checks deferred into `batch`.
#[allow(clippy::too_many_arguments)]
fn verify_block_vo_into<A: Accumulator>(
    vo: &BlockVo<A>,
    block_results: &[Object],
    q: &CompiledQuery,
    acc: &A,
    height: u64,
    cfg: &MinerConfig,
    clause_cache: &mut ClauseCache<A>,
    batch: &mut DisjointBatch<A>,
) -> Result<Digest, VerifyError> {
    let mut consumed = vec![false; block_results.len()];
    // group id -> member operands (summed and verified after the walk)
    let mut group_members: BTreeMap<u16, Vec<A::Operand>> = BTreeMap::new();
    let root = walk(
        &vo.root,
        block_results,
        &mut consumed,
        q,
        acc,
        height,
        cfg,
        clause_cache,
        &mut group_members,
        batch,
    )?;
    if !consumed.iter().all(|&c| c) {
        return Err(VerifyError::ResultIndexing { height });
    }
    // §6.3: each batch group costs one Sum; its disjointness check joins
    // the deferred batch like every other proof. A group no node names
    // would reach no check, and an honest VO has none.
    if group_members.len() != vo.groups.len() {
        return Err(VerifyError::BadGroup { height });
    }
    for (gid, members) in group_members {
        let g = vo.groups.get(gid as usize).ok_or(VerifyError::BadGroup { height })?;
        if !acc.supports_aggregation() {
            return Err(VerifyError::AggregationUnsupported);
        }
        let summed = acc.sum_operands(&members).map_err(|_| VerifyError::AggregationUnsupported)?;
        let clause_val = resolve_clause(acc, q, &g.clause, clause_cache)
            .ok_or(VerifyError::BadClause { height })?;
        batch.push(acc, summed, clause_val, &g.proof, height)?;
    }
    Ok(root)
}

#[allow(clippy::too_many_arguments)]
fn walk<A: Accumulator>(
    node: &VoNode<A>,
    block_results: &[Object],
    consumed: &mut [bool],
    q: &CompiledQuery,
    acc: &A,
    height: u64,
    cfg: &MinerConfig,
    clause_cache: &mut ClauseCache<A>,
    group_members: &mut BTreeMap<u16, Vec<A::Operand>>,
    batch: &mut DisjointBatch<A>,
) -> Result<Digest, VerifyError> {
    match node {
        VoNode::Internal { att, left, right } => {
            let hl = walk(
                left,
                block_results,
                consumed,
                q,
                acc,
                height,
                cfg,
                clause_cache,
                group_members,
                batch,
            )?;
            let hr = walk(
                right,
                block_results,
                consumed,
                q,
                acc,
                height,
                cfg,
                clause_cache,
                group_members,
                batch,
            )?;
            let pair = hash_pair(&hl, &hr);
            match (att, cfg.scheme) {
                // `nil` internal nodes are plain Merkle pairs
                (None, IndexScheme::Nil) => Ok(pair),
                (Some(a), IndexScheme::Intra | IndexScheme::Both) => Ok(internal_hash(&pair, a)),
                // scheme/structure mismatch — an SP cannot downgrade the
                // index to dodge pruning commitments
                _ => Err(VerifyError::SchemeViolation),
            }
        }
        VoNode::InternalMismatch { child_hash, att, proof } => {
            if cfg.scheme == IndexScheme::Nil {
                return Err(VerifyError::SchemeViolation);
            }
            check_mismatch_proof(att, proof, q, acc, height, clause_cache, group_members, batch)?;
            Ok(internal_hash(child_hash, att))
        }
        VoNode::LeafMatch { att, result_idx } => {
            let idx = *result_idx as usize;
            let obj = block_results.get(idx).ok_or(VerifyError::ResultIndexing { height })?;
            if consumed[idx] {
                return Err(VerifyError::ResultIndexing { height });
            }
            consumed[idx] = true;
            Ok(leaf_hash(&obj.digest(), att))
        }
        VoNode::LeafMismatch { obj_hash, att, proof } => {
            check_mismatch_proof(att, proof, q, acc, height, clause_cache, group_members, batch)?;
            Ok(leaf_hash(obj_hash, att))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_mismatch_proof<A: Accumulator>(
    att: &Att,
    proof: &MismatchProof<A>,
    q: &CompiledQuery,
    acc: &A,
    height: u64,
    clause_cache: &mut ClauseCache<A>,
    group_members: &mut BTreeMap<u16, Vec<A::Operand>>,
    batch: &mut DisjointBatch<A>,
) -> Result<(), VerifyError> {
    match proof {
        MismatchProof::Inline { proof, clause } => {
            let clause_val = resolve_clause(acc, q, clause, clause_cache)
                .ok_or(VerifyError::BadClause { height })?;
            let operand = batch.operand(acc, att)?;
            batch.push(acc, operand, clause_val, proof, height)
        }
        MismatchProof::Group(gid) => {
            group_members.entry(*gid).or_default().push(batch.operand(acc, att)?);
            Ok(())
        }
    }
}
