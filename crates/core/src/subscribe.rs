//! Verifiable subscription queries (paper §7).
//!
//! The [`SubscriptionEngine`] is the SP-side component that, for every newly
//! confirmed block, produces per-query `⟨R, VO⟩` updates:
//!
//! * **Real-time mode** publishes an update to every registered query on
//!   every block (match or mismatch).
//! * **Lazy mode** (§7.2, Algorithm 5; requires the aggregating
//!   Construction 2 and the inter-block index) buffers whole-block
//!   mismatches on a stack and compresses runs with skip-list entries and
//!   `ProofSum`, publishing only when a block's root multiset matches.
//! * **Shared refutations** (§7.1). Queries with identical clause content
//!   always share one proof (the IP-Tree's BCIF effect — it falls out of
//!   the `(AttDigest, clause)` key of the [`ProofCache`] and of the
//!   [`SubscriptionIndex`] content registry). `use_iptree` adds the RCIF
//!   effect in either mode: every query is also given the grid [`Cell`]
//!   enclosing its range box, and a node outside that cell is refuted by
//!   the cell clause, one proof for every query the cell encloses.
//!
//! # The inverted match path
//!
//! At 10⁵–10⁶ standing queries, walking every query per block is the wall.
//! The default [`WalkStrategy::Indexed`] inverts it: the elements of the
//! block's root multiset resolve the *candidate* queries through the
//! [`crate::subindex`] posting lists, every non-candidate gets the same
//! root-level refutation the reference walk would emit (first disjoint
//! clause, or shared grid cell), and only the candidates walk the tree.
//! Nothing is proved along the way: the distinct root-level refutations and
//! every refutation of every candidate's walk are [`ProofRequest`]s, and
//! one [`ProofCache::resolve`] per block answers them all — the cross-block
//! cache first, the distinct misses as one batch for the prover, where
//! standing queries that share only a *literal* still share that literal's
//! part of the work. The original walk
//! survives as [`WalkStrategy::Naive`] — the in-tree reference twin that the
//! differential suite (`tests/subscribe_diff.rs`) pins the fast path against
//! byte-for-byte, resolving query by query. [`SubscriptionEngine::match_block`] /
//! [`SubscriptionEngine::publish`] expose the two halves separately so the
//! match stage can be measured and tested without materializing updates.

use std::collections::{BTreeMap, HashMap};

use vchain_acc::{AccError, Accumulator};
use vchain_chain::{Block, LightClient, Object};
use vchain_hash::Digest;

use crate::cache::{ProofCache, ProofRequest};
use crate::element::ElementId;
use crate::intra::{IntraNodeKind, PlannedVo};
use crate::miner::{IndexScheme, IndexedBlock, MinerConfig};
use crate::query::{CompiledQuery, Query};
use crate::subindex::{Cell, QueryId, SubscriptionIndex};
use crate::verify::{verify_with_expected, VerifyError};
use crate::vo::{Att, BlockCoverage, BlockVo, ClauseRef, MismatchProof, VoNode};

/// Publication policy (paper §7.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscriptionMode {
    /// Publish an update to every registered query on every block.
    Realtime,
    /// §7.2, Algorithm 5: buffer whole-block mismatches, compress runs with
    /// skip entries and `ProofSum`, publish on the next match.
    Lazy,
}

/// One published update for one query: results plus the VO covering every
/// block since the previous update.
#[derive(Clone, Debug)]
pub struct SubscriptionUpdate<A: Accumulator> {
    /// The subscription this update answers.
    pub query_id: QueryId,
    /// First height covered by this update (inclusive).
    pub from_height: u64,
    /// Last height covered by this update (inclusive).
    pub to_height: u64,
    /// Matching objects, grouped by height.
    pub results: Vec<(u64, Vec<Object>)>,
    /// The VO covering every block in `[from_height, to_height]`.
    pub coverage: Vec<BlockCoverage<A>>,
}

/// Verify a subscription update against the light client's headers: the
/// same soundness/completeness machinery as time-window queries, with the
/// expected coverage being the update's height interval.
pub fn verify_subscription_update<A: Accumulator>(
    q: &CompiledQuery,
    update: &SubscriptionUpdate<A>,
    light: &LightClient,
    cfg: &MinerConfig,
    acc: &A,
) -> Result<Vec<Object>, VerifyError> {
    // The interval is an untrusted claim: anchor it to the user's own
    // headers *before* materializing it, or a wire value like
    // `[0, u64::MAX]` turns the collect below into an allocation bomb.
    if update.from_height > update.to_height
        || light.header(update.from_height).is_none()
        || light.header(update.to_height).is_none()
    {
        return Err(VerifyError::InvalidUpdateInterval {
            from: update.from_height,
            to: update.to_height,
        });
    }
    let expected = (update.from_height..=update.to_height).collect();
    verify_with_expected(q, &update.results, &update.coverage, light, cfg, acc, expected)
}

/// Verify a subscription update straight from untrusted wire bytes:
/// structural decode ([`crate::wire`]) then full verification.
pub fn verify_encoded_subscription_update<A: Accumulator>(
    q: &CompiledQuery,
    bytes: &[u8],
    light: &LightClient,
    cfg: &MinerConfig,
    acc: &A,
) -> Result<Vec<Object>, VerifyError> {
    let update = crate::wire::decode_update(acc, bytes).map_err(VerifyError::Malformed)?;
    verify_subscription_update(q, &update, light, cfg, acc)
}

/// Which matcher [`SubscriptionEngine::match_block`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkStrategy {
    /// Attribute-indexed candidate resolution (subscription index + batched
    /// shared refutations). The default.
    Indexed,
    /// The original per-query walk, retained as the reference twin the
    /// differential suite compares against (same pattern as the eager tower
    /// twin in `vchain-pairing`). Output is byte-identical to `Indexed`.
    Naive,
}

/// How the intra-tree root is reproduced when materializing shared
/// root-level mismatches without re-touching the tree.
enum RootShape {
    /// An internal root: its AttDigest and child-pair hash.
    Internal { att: Att, child_hash: Digest },
    /// A single-object block: the root is a leaf.
    Leaf { att: Att, obj_hash: Digest },
    /// No shared mismatches were produced (naive strategy, or nil scheme).
    Opaque,
}

/// The outcome of matching one block against one query. The walked payload
/// is boxed so the common whole-block-refutation case stays a few words:
/// at 10⁵ standing queries the outcome vector is rebuilt every block, and
/// its element size is pure memory traffic.
enum MatchOutcome<A: Accumulator> {
    /// The query walked the intra-block tree (candidate or naive path).
    Walked(Box<(Vec<Object>, BlockVo<A>)>),
    /// Whole-block mismatch sharing proof `proof` of the block match's
    /// proof table.
    Shared { proof: usize, clause: ClauseRef },
}

/// The result of [`SubscriptionEngine::match_block`]: every registered
/// query's outcome for one block, with whole-block refutations held as
/// indices into a shared proof table instead of per-query copies.
pub struct BlockMatch<A: Accumulator> {
    height: u64,
    root: RootShape,
    proofs: Vec<A::Proof>,
    /// Ascending by query id — the publish order.
    outcomes: Vec<(QueryId, MatchOutcome<A>)>,
    /// How many queries had to walk the intra-block tree. The scale suite
    /// asserts this stays ≪ Q on selective workloads.
    pub candidates: usize,
}

impl<A: Accumulator> BlockMatch<A> {
    /// The matched block's height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Number of distinct whole-block refutation proofs shared this block.
    pub fn shared_proofs(&self) -> usize {
        self.proofs.len()
    }
}

/// Per-query lazy-mode state: buffered whole-block mismatches, all sharing
/// one clause (Algorithm 5's stack).
struct LazyState<A: Accumulator> {
    clause_idx: Option<usize>,
    pending: Vec<BlockCoverage<A>>,
    /// First height not yet reported to the subscriber.
    from_height: u64,
}

/// The SP-side subscription processor.
pub struct SubscriptionEngine<A: Accumulator> {
    /// The public system parameters this chain was mined under.
    pub cfg: MinerConfig,
    /// The accumulator scheme handle (public key).
    pub acc: A,
    /// Publication policy.
    pub mode: SubscriptionMode,
    /// Whether range refutations are shared per enclosing grid cell (§7.1).
    pub use_iptree: bool,
    queries: BTreeMap<QueryId, CompiledQuery>,
    /// The attribute-keyed standing-query index driving the `Indexed` path.
    index: SubscriptionIndex,
    strategy: WalkStrategy,
    /// Set on (de)registration: the grid's dimensions are the union over
    /// all registered queries, so the cells are reassigned lazily at the
    /// next match instead of on every registration.
    cells_dirty: bool,
    /// Each query's enclosing grid cell, where it is deeper than the whole
    /// domain (empty without `use_iptree`).
    enclosing: BTreeMap<QueryId, Cell>,
    lazy: BTreeMap<QueryId, LazyState<A>>,
    /// Persists across [`SubscriptionEngine::process_block`] calls: a
    /// refutation derived at block `h` is warm for block `h+1` whenever the
    /// node digest and clause recur (stable subscriptions over repetitive
    /// traffic hit constantly).
    cache: ProofCache<A>,
    next_id: QueryId,
    next_height: u64,
}

impl<A: Accumulator> SubscriptionEngine<A> {
    /// An engine with no registered queries, expecting block 0 next.
    pub fn new(cfg: MinerConfig, acc: A, mode: SubscriptionMode, use_iptree: bool) -> Self {
        if mode == SubscriptionMode::Lazy {
            assert!(
                acc.supports_aggregation() && cfg.scheme == IndexScheme::Both,
                "lazy authentication needs Construction 2 and the inter-block index (§7.2)"
            );
        }
        Self {
            cfg,
            acc,
            mode,
            use_iptree,
            queries: BTreeMap::new(),
            index: SubscriptionIndex::default(),
            strategy: WalkStrategy::Indexed,
            cells_dirty: false,
            enclosing: BTreeMap::new(),
            lazy: BTreeMap::new(),
            cache: ProofCache::default(),
            next_id: 0,
            next_height: 0,
        }
    }

    /// Select the match strategy (builder style). `Naive` is the reference
    /// twin; outputs are byte-identical either way.
    pub fn with_strategy(mut self, strategy: WalkStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active match strategy.
    pub fn strategy(&self) -> WalkStrategy {
        self.strategy
    }

    /// The cross-block proof cache (inspect its stats to observe reuse).
    pub fn proof_cache(&self) -> &ProofCache<A> {
        &self.cache
    }

    /// The compiled form of a registered query.
    pub fn compiled(&self, id: QueryId) -> Option<&CompiledQuery> {
        self.queries.get(&id)
    }

    /// Register a subscription (paper §3). Returns its id.
    pub fn register(&mut self, q: &Query) -> QueryId {
        assert!(q.time_window.is_none(), "subscription queries have no time window");
        let id = self.next_id;
        self.next_id += 1;
        let compiled = q.compile(self.cfg.domain_bits);
        self.index.insert(id, &compiled);
        self.queries.insert(id, compiled);
        self.lazy.insert(
            id,
            LazyState { clause_idx: None, pending: Vec::new(), from_height: self.next_height },
        );
        self.cells_dirty = true;
        id
    }

    /// Deregister; in lazy mode any buffered coverage is flushed as a final
    /// (possibly result-less) update.
    pub fn deregister(&mut self, id: QueryId) -> Option<SubscriptionUpdate<A>> {
        let q = self.queries.remove(&id)?;
        self.index.remove(id, &q);
        let state = self.lazy.remove(&id);
        self.cells_dirty = true;
        match state {
            Some(s) if !s.pending.is_empty() => Some(SubscriptionUpdate {
                query_id: id,
                from_height: s.from_height,
                to_height: self.next_height.saturating_sub(1),
                results: Vec::new(),
                coverage: s.pending,
            }),
            _ => None,
        }
    }

    /// Reassign the enclosing cells and the cell interval index if
    /// registrations changed since the last match.
    fn ensure_cells(&mut self) {
        if !self.cells_dirty {
            return;
        }
        self.cells_dirty = false;
        self.enclosing.clear();
        // The grid spans every dimension some query constrains.
        let mut dims: Vec<u8> = Vec::new();
        if self.use_iptree {
            dims.extend(self.queries.values().flat_map(|q| q.ranges.iter().map(|r| r.dim)));
            dims.sort_unstable();
            dims.dedup();
        }
        if !dims.is_empty() {
            // Depth cap (paper §7.1: "to prevent the tree from becoming too
            // deep, we switch back to the case without the IP-Tree when the
            // tree depth reaches some pre-defined threshold"): a grid of at
            // most ~2^16 cells whatever the dimensionality.
            let max_depth = ((16 / dims.len()) as u8).clamp(1, self.cfg.domain_bits);
            for (&id, q) in &self.queries {
                let cell = Cell::enclosing(q, &dims, self.cfg.domain_bits, max_depth);
                if cell.depth > 0 {
                    self.enclosing.insert(id, cell);
                }
            }
        }
        self.index.rebuild_cells(&self.enclosing);
    }

    /// Process a newly confirmed block; returns the updates to publish.
    /// Equivalent to [`SubscriptionEngine::match_block`] followed by
    /// [`SubscriptionEngine::publish`].
    pub fn process_block(
        &mut self,
        block: &Block,
        indexed: &IndexedBlock<A>,
    ) -> Vec<SubscriptionUpdate<A>> {
        let m = self.match_block(block, indexed);
        self.publish(m, indexed)
    }

    /// The match stage: classify every registered query against this block
    /// and resolve the needed refutation proofs, without materializing
    /// per-query updates or advancing the engine's height. Idempotent for a
    /// given block, so steady-state match cost can be measured in isolation.
    pub fn match_block(&mut self, block: &Block, indexed: &IndexedBlock<A>) -> BlockMatch<A> {
        assert_eq!(block.header.height, self.next_height, "blocks must be processed in order");
        self.ensure_cells();
        match self.strategy {
            WalkStrategy::Naive => self.match_block_naive(block, indexed),
            WalkStrategy::Indexed => self.match_block_indexed(block, indexed),
        }
    }

    /// The publish stage: materialize per-query updates from a block match
    /// (realtime), or feed it through the lazy stack (Algorithm 5).
    pub fn publish(
        &mut self,
        m: BlockMatch<A>,
        indexed: &IndexedBlock<A>,
    ) -> Vec<SubscriptionUpdate<A>> {
        let height = m.height;
        assert_eq!(height, self.next_height, "blocks must be processed in order");
        self.next_height = height + 1;
        let BlockMatch { root, proofs, outcomes, .. } = m;

        let mut updates = Vec::new();
        for (qid, outcome) in outcomes {
            let (results, vo) = match outcome {
                MatchOutcome::Walked(walked) => *walked,
                MatchOutcome::Shared { proof, clause } => {
                    let proof = proofs[proof].clone();
                    let node = match &root {
                        RootShape::Internal { att, child_hash } => VoNode::InternalMismatch {
                            child_hash: *child_hash,
                            att: att.clone(),
                            proof: MismatchProof::Inline { proof, clause },
                        },
                        RootShape::Leaf { att, obj_hash } => VoNode::LeafMismatch {
                            obj_hash: *obj_hash,
                            att: att.clone(),
                            proof: MismatchProof::Inline { proof, clause },
                        },
                        RootShape::Opaque => {
                            unreachable!("shared outcomes always carry a root shape")
                        }
                    };
                    (Vec::new(), BlockVo { root: node, groups: Vec::new() })
                }
            };
            match self.mode {
                SubscriptionMode::Realtime => {
                    let res = if results.is_empty() { Vec::new() } else { vec![(height, results)] };
                    updates.push(SubscriptionUpdate {
                        query_id: qid,
                        from_height: height,
                        to_height: height,
                        results: res,
                        coverage: vec![BlockCoverage::Block { height, vo }],
                    });
                }
                SubscriptionMode::Lazy => {
                    if let Some(u) = self.lazy_step(qid, height, results, vo, indexed) {
                        updates.push(u);
                    }
                }
            }
        }
        updates
    }

    /// The reference twin: every query walks the intra-block index
    /// (Algorithm 3), under its enclosing cell when it has one, exactly as
    /// the engine always worked — and resolves its proofs on its own.
    fn match_block_naive(&mut self, block: &Block, indexed: &IndexedBlock<A>) -> BlockMatch<A> {
        let outcomes: Vec<_> = self
            .queries
            .iter()
            .map(|(&id, q)| {
                let cell = self.enclosing.get(&id);
                let walked =
                    indexed.tree.query(&block.objects, q, cell, &self.acc, false, &self.cache);
                (id, MatchOutcome::Walked(Box::new(walked)))
            })
            .collect();
        BlockMatch {
            height: block.header.height,
            root: RootShape::Opaque,
            proofs: Vec::new(),
            candidates: outcomes.len(),
            outcomes,
        }
    }

    /// The inverted path. Per block:
    ///
    /// 1. classify every query off the posting lists of the root multiset's
    ///    elements (candidate, or first disjoint clause — identical to the
    ///    reference walk's root step);
    /// 2. replicate the walk's root-level cell priority for queries whose
    ///    enclosing cell has absent slabs;
    /// 3. plan the candidates' walks — only they touch the tree;
    /// 4. resolve the block's requests, root-level and walked, in one
    ///    [`ProofCache::resolve`]. A root-level request is exactly the first
    ///    request its query's own walk would make, so it fails only where
    ///    the walk would, and is handled the way [`PlannedVo::fill`]
    ///    handles a failed answer.
    ///
    /// Every emitted VO is byte-identical to the reference twin's: the same
    /// first-disjoint clause (or cell) refutes at the same root node, and
    /// proofs are deterministic and share the same cache keys.
    fn match_block_indexed(&mut self, block: &Block, indexed: &IndexedBlock<A>) -> BlockMatch<A> {
        let tree = &indexed.tree;
        let Some(root_att) = tree.root_att().cloned() else {
            // nil scheme: no root AttDigest to refute against — the
            // reference walk cannot prune at the root either, so share
            // nothing and walk everything.
            return self.match_block_naive(block, indexed);
        };
        let root_ms = tree.root_multiset();

        // 1. Posting-list classification.
        let cls = self.index.classify(root_ms);

        // Root-level refutations deduplicated by clause content: the block's
        // first requests, so a content's request index is its rank here.
        // Content ids are dense registry indices, so the dedup table is a
        // flat array, not a map.
        let root = |clause_ms| ProofRequest::node::<A>(&root_att, root_ms, clause_ms);
        let mut requests: Vec<ProofRequest<'_, ElementId>> = Vec::new();
        let mut cid_pending: Vec<u32> = vec![u32::MAX; self.index.distinct_contents()];
        let mut by_cell_key: HashMap<Vec<u32>, usize> = HashMap::new();

        // 2. Root-level cell priority, exactly as the reference walk assigns
        //    it, once per cell instead of once per query (the interval index
        //    is empty without `use_iptree`).
        let mut cell_assigned: BTreeMap<QueryId, (usize, ClauseRef)> = BTreeMap::new();
        for (cell, qids) in self.index.cells() {
            let Some((clause_ms, clause)) = cell.absent_slab_clause(root_ms) else {
                continue;
            };
            let key: Vec<u32> = clause_ms.elements().map(|e| e.raw()).collect();
            let idx = *by_cell_key.entry(key).or_insert_with(|| {
                requests.push(root(clause_ms));
                requests.len() - 1
            });
            for &qid in qids {
                cell_assigned.insert(qid, (idx, clause.clone()));
            }
        }

        // Distinct classified refutation contents (cell priority wins, as in
        // the reference walk: a cell-assigned query's clause is not proved).
        for &(qid, _, cid) in &cls.refuted {
            if !cell_assigned.is_empty() && cell_assigned.contains_key(&qid) {
                continue;
            }
            if cid_pending[cid as usize] == u32::MAX {
                cid_pending[cid as usize] = requests.len() as u32;
                requests.push(root(self.index.content(cid).clone()));
            }
        }
        let root_requests = requests.len();

        // 3. Only the candidates touch the tree. Classification may pass a
        //    query as candidate (e.g. one with more clauses than the
        //    exact-mask width) that the cell step already refuted; cell
        //    priority wins, exactly as in the reference walk.
        let mut candidates: Vec<QueryId> = cls
            .candidates
            .into_iter()
            .filter(|qid| cell_assigned.is_empty() || !cell_assigned.contains_key(qid))
            .collect();
        candidates.sort_unstable();
        let planned = self.plan_walks(&candidates, block, indexed, &mut requests);

        // 4. The block's one proving pass.
        let answers = self.cache.resolve(&self.acc, requests);
        let walked = fill_walks(planned, &answers);
        let proofs: Vec<A::Proof> = answers
            .into_iter()
            .take(root_requests)
            .map(|answer| answer.expect("the walk's root step found the clause disjoint"))
            .collect();
        let candidates = walked.len();

        // Emit the publish-ordered outcome vector in one linear merge of the
        // three ascending sources (cell assignments, classified refutations,
        // walked candidates) — no O(Q log Q) sort of the outcome values, no
        // intermediate per-query vectors.
        let mut outcomes: Vec<(QueryId, MatchOutcome<A>)> =
            Vec::with_capacity(self.index.len().max(walked.len()));
        let mut walked_iter = walked.into_iter().peekable();
        let mut cell_iter = cell_assigned.iter().peekable();
        let mut ref_iter = cls.refuted.iter().peekable();
        loop {
            // Next shared refutation, cell priority on ties.
            let (qid, pidx, clause) = match (cell_iter.peek(), ref_iter.peek()) {
                (Some(&(&cq, _)), Some(&&(rq, ci, cid))) if rq < cq => {
                    ref_iter.next();
                    (rq, cid_pending[cid as usize] as usize, ClauseRef::Index(ci))
                }
                (Some(&(&cq, _)), peeked) => {
                    if peeked.is_some_and(|&&(rq, _, _)| rq == cq) {
                        ref_iter.next();
                    }
                    let (_, (idx, clause)) = cell_iter.next().expect("peeked");
                    (cq, *idx, clause.clone())
                }
                (None, Some(&&(rq, ci, cid))) => {
                    ref_iter.next();
                    (rq, cid_pending[cid as usize] as usize, ClauseRef::Index(ci))
                }
                (None, None) => break,
            };
            while walked_iter.peek().is_some_and(|(wq, _)| *wq < qid) {
                outcomes.push(walked_iter.next().expect("peeked"));
            }
            outcomes.push((qid, MatchOutcome::Shared { proof: pidx, clause }));
        }
        outcomes.extend(walked_iter);

        let root_node = &tree.nodes[tree.root];
        let root_att = Att::of::<A>(&root_att);
        let root = match &root_node.kind {
            IntraNodeKind::Leaf { obj_idx } => {
                RootShape::Leaf { att: root_att, obj_hash: block.objects[*obj_idx].digest() }
            }
            IntraNodeKind::Internal { left, right } => RootShape::Internal {
                att: root_att,
                child_hash: vchain_hash::hash_pair(
                    &tree.nodes[*left].hash,
                    &tree.nodes[*right].hash,
                ),
            },
        };

        BlockMatch { height: block.header.height, root, proofs, outcomes, candidates }
    }

    /// Algorithm 5: buffer whole-block mismatches, compress with skips,
    /// flush when the root matches.
    fn lazy_step(
        &mut self,
        qid: QueryId,
        height: u64,
        results: Vec<Object>,
        vo: BlockVo<A>,
        indexed: &IndexedBlock<A>,
    ) -> Option<SubscriptionUpdate<A>> {
        let state = self.lazy.get_mut(&qid).expect("registered");
        let root_clause = match &vo.root {
            // whole-block mismatch: a single root-level mismatch node
            VoNode::InternalMismatch { proof: MismatchProof::Inline { clause, .. }, .. }
            | VoNode::LeafMismatch { proof: MismatchProof::Inline { clause, .. }, .. } => {
                match clause {
                    ClauseRef::Index(i) => Some(*i as usize),
                    ClauseRef::Cell { .. } => None, // treat as unshareable run
                }
            }
            _ => None,
        };

        match root_clause {
            Some(ci) => {
                // If the stack runs on a different clause, flush it first
                // (paper: "Empty s") as a result-less update.
                let mut flushed = None;
                if state.clause_idx.is_some() && state.clause_idx != Some(ci) {
                    flushed = Self::drain_update(qid, state, height.saturating_sub(1), Vec::new());
                    state.from_height = height;
                }
                state.clause_idx = Some(ci);
                state.pending.push(BlockCoverage::Block { height, vo });
                self.compress(qid, height, indexed);
                flushed
            }
            None => {
                // Root matched (or unshareable): flush everything buffered
                // plus this block.
                state.pending.push(BlockCoverage::Block { height, vo });
                let res = if results.is_empty() { Vec::new() } else { vec![(height, results)] };
                let update = Self::drain_update(qid, state, height, res);
                state.from_height = height + 1;
                state.clause_idx = None;
                update
            }
        }
    }

    fn drain_update(
        qid: QueryId,
        state: &mut LazyState<A>,
        to_height: u64,
        results: Vec<(u64, Vec<Object>)>,
    ) -> Option<SubscriptionUpdate<A>> {
        if state.pending.is_empty() && results.is_empty() {
            return None;
        }
        Some(SubscriptionUpdate {
            query_id: qid,
            from_height: state.from_height,
            to_height,
            results,
            coverage: std::mem::take(&mut state.pending),
        })
    }

    /// Compress the top of the stack with the *current* block's skip list:
    /// if the preceding `d` blocks are exactly the top pending entries, one
    /// skip entry plus `ProofSum` replaces them (paper Algorithm 5).
    fn compress(&mut self, qid: QueryId, height: u64, indexed: &IndexedBlock<A>) {
        let state = self.lazy.get_mut(&qid).expect("registered");
        let q = &self.queries[&qid];
        let Some(clause_idx) = state.clause_idx else { return };
        for entry in indexed.skiplist.entries.iter().rev() {
            let d = entry.distance;
            // the skip at `height` covers `height-d ..= height-1`; with the
            // current block just pushed, those are the entries *below* it.
            if state.pending.len() < 2 {
                return;
            }
            let top = state.pending.last().expect("non-empty");
            let (top_first, _) = coverage_span(top);
            if top_first != height {
                return; // current block must sit on top
            }
            // collect entries below the top until they span exactly d blocks
            let mut span = 0u64;
            let mut take = 0usize;
            for cov in state.pending[..state.pending.len() - 1].iter().rev() {
                let (first, last) = coverage_span(cov);
                if span == 0 && last != height - 1 {
                    break; // not contiguous with the current block
                }
                span += last - first + 1;
                take += 1;
                if span >= d {
                    break;
                }
            }
            if span != d {
                continue; // try a smaller skip distance
            }
            // The skip's multiset must mismatch the same clause (it is the
            // sum of the covered blocks' root multisets, each disjoint from
            // the clause, so this always holds — asserted here).
            let clause_ms = q.cnf.0[clause_idx].to_multiset();
            debug_assert!(entry.ms.is_disjoint(&clause_ms));
            // Aggregate the member proofs with ProofSum.
            let members: Vec<A::Proof> = state.pending
                [state.pending.len() - 1 - take..state.pending.len() - 1]
                .iter()
                .map(extract_proof::<A>)
                .collect();
            let agg = match self.acc.proof_sum(&members) {
                Ok(p) => p,
                Err(_) => return,
            };
            let skip_cov = BlockCoverage::Skip {
                height,
                distance: d,
                att: Att::of::<A>(&entry.att),
                proof: agg,
                clause: ClauseRef::Index(clause_idx as u16),
                siblings: indexed.skiplist.siblings_of(d),
            };
            let keep_from = state.pending.len() - 1 - take;
            let current = state.pending.pop().expect("top");
            state.pending.truncate(keep_from);
            state.pending.push(skip_cov);
            state.pending.push(current);
            return;
        }
    }

    /// Plan the walk of each of `qids` over the block's index (Algorithm 3),
    /// under its enclosing cell when it has one, appending the refutations
    /// to `requests`.
    fn plan_walks<'a>(
        &self,
        qids: &[QueryId],
        block: &Block,
        indexed: &'a IndexedBlock<A>,
        requests: &mut Vec<ProofRequest<'a, ElementId>>,
    ) -> Vec<(QueryId, Vec<Object>, PlannedVo)> {
        qids.iter()
            .map(|&qid| {
                let cell = self.enclosing.get(&qid);
                let q = &self.queries[&qid];
                let (results, vo) = indexed.tree.plan(&block.objects, q, cell, false, requests);
                (qid, results, vo)
            })
            .collect()
    }
}

/// The outcomes of planned walks, given the answers to their requests.
fn fill_walks<A: Accumulator>(
    planned: Vec<(QueryId, Vec<Object>, PlannedVo)>,
    answers: &[Result<A::Proof, AccError>],
) -> Vec<(QueryId, MatchOutcome<A>)> {
    planned
        .into_iter()
        .map(|(qid, results, vo)| {
            (qid, MatchOutcome::Walked(Box::new((results, vo.fill(answers)))))
        })
        .collect()
}

fn coverage_span<A: Accumulator>(cov: &BlockCoverage<A>) -> (u64, u64) {
    match cov {
        BlockCoverage::Block { height, .. } => (*height, *height),
        BlockCoverage::Skip { height, distance, .. } => (*height - *distance, *height - 1),
    }
}

fn extract_proof<A: Accumulator>(cov: &BlockCoverage<A>) -> A::Proof {
    match cov {
        BlockCoverage::Block { vo, .. } => match &vo.root {
            VoNode::InternalMismatch { proof: MismatchProof::Inline { proof, .. }, .. }
            | VoNode::LeafMismatch { proof: MismatchProof::Inline { proof, .. }, .. } => {
                proof.clone()
            }
            _ => unreachable!("lazy pending entries are whole-block mismatches"),
        },
        BlockCoverage::Skip { proof, .. } => proof.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Miner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vchain_acc::Acc2;
    use vchain_chain::Difficulty;

    /// One mined block of four cars and an engine over standing queries that
    /// meet on it: two walk the tree and refute its Van side by the same
    /// clause, one refutes its Sedan side, one is refuted at the root.
    fn fixture() -> (Miner<Acc2>, SubscriptionEngine<Acc2>) {
        let cfg = MinerConfig {
            scheme: IndexScheme::Both,
            skip_levels: 2,
            domain_bits: 3,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        // Element ids come from the process-wide interner: leave room for
        // what the crate's other unit tests intern.
        let acc = Acc2::keygen(2048, &mut StdRng::seed_from_u64(18));
        let mut miner = Miner::new(cfg, acc.clone());
        let car = |id, v, kind: &str, make: &str| {
            Object::new(id, 10, vec![v], vec![kind.to_string(), make.to_string()])
        };
        miner.mine_block(
            10,
            vec![
                car(1, 4, "Sedan", "Benz"),
                car(2, 5, "Sedan", "Audi"),
                car(3, 6, "Van", "Benz"),
                car(4, 7, "Van", "BMW"),
            ],
        );
        let mut engine = SubscriptionEngine::new(cfg, acc, SubscriptionMode::Realtime, false);
        for keywords in [["Sedan", "Benz"], ["Sedan", "Audi"], ["Van", "BMW"], ["Truck", "Benz"]] {
            engine.register(&Query {
                time_window: None,
                ranges: vec![],
                keywords: keywords.iter().map(|k| vec![k.to_string()]).collect(),
            });
        }
        (miner, engine)
    }

    fn published(miner: &Miner<Acc2>, engine: &mut SubscriptionEngine<Acc2>) -> Vec<Vec<u8>> {
        let updates = engine.process_block(&miner.store().blocks()[0], &miner.indexed()[0]);
        updates.iter().map(crate::wire::encode_update).collect()
    }

    /// `CacheStats::misses` is *distinct proofs computed* — what `vbench`
    /// reports as `subscribe.proofs_per_block`: standing queries that refute
    /// the same `(node, clause)` in one block cost one miss between them, the
    /// rest are hits.
    #[test]
    fn queries_sharing_a_refutation_cost_one_miss() {
        let (miner, mut engine) = fixture();
        let m = engine.match_block(&miner.store().blocks()[0], &miner.indexed()[0]);
        assert_eq!(m.candidates, 3, "three queries walk, one is refuted at the root");
        let stats = engine.cache.stats();
        assert_eq!(stats.misses as usize, engine.cache.len(), "one proof per distinct key");
        assert!(stats.hits > 0, "the two Sedan queries refute the Van side by the same clause");
        // matching the same block again proves nothing
        engine.match_block(&miner.store().blocks()[0], &miner.indexed()[0]);
        assert_eq!(engine.cache.stats().misses, stats.misses);
    }

    /// A cache that can hold one proof still publishes a multi-candidate
    /// block correctly: the VOs are filled from the resolver's results, not
    /// re-read after eviction.
    #[test]
    fn capacity_one_cache_publishes_the_same_block() {
        let (miner, mut engine) = fixture();
        let (_, mut squeezed) = fixture();
        squeezed.cache = ProofCache::new(1);
        let expect = published(&miner, &mut engine);
        assert_eq!(expect.len(), 4);
        assert_eq!(published(&miner, &mut squeezed), expect);
        assert!(squeezed.cache.stats().evictions > 0);
    }
}
