//! The standing-query index: what inverts the per-block subscription walk.
//!
//! The naive engine asks, per block, "for each of the Q registered queries,
//! which clause refutes it?" — O(Q) CNF scans per block. This module asks
//! the inverse question: "which registered queries could the attributes this
//! block actually carries satisfy?" It holds
//!
//! * **posting lists** keyed by normalized clause literal
//!   (`BTreeMap<ElementId, Vec<(QueryId, clause)>>`): every literal of every
//!   registered clause, so one pass over the block's *present* subscribed
//!   literals marks exactly the clauses each query has satisfied;
//! * a **clause-content registry**: distinct clause element-sets interned to
//!   small ids at registration, so the per-block proof work is deduplicated
//!   by content (the paper's BCIF effect) with zero per-query allocation at
//!   match time;
//! * the **grid-cell interval index** (§7.1): queries grouped by their
//!   enclosing [`Cell`], so a range refutation is derived once per cell and
//!   shared by every query inside it.
//!
//! Together these are the paper's IP-Tree inverted files: the posting lists
//! and the content registry play the BCIF, the cell index the RCIF. No grid
//! tree is materialized — the only thing the engine ever asked one was "the
//! deepest cell containing this box", which [`Cell::enclosing`] computes
//! from the box alone.
//!
//! The probe set (distinct subscribed literals, with their precomputed
//! [`BloomKey`] lanes) is what the per-block [`AttributeBloom`] filters:
//! literals the filter rejects are skipped outright; literals it accepts are
//! confirmed against the block's exact root multiset before they influence
//! classification, so filter false positives cost one map lookup and nothing
//! else.
//!
//! Classification is *exact* for queries of ≤ 64 clauses (one `u64` hit-mask
//! each, epoch-stamped scratch so per-block work is proportional to touched
//! queries, not Q): a query is a **candidate** iff every clause has a present
//! literal, and otherwise its first all-absent clause index — identical to
//! [`crate::query::Cnf::find_disjoint_clause`] against the root multiset —
//! is reported for the shared refutation. Wider queries are conservatively
//! treated as candidates and take the verbatim per-query walk, which is
//! always correct.

use std::collections::{BTreeMap, HashMap};

use vchain_acc::MultiSet;

use crate::bloom::{AttributeBloom, BloomKey};
use crate::element::{Element, ElementId};
use crate::query::CompiledQuery;
use crate::vo::ClauseRef;

/// Identifier assigned by the subscription engine at registration.
pub type QueryId = u32;

/// A dyadic grid cell: a `depth`-bit prefix in each grid dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Prefix length in bits (0 = the whole domain).
    pub depth: u8,
    /// `(dim, prefix_bits)` pairs, one per grid dimension.
    pub prefixes: Vec<(u8, u64)>,
}

impl Cell {
    /// The deepest cell of the grid over `dims` (at most `max_depth` bits
    /// per dimension) that contains a query's range box — the unit of proof
    /// sharing for range mismatches: if a node's multiset is provably
    /// outside this cell, every query enclosed by it mismatches for the
    /// same reason. A dimension the query does not constrain spans the whole
    /// domain, so it pins the cell to depth 0.
    pub fn enclosing(q: &CompiledQuery, dims: &[u8], domain_bits: u8, max_depth: u8) -> Cell {
        // The box's `[lo, hi]` in a grid dimension (the whole domain where
        // the query has no predicate).
        let side = |dim: u8| {
            q.ranges.iter().find(|r| r.dim == dim).map_or((0, u64::MAX), |r| (r.lo, r.hi))
        };
        // `lo` and `hi` share a dyadic cell exactly as deep as their common
        // binary prefix within the domain width.
        let depth = dims
            .iter()
            .map(|&dim| {
                let (lo, hi) = side(dim);
                let differing_bits = (u64::BITS - (lo ^ hi).leading_zeros()) as u8;
                domain_bits.saturating_sub(differing_bits)
            })
            .fold(max_depth, u8::min);
        let prefixes = dims
            .iter()
            .map(|&dim| (dim, if depth == 0 { 0 } else { side(dim).0 >> (domain_bits - depth) }))
            .collect();
        Cell { depth, prefixes }
    }

    /// The refutation every query enclosed by this cell shares against a
    /// node with multiset `ms`: the clause over the cell's slab prefixes
    /// that are *absent* from `ms` (disjointness on any one dimension
    /// already refutes every box contained in the cell), with its VO
    /// reference. `None` when every slab is present — the node may contain
    /// cell objects — and at depth 0, where the cell excludes nothing.
    pub fn absent_slab_clause(
        &self,
        ms: &MultiSet<ElementId>,
    ) -> Option<(MultiSet<ElementId>, ClauseRef)> {
        if self.depth == 0 {
            return None;
        }
        let mut clause_ms = MultiSet::new();
        let mut absent = Vec::new();
        for &(dim, bits) in &self.prefixes {
            let e = ElementId::intern(&Element::Prefix { dim, len: self.depth, bits });
            if !ms.contains(&e) {
                clause_ms.insert(e);
                absent.push((dim, bits));
            }
        }
        if absent.is_empty() {
            return None;
        }
        Some((clause_ms, ClauseRef::Cell { len: self.depth, prefixes: absent }))
    }
}

/// Widest CNF the hit-mask classifier handles exactly; wider queries fall
/// back to the per-query walk (correct, just not shared).
pub const MAX_EXACT_CLAUSES: usize = 64;

struct ProbeEntry {
    key: BloomKey,
    refs: u32,
}

struct QueryEntry {
    /// Content-registry id of each clause, in CNF order.
    clause_contents: Vec<u32>,
}

/// Per-block classification of every registered query.
#[derive(Clone, Debug, Default)]
pub struct Classification {
    /// Queries every clause of which has a present literal (plus >64-clause
    /// queries): these must walk the intra-block tree.
    pub candidates: Vec<QueryId>,
    /// `(query, first clause with no present literal, content id)` — the
    /// clause index [`crate::query::Cnf::find_disjoint_clause`] would return
    /// against the block's root multiset, with its content-registry id so
    /// the match loop never re-resolves it per query.
    pub refuted: Vec<(QueryId, u16, u32)>,
}

/// Epoch-stamped dense scratch: per-block work touches only the queries the
/// present literals reach, with no clearing pass over Q.
#[derive(Default)]
struct Scratch {
    masks: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
}

impl Scratch {
    fn ensure(&mut self, len: usize) {
        if self.masks.len() < len {
            self.masks.resize(len, 0);
            self.stamps.resize(len, 0);
        }
    }

    fn mark(&mut self, qid: QueryId, clause: u16) {
        let i = qid as usize;
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.masks[i] = 0;
        }
        if (clause as usize) < MAX_EXACT_CLAUSES {
            self.masks[i] |= 1u64 << clause;
        }
    }

    fn mask(&self, qid: QueryId) -> u64 {
        let i = qid as usize;
        if self.stamps.get(i) == Some(&self.epoch) {
            self.masks[i]
        } else {
            0
        }
    }
}

/// The attribute-keyed subscription index (see module docs).
pub struct SubscriptionIndex {
    postings: BTreeMap<ElementId, Vec<(QueryId, u16)>>,
    probes: BTreeMap<ElementId, ProbeEntry>,
    /// Dense by query id (engine ids are sequential); `None` = deregistered.
    /// Classification scans this linearly, so it must stay flat — a map here
    /// costs milliseconds per block at 10⁵ queries.
    meta: Vec<Option<QueryEntry>>,
    live: usize,
    /// Clause contents by registry id, with registration refcounts.
    /// Slots are retained after their last query deregisters (the mapping
    /// stays valid if the content re-registers; deregistration is rare).
    contents: Vec<(MultiSet<ElementId>, u32)>,
    content_ids: HashMap<Vec<u32>, u32>,
    cells: BTreeMap<Cell, Vec<QueryId>>,
    bloom_seed: u64,
    scratch: Scratch,
}

impl SubscriptionIndex {
    /// An empty index whose probe lanes are derived under `bloom_seed` (must
    /// match the seed the miner builds per-block filters with).
    pub fn new(bloom_seed: u64) -> Self {
        Self {
            postings: BTreeMap::new(),
            probes: BTreeMap::new(),
            meta: Vec::new(),
            live: 0,
            contents: Vec::new(),
            content_ids: HashMap::new(),
            cells: BTreeMap::new(),
            bloom_seed,
            scratch: Scratch::default(),
        }
    }

    /// Number of indexed queries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether any queries are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of distinct subscribed literals (the per-block probe count).
    pub fn distinct_literals(&self) -> usize {
        self.probes.len()
    }

    /// Number of distinct clause contents ever registered.
    pub fn distinct_contents(&self) -> usize {
        self.contents.len()
    }

    fn intern_content(&mut self, ms: MultiSet<ElementId>) -> u32 {
        let key: Vec<u32> = ms.elements().map(|e| e.raw()).collect();
        match self.content_ids.get(&key) {
            Some(&id) => {
                self.contents[id as usize].1 += 1;
                id
            }
            None => {
                let id = self.contents.len() as u32;
                self.contents.push((ms, 1));
                self.content_ids.insert(key, id);
                id
            }
        }
    }

    /// Index a newly registered query.
    pub fn insert(&mut self, qid: QueryId, q: &CompiledQuery) {
        let mut clause_contents = Vec::with_capacity(q.cnf.0.len());
        for (ci, clause) in q.cnf.0.iter().enumerate() {
            let ci = ci.min(u16::MAX as usize) as u16;
            for &e in &clause.0 {
                self.postings.entry(e).or_default().push((qid, ci));
                match self.probes.get_mut(&e) {
                    Some(p) => p.refs += 1,
                    None => {
                        let key = BloomKey::from_element(self.bloom_seed, &e.resolve());
                        self.probes.insert(e, ProbeEntry { key, refs: 1 });
                    }
                }
            }
            clause_contents.push(self.intern_content(clause.to_multiset()));
        }
        if self.meta.len() <= qid as usize {
            self.meta.resize_with(qid as usize + 1, || None);
        }
        if self.meta[qid as usize].replace(QueryEntry { clause_contents }).is_none() {
            self.live += 1;
        }
        self.scratch.ensure(qid as usize + 1);
    }

    /// Drop a deregistered query from every posting list.
    pub fn remove(&mut self, qid: QueryId, q: &CompiledQuery) {
        let Some(entry) = self.meta.get_mut(qid as usize).and_then(Option::take) else { return };
        self.live -= 1;
        for (ci, clause) in q.cnf.0.iter().enumerate() {
            let ci = ci.min(u16::MAX as usize) as u16;
            for e in &clause.0 {
                if let Some(list) = self.postings.get_mut(e) {
                    if let Some(pos) = list.iter().position(|&p| p == (qid, ci)) {
                        list.remove(pos);
                    }
                    if list.is_empty() {
                        self.postings.remove(e);
                    }
                }
                if let Some(p) = self.probes.get_mut(e) {
                    p.refs -= 1;
                    if p.refs == 0 {
                        self.probes.remove(e);
                    }
                }
            }
        }
        for cid in entry.clause_contents {
            let slot = &mut self.contents[cid as usize];
            slot.1 = slot.1.saturating_sub(1);
        }
    }

    /// The content-registry id of clause `ci` of query `qid`.
    pub fn content_of(&self, qid: QueryId, ci: u16) -> u32 {
        self.meta[qid as usize].as_ref().expect("registered").clause_contents[ci as usize]
    }

    /// The element set of a registered clause content.
    pub fn content(&self, cid: u32) -> &MultiSet<ElementId> {
        &self.contents[cid as usize].0
    }

    /// Rebuild the grid-cell interval index from the engine's enclosing-cell
    /// assignment.
    pub fn rebuild_cells(&mut self, enclosing: &BTreeMap<QueryId, Cell>) {
        self.cells.clear();
        for (&qid, cell) in enclosing {
            self.cells.entry(cell.clone()).or_default().push(qid);
        }
    }

    /// Queries grouped by enclosing grid cell (ascending query id per cell).
    pub fn cells(&self) -> &BTreeMap<Cell, Vec<QueryId>> {
        &self.cells
    }

    /// The subscribed literals present in `ms`, pre-filtered by the block's
    /// Bloom filter. Positives are confirmed against `ms`, so the result is
    /// exact whenever the filter has no false negatives (always, for an
    /// honest filter); a corrupted filter can only *omit* literals here.
    pub fn present_literals(
        &self,
        bloom: Option<&AttributeBloom>,
        ms: &MultiSet<ElementId>,
    ) -> Vec<ElementId> {
        let mut out = Vec::new();
        for (&e, probe) in &self.probes {
            if let Some(f) = bloom {
                if !f.contains_key(&probe.key) {
                    continue;
                }
            }
            if ms.contains(&e) {
                out.push(e);
            }
        }
        out
    }

    /// Classify every indexed query given the block's present subscribed
    /// literals (ascending query id in both output lists).
    pub fn classify(&mut self, present: &[ElementId]) -> Classification {
        self.scratch.epoch = self.scratch.epoch.wrapping_add(1);
        for e in present {
            if let Some(list) = self.postings.get(e) {
                for &(qid, ci) in list {
                    self.scratch.mark(qid, ci);
                }
            }
        }
        let mut out = Classification::default();
        for (i, slot) in self.meta.iter().enumerate() {
            let Some(entry) = slot else { continue };
            let qid = i as QueryId;
            let n = entry.clause_contents.len();
            if n == 0 || n > MAX_EXACT_CLAUSES {
                // An empty CNF matches everything; an over-wide one is not
                // classified exactly — both walk the tree.
                out.candidates.push(qid);
                continue;
            }
            let full = if n == MAX_EXACT_CLAUSES { u64::MAX } else { (1u64 << n) - 1 };
            let mask = self.scratch.mask(qid);
            if mask == full {
                out.candidates.push(qid);
            } else {
                let ci = mask.trailing_ones() as u16;
                out.refuted.push((qid, ci, entry.clause_contents[ci as usize]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::BLOOM_SEED;
    use crate::query::{Query, RangeSpec};
    use crate::trans::prefix_interval;
    use proptest::prelude::*;

    fn sub(ranges: Vec<RangeSpec>, keywords: Vec<Vec<&str>>) -> CompiledQuery {
        Query {
            time_window: None,
            ranges,
            keywords: keywords
                .into_iter()
                .map(|c| c.into_iter().map(str::to_owned).collect())
                .collect(),
        }
        .compile(4)
    }

    fn obj_ms(numeric: &[u64], kws: &[&str]) -> MultiSet<ElementId> {
        let o = vchain_chain::Object::new(
            1,
            0,
            numeric.to_vec(),
            kws.iter().map(|s| s.to_string()).collect(),
        );
        crate::query::object_multiset(&o, 4)
    }

    /// `[lo, hi]` of a cell in its `i`-th grid dimension.
    fn side(cell: &Cell, i: usize, domain_bits: u8) -> (u64, u64) {
        match cell.depth {
            0 => (0, (1u64 << domain_bits) - 1),
            depth => prefix_interval(depth, cell.prefixes[i].1, domain_bits),
        }
    }

    #[test]
    fn enclosing_cell_contains_box() {
        let boxed = |lo0, hi0, lo1, hi1| {
            sub(
                vec![
                    RangeSpec { dim: 0, lo: lo0, hi: hi0 },
                    RangeSpec { dim: 1, lo: lo1, hi: hi1 },
                ],
                vec![vec!["subidx-cell"]],
            )
        };
        // Domain [0, 15]²; Fig. 8's layout at larger scale.
        for q in [boxed(0, 7, 8, 15), boxed(0, 7, 0, 15), boxed(0, 3, 0, 11), boxed(8, 15, 0, 15)] {
            let c = Cell::enclosing(&q, &[0, 1], 4, 4);
            for (i, r) in q.ranges.iter().enumerate() {
                let (clo, chi) = side(&c, i, 4);
                assert!(clo <= r.lo && r.hi <= chi);
            }
        }
        // a tight box gets a deep cell
        let c = Cell::enclosing(&boxed(4, 5, 8, 9), &[0, 1], 4, 4);
        assert_eq!((c.depth, c.prefixes), (3, vec![(0, 0b010), (1, 0b100)]));
        // an unconstrained grid dimension pins the cell to the whole domain
        let c = Cell::enclosing(&boxed(4, 5, 8, 9), &[0, 1, 2], 4, 4);
        assert_eq!((c.depth, c.prefixes), (0, vec![(0, 0), (1, 0), (2, 0)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Against an oracle that shares no arithmetic with the
        /// implementation: scan depths from the cap down, and at each depth
        /// every prefix of every dimension, for the first cell whose
        /// intervals contain the box.
        #[test]
        fn enclosing_cell_is_the_deepest_containing_cell(
            domain_bits in 2u8..9,
            max_depth in 1u8..9,
            ndims in 1usize..4,
            // per dimension: one in four unconstrained; else `lo`, and an
            // extent of up to `span_bits` bits so tight boxes are common
            unconstrained in proptest::collection::vec(0u8..4, 3..4),
            lows in proptest::collection::vec(0u64..256, 3..4),
            extents in proptest::collection::vec(0u64..256, 3..4),
            span_bits in proptest::collection::vec(0u8..9, 3..4),
        ) {
            let max_depth = max_depth.min(domain_bits);
            let dims: Vec<u8> = (0..ndims as u8).collect();
            let full = (0, (1u64 << domain_bits) - 1);
            let ranges: Vec<RangeSpec> = (0..ndims)
                .filter(|&i| unconstrained[i] != 0)
                .map(|i| {
                    let lo = lows[i] & full.1;
                    let extent = extents[i] & ((1u64 << span_bits[i]) - 1);
                    RangeSpec { dim: i as u8, lo, hi: (lo + extent).min(full.1) }
                })
                .collect();
            let q = Query { time_window: None, ranges: ranges.clone(), keywords: vec![] }
                .compile(domain_bits);
            let box_side = |dim: u8| {
                ranges.iter().find(|r| r.dim == dim).map(|r| (r.lo, r.hi)).unwrap_or(full)
            };
            let oracle = (1..=max_depth)
                .rev()
                .find_map(|depth| {
                    let prefixes: Option<Vec<(u8, u64)>> = dims
                        .iter()
                        .map(|&dim| {
                            let (lo, hi) = box_side(dim);
                            (0..1u64 << depth)
                                .find(|&bits| {
                                    let (clo, chi) = prefix_interval(depth, bits, domain_bits);
                                    clo <= lo && hi <= chi
                                })
                                .map(|bits| (dim, bits))
                        })
                        .collect();
                    prefixes.map(|prefixes| Cell { depth, prefixes })
                })
                .unwrap_or(Cell { depth: 0, prefixes: dims.iter().map(|&d| (d, 0)).collect() });
            prop_assert_eq!(Cell::enclosing(&q, &dims, domain_bits, max_depth), oracle);
        }
    }

    #[test]
    fn absent_slab_clause_names_exactly_the_absent_slabs() {
        // x∈[8,15], y∈[0,7] of a 4-bit domain
        let cell = Cell { depth: 1, prefixes: vec![(0, 1), (1, 0)] };
        assert!(cell.absent_slab_clause(&obj_ms(&[9, 3], &[])).is_none(), "object inside");
        let (ms, clause) = cell.absent_slab_clause(&obj_ms(&[3, 3], &[])).expect("x slab absent");
        assert_eq!(clause, ClauseRef::Cell { len: 1, prefixes: vec![(0, 1)] });
        assert_eq!(ms.distinct_len(), 1);
        let root = Cell { depth: 0, prefixes: vec![(0, 0), (1, 0)] };
        assert!(root.absent_slab_clause(&obj_ms(&[3, 3], &[])).is_none(), "excludes nothing");
    }

    #[test]
    fn classification_matches_find_disjoint_clause() {
        let mut idx = SubscriptionIndex::new(BLOOM_SEED);
        let queries = [
            sub(vec![RangeSpec { dim: 0, lo: 0, hi: 3 }], vec![vec!["subidx-a"]]),
            sub(Vec::new(), vec![vec!["subidx-a", "subidx-b"], vec!["subidx-c"]]),
            sub(vec![RangeSpec { dim: 0, lo: 12, hi: 15 }], vec![vec!["subidx-z"]]),
        ];
        for (i, q) in queries.iter().enumerate() {
            idx.insert(i as QueryId, q);
        }
        let ms = obj_ms(&[2], &["subidx-a", "subidx-c"]);
        let present = idx.present_literals(None, &ms);
        let cls = idx.classify(&present);
        for (i, q) in queries.iter().enumerate() {
            let expected = q.cnf.find_disjoint_clause(&ms);
            let qid = i as QueryId;
            match expected {
                None => assert!(cls.candidates.contains(&qid), "query {i} must be candidate"),
                Some(ci) => assert!(
                    cls.refuted.contains(&(qid, ci as u16, idx.content_of(qid, ci as u16))),
                    "query {i} must be refuted at clause {ci}"
                ),
            }
        }
    }

    #[test]
    fn remove_unindexes_everything() {
        let mut idx = SubscriptionIndex::new(BLOOM_SEED);
        let q = sub(Vec::new(), vec![vec!["subidx-rm-a"], vec!["subidx-rm-b"]]);
        idx.insert(7, &q);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.distinct_literals(), 2);
        idx.remove(7, &q);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.distinct_literals(), 0);
        let present = idx.present_literals(None, &obj_ms(&[1], &["subidx-rm-a"]));
        assert!(present.is_empty());
    }

    #[test]
    fn shared_contents_intern_once() {
        let mut idx = SubscriptionIndex::new(BLOOM_SEED);
        let q1 = sub(Vec::new(), vec![vec!["subidx-shared-x", "subidx-shared-y"]]);
        let q2 = sub(Vec::new(), vec![vec!["subidx-shared-x", "subidx-shared-y"]]);
        idx.insert(0, &q1);
        idx.insert(1, &q2);
        assert_eq!(idx.distinct_contents(), 1);
        assert_eq!(idx.content_of(0, 0), idx.content_of(1, 0));
    }

    #[test]
    fn bloom_prefilter_never_drops_present_literals() {
        let mut idx = SubscriptionIndex::new(BLOOM_SEED);
        for i in 0..50u32 {
            let kw = format!("subidx-bloom-{i}");
            idx.insert(i, &sub(Vec::new(), vec![vec![&kw]]));
        }
        let ms = obj_ms(&[1], &["subidx-bloom-13", "subidx-bloom-31"]);
        let keys: Vec<BloomKey> =
            ms.elements().map(|e| BloomKey::from_element(BLOOM_SEED, &e.resolve())).collect();
        let bloom = AttributeBloom::build(BLOOM_SEED, 10, &keys);
        let filtered = idx.present_literals(Some(&bloom), &ms);
        let unfiltered = idx.present_literals(None, &ms);
        assert_eq!(filtered, unfiltered, "an honest filter must be transparent");
        assert_eq!(filtered.len(), 2);
    }
}
