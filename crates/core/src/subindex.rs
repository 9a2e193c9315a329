//! The standing-query index: what inverts the per-block subscription walk.
//!
//! The naive engine asks, per block, "for each of the Q registered queries,
//! which clause refutes it?" — O(Q) CNF scans per block. This module asks
//! the inverse question: "which registered queries could the attributes this
//! block actually carries satisfy?" It holds
//!
//! * **posting lists** keyed by normalized clause literal
//!   (`BTreeMap<ElementId, Vec<(QueryId, clause)>>`): every literal of every
//!   registered clause, so one pass over the block's root multiset marks
//!   exactly the clauses each query has satisfied;
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
/// block's literals reach, with no clearing pass over Q.
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
#[derive(Default)]
pub struct SubscriptionIndex {
    postings: BTreeMap<ElementId, Vec<(QueryId, u16)>>,
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
    scratch: Scratch,
}

impl SubscriptionIndex {
    /// Number of indexed queries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether any queries are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
            }
        }
        for cid in entry.clause_contents {
            let slot = &mut self.contents[cid as usize];
            slot.1 = slot.1.saturating_sub(1);
        }
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

    /// Classify every indexed query against the block's root multiset `ms`
    /// (ascending query id in both output lists).
    pub fn classify(&mut self, ms: &MultiSet<ElementId>) -> Classification {
        self.scratch.epoch = self.scratch.epoch.wrapping_add(1);
        for e in ms.elements() {
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

    /// The content-registry id of clause `ci` of query `qid`.
    fn content_of(idx: &SubscriptionIndex, qid: QueryId, ci: usize) -> u32 {
        idx.meta[qid as usize].as_ref().expect("registered").clause_contents[ci]
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

    /// The match path trusts classification to decide which queries skip the
    /// walk, so it must agree with the walk's own root step everywhere:
    /// shared clause contents, empty and over-wide CNFs, literals no block
    /// carries, and deregistered queries.
    #[test]
    fn classification_matches_find_disjoint_clause() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const KEYWORDS: [&str; 6] = [
            "subidx-sw-a",
            "subidx-sw-b",
            "subidx-sw-c",
            "subidx-sw-d",
            "subidx-sw-e",
            "subidx-sw-f",
        ];
        const GHOSTS: [&str; 2] = ["subidx-sw-ghost-0", "subidx-sw-ghost-1"];
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // A small pool of keyword clauses, some carrying ghost literals,
            // so queries share clause contents.
            let clause_pool: Vec<Vec<&str>> = (0..6)
                .map(|_| {
                    let mut clause: Vec<&str> = (0..rng.gen_range(1..4))
                        .map(|_| KEYWORDS[rng.gen_range(0..KEYWORDS.len())])
                        .collect();
                    if rng.gen_range(0..3) == 0 {
                        clause.push(GHOSTS[rng.gen_range(0..GHOSTS.len())]);
                    }
                    clause
                })
                .chain(GHOSTS.iter().map(|&g| vec![g]))
                .collect();
            let range_pool: Vec<RangeSpec> = (0..4)
                .map(|_| {
                    let lo = rng.gen_range(0..16);
                    RangeSpec { dim: rng.gen_range(0..2), lo, hi: rng.gen_range(lo..16) }
                })
                .collect();
            let mut queries: Vec<CompiledQuery> = (0..24)
                .map(|_| {
                    let ranges = (0..rng.gen_range(0..2))
                        .map(|_| range_pool[rng.gen_range(0..4)].clone())
                        .collect();
                    let keywords = (0..rng.gen_range(0..4))
                        .map(|_| clause_pool[rng.gen_range(0..clause_pool.len())].clone())
                        .collect();
                    sub(ranges, keywords)
                })
                .collect();
            queries.push(sub(Vec::new(), Vec::new()));
            for width in [MAX_EXACT_CLAUSES, MAX_EXACT_CLAUSES + 1] {
                let keywords = (0..width).map(|_| {
                    clause_pool[rng.gen_range(0..clause_pool.len() - GHOSTS.len())].clone()
                });
                queries.push(sub(Vec::new(), keywords.collect()));
            }

            let mut idx = SubscriptionIndex::default();
            for (i, q) in queries.iter().enumerate() {
                idx.insert(i as QueryId, q);
            }
            let mut live = vec![true; queries.len()];
            for _ in 0..4 {
                let i = rng.gen_range(0..queries.len());
                if std::mem::replace(&mut live[i], false) {
                    idx.remove(i as QueryId, &queries[i]);
                }
            }
            assert_eq!(idx.len(), live.iter().filter(|&&l| l).count());

            for _ in 0..8 {
                let mut ms = MultiSet::new();
                for _ in 0..rng.gen_range(1..4) {
                    let kws: Vec<&str> = (0..rng.gen_range(0..4))
                        .map(|_| KEYWORDS[rng.gen_range(0..KEYWORDS.len())])
                        .collect();
                    ms = ms.sum(&obj_ms(&[rng.gen_range(0..16), rng.gen_range(0..16)], &kws));
                }
                let cls = idx.classify(&ms);
                let classified: Vec<QueryId> = {
                    let mut all: Vec<QueryId> = cls.candidates.clone();
                    all.extend(cls.refuted.iter().map(|&(qid, _, _)| qid));
                    all.sort_unstable();
                    all
                };
                let expected: Vec<QueryId> =
                    (0..queries.len() as QueryId).filter(|&i| live[i as usize]).collect();
                assert_eq!(classified, expected, "seed {seed}: each live query exactly once");
                for (i, q) in queries.iter().enumerate() {
                    let qid = i as QueryId;
                    if !live[i] {
                        continue;
                    }
                    let expected = match q.cnf.find_disjoint_clause(&ms) {
                        // over-wide queries are conservatively walked
                        _ if q.cnf.0.len() > MAX_EXACT_CLAUSES => None,
                        found => found,
                    };
                    match expected {
                        None => assert!(
                            cls.candidates.contains(&qid),
                            "seed {seed}: query {i} must be a candidate"
                        ),
                        Some(ci) => assert!(
                            cls.refuted.contains(&(qid, ci as u16, content_of(&idx, qid, ci))),
                            "seed {seed}: query {i} must be refuted at clause {ci}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn remove_unindexes_everything() {
        let mut idx = SubscriptionIndex::default();
        let q = sub(Vec::new(), vec![vec!["subidx-rm-a"], vec!["subidx-rm-b"]]);
        idx.insert(7, &q);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.postings.len(), 2);
        idx.remove(7, &q);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.postings.len(), 0);
        let cls = idx.classify(&obj_ms(&[1], &["subidx-rm-a"]));
        assert!(cls.candidates.is_empty() && cls.refuted.is_empty());
    }

    #[test]
    fn shared_contents_intern_once() {
        let mut idx = SubscriptionIndex::default();
        let q1 = sub(Vec::new(), vec![vec!["subidx-shared-x", "subidx-shared-y"]]);
        let q2 = sub(Vec::new(), vec![vec!["subidx-shared-x", "subidx-shared-y"]]);
        idx.insert(0, &q1);
        idx.insert(1, &q2);
        assert_eq!(idx.distinct_contents(), 1);
        assert_eq!(content_of(&idx, 0, 0), content_of(&idx, 1, 0));
    }
}
