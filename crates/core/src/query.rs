//! Boolean range queries and their compilation to a unified CNF over set
//! elements (paper §3 and §5.3).
//!
//! A user query `q = ⟨[ts, te], [α, β], ϒ⟩` compiles into
//! `⟨[ts, te], ϒ′⟩` with `ϒ′ = trans([α, β]) ∧ ϒ`: each numeric range
//! contributes one OR-clause (its prefix cover) and the monotone Boolean
//! function contributes its CNF clauses verbatim.

use std::collections::BTreeSet;

use vchain_acc::MultiSet;
use vchain_chain::Object;

use crate::element::ElementId;
use crate::trans::{range_cover_ids, trans_value_ids};

/// One OR-clause: the object matches if its element multiset intersects it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause(pub BTreeSet<ElementId>);

impl Clause {
    /// Build a clause from element ids.
    pub fn from_ids(ids: impl IntoIterator<Item = ElementId>) -> Self {
        Clause(ids.into_iter().collect())
    }

    /// Does the clause share any element with the multiset (i.e. match)?
    pub fn intersects(&self, ms: &MultiSet<ElementId>) -> bool {
        self.0.iter().any(|e| ms.contains(e))
    }

    /// The clause as a (unit-multiplicity) multiset — what disjointness
    /// proofs are made against.
    pub fn to_multiset(&self) -> MultiSet<ElementId> {
        self.0.iter().copied().collect()
    }

    /// Number of elements in the clause.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the clause empty (unsatisfiable)?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A conjunction of OR-clauses (CNF).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Cnf(pub Vec<Clause>);

impl Cnf {
    /// Every clause intersects the multiset.
    pub fn matches(&self, ms: &MultiSet<ElementId>) -> bool {
        self.0.iter().all(|c| c.intersects(ms))
    }

    /// Index of some clause disjoint from the multiset (the mismatch
    /// witness the SP proves).
    ///
    /// ```
    /// use vchain_core::query::Query;
    /// use vchain_core::query::object_multiset;
    /// use vchain_chain::Object;
    ///
    /// let q = Query {
    ///     time_window: None,
    ///     ranges: vec![],
    ///     keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
    /// }
    /// .compile(8);
    /// let van = Object::new(1, 0, vec![], vec!["Van".into(), "Benz".into()]);
    /// // clause 0 = {Sedan} is disjoint from the Van's attributes: the SP
    /// // proves exactly that to refute the object.
    /// assert_eq!(q.cnf.find_disjoint_clause(&object_multiset(&van, 8)), Some(0));
    /// ```
    pub fn find_disjoint_clause(&self, ms: &MultiSet<ElementId>) -> Option<usize> {
        self.0.iter().position(|c| !c.intersects(ms))
    }
}

/// A per-dimension numeric range predicate `lo ≤ V[dim] ≤ hi` (inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeSpec {
    /// 0-based numeric dimension.
    pub dim: u8,
    /// Lower bound (inclusive).
    pub lo: u64,
    /// Upper bound (inclusive).
    pub hi: u64,
}

/// A user-level Boolean range query (paper §3).
///
/// `keywords` is the monotone Boolean function ϒ in CNF: the outer `Vec` is
/// an AND of clauses, each inner `Vec` an OR of keywords.
///
/// ```
/// use vchain_core::query::Query;
/// // ⟨-, [200,250], "Sedan" ∧ ("Benz" ∨ "BMW")⟩ from Example 3.2
/// let q = Query {
///     time_window: None,
///     ranges: vec![vchain_core::query::RangeSpec { dim: 0, lo: 200, hi: 250 }],
///     keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
/// };
/// let compiled = q.compile(8);
/// assert_eq!(compiled.cnf.0.len(), 3); // 1 range clause + 2 boolean clauses
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// `[ts, te]` for time-window queries; `None` for subscriptions.
    pub time_window: Option<(u64, u64)>,
    /// Per-dimension numeric range predicates.
    pub ranges: Vec<RangeSpec>,
    /// The monotone Boolean function ϒ in CNF (AND of OR-clauses).
    pub keywords: Vec<Vec<String>>,
}

/// A compiled query: the unified CNF plus bookkeeping for verification.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// `[ts, te]` for time-window queries; `None` for subscriptions.
    pub time_window: Option<(u64, u64)>,
    /// `ϒ′ = trans([α, β]) ∧ ϒ`.
    pub cnf: Cnf,
    /// The original ranges (for verifier-side containment checks on shared
    /// subscription proofs).
    pub ranges: Vec<RangeSpec>,
    /// The numeric domain width the query was compiled against.
    pub domain_bits: u8,
}

impl Query {
    /// Compile against a `domain_bits`-bit numeric domain. Vacuous range
    /// predicates (full domain) produce no clause; empty keyword clauses are
    /// rejected.
    pub fn compile(&self, domain_bits: u8) -> CompiledQuery {
        let mut cnf = Vec::new();
        for r in &self.ranges {
            assert!(r.lo <= r.hi, "empty range predicate");
            if let Some(cover) = range_cover_ids(r.dim, r.lo, r.hi, domain_bits) {
                cnf.push(Clause::from_ids(cover));
            }
        }
        for kw_clause in &self.keywords {
            assert!(!kw_clause.is_empty(), "empty keyword clause is unsatisfiable");
            cnf.push(Clause::from_ids(kw_clause.iter().map(|k| ElementId::keyword(k))));
        }
        CompiledQuery {
            time_window: self.time_window,
            cnf: Cnf(cnf),
            ranges: self.ranges.clone(),
            domain_bits,
        }
    }
}

impl CompiledQuery {
    /// Does a timestamp fall in the window? (Subscriptions accept all.)
    pub fn in_window(&self, ts: u64) -> bool {
        match self.time_window {
            None => true,
            Some((s, e)) => ts >= s && ts <= e,
        }
    }

    /// Direct object evaluation (used by the verifier on returned results
    /// and by tests as the ground truth).
    pub fn object_matches(&self, o: &Object) -> bool {
        self.in_window(o.timestamp) && self.cnf.matches(&object_multiset(o, self.domain_bits))
    }
}

/// `W′ᵢ = trans(Vᵢ) + Wᵢ`: the unified element multiset of an object
/// (paper §5.3). Repeated keywords accumulate multiplicity.
pub fn object_multiset(o: &Object, domain_bits: u8) -> MultiSet<ElementId> {
    let mut ms = MultiSet::new();
    for (dim, v) in o.numeric.iter().enumerate() {
        for id in trans_value_ids(dim as u8, *v, domain_bits) {
            ms.insert(id);
        }
    }
    for k in &o.keywords {
        ms.insert(ElementId::keyword(k));
    }
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn car_query() -> Query {
        Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 200, hi: 250 }],
            keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
        }
    }

    fn obj(price: u64, kws: &[&str]) -> Object {
        Object::new(1, 0, vec![price], kws.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn example_3_2_semantics() {
        let q = car_query().compile(8);
        assert!(q.object_matches(&obj(220, &["Sedan", "Benz"])));
        assert!(q.object_matches(&obj(250, &["Sedan", "BMW"])));
        assert!(!q.object_matches(&obj(220, &["Van", "Benz"])), "boolean mismatch");
        assert!(!q.object_matches(&obj(199, &["Sedan", "Benz"])), "range mismatch");
        assert!(!q.object_matches(&obj(220, &["Sedan", "Audi"])), "inner clause mismatch");
    }

    #[test]
    fn disjoint_clause_identifies_reason() {
        let q = car_query().compile(8);
        let ms = object_multiset(&obj(220, &["Van", "Benz"]), 8);
        // clause 0 = range (matches), clause 1 = {Sedan} (disjoint)
        assert_eq!(q.cnf.find_disjoint_clause(&ms), Some(1));
        let ms2 = object_multiset(&obj(10, &["Sedan", "Benz"]), 8);
        assert_eq!(q.cnf.find_disjoint_clause(&ms2), Some(0));
        let ms3 = object_multiset(&obj(220, &["Sedan", "Benz"]), 8);
        assert_eq!(q.cnf.find_disjoint_clause(&ms3), None);
    }

    #[test]
    fn time_window_filters() {
        let mut q = car_query();
        q.time_window = Some((100, 200));
        let cq = q.compile(8);
        let mut o = obj(220, &["Sedan", "Benz"]);
        o.timestamp = 150;
        assert!(cq.object_matches(&o));
        o.timestamp = 201;
        assert!(!cq.object_matches(&o));
    }

    #[test]
    fn vacuous_range_produces_no_clause() {
        let q = Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 255 }],
            keywords: vec![vec!["x".into()]],
        }
        .compile(8);
        assert_eq!(q.cnf.0.len(), 1);
    }

    #[test]
    fn multi_dimensional_ranges() {
        // paper §5.3: (4, 2) ∉ [(0, 3), (6, 4)] — dim-1 range [3,4] misses 2
        let q = Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo: 0, hi: 6 }, RangeSpec { dim: 1, lo: 3, hi: 4 }],
            keywords: vec![],
        }
        .compile(3);
        let o = Object::new(1, 0, vec![4, 2], vec![]);
        assert!(!q.object_matches(&o));
        let o2 = Object::new(1, 0, vec![4, 3], vec![]);
        assert!(q.object_matches(&o2));
    }

    #[test]
    fn multiset_has_multiplicity_for_repeated_keywords() {
        let o = Object::new(1, 0, vec![], vec!["a".into(), "a".into()]);
        let ms = object_multiset(&o, 8);
        assert_eq!(ms.count(&ElementId::keyword("a")), 2);
    }

    proptest! {
        #[test]
        fn compiled_matches_equal_direct_evaluation(
            price in 0u64..256,
            dim2 in 0u64..256,
            lo in 0u64..256, hi in 0u64..256,
            has_kw in proptest::bool::ANY,
        ) {
            prop_assume!(lo <= hi);
            let q = Query {
                time_window: None,
                ranges: vec![RangeSpec { dim: 0, lo, hi }, RangeSpec { dim: 1, lo: 50, hi: 200 }],
                keywords: vec![vec!["kw-prop".into()]],
            }.compile(8);
            let kws = if has_kw { vec!["kw-prop".to_string()] } else { vec!["other".to_string()] };
            let o = Object::new(1, 0, vec![price, dim2], kws);
            let direct = price >= lo && price <= hi && (50..=200).contains(&dim2) && has_kw;
            prop_assert_eq!(q.object_matches(&o), direct);
        }
    }
}
