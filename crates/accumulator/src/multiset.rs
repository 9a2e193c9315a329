//! Multisets with explicit element counts.
//!
//! The canonical `BTreeMap` ordering makes accumulator inputs deterministic,
//! which in turn makes every AttDigest reproducible across miners.

use std::collections::BTreeMap;

/// A multiset over an ordered element type.
///
/// ```
/// use vchain_acc::MultiSet;
///
/// let a: MultiSet<u64> = [1u64, 1, 2].into_iter().collect();
/// let b: MultiSet<u64> = [2u64, 3].into_iter().collect();
/// assert_eq!(a.count(&1), 2);
/// assert_eq!(a.sum(&b).count(&2), 2); // counts add
/// assert_eq!(a.union(&b).count(&2), 1); // counts max
/// assert!(!a.is_disjoint(&b));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MultiSet<E: Ord> {
    counts: BTreeMap<E, u64>,
}

impl<E: Ord + Copy> MultiSet<E> {
    /// The empty multiset.
    pub fn new() -> Self {
        Self { counts: BTreeMap::new() }
    }

    /// Insert one occurrence.
    pub fn insert(&mut self, e: E) {
        *self.counts.entry(e).or_insert(0) += 1;
    }

    /// Insert `count` occurrences (no-op for `count == 0`).
    pub fn insert_many(&mut self, e: E, count: u64) {
        if count > 0 {
            *self.counts.entry(e).or_insert(0) += count;
        }
    }

    /// Number of distinct elements (the support size).
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Total number of occurrences (the multiset cardinality) — this is the
    /// degree of Construction 1's characteristic polynomial.
    pub fn total_count(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Is the multiset empty?
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Does the support contain `e`?
    pub fn contains(&self, e: &E) -> bool {
        self.counts.contains_key(e)
    }

    /// Multiplicity of `e` (0 when absent).
    pub fn count(&self, e: &E) -> u64 {
        self.counts.get(e).copied().unwrap_or(0)
    }

    /// Iterate `(element, multiplicity)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&E, u64)> {
        self.counts.iter().map(|(e, &c)| (e, c))
    }

    /// Iterate the support in canonical order.
    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.counts.keys()
    }

    /// Support disjointness: no shared element, regardless of counts.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        // Walk the smaller one.
        let (small, large) =
            if self.distinct_len() <= other.distinct_len() { (self, other) } else { (other, self) };
        !small.counts.keys().any(|e| large.counts.contains_key(e))
    }

    /// Do the supports share any element?
    pub fn intersects(&self, other: &Self) -> bool {
        !self.is_disjoint(other)
    }

    /// Multiset *sum* (counts add) — the paper's `Σ` used by the inter-block
    /// index and `Sum(·)` aggregation.
    pub fn sum(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (e, c) in other.iter() {
            out.insert_many(*e, c);
        }
        out
    }

    /// Multiset *union* (counts max) — the paper's `∪` used when merging
    /// intra-block index nodes. Support equals the union of supports.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (e, c) in other.iter() {
            let cur = out.counts.entry(*e).or_insert(0);
            *cur = (*cur).max(c);
        }
        out
    }

    /// Jaccard similarity of the supports, the clustering measure of the
    /// intra-block index build (Algorithm 2).
    pub fn jaccard(&self, other: &Self) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let inter = self.counts.keys().filter(|e| other.counts.contains_key(e)).count();
        let union = self.distinct_len() + other.distinct_len() - inter;
        inter as f64 / union as f64
    }

    /// Number of distinct shared elements.
    pub fn intersection_size(&self, other: &Self) -> usize {
        self.counts.keys().filter(|e| other.counts.contains_key(e)).count()
    }
}

impl<E: crate::AccElem> MultiSet<E> {
    /// Construction 1's characteristic polynomial
    /// `P_X(s) = ∏_{x ∈ X} (s + x)^{count(x)}` over the element
    /// representatives, built with the subproduct tree of
    /// [`Poly::char_poly`](crate::Poly::char_poly).
    ///
    /// The canonical `BTreeMap` iteration order makes the leaf order — and
    /// therefore the exact coefficient vector — deterministic across
    /// miners, which keeps AttDigests reproducible.
    ///
    /// ```
    /// use vchain_acc::MultiSet;
    ///
    /// let x: MultiSet<u64> = [1u64, 2, 2, 3].into_iter().collect();
    /// // degree = total multiplicity, not support size
    /// assert_eq!(x.char_poly().degree(), Some(4));
    /// assert_eq!(MultiSet::<u64>::new().char_poly().degree(), Some(0)); // ∅ ↦ 1
    /// ```
    pub fn char_poly(&self) -> crate::Poly {
        crate::Poly::char_poly(self.iter().map(|(e, c)| (e.to_fr(), c)))
    }
}

impl<E: Ord + Copy> FromIterator<E> for MultiSet<E> {
    fn from_iter<T: IntoIterator<Item = E>>(iter: T) -> Self {
        let mut ms = Self::new();
        for e in iter {
            ms.insert(e);
        }
        ms
    }
}

impl<E: Ord + Copy> FromIterator<(E, u64)> for MultiSet<E> {
    fn from_iter<T: IntoIterator<Item = (E, u64)>>(iter: T) -> Self {
        let mut ms = Self::new();
        for (e, c) in iter {
            ms.insert_many(e, c);
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> MultiSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn counting() {
        let m = ms(&[1, 2, 2, 3, 3, 3]);
        assert_eq!(m.distinct_len(), 3);
        assert_eq!(m.total_count(), 6);
        assert_eq!(m.count(&3), 3);
        assert_eq!(m.count(&9), 0);
        assert!(m.contains(&1));
    }

    #[test]
    fn disjointness() {
        assert!(ms(&[1, 2]).is_disjoint(&ms(&[3, 4])));
        assert!(!ms(&[1, 2]).is_disjoint(&ms(&[2, 3])));
        assert!(ms(&[]).is_disjoint(&ms(&[1])));
    }

    #[test]
    fn sum_vs_union() {
        let a = ms(&[1, 1, 2]);
        let b = ms(&[1, 3]);
        let s = a.sum(&b);
        assert_eq!(s.count(&1), 3);
        let u = a.union(&b);
        assert_eq!(u.count(&1), 2); // max(2, 1)
        assert_eq!(u.count(&3), 1);
    }

    #[test]
    fn jaccard() {
        let a = ms(&[1, 2, 3]);
        let b = ms(&[2, 3, 4]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(ms(&[]).jaccard(&ms(&[])), 1.0);
        assert_eq!(a.jaccard(&ms(&[])), 0.0);
    }

    #[test]
    fn zero_count_insert_is_noop() {
        let mut m = ms(&[]);
        m.insert_many(5, 0);
        assert!(m.is_empty());
    }
}
