//! Dense univariate polynomial engine over the scalar field `Fr`.
//!
//! Construction 1 needs four operations: building a characteristic
//! polynomial from its (negated) roots, multiplication, division with
//! remainder, and an extended GCD producing the Bézout pair behind
//! disjointness witnesses. Each has one implementation, chosen for the
//! shapes Acc1 actually reaches (`docs/POLYNOMIALS.md`, "Reached shapes"):
//!
//! * [`Poly::mul`] — Karatsuba above a schoolbook base case
//!   ([`KARATSUBA_THRESHOLD`]), with a chunked path for very unbalanced
//!   operands: `O(n^1.585)` instead of `O(n²)`.
//! * [`Poly::char_poly`] — a subproduct tree: the linear leaves `(s + xᵢ)`
//!   are merged pairwise, so every multiplication is balanced and the total
//!   cost is `O(M(n) log n)` where `M` is the multiplication cost. Block
//!   roots and skip entries reach thousands of elements, where the tree is
//!   several times faster than the incremental fold.
//! * [`Poly::divrem`] — long division, `O(deg q · deg b)`.
//! * [`Poly::xgcd`] — the classical extended Euclid, `O(deg a · deg b)`:
//!   one side of every Acc1 Bézout pair is a clause of a few literals.
//!
//! The two fast paths are property-tested against their [`naive`] twins;
//! see the tests at the bottom of this file and `tests/poly_props.rs`.

use vchain_pairing::{Field, Fr};

/// Below this operand length [`Poly::mul`] uses schoolbook multiplication;
/// above it, Karatsuba. The crossover was measured on the container CPU
/// (see `docs/POLYNOMIALS.md`): Karatsuba's extra additions beat the saved
/// multiplications only once both operands have ≳16 coefficients.
pub const KARATSUBA_THRESHOLD: usize = 16;

/// A polynomial `Σ cᵢ·sⁱ`, coefficients little-endian, no trailing zeros.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Fr>,
}

impl Poly {
    /// The zero polynomial (empty coefficient vector).
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Self::constant(Fr::one())
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Fr) -> Self {
        let mut p = Self { coeffs: vec![c] };
        p.normalize();
        p
    }

    /// Build from little-endian coefficients (trailing zeros trimmed).
    pub fn from_coeffs(coeffs: Vec<Fr>) -> Self {
        let mut p = Self { coeffs };
        p.normalize();
        p
    }

    /// The characteristic polynomial `∏ (s + xᵢ)^{cᵢ}` of a multiset given
    /// as `(representative, count)` pairs.
    ///
    /// Built with a subproduct tree: one linear leaf `(s + xᵢ)` per
    /// occurrence, merged pairwise with [`Poly::mul`], so the expensive
    /// multiplications near the root are balanced Karatsuba products. The
    /// result is byte-identical to [`naive::char_poly`] (asserted by
    /// property test), only the association order of an associative product
    /// changes.
    ///
    /// ```
    /// use vchain_acc::Poly;
    /// use vchain_pairing::{Field, Fr};
    ///
    /// // (s + 2)(s + 3) = s² + 5s + 6, whatever the build order
    /// let p = Poly::char_poly([(Fr::from_u64(2), 1), (Fr::from_u64(3), 1)].into_iter());
    /// assert_eq!(p.coeffs(), &[Fr::from_u64(6), Fr::from_u64(5), Field::one()]);
    /// assert_eq!(p.degree(), Some(2));
    /// ```
    pub fn char_poly(elems: impl Iterator<Item = (Fr, u64)>) -> Self {
        let mut leaves: Vec<Vec<Fr>> = Vec::new();
        for (x, count) in elems {
            for _ in 0..count {
                leaves.push(vec![x, Fr::one()]);
            }
        }
        Self::from_coeffs(subproduct(leaves))
    }

    fn normalize(&mut self) {
        while self.coeffs.last().is_some_and(Fr::is_zero) {
            self.coeffs.pop();
        }
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// The little-endian coefficient slice (no trailing zeros).
    pub fn coeffs(&self) -> &[Fr] {
        &self.coeffs
    }

    /// Horner evaluation at a point.
    pub fn eval(&self, at: &Fr) -> Fr {
        let mut acc = Fr::zero();
        for c in self.coeffs.iter().rev() {
            acc = Field::mul(&acc, at) + *c;
        }
        acc
    }

    /// Polynomial addition.
    pub fn add(&self, rhs: &Self) -> Self {
        let mut coeffs = vec![Fr::zero(); self.coeffs.len().max(rhs.coeffs.len())];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or_else(Fr::zero);
            let b = rhs.coeffs.get(i).copied().unwrap_or_else(Fr::zero);
            *c = a + b;
        }
        Self::from_coeffs(coeffs)
    }

    /// Polynomial subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        let mut coeffs = vec![Fr::zero(); self.coeffs.len().max(rhs.coeffs.len())];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let a = self.coeffs.get(i).copied().unwrap_or_else(Fr::zero);
            let b = rhs.coeffs.get(i).copied().unwrap_or_else(Fr::zero);
            *c = a - b;
        }
        Self::from_coeffs(coeffs)
    }

    /// Polynomial multiplication: schoolbook below
    /// [`KARATSUBA_THRESHOLD`], Karatsuba above it, and a chunked
    /// decomposition when one operand is much longer than the other (so the
    /// recursion always works on balanced halves).
    ///
    /// ```
    /// use vchain_acc::Poly;
    /// use vchain_pairing::{Field, Fr};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let a = Poly::from_coeffs((0..100).map(|_| Fr::random(&mut rng)).collect());
    /// let b = Poly::from_coeffs((0..100).map(|_| Fr::random(&mut rng)).collect());
    /// let prod = a.mul(&b); // Karatsuba: 3 half-size products per level
    /// assert_eq!(prod.degree(), Some(198));
    /// // multiplication evaluates pointwise: (a·b)(z) = a(z)·b(z)
    /// let z = Fr::from_u64(123456789);
    /// assert_eq!(prod.eval(&z), Field::mul(&a.eval(&z), &b.eval(&z)));
    /// ```
    pub fn mul(&self, rhs: &Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::zero();
        }
        Self::from_coeffs(mul_slices(&self.coeffs, &rhs.coeffs))
    }

    /// Multiply every coefficient by a scalar.
    pub fn scale(&self, k: &Fr) -> Self {
        Self::from_coeffs(self.coeffs.iter().map(|c| Field::mul(c, k)).collect())
    }

    /// Long division with remainder, `O(deg q · deg divisor)`; panics on a
    /// zero divisor.
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        let dd = divisor.degree().expect("polynomial division by zero");
        let lead_inv = divisor.coeffs[dd].inverse().expect("field leading coeff");
        let mut rem = self.coeffs.clone();
        let mut quot = vec![Fr::zero(); self.coeffs.len().saturating_sub(dd) + 1];
        loop {
            // effective degree of rem
            let dr = match rem.iter().rposition(|c| !c.is_zero()) {
                Some(d) if d >= dd => d,
                _ => break,
            };
            let q = Field::mul(&rem[dr], &lead_inv);
            quot[dr - dd] = q;
            for i in 0..=dd {
                rem[dr - dd + i] -= Field::mul(&q, &divisor.coeffs[i]);
            }
        }
        (Self::from_coeffs(quot), Self::from_coeffs(rem))
    }

    /// Classical extended Euclid: returns `(g, u, v)` with
    /// `u·self + v·rhs = g` and `g = gcd(self, rhs)` (not normalized to
    /// monic), in `O(deg self · deg rhs)`. The cofactors are the minimal
    /// ones — `deg u < deg rhs` and `deg v < deg self` for coprime
    /// non-constant inputs — so once Acc1 scales them by `g⁻¹` they are the
    /// unique Bézout pair its proofs commit to.
    ///
    /// ```
    /// use vchain_acc::Poly;
    /// use vchain_pairing::Fr;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(42);
    /// let a = Poly::char_poly((0..80).map(|_| (Fr::random(&mut rng), 1)));
    /// let b = Poly::char_poly((0..14).map(|_| (Fr::random(&mut rng), 1)));
    /// let (g, u, v) = a.xgcd(&b);
    /// assert_eq!(g.degree(), Some(0), "random roots never collide");
    /// assert_eq!(u.mul(&a).add(&v.mul(&b)), g, "Bézout identity");
    /// assert!(u.degree() < b.degree() && v.degree() < a.degree(), "minimal cofactors");
    /// ```
    pub fn xgcd(&self, rhs: &Self) -> (Self, Self, Self) {
        let (mut r0, mut r1) = (self.clone(), rhs.clone());
        let (mut u0, mut u1) = (Self::one(), Self::zero());
        let (mut v0, mut v1) = (Self::zero(), Self::one());
        while !r1.is_zero() {
            let (q, r) = r0.divrem(&r1);
            r0 = std::mem::replace(&mut r1, r);
            let u = u0.sub(&q.mul(&u1));
            u0 = std::mem::replace(&mut u1, u);
            let v = v0.sub(&q.mul(&v1));
            v0 = std::mem::replace(&mut v1, v);
        }
        (r0, u0, v0)
    }
}

/// Multiply two coefficient slices (both non-empty, not normalized).
fn mul_slices(a: &[Fr], b: &[Fr]) -> Vec<Fr> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len() < KARATSUBA_THRESHOLD {
        return schoolbook(short, long);
    }
    if long.len() > 2 * short.len() {
        // Unbalanced: multiply the long operand chunkwise so the Karatsuba
        // recursion below always sees comparable halves.
        let mut out = vec![Fr::zero(); short.len() + long.len() - 1];
        for (i, chunk) in long.chunks(short.len()).enumerate() {
            let part = mul_slices(short, chunk);
            let off = i * short.len();
            for (j, c) in part.iter().enumerate() {
                out[off + j] += *c;
            }
        }
        return out;
    }
    karatsuba(short, long)
}

/// Schoolbook product, `O(|a|·|b|)`.
fn schoolbook(a: &[Fr], b: &[Fr]) -> Vec<Fr> {
    let mut out = vec![Fr::zero(); a.len() + b.len() - 1];
    for (i, x) in a.iter().enumerate() {
        if x.is_zero() {
            continue;
        }
        for (j, y) in b.iter().enumerate() {
            out[i + j] += Field::mul(x, y);
        }
    }
    out
}

/// One Karatsuba level: split both operands at `m`, three recursive
/// half-products instead of four.
fn karatsuba(a: &[Fr], b: &[Fr]) -> Vec<Fr> {
    let m = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(m.min(a.len()));
    let (b0, b1) = b.split_at(m.min(b.len()));
    let z0 = mul_slices(a0, b0);
    let z2 = if a1.is_empty() || b1.is_empty() { Vec::new() } else { mul_slices(a1, b1) };
    let sa = add_slices(a0, a1);
    let sb = add_slices(b0, b1);
    let mut z1 = mul_slices(&sa, &sb);
    for (i, c) in z0.iter().enumerate() {
        z1[i] -= *c;
    }
    for (i, c) in z2.iter().enumerate() {
        z1[i] -= *c;
    }
    let mut out = vec![Fr::zero(); a.len() + b.len() - 1];
    for (i, c) in z0.iter().enumerate() {
        out[i] += *c;
    }
    // z1 = sa·sb − z0 − z2 is the cross term a0·b1 + a1·b0; its vector can
    // carry zero top coefficients past the product degree when a high half
    // is empty, so the write is bounds-guarded.
    for (i, c) in z1.iter().enumerate() {
        if let Some(slot) = out.get_mut(m + i) {
            *slot += *c;
        } else {
            debug_assert!(c.is_zero(), "karatsuba cross term exceeds product degree");
        }
    }
    for (i, c) in z2.iter().enumerate() {
        out[2 * m + i] += *c;
    }
    out
}

fn add_slices(a: &[Fr], b: &[Fr]) -> Vec<Fr> {
    let mut out = vec![Fr::zero(); a.len().max(b.len())];
    for (i, c) in a.iter().enumerate() {
        out[i] += *c;
    }
    for (i, c) in b.iter().enumerate() {
        out[i] += *c;
    }
    out
}

/// Reduce a list of coefficient vectors to their product by pairwise
/// merging — the subproduct tree, iterated bottom-up so every product
/// multiplies two polynomials of (nearly) equal degree.
fn subproduct(mut level: Vec<Vec<Fr>>) -> Vec<Fr> {
    if level.is_empty() {
        return vec![Fr::one()];
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.chunks_exact(2);
        for pair in &mut it {
            next.push(mul_slices(&pair[0], &pair[1]));
        }
        if let [odd] = it.remainder() {
            next.push(odd.clone());
        }
        level = next;
    }
    level.pop().expect("non-empty level")
}

pub mod naive {
    //! The seed's quadratic references for the two operations that have a
    //! faster production path: [`char_poly`] must agree byte-for-byte with
    //! [`Poly::char_poly`] (the subproduct tree) and [`mul`] exactly with
    //! [`Poly::mul`] (Karatsuba) — see `tests/poly_props.rs`. They are also
    //! the benchmark baselines: `bench_smoke` times both engines in the same
    //! run, so each speed-up ratio in `BENCH_pairing.json` is noise-free.

    use super::{schoolbook, Poly};
    use vchain_pairing::{Field, Fr};

    /// Incremental `O(n²)` characteristic polynomial: multiply by one
    /// linear factor `(s + x)` at a time.
    pub fn char_poly(elems: impl Iterator<Item = (Fr, u64)>) -> Poly {
        let mut coeffs = vec![Fr::one()];
        for (x, count) in elems {
            for _ in 0..count {
                // multiply by (s + x): new[i] = old[i-1] + x*old[i]
                let mut next = vec![Fr::zero(); coeffs.len() + 1];
                for (i, c) in coeffs.iter().enumerate() {
                    next[i + 1] += *c;
                    next[i] += Field::mul(c, &x);
                }
                coeffs = next;
            }
        }
        Poly::from_coeffs(coeffs)
    }

    /// Schoolbook multiplication, `O(deg a · deg b)`.
    pub fn mul(a: &Poly, b: &Poly) -> Poly {
        if a.is_zero() || b.is_zero() {
            return Poly::zero();
        }
        Poly::from_coeffs(schoolbook(a.coeffs(), b.coeffs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(v: &[u64]) -> Poly {
        Poly::from_coeffs(v.iter().map(|&c| Fr::from_u64(c)).collect())
    }

    fn rand_poly(rng: &mut StdRng, len: usize) -> Poly {
        Poly::from_coeffs((0..len).map(|_| Fr::random(rng)).collect())
    }

    #[test]
    fn char_poly_roots() {
        // (s + 2)(s + 3) = s² + 5s + 6
        let cp = Poly::char_poly([(Fr::from_u64(2), 1), (Fr::from_u64(3), 1)].into_iter());
        assert_eq!(cp, p(&[6, 5, 1]));
        // multiplicity: (s + 2)² = s² + 4s + 4
        let cp2 = Poly::char_poly([(Fr::from_u64(2), 2)].into_iter());
        assert_eq!(cp2, p(&[4, 4, 1]));
        // empty multiset => constant 1
        assert_eq!(Poly::char_poly(std::iter::empty()), Poly::one());
    }

    #[test]
    fn char_poly_tree_matches_naive() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0usize, 1, 2, 3, 7, 33, 100] {
            let elems: Vec<(Fr, u64)> =
                (0..n).map(|i| (Fr::random(&mut rng), 1 + (i as u64 % 3))).collect();
            let fast = Poly::char_poly(elems.iter().copied());
            let slow = naive::char_poly(elems.iter().copied());
            assert_eq!(fast, slow, "n = {n}");
        }
    }

    #[test]
    fn eval_horner() {
        let q = p(&[6, 5, 1]);
        assert_eq!(q.eval(&Fr::from_u64(1)), Fr::from_u64(12));
        assert!(q.eval(&(-Fr::from_u64(2))).is_zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(21);
        for (la, lb) in [(33, 33), (64, 64), (100, 7), (7, 100), (257, 129), (40, 200)] {
            let a = rand_poly(&mut rng, la);
            let b = rand_poly(&mut rng, lb);
            assert_eq!(a.mul(&b), naive::mul(&a, &b), "{la}×{lb}");
        }
    }

    #[test]
    fn divrem_round_trip() {
        let a = p(&[1, 0, 3, 9, 4]);
        let b = p(&[7, 2, 5]);
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.degree() < b.degree());
    }

    #[test]
    fn divrem_smaller_dividend() {
        let a = p(&[1, 2]);
        let b = p(&[0, 0, 1]);
        let (q, r) = a.divrem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn divrem_euclidean_across_sizes() {
        let mut rng = StdRng::seed_from_u64(31);
        for (ln, ld) in [(129, 65), (200, 40), (256, 128), (90, 89), (301, 4), (9, 9)] {
            let a = rand_poly(&mut rng, ln);
            let b = rand_poly(&mut rng, ld);
            let (q, r) = a.divrem(&b);
            assert_eq!(q.mul(&b).add(&r), a, "{ln}/{ld}");
            assert!(r.degree() < b.degree(), "{ln}/{ld} remainder degree");
            assert_eq!(q.degree(), Some(ln - ld), "{ln}/{ld} quotient degree");
        }
    }

    #[test]
    fn xgcd_coprime_char_polys() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();
        let a = Poly::char_poly(xs[..3].iter().map(|x| (*x, 1)));
        let b = Poly::char_poly(xs[3..].iter().map(|x| (*x, 1)));
        let (g, u, v) = a.xgcd(&b);
        assert_eq!(g.degree(), Some(0), "disjoint roots => constant gcd");
        assert_eq!(u.mul(&a).add(&v.mul(&b)), g);
    }

    #[test]
    fn xgcd_shared_root() {
        let shared = Fr::from_u64(42);
        let a = Poly::char_poly([(shared, 1), (Fr::from_u64(1), 1)].into_iter());
        let b = Poly::char_poly([(shared, 1), (Fr::from_u64(2), 1)].into_iter());
        let (g, u, v) = a.xgcd(&b);
        assert_eq!(g.degree(), Some(1), "shared root => non-constant gcd");
        assert_eq!(u.mul(&a).add(&v.mul(&b)), g);
    }

    #[test]
    fn xgcd_large_coprime() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Poly::char_poly((0..100).map(|_| (Fr::random(&mut rng), 1)));
        let b = Poly::char_poly((0..90).map(|_| (Fr::random(&mut rng), 1)));
        let (g, u, v) = a.xgcd(&b);
        assert_eq!(g.degree(), Some(0));
        assert_eq!(u.mul(&a).add(&v.mul(&b)), g);
        // minimal Bézout degrees
        assert!(u.degree() < b.degree());
        assert!(v.degree() < a.degree());
    }

    #[test]
    fn xgcd_unbalanced_degrees() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = rand_poly(&mut rng, 160);
        let b = rand_poly(&mut rng, 71);
        let (g, u, v) = a.xgcd(&b);
        assert_eq!(u.mul(&a).add(&v.mul(&b)), g);
        assert_eq!(g.degree(), Some(0), "random polys are coprime");
    }

    #[test]
    fn xgcd_with_large_common_factor() {
        let mut rng = StdRng::seed_from_u64(19);
        let shared = Poly::char_poly((0..70).map(|_| (Fr::random(&mut rng), 1)));
        let a = shared.mul(&Poly::char_poly((0..30).map(|_| (Fr::random(&mut rng), 1))));
        let b = shared.mul(&Poly::char_poly((0..25).map(|_| (Fr::random(&mut rng), 1))));
        let (g, u, v) = a.xgcd(&b);
        assert_eq!(g.degree(), Some(70), "gcd degree = shared factor degree");
        assert_eq!(u.mul(&a).add(&v.mul(&b)), g);
        // the gcd divides both inputs exactly
        assert!(a.divrem(&g).1.is_zero());
        assert!(b.divrem(&g).1.is_zero());
    }

    #[test]
    fn mul_degree_and_commutativity() {
        let a = p(&[1, 2, 3]);
        let b = p(&[4, 5]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).degree(), Some(3));
        assert!(a.mul(&Poly::zero()).is_zero());
    }
}
