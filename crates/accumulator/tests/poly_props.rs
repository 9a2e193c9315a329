//! Property tests for the polynomial engine: the two fast paths (the
//! subproduct tree and Karatsuba) pinned to their naive references
//! (`poly::naive`), the Euclidean and Bézout contracts of the one
//! `divrem` and the one `xgcd`, the degree and edge cases the Acc1 proving
//! pipeline relies on, and the Acc1 bytes those contracts produce.
//!
//! Sizes run past the Karatsuba threshold, and the `xgcd` inputs include
//! the large × large and forced-common-factor shapes that once took a
//! half-GCD path of their own.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::poly::{naive, Poly, KARATSUBA_THRESHOLD};
use vchain_acc::{Acc1, Accumulator, MultiSet};
use vchain_pairing::{Field, Fr};

fn rand_poly(rng: &mut StdRng, len: usize) -> Poly {
    Poly::from_coeffs((0..len).map(|_| Fr::random(rng)).collect())
}

/// Canonical serialization of a polynomial: the concatenated canonical
/// bytes of its coefficients. Equality of `Poly` values is coefficient
/// equality in Montgomery form; the trajectory claim ("byte-identical to
/// the naive build") is about *these* bytes, the form that reaches block
/// headers and proofs.
fn poly_bytes(p: &Poly) -> Vec<u8> {
    p.coeffs().iter().flat_map(Fr::to_bytes).collect()
}

/// `u·a + v·b = g`, `g` divides both inputs, and — unless one input is a
/// multiple of the other — the cofactors have the minimal degrees
/// `deg u < deg b − deg g` and `deg v < deg a − deg g`.
fn assert_bezout(a: &Poly, b: &Poly, (g, u, v): &(Poly, Poly, Poly)) {
    assert_eq!(&u.mul(a).add(&v.mul(b)), g, "Bézout identity");
    assert!(a.divrem(g).1.is_zero() && b.divrem(g).1.is_zero(), "gcd divides both");
    let (da, db, dg) = (a.degree().unwrap(), b.degree().unwrap(), g.degree().unwrap());
    if dg < da.min(db) {
        assert!(u.degree() < Some(db - dg), "deg u minimal");
        assert!(v.degree() < Some(da - dg), "deg v minimal");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Subproduct tree vs incremental fold: byte-equality, every size.
    #[test]
    fn char_poly_tree_matches_naive_bytes(seed in 0u64..u64::MAX, n in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let elems: Vec<(Fr, u64)> =
            (0..n).map(|i| (Fr::random(&mut rng), 1 + (i as u64 % 3))).collect();
        let fast = Poly::char_poly(elems.iter().copied());
        let slow = naive::char_poly(elems.iter().copied());
        prop_assert_eq!(poly_bytes(&fast), poly_bytes(&slow));
        // degree = Σ counts
        let total: u64 = elems.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(fast.degree(), Some(total as usize));
    }

    /// Karatsuba (and the unbalanced chunked path) vs schoolbook.
    #[test]
    fn mul_matches_schoolbook(seed in 0u64..u64::MAX,
                              la in 1usize..200, lb in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_poly(&mut rng, la);
        let b = rand_poly(&mut rng, lb);
        prop_assert_eq!(a.mul(&b), naive::mul(&a, &b));
    }

    /// The Euclidean contract: `q·b + r = a`, `deg r < deg b`.
    #[test]
    fn divrem_euclidean_contract(seed in 0u64..u64::MAX,
                                 ln in 1usize..220, ld in 1usize..220) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_poly(&mut rng, ln);
        let b = rand_poly(&mut rng, ld);
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        prop_assert!(r.degree() < b.degree());
        prop_assert_eq!(q.degree(), a.degree().and_then(|n| n.checked_sub(b.degree()?)));
    }

    /// Bézout identity, gcd dividing both inputs and minimal cofactors, on
    /// large × large inputs sharing a forced common factor of random degree.
    #[test]
    fn xgcd_bezout_identity(seed in 0u64..u64::MAX,
                            la in 1usize..160, lb in 1usize..160,
                            shared in 0usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let common = rand_poly(&mut rng, shared + 1);
        let a = rand_poly(&mut rng, la).mul(&common);
        let b = rand_poly(&mut rng, lb).mul(&common);
        prop_assume!(!a.is_zero() && !b.is_zero());
        let out = a.xgcd(&b);
        assert_bezout(&a, &b, &out);
        prop_assert!(out.0.degree() >= common.degree());
    }

    /// Coprime characteristic polynomials (the Acc1 case) at the shapes the
    /// workloads reach — `X₁` of a few hundred elements against clauses of
    /// up to 14 literals — and past them to 70: constant gcd, minimal
    /// Bézout degrees.
    #[test]
    fn xgcd_char_poly_disjoint_supports(seed in 0u64..u64::MAX,
                                        n1 in 1usize..320, n2 in 1usize..72) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p1 = Poly::char_poly((0..n1).map(|_| (Fr::random(&mut rng), 1)));
        let p2 = Poly::char_poly((0..n2).map(|_| (Fr::random(&mut rng), 1)));
        let out = p1.xgcd(&p2);
        // random 255-bit roots never collide
        prop_assert_eq!(out.0.degree(), Some(0));
        assert_bezout(&p1, &p2, &out);
    }
}

// ---------------------------------------------------------------------
// Degree and edge cases (deterministic)
// ---------------------------------------------------------------------

#[test]
fn char_poly_empty_set_is_one() {
    assert_eq!(Poly::char_poly(std::iter::empty()), Poly::one());
    assert_eq!(Poly::char_poly(std::iter::empty()).degree(), Some(0));
}

#[test]
fn char_poly_singleton_is_linear() {
    let x = Fr::from_u64(77);
    let p = Poly::char_poly([(x, 1)].into_iter());
    assert_eq!(p.degree(), Some(1));
    assert_eq!(p.coeffs(), &[x, Fr::from_u64(1)]);
    assert!(p.eval(&-x).is_zero());
}

#[test]
fn char_poly_repeat_is_a_multiplicity() {
    let x = Fr::from_u64(9);
    let with_mult = Poly::char_poly([(x, 2), (Fr::from_u64(1), 1)].into_iter());
    let repeated = Poly::char_poly([(x, 1), (Fr::from_u64(1), 1), (x, 1)].into_iter());
    assert_eq!(with_mult.degree(), Some(3));
    assert_eq!(with_mult, repeated);
}

// Guards against someone raising the threshold past the proptest size
// ranges above, which would silently stop covering Karatsuba.
const _: () = assert!(KARATSUBA_THRESHOLD < 200);

#[test]
fn zero_and_degenerate_xgcd() {
    let a = Poly::from_coeffs(vec![Fr::from_u64(3), Fr::from_u64(1)]);
    // gcd(a, 0) = a with trivial cofactors
    let (g, u, v) = a.xgcd(&Poly::zero());
    assert_eq!(g, a);
    assert_eq!(u.mul(&a).add(&v.mul(&Poly::zero())), g);
    // gcd(0, 0) = 0
    let (g0, _, _) = Poly::zero().xgcd(&Poly::zero());
    assert!(g0.is_zero());
}

/// Known answers for Acc1: a fixed-seed key, `setup` of a 300-element `X₁`
/// and of clauses of 1, 4, 14 and 70 literals, and the disjointness proof
/// of each — the SHA-256 of `acc(X₁)`, then of each clause's `acc(X₂)` ‖
/// proof. Recorded at the commit whose `xgcd` still took a half-GCD path
/// for the 70-literal clause (both degrees ≥ 64): the minimal Bézout pair
/// normalised by `g⁻¹` is unique, so the one classical `xgcd` must give
/// the same bytes.
#[test]
fn acc1_known_answer_bytes() {
    let acc = Acc1::keygen(300, &mut StdRng::seed_from_u64(0x4B41));
    let x1: MultiSet<u64> = (1..=300u64).collect();
    let digest = |bytes: &[u8]| vchain_hash::hash_bytes(bytes).to_hex();
    assert_eq!(
        digest(&Acc1::value_bytes(&acc.setup(&x1))),
        "65254141bd9022b3fe633dc954eee89103cb3d8992fc7abde46ae1d130c4a8b7"
    );
    for (literals, expected) in [
        (1u64, "beb7b2568145a7abdbd3b7561fa7ca8f2e2ef4c9a0d067262fe6c4975ed8ae31"),
        (4, "31c51ee8e9a52cfafb7756edac928d0c8103a5e7bac38bbf6cdda95ae06be4af"),
        (14, "40708da2fc69d563d83390f4cd7be402df946c215443e3a3222365639647a1ec"),
        (70, "bc5e0fd0f56d7f8b94f22189733b6ae09dd1e8369d6227f0a1d76aeb9b5fab7a"),
    ] {
        let x2: MultiSet<u64> = (1000..1000 + literals).collect();
        let mut bytes = Acc1::value_bytes(&acc.setup(&x2));
        bytes.extend(Acc1::proof_bytes(&acc.prove_disjoint(&x1, &x2).unwrap()));
        assert_eq!(digest(&bytes), expected, "{literals}-literal clause");
    }
}
