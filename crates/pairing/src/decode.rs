//! Untrusted-input point decoding — the trust boundary between wire bytes
//! and the group types.
//!
//! Everything else in this crate assumes its inputs are *well-formed group
//! elements*: on the curve, in the order-`r` subgroup, with canonical field
//! coordinates. Those assumptions hold for every point the crate constructs
//! itself (generator multiples, endomorphism images, sums thereof) — but a
//! verifier consuming a VO from a Byzantine service provider receives
//! arbitrary bytes. [`Affine::try_from_bytes`] is the only sanctioned path
//! from such bytes to a point, and it checks, in order:
//!
//! 1. **length** — exactly [`CurveSpec::COMPRESSED_BYTES`];
//! 2. **flags** — only the infinity bit (0) and sign bit (1) may be set, the
//!    identity must be the *canonical* identity encoding (zero coordinate,
//!    clear sign bit);
//! 3. **canonical coordinates** — each base-field limb below the modulus
//!    ([`WireField::from_canonical_bytes`]), so every accepted byte string
//!    has exactly one preimage and `encode ∘ decode` is the identity;
//! 4. **on-curve** — `x³ + b` must be a quadratic residue
//!    ([`WireField::sqrt`]);
//! 5. **subgroup membership** — [`CurveSpec::is_in_subgroup`]: the
//!    [σ-eigenvalue check](g1_subgroup_check) for `G1` and the
//!    [ψ-eigenvalue check](g2_subgroup_check) for `G2` (reusing the GLS
//!    twist endomorphism) — 64-bit ladders on `|x|`, each an exact
//!    replacement for the generic 255-bit `[r]·P = O` ladder.
//!
//! A failure at any step is an attributable [`PointDecodeError`] — never a
//! panic — which the accumulator and VO layers surface as their own decode
//! errors so a light client can log *why* a response was rejected.

use core::fmt;

use vchain_bigint::U256;

use crate::curve::{Affine, CurveSpec, G1Affine, G2Affine};
use crate::field::Field;
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::params;

/// Field operations needed only at the untrusted wire boundary: strict
/// canonical decoding and square roots (for point decompression). Implemented
/// by the two curve coordinate fields, [`Fp`] and [`Fp2`].
pub trait WireField: Field {
    /// Strict canonical decode: fixed length, every component reduced.
    /// `None` on any other input; accepted inputs round-trip byte-identically
    /// through [`Field::to_canonical_bytes`].
    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self>;

    /// A square root of `self`, if one exists. Which of the two roots is
    /// returned is unspecified — point decompression re-selects by the
    /// serialized sign bit.
    fn sqrt(&self) -> Option<Self>;
}

impl WireField for Fp {
    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        Fp::from_canonical_bytes(bytes)
    }

    fn sqrt(&self) -> Option<Self> {
        // p ≡ 3 (mod 4), so a^{(p+1)/4} squares to a for every residue a;
        // the final check rejects non-residues (and costs one squaring).
        let cand = self.pow_limbs(&params::derived().p_plus_1_over_4);
        (cand.square() == *self).then_some(cand)
    }
}

impl WireField for Fp2 {
    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 2 * Fp::BYTES {
            return None;
        }
        let c0 = Fp::from_canonical_bytes(&bytes[..Fp::BYTES])?;
        let c1 = Fp::from_canonical_bytes(&bytes[Fp::BYTES..])?;
        Some(Fp2::new(c0, c1))
    }

    fn sqrt(&self) -> Option<Self> {
        // The "norm trick" for Fp[u]/(u²+1) with p ≡ 3 (mod 4): writing
        // a = a0 + a1·u with √(a0² + a1²) = s ∈ Fp (the norm of a square is
        // a square, so a non-square norm already disqualifies `a`), the root
        // is c0 + c1·u with c0² = (a0 ± s)/2 and c1 = a1/(2c0) — one sign
        // makes (a0 ± s)/2 a residue. Every division is fallible and the
        // result is verified by squaring, so malformed inputs cannot panic.
        if self.is_zero() {
            return Some(Self::zero());
        }
        if self.c1.is_zero() {
            // a ∈ Fp: either √a ∈ Fp, or −a is a residue (−1 is a
            // non-residue) and √a = √(−a)·u.
            return match self.c0.sqrt() {
                Some(s) => Some(Self::new(s, Fp::zero())),
                None => Field::neg(&self.c0).sqrt().map(|s| Self::new(Fp::zero(), s)),
            };
        }
        let s = (self.c0.square() + self.c1.square()).sqrt()?;
        let half = Fp::from_u64(2).inverse()?;
        let mut t = Field::mul(&(self.c0 + s), &half);
        let mut c0 = t.sqrt();
        if c0.is_none() {
            t = Field::mul(&(self.c0 - s), &half);
            c0 = t.sqrt();
        }
        let c0 = c0?;
        let c1 = Field::mul(&self.c1, &c0.double().inverse()?);
        let cand = Self::new(c0, c1);
        (cand.square() == *self).then_some(cand)
    }
}

/// Why a compressed point failed to decode. Ordered by check: earlier
/// variants are cheaper to trigger, later ones mean the bytes got further.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointDecodeError {
    /// The byte string is not exactly [`CurveSpec::COMPRESSED_BYTES`] long.
    Length {
        /// The group's compressed size.
        expected: usize,
        /// What arrived.
        got: usize,
    },
    /// The flag byte has bits set beyond the infinity/sign pair.
    InvalidFlags(u8),
    /// The infinity bit is set but the encoding is not the canonical
    /// identity (nonzero coordinate bytes, or the sign bit also set).
    NonCanonicalInfinity,
    /// A coordinate component is not a reduced field element.
    NonCanonicalCoordinate,
    /// The x-coordinate is canonical but `x³ + b` is a non-residue: no such
    /// point exists on the curve.
    NotOnCurve,
    /// The point is on the curve but outside the order-`r` subgroup — the
    /// classic small/wrong-subgroup confinement attack, which would break
    /// the GLS ladder's eigenvalue identity and the pairing's bilinearity.
    WrongSubgroup,
}

impl fmt::Display for PointDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointDecodeError::Length { expected, got } => {
                write!(f, "compressed point must be {expected} bytes, got {got}")
            }
            PointDecodeError::InvalidFlags(b) => write!(f, "invalid point flag byte {b:#04x}"),
            PointDecodeError::NonCanonicalInfinity => {
                write!(f, "identity point must use the canonical all-zero encoding")
            }
            PointDecodeError::NonCanonicalCoordinate => {
                write!(f, "coordinate is not a reduced field element")
            }
            PointDecodeError::NotOnCurve => write!(f, "x-coordinate is not on the curve"),
            PointDecodeError::WrongSubgroup => {
                write!(f, "point is not in the order-r subgroup")
            }
        }
    }
}

impl std::error::Error for PointDecodeError {}

impl<S: CurveSpec> Affine<S> {
    /// Decode a compressed point from untrusted bytes with the full check
    /// ladder (length, flags, canonical coordinate, on-curve, subgroup) —
    /// see the [module docs](self). The inverse of [`Affine::to_bytes`]:
    /// accepted inputs re-encode byte-identically.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, PointDecodeError> {
        let p = Self::try_from_bytes_on_curve(bytes)?;
        if !S::is_in_subgroup(&p) {
            return Err(PointDecodeError::WrongSubgroup);
        }
        Ok(p)
    }

    /// [`Affine::try_from_bytes`] *without* the subgroup check — the point
    /// is guaranteed on the curve (or the identity) but may live in a
    /// wrong-order subgroup of the full curve group.
    ///
    /// This is **not** safe for verification inputs: a wrong-subgroup `G2`
    /// point silently breaks the GLS ladder and the pairing equations. It
    /// exists for the fault-injection harness (which *manufactures*
    /// wrong-subgroup encodings to prove they are rejected) and for
    /// benchmarks isolating the subgroup-check cost.
    pub fn try_from_bytes_on_curve(bytes: &[u8]) -> Result<Self, PointDecodeError> {
        if bytes.len() != S::COMPRESSED_BYTES {
            return Err(PointDecodeError::Length {
                expected: S::COMPRESSED_BYTES,
                got: bytes.len(),
            });
        }
        let flags = bytes[0];
        if flags & !0b11 != 0 {
            return Err(PointDecodeError::InvalidFlags(flags));
        }
        if flags & 0b01 != 0 {
            // identity: sign bit must be clear and the coordinate all-zero,
            // so the identity has exactly one accepted encoding
            if flags != 0b01 || bytes[1..].iter().any(|&b| b != 0) {
                return Err(PointDecodeError::NonCanonicalInfinity);
            }
            return Ok(Self::identity());
        }
        let x = <S::F as WireField>::from_canonical_bytes(&bytes[1..])
            .ok_or(PointDecodeError::NonCanonicalCoordinate)?;
        let rhs = Field::add(&Field::mul(&x.square(), &x), &S::b());
        let y = rhs.sqrt().ok_or(PointDecodeError::NotOnCurve)?;
        let want_largest = flags & 0b10 != 0;
        let y = if y.is_lexicographically_largest() == want_largest { y } else { Field::neg(&y) };
        Ok(Self { x, y, infinity: false })
    }

    /// Is this point in the order-`r` subgroup? Delegates to
    /// [`CurveSpec::is_in_subgroup`]; every point built by this crate
    /// (generator multiples and their sums/images) returns `true`.
    pub fn is_torsion_free(&self) -> bool {
        S::is_in_subgroup(self)
    }
}

/// The generic membership check `[r]·P = O` on the wNAF reference ladder
/// (the GLS dispatch is *not* used — its eigenvalue identity is exactly
/// what an unchecked point could violate). Roughly one full scalar
/// multiplication; kept as the oracle the two eigenvalue checks below are
/// property-tested against, and as their same-run ledger twin
/// (`g1_subgroup_check_full_order`). Not on any decode path.
pub fn full_order_check<S: CurveSpec>(p: &Affine<S>) -> bool {
    p.to_projective().mul_u256_wnaf(&params::fr_params().modulus).is_identity()
}

/// `G1` subgroup membership via the `j = 0` endomorphism
/// `σ(x, y) = (βx, y)` ([`crate::curve::G1Endo`]): a curve point `P` lies
/// in the order-`r` subgroup iff `σ(P) = [λ]P` with `λ = −x²`, i.e.
/// `σ(P) = −[|x|]([|x|]P)` — two 64-bit ladders on `|x|` (Hamming weight
/// 6) instead of one 255-bit ladder on `r`. `E(Fp)`'s cofactor is ~126
/// bits, so on-curve alone admits wrong-order points; this closes them
/// out at under half a `G1` scalar multiplication (ledger entry
/// `g1_subgroup_check`).
///
/// Soundness is exact, not probabilistic: `σ² + σ + 1 = 0` holds on all of
/// `E(Fp)` (`β² + β + 1 = 0`, and `(x, y) + (βx, y) + (β²x, y) = O`
/// because the three points are the intersection of the curve with a
/// horizontal line), and `σ` commutes with scalar multiplication, so
/// `σ(P) = [λ]P` gives `O = (σ² + σ + 1)P = [λ² + λ + 1]P`. With the
/// *integer* `λ = −x²` that scalar is `x⁴ − x² + 1 = r` exactly. Complete
/// because `G1` is cyclic and the eigenvalue is pinned on its generator at
/// start-up. `sigma_check_agrees_with_full_order_check` pins it against
/// [`full_order_check`] on members, random curve points and pure
/// cofactor-subgroup points.
pub fn g1_subgroup_check(p: &G1Affine) -> bool {
    crate::stats::G1_SUBGROUP_CHECKS.with(|c| c.set(c.get() + 1));
    if p.infinity {
        return true;
    }
    let lp = p.to_projective().mul_bls_x().mul_bls_x().neg();
    crate::curve::g1_endo().sigma(p).to_projective() == lp
}

/// `G2` subgroup membership via the twist endomorphism (Bowe, "Faster
/// subgroup checks for BLS12-381", eprint 2019/814): a curve point `P` lies
/// in the order-`r` subgroup iff `ψ(P) = [x]P`, i.e. `φ(P) = [|x|]P` with
/// the negated endomorphism `φ = −ψ` this crate already derives for GLS
/// scalar multiplication ([`crate::g2_endo`]). `|x|` has 64 bits, so the
/// check costs one endomorphism evaluation plus a 64-bit ladder — about a
/// quarter of the generic full-order check and well under one pairing
/// (ledger entries `g2_subgroup_check` / `pairing`).
///
/// Soundness: `ψ² − [t]ψ + [p] = 0` holds on the whole twist, so a point
/// with `ψ(P) = [x]P` satisfies `[x² − tx + p]P = [p − x]P = O` (BLS:
/// `t = x + 1`), and `gcd(p − x, #E'(Fp2)) = r` for the BLS12-381
/// parameters — the eigenvalue equation pins the order to divide `r`. The
/// `psi_check_agrees_with_full_order_check` property test pins this against
/// the generic ladder on both members and non-members.
pub fn g2_subgroup_check(p: &G2Affine) -> bool {
    crate::stats::G2_SUBGROUP_CHECKS.with(|c| c.set(c.get() + 1));
    if p.infinity {
        return true;
    }
    let pp = p.to_projective();
    crate::curve::g2_endo().phi(&pp) == pp.mul_u256_wnaf(&U256::from_u64(params::BLS_X))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{G1Projective, G2Projective};
    use crate::fp::Fr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    /// A point on the `G2` twist curve that is (overwhelmingly likely) NOT
    /// in the order-`r` subgroup: hash-derived x-coordinates land uniformly
    /// on the curve, whose cofactor is ~508 bits.
    fn twist_point_outside_g2(seed: u64) -> Affine<crate::curve::G2Spec> {
        let mut ctr = seed;
        loop {
            ctr += 1;
            let x = Fp2::new(
                Fp::hash_to_field(&ctr.to_le_bytes()),
                Fp::hash_to_field(&(ctr ^ 0xABCD).to_le_bytes()),
            );
            let rhs = Field::add(&Field::mul(&x.square(), &x), &crate::curve::G2Spec::b());
            if let Some(y) = rhs.sqrt() {
                let p = Affine { x, y, infinity: false };
                assert!(p.is_on_curve());
                return p;
            }
        }
    }

    #[test]
    fn fp_sqrt_round_trips() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let s = WireField::sqrt(&sq).expect("squares have roots");
            assert!(s == sq.sqrt().unwrap());
            assert!(s == a || s == Field::neg(&a));
        }
        assert_eq!(WireField::sqrt(&Fp::zero()), Some(Fp::zero()));
        // −1 is a non-residue for p ≡ 3 (mod 4)
        assert!(WireField::sqrt(&Field::neg(&Fp::one())).is_none());
    }

    #[test]
    fn fp2_sqrt_round_trips() {
        let mut r = rng();
        let mut failures = 0;
        for _ in 0..40 {
            let a = Fp2::random(&mut r);
            let sq = a.square();
            let s = WireField::sqrt(&sq).expect("squares have roots");
            assert_eq!(s.square(), sq);
            if WireField::sqrt(&a).is_none() {
                failures += 1;
            }
        }
        // about half of all elements are non-residues
        assert!(failures > 5, "sqrt must reject non-residues");
        // pure-Fp and pure-u elements exercise the degenerate branch
        let c = Fp::from_u64(7);
        let e = Fp2::new(c, Fp::zero()).square();
        assert_eq!(WireField::sqrt(&e).unwrap().square(), e);
        let e = Fp2::new(Fp::zero(), c).square();
        assert_eq!(WireField::sqrt(&e).unwrap().square(), e);
    }

    #[test]
    fn round_trip_g1_and_g2() {
        let mut r = rng();
        for _ in 0..8 {
            let k = Fr::random(&mut r);
            let p = G1Projective::generator().mul_fr(&k).to_affine();
            let bytes = p.to_bytes();
            let q = G1Affine::try_from_bytes(&bytes).expect("valid point decodes");
            assert_eq!(p, q);
            assert_eq!(q.to_bytes(), bytes, "encode ∘ decode is the identity");

            let p = G2Projective::generator().mul_fr(&k).to_affine();
            let bytes = p.to_bytes();
            let q = G2Affine::try_from_bytes(&bytes).expect("valid point decodes");
            assert_eq!(p, q);
            assert_eq!(q.to_bytes(), bytes);
        }
        // the identity round-trips too
        let id = G1Affine::identity().to_bytes();
        assert!(G1Affine::try_from_bytes(&id).unwrap().is_identity());
        let id = G2Affine::identity().to_bytes();
        assert!(G2Affine::try_from_bytes(&id).unwrap().is_identity());
    }

    #[test]
    fn rejects_each_malformation_with_the_right_error() {
        let p = G1Projective::generator().mul_u64(5).to_affine();
        let bytes = p.to_bytes();

        // length
        assert_eq!(
            G1Affine::try_from_bytes(&bytes[..bytes.len() - 1]),
            Err(PointDecodeError::Length { expected: 49, got: 48 })
        );
        assert_eq!(
            G1Affine::try_from_bytes(&[]),
            Err(PointDecodeError::Length { expected: 49, got: 0 })
        );

        // flags
        let mut b = bytes.clone();
        b[0] |= 0b100;
        assert!(matches!(G1Affine::try_from_bytes(&b), Err(PointDecodeError::InvalidFlags(_))));

        // non-canonical infinity: infinity bit + nonzero coordinate
        let mut b = bytes.clone();
        b[0] |= 0b01;
        assert_eq!(G1Affine::try_from_bytes(&b), Err(PointDecodeError::NonCanonicalInfinity));
        // infinity + sign bit
        let mut b = G1Affine::identity().to_bytes();
        b[0] = 0b11;
        assert_eq!(G1Affine::try_from_bytes(&b), Err(PointDecodeError::NonCanonicalInfinity));

        // non-canonical coordinate: x = p (the modulus) is out of range;
        // all-0xff is certainly ≥ p
        let mut b = bytes.clone();
        for v in b[1..].iter_mut() {
            *v = 0xff;
        }
        assert_eq!(G1Affine::try_from_bytes(&b), Err(PointDecodeError::NonCanonicalCoordinate));

        // not on curve: scan for an x with non-residue x³ + b
        let mut b = bytes.clone();
        let mut found = false;
        for tweak in 1u8..=255 {
            b[1] = bytes[1].wrapping_add(tweak);
            match G1Affine::try_from_bytes(&b) {
                Err(PointDecodeError::NotOnCurve) => {
                    found = true;
                    break;
                }
                _ => continue,
            }
        }
        assert!(found, "some tweaked x must fall off the curve");
    }

    #[test]
    fn subgroup_checks_accept_members() {
        let mut r = rng();
        for _ in 0..5 {
            let k = Fr::random(&mut r);
            assert!(g1_subgroup_check(&G1Projective::generator().mul_fr(&k).to_affine()));
            assert!(g2_subgroup_check(&G2Projective::generator().mul_fr(&k).to_affine()));
        }
        assert!(g1_subgroup_check(&G1Affine::identity()));
        assert!(g2_subgroup_check(&G2Affine::identity()));
    }

    #[test]
    fn psi_check_agrees_with_full_order_check() {
        // On subgroup members both checks pass (above); on random twist
        // points both must fail — the ψ shortcut may not accept anything
        // the full-order ladder rejects.
        for seed in 0..6u64 {
            let p = twist_point_outside_g2(seed * 1000);
            assert!(!full_order_check(&p), "hash-derived twist points are not in G2");
            assert_eq!(g2_subgroup_check(&p), full_order_check(&p));
        }
    }

    /// The first point of `E(Fp)` with a hash-derived x-coordinate at or
    /// after counter `from`: uniform on the curve, so outside `G1` with
    /// probability `1 − 1/h₁ ≈ 1`.
    fn curve_point_outside_g1(from: u64) -> G1Affine {
        let mut ctr = from;
        loop {
            ctr += 1;
            let x = Fp::hash_to_field(&ctr.to_le_bytes());
            let rhs = Field::add(&Field::mul(&x.square(), &x), &crate::curve::G1Spec::b());
            if let Some(y) = rhs.sqrt() {
                let p = G1Affine { x, y, infinity: false };
                assert!(p.is_on_curve());
                return p;
            }
        }
    }

    #[test]
    fn sigma_check_agrees_with_full_order_check() {
        // Members: random generator multiples and the identity.
        let mut r = rng();
        for _ in 0..8 {
            let p = G1Projective::generator().mul_fr(&Fr::random(&mut r)).to_affine();
            assert!(full_order_check(&p));
            assert!(g1_subgroup_check(&p));
        }
        assert!(g1_subgroup_check(&G1Affine::identity()));
        assert!(full_order_check(&G1Affine::identity()));

        let order = params::fr_params().modulus;
        for seed in 0..8u64 {
            // Non-members with a component in every part of E(Fp) …
            let q = curve_point_outside_g1(seed * 1000);
            assert!(!full_order_check(&q), "hash-derived E(Fp) points are not in G1");
            assert_eq!(g1_subgroup_check(&q), full_order_check(&q));
            // … and pure cofactor-subgroup points [r]·Q, whose G1 component
            // is gone: the hardest case for a check that only looked at
            // "some multiple of P".
            let c = q.to_projective().mul_u256_wnaf(&order).to_affine();
            assert!(c.is_on_curve() && !c.is_identity());
            assert!(!full_order_check(&c), "[r]·Q has order dividing the cofactor");
            assert_eq!(g1_subgroup_check(&c), full_order_check(&c));
            // A member plus a cofactor point is no member either.
            let mixed = G1Projective::generator().mul_u64(seed + 2).add_affine(&c).to_affine();
            assert_eq!(g1_subgroup_check(&mixed), full_order_check(&mixed));
            assert!(!g1_subgroup_check(&mixed));
        }
    }

    #[test]
    fn wrong_subgroup_encodings_are_rejected() {
        let p = twist_point_outside_g2(42);
        let bytes = p.to_bytes();
        assert_eq!(G2Affine::try_from_bytes(&bytes), Err(PointDecodeError::WrongSubgroup));
        // …but the explicitly-unchecked decoder accepts them (that is its
        // documented purpose: manufacturing adversarial inputs)
        let q = G2Affine::try_from_bytes_on_curve(&bytes).expect("on-curve decode");
        assert_eq!(q, p);
    }

    #[test]
    fn g1_wrong_subgroup_rejected_when_cofactor_point_found() {
        // Hash-derived x-coordinates on E(Fp) land outside G1 with
        // probability 1 − 1/h₁ ≈ 1: the first decodable x must be rejected
        // by the checked decoder and accepted by the on-curve one.
        let p = curve_point_outside_g1(0);
        assert!(!g1_subgroup_check(&p), "hash-derived E(Fp) point is not in G1");
        let bytes = p.to_bytes();
        assert_eq!(G1Affine::try_from_bytes(&bytes), Err(PointDecodeError::WrongSubgroup));
        assert_eq!(G1Affine::try_from_bytes_on_curve(&bytes), Ok(p));
    }

    #[test]
    fn single_bit_corruptions_never_yield_a_different_valid_point() {
        // Flipping any single bit of a valid encoding must either fail to
        // decode or decode to a point that re-encodes differently — i.e. the
        // decoder cannot be tricked into aliasing two encodings.
        let mut r = rng();
        let p = G2Projective::generator().mul_u64(r.gen_range(2..1000)).to_affine();
        let bytes = p.to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[byte] ^= 1 << bit;
                if let Ok(q) = G2Affine::try_from_bytes(&b) {
                    assert_eq!(q.to_bytes(), b, "accepted decode must be canonical");
                    assert_ne!(q, p, "a flipped bit cannot encode the same point");
                }
            }
        }
    }
}
