//! Short-Weierstrass groups `G1` (over `Fp`) and `G2` (over `Fp2`, the
//! sextic twist), with complete projective formulas, scalar multiplication
//! and Pippenger multi-exponentiation.
//!
//! The addition/doubling formulas are the complete formulas for `a = 0`
//! curves of Renes–Costello–Batina (EUROCRYPT'16, Algorithms 7 & 9): no
//! special cases for the identity or for doubling, which removes a whole
//! class of edge-case bugs (and is validated by the group-law property
//! tests at the bottom of this file).

use core::fmt;
use std::sync::OnceLock;

use vchain_bigint::{U256, U384};

use crate::field::Field;
use crate::fp::{Fp, Fr};
use crate::fp2::Fp2;
use crate::params;

/// Static description of one of the two source groups.
pub trait CurveSpec: Copy + Clone + Send + Sync + 'static {
    /// The coordinate field. The [`WireField`](crate::decode::WireField)
    /// bound supplies canonical decoding and square roots, so the untrusted
    /// decompressing deserializer ([`Affine::try_from_bytes`]) works
    /// generically over both groups.
    type F: crate::decode::WireField;
    /// The curve constant `b` in `y² = x³ + b`.
    fn b() -> Self::F;
    /// `3·b`, used by the complete formulas.
    fn b3() -> Self::F;
    /// The (checked) published generator.
    fn generator() -> Affine<Self>;
    /// Cached fixed-base window table for the generator (lazily built).
    fn generator_table() -> &'static FixedBaseTable<Self>;
    /// The cheap endomorphism `φ = [|x|]` (scalar multiplication by the
    /// absolute BLS parameter) on an affine point, when this group has
    /// one. `G2` returns the negated twist/GLS endomorphism `φ = −ψ` (see
    /// [`g2_endo`]); `G1` returns `None` and takes the generic ladders.
    fn endo_phi_affine(p: &Affine<Self>) -> Option<Affine<Self>> {
        let _ = p;
        None
    }
    /// [`CurveSpec::endo_phi_affine`] on projective coordinates (no
    /// normalization needed: the endomorphism acts coordinate-wise).
    fn endo_phi_proj(p: &Projective<Self>) -> Option<Projective<Self>> {
        let _ = p;
        None
    }
    /// Whether [`CurveSpec::endo_phi_affine`]/[`CurveSpec::endo_phi_proj`]
    /// return `Some` (lets hot paths branch without an endomorphism
    /// evaluation).
    const HAS_ENDO: bool = false;
    /// Exact serialized size of a compressed point (`1` flag byte + `x`
    /// coordinate); [`Affine::to_bytes`] always emits this many bytes.
    const COMPRESSED_BYTES: usize;
    /// Human-readable name for diagnostics.
    const NAME: &'static str;
    /// Is `p` (assumed on the curve) in the order-`r` subgroup? This is the
    /// last step of the untrusted decode ladder ([`Affine::try_from_bytes`]).
    /// Both groups answer with an endomorphism-eigenvalue check — two
    /// (`G1`, [`crate::decode::g1_subgroup_check`]) or one (`G2`,
    /// [`crate::decode::g2_subgroup_check`]) 64-bit ladders on `|x|` in
    /// place of the 255-bit `[r]·p = O` ladder, which survives only as the
    /// test oracle ([`crate::decode::full_order_check`]).
    fn is_in_subgroup(p: &Affine<Self>) -> bool;
}

/// The group `E(Fp) : y² = x³ + 4`.
#[derive(Clone, Copy)]
pub struct G1Spec;

/// The twist group `E'(Fp2) : y² = x³ + 4(1 + u)`.
#[derive(Clone, Copy)]
pub struct G2Spec;

static G1_GEN: OnceLock<Affine<G1Spec>> = OnceLock::new();
static G2_GEN: OnceLock<Affine<G2Spec>> = OnceLock::new();
static G1_TABLE: OnceLock<FixedBaseTable<G1Spec>> = OnceLock::new();
static G2_TABLE: OnceLock<FixedBaseTable<G2Spec>> = OnceLock::new();
static G2_ENDO: OnceLock<G2Endo> = OnceLock::new();
static G1_ENDO: OnceLock<G1Endo> = OnceLock::new();

/// The `G1` endomorphism `σ(x, y) = (β·x, y)` with `β` a primitive cube
/// root of unity in `Fp` (`E: y² = x³ + 4` has `j = 0`, so scaling `x` by
/// `β` preserves the curve equation). `σ² + σ + 1 = 0` on all of `E(Fp)`,
/// and on `G1` it acts as multiplication by `λ = −x²`, a root of
/// `λ² + λ + 1 = x⁴ − x² + 1 = r`. That pair of facts is the whole `G1`
/// subgroup check ([`crate::decode::g1_subgroup_check`]).
///
/// Like [`G2Endo`], `β` is *derived, not transcribed*: solved from
/// `σ(g₁) = [λ]·g₁` on the published generator, then asserted to be a
/// primitive cube root of unity — which is what makes the map a curve
/// endomorphism, so matching the eigenvalue on the generator pins it on
/// the whole (cyclic) group.
#[derive(Debug)]
pub struct G1Endo {
    beta: Fp,
}

impl G1Endo {
    /// `σ(P)` on an affine point (the identity maps to itself).
    pub fn sigma(&self, p: &Affine<G1Spec>) -> Affine<G1Spec> {
        Affine { x: Field::mul(&p.x, &self.beta), y: p.y, infinity: p.infinity }
    }
}

/// The derived-and-verified `G1` endomorphism (lazily initialized; see
/// [`G1Endo`]).
pub fn g1_endo() -> &'static G1Endo {
    G1_ENDO.get_or_init(|| {
        let g = G1Spec::generator();
        // [λ]·g = −[|x|]([|x|]·g), on the reference ladder.
        let x = U256::from_u64(params::BLS_X);
        let lg = g.to_projective().mul_u256_wnaf(&x).mul_u256_wnaf(&x).neg().to_affine();
        assert_eq!(lg.y, g.y, "σ fixes y: [λ]·g must share the generator's y");
        let beta = Field::mul(&lg.x, &g.x.inverse().expect("generator x ≠ 0"));
        assert_ne!(beta, Fp::one(), "β must be a primitive cube root of unity");
        assert_eq!(Field::mul(&beta.square(), &beta), Fp::one(), "β³ = 1");
        G1Endo { beta }
    })
}

/// The twist (GLS) endomorphism `ψ` of `G2`, in the coordinate form
/// `ψ(x, y) = (c_x·x̄, c_y·ȳ)` (bar = `Fp2` conjugation, the `p`-power
/// Frobenius on the coordinate field). On `G2` it acts as multiplication
/// by the BLS parameter `x` (because `p ≡ x (mod r)`), so the negated map
/// `φ = −ψ = [|x|]` turns one 255-bit `G2` scalar multiplication into four
/// 64-bit ones sharing a doubling chain ([`Projective::mul_u256`]).
///
/// The coefficients are *derived*, not transcribed: `c_x` and `c_y` are
/// solved from `ψ(g₂) = [p mod r]·g₂` on the published generator, then the
/// start-up assertions check `c_y² = c_x³` and `c_y²·conj(b′) = b′` —
/// together these make the map "Frobenius followed by a curve
/// isomorphism", i.e. a genuine group endomorphism, so matching the
/// eigenvalue on the generator pins it on the whole (cyclic) group.
#[derive(Debug)]
pub struct G2Endo {
    c_x: Fp2,
    c_y: Fp2,
    /// `λ = r − |x|`, the eigenvalue of `ψ` on `G2`, as an integer.
    pub lambda: U256,
}

impl G2Endo {
    /// `ψ(P)` on projective coordinates (the identity maps to itself:
    /// all-coordinate conjugation-and-scale preserves `Z = 0`).
    pub fn psi(&self, p: &Projective<G2Spec>) -> Projective<G2Spec> {
        Projective {
            x: Field::mul(&p.x.conjugate(), &self.c_x),
            y: Field::mul(&p.y.conjugate(), &self.c_y),
            z: p.z.conjugate(),
        }
    }

    /// `φ(P) = −ψ(P) = [|x|]·P`.
    pub fn phi(&self, p: &Projective<G2Spec>) -> Projective<G2Spec> {
        self.psi(p).neg()
    }

    /// `φ` on an affine point (stays affine: `ψ` maps `Z = 1` to `Z = 1`).
    pub fn phi_affine(&self, p: &Affine<G2Spec>) -> Affine<G2Spec> {
        if p.infinity {
            return *p;
        }
        Affine {
            x: Field::mul(&p.x.conjugate(), &self.c_x),
            y: Field::neg(&Field::mul(&p.y.conjugate(), &self.c_y)),
            infinity: false,
        }
    }
}

/// The derived-and-verified `G2` twist endomorphism (lazily initialized;
/// see [`G2Endo`]).
pub fn g2_endo() -> &'static G2Endo {
    G2_ENDO.get_or_init(|| {
        let g = G2Spec::generator();
        // λ = r − |x|  (ψ multiplies by x, which is negative for BLS12-381)
        let (lambda, borrow) = params::fr_params().modulus.sbb(&U256::from_u64(params::BLS_X));
        assert!(!borrow, "BLS |x| must be below the group order");
        // Solve ψ(g) = λ·g for the coordinate constants. The wNAF ladder is
        // used deliberately: mul_u256 itself dispatches through this endo.
        let lg = g.to_projective().mul_u256_wnaf(&lambda).to_affine();
        let c_x = Field::mul(&lg.x, &g.x.conjugate().inverse().expect("generator x ≠ 0"));
        let c_y = Field::mul(&lg.y, &g.y.conjugate().inverse().expect("generator y ≠ 0"));
        // ψ = (π followed by the twist isomorphism u = c_y/c_x) requires:
        assert_eq!(c_y.square(), Field::mul(&c_x.square(), &c_x), "c_y² = c_x³ (isomorphism form)");
        assert_eq!(
            Field::mul(&c_y.square(), &G2Spec::b().conjugate()),
            G2Spec::b(),
            "u⁶·conj(b′) = b′ (isomorphism lands on the twist)"
        );
        let endo = G2Endo { c_x, c_y, lambda };
        // Belt and braces: the eigen-relation must also hold away from the
        // generator used to derive it.
        let probe = g.to_projective().mul_u256_wnaf(&U256::from_u64(0xfeed_beef));
        assert_eq!(
            endo.psi(&probe),
            probe.mul_u256_wnaf(&lambda),
            "ψ must act as [λ] on all of G2"
        );
        endo
    })
}

/// Decompose a scalar in base `|x|`: `k = Σ eᵢ·|x|ⁱ` with `eᵢ ∈ [0, |x|)`.
/// `None` when `k ≥ |x|⁴` (≈ 2^255.7 — never a reduced scalar; the caller
/// falls back to the generic ladder). Shared with the comb layer, whose
/// `G2` tooth points are endomorphism images addressed by these digits.
pub(crate) fn gls_digits(k: &U256) -> Option<[u64; 4]> {
    #[inline]
    fn divrem_u64(k: &U256, d: u64) -> (U256, u64) {
        let mut q = U256::ZERO;
        let mut rem = 0u128;
        for i in (0..4).rev() {
            let cur = (rem << 64) | k.0[i] as u128;
            q.0[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (q, rem as u64)
    }
    let x = params::BLS_X;
    let (q1, e0) = divrem_u64(k, x);
    let (q2, e1) = divrem_u64(&q1, x);
    let (q3, e2) = divrem_u64(&q2, x);
    if q3.highest_bit().is_some_and(|b| b >= 64) || q3.0[0] >= x {
        return None;
    }
    Some([e0, e1, e2, q3.0[0]])
}

/// Window width of the wNAF scalar-multiplication ladder.
const WNAF_WINDOW: u32 = 4;
/// Window width of the fixed-base generator tables.
const FIXED_BASE_WINDOW: u32 = 4;

/// Precomputed multiples of a fixed base: `windows[i][j] = (j+1)·2^{w·i}·B`.
/// A scalar multiplication then needs only one table addition per `w`-bit
/// window — no doublings at all.
pub struct FixedBaseTable<S: CurveSpec> {
    window: u32,
    windows: Vec<Vec<Projective<S>>>,
}

impl<S: CurveSpec> FixedBaseTable<S> {
    /// Precompute the per-window multiples of `base` for `w`-bit windows.
    pub fn new(base: &Projective<S>, window: u32) -> Self {
        assert!((1..=8).contains(&window));
        let num_windows = 256u32.div_ceil(window);
        let per_window = (1usize << window) - 1;
        let mut windows = Vec::with_capacity(num_windows as usize);
        let mut b = *base;
        for _ in 0..num_windows {
            let mut entries = Vec::with_capacity(per_window);
            let mut cur = b;
            for _ in 0..per_window {
                entries.push(cur);
                cur = cur.add(&b);
            }
            // after 2^w − 1 additions, `cur` is exactly 2^w·b
            b = cur;
            windows.push(entries);
        }
        Self { window, windows }
    }

    /// `k · base` via one table addition per window — no doublings.
    pub fn mul(&self, k: &U256) -> Projective<S> {
        let mut acc = Projective::identity();
        let top = match k.highest_bit() {
            None => return acc,
            Some(t) => t,
        };
        for (i, entries) in self.windows.iter().enumerate() {
            let shift = i as u32 * self.window;
            if shift > top {
                break;
            }
            let mut idx = 0usize;
            for b in 0..self.window {
                if k.bit(shift + b) {
                    idx |= 1 << b;
                }
            }
            if idx > 0 {
                acc = acc.add(&entries[idx - 1]);
            }
        }
        acc
    }
}

/// Width-`w` non-adjacent-form digits of `k`, least-significant first.
/// Every nonzero digit is odd and lies in `[−2^{w−1}, 2^{w−1})`; at most
/// one of any `w` consecutive digits is nonzero.
fn wnaf_digits(k: &U256, w: u32) -> Vec<i16> {
    if k.is_zero() {
        return Vec::new();
    }
    // one spare limb: adding |d| < 2^w after a negative digit may carry out
    let mut l = [0u64; 5];
    l[..4].copy_from_slice(&k.0);
    let mut digits = Vec::with_capacity(260);
    while l.iter().any(|&x| x != 0) {
        let d: i64 = if l[0] & 1 == 1 {
            let mask = (1u64 << w) - 1;
            let mut d = (l[0] & mask) as i64;
            if d >= 1i64 << (w - 1) {
                d -= 1i64 << w;
            }
            // subtract the digit so the low w bits become zero
            if d > 0 {
                let mut borrow = d as u64;
                for li in l.iter_mut() {
                    let (v, b) = li.overflowing_sub(borrow);
                    *li = v;
                    borrow = b as u64;
                    if borrow == 0 {
                        break;
                    }
                }
            } else {
                let mut carry = (-d) as u64;
                for li in l.iter_mut() {
                    let (v, c) = li.overflowing_add(carry);
                    *li = v;
                    carry = c as u64;
                    if carry == 0 {
                        break;
                    }
                }
            }
            d
        } else {
            0
        };
        digits.push(d as i16);
        // shift right by one bit
        for i in 0..5 {
            l[i] = (l[i] >> 1) | if i + 1 < 5 { l[i + 1] << 63 } else { 0 };
        }
    }
    digits
}

impl CurveSpec for G1Spec {
    type F = Fp;

    fn b() -> Fp {
        Fp::from_u64(4)
    }

    fn b3() -> Fp {
        Fp::from_u64(12)
    }

    fn generator() -> Affine<Self> {
        *G1_GEN.get_or_init(|| {
            let g = Affine::<G1Spec> {
                x: Fp::from_uint(&U384::from_hex(params::G1_X_HEX)),
                y: Fp::from_uint(&U384::from_hex(params::G1_Y_HEX)),
                infinity: false,
            };
            assert!(g.is_on_curve(), "published G1 generator not on curve");
            assert!(
                g.to_projective().mul_u256(&params::fr_params().modulus).is_identity(),
                "published G1 generator does not have order r"
            );
            g
        })
    }

    fn generator_table() -> &'static FixedBaseTable<Self> {
        G1_TABLE.get_or_init(|| {
            FixedBaseTable::new(&Self::generator().to_projective(), FIXED_BASE_WINDOW)
        })
    }

    const COMPRESSED_BYTES: usize = 49;
    const NAME: &'static str = "G1";

    fn is_in_subgroup(p: &Affine<Self>) -> bool {
        crate::decode::g1_subgroup_check(p)
    }
}

impl CurveSpec for G2Spec {
    type F = Fp2;

    fn b() -> Fp2 {
        // 4(1 + u)
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }

    fn b3() -> Fp2 {
        Fp2::new(Fp::from_u64(12), Fp::from_u64(12))
    }

    fn generator() -> Affine<Self> {
        *G2_GEN.get_or_init(|| {
            let g = Affine::<G2Spec> {
                x: Fp2::new(
                    Fp::from_uint(&U384::from_hex(params::G2_X0_HEX)),
                    Fp::from_uint(&U384::from_hex(params::G2_X1_HEX)),
                ),
                y: Fp2::new(
                    Fp::from_uint(&U384::from_hex(params::G2_Y0_HEX)),
                    Fp::from_uint(&U384::from_hex(params::G2_Y1_HEX)),
                ),
                infinity: false,
            };
            assert!(g.is_on_curve(), "published G2 generator not on twist curve");
            // wNAF ladder on purpose: the dispatching mul_u256 routes
            // through the endomorphism, whose derivation needs this
            // generator — the reference ladder breaks the cycle.
            assert!(
                g.to_projective().mul_u256_wnaf(&params::fr_params().modulus).is_identity(),
                "published G2 generator does not have order r"
            );
            g
        })
    }

    fn generator_table() -> &'static FixedBaseTable<Self> {
        G2_TABLE.get_or_init(|| {
            FixedBaseTable::new(&Self::generator().to_projective(), FIXED_BASE_WINDOW)
        })
    }

    fn endo_phi_affine(p: &Affine<Self>) -> Option<Affine<Self>> {
        Some(g2_endo().phi_affine(p))
    }

    fn endo_phi_proj(p: &Projective<Self>) -> Option<Projective<Self>> {
        Some(g2_endo().phi(p))
    }

    const HAS_ENDO: bool = true;

    const COMPRESSED_BYTES: usize = 97;
    const NAME: &'static str = "G2";

    fn is_in_subgroup(p: &Affine<Self>) -> bool {
        crate::decode::g2_subgroup_check(p)
    }
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy)]
pub struct Affine<S: CurveSpec> {
    /// The x-coordinate (unspecified for the identity).
    pub x: S::F,
    /// The y-coordinate (unspecified for the identity).
    pub y: S::F,
    /// Is this the point at infinity?
    pub infinity: bool,
}

/// A point in homogeneous projective coordinates `(X : Y : Z)`.
#[derive(Clone, Copy)]
pub struct Projective<S: CurveSpec> {
    /// The `X` coordinate.
    pub x: S::F,
    /// The `Y` coordinate.
    pub y: S::F,
    /// The `Z` coordinate (`0` for the identity).
    pub z: S::F,
}

/// An affine `G1` point.
pub type G1Affine = Affine<G1Spec>;
/// A projective `G1` point.
pub type G1Projective = Projective<G1Spec>;
/// An affine `G2` point.
pub type G2Affine = Affine<G2Spec>;
/// A projective `G2` point.
pub type G2Projective = Projective<G2Spec>;

impl<S: CurveSpec> Affine<S> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self { x: S::F::zero(), y: S::F::one(), infinity: true }
    }

    /// Is this the point at infinity?
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Does the point satisfy the curve equation? (The identity does.)
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = self.y.square();
        let rhs = Field::add(&Field::mul(&self.x.square(), &self.x), &S::b());
        y2 == rhs
    }

    /// Lift to projective coordinates (`Z = 1`).
    pub fn to_projective(&self) -> Projective<S> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective { x: self.x, y: self.y, z: S::F::one() }
        }
    }

    /// The group inverse `(x, −y)`.
    pub fn neg(&self) -> Self {
        Self { x: self.x, y: Field::neg(&self.y), infinity: self.infinity }
    }

    /// Canonical *compressed* byte encoding: a flag byte (bit 0 = infinity,
    /// bit 1 = sign of `y`) followed by the `x` coordinate (zeros for the
    /// identity). Always exactly [`CurveSpec::COMPRESSED_BYTES`] bytes, so
    /// the VO size accounting equals what is actually serialized.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(S::COMPRESSED_BYTES);
        if self.infinity {
            out.push(1u8);
            out.resize(S::COMPRESSED_BYTES, 0);
        } else {
            out.push((self.y.is_lexicographically_largest() as u8) << 1);
            out.extend_from_slice(&self.x.to_canonical_bytes());
        }
        debug_assert_eq!(out.len(), S::COMPRESSED_BYTES);
        out
    }
}

impl<S: CurveSpec> PartialEq for Affine<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.infinity && other.infinity)
            || (!self.infinity && !other.infinity && self.x == other.x && self.y == other.y)
    }
}

impl<S: CurveSpec> Eq for Affine<S> {}

impl<S: CurveSpec> fmt::Debug for Affine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infinity {
            write!(f, "{}::identity", S::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", S::NAME, self.x, self.y)
        }
    }
}

impl<S: CurveSpec> Projective<S> {
    /// The group identity `(0 : 1 : 0)`.
    pub fn identity() -> Self {
        Self { x: S::F::zero(), y: S::F::one(), z: S::F::zero() }
    }

    /// The published group generator.
    pub fn generator() -> Self {
        S::generator().to_projective()
    }

    /// Is this the group identity?
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Normalize to affine coordinates (one field inversion; use
    /// [`batch_to_affine`] for many points).
    pub fn to_affine(&self) -> Affine<S> {
        match self.z.inverse() {
            None => Affine::identity(),
            Some(zinv) => Affine {
                x: Field::mul(&self.x, &zinv),
                y: Field::mul(&self.y, &zinv),
                infinity: false,
            },
        }
    }

    /// The group inverse.
    pub fn neg(&self) -> Self {
        Self { x: self.x, y: Field::neg(&self.y), z: self.z }
    }

    /// Complete addition (RCB16 Algorithm 7, `a = 0`).
    pub fn add(&self, rhs: &Self) -> Self {
        let b3 = S::b3();
        let (x1, y1, z1) = (self.x, self.y, self.z);
        let (x2, y2, z2) = (rhs.x, rhs.y, rhs.z);

        let mut t0 = Field::mul(&x1, &x2);
        let mut t1 = Field::mul(&y1, &y2);
        let mut t2 = Field::mul(&z1, &z2);
        let mut t3 = Field::add(&x1, &y1);
        let mut t4 = Field::add(&x2, &y2);
        t3 = Field::mul(&t3, &t4);
        t4 = Field::add(&t0, &t1);
        t3 = Field::sub(&t3, &t4);
        t4 = Field::add(&y1, &z1);
        let mut x3 = Field::add(&y2, &z2);
        t4 = Field::mul(&t4, &x3);
        x3 = Field::add(&t1, &t2);
        t4 = Field::sub(&t4, &x3);
        x3 = Field::add(&x1, &z1);
        let mut y3 = Field::add(&x2, &z2);
        x3 = Field::mul(&x3, &y3);
        y3 = Field::add(&t0, &t2);
        y3 = Field::sub(&x3, &y3);
        x3 = Field::add(&t0, &t0);
        t0 = Field::add(&x3, &t0);
        t2 = Field::mul(&b3, &t2);
        let mut z3 = Field::add(&t1, &t2);
        t1 = Field::sub(&t1, &t2);
        y3 = Field::mul(&b3, &y3);
        x3 = Field::mul(&t4, &y3);
        t2 = Field::mul(&t3, &t1);
        x3 = Field::sub(&t2, &x3);
        y3 = Field::mul(&y3, &t0);
        t1 = Field::mul(&t1, &z3);
        y3 = Field::add(&t1, &y3);
        t0 = Field::mul(&t0, &t3);
        z3 = Field::mul(&z3, &t4);
        z3 = Field::add(&z3, &t0);

        Self { x: x3, y: y3, z: z3 }
    }

    /// Complete doubling (RCB16 Algorithm 9, `a = 0`).
    pub fn double(&self) -> Self {
        let b3 = S::b3();
        let (x, y, z) = (self.x, self.y, self.z);

        let mut t0 = Field::mul(&y, &y);
        let mut z3 = Field::add(&t0, &t0);
        z3 = Field::add(&z3, &z3);
        z3 = Field::add(&z3, &z3);
        let t1 = Field::mul(&y, &z);
        let mut t2 = Field::mul(&z, &z);
        t2 = Field::mul(&b3, &t2);
        let mut x3 = Field::mul(&t2, &z3);
        let mut y3 = Field::add(&t0, &t2);
        z3 = Field::mul(&t1, &z3);
        let t1b = Field::add(&t2, &t2);
        t2 = Field::add(&t1b, &t2);
        t0 = Field::sub(&t0, &t2);
        y3 = Field::mul(&t0, &y3);
        y3 = Field::add(&x3, &y3);
        let t1c = Field::mul(&x, &y);
        x3 = Field::mul(&t0, &t1c);
        x3 = Field::add(&x3, &x3);

        Self { x: x3, y: y3, z: z3 }
    }

    /// Add an affine point (identity-safe wrapper over [`Projective::add`]).
    pub fn add_affine(&self, rhs: &Affine<S>) -> Self {
        if rhs.infinity {
            *self
        } else {
            self.add(&rhs.to_projective())
        }
    }

    /// Scalar multiplication by a canonical 256-bit integer.
    ///
    /// Groups with a cheap `[|x|]` endomorphism (`G2`, via the twist/GLS
    /// map — see [`G2Endo`]) decompose the scalar in base `|x|` into four
    /// 64-bit digits and run one *shared* ~64-step double-and-add over the
    /// four endomorphism images: about a quarter of the doublings of the
    /// plain 256-bit ladder. Everything else (and any scalar too large to
    /// decompose) takes the width-4 wNAF ladder
    /// ([`Projective::mul_u256_wnaf`], retained as the property-tested
    /// reference).
    ///
    /// **Precondition (G2):** the point must lie in the order-`r` subgroup
    /// — `ψ` acts as `[p mod r]` only there, so the GLS identity is false
    /// for twist points of other order. This holds for every point in the
    /// system: points this crate constructs (generator multiples,
    /// endomorphism images, sums thereof) are in-subgroup by construction,
    /// and untrusted bytes only become points through
    /// [`Affine::try_from_bytes`], which enforces membership via
    /// [`CurveSpec::is_in_subgroup`] (the ψ-eigenvalue check for `G2`)
    /// before they can reach this method.
    pub fn mul_u256(&self, k: &U256) -> Self {
        if S::HAS_ENDO {
            if let Some(res) = self.mul_u256_gls(k) {
                return res;
            }
        }
        self.mul_u256_wnaf(k)
    }

    /// The GLS path of [`Projective::mul_u256`]: `k = Σ eᵢ·|x|ⁱ` gives
    /// `k·P = Σ eᵢ·φⁱ(P)`, evaluated Straus-style — per-base wNAF digit
    /// strings share one doubling chain.
    fn mul_u256_gls(&self, k: &U256) -> Option<Self> {
        let digits = gls_digits(k)?;
        if digits[1..].iter().all(|&d| d == 0) {
            // sub-|x| scalar: the decomposition degenerates to the plain
            // ladder, so skip the 4-lane table setup
            return None;
        }
        let nafs: [Vec<i16>; 4] =
            core::array::from_fn(|i| wnaf_digits(&U256::from_u64(digits[i]), WNAF_WINDOW));
        // bases φ⁰P … φ³P and their odd-multiple tables [B, 3B, 5B, 7B]
        // (only for lanes with a nonzero digit)
        let mut tables: [Option<[Self; 1 << (WNAF_WINDOW - 2)]>; 4] = [None; 4];
        let mut base = *self;
        for (i, naf) in nafs.iter().enumerate() {
            if i > 0 {
                base = S::endo_phi_proj(&base)?;
            }
            if naf.is_empty() {
                continue;
            }
            let two_b = base.double();
            let mut t = [Self::identity(); 1 << (WNAF_WINDOW - 2)];
            t[0] = base;
            for j in 1..t.len() {
                t[j] = t[j - 1].add(&two_b);
            }
            tables[i] = Some(t);
        }
        let top = nafs.iter().map(Vec::len).max().unwrap_or(0);
        let mut acc = Self::identity();
        for pos in (0..top).rev() {
            acc = acc.double();
            for (naf, table) in nafs.iter().zip(&tables) {
                let Some(table) = table else { continue };
                match naf.get(pos) {
                    Some(&d) if d > 0 => acc = acc.add(&table[(d as usize - 1) / 2]),
                    Some(&d) if d < 0 => acc = acc.add(&table[((-d) as usize - 1) / 2].neg()),
                    _ => {}
                }
            }
        }
        Some(acc)
    }

    /// Scalar multiplication by a canonical 256-bit integer, via
    /// width-4 windowed NAF: ~w/(w+1) of the double-and-add additions are
    /// eliminated using a precomputed odd-multiples table (subtractions are
    /// free because point negation is). Reference ladder for the GLS path
    /// of [`Projective::mul_u256`].
    pub fn mul_u256_wnaf(&self, k: &U256) -> Self {
        let digits = wnaf_digits(k, WNAF_WINDOW);
        if digits.is_empty() {
            return Self::identity();
        }
        // odd multiples: [P, 3P, 5P, …, (2^{w−1} − 1)P]
        let two_p = self.double();
        let mut table = [Self::identity(); 1 << (WNAF_WINDOW - 2)];
        table[0] = *self;
        for i in 1..table.len() {
            table[i] = table[i - 1].add(&two_p);
        }
        let mut acc = Self::identity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            if d > 0 {
                acc = acc.add(&table[(d as usize - 1) / 2]);
            } else if d < 0 {
                acc = acc.add(&table[((-d) as usize - 1) / 2].neg());
            }
        }
        acc
    }

    /// `[|x|]·P` for the BLS parameter by plain double-and-add: `|x|` has
    /// Hamming weight 6, so the 64-bit ladder is 63 doublings and 5
    /// additions with no table to build. Makes no assumption about the
    /// order of `P` — it is the ladder the `G1` subgroup check runs on
    /// points that have not been checked yet.
    pub(crate) fn mul_bls_x(&self) -> Self {
        let x = params::BLS_X;
        let mut acc = *self;
        for i in (0..63 - x.leading_zeros()).rev() {
            acc = acc.double();
            if (x >> i) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Fixed-base scalar multiplication of the group generator using the
    /// cached per-window table: ~`256/w` additions and *no* doublings.
    pub fn generator_mul(k: &U256) -> Self {
        S::generator_table().mul(k)
    }

    /// [`Projective::generator_mul`] for a scalar-field element.
    pub fn generator_mul_fr(k: &Fr) -> Self {
        Self::generator_mul(&k.to_uint())
    }

    /// Scalar multiplication by a scalar-field element.
    pub fn mul_fr(&self, k: &Fr) -> Self {
        self.mul_u256(&k.to_uint())
    }

    /// Scalar multiplication by a small integer.
    pub fn mul_u64(&self, k: u64) -> Self {
        self.mul_u256(&U256::from_u64(k))
    }

    /// Equality as group elements (cross-multiplied projective compare).
    pub fn eq_point(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                Field::mul(&self.x, &other.z) == Field::mul(&other.x, &self.z)
                    && Field::mul(&self.y, &other.z) == Field::mul(&other.y, &self.z)
            }
        }
    }
}

impl<S: CurveSpec> PartialEq for Projective<S> {
    fn eq(&self, other: &Self) -> bool {
        self.eq_point(other)
    }
}

impl<S: CurveSpec> Eq for Projective<S> {}

impl<S: CurveSpec> fmt::Debug for Projective<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_affine())
    }
}

impl<S: CurveSpec> Default for Projective<S> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<S: CurveSpec> core::ops::Add for Projective<S> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}

impl<S: CurveSpec> core::ops::Neg for Projective<S> {
    type Output = Self;
    fn neg(self) -> Self {
        Projective::neg(&self)
    }
}

impl<S: CurveSpec> core::ops::Sub for Projective<S> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs.neg())
    }
}

/// Batch-normalize projective points to affine with *one* shared field
/// inversion (Montgomery's trick) instead of one per point. Identity
/// points map to the affine identity.
pub fn batch_to_affine<S: CurveSpec>(points: &[Projective<S>]) -> Vec<Affine<S>> {
    let mut zs: Vec<S::F> = points.iter().map(|p| p.z).collect();
    crate::field::batch_invert(&mut zs);
    points
        .iter()
        .zip(&zs)
        .map(|(p, zinv)| {
            if p.is_identity() {
                Affine::identity()
            } else {
                Affine { x: Field::mul(&p.x, zinv), y: Field::mul(&p.y, zinv), infinity: false }
            }
        })
        .collect()
}

/// Sum many affine points with batched-affine chord additions: each halving
/// round pairs the points up, inverts all chord denominators with one
/// shared inversion, and emits the sums in affine form again. Per addition
/// this costs ~1 squaring + 5 multiplications (plus the amortized
/// inversion) versus ~14 multiplications for the complete projective
/// formulas — the accumulator prove/setup paths sum hundreds of distinct
/// public-key powers and get ~2× from it. Exceptional same-`x` pairs
/// (doublings / cancellations) are routed through the complete projective
/// formulas, so the function is total.
pub fn sum_affine<S: CurveSpec>(points: impl IntoIterator<Item = Affine<S>>) -> Projective<S> {
    let [sum] = sum_affine_groups([points])[..] else { unreachable!("one group in, one sum out") };
    sum
}

/// [`sum_affine`] over many *independent* groups at once, sharing one
/// batched inversion per halving round across all of them — the comb
/// multi-exponentiation sums its 32 column groups this way and the batch
/// prover every sum of a chunk of proofs, so the amortization never
/// degrades even when individual groups are short. Returns one sum per
/// input group, in order.
///
/// Groups arrive as iterators and are copied exactly once, into one flat
/// working layer that every round halves in place: a caller gathering
/// scattered public-key powers hands over the gather itself, not a `Vec`
/// of its result.
pub fn sum_affine_groups<S, G>(groups: impl IntoIterator<Item = G>) -> Vec<Projective<S>>
where
    S: CurveSpec,
    G: IntoIterator<Item = Affine<S>>,
{
    // Group `g` occupies `layer[start..start + len]` for `spans[g] = (start, len)`.
    let mut layer: Vec<Affine<S>> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for group in groups {
        let start = layer.len();
        layer.extend(group.into_iter().filter(|p| !p.infinity));
        spans.push((start, layer.len() - start));
    }
    let mut spills = vec![Projective::<S>::identity(); spans.len()];
    let mut denoms: Vec<S::F> = Vec::new();
    while spans.iter().any(|&(_, len)| len > 1) {
        denoms.clear();
        for (&(start, len), spill) in spans.iter().zip(&mut spills) {
            for pair in layer[start..start + len].chunks_exact(2) {
                if pair[0].x == pair[1].x {
                    *spill = spill.add(&pair[0].to_projective()).add(&pair[1].to_projective());
                } else {
                    denoms.push(Field::sub(&pair[1].x, &pair[0].x));
                }
            }
        }
        crate::field::batch_invert(&mut denoms);
        let mut inverses = denoms.iter();
        for (start, len) in &mut spans {
            // A round's sums land at the front of the group's own span: the
            // write position never overtakes the pair being read.
            let mut out = *start;
            for i in 0..*len / 2 {
                let (p, q) = (layer[*start + 2 * i], layer[*start + 2 * i + 1]);
                if p.x == q.x {
                    continue; // spilled above
                }
                let inv = inverses.next().expect("one denominator per chord");
                let lambda = Field::mul(&Field::sub(&q.y, &p.y), inv);
                let x3 = Field::sub(&Field::sub(&lambda.square(), &p.x), &q.x);
                let y3 = Field::sub(&Field::mul(&lambda, &Field::sub(&p.x, &x3)), &p.y);
                layer[out] = Affine { x: x3, y: y3, infinity: false };
                out += 1;
            }
            if *len % 2 == 1 {
                layer[out] = layer[*start + *len - 1];
                out += 1;
            }
            *len = out - *start;
        }
    }
    spans
        .iter()
        .zip(spills)
        .map(|(&(start, len), spill)| match len {
            0 => spill,
            _ => spill.add(&layer[start].to_projective()),
        })
        .collect()
}

/// Pippenger bucket multi-exponentiation: `Σ scalars[i] · bases[i]`.
///
/// Window size is chosen from the input length; for very small inputs we
/// fall back to naive double-and-add.
pub fn multiexp<S: CurveSpec>(bases: &[Projective<S>], scalars: &[U256]) -> Projective<S> {
    assert_eq!(bases.len(), scalars.len(), "multiexp length mismatch");
    let n = bases.len();
    if n == 0 {
        return Projective::identity();
    }
    if n < 4 {
        let mut acc = Projective::identity();
        for (b, s) in bases.iter().zip(scalars) {
            acc = acc.add(&b.mul_u256(s));
        }
        return acc;
    }

    let c: u32 = match n {
        0..=15 => 3,
        16..=127 => 5,
        128..=1023 => 7,
        1024..=32767 => 9,
        _ => 12,
    };
    // Only sweep windows up to the highest set bit across all scalars: the
    // prove_disjoint path multiplies by small multiplicity counts, where
    // this collapses the 256-bit sweep to a handful of windows.
    let max_bits = scalars.iter().filter_map(|s| s.highest_bit()).max().map_or(0, |b| b + 1);
    if max_bits == 0 {
        return Projective::identity();
    }
    let num_windows = max_bits.div_ceil(c);
    let mut result = Projective::identity();

    for w in (0..num_windows).rev() {
        for _ in 0..c {
            result = result.double();
        }
        let mut buckets = vec![Projective::<S>::identity(); (1 << c) - 1];
        let shift = w * c;
        for (base, scalar) in bases.iter().zip(scalars) {
            // extract window bits [shift, shift+c)
            let mut idx = 0usize;
            for b in 0..c {
                if scalar.bit(shift + b) {
                    idx |= 1 << b;
                }
            }
            if idx > 0 {
                buckets[idx - 1] = buckets[idx - 1].add(base);
            }
        }
        // suffix-sum the buckets: Σ j * bucket[j]
        let mut running = Projective::identity();
        let mut window_sum = Projective::identity();
        for bucket in buckets.iter().rev() {
            running = running.add(bucket);
            window_sum = window_sum.add(&running);
        }
        result = result.add(&window_sum);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn generators_validate() {
        // The OnceLock init runs on-curve and order checks.
        let _ = G1Spec::generator();
        let _ = G2Spec::generator();
    }

    #[test]
    fn group_laws_g1() {
        let g = G1Projective::generator();
        let two_g = g.double();
        assert_eq!(two_g, g.add(&g));
        assert_eq!(g.add(&G1Projective::identity()), g);
        assert_eq!(g.add(&g.neg()), G1Projective::identity());
        let three = g.add(&two_g);
        assert_eq!(three, g.mul_u64(3));
        // associativity spot check
        let a = g.mul_u64(17);
        let b = g.mul_u64(23);
        let c = g.mul_u64(31);
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn group_laws_g2() {
        let g = G2Projective::generator();
        assert_eq!(g.double(), g.add(&g));
        assert_eq!(g.add(&g.neg()), G2Projective::identity());
        assert_eq!(g.mul_u64(5).add(&g.mul_u64(7)), g.mul_u64(12));
    }

    #[test]
    fn doubling_chain_stays_on_curve() {
        let mut p = G1Projective::generator();
        for _ in 0..10 {
            p = p.double();
            assert!(p.to_affine().is_on_curve());
        }
        let mut q = G2Projective::generator();
        for _ in 0..10 {
            q = q.double();
            assert!(q.to_affine().is_on_curve());
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = G1Projective::generator();
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        assert_eq!(g.mul_fr(&a).add(&g.mul_fr(&b)), g.mul_fr(&(a + b)));
        assert_eq!(g.mul_fr(&a).mul_fr(&b), g.mul_fr(&(a * b)));
    }

    #[test]
    fn scalar_mul_by_group_order_is_identity() {
        let r_mod = params::fr_params().modulus;
        assert!(G1Projective::generator().mul_u256(&r_mod).is_identity());
        assert!(G2Projective::generator().mul_u256(&r_mod).is_identity());
    }

    /// Plain MSB-first double-and-add, as an independent reference.
    fn naive_mul(p: &G1Projective, k: &U256) -> G1Projective {
        let mut acc = G1Projective::identity();
        if let Some(top) = k.highest_bit() {
            for i in (0..=top).rev() {
                acc = acc.double();
                if k.bit(i) {
                    acc = acc.add(p);
                }
            }
        }
        acc
    }

    #[test]
    fn g1_endo_is_a_cube_root_acting_as_lambda() {
        let endo = g1_endo(); // runs the derivation asserts
        assert_ne!(endo.beta, Fp::one());
        assert_eq!(Field::mul(&endo.beta.square(), &endo.beta), Fp::one());
        // σ(P) = [λ]P = −[x²]P on the generator and away from it
        for k in [1u64, 987_654_321] {
            let p = G1Projective::generator().mul_u64(k);
            let lp = p.mul_bls_x().mul_bls_x().neg();
            assert_eq!(endo.sigma(&p.to_affine()), lp.to_affine());
            assert_eq!(p.mul_bls_x(), p.mul_u256_wnaf(&U256::from_u64(params::BLS_X)));
        }
        assert!(endo.sigma(&G1Affine::identity()).is_identity());
    }

    #[test]
    fn g2_endo_acts_as_lambda() {
        let endo = g2_endo(); // runs the derivation asserts
        let g = G2Projective::generator();
        let p = g.mul_u256_wnaf(&U256::from_u64(987_654_321));
        assert_eq!(endo.psi(&p), p.mul_u256_wnaf(&endo.lambda));
        // φ = [|x|]
        assert_eq!(endo.phi(&p), p.mul_u256_wnaf(&U256::from_u64(params::BLS_X)));
        // affine form agrees, incl. the identity
        assert_eq!(endo.phi_affine(&p.to_affine()), endo.phi(&p).to_affine());
        assert!(endo.phi_affine(&G2Affine::identity()).is_identity());
    }

    #[test]
    fn gls_mul_matches_wnaf_ladder() {
        let mut r = rng();
        let g = G2Projective::generator();
        for _ in 0..10 {
            let k = Fr::random(&mut r).to_uint();
            assert_eq!(g.mul_u256(&k), g.mul_u256_wnaf(&k));
        }
        // boundary scalars: 0, 1, |x| ± 1, |x|², r − 1, r (order ⇒ identity)
        let x = params::BLS_X;
        let mut x2 = U256::ZERO;
        let wide = (x as u128) * (x as u128);
        x2.0[0] = wide as u64;
        x2.0[1] = (wide >> 64) as u64;
        let r_mod = params::fr_params().modulus;
        let (r_minus_1, _) = r_mod.sbb(&U256::from_u64(1));
        for k in
            [U256::ZERO, U256::from_u64(1), U256::from_u64(x - 1), U256::from_u64(x), x2, r_minus_1]
        {
            assert_eq!(g.mul_u256(&k), g.mul_u256_wnaf(&k), "k = {k:?}");
        }
        assert!(g.mul_u256(&r_mod).is_identity());
    }

    #[test]
    fn gls_digits_reassemble_scalar() {
        let mut r = rng();
        for _ in 0..20 {
            let k = Fr::random(&mut r).to_uint();
            let d = super::gls_digits(&k).expect("reduced scalars always decompose");
            // Σ dᵢ·|x|ⁱ must equal k exactly (checked with u128 carries)
            let x = params::BLS_X;
            let mut acc = U256::ZERO;
            for &di in d.iter().rev() {
                // acc = acc·x + di
                let mut carry = 0u128;
                let mut next = U256::ZERO;
                for i in 0..4 {
                    let cur = (acc.0[i] as u128) * (x as u128) + carry;
                    next.0[i] = cur as u64;
                    carry = cur >> 64;
                }
                assert_eq!(carry, 0);
                let (sum, c) = next.adc(&U256::from_u64(di));
                assert!(!c);
                acc = sum;
            }
            assert_eq!(acc, k);
        }
        // a value ≥ |x|⁴ must refuse to decompose
        let mut huge = U256::ZERO;
        huge.0[3] = u64::MAX;
        assert!(super::gls_digits(&huge).is_none());
    }

    #[test]
    fn wnaf_mul_matches_naive_ladder() {
        let mut r = rng();
        let g = G1Projective::generator();
        for _ in 0..10 {
            let k = Fr::random(&mut r).to_uint();
            assert_eq!(g.mul_u256(&k), naive_mul(&g, &k));
        }
        for small in [0u64, 1, 2, 7, 8, 15, 16, 255, u64::MAX] {
            let k = U256::from_u64(small);
            assert_eq!(g.mul_u256(&k), naive_mul(&g, &k));
        }
        assert!(super::wnaf_digits(&U256::ZERO, 4).is_empty());
    }

    #[test]
    fn generator_mul_matches_generic_mul() {
        let mut r = rng();
        for _ in 0..5 {
            let k = Fr::random(&mut r).to_uint();
            assert_eq!(G1Projective::generator_mul(&k), G1Projective::generator().mul_u256(&k));
            assert_eq!(G2Projective::generator_mul(&k), G2Projective::generator().mul_u256(&k));
        }
        assert!(G1Projective::generator_mul(&U256::ZERO).is_identity());
        assert_eq!(G1Projective::generator_mul(&U256::from_u64(1)), G1Projective::generator());
    }

    #[test]
    fn multiexp_matches_naive() {
        let g = G1Projective::generator();
        let mut r = rng();
        for n in [1usize, 3, 5, 20, 60] {
            let bases: Vec<_> = (0..n).map(|_| g.mul_u64(r.gen_range(1..1000))).collect();
            let scalars: Vec<_> = (0..n).map(|_| Fr::random(&mut r).to_uint()).collect();
            let expect = bases
                .iter()
                .zip(&scalars)
                .fold(G1Projective::identity(), |acc, (b, s)| acc.add(&b.mul_u256(s)));
            assert_eq!(multiexp(&bases, &scalars), expect, "n = {n}");
        }
    }

    #[test]
    fn multiexp_empty_and_zero_scalars() {
        assert!(multiexp::<G1Spec>(&[], &[]).is_identity());
        let g = G1Projective::generator();
        let zeros = vec![U256::ZERO; 8];
        let bases = vec![g; 8];
        assert!(multiexp(&bases, &zeros).is_identity());
    }

    #[test]
    fn compressed_bytes_are_exact_and_sign_aware() {
        let p = G1Projective::generator().mul_u64(9).to_affine();
        assert_eq!(p.to_bytes().len(), G1Spec::COMPRESSED_BYTES);
        assert_eq!(G1Affine::identity().to_bytes().len(), G1Spec::COMPRESSED_BYTES);
        // P and −P share x but must serialize differently (sign bit)
        assert_ne!(p.to_bytes(), p.neg().to_bytes());
        assert_eq!(p.to_bytes()[1..], p.neg().to_bytes()[1..]);
        let q = G2Projective::generator().mul_u64(5).to_affine();
        assert_eq!(q.to_bytes().len(), G2Spec::COMPRESSED_BYTES);
        assert_ne!(q.to_bytes(), q.neg().to_bytes());
    }

    #[test]
    fn batch_to_affine_matches_pointwise() {
        let g = G1Projective::generator();
        let mut points: Vec<G1Projective> = (1..=9u64).map(|i| g.mul_u64(i)).collect();
        points.insert(3, G1Projective::identity());
        let batch = batch_to_affine(&points);
        for (p, a) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn sum_affine_matches_projective_sum() {
        let g = G1Projective::generator();
        let mut r = rng();
        for n in [0usize, 1, 2, 3, 7, 20, 33] {
            let pts: Vec<G1Affine> =
                (0..n).map(|_| g.mul_u64(r.gen_range(1..10_000)).to_affine()).collect();
            let expect =
                pts.iter().fold(G1Projective::identity(), |acc, p| acc.add(&p.to_projective()));
            assert_eq!(sum_affine(pts.iter().copied()), expect, "n = {n}");
        }
        // exceptional inputs: identities, duplicates (doubling) and
        // cancellations must all route through the spill path correctly
        let p = g.mul_u64(5).to_affine();
        let exceptional =
            [p, p, p.neg(), G1Affine::identity(), g.to_affine(), G1Affine::identity()];
        let expect = g.add(&g.mul_u64(5));
        assert_eq!(sum_affine(exceptional), expect);

        // several groups of unequal length in one call — empty, single,
        // odd, even, and the exceptional one in the middle — share every
        // round's inversion and still come out group by group
        let mut groups: Vec<Vec<G1Affine>> = [0usize, 1, 5, 0, 16, 3, 33]
            .iter()
            .map(|&n| (0..n).map(|_| g.mul_u64(r.gen_range(1..10_000)).to_affine()).collect())
            .collect();
        groups.insert(3, exceptional.to_vec());
        let sums = sum_affine_groups(groups.iter().map(|group| group.iter().copied()));
        assert_eq!(sums.len(), groups.len());
        for (sum, group) in sums.iter().zip(&groups) {
            let expect =
                group.iter().fold(G1Projective::identity(), |acc, p| acc.add(&p.to_projective()));
            assert_eq!(*sum, expect, "group of {}", group.len());
        }
    }

    #[test]
    fn affine_round_trip() {
        let g = G1Projective::generator().mul_u64(12345);
        let a = g.to_affine();
        assert!(a.is_on_curve());
        assert_eq!(a.to_projective(), g);
        assert!(G1Projective::identity().to_affine().is_identity());
    }
}
