//! The cubic extension `Fp6 = Fp2[v]/(v³ − ξ)`, ξ = 1 + u — the middle
//! layer of the 2-3-2 tower `Fp2 → Fp6 → Fp12`.
//!
//! Multiplication is Karatsuba-style interpolation (6 `Fp2` muls instead of
//! 9 schoolbook), squaring is the CH-SQR2 form (2 muls + 3 squares), and
//! inversion is the closed-form norm method (no polynomial Euclid): for
//! `a = a0 + a1·v + a2·v²`,
//!
//! ```text
//! c0 = a0² − ξ·a1·a2,  c1 = ξ·a2² − a0·a1,  c2 = a1² − a0·a2
//! t  = a0·c0 + ξ·(a2·c1 + a1·c2)          (the norm, in Fp2)
//! a⁻¹ = (c0 + c1·v + c2·v²) / t
//! ```

use core::fmt;

use rand::Rng;

use crate::field::Field;
use crate::fp2::Fp2;

/// An element `c0 + c1·v + c2·v²` of `Fp6`, coefficients in `Fp2`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Fp6 {
    /// The constant coefficient.
    pub c0: Fp2,
    /// The coefficient of `v`.
    pub c1: Fp2,
    /// The coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Assemble from coefficients.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Self { c0, c1, c2 }
    }

    /// Embed an `Fp2` element as the constant coefficient.
    pub fn from_fp2(c0: Fp2) -> Self {
        Self { c0, c1: Fp2::zero(), c2: Fp2::zero() }
    }

    /// Multiply by `v` (a cyclic coefficient shift with `v³ = ξ`).
    pub fn mul_by_v(&self) -> Self {
        Self { c0: self.c2.mul_by_xi(), c1: self.c0, c2: self.c1 }
    }

    /// Scale every coefficient by an `Fp2` element.
    pub fn mul_by_fp2(&self, k: &Fp2) -> Self {
        Self {
            c0: Field::mul(&self.c0, k),
            c1: Field::mul(&self.c1, k),
            c2: Field::mul(&self.c2, k),
        }
    }

    /// Sparse product with `b0 + b1·v` (both `Fp2`); 5 unreduced `Fp2`
    /// muls, 6 Montgomery reductions (eager: 15).
    pub fn mul_by_01(&self, b0: &Fp2, b1: &Fp2) -> Self {
        crate::lazy::Fp6Wide::mul_by_01(self, b0, b1).reduce()
    }

    /// Sparse product with `b1·v` alone; 3 unreduced `Fp2` muls, 6
    /// Montgomery reductions (eager: 9).
    pub fn mul_by_1(&self, b1: &Fp2) -> Self {
        crate::lazy::Fp6Wide::mul_by_1(self, b1).reduce()
    }

    /// Eager-reduction reference for [`Fp6::mul_by_01`] (15 reductions via
    /// [`Fp2::mul_eager`]).
    pub fn mul_by_01_eager(&self, b0: &Fp2, b1: &Fp2) -> Self {
        let t0 = self.c0.mul_eager(b0);
        let t1 = self.c1.mul_eager(b1);
        Self {
            c0: t0 + self.c2.mul_eager(b1).mul_by_xi(),
            c1: (self.c0 + self.c1).mul_eager(&(*b0 + *b1)) - t0 - t1,
            c2: self.c2.mul_eager(b0) + t1,
        }
    }

    /// Eager-reduction reference for [`Fp6::mul_by_1`] (9 reductions via
    /// [`Fp2::mul_eager`]).
    pub fn mul_by_1_eager(&self, b1: &Fp2) -> Self {
        Self {
            c0: self.c2.mul_eager(b1).mul_by_xi(),
            c1: self.c0.mul_eager(b1),
            c2: self.c1.mul_eager(b1),
        }
    }

    /// Eager-reduction reference multiplication (18 reductions via
    /// [`Fp2::mul_eager`]); oracle for the lazy production [`Field::mul`].
    pub fn mul_eager(&self, rhs: &Self) -> Self {
        let v0 = self.c0.mul_eager(&rhs.c0);
        let v1 = self.c1.mul_eager(&rhs.c1);
        let v2 = self.c2.mul_eager(&rhs.c2);
        let m12 = (self.c1 + self.c2).mul_eager(&(rhs.c1 + rhs.c2)) - v1 - v2;
        let m01 = (self.c0 + self.c1).mul_eager(&(rhs.c0 + rhs.c1)) - v0 - v1;
        let m02 = (self.c0 + self.c2).mul_eager(&(rhs.c0 + rhs.c2)) - v0 - v2;
        Self { c0: v0 + m12.mul_by_xi(), c1: m01 + v2.mul_by_xi(), c2: m02 + v1 }
    }

    /// Eager-reduction reference squaring (13 reductions); oracle for the
    /// lazy production [`Field::square`].
    pub fn square_eager(&self) -> Self {
        let s0 = self.c0.square_eager();
        let s1 = self.c0.mul_eager(&self.c1).double();
        let s2 = (self.c0 - self.c1 + self.c2).square_eager();
        let s3 = self.c1.mul_eager(&self.c2).double();
        let s4 = self.c2.square_eager();
        Self { c0: s0 + s3.mul_by_xi(), c1: s1 + s4.mul_by_xi(), c2: s1 + s2 + s3 - s0 - s4 }
    }

    /// A uniformly random element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self { c0: Fp2::random(rng), c1: Fp2::random(rng), c2: Fp2::random(rng) }
    }
}

impl Field for Fp6 {
    fn zero() -> Self {
        Self { c0: Fp2::zero(), c1: Fp2::zero(), c2: Fp2::zero() }
    }

    fn one() -> Self {
        Self::from_fp2(Fp2::one())
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    #[inline]
    fn add(&self, rhs: &Self) -> Self {
        Self { c0: self.c0 + rhs.c0, c1: self.c1 + rhs.c1, c2: self.c2 + rhs.c2 }
    }

    #[inline]
    fn sub(&self, rhs: &Self) -> Self {
        Self { c0: self.c0 - rhs.c0, c1: self.c1 - rhs.c1, c2: self.c2 - rhs.c2 }
    }

    #[inline]
    fn neg(&self) -> Self {
        Self { c0: Field::neg(&self.c0), c1: Field::neg(&self.c1), c2: Field::neg(&self.c2) }
    }

    fn mul(&self, rhs: &Self) -> Self {
        // Lazy Karatsuba/Toom: 6 unreduced Fp2 muls combined double-width,
        // 6 Montgomery reductions (eager: 18).
        crate::lazy::Fp6Wide::mul(self, rhs).reduce()
    }

    fn square(&self) -> Self {
        // Lazy CH-SQR2: 6 Montgomery reductions (eager: 13).
        crate::lazy::Fp6Wide::square(self).reduce()
    }

    fn inverse(&self) -> Option<Self> {
        let c0 = self.c0.square() - Field::mul(&self.c1, &self.c2).mul_by_xi();
        let c1 = self.c2.square().mul_by_xi() - Field::mul(&self.c0, &self.c1);
        let c2 = self.c1.square() - Field::mul(&self.c0, &self.c2);
        let t = Field::mul(&self.c0, &c0)
            + (Field::mul(&self.c2, &c1) + Field::mul(&self.c1, &c2)).mul_by_xi();
        let tinv = t.inverse()?;
        Some(Self {
            c0: Field::mul(&c0, &tinv),
            c1: Field::mul(&c1, &tinv),
            c2: Field::mul(&c2, &tinv),
        })
    }

    fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_bytes();
        out.extend_from_slice(&self.c1.to_bytes());
        out.extend_from_slice(&self.c2.to_bytes());
        out
    }
}

impl fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp6({:?} + {:?}·v + {:?}·v²)", self.c0, self.c1, self.c2)
    }
}

crate::impl_field_ops!(Fp6);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(66)
    }

    fn v() -> Fp6 {
        Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero())
    }

    #[test]
    fn v_cubed_is_xi() {
        assert_eq!(v().pow_limbs(&[3]), Fp6::from_fp2(Fp2::xi()));
        let mut r = rng();
        let a = Fp6::random(&mut r);
        assert_eq!(a.mul_by_v(), Field::mul(&a, &v()));
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp6::random(&mut r);
            let b = Fp6::random(&mut r);
            let c = Fp6::random(&mut r);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            assert_eq!(a * Fp6::one(), a);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fp6::one());
            }
        }
        assert!(Fp6::zero().inverse().is_none());
    }

    #[test]
    fn sparse_muls_match_dense() {
        let mut r = rng();
        let a = Fp6::random(&mut r);
        let b0 = Fp2::random(&mut r);
        let b1 = Fp2::random(&mut r);
        assert_eq!(a.mul_by_01(&b0, &b1), Field::mul(&a, &Fp6::new(b0, b1, Fp2::zero())));
        assert_eq!(a.mul_by_1(&b1), Field::mul(&a, &Fp6::new(Fp2::zero(), b1, Fp2::zero())));
        let k = Fp2::random(&mut r);
        assert_eq!(a.mul_by_fp2(&k), Field::mul(&a, &Fp6::from_fp2(k)));
    }
}
