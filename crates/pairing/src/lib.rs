//! BLS12-381 bilinear pairing, implemented from scratch.
//!
//! This crate is the cryptographic substrate of the vChain reproduction
//! (the paper used the MCL C++ library; see DESIGN.md §2 for the
//! substitution rationale). It provides:
//!
//! * the base field [`Fp`] (381 bits) and scalar field [`Fr`] (255 bits) in
//!   Montgomery form,
//! * the extensions [`Fp2`] and [`Fp12`] (the latter as a *direct* sextic
//!   extension `Fp2[w]/(w⁶ − ξ)`, ξ = 1 + u),
//! * the groups [`G1Projective`] / [`G2Projective`] with complete projective
//!   formulas, scalar multiplication and Pippenger multi-exponentiation,
//! * the optimal-ate [`pairing`] `e : G1 × G2 → Gt` with a multi-pairing
//!   fast path.
//!
//! All derived constants (Montgomery parameters, Frobenius coefficients,
//! final-exponentiation exponent) are computed at start-up from the BLS
//! parameter `x = -0xd201_0000_0001_0000` and cross-checked against the
//! hard-coded modulus; see [`params`].
//!
//! ```
//! use vchain_pairing::{pairing, Fr, G1Projective, G2Projective};
//!
//! let (g1, g2) = (G1Projective::generator(), G2Projective::generator());
//! let (a, b) = (Fr::from_u64(6), Fr::from_u64(7));
//! let lhs = pairing(&g1.mul_fr(&a).to_affine(), &g2.mul_fr(&b).to_affine());
//! let rhs = pairing(&g1.to_affine(), &g2.to_affine()).pow_fr(&(a * b));
//! assert_eq!(lhs, rhs);
//! ```

#![warn(missing_docs)]

pub mod comb;
pub mod curve;
pub mod decode;
pub mod field;
pub mod fp;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod lazy;
pub mod pairing_impl;
pub mod params;
pub mod stats;

pub use comb::{comb_multiexp, generator_powers, FixedBaseComb, PowersCombCache};
pub use curve::{
    batch_to_affine, g1_endo, g2_endo, multiexp, sum_affine, sum_affine_groups, Affine, CurveSpec,
    G1Affine, G1Endo, G1Projective, G1Spec, G2Affine, G2Endo, G2Projective, G2Spec, Projective,
};
pub use decode::{
    full_order_check, g1_subgroup_check, g2_subgroup_check, PointDecodeError, WireField,
};
pub use field::{batch_invert, Field};
pub use fp::{Fp, Fr};
pub use fp12::{CompressedCyclo, Fp12};
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use pairing_impl::{
    final_exponentiation, final_exponentiation_eager, final_exponentiation_gs, multi_miller_loop,
    multi_miller_loop_eager, multi_pairing, pairing, pairing_eager, Gt,
};
