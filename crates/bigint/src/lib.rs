//! Fixed-width and arbitrary-precision big integers.
//!
//! This crate is the lowest substrate of the vChain reproduction: it provides
//! the limb arithmetic on which the BLS12-381 fields (`vchain-pairing`)
//! are built.
//!
//! Two layers:
//!
//! * [`Uint`] — a `[u64; N]` little-endian fixed-width unsigned integer with
//!   carry-propagating arithmetic and CIOS Montgomery multiplication
//!   ([`MontParams`]). `N = 4` covers the scalar field `Fr` (255 bits) and
//!   `N = 6` covers the base field `Fp` (381 bits).
//! * [`ApInt`] — a small heap-allocated unsigned integer used once at
//!   start-up to derive pairing constants (e.g. `(p⁴ − p² + 1)/r`) instead of
//!   hard-coding them; see `vchain-pairing::params`.
//!
//! On top of the reduced-operand layer, [`DoubleWide`] keeps *unreduced*
//! `2N`-limb products so that sums of products can share a single
//! Montgomery reduction (lazy reduction; see [`dwide`]) — the substrate of
//! the `vchain-pairing` tower's per-output-coefficient reduction scheme.

pub mod apint;
#[cfg(target_arch = "x86_64")]
pub mod asm;
pub mod dwide;
pub mod mont;
pub mod uint;

pub use apint::ApInt;
pub use dwide::DoubleWide;
pub use mont::MontParams;
pub use uint::Uint;

/// `U256`: four 64-bit limbs, used for the BLS12-381 scalar field.
pub type U256 = Uint<4>;
/// `U384`: six 64-bit limbs, used for the BLS12-381 base field.
pub type U384 = Uint<6>;
