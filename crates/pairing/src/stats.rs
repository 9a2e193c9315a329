//! Lightweight operation counters for tests and benchmarks: they prove the
//! batching invariants ("n-pair `multi_pairing` = 1 shared Miller loop +
//! 1 final exponentiation") and the projective-loop invariant ("a Miller
//! loop performs zero base-field inversions") without instrumenting call
//! sites. The counters are *per-thread* so that concurrent callers (e.g.
//! parallel tests) cannot perturb each other's deltas.
//!
//! This is a leaf module: the field layer increments the inversion counter
//! without depending on the pairing layer above it.

use core::cell::Cell;

thread_local! {
    pub(crate) static FINAL_EXPS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static MILLER_LOOPS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static FIELD_INVERSIONS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static G1_SUBGROUP_CHECKS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static G2_SUBGROUP_CHECKS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static MONTGOMERY_REDUCTIONS: Cell<u64> = const { Cell::new(0) };
    pub(crate) static MONTGOMERY_REDUCTIONS_EAGER: Cell<u64> = const { Cell::new(0) };
}

/// Bump the eager-reference reduction counter by `n` (one per base-field
/// Montgomery multiplication performed by an `*_eager` tower op).
#[inline]
pub(crate) fn count_eager_reductions(n: u64) {
    MONTGOMERY_REDUCTIONS_EAGER.with(|c| c.set(c.get() + n));
}

/// Final exponentiations performed by the current thread.
pub fn final_exps() -> u64 {
    FINAL_EXPS.with(Cell::get)
}

/// Shared Miller-loop executions by the current thread (a
/// `multi_miller_loop` over any number of pairs counts once).
pub fn miller_loops() -> u64 {
    MILLER_LOOPS.with(Cell::get)
}

/// `G1` subgroup-membership checks run by the current thread — one per
/// checked `G1` point decode that got as far as the last rung of the
/// ladder ([`crate::Affine::try_from_bytes`]), so a delta counts the `G1`
/// points a region decoded from untrusted bytes.
pub fn g1_subgroup_checks() -> u64 {
    G1_SUBGROUP_CHECKS.with(Cell::get)
}

/// [`g1_subgroup_checks`] for `G2`.
pub fn g2_subgroup_checks() -> u64 {
    G2_SUBGROUP_CHECKS.with(Cell::get)
}

/// Base-field (`Fp`/`Fr`) inversions performed by the current thread.
/// Every tower inversion bottoms out here, so a delta of zero across a
/// region proves the region is inversion-free.
pub fn field_inversions() -> u64 {
    FIELD_INVERSIONS.with(Cell::get)
}

/// Montgomery reductions performed by the current thread on the *lazy*
/// (production) tower path — one per double-width accumulator closed by
/// `FpWide::reduce`, i.e. one per tower output coefficient. Raw `Fp`
/// multiplications outside the tower ops are deliberately not counted (a
/// thread-local bump on the single hottest primitive would be measurable),
/// so deltas of this counter are comparable with
/// [`montgomery_reductions_eager`] deltas over the *same* tower operation,
/// not absolute totals.
pub fn montgomery_reductions() -> u64 {
    MONTGOMERY_REDUCTIONS.with(Cell::get)
}

/// Montgomery reductions performed by the current thread inside the
/// `*_eager` reference tower ops (one per base-field multiplication they
/// issue). Split from [`montgomery_reductions`] so differential tests can
/// assert the lazy path performs strictly fewer reductions than the eager
/// reference for the same operation.
pub fn montgomery_reductions_eager() -> u64 {
    MONTGOMERY_REDUCTIONS_EAGER.with(Cell::get)
}
