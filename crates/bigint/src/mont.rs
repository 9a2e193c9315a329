//! Montgomery-form modular arithmetic over a fixed odd modulus.
//!
//! All constants (`n0inv`, `R`, `R²`) are *derived at run time* from the
//! modulus, so the pairing layer never hard-codes values it cannot verify.

use crate::uint::Uint;

/// Parameters for Montgomery arithmetic modulo an odd modulus `m` of `N`
/// limbs. `R = 2^{64N} mod m`.
#[derive(Clone, Debug)]
pub struct MontParams<const N: usize> {
    /// The modulus.
    pub modulus: Uint<N>,
    /// `-m^{-1} mod 2^64`.
    pub n0inv: u64,
    /// `R mod m` — the Montgomery form of 1.
    pub r1: Uint<N>,
    /// `R² mod m` — used to convert into Montgomery form.
    pub r2: Uint<N>,
    /// Whether the hand-scheduled x86_64 multiplication kernels
    /// ([`crate::asm`]) may be used for this width (CPUID-probed once at
    /// construction; always `false` on other architectures or for widths
    /// without a kernel).
    // Every read sits behind `cfg(target_arch = "x86_64")`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) use_asm: bool,
}

impl<const N: usize> MontParams<N> {
    /// Derive all Montgomery constants from the (odd) modulus.
    pub fn new(modulus: Uint<N>) -> Self {
        assert!(modulus.0[0] & 1 == 1, "Montgomery modulus must be odd");
        assert!(
            modulus.highest_bit().map(|b| b as usize) < Some(64 * N - 1),
            "modulus must leave headroom for carries"
        );
        // Newton-Hensel inversion of m mod 2^64: each step doubles precision.
        let m0 = modulus.0[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();

        // R mod m by doubling 1, 64*N times.
        let mut r1 = Uint::<N>::one();
        for _ in 0..(64 * N) {
            r1 = Self::add_mod_raw(&r1, &r1, &modulus);
        }
        // R^2 mod m by doubling R, 64*N more times.
        let mut r2 = r1;
        for _ in 0..(64 * N) {
            r2 = Self::add_mod_raw(&r2, &r2, &modulus);
        }
        // The asm kernels keep the working value in an (N+1)-register
        // window; mid-round sums stay below 2^{64(N+1)} only when
        // m < 2^{64N−1}. The headroom assert above guarantees that for
        // every constructible MontParams, but gate on it explicitly so a
        // future relaxation of the assert cannot silently produce wrong
        // products through the kernels.
        #[cfg(target_arch = "x86_64")]
        let use_asm = (N == 4 || N == 6) && modulus.0[N - 1] >> 63 == 0 && crate::asm::supported();
        #[cfg(not(target_arch = "x86_64"))]
        let use_asm = false;
        Self { modulus, n0inv, r1, r2, use_asm }
    }

    #[inline]
    fn add_mod_raw(a: &Uint<N>, b: &Uint<N>, m: &Uint<N>) -> Uint<N> {
        let (sum, carry) = a.adc(b);
        let (reduced, borrow) = sum.sbb(m);
        if carry || !borrow {
            reduced
        } else {
            sum
        }
    }

    /// Modular addition of two reduced values.
    #[inline]
    pub fn add(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        Self::add_mod_raw(a, b, &self.modulus)
    }

    /// Modular subtraction of two reduced values.
    #[inline]
    pub fn sub(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (diff, borrow) = a.sbb(b);
        if borrow {
            let (wrapped, _) = diff.adc(&self.modulus);
            wrapped
        } else {
            diff
        }
    }

    /// Modular negation of a reduced value.
    #[inline]
    pub fn neg(&self, a: &Uint<N>) -> Uint<N> {
        if a.is_zero() {
            *a
        } else {
            let (diff, _) = self.modulus.sbb(a);
            diff
        }
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod m` for
    /// reduced inputs.
    ///
    /// Dispatches to the BMI2+ADX assembly kernels ([`crate::asm`]) when
    /// the CPU supports them (probed once in [`MontParams::new`]); the
    /// portable path is [`MontParams::mont_mul_portable`], which also
    /// serves as the correctness reference the kernels are property-tested
    /// against.
    #[inline]
    pub fn mont_mul(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        #[cfg(target_arch = "x86_64")]
        if self.use_asm {
            if N == 6 {
                let (limbs, hi) = unsafe {
                    crate::asm::mont_mul_6(
                        a.0[..].try_into().expect("N == 6"),
                        b.0[..].try_into().expect("N == 6"),
                        self.modulus.0[..].try_into().expect("N == 6"),
                        self.n0inv,
                    )
                };
                let mut out = [0u64; N];
                out.copy_from_slice(&limbs);
                return self.reduce_once(Uint(out), hi);
            }
            if N == 4 {
                let (limbs, hi) = unsafe {
                    crate::asm::mont_mul_4(
                        a.0[..].try_into().expect("N == 4"),
                        b.0[..].try_into().expect("N == 4"),
                        self.modulus.0[..].try_into().expect("N == 4"),
                        self.n0inv,
                    )
                };
                let mut out = [0u64; N];
                out.copy_from_slice(&limbs);
                return self.reduce_once(Uint(out), hi);
            }
        }
        self.mont_mul_portable(a, b)
    }

    /// Final CIOS correction: the raw product is `< 2m`, so at most one
    /// subtraction of the modulus canonicalizes it.
    ///
    /// Branchless: this sits at the tail of *every* Montgomery reduction,
    /// and whether the subtraction triggers is data-dependent coin-flip
    /// noise, so a compare-and-branch mispredicts about half the time. The
    /// wrap is exact in the `hi != 0` case too: the true value is
    /// `2^{64N} + out < 2m`, and the wrapping `out − m` equals it minus `m`.
    #[inline]
    pub(crate) fn reduce_once(&self, out: Uint<N>, hi: u64) -> Uint<N> {
        let (cand, borrow) = out.sbb(&self.modulus);
        // take the subtracted candidate when hi ≠ 0 or out ≥ m (no borrow)
        let keep_out = ((hi == 0) & borrow) as u64;
        let mask = keep_out.wrapping_neg();
        let mut r = [0u64; N];
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = cand.0[i] ^ ((cand.0[i] ^ out.0[i]) & mask);
        }
        Uint(r)
    }

    /// Portable fused-CIOS Montgomery multiplication (`a * b * R^{-1} mod
    /// m` for reduced inputs) — the dispatch target when no assembly
    /// kernel applies, and the reference the kernels are tested against.
    ///
    /// Each outer iteration interleaves the `a[i]·b` accumulation with the
    /// Montgomery reduction of the low limb in a *single* pass over the
    /// working register (two independent carry chains), instead of the
    /// classical two-pass CIOS this replaced. The working register needs
    /// only `N` limbs plus a one-bit overflow word: the invariant
    /// `t < 2m` holds at the top of every iteration, so the second spill
    /// limb of two-pass CIOS never materializes.
    pub fn mont_mul_portable(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let m = &self.modulus.0;
        let n0inv = self.n0inv;
        let mut t = [0u64; N];
        let mut t_hi = 0u64; // the (N+1)-th limb; always 0 or 1
        for i in 0..N {
            let ai = a.0[i] as u128;
            // j = 0: compute the reduction factor from the fresh low limb.
            let cur = t[0] as u128 + ai * b.0[0] as u128;
            let k = (cur as u64).wrapping_mul(n0inv) as u128;
            let red = (cur as u64) as u128 + k * m[0] as u128;
            debug_assert_eq!(red as u64, 0, "low limb must cancel");
            let mut carry_mul = (cur >> 64) as u64;
            let mut carry_red = (red >> 64) as u64;
            for j in 1..N {
                let cur = t[j] as u128 + ai * b.0[j] as u128 + carry_mul as u128;
                carry_mul = (cur >> 64) as u64;
                let red = (cur as u64) as u128 + k * m[j] as u128 + carry_red as u128;
                t[j - 1] = red as u64;
                carry_red = (red >> 64) as u64;
            }
            let fin = t_hi as u128 + carry_mul as u128 + carry_red as u128;
            t[N - 1] = fin as u64;
            t_hi = (fin >> 64) as u64;
        }
        // Final conditional subtraction: result < 2m at this point.
        self.reduce_once(Uint(t), t_hi)
    }

    /// Convert a reduced integer into Montgomery form (`a * R mod m`).
    #[inline]
    pub fn to_mont(&self, a: &Uint<N>) -> Uint<N> {
        self.mont_mul(a, &self.r2)
    }

    /// Convert out of Montgomery form (`a * R^{-1} mod m`).
    #[inline]
    pub fn from_mont(&self, a: &Uint<N>) -> Uint<N> {
        self.mont_mul(a, &Uint::one())
    }

    /// Modular inverse of a *Montgomery-form* value, by the Kaliski
    /// almost-Montgomery-inverse.
    ///
    /// Returns `a⁻¹` also in Montgomery form, or `None` for zero (or a value
    /// sharing a factor with the modulus, which cannot happen for the prime
    /// moduli used here).
    ///
    /// Phase 1 maintains the invariants `a·r ≡ −u·2^k` and `a·s ≡ v·2^k
    /// (mod m)` with *plain-integer* shifts and additions on `r`/`s` — the
    /// binary-GCD predecessor of this routine paid a modular halving
    /// (conditional modulus addition) on the cofactor at every even step.
    /// All four working registers are length-tracked: `u`/`v` shrink from
    /// `N` limbs toward 1 and `r`/`s` grow from 1 limb, so the average
    /// step touches about half the limbs. Phase 2 strips the accumulated
    /// `2^k` with two Montgomery multiplications by precomputed powers.
    pub fn inv_mont(&self, a: &Uint<N>) -> Option<Uint<N>> {
        if a.is_zero() {
            return None;
        }
        let m = &self.modulus;
        // Invariants (mod m): a·r ≡ −u·2^k and a·s ≡ v·2^k — they pin the
        // initialization to u = m, v = a, r = 0, s = 1. A third, *integer*
        // invariant `u·s + v·r = m` is preserved by every step and bounds
        // the cofactors: s ≤ m/u and r ≤ m/v, so r, s < 2m even after the
        // final cross-accumulation.
        let mut u = *m;
        let mut v = *a;
        // r and s carry one limb of headroom: they are bounded by 2m, and
        // both moduli here leave at least one spare bit per Uint — but the
        // textbook bound is easy to get subtly wrong, so the top limb is
        // tracked explicitly and debug-asserted never to exceed one bit.
        let mut r = [0u64; 16];
        let mut s = [0u64; 16];
        debug_assert!(N < 16);
        s[0] = 1;
        let mut u_len = N; // active limbs of u (shrinks)
        let mut v_len = N;
        let mut rs_len = 1usize; // active limbs of r and s (grows, incl. headroom)
        let mut k = 0u32;

        // (local helpers; arrays are wider than needed so the compiler
        // keeps the loops simple)
        #[inline]
        fn shl1(x: &mut [u64; 16], len: &mut usize) {
            let mut carry = 0u64;
            for xi in x.iter_mut().take(*len) {
                let nc = *xi >> 63;
                *xi = (*xi << 1) | carry;
                carry = nc;
            }
            if carry != 0 {
                x[*len] = carry;
                *len += 1;
            }
        }
        #[inline]
        fn add_into(dst: &mut [u64; 16], src: &[u64; 16], len: &mut usize) {
            let mut carry = 0u64;
            for i in 0..*len {
                let (t, c1) = dst[i].overflowing_add(src[i]);
                let (t, c2) = t.overflowing_add(carry);
                dst[i] = t;
                carry = (c1 as u64) + (c2 as u64);
            }
            if carry != 0 {
                dst[*len] = carry;
                *len += 1;
            }
        }

        loop {
            if u.0[0] & 1 == 0 {
                // u /= 2, s *= 2
                for i in 0..u_len {
                    u.0[i] = (u.0[i] >> 1) | if i + 1 < u_len { u.0[i + 1] << 63 } else { 0 };
                }
                shl1(&mut s, &mut rs_len);
            } else if v.0[0] & 1 == 0 {
                // v /= 2, r *= 2
                for i in 0..v_len {
                    v.0[i] = (v.0[i] >> 1) | if i + 1 < v_len { v.0[i + 1] << 63 } else { 0 };
                }
                shl1(&mut r, &mut rs_len);
            } else {
                // both odd: subtract the smaller, halve, cross-accumulate
                let u_ge_v = if u_len != v_len {
                    u_len > v_len
                } else {
                    let mut ord = true;
                    for i in (0..u_len).rev() {
                        if u.0[i] != v.0[i] {
                            ord = u.0[i] > v.0[i];
                            break;
                        }
                    }
                    ord
                };
                if u_ge_v {
                    // u = (u − v)/2 (even after the subtraction), r += s, s *= 2
                    let mut borrow = 0u64;
                    for i in 0..u_len {
                        let vi = if i < v_len { v.0[i] } else { 0 };
                        let (t, b1) = u.0[i].overflowing_sub(vi);
                        let (t, b2) = t.overflowing_sub(borrow);
                        u.0[i] = t;
                        borrow = (b1 as u64) + (b2 as u64);
                    }
                    for i in 0..u_len {
                        u.0[i] = (u.0[i] >> 1) | if i + 1 < u_len { u.0[i + 1] << 63 } else { 0 };
                    }
                    let (r_arr, s_arr) = (&mut r, &mut s);
                    add_into(r_arr, s_arr, &mut rs_len);
                    shl1(s_arr, &mut rs_len);
                    if u.is_zero() {
                        // u == v at subtraction time ⇒ gcd(u, v) == v; for a
                        // unit, that happens exactly when v == 1.
                        break;
                    }
                } else {
                    // v = (v − u)/2, s += r, r *= 2
                    let mut borrow = 0u64;
                    for i in 0..v_len {
                        let ui = if i < u_len { u.0[i] } else { 0 };
                        let (t, b1) = v.0[i].overflowing_sub(ui);
                        let (t, b2) = t.overflowing_sub(borrow);
                        v.0[i] = t;
                        borrow = (b1 as u64) + (b2 as u64);
                    }
                    for i in 0..v_len {
                        v.0[i] = (v.0[i] >> 1) | if i + 1 < v_len { v.0[i + 1] << 63 } else { 0 };
                    }
                    let (r_arr, s_arr) = (&mut r, &mut s);
                    add_into(s_arr, r_arr, &mut rs_len);
                    shl1(r_arr, &mut rs_len);
                    if v.is_zero() {
                        break;
                    }
                }
            }
            k += 1;
            while u_len > 1 && u.0[u_len - 1] == 0 {
                u_len -= 1;
            }
            while v_len > 1 && v.0[v_len - 1] == 0 {
                v_len -= 1;
            }
        }
        // The loop exits with the surviving register holding gcd(a, m); it
        // must be 1 for an invertible input. The broken-out final step did
        // not pass the bottom-of-loop increment, so count it here.
        k += 1;
        let (gcd, winner_is_s) = if v.is_zero() { (&u, false) } else { (&v, true) };
        if *gcd != Uint::<N>::one() {
            return None;
        }
        // Winner invariant: a·s ≡ v·2^k with v = 1 (s is the cofactor) when
        // v survived; a·r ≡ −u·2^k when u survived. Reduce below 2^{64N},
        // then into [0, m).
        let mut raw = [0u64; 16];
        raw.copy_from_slice(if winner_is_s { &s } else { &r });
        let negate = !winner_is_s; // r-case carries the −1 sign
        debug_assert!(rs_len <= N + 1, "cofactor outgrew the 2m bound");
        // fold limb N (at most a few bits) back below 2^{64N} by
        // subtracting m·2^{64N}/... — simpler: repeated subtraction of m
        // from the (N+1)-limb value; the bound raw < 2m means at most one.
        let mut val = Uint::<N>::ZERO;
        val.0.copy_from_slice(&raw[..N]);
        let mut hi = raw[N];
        while hi != 0 || val >= *m {
            let (d, borrow) = val.sbb(m);
            hi -= borrow as u64;
            val = d;
        }
        let mut inv_raw = if negate { self.neg(&val) } else { val };
        // inv_raw ≡ ±a⁻¹·2^k·(sign fixed) with a in Montgomery form, i.e.
        // inv_raw = a⁻¹·R⁻¹·2^k. Normalize k into (64N, 128N] with modular
        // doublings (k ≥ the modulus bit-length, so only a few are needed),
        // then two Montgomery multiplications strip the power of two:
        //   mont(inv_raw, R²) = a⁻¹·2^k
        //   mont(·, 2^{128N−k}) = a⁻¹·2^{64N} = a⁻¹·R.
        while (k as usize) <= 64 * N {
            inv_raw = self.add(&inv_raw, &inv_raw);
            k += 1;
        }
        let e = 2 * 64 * N - k as usize; // in [0, 64N)
        let mut pow2 = Uint::<N>::ZERO;
        pow2.0[e / 64] = 1u64 << (e % 64);
        Some(self.mont_mul(&self.mont_mul(&inv_raw, &self.r2), &pow2))
    }

    /// Reduce an arbitrary double-width value (little-endian limbs, length
    /// `<= 2N`) modulo `m` by schoolbook shift-subtract. Not fast — used for
    /// hashing into fields and start-up derivations only.
    pub fn reduce_wide(&self, wide: &[u64]) -> Uint<N> {
        let mut acc = Uint::<N>::ZERO;
        // Process from most-significant limb downward: acc = acc * 2^64 + limb.
        for &limb in wide.iter().rev() {
            // acc <<= 64 (modularly), one bit at a time per limb is slow; do
            // limb-shift via 64 modular doublings.
            for _ in 0..64 {
                acc = self.add(&acc, &acc);
            }
            let mut l = Uint::<N>::ZERO;
            l.0[0] = limb;
            // l is < 2^64 <= m for our fields, but be safe:
            let l = if l >= self.modulus { self.sub(&l, &Uint::ZERO) } else { l };
            acc = self.add(&acc, &l);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::U256;

    fn fr_params() -> MontParams<4> {
        MontParams::new(U256::from_hex(
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001",
        ))
    }

    #[test]
    fn n0inv_is_correct() {
        let p = fr_params();
        assert_eq!(p.modulus.0[0].wrapping_mul(p.n0inv), u64::MAX); // -1 mod 2^64
    }

    #[test]
    fn mont_round_trip() {
        let p = fr_params();
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let x = U256::from_u64(v);
            let m = p.to_mont(&x);
            assert_eq!(p.from_mont(&m), x, "round trip failed for {v}");
        }
    }

    #[test]
    fn mont_mul_matches_schoolbook() {
        let p = fr_params();
        let a = U256::from_hex("123456789abcdef0fedcba9876543210aabbccddeeff0011");
        let b = U256::from_hex("2b992ddfa23249d6");
        let am = p.to_mont(&a);
        let bm = p.to_mont(&b);
        let prod = p.from_mont(&p.mont_mul(&am, &bm));
        // reference: reduce the double-width product
        let wide = a.mul_wide(&b);
        let expect = p.reduce_wide(&wide);
        assert_eq!(prod, expect);
    }

    #[test]
    fn add_sub_neg() {
        let p = fr_params();
        let a = U256::from_u64(7);
        let b = p.neg(&a);
        assert!(p.add(&a, &b).is_zero());
        assert_eq!(p.sub(&U256::ZERO, &a), b);
        assert!(p.neg(&U256::ZERO).is_zero());
    }

    #[test]
    fn inv_mont_round_trip() {
        let p = fr_params();
        for v in [1u64, 2, 3, 12345, u64::MAX] {
            let x = p.to_mont(&U256::from_u64(v));
            let inv = p.inv_mont(&x).expect("nonzero invertible");
            assert_eq!(p.mont_mul(&x, &inv), p.r1, "x·x⁻¹ must be 1 (Montgomery) for {v}");
        }
        let big = p.to_mont(&U256::from_hex(
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfefffffffe00000000",
        ));
        let inv = p.inv_mont(&big).unwrap();
        assert_eq!(p.mont_mul(&big, &inv), p.r1);
        assert!(p.inv_mont(&U256::ZERO).is_none());
    }

    /// A tiny deterministic xorshift so this crate needs no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn fp_params() -> MontParams<6> {
        MontParams::new(crate::U384::from_hex(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        ))
    }

    fn random_reduced<const N: usize>(p: &MontParams<N>, state: &mut u64) -> Uint<N> {
        loop {
            let mut limbs = [0u64; N];
            for l in &mut limbs {
                *l = xorshift(state);
            }
            let v = Uint(limbs);
            if v < p.modulus {
                return v;
            }
        }
    }

    /// The asm kernels must agree with the portable fused-CIOS path on a
    /// large random sample (both fields), including the boundary values
    /// that exercise the final conditional subtraction.
    #[test]
    fn asm_and_portable_mont_mul_agree() {
        let fr = super::super::U256::from_hex(
            "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001",
        );
        let fr = MontParams::new(fr);
        let fp = fp_params();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2_000 {
            let a = random_reduced(&fp, &mut state);
            let b = random_reduced(&fp, &mut state);
            assert_eq!(fp.mont_mul(&a, &b), fp.mont_mul_portable(&a, &b));
            let a = random_reduced(&fr, &mut state);
            let b = random_reduced(&fr, &mut state);
            assert_eq!(fr.mont_mul(&a, &b), fr.mont_mul_portable(&a, &b));
        }
        // boundary inputs: 0, 1, m−1 in all combinations
        let (m1, _) = fp.modulus.sbb(&Uint::one());
        for a in [Uint::ZERO, Uint::one(), m1] {
            for b in [Uint::ZERO, Uint::one(), m1] {
                assert_eq!(fp.mont_mul(&a, &b), fp.mont_mul_portable(&a, &b));
            }
        }
    }

    /// The Kaliski inversion must round-trip on a large random sample of
    /// both fields (the few-value test above only exercises tiny inputs).
    #[test]
    fn inv_mont_random_round_trip() {
        let fr = fr_params();
        let fp = fp_params();
        let mut state = 0x1234_5678_9abc_def1u64;
        for _ in 0..500 {
            let x = random_reduced(&fp, &mut state);
            if x.is_zero() {
                continue;
            }
            let inv = fp.inv_mont(&x).expect("nonzero");
            assert_eq!(fp.mont_mul(&x, &inv), fp.r1);
            let y = random_reduced(&fr, &mut state);
            if y.is_zero() {
                continue;
            }
            let inv = fr.inv_mont(&y).expect("nonzero");
            assert_eq!(fr.mont_mul(&y, &inv), fr.r1);
        }
        // powers of two exercise the longest even-stripping runs
        for sh in [1u32, 63, 64, 127, 254] {
            let mut x = U256::ZERO;
            x.0[(sh / 64) as usize] = 1u64 << (sh % 64);
            let inv = fr.inv_mont(&x).expect("nonzero");
            assert_eq!(fr.mont_mul(&x, &inv), fr.r1, "2^{sh}");
        }
    }

    #[test]
    fn reduce_wide_of_modulus_is_zero() {
        let p = fr_params();
        let mut wide = vec![0u64; 8];
        wide[..4].copy_from_slice(&p.modulus.0);
        assert!(p.reduce_wide(&wide).is_zero());
    }
}
