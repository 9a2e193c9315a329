//! Fixed-width little-endian unsigned integers.

use core::cmp::Ordering;
use core::fmt;

/// A fixed-width unsigned integer of `N` 64-bit limbs, least-significant
/// limb first.
///
/// The arithmetic here is deliberately simple and allocation-free; all the
/// higher-level modular structure lives in [`crate::mont`].
/// `repr(transparent)`: layout-identical to `[u64; N]`, which
/// [`crate::DoubleWide`] relies on to hand its two halves to the assembly
/// kernels as one contiguous `2N`-limb buffer without copying.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Uint<const N: usize>(pub [u64; N]);

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Uint<N> {
    pub const ZERO: Self = Self([0u64; N]);

    /// The value 1.
    pub fn one() -> Self {
        let mut v = [0u64; N];
        v[0] = 1;
        Self(v)
    }

    pub fn from_u64(x: u64) -> Self {
        let mut v = [0u64; N];
        v[0] = x;
        Self(v)
    }

    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Parse a big-endian hex string (optionally `0x`-prefixed). Panics if the
    /// value does not fit in `N` limbs or contains a non-hex character; this
    /// is only used for compile-time-known constants.
    pub fn from_hex(s: &str) -> Self {
        let s = s.trim().trim_start_matches("0x");
        assert!(!s.is_empty(), "empty hex literal");
        let mut limbs = [0u64; N];
        let bytes = s.as_bytes();
        let mut limb_idx = 0usize;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            if b == b'_' {
                continue;
            }
            let d = (b as char).to_digit(16).expect("invalid hex digit") as u64;
            if shift >= 64 {
                limb_idx += 1;
                shift = 0;
            }
            assert!(limb_idx < N, "hex literal does not fit in {N} limbs");
            limbs[limb_idx] |= d << shift;
            shift += 4;
        }
        Self(limbs)
    }

    /// Big-endian hex rendering (no leading zeros, `0x` prefix omitted).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        for l in self.0.iter().rev() {
            if s.is_empty() {
                if *l != 0 {
                    s = format!("{l:x}");
                }
            } else {
                s.push_str(&format!("{l:016x}"));
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// `self + rhs`, returning the result and the carry-out bit.
    ///
    /// The widening-`u128` formulation (rather than paired
    /// `overflowing_add`s) is the pattern LLVM reliably lowers to a single
    /// `adc` chain — the tower's wide accumulators run thousands of these
    /// per pairing, and the difference is ~2× on the chain.
    #[inline]
    pub fn adc(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for (i, out_i) in out.iter_mut().enumerate() {
            let s = self.0[i] as u128 + rhs.0[i] as u128 + carry as u128;
            *out_i = s as u64;
            carry = (s >> 64) as u64;
        }
        (Self(out), carry != 0)
    }

    /// `self - rhs`, returning the result and whether a borrow occurred
    /// (i.e. `self < rhs`). Widening-`u128` chain for the same codegen
    /// reason as [`Uint::adc`].
    #[inline]
    pub fn sbb(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for (i, out_i) in out.iter_mut().enumerate() {
            let d = (self.0[i] as u128).wrapping_sub(rhs.0[i] as u128 + borrow as u128);
            *out_i = d as u64;
            borrow = ((d >> 64) as u64) & 1;
        }
        (Self(out), borrow != 0)
    }

    /// Full double-width product `self * rhs` as `2N` limbs (little-endian).
    pub fn mul_wide(&self, rhs: &Self) -> Vec<u64> {
        let mut out = vec![0u64; 2 * N];
        for i in 0..N {
            let mut carry = 0u128;
            for j in 0..N {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + N] = carry as u64;
        }
        out
    }

    /// Index of the highest set bit, or `None` when zero.
    pub fn highest_bit(&self) -> Option<u32> {
        for i in (0..N).rev() {
            if self.0[i] != 0 {
                return Some(i as u32 * 64 + 63 - self.0[i].leading_zeros());
            }
        }
        None
    }

    /// Bit `i` (little-endian numbering).
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        limb < N && (self.0[limb] >> (i % 64)) & 1 == 1
    }

    /// Little-endian byte encoding (`8 * N` bytes).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * N);
        for l in &self.0 {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Construct from little-endian bytes, ignoring trailing zeros; panics if
    /// the value does not fit.
    pub fn from_le_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 8 * N, "byte string too long for Uint<{N}>");
        let mut limbs = [0u64; N];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(b);
        }
        Self(limbs)
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001");
        assert_eq!(v.to_hex(), "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001");
        assert_eq!(U256::ZERO.to_hex(), "0");
        assert_eq!(U256::from_u64(0xabc).to_hex(), "abc");
    }

    #[test]
    fn hex_with_separators() {
        assert_eq!(U256::from_hex("0x00ff_ee"), U256::from_u64(0xffee));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let b = U256::from_u64(1);
        let (s, carry) = a.adc(&b);
        assert!(carry);
        assert!(s.is_zero());
        let (d, borrow) = s.sbb(&b);
        assert!(borrow);
        assert_eq!(d, a);
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u64(u64::MAX);
        let b = U256::from_u64(u64::MAX);
        let w = a.mul_wide(&b);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(w[0], 1);
        assert_eq!(w[1], u64::MAX - 1);
        assert!(w[2..].iter().all(|&l| l == 0));
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_hex("100000000000000000");
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bits() {
        let v = U256::from_hex("8000000000000001");
        assert!(v.bit(0));
        assert!(v.bit(63));
        assert!(!v.bit(64));
        assert_eq!(v.highest_bit(), Some(63));
        assert_eq!(U256::ZERO.highest_bit(), None);
    }

    #[test]
    fn byte_round_trip() {
        let v = U256::from_hex("0123456789abcdef0011223344556677");
        assert_eq!(U256::from_le_bytes(&v.to_le_bytes()), v);
    }
}
