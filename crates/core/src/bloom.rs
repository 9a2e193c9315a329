//! Per-block Bloom filters over object attribute sets.
//!
//! The subscription engine's inverted match path ([`crate::subindex`]) asks
//! one question per *distinct subscribed literal* per block: "does any object
//! in this block carry this attribute?" The authoritative answer is a lookup
//! in the block's root multiset, but at 10⁵–10⁶ standing queries the probe
//! set is large and most probes are negative. An [`AttributeBloom`] built by
//! the miner over the block's distinct attribute elements answers the
//! negatives in a couple of cache lines each, so non-matching blocks skip
//! candidate resolution almost entirely.
//!
//! # Hashing
//!
//! Classic seeded double hashing (Kirsch–Mitzenmacher): a single
//! domain-separated `vchain-hash` digest of the element's canonical bytes is
//! split into two 64-bit lanes `(h1, h2)`, and probe `i` touches bit
//! `(h1 + i·h2) mod m`. `h2` is forced odd so the probe sequence never
//! degenerates to a single bit. Deriving both lanes from one SHA-256 call
//! keeps filter construction at one compression function per key, and the
//! `(h1, h2)` pair — not the element — is what the subscription index caches
//! per subscribed literal, so steady-state probing does no hashing at all.
//!
//! # False-positive budget
//!
//! With `n` keys, `m = n · bits_per_key` bits and `k` probes, the classic
//! estimate is `FPR ≈ (1 − e^{−kn/m})^k`, minimized at `k = ln 2 ·
//! bits_per_key`. The default of [`DEFAULT_BITS_PER_KEY`] = 10 bits/key
//! gives `k = 7` and an FPR budget of **≈ 0.82 %** — and the property suite
//! (`tests/bloom_props.rs`) holds the empirical rate within 2× of that
//! budget. Tuning `MinerConfig::bloom_bits_per_key` trades ADS bytes for
//! probe precision.
//!
//! # Why false positives are safe
//!
//! A positive probe is always *confirmed* against the block's exact root
//! multiset before it influences classification, so a false positive costs
//! one `BTreeMap` lookup and nothing else. The filter can therefore never
//! cause a wrong update — only wasted work. A *corrupted* filter (false
//! negatives — impossible for an honest one, asserted by the property suite)
//! can misclassify a query, but every misclassification is caught when the
//! refutation proof is attempted against the exact multiset and fails; the
//! engine then re-walks the affected queries on the naive path
//! (`crates/core/src/subscribe.rs`), keeping output byte-identical. The
//! fault-injection suite drives exactly this with [`crate::Adversary`]
//! mutations.

use vchain_hash::hash_concat;

use crate::element::Element;

/// Default filter density, in bits per inserted key (FPR budget ≈ 0.82 %).
pub const DEFAULT_BITS_PER_KEY: u8 = 10;

/// The seed every miner-built per-block filter uses. A fixed, public seed is
/// what lets the subscription index precompute one [`BloomKey`] per
/// subscribed literal and reuse it against every block's filter.
pub const BLOOM_SEED: u64 = 0xB100_F17E;

/// The two double-hashing lanes of one key, derived once per element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomKey {
    /// Base probe position.
    pub h1: u64,
    /// Probe stride (always odd).
    pub h2: u64,
}

impl BloomKey {
    /// Derive the probe lanes for raw key bytes under `seed`.
    pub fn from_bytes(seed: u64, key: &[u8]) -> Self {
        let d = hash_concat(&[b"vchain/bloom", &seed.to_le_bytes(), key]);
        let b = d.as_bytes();
        let mut lane = [0u8; 8];
        lane.copy_from_slice(&b[0..8]);
        let h1 = u64::from_le_bytes(lane);
        lane.copy_from_slice(&b[8..16]);
        let h2 = u64::from_le_bytes(lane) | 1;
        Self { h1, h2 }
    }

    /// Derive the probe lanes for a set element (via its canonical bytes, so
    /// the lanes are stable across processes, unlike interned ids).
    pub fn from_element(seed: u64, e: &Element) -> Self {
        Self::from_bytes(seed, &e.canonical_bytes())
    }
}

/// A per-block Bloom filter over the block's distinct attribute elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributeBloom {
    seed: u64,
    k: u8,
    keys: u32,
    words: Vec<u64>,
}

impl AttributeBloom {
    /// Optimal probe count for a density: `k = round(ln 2 · bits_per_key)`,
    /// at least 1.
    pub fn probes_for(bits_per_key: u8) -> u8 {
        let k = (f64::from(bits_per_key) * core::f64::consts::LN_2).round() as u8;
        k.max(1)
    }

    /// Build a filter over pre-hashed keys at the given density.
    pub fn build(seed: u64, bits_per_key: u8, keys: &[BloomKey]) -> Self {
        let bits = keys.len().saturating_mul(bits_per_key.max(1) as usize).max(64);
        let words = vec![0u64; bits.div_ceil(64)];
        let mut filter = Self {
            seed,
            k: Self::probes_for(bits_per_key),
            keys: u32::try_from(keys.len()).unwrap_or(u32::MAX),
            words,
        };
        for key in keys {
            filter.insert(key);
        }
        filter
    }

    /// Build a filter over a block's distinct attribute elements.
    pub fn from_elements(
        seed: u64,
        bits_per_key: u8,
        elements: impl Iterator<Item = Element>,
    ) -> Self {
        let keys: Vec<BloomKey> = elements.map(|e| BloomKey::from_element(seed, &e)).collect();
        Self::build(seed, bits_per_key, &keys)
    }

    fn insert(&mut self, key: &BloomKey) {
        let m = self.bit_len();
        for i in 0..u64::from(self.k) {
            let bit = (key.h1.wrapping_add(i.wrapping_mul(key.h2)) % m) as usize;
            self.words[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Probe with a precomputed key. `true` means "possibly present" — the
    /// caller must confirm against the exact multiset before acting on it.
    pub fn contains_key(&self, key: &BloomKey) -> bool {
        let m = self.bit_len();
        (0..u64::from(self.k)).all(|i| {
            let bit = (key.h1.wrapping_add(i.wrapping_mul(key.h2)) % m) as usize;
            self.words[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// The seed the filter was built (and must be probed) under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of probe positions per key.
    pub fn probes(&self) -> u8 {
        self.k
    }

    /// Number of keys inserted at construction.
    pub fn key_count(&self) -> u32 {
        self.keys
    }

    /// Filter width in bits (a multiple of 64).
    pub fn bit_len(&self) -> u64 {
        (self.words.len() as u64) * 64
    }

    /// The backing bit words (for wire encoding and size accounting).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble a filter from decoded wire parts. `None` when the parts
    /// are structurally invalid (no probes or an empty bit array).
    pub fn from_parts(seed: u64, k: u8, keys: u32, words: Vec<u64>) -> Option<Self> {
        if k == 0 || words.is_empty() {
            return None;
        }
        Some(Self { seed, k, keys, words })
    }

    /// Nominal wire size in bytes (seed + probes + key count + words).
    pub fn size_bytes(&self) -> usize {
        8 + 1 + 4 + 4 + 8 * self.words.len()
    }

    /// Mutable access to the backing words — the fault-injection surface
    /// ([`crate::Adversary::corrupt_bloom`]); a lying filter must only ever
    /// cost the SP work, never correctness.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, n: usize) -> Vec<BloomKey> {
        (0..n).map(|i| BloomKey::from_bytes(seed, format!("key-{i}").as_bytes())).collect()
    }

    #[test]
    fn no_false_negatives_basic() {
        let ks = keys(BLOOM_SEED, 500);
        let f = AttributeBloom::build(BLOOM_SEED, 10, &ks);
        for k in &ks {
            assert!(f.contains_key(k));
        }
    }

    #[test]
    fn stride_is_odd_and_lanes_are_seeded() {
        let a = BloomKey::from_bytes(1, b"x");
        let b = BloomKey::from_bytes(2, b"x");
        assert_eq!(a.h2 % 2, 1);
        assert_ne!((a.h1, a.h2), (b.h1, b.h2));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = AttributeBloom::build(BLOOM_SEED, 10, &[]);
        assert_eq!(f.bit_len(), 64);
        for k in keys(BLOOM_SEED, 64) {
            assert!(!f.contains_key(&k));
        }
    }

    #[test]
    fn probe_count_tracks_density() {
        assert_eq!(AttributeBloom::probes_for(10), 7);
        assert_eq!(AttributeBloom::probes_for(8), 6);
        assert_eq!(AttributeBloom::probes_for(1), 1);
    }

    #[test]
    fn element_hashing_uses_canonical_bytes() {
        // A keyword that *prints* like a prefix must hash differently.
        let kw = Element::keyword("101*_0");
        let pf = Element::Prefix { dim: 0, len: 3, bits: 0b101 };
        assert_ne!(BloomKey::from_element(7, &kw), BloomKey::from_element(7, &pf));
    }

    #[test]
    fn from_parts_validates() {
        assert!(AttributeBloom::from_parts(0, 0, 0, vec![0]).is_none());
        assert!(AttributeBloom::from_parts(0, 3, 0, Vec::new()).is_none());
        assert!(AttributeBloom::from_parts(0, 3, 1, vec![0, 1]).is_some());
    }
}
