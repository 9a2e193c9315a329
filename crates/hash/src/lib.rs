//! SHA-256 (FIPS 180-4) implemented from scratch, plus the [`Digest`] type
//! used throughout the vChain blockchain structures.
//!
//! The paper uses 160-bit SHA-1 via Crypto++; SHA-1 is cryptographically
//! broken, so this reproduction substitutes SHA-256 (see DESIGN.md §2).

pub mod sha256;

pub use sha256::{sha256, Sha256};

use core::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Number of bytes in a digest (used by VO size accounting).
    pub const LEN: usize = 32;

    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Hash a byte string.
pub fn hash_bytes(data: &[u8]) -> Digest {
    Digest(sha256(data))
}

/// Hash the concatenation of several byte strings, mirroring the paper's
/// `hash(a | b | …)` notation. Each part is length-prefixed to rule out
/// ambiguity attacks on the concatenation.
pub fn hash_concat(parts: &[&[u8]]) -> Digest {
    hash_concat_iter(parts)
}

/// [`hash_concat`] over parts produced one at a time — the same digest,
/// without first collecting the parts (or, for computed parts, keeping
/// them all alive) in a slice.
pub fn hash_concat_iter<P: AsRef<[u8]>>(parts: impl IntoIterator<Item = P>) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        let p = p.as_ref();
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    Digest(h.finalize())
}

/// Domain-separated hashing: `H(tag || data)`, used to derive accumulator
/// element representatives and field elements.
pub fn hash_domain(tag: &str, data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&(tag.len() as u64).to_le_bytes());
    h.update(tag.as_bytes());
    h.update(data);
    Digest(h.finalize())
}

/// Combine two digests into one (Merkle interior node convention).
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    hash_concat(&[&left.0, &right.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_is_length_prefixed() {
        // ("ab","c") must differ from ("a","bc")
        assert_ne!(
            hash_concat(&[b"ab", b"c"]),
            hash_concat(&[b"a", b"bc"]),
            "length prefixing must disambiguate concatenation"
        );
    }

    #[test]
    fn domain_separation() {
        assert_ne!(hash_domain("a", b"x"), hash_domain("b", b"x"));
        assert_ne!(hash_domain("a", b"x"), hash_bytes(b"x"));
    }

    #[test]
    fn digest_hex() {
        let d = hash_bytes(b"");
        assert_eq!(d.to_hex(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(format!("{d}"), d.to_hex());
    }

    #[test]
    fn pair_order_matters() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }
}
