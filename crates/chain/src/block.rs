//! Blocks and block headers (paper Figs. 2 & 4).

use vchain_hash::{hash_concat, Digest};

use crate::object::Object;
use crate::pow::{verify_nonce, Difficulty};

/// The block header kept by *every* node, including light clients.
///
/// vChain extends the classic header with `ads_root` (committing the
/// intra-block authenticated index, the paper's MerkleRoot over Fig. 6) and
/// `skiplist_root` (committing the inter-block index, Fig. 7;
/// `Digest::ZERO` when the deployment does not use one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    pub height: u64,
    /// `PreBkHash`.
    pub prev_hash: Digest,
    /// `TS` — the block creation timestamp.
    pub timestamp: u64,
    /// `ConsProof` — the PoW nonce.
    pub nonce: u64,
    /// Commitment to the authenticated intra-block structure.
    pub ads_root: Digest,
    /// Commitment to the inter-block skip-list index (zero if unused).
    pub skiplist_root: Digest,
}

impl BlockHeader {
    /// The block hash (`hash(header)`), chaining consecutive blocks.
    pub fn block_hash(&self) -> Digest {
        hash_concat(&[
            b"vchain/header",
            &self.height.to_le_bytes(),
            &self.prev_hash.0,
            &self.timestamp.to_le_bytes(),
            &self.nonce.to_le_bytes(),
            &self.ads_root.0,
            &self.skiplist_root.0,
        ])
    }

    /// Nominal header size in bits for the light-node storage metric
    /// (paper §9.1 reports 800 bits without and 960 bits with the
    /// inter-block index, under 160-bit hashes; ours scale with SHA-256).
    pub fn size_bits(&self) -> usize {
        let hash_bits = Digest::LEN * 8;
        let fixed = 64 + 64 + 64; // height + timestamp + nonce
        let skip = if self.skiplist_root == Digest::ZERO { 0 } else { hash_bits };
        fixed + 2 * hash_bits + skip // prev + ads (+ optional skiplist)
    }

    /// Validate the consensus proof.
    pub fn verify_pow(&self, difficulty: Difficulty) -> bool {
        verify_nonce(
            &self.prev_hash,
            self.timestamp,
            &self.ads_root,
            &self.skiplist_root,
            self.nonce,
            difficulty,
        )
    }
}

/// A full block: header plus the object payload (full nodes only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    pub header: BlockHeader,
    pub objects: Vec<Object>,
}

impl Block {
    pub fn block_hash(&self) -> Digest {
        self.header.block_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vchain_hash::hash_bytes;

    fn header() -> BlockHeader {
        BlockHeader {
            height: 3,
            prev_hash: hash_bytes(b"prev"),
            timestamp: 99,
            nonce: 7,
            ads_root: hash_bytes(b"ads"),
            skiplist_root: Digest::ZERO,
        }
    }

    #[test]
    fn hash_binds_fields() {
        let h = header();
        for f in 0..5 {
            let mut m = h.clone();
            match f {
                0 => m.height += 1,
                1 => m.prev_hash = hash_bytes(b"other"),
                2 => m.timestamp += 1,
                3 => m.nonce += 1,
                _ => m.ads_root = hash_bytes(b"other"),
            }
            assert_ne!(m.block_hash(), h.block_hash(), "field {f} not bound");
        }
    }

    #[test]
    fn size_accounting() {
        let h = header();
        let without = h.size_bits();
        let mut with = h.clone();
        with.skiplist_root = hash_bytes(b"skip");
        assert_eq!(with.size_bits(), without + 256);
    }
}
