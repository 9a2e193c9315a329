//! The append-only chain store (full node) and the header-only light client
//! (paper Fig. 1 / Fig. 3).

use std::collections::HashMap;

use vchain_hash::Digest;

use crate::block::{Block, BlockHeader};
use crate::pow::Difficulty;

/// Errors from appending a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// `prev_hash` does not match the current tip.
    BrokenLink { expected: Digest, got: Digest },
    /// The height is not `tip + 1`.
    WrongHeight { expected: u64, got: u64 },
    /// The consensus proof does not satisfy the difficulty.
    InvalidPow,
    /// Timestamps must be non-decreasing.
    TimestampRegression,
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::BrokenLink { expected, got } => {
                write!(f, "broken hash link: expected {expected}, got {got}")
            }
            ChainError::WrongHeight { expected, got } => {
                write!(f, "wrong height: expected {expected}, got {got}")
            }
            ChainError::InvalidPow => write!(f, "invalid consensus proof"),
            ChainError::TimestampRegression => write!(f, "timestamp went backwards"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Whether `header` may follow `tip` (`None`: an empty chain). The one rule
/// of both node kinds — a light client must follow exactly the header chains
/// a full node can hold.
fn check_extends(
    tip: Option<&BlockHeader>,
    header: &BlockHeader,
    difficulty: Difficulty,
) -> Result<(), ChainError> {
    let expected_height = tip.map_or(0, |t| t.height + 1);
    if header.height != expected_height {
        return Err(ChainError::WrongHeight { expected: expected_height, got: header.height });
    }
    let expected_prev = tip.map_or(Digest::ZERO, BlockHeader::block_hash);
    if header.prev_hash != expected_prev {
        return Err(ChainError::BrokenLink { expected: expected_prev, got: header.prev_hash });
    }
    // equal timestamps are legal: several blocks may share a clock tick
    if tip.is_some_and(|t| header.timestamp < t.timestamp) {
        return Err(ChainError::TimestampRegression);
    }
    if !header.verify_pow(difficulty) {
        return Err(ChainError::InvalidPow);
    }
    Ok(())
}

/// A full node's storage: all blocks, indexed by height and hash.
#[derive(Debug, Default)]
pub struct ChainStore {
    blocks: Vec<Block>,
    by_hash: HashMap<Digest, usize>,
    difficulty: Difficulty,
}

impl ChainStore {
    pub fn new(difficulty: Difficulty) -> Self {
        Self { blocks: Vec::new(), by_hash: HashMap::new(), difficulty }
    }

    pub fn difficulty(&self) -> Difficulty {
        self.difficulty
    }

    pub fn height(&self) -> Option<u64> {
        self.blocks.last().map(|b| b.header.height)
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    pub fn tip_hash(&self) -> Digest {
        self.blocks.last().map(|b| b.block_hash()).unwrap_or(Digest::ZERO)
    }

    /// Validate and append a block.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        check_extends(self.blocks.last().map(|b| &b.header), &block.header, self.difficulty)?;
        self.by_hash.insert(block.block_hash(), self.blocks.len());
        self.blocks.push(block);
        Ok(())
    }

    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    pub fn block_by_hash(&self, hash: &Digest) -> Option<&Block> {
        self.by_hash.get(hash).map(|&i| &self.blocks[i])
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Heights whose timestamp lies in `[ts, te]` (inclusive), for
    /// time-window query planning.
    pub fn heights_in_window(&self, ts: u64, te: u64) -> Vec<u64> {
        self.blocks
            .iter()
            .filter(|b| b.header.timestamp >= ts && b.header.timestamp <= te)
            .map(|b| b.header.height)
            .collect()
    }
}

/// A light node: keeps validated headers only (paper Fig. 1).
///
/// `Clone` is part of the contract: the streamed verification pipeline
/// (`core::client`) hands an owned copy of the header set to its decode
/// worker, so verification can overlap transport without borrowing across
/// threads.
#[derive(Clone, Debug, Default)]
pub struct LightClient {
    headers: Vec<BlockHeader>,
    difficulty: Difficulty,
}

impl LightClient {
    pub fn new(difficulty: Difficulty) -> Self {
        Self { headers: Vec::new(), difficulty }
    }

    /// Validate and accept the next header.
    pub fn sync_header(&mut self, header: BlockHeader) -> Result<(), ChainError> {
        check_extends(self.headers.last(), &header, self.difficulty)?;
        self.headers.push(header);
        Ok(())
    }

    pub fn header(&self, height: u64) -> Option<&BlockHeader> {
        self.headers.get(height as usize)
    }

    pub fn headers(&self) -> &[BlockHeader] {
        &self.headers
    }

    pub fn len(&self) -> usize {
        self.headers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    pub fn block_hash(&self, height: u64) -> Option<Digest> {
        self.header(height).map(BlockHeader::block_hash)
    }

    /// Total header storage in bits (the paper's light-node space metric).
    pub fn storage_bits(&self) -> usize {
        self.headers.iter().map(BlockHeader::size_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;
    use crate::pow::mine_nonce;
    use vchain_hash::hash_bytes;

    fn mk_block(prev: Digest, height: u64, ts: u64, d: Difficulty) -> Block {
        let ads = hash_bytes(&height.to_le_bytes());
        let skip = Digest::ZERO;
        let nonce = mine_nonce(&prev, ts, &ads, &skip, d);
        Block {
            header: BlockHeader {
                height,
                prev_hash: prev,
                timestamp: ts,
                nonce,
                ads_root: ads,
                skiplist_root: skip,
            },
            objects: vec![Object::new(height, ts, vec![1], vec!["k".into()])],
        }
    }

    #[test]
    fn append_and_lookup() {
        let d = Difficulty(4);
        let mut store = ChainStore::new(d);
        let b0 = mk_block(Digest::ZERO, 0, 10, d);
        let h0 = b0.block_hash();
        store.append(b0).unwrap();
        store.append(mk_block(h0, 1, 20, d)).unwrap();
        assert_eq!(store.height(), Some(1));
        assert_eq!(store.block(0).unwrap().header.timestamp, 10);
        assert!(store.block_by_hash(&h0).is_some());
        assert_eq!(store.heights_in_window(15, 25), vec![1]);
    }

    #[test]
    fn broken_link_rejected() {
        let d = Difficulty(4);
        let mut store = ChainStore::new(d);
        store.append(mk_block(Digest::ZERO, 0, 10, d)).unwrap();
        let bad = mk_block(hash_bytes(b"wrong"), 1, 20, d);
        assert!(matches!(store.append(bad), Err(ChainError::BrokenLink { .. })));
    }

    /// A light client follows only header chains a full node can hold: the
    /// store's timestamp rule is the client's too, and equal timestamps pass
    /// on both sides.
    #[test]
    fn light_client_rejects_timestamp_regression() {
        let d = Difficulty(0);
        let (mut store, mut light) = (ChainStore::new(d), LightClient::new(d));
        let b0 = mk_block(Digest::ZERO, 0, 10, d);
        let h0 = b0.block_hash();
        light.sync_header(b0.header.clone()).unwrap();
        store.append(b0).unwrap();
        let back = mk_block(h0, 1, 9, d);
        assert_eq!(light.sync_header(back.header.clone()), Err(ChainError::TimestampRegression));
        assert_eq!(store.append(back), Err(ChainError::TimestampRegression));
        assert_eq!(light.len(), 1, "a rejected header is not kept");
        let same = mk_block(h0, 1, 10, d);
        light.sync_header(same.header.clone()).unwrap();
        store.append(same).unwrap();
        assert_eq!(light.block_hash(1).unwrap(), store.tip_hash());
    }

    #[test]
    fn wrong_height_rejected() {
        let d = Difficulty(4);
        let mut store = ChainStore::new(d);
        let b0 = mk_block(Digest::ZERO, 0, 10, d);
        let h0 = b0.block_hash();
        store.append(b0).unwrap();
        let bad = mk_block(h0, 5, 20, d);
        assert!(matches!(store.append(bad), Err(ChainError::WrongHeight { .. })));
    }

    #[test]
    fn bad_pow_rejected() {
        let d = Difficulty(12);
        let mut store = ChainStore::new(d);
        let mut b0 = mk_block(Digest::ZERO, 0, 10, Difficulty(0));
        b0.header.nonce = 0; // almost surely fails difficulty 12
        if !b0.header.verify_pow(d) {
            assert_eq!(store.append(b0), Err(ChainError::InvalidPow));
        }
    }

    #[test]
    fn timestamp_regression_rejected() {
        let d = Difficulty(0);
        let mut store = ChainStore::new(d);
        let b0 = mk_block(Digest::ZERO, 0, 10, d);
        let h0 = b0.block_hash();
        store.append(b0).unwrap();
        assert_eq!(store.append(mk_block(h0, 1, 5, d)), Err(ChainError::TimestampRegression));
    }

    #[test]
    fn light_client_follows_chain() {
        let d = Difficulty(4);
        let mut store = ChainStore::new(d);
        let mut light = LightClient::new(d);
        let mut prev = Digest::ZERO;
        for i in 0..5 {
            let b = mk_block(prev, i, 10 * (i + 1), d);
            prev = b.block_hash();
            light.sync_header(b.header.clone()).unwrap();
            store.append(b).unwrap();
        }
        assert_eq!(light.len(), 5);
        assert_eq!(light.block_hash(4).unwrap(), store.tip_hash());
        assert!(light.storage_bits() > 0);
    }

    #[test]
    fn light_client_rejects_tampered_header() {
        let d = Difficulty(4);
        let mut light = LightClient::new(d);
        let b0 = mk_block(Digest::ZERO, 0, 10, d);
        light.sync_header(b0.header.clone()).unwrap();
        let mut b1 = mk_block(b0.block_hash(), 1, 20, d);
        b1.header.ads_root = hash_bytes(b"tampered"); // invalidates PoW binding
        assert!(light.sync_header(b1.header).is_err());
    }
}
