//! The miner role (paper Fig. 3): assembles objects into blocks, builds the
//! ADS (intra-block index and optionally the inter-block skip list),
//! computes the consensus proof, and appends to the chain.

use std::sync::Arc;

use vchain_acc::Accumulator;
use vchain_chain::{mine_nonce, Block, BlockHeader, ChainStore, Difficulty, Object};
use vchain_hash::Digest;

use crate::inter::{BlockSummary, SkipList};
use crate::intra::IntraTree;

/// Which authenticated indexes the chain deployment builds (the paper's
/// `nil` / `intra` / `both` schemes of §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexScheme {
    /// Per-object ADS only; queries touch every object.
    Nil,
    /// Jaccard-clustered intra-block index (§6.1).
    Intra,
    /// Intra-block plus skip-list inter-block index (§6.2).
    Both,
}

/// Public system parameters — known to miners, SPs and users alike.
#[derive(Clone, Copy, Debug)]
pub struct MinerConfig {
    /// Which authenticated indexes are built.
    pub scheme: IndexScheme,
    /// Skip-list levels `L` (distances `2 … 2^L`); ignored unless `Both`.
    pub skip_levels: u8,
    /// Numeric dimension width in bits.
    pub domain_bits: u8,
    /// Simulated proof-of-work difficulty.
    pub difficulty: Difficulty,
    /// Read by nothing. Blocks once carried an attribute Bloom filter of this
    /// many bits per element; it did not pay for its mining time and ADS
    /// bytes, and went (`docs/BENCHMARKS.md`). The field remains only
    /// because the frozen benchmark sources name it (`vbench/workloads.rs`),
    /// like [`crate::client::PipelineMode`]; ROADMAP item 1 removes it.
    pub bloom_bits_per_key: u8,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            scheme: IndexScheme::Both,
            skip_levels: 5,
            domain_bits: 8,
            difficulty: Difficulty(4),
            bloom_bits_per_key: 10,
        }
    }
}

/// A block's authenticated structures, kept by full nodes (miner & SP).
#[derive(Clone, Debug)]
pub struct IndexedBlock<A: Accumulator> {
    /// The intra-block index (§6.1).
    pub tree: IntraTree<A>,
    /// The inter-block skip list (§6.2; empty unless the `Both` scheme),
    /// shared with the block's [`BlockSummary`].
    pub skiplist: Arc<SkipList<A>>,
}

impl<A: Accumulator> IndexedBlock<A> {
    /// Total ADS bytes added to the block (Table 1 "S").
    pub fn ads_size_bytes(&self, acc: &A) -> usize {
        self.tree.ads_size_bytes(acc) + self.skiplist.ads_size_bytes(acc)
    }
}

/// The miner: owns the growing chain and its index materialization.
pub struct Miner<A: Accumulator> {
    /// The public system parameters.
    pub cfg: MinerConfig,
    /// The accumulator scheme handle.
    pub acc: A,
    store: ChainStore,
    indexed: Vec<IndexedBlock<A>>,
    history: Vec<BlockSummary<A>>,
}

impl<A: Accumulator> Miner<A> {
    /// A miner over an empty chain.
    pub fn new(cfg: MinerConfig, acc: A) -> Self {
        Self {
            cfg,
            acc,
            store: ChainStore::new(cfg.difficulty),
            indexed: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Mine the next block over `objects` at `timestamp`. Returns its height.
    pub fn mine_block(&mut self, timestamp: u64, objects: Vec<Object>) -> u64 {
        assert!(!objects.is_empty(), "blocks must carry at least one object");
        let tree = match self.cfg.scheme {
            IndexScheme::Nil => IntraTree::build_nil(&objects, &self.acc, self.cfg.domain_bits),
            IndexScheme::Intra | IndexScheme::Both => {
                IntraTree::build_clustered(&objects, &self.acc, self.cfg.domain_bits)
            }
        };
        let skiplist = Arc::new(if self.cfg.scheme == IndexScheme::Both {
            SkipList::build(&self.history, self.cfg.skip_levels, &self.acc)
        } else {
            SkipList { entries: Vec::new() }
        });

        let ads_root = tree.root_hash();
        let skiplist_root = skiplist.root();
        let prev_hash = self.store.tip_hash();
        let height = self.store.height().map(|h| h + 1).unwrap_or(0);
        let nonce =
            mine_nonce(&prev_hash, timestamp, &ads_root, &skiplist_root, self.cfg.difficulty);
        let block = Block {
            header: BlockHeader { height, prev_hash, timestamp, nonce, ads_root, skiplist_root },
            objects,
        };
        let block_hash = block.block_hash();

        // Block-level summary for future skip lists and lazy subscription
        // aggregation: the block's attribute multiset is its intra-tree root
        // multiset, so per-block digests reuse the root AttDigest and a skip
        // entry's `Sum` of block digests commits to the sum of root multisets.
        let block_ms = tree.root_multiset().clone();
        let block_att = match tree.root_att() {
            Some(att) => att.clone(),
            // nil scheme: no root digest in the tree; derive one.
            None => {
                let att = self.acc.setup_batch(&[&block_ms]).swap_remove(0);
                att.expect("a block's attributes lie within the accumulator key's bounds")
            }
        };

        self.store.append(block).expect("self-mined block must validate");
        self.indexed.push(IndexedBlock { tree, skiplist: skiplist.clone() });
        self.history.push(BlockSummary {
            hash: block_hash,
            ms: block_ms,
            att: block_att,
            skiplist,
        });
        height
    }

    /// The chain mined so far.
    pub fn store(&self) -> &ChainStore {
        &self.store
    }

    /// The per-block authenticated indexes.
    pub fn indexed(&self) -> &[IndexedBlock<A>] {
        &self.indexed
    }

    /// All block headers, by height (what a light client syncs).
    pub fn headers(&self) -> Vec<BlockHeader> {
        self.store.blocks().iter().map(|b| b.header.clone()).collect()
    }

    /// All block hashes, by height.
    pub fn block_hashes(&self) -> Vec<Digest> {
        self.store.blocks().iter().map(Block::block_hash).collect()
    }

    /// Hand the chain and its indexes to a service provider (both are full
    /// nodes; in a real network the SP would re-derive the indexes from the
    /// replicated blocks).
    pub fn into_service_provider(self) -> crate::sp::ServiceProvider<A> {
        crate::sp::ServiceProvider::new(self.cfg, self.acc, self.store, self.indexed, self.history)
    }

    /// Access to the block summaries (for subscription engines).
    pub fn history(&self) -> &[BlockSummary<A>] {
        &self.history
    }
}
