//! # vChain — verifiable Boolean range queries over blockchain databases
//!
//! This crate implements the primary contribution of *"vChain: Enabling
//! Verifiable Boolean Range Queries over Blockchain Databases"* (Xu, Zhang,
//! Xu — SIGMOD 2019) on top of the substrates in this workspace
//! (`vchain-pairing`, `vchain-acc`, `vchain-chain`):
//!
//! * [`element`] / [`trans`] — the numeric→set transformation `trans(·)`
//!   (§5.3): values become binary-prefix sets, range predicates become
//!   minimal prefix covers, so one accumulator-based ADS serves arbitrary
//!   attribute combinations.
//! * [`query`] — Boolean range queries (time-window & subscription, §3) and
//!   their compilation into a unified CNF over set elements.
//! * [`intra`] — the Jaccard-clustered authenticated intra-block index
//!   (Algorithm 2) and its tree-search VO construction (Algorithm 3, §6.1).
//! * [`inter`] — the skip-list inter-block index (§6.2, Algorithm 4).
//! * [`miner`] / [`sp`] / [`verify`] — the three roles of Fig. 3: the miner
//!   embeds ADS commitments into block headers, the service provider answers
//!   queries with verification objects (online batch verification via
//!   `Sum`, §6.3, included), and the light-client user checks
//!   soundness and completeness against block headers alone.
//! * [`client`] / [`wire`] — the light client's streamed verification
//!   pipeline: frame-by-frame VO delivery with bounded buffering, the
//!   deduplicating wire encoding, and cross-window pairing batching
//!   (see `docs/LIGHT_CLIENT.md`).
//! * [`subscribe`] / [`subindex`] — verifiable subscription queries: the
//!   standing-query index that plays the inverted prefix tree's inverted
//!   files (§7.1) and lazy authentication (§7.2, Algorithm 5).
//!
//! The generic parameter `A: Accumulator` selects between the paper's two
//! accumulator constructions (`vchain_acc::Acc1`, `vchain_acc::Acc2`).

#![warn(missing_docs)]

pub mod adversary;
pub mod cache;
pub mod client;
pub mod element;
pub mod inter;
pub mod intra;
pub mod miner;
pub mod query;
pub mod sp;
pub mod store;
pub mod subindex;
pub mod subscribe;
pub mod trans;
pub mod verify;
pub mod vo;
pub mod wire;

pub use adversary::Adversary;
pub use cache::{CacheKey, CacheStats, DirtyEntry, ProofCache, ProofRequest};
pub use client::{PipelineMode, StreamStats, StreamVerifier, WindowScan};
pub use element::{Element, ElementId};
pub use inter::{SkipEntry, SkipList};
pub use intra::{IntraNodeKind, IntraTree};
pub use miner::{IndexScheme, Miner, MinerConfig};
pub use query::{Clause, Cnf, CompiledQuery, Query, RangeSpec};
pub use sp::{
    ServiceProvider, ServingRecovery, ShardStats, ShardedConfig, ShardedServiceProvider,
    WitnessTable,
};
pub use store::{LogStore, RecordKey, RecoveryReport, StoreError, StoreRecord};
pub use subindex::{Classification, SubscriptionIndex};
pub use subscribe::verify_encoded_subscription_update;
pub use subscribe::{
    BlockMatch, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate, WalkStrategy,
};
pub use verify::{
    verify_encoded_response, verify_response, DisjointBatch, VerifyError, WindowVerifier,
};
pub use vo::{BlockCoverage, ClauseRef, QueryResponse, VoNode};
pub use wire::{
    decode_update, encode_response_v2, encode_scan_stream, encode_update, StreamDecoder,
    StreamEvent, WireError, MAX_FRAME_BYTES, MAX_VO_DEPTH,
};
