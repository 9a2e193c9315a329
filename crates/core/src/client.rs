//! The light client's streamed verification pipeline (builds on §5.1/§6
//! verification and the [`crate::wire`] stream format).
//!
//! A window-query VO does not have to be held in memory whole before
//! verification starts. The SP serializes it as self-delimiting frames
//! ([`crate::wire::encode_scan_stream`]); the client feeds transport
//! chunks into a [`StreamVerifier`], which decodes frame-by-frame with
//! bounded buffering and verifies each coverage entry as soon as it is
//! complete, on the caller's thread.
//!
//! ```text
//!   transport chunks ──▶ StreamDecoder ──(one entry at a time)──▶ WindowScan
//!                        frame parsing, in place                  hash + operand decode
//!                        + slot length checks                     + proof decode
//!                                                                 + one batch flush
//! ```
//!
//! The second pillar is *cross-block batching across windows*: every
//! disjointness proof of every block of every window defers into one
//! shared [`DisjointBatch`] ([`WindowScan`]), so an 8-window scan pays a
//! single aggregated pairing flush instead of eight.
//!
//! A response has one wire layout, the frame stream. A single window's
//! stream ([`crate::wire::encode_response_v2`]) verifies to the same
//! results whether it is fed whole ([`crate::verify::verify_encoded_response`])
//! or chunk by chunk as it arrives:
//!
//! ```
//! # use rand::rngs::StdRng;
//! # use rand::SeedableRng;
//! # use vchain_acc::{Acc2, Accumulator};
//! # use vchain_chain::{Difficulty, LightClient, Object};
//! # use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
//! # use vchain_core::query::Query;
//! # let cfg = MinerConfig { scheme: IndexScheme::Both, skip_levels: 3, domain_bits: 8,
//! #                         difficulty: Difficulty(0), bloom_bits_per_key: 10 };
//! # let acc = Acc2::keygen(256, &mut StdRng::seed_from_u64(7));
//! # let mut miner = Miner::new(cfg, acc.clone());
//! # miner.mine_block(10, vec![Object::new(1, 10, vec![220], vec!["Sedan".into()])]);
//! # miner.mine_block(20, vec![Object::new(2, 20, vec![95], vec!["Van".into()])]);
//! # let mut light = LightClient::new(cfg.difficulty);
//! # for h in miner.headers() { light.sync_header(h).unwrap(); }
//! # let sp = miner.into_service_provider();
//! # let q = Query { time_window: Some((0, 40)), ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
//! #     .compile(cfg.domain_bits);
//! use vchain_core::client::StreamVerifier;
//! use vchain_core::verify::verify_encoded_response;
//! use vchain_core::wire::encode_response_v2;
//!
//! let bytes = encode_response_v2(&sp.time_window_query(&q));
//! let whole = verify_encoded_response(&q, &bytes, &light, &cfg, &acc).unwrap();
//! let mut v = StreamVerifier::new(vec![q], light.clone(), cfg, acc.clone());
//! for chunk in bytes.chunks(16) {
//!     v.feed(chunk).unwrap();
//! }
//! let (windows, _stats) = v.finish().unwrap();
//! assert_eq!(windows, [whole]);
//! assert_eq!(windows[0].len(), 1);
//! ```

// Like `verify`, this module runs on attacker-shaped input (the decoded
// stream), so panicking constructs are denied outright.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;

use vchain_acc::Accumulator;
use vchain_chain::{LightClient, Object};

use crate::miner::MinerConfig;
use crate::query::CompiledQuery;
use crate::verify::{DisjointBatch, VerifyError, WindowVerifier};
use crate::vo::BlockCoverage;
use crate::wire::{StreamDecoder, StreamEvent, WireError};

/// How [`StreamVerifier::for_query`] schedules decode and verify. There is
/// one way; the type exists only because the frozen benchmark source
/// (`vbench/workloads/window_e2e.rs`) passes `PipelineMode::Inline`. The
/// worker-thread mode it used to select did not win `window_e2e`
/// (`docs/BENCHMARKS.md` § PR 17) and went; ROADMAP item 1 (ii) removes the
/// parameter and this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Decode and verify alternate on the caller's thread.
    Inline,
}

/// Counters a [`StreamVerifier`] accumulates while consuming a stream.
///
/// `peak_buffer_bytes` is the pipeline's high-water memory mark: the
/// largest value, over the whole stream, of *(bytes of the one partial
/// frame being reassembled) + (retained intern-table bytes)*
/// ([`StreamDecoder::peak_buffered`]) — a decoded entry is verified before
/// the next frame is looked at, so nothing else is held. For any
/// multi-block stream this is far below the full VO size — the point of
/// streaming — and a test in `tests/fault_injection.rs` asserts exactly
/// that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total stream bytes fed (the VO's wire size).
    pub vo_bytes: usize,
    /// High-water mark of buffered bytes (partial frame + intern table).
    pub peak_buffer_bytes: usize,
    /// Entries in the stream's shared intern table.
    pub table_entries: usize,
    /// Coverage-entry frames fully processed.
    pub entries: u32,
    /// Windows in the scan.
    pub windows: usize,
}

/// Cross-window verification driver: verifies a sequence of window
/// responses while folding *all* their deferred pairing checks into one
/// shared [`DisjointBatch`], flushed once in [`WindowScan::finish`] — an
/// 8-window scan costs one aggregated multi-pairing instead of eight.
///
/// ```
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # use vchain_acc::{Acc2, Accumulator};
/// # use vchain_chain::{Difficulty, LightClient, Object};
/// # use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
/// # use vchain_core::query::Query;
/// # let cfg = MinerConfig { scheme: IndexScheme::Both, skip_levels: 3, domain_bits: 8,
/// #                         difficulty: Difficulty(0), bloom_bits_per_key: 10 };
/// # let acc = Acc2::keygen(256, &mut StdRng::seed_from_u64(7));
/// # let mut miner = Miner::new(cfg, acc.clone());
/// # miner.mine_block(10, vec![Object::new(1, 10, vec![220], vec!["Sedan".into()])]);
/// # miner.mine_block(20, vec![Object::new(2, 20, vec![95], vec!["Van".into()])]);
/// # miner.mine_block(30, vec![Object::new(3, 30, vec![230], vec!["Sedan".into()])]);
/// # let mut light = LightClient::new(cfg.difficulty);
/// # for h in miner.headers() { light.sync_header(h).unwrap(); }
/// # let sp = miner.into_service_provider();
/// use vchain_core::client::WindowScan;
/// use vchain_core::vo::BlockCoverage;
///
/// // Two overlapping windows over the same chain.
/// let queries: Vec<_> = [(0u64, 25u64), (15, 40)]
///     .iter()
///     .map(|&(ts, te)| {
///         Query { time_window: Some((ts, te)), ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
///             .compile(cfg.domain_bits)
///     })
///     .collect();
/// let responses: Vec<_> = queries.iter().map(|q| sp.time_window_query(q)).collect();
///
/// let mut scan = WindowScan::new(queries, light.clone(), cfg);
/// for (window, resp) in responses.iter().enumerate() {
///     for cov in &resp.coverage {
///         // a block entry travels with that block's result objects
///         let objs = match cov {
///             BlockCoverage::Block { height, .. } => {
///                 resp.results.iter().find(|(h, _)| h == height).map_or(&[][..], |(_, o)| o)
///             }
///             BlockCoverage::Skip { .. } => &[],
///         };
///         scan.entry(&acc, window, cov, objs).unwrap();
///     }
/// }
/// // Both windows' disjointness proofs are still pending in ONE batch …
/// assert!(scan.pending_checks() > 0);
/// // … and finish() pays a single aggregated pairing flush for all of them.
/// let per_window = scan.finish(&acc).unwrap();
/// assert_eq!(per_window.len(), 2);
/// assert_eq!(per_window[0].len(), 1); // the t=10 Sedan
/// assert_eq!(per_window[1].len(), 1); // the t=30 Sedan
/// ```
pub struct WindowScan<A: Accumulator> {
    queries: Vec<CompiledQuery>,
    light: LightClient,
    cfg: MinerConfig,
    batch: DisjointBatch<A>,
    current: Option<WindowVerifier<'static, A>>,
    current_idx: usize,
    results: Vec<Vec<Object>>,
}

impl<A: Accumulator> WindowScan<A> {
    /// A scan over `queries`, one window per query, verified against
    /// `light`'s headers. The scan owns its copies, and lends each window's
    /// verifier owned ones (`'static`) so it can hold the open verifier
    /// beside them.
    pub fn new(queries: Vec<CompiledQuery>, light: LightClient, cfg: MinerConfig) -> Self {
        Self {
            queries,
            light,
            cfg,
            batch: DisjointBatch::new(),
            current: None,
            current_idx: 0,
            results: Vec::new(),
        }
    }

    /// Number of windows in the scan.
    pub fn windows(&self) -> usize {
        self.queries.len()
    }

    /// Deferred pairing checks accumulated so far across all closed and
    /// open windows — everything [`WindowScan::finish`] will flush at once.
    pub fn pending_checks(&self) -> usize {
        // an open window holds the scan's one batch
        self.current.as_ref().map_or(self.batch.len(), WindowVerifier::pending_checks)
    }

    fn open_current(&mut self) -> Result<&mut WindowVerifier<'static, A>, VerifyError> {
        match self.current {
            Some(ref mut v) => Ok(v),
            None => {
                let q = self
                    .queries
                    .get(self.current_idx)
                    .ok_or(VerifyError::Malformed(WireError::NonCanonical {
                        what: "stream window index beyond the scan's queries",
                    }))?
                    .clone();
                let v = WindowVerifier::for_window(
                    Cow::Owned(q),
                    Cow::Owned(self.light.clone()),
                    self.cfg,
                )?;
                Ok(self.current.insert(v.with_batch(std::mem::take(&mut self.batch))))
            }
        }
    }

    /// Close the currently open window: run its completeness checks and
    /// take the shared batch back with the window's pairing checks in it.
    fn close_current(&mut self) -> Result<(), VerifyError> {
        self.open_current()?; // empty window still enforces completeness
        if let Some(v) = self.current.take() {
            let (results, batch) = v.finish_deferred()?;
            self.results.push(results);
            self.batch = batch;
        }
        self.current_idx += 1;
        Ok(())
    }

    /// Verify one streamed coverage entry belonging to window `window`
    /// (monotonically non-decreasing, as the stream format guarantees).
    pub fn entry(
        &mut self,
        acc: &A,
        window: usize,
        cov: &BlockCoverage<A>,
        block_results: &[Object],
    ) -> Result<(), VerifyError> {
        if window < self.current_idx || window >= self.queries.len() {
            return Err(VerifyError::Malformed(WireError::NonCanonical {
                what: "stream window index out of order",
            }));
        }
        while self.current_idx < window {
            self.close_current()?;
        }
        self.open_current()?.entry(acc, cov, block_results)
    }

    /// Close any remaining windows, flush the one shared pairing batch,
    /// and return each window's verified results. Until this returns `Ok`,
    /// no result of any window is trustworthy.
    pub fn finish(mut self, acc: &A) -> Result<Vec<Vec<Object>>, VerifyError> {
        while self.current_idx < self.queries.len() {
            self.close_current()?;
        }
        self.batch.flush(acc)?;
        Ok(self.results)
    }
}

/// The streamed verification pipeline: feeds transport chunks through the
/// chunked [`StreamDecoder`] and verifies coverage entries as they
/// complete, holding only one partial frame and the intern table in
/// memory.
///
/// ```
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # use vchain_acc::{Acc2, Accumulator};
/// # use vchain_chain::{Difficulty, LightClient, Object};
/// # use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
/// # use vchain_core::query::Query;
/// # let cfg = MinerConfig { scheme: IndexScheme::Both, skip_levels: 3, domain_bits: 8,
/// #                         difficulty: Difficulty(0), bloom_bits_per_key: 10 };
/// # let acc = Acc2::keygen(256, &mut StdRng::seed_from_u64(7));
/// # let mut miner = Miner::new(cfg, acc.clone());
/// # miner.mine_block(10, vec![Object::new(1, 10, vec![220], vec!["Sedan".into()])]);
/// # miner.mine_block(20, vec![Object::new(2, 20, vec![95], vec!["Van".into()])]);
/// # miner.mine_block(30, vec![Object::new(3, 30, vec![230], vec!["Sedan".into()])]);
/// # let mut light = LightClient::new(cfg.difficulty);
/// # for h in miner.headers() { light.sync_header(h).unwrap(); }
/// # let sp = miner.into_service_provider();
/// # let q = Query { time_window: Some((0, 40)), ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
/// #     .compile(cfg.domain_bits);
/// use vchain_core::client::{PipelineMode, StreamVerifier};
/// use vchain_core::wire::encode_scan_stream;
///
/// // The SP frames the response; the client verifies it as it arrives.
/// let stream = encode_scan_stream(&[sp.time_window_query(&q)]);
/// let mut v = StreamVerifier::for_query(q, light.clone(), cfg, acc.clone(), PipelineMode::Inline);
/// for chunk in stream.chunks(64) {
///     v.feed(chunk).unwrap();
/// }
/// let (windows, stats) = v.finish().unwrap();
/// assert_eq!(windows.len(), 1);
/// assert_eq!(windows[0].len(), 2); // both Sedans, verified
/// assert_eq!(stats.vo_bytes, stream.len());
/// ```
///
/// The stats expose the buffer-budget the pipeline actually used — for a
/// multi-block stream the peak stays well under the full VO size:
///
/// ```
/// # use rand::rngs::StdRng;
/// # use rand::SeedableRng;
/// # use vchain_acc::{Acc2, Accumulator};
/// # use vchain_chain::{Difficulty, LightClient, Object};
/// # use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
/// # use vchain_core::query::Query;
/// # let cfg = MinerConfig { scheme: IndexScheme::Both, skip_levels: 3, domain_bits: 8,
/// #                         difficulty: Difficulty(0), bloom_bits_per_key: 10 };
/// # let acc = Acc2::keygen(256, &mut StdRng::seed_from_u64(7));
/// # let mut miner = Miner::new(cfg, acc.clone());
/// # for h in 0..6u64 {
/// #     miner.mine_block(10 * (h + 1), vec![Object::new(h + 1, 10 * (h + 1), vec![h], vec!["Sedan".into()])]);
/// # }
/// # let mut light = LightClient::new(cfg.difficulty);
/// # for h in miner.headers() { light.sync_header(h).unwrap(); }
/// # let sp = miner.into_service_provider();
/// # let q = Query { time_window: Some((0, 100)), ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
/// #     .compile(cfg.domain_bits);
/// use vchain_core::client::{PipelineMode, StreamVerifier};
/// use vchain_core::wire::encode_scan_stream;
///
/// let stream = encode_scan_stream(&[sp.time_window_query(&q)]);
/// let mut v = StreamVerifier::for_query(q, light.clone(), cfg, acc.clone(), PipelineMode::Inline);
/// for chunk in stream.chunks(128) {
///     v.feed(chunk).unwrap();
/// }
/// let (_windows, stats) = v.finish().unwrap();
/// // Bounded buffering: the client never held the whole VO.
/// assert!(stats.peak_buffer_bytes < stats.vo_bytes);
/// assert_eq!(stats.entries, 6);
/// ```
pub struct StreamVerifier<A: Accumulator> {
    decoder: StreamDecoder<A>,
    acc: A,
    scan: WindowScan<A>,
    error: Option<VerifyError>,
}

impl<A: Accumulator> StreamVerifier<A> {
    /// A pipeline verifying a multi-window scan: one query per window, in
    /// stream order.
    pub fn new(queries: Vec<CompiledQuery>, light: LightClient, cfg: MinerConfig, acc: A) -> Self {
        Self {
            decoder: StreamDecoder::new(),
            acc,
            scan: WindowScan::new(queries, light, cfg),
            error: None,
        }
    }

    /// [`StreamVerifier::new`] for the common single-window case. `_mode`
    /// selects nothing (see [`PipelineMode`]).
    pub fn for_query(
        q: CompiledQuery,
        light: LightClient,
        cfg: MinerConfig,
        acc: A,
        _mode: PipelineMode,
    ) -> Self {
        Self::new(vec![q], light, cfg, acc)
    }

    fn fail(&mut self, e: VerifyError) -> VerifyError {
        self.error = Some(e.clone());
        e
    }

    /// Feed the next transport chunk. Errors are terminal: the first
    /// rejection (structural or cryptographic) poisons the pipeline and
    /// every later call returns it again.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), VerifyError> {
        if let Some(e) = self.error.clone() {
            return Err(e);
        }
        let events = match self.decoder.feed(&self.acc, chunk) {
            Ok(ev) => ev,
            Err(e) => return Err(self.fail(VerifyError::Malformed(e))),
        };
        for ev in events {
            let outcome = match ev {
                StreamEvent::Header { windows, .. } if windows.len() != self.scan.windows() => {
                    Err(VerifyError::Malformed(WireError::NonCanonical {
                        what: "stream window count differs from the scan's queries",
                    }))
                }
                StreamEvent::Header { .. } => Ok(()),
                StreamEvent::Entry { window, coverage, results } => {
                    self.scan.entry(&self.acc, window, &coverage, &results)
                }
            };
            if let Err(e) = outcome {
                return Err(self.fail(e));
            }
        }
        Ok(())
    }

    /// Declare the stream over: checks stream-level completeness, flushes
    /// the one cross-window pairing batch, and returns each window's
    /// verified results plus the pipeline counters.
    pub fn finish(self) -> Result<(Vec<Vec<Object>>, StreamStats), VerifyError> {
        let Self { decoder, acc, scan, error } = self;
        if let Some(e) = error {
            return Err(e);
        }
        let stats = StreamStats {
            vo_bytes: decoder.bytes_fed(),
            peak_buffer_bytes: decoder.peak_buffered(),
            table_entries: decoder.table_entries(),
            entries: decoder.entries_done(),
            windows: scan.windows(),
        };
        decoder.finish().map_err(VerifyError::Malformed)?;
        Ok((scan.finish(&acc)?, stats))
    }
}
