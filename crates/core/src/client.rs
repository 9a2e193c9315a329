//! The light client's streamed verification pipeline (builds on §5.1/§6
//! verification and the [`crate::wire`] stream format).
//!
//! A window-query VO does not have to be held in memory whole before
//! verification starts. The SP serializes it as self-delimiting frames
//! ([`crate::wire::encode_scan_stream`]); the client feeds transport
//! chunks into a [`StreamVerifier`], which decodes frame-by-frame with
//! bounded buffering and verifies each coverage entry as soon as it is
//! complete. With [`PipelineMode::Worker`] the two stages overlap: a
//! worker thread verifies block *i* while the caller's thread is still
//! decoding block *i + 1*.
//!
//! ```text
//!   transport chunks ──▶ StreamDecoder ──(bounded channel)──▶ WindowScan
//!        caller thread   frame reassembly                     hash + operand decode
//!                        + proof decode        worker thread  + one batch flush
//! ```
//!
//! The second pillar is *cross-block batching across windows*: every
//! disjointness proof of every block of every window defers into one
//! shared [`DisjointBatch`] ([`WindowScan`]), so an 8-window scan pays a
//! single aggregated pairing flush instead of eight.
//!
//! A response has one body encoding with two deliveries — one-shot
//! ([`crate::wire::encode_response_v2`]) and framed
//! ([`crate::wire::encode_scan_stream`]) — and both verify to the same
//! results:
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
//! use vchain_core::client::{PipelineMode, StreamVerifier};
//! use vchain_core::verify::verify_encoded_response;
//! use vchain_core::wire::{encode_response_v2, encode_scan_stream};
//!
//! let resp = sp.time_window_query(&q);
//! let one_shot = verify_encoded_response(&q, &encode_response_v2(&resp), &light, &cfg, &acc);
//! let mut v = StreamVerifier::for_query(q, light.clone(), cfg, acc.clone(), PipelineMode::Inline);
//! v.feed(&encode_scan_stream(&[resp])).unwrap();
//! let (windows, _stats) = v.finish().unwrap();
//! assert_eq!(windows[0], one_shot.unwrap());
//! assert_eq!(windows[0].len(), 1);
//! ```

// Like `verify`, this module runs on attacker-shaped input (the decoded
// stream), so panicking constructs are denied outright.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use vchain_acc::Accumulator;
use vchain_chain::{LightClient, Object};

use crate::miner::MinerConfig;
use crate::query::CompiledQuery;
use crate::verify::{DisjointBatch, VerifyError, WindowVerifier};
use crate::vo::BlockCoverage;
use crate::wire::{StreamDecoder, StreamEvent, WireError};

/// How many decoded-but-unverified coverage entries the pipeline may hold
/// between its decode and verify stages. Small on purpose: the bound is
/// the backpressure that keeps peak memory independent of response size.
const PIPELINE_DEPTH: usize = 8;

/// Whether the verify stage runs on the caller's thread or overlaps the
/// decode stage on a dedicated worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Decode and verify alternate on the caller's thread. No
    /// concurrency, minimal footprint — and the mode the pipeline falls
    /// back to if a worker thread cannot be spawned.
    Inline,
    /// A worker thread verifies entry *i* while the caller decodes entry
    /// *i + 1* — the two-stage pipeline of the module docs.
    Worker,
}

/// Counters a [`StreamVerifier`] accumulates while consuming a stream.
///
/// `peak_buffer_bytes` is the pipeline's high-water memory mark: the
/// largest value, over the whole stream, of *(bytes of the one partial
/// frame being reassembled) + (retained intern-table bytes) + (wire bytes
/// of decoded entries queued to the verify stage)*. For any multi-block
/// stream this is far below the full VO size — the point of streaming —
/// and a test in `tests/fault_injection.rs` asserts exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total stream bytes fed (the VO's wire size).
    pub vo_bytes: usize,
    /// High-water mark of buffered bytes (partial frame + intern table +
    /// entries in flight between the pipeline stages).
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
    /// `light`'s headers. The scan owns its copies so it can live on a
    /// worker thread (`'static`).
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
        if self.current.is_none() {
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
            self.current = Some(v.with_batch(std::mem::take(&mut self.batch)));
        }
        // The line above guarantees presence; spelled without unwrap to
        // honour this module's no-panic wall.
        self.current.as_mut().ok_or(VerifyError::PipelineLost)
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

enum Item<A: Accumulator> {
    Entry { window: usize, coverage: BlockCoverage<A>, results: Vec<Object>, bytes: usize },
}

struct Worker<A: Accumulator> {
    tx: mpsc::SyncSender<Item<A>>,
    handle: thread::JoinHandle<Result<Vec<Vec<Object>>, VerifyError>>,
}

enum Stage<A: Accumulator> {
    Inline(Box<WindowScan<A>>),
    Worker(Worker<A>),
}

/// The streamed verification pipeline: feeds transport chunks through the
/// chunked [`StreamDecoder`] and verifies coverage entries as they
/// complete, holding only one partial frame, the intern table, and a
/// bounded in-flight queue in memory.
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
/// // The SP frames the response; the client verifies it as it arrives,
/// // with decode and verify overlapped on a worker thread.
/// let stream = encode_scan_stream(&[sp.time_window_query(&q)]);
/// let mut v = StreamVerifier::for_query(q, light.clone(), cfg, acc.clone(), PipelineMode::Worker);
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
    stage: Option<Stage<A>>,
    inflight: Arc<AtomicUsize>,
    expected_windows: usize,
    peak_buffer: usize,
    error: Option<VerifyError>,
}

impl<A: Accumulator> StreamVerifier<A> {
    /// A pipeline verifying a multi-window scan: one query per window, in
    /// stream order.
    pub fn new(
        queries: Vec<CompiledQuery>,
        light: LightClient,
        cfg: MinerConfig,
        acc: A,
        mode: PipelineMode,
    ) -> Self {
        let expected_windows = queries.len();
        let inflight = Arc::new(AtomicUsize::new(0));
        let stage = match mode {
            PipelineMode::Inline => Stage::Inline(Box::new(WindowScan::new(queries, light, cfg))),
            PipelineMode::Worker => match spawn_worker(
                queries.clone(),
                light.clone(),
                cfg,
                acc.clone(),
                Arc::clone(&inflight),
            ) {
                Some(w) => Stage::Worker(w),
                // Spawn failure (resource exhaustion) degrades to inline
                // verification rather than failing the query.
                None => Stage::Inline(Box::new(WindowScan::new(queries, light, cfg))),
            },
        };
        Self {
            decoder: StreamDecoder::new(),
            acc,
            stage: Some(stage),
            inflight,
            expected_windows,
            peak_buffer: 0,
            error: None,
        }
    }

    /// [`StreamVerifier::new`] for the common single-window case.
    pub fn for_query(
        q: CompiledQuery,
        light: LightClient,
        cfg: MinerConfig,
        acc: A,
        mode: PipelineMode,
    ) -> Self {
        Self::new(vec![q], light, cfg, acc, mode)
    }

    fn fail(&mut self, e: VerifyError) -> VerifyError {
        // Capture the worker's real error if it died first.
        let e = match (&e, self.stage.take()) {
            (VerifyError::PipelineLost, Some(Stage::Worker(w))) => join_worker(w),
            (_, stage) => {
                self.stage = stage;
                e
            }
        };
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
            match ev {
                StreamEvent::Header { windows, .. } => {
                    if windows.len() != self.expected_windows {
                        return Err(self.fail(VerifyError::Malformed(WireError::NonCanonical {
                            what: "stream window count differs from the scan's queries",
                        })));
                    }
                }
                StreamEvent::Entry { window, coverage, results, wire_bytes } => {
                    match self.stage.as_mut() {
                        Some(Stage::Inline(scan)) => {
                            if let Err(e) = scan.entry(&self.acc, window, &coverage, &results) {
                                return Err(self.fail(e));
                            }
                        }
                        Some(Stage::Worker(worker)) => {
                            self.inflight.fetch_add(wire_bytes, Ordering::Relaxed);
                            let item = Item::Entry { window, coverage, results, bytes: wire_bytes };
                            if worker.tx.send(item).is_err() {
                                // Receiver gone: the worker stopped on an
                                // error — join it to surface the real one.
                                return Err(self.fail(VerifyError::PipelineLost));
                            }
                        }
                        None => return Err(self.fail(VerifyError::PipelineLost)),
                    }
                }
            }
            let buffered = self
                .decoder
                .buffered()
                .saturating_add(self.decoder.table_bytes())
                .saturating_add(self.inflight.load(Ordering::Relaxed));
            self.peak_buffer = self.peak_buffer.max(buffered);
        }
        Ok(())
    }

    /// Declare the stream over: checks stream-level completeness, waits for
    /// the verify stage, flushes the one cross-window pairing batch, and
    /// returns each window's verified results plus the pipeline counters.
    pub fn finish(mut self) -> Result<(Vec<Vec<Object>>, StreamStats), VerifyError> {
        if let Some(e) = self.error.clone() {
            return Err(e);
        }
        let stats = StreamStats {
            vo_bytes: self.decoder.bytes_fed(),
            peak_buffer_bytes: self.peak_buffer.max(self.decoder.peak_buffered()),
            table_entries: self.decoder.table_entries(),
            entries: self.decoder.entries_done(),
            windows: self.expected_windows,
        };
        std::mem::take(&mut self.decoder).finish().map_err(VerifyError::Malformed)?;
        let results = match self.stage.take() {
            Some(Stage::Inline(scan)) => scan.finish(&self.acc)?,
            Some(Stage::Worker(worker)) => {
                let Worker { tx, handle } = worker;
                drop(tx); // hang up: the worker drains the queue and finishes
                match handle.join() {
                    Ok(r) => r?,
                    Err(_) => return Err(VerifyError::PipelineLost),
                }
            }
            None => return Err(VerifyError::PipelineLost),
        };
        Ok((results, stats))
    }
}

fn spawn_worker<A: Accumulator>(
    queries: Vec<CompiledQuery>,
    light: LightClient,
    cfg: MinerConfig,
    acc: A,
    inflight: Arc<AtomicUsize>,
) -> Option<Worker<A>> {
    let (tx, rx) = mpsc::sync_channel::<Item<A>>(PIPELINE_DEPTH);
    let handle = thread::Builder::new()
        .name("vchain-stream-verify".into())
        .spawn(move || {
            let mut scan = WindowScan::new(queries, light, cfg);
            while let Ok(item) = rx.recv() {
                let Item::Entry { window, coverage, results, bytes } = item;
                let outcome = scan.entry(&acc, window, &coverage, &results);
                inflight.fetch_sub(bytes, Ordering::Relaxed);
                outcome?;
            }
            scan.finish(&acc)
        })
        .ok()?;
    Some(Worker { tx, handle })
}

/// Retrieve the error a dead worker actually stopped on; a worker that
/// panicked or ended without one is a lost pipeline.
fn join_worker<A: Accumulator>(w: Worker<A>) -> VerifyError {
    drop(w.tx);
    match w.handle.join() {
        Ok(Err(e)) => e,
        Ok(Ok(_)) | Err(_) => VerifyError::PipelineLost,
    }
}
