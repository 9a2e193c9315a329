//! `window_e2e` — what a light-client user waits for: the SP answers a
//! 16-block time-window query cold, frames it as a stream, and the client
//! decodes and verifies it in 4 KiB chunks.
//!
//! Shape: 100 distinct queries per round, proof cache cleared at each round
//! start, one thread. The client side (checked wire decode, per-entry
//! verification, the pairing batch flush) is most of the op; SP proving is
//! about a fifth. A client-side change shows here and almost nowhere else.

use std::time::Instant;

use vchain_acc::Acc2;
use vchain_chain::Object;
use vchain_core::client::{PipelineMode, StreamStats, StreamVerifier, WindowScan};
use vchain_core::query::CompiledQuery;
use vchain_core::verify::VerifyError;
use vchain_core::wire::{self, StreamDecoder, StreamEvent};

use super::{
    same_objects, sub_seed, timed_ops, Bench, Chain, Config, Fixture, Layers, PairingCounts,
    RoundOutcome, VoShape,
};
use crate::trace::{SpanId, Tracer};

/// Transport chunk size the client is fed in.
const CHUNK: usize = 4096;

pub struct WindowE2e {
    fx: Fixture,
    chain: Chain,
    queries: Vec<CompiledQuery>,
    /// Oracle answer per query.
    expected: Vec<Vec<Object>>,
    flip_byte_in_op: Option<usize>,
}

/// A verified answer and the bytes that carried it.
type Verified = Result<(Vec<Object>, StreamStats), VerifyError>;

impl WindowE2e {
    /// The client half of the op, as a user runs it.
    fn client(&self, q: &CompiledQuery, stream: &[u8]) -> Verified {
        let mut v = StreamVerifier::for_query(
            q.clone(),
            self.chain.light.clone(),
            self.fx.cfg,
            self.fx.acc.clone(),
            PipelineMode::Inline,
        );
        for chunk in stream.chunks(CHUNK) {
            v.feed(chunk)?;
        }
        let (mut windows, stats) = v.finish()?;
        Ok((windows.pop().unwrap_or_default(), stats))
    }

    /// The whole op: SP query → stream encode → chunked client verify.
    fn op(&self, i: usize) -> (Verified, usize) {
        let q = &self.queries[i];
        let resp = self.chain.sp.time_window_query(q);
        let mut stream = wire::encode_scan_stream(std::slice::from_ref(&resp));
        if self.flip_byte_in_op == Some(i) {
            let mid = stream.len() / 2;
            stream[mid] ^= 0x01;
        }
        let len = stream.len();
        (self.client(q, &stream), len)
    }

    fn check(&self, i: usize, out: Verified) -> bool {
        out.is_ok_and(|(got, _)| same_objects(got, &self.expected[i]))
    }

    /// The client half again, through the lower-level public functions, with
    /// a span (child of `op`, the op's root span) around each call into
    /// `wire` and `verify`.
    fn client_traced(
        &self,
        i: usize,
        stream: &[u8],
        op: SpanId,
        tr: &mut Tracer,
        counts: &mut ClientCounts,
    ) -> Result<Vec<Object>, VerifyError> {
        let (acc, id) = (&self.fx.acc, i as u64);
        let mut dec = StreamDecoder::<Acc2>::new();
        let mut scan =
            WindowScan::new(vec![self.queries[i].clone()], self.chain.light.clone(), self.fx.cfg);
        for chunk in stream.chunks(CHUNK) {
            let events = tr
                .time("wire.decode", Some(op), id, || dec.feed(acc, chunk))
                .map_err(VerifyError::Malformed)?;
            tr.time("verify.entries", Some(op), id, || {
                for ev in &events {
                    if let StreamEvent::Entry { window, coverage, results, .. } = ev {
                        scan.entry(acc, *window, coverage, results)?;
                    }
                }
                Ok::<(), VerifyError>(())
            })?;
        }
        counts.table_entries += dec.table_entries();
        tr.time("wire.decode", Some(op), id, || dec.finish()).map_err(VerifyError::Malformed)?;
        counts.checks += scan.pending_checks();
        let mut windows = tr.time("verify.flush", Some(op), id, || scan.finish(acc))?;
        Ok(windows.pop().unwrap_or_default())
    }
}

/// What the decomposed client counted over a traced round.
#[derive(Default)]
struct ClientCounts {
    /// Deferred pairing checks handed to the batch flush.
    checks: usize,
    /// Entries of the streams' intern tables.
    table_entries: usize,
}

impl Bench for WindowE2e {
    const NAME: &'static str = "window_e2e";

    fn setup(cfg: &Config) -> Result<Self, String> {
        let mut fx = Fixture::new(cfg, cfg.scale.pick(128, 20))?;
        let chain = fx.mine_timed()?;
        let queries = fx.window_queries(cfg.scale.pick(100, 6), sub_seed(cfg.seed, 1));
        let expected = queries.iter().map(|q| fx.oracle(q)).collect();
        Ok(Self { fx, chain, queries, expected, flip_byte_in_op: cfg.flip_byte_in_op })
    }

    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("threads", "1".into()),
            ("chain_blocks", self.fx.data.blocks.len().to_string()),
            ("chunk_bytes", CHUNK.to_string()),
        ]
    }

    fn ops_per_round(&self) -> usize {
        self.queries.len()
    }

    fn round(&mut self) -> RoundOutcome {
        self.chain.sp.proof_cache().clear();
        let (round, outs) = timed_ops(self.queries.len(), |i| self.op(i));
        let mut failed = 0;
        let mut bytes = 0u64;
        for (i, (out, len)) in outs.into_iter().enumerate() {
            bytes += len as u64;
            failed += u64::from(!self.check(i, out));
        }
        RoundOutcome { round, failed, bytes }
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> RoundOutcome {
        let sp = &self.chain.sp;
        sp.proof_cache().clear();
        let n = self.queries.len();
        let (mut lat_ms, mut failed, mut bytes) = (Vec::with_capacity(n), 0u64, 0u64);
        let (mut counts, mut shape) = (ClientCounts::default(), VoShape::default());
        let (mut peak_ratio, mut pairing) = (0.0f64, PairingCounts::default());
        let wall = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            let op = tr.open("op", None, i as u64);
            let resp = tr.time("sp.query", Some(op), i as u64, || sp.time_window_query(q));
            let stream = tr.time("wire.encode", Some(op), i as u64, || {
                wire::encode_scan_stream(std::slice::from_ref(&resp))
            });
            let before = PairingCounts::now();
            let got = self.client_traced(i, &stream, op, tr, &mut counts);
            tr.close(op);
            pairing.add_since(before);
            lat_ms.push(tr.duration_ms(op));

            // Outside the op: the same query warm (proving = cold − warm),
            // and the user-facing `StreamVerifier`, which must agree with
            // the decomposed client.
            let warm = tr.time("sp.query_warm", None, i as u64, || sp.time_window_query(q));
            std::hint::black_box(warm);
            let reference = self.client(q, &stream);
            let ok = match (got, reference) {
                (Ok(got), Ok((want, stats))) => {
                    peak_ratio += stats.peak_buffer_bytes as f64 / stats.vo_bytes.max(1) as f64;
                    got == want && same_objects(got, &self.expected[i])
                }
                _ => false,
            };
            failed += u64::from(!ok);
            bytes += stream.len() as u64;
            shape.add(&resp);
        }
        let wall_s = wall.elapsed().as_secs_f64();

        // A cleared cache starts its counters at zero, so the misses so far
        // are exactly the proofs this round computed.
        let proofs = sp.proof_cache().stats().misses as usize;
        let cold = tr.per_op_ms("sp.query", n);
        let warm = tr.per_op_ms("sp.query_warm", n);
        let prove = (cold - warm).max(0.0);
        layers.set("sp.query_cold_ms", cold, n);
        layers.set("sp.query_warm_ms", warm, n);
        layers.set("sp.prove_ms", prove, n);
        layers.set_mean("sp.proofs_per_op", proofs as f64, n);
        layers.set_vo_shape(shape, n);
        layers.set_mean("accumulator.prove_us_per_proof", prove * n as f64 * 1e3, proofs);
        layers.set("wire.encode_ms", tr.per_op_ms("wire.encode", n), n);
        layers.set("wire.decode_ms", tr.per_op_ms("wire.decode", n), n);
        layers.set_mean("wire.intern_entries_per_op", counts.table_entries as f64, n);
        layers.set("verify.entries_ms", tr.per_op_ms("verify.entries", n), n);
        layers.set("verify.flush_ms", tr.per_op_ms("verify.flush", n), n);
        layers.set_mean("verify.checks_per_op", counts.checks as f64, n);
        layers.set_mean("client.peak_buffer_ratio", peak_ratio, n);
        layers.set_pairing(pairing, n);
        RoundOutcome { round: crate::stats::Round { lat_ms, wall_s }, failed, bytes }
    }
}
