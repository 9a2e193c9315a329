//! `subscribe_stream` — the subscriber-facing cost per confirmed block:
//! `SubscriptionEngine::process_block` on a block the engine has not seen,
//! `wire::encode_update` of every update, and four fixed subscribers
//! verifying theirs from the bytes.
//!
//! Shape: 2 000 standing queries (`SubscriptionSpec::paper_defaults`, Zipf
//! profile), real-time publication, a fresh engine with untimed registration
//! per round, 24 blocks per round, one thread. Unlike the ledger's
//! `sub_match_block_100k`, which re-matches one already-proved block, every
//! block here is fresh, so the op is proving-bound.

use std::time::Instant;

use vchain_acc::Acc2;
use vchain_chain::Object;
use vchain_core::query::{CompiledQuery, Query};
use vchain_core::subscribe::{
    verify_encoded_subscription_update, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate,
};
use vchain_core::wire;
use vchain_datagen::{Dataset, SkewProfile, SubscriptionSpec};

use super::{
    same_objects, timed_ops, Bench, Chain, Config, Fixture, Layers, PairingCounts, RoundOutcome,
};
use crate::stats::Round;
use crate::trace::Tracer;

/// Subscribers that verify their update on every block.
const SUBSCRIBERS: usize = 4;

pub struct SubscribeStream {
    fx: Fixture,
    chain: Chain,
    subscriptions: Vec<Query>,
    /// The verifying subscribers: registration index and compiled query.
    subscribers: Vec<(usize, CompiledQuery)>,
    /// Oracle answer per block, per subscriber.
    expected: Vec<Vec<Vec<Object>>>,
    /// The engine registered during set-up (registration is a set-up cost);
    /// the first round takes it, later rounds register their own, untimed.
    ready: Option<(SubscriptionEngine<Acc2>, f64)>,
}

/// What the subscribers verified for one block, and the bytes published.
type BlockOut = (Vec<Option<Vec<Object>>>, usize);

impl SubscribeStream {
    /// A fresh engine with every subscription registered; returns the
    /// registration time in µs per query.
    fn engine(&self) -> (SubscriptionEngine<Acc2>, f64) {
        let mut engine = SubscriptionEngine::new(
            self.fx.cfg,
            self.fx.acc.clone(),
            SubscriptionMode::Realtime,
            false,
        );
        let t0 = Instant::now();
        for q in &self.subscriptions {
            engine.register(q);
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / self.subscriptions.len().max(1) as f64;
        (engine, us)
    }

    /// Each subscriber verifies its update from the bytes alone.
    fn verify(&self, encoded: &[Vec<u8>]) -> Vec<Option<Vec<Object>>> {
        self.subscribers
            .iter()
            .map(|(id, q)| {
                let bytes = encoded.get(*id)?;
                verify_encoded_subscription_update(
                    q,
                    bytes,
                    &self.chain.light,
                    &self.fx.cfg,
                    &self.fx.acc,
                )
                .ok()
            })
            .collect()
    }

    fn op(&self, engine: &mut SubscriptionEngine<Acc2>, height: usize) -> Option<BlockOut> {
        let block = self.chain.sp.store().block(height as u64)?;
        let updates = engine.process_block(block, self.chain.sp.indexed().get(height)?);
        let encoded: Vec<Vec<u8>> = updates.iter().map(wire::encode_update).collect();
        let bytes = encoded.iter().map(Vec::len).sum();
        Some((self.verify(&encoded), bytes))
    }

    /// Real-time mode publishes one update per query in registration order,
    /// so a subscriber's update sits at its registration index.
    fn check(&self, height: usize, verified: Vec<Option<Vec<Object>>>) -> bool {
        verified.len() == self.subscribers.len()
            && verified
                .into_iter()
                .zip(&self.expected[height])
                .all(|(got, want)| got.is_some_and(|g| same_objects(g, want)))
    }
}

impl Bench for SubscribeStream {
    const NAME: &'static str = "subscribe_stream";

    fn setup(cfg: &Config) -> Result<Self, String> {
        // Only the blocks a round streams are mined.
        let mut fx = Fixture::new(cfg, cfg.scale.pick(24, 3))?;
        let chain = fx.mine_timed()?;
        // The standing-query population is the generator's default one for
        // every `--seed`; the seed varies the block stream it is matched
        // against. Which clauses happen to be hot decides how many queries a
        // block refutes at once: re-drawing the population per seed moves
        // `op_ms_p50` by ±9 % and `bytes_per_op` by ±15 % (README, "noise
        // study"), which no bound could usefully cover.
        let spec = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
        let subscriptions = spec.generate(cfg.scale.pick(2000, 40));

        let n = subscriptions.len();
        let subscribers: Vec<(usize, CompiledQuery)> = (0..SUBSCRIBERS)
            .map(|k| k * n / SUBSCRIBERS)
            .map(|id| (id, subscriptions[id].compile(fx.cfg.domain_bits)))
            .collect();
        let expected = fx
            .data
            .blocks
            .iter()
            .map(|(_, objs)| {
                subscribers
                    .iter()
                    .map(|(_, q)| {
                        let mut hits: Vec<Object> =
                            objs.iter().filter(|o| q.object_matches(o)).cloned().collect();
                        hits.sort_by_key(|o| o.id);
                        hits
                    })
                    .collect()
            })
            .collect();

        let mut this = Self { fx, chain, subscriptions, subscribers, expected, ready: None };
        this.ready = Some(this.engine());
        Ok(this)
    }

    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("threads", "1".into()),
            ("subscriptions", self.subscriptions.len().to_string()),
            ("verifying_subscribers", SUBSCRIBERS.to_string()),
            ("mode", "realtime".into()),
        ]
    }

    fn ops_per_round(&self) -> usize {
        self.fx.data.blocks.len()
    }

    fn round(&mut self) -> RoundOutcome {
        let (mut engine, _) = self.ready.take().unwrap_or_else(|| self.engine());
        let (round, outs) = timed_ops(self.ops_per_round(), |h| self.op(&mut engine, h));
        let (mut failed, mut bytes) = (0u64, 0u64);
        for (h, out) in outs.into_iter().enumerate() {
            let ok = out.is_some_and(|(verified, len)| {
                bytes += len as u64;
                self.check(h, verified)
            });
            failed += u64::from(!ok);
        }
        RoundOutcome { round, failed, bytes }
    }

    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> RoundOutcome {
        let (mut engine, register_us) = self.ready.take().unwrap_or_else(|| self.engine());
        let n = self.ops_per_round();
        let (mut lat_ms, mut failed, mut bytes) = (Vec::with_capacity(n), 0u64, 0u64);
        let (mut shared, mut updates_total) = (0usize, 0usize);
        let mut pairing = PairingCounts::default();
        let wall = Instant::now();
        for h in 0..n {
            let id = h as u64;
            let (Some(block), Some(indexed)) =
                (self.chain.sp.store().block(id), self.chain.sp.indexed().get(h))
            else {
                failed += 1;
                continue;
            };
            let op = tr.open("op", None, id);
            let matched =
                tr.time("subscribe.match", Some(op), id, || engine.match_block(block, indexed));
            shared += matched.shared_proofs();
            let updates: Vec<SubscriptionUpdate<Acc2>> =
                tr.time("subscribe.publish", Some(op), id, || engine.publish(matched, indexed));
            let encoded: Vec<Vec<u8>> = tr.time("subscribe.encode", Some(op), id, || {
                updates.iter().map(wire::encode_update).collect()
            });
            let before = PairingCounts::now();
            let verified =
                tr.time("subscribe.verify_update", Some(op), id, || self.verify(&encoded));
            pairing.add_since(before);
            tr.close(op);
            lat_ms.push(tr.duration_ms(op));

            updates_total += updates.len();
            bytes += encoded.iter().map(Vec::len).sum::<usize>() as u64;
            failed += u64::from(!self.check(h, verified));
        }
        let wall_s = wall.elapsed().as_secs_f64();

        // A fresh engine's cache counters start at zero: its misses are the
        // proofs this round computed.
        let proofs = engine.proof_cache().stats().misses as usize;
        let match_ms = tr.per_op_ms("subscribe.match", n);
        layers.set("subscribe.register_us_per_query", register_us, self.subscriptions.len());
        layers.set("subscribe.match_ms", match_ms, n);
        layers.set("subscribe.publish_ms", tr.per_op_ms("subscribe.publish", n), n);
        layers.set("subscribe.encode_ms", tr.per_op_ms("subscribe.encode", n), n);
        layers.set("subscribe.verify_update_ms", tr.per_op_ms("subscribe.verify_update", n), n);
        layers.set_mean("subscribe.proofs_per_block", proofs as f64, n);
        layers.set_mean("subscribe.shared_proofs_per_block", shared as f64, n);
        layers.set_mean("subscribe.updates_per_block", updates_total as f64, n);
        // Matching a fresh block is proving: price one proof from it.
        layers.set_mean("accumulator.prove_us_per_proof", match_ms * n as f64 * 1e3, proofs);
        layers.set_pairing(pairing, n);
        RoundOutcome { round: Round { lat_ms, wall_s }, failed, bytes }
    }
}
