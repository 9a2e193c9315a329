//! `mine_ingest` — the full node's budget per block: `Miner::mine_block`
//! under the honest accumulator set-up (no trapdoor), then the light client
//! syncing the new header. Every header must validate.
//!
//! Shape: a fresh miner and light client per round, 400 blocks per round,
//! one thread. `bytes_per_op` is the ADS a block carries (Table 1's "S").
//! The accumulator and the comb tables are used here through `setup`, not
//! `prove`: a multiexp change tuned for proving that costs mining shows.

use std::time::Instant;

use vchain_chain::{mine_nonce, BlockHeader, LightClient, Object};
use vchain_core::inter::SkipList;
use vchain_core::intra::IntraTree;
use vchain_core::miner::Miner;

use super::{timed_ops, Bench, Config, Fixture, Layers, PairingCounts, RoundOutcome};
use crate::stats::Round;
use crate::trace::Tracer;

pub struct MineIngest {
    fx: Fixture,
}

impl MineIngest {
    fn fresh(&self) -> (Miner<vchain_acc::Acc2>, LightClient) {
        (Miner::new(self.fx.cfg, self.fx.acc.clone()), LightClient::new(self.fx.cfg.difficulty))
    }

    fn blocks(&self) -> Vec<(u64, Vec<Object>)> {
        self.fx.data.blocks.clone()
    }
}

/// Total ADS bytes of the mined blocks.
fn ads_bytes(miner: &Miner<vchain_acc::Acc2>) -> u64 {
    miner.indexed().iter().map(|b| b.ads_size_bytes(&miner.acc) as u64).sum()
}

fn header_of(miner: &Miner<vchain_acc::Acc2>, height: u64) -> Option<BlockHeader> {
    miner.store().block(height).map(|b| b.header.clone())
}

impl Bench for MineIngest {
    const NAME: &'static str = "mine_ingest";

    fn setup(cfg: &Config) -> Result<Self, String> {
        // No chain is built in set-up: building it is the op.
        Ok(Self { fx: Fixture::new(cfg, cfg.scale.pick(400, 12))? })
    }

    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![("threads", "1".into()), ("accumulator_setup", "honest".into())]
    }

    fn ops_per_round(&self) -> usize {
        self.fx.data.blocks.len()
    }

    fn round(&mut self) -> RoundOutcome {
        let (mut miner, mut light) = self.fresh();
        let mut blocks = self.blocks().into_iter();
        let (round, outs) = timed_ops(blocks.len(), |_| {
            let (ts, objs) = blocks.next()?;
            let height = miner.mine_block(ts, objs);
            light.sync_header(header_of(&miner, height)?).ok()
        });
        let failed = outs.iter().filter(|o| o.is_none()).count() as u64;
        RoundOutcome { round, failed, bytes: ads_bytes(&miner) }
    }

    /// `mine_block` cannot be entered from outside, so its parts are timed
    /// as probes on the same inputs just before the real call: the intra
    /// index build, the skip-list build over the miner's history, and the
    /// proof-of-work search. What `mine_block` takes beyond their sum is
    /// `miner.other_ms`.
    fn traced_round(&mut self, tr: &mut Tracer, layers: &mut Layers) -> RoundOutcome {
        let (mut miner, mut light) = self.fresh();
        let cfg = self.fx.cfg;
        let blocks = self.blocks();
        let n = blocks.len();
        let (mut lat_ms, mut failed) = (Vec::with_capacity(n), 0u64);
        let mut pairing = PairingCounts::default();
        let wall = Instant::now();
        for (i, (ts, objs)) in blocks.into_iter().enumerate() {
            let id = i as u64;
            let tree = tr.time("intra.build", None, id, || {
                IntraTree::build_clustered(&objs, &miner.acc, cfg.domain_bits)
            });
            let skiplist = tr.time("inter.skiplist_build", None, id, || {
                SkipList::build(miner.history(), cfg.skip_levels, &miner.acc)
            });
            let prev = miner.store().tip_hash();
            tr.time("chain.pow", None, id, || {
                mine_nonce(&prev, ts, &tree.root_hash(), &skiplist.root(), cfg.difficulty)
            });

            let before = PairingCounts::now();
            let op = tr.open("op", None, id);
            let height = tr.time("miner.mine_block", Some(op), id, || miner.mine_block(ts, objs));
            let synced = tr.time("chain.sync_header", Some(op), id, || {
                header_of(&miner, height).and_then(|h| light.sync_header(h).ok())
            });
            tr.close(op);
            pairing.add_since(before);
            lat_ms.push(tr.duration_ms(op));
            failed += u64::from(synced.is_none());
        }
        let wall_s = wall.elapsed().as_secs_f64();

        let parts =
            ["intra.build", "inter.skiplist_build", "chain.pow"].map(|s| tr.per_op_ms(s, n));
        let mine = tr.per_op_ms("miner.mine_block", n);
        layers.set("intra.build_ms", parts[0], n);
        layers.set("inter.skiplist_build_ms", parts[1], n);
        layers.set("chain.pow_ms", parts[2], n);
        layers.set("chain.sync_header_us", tr.per_op_ms("chain.sync_header", n) * 1e3, n);
        layers.set("miner.other_ms", (mine - parts.iter().sum::<f64>()).max(0.0), n);
        layers.set_pairing(pairing, n);
        // In this workload the chain build is the measured op, not set-up.
        layers.set("miner.build_chain_ms", mine * n as f64, 1);
        RoundOutcome { round: Round { lat_ms, wall_s }, failed, bytes: ads_bytes(&miner) }
    }
}
