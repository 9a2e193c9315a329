//! The five workloads and the protocol that runs them.
//!
//! Every workload is: set-up (timed as `setup_s`, outside any op), then
//! identical rounds — the same op sequence each time, state reset as the
//! workload states — with per-op latency recorded per round. Timing metrics
//! are the best round's value ([`crate::stats`]). Load is closed-loop, one
//! process, at most two client threads.
//!
//! `--seed` feeds `vchain_datagen` only; the program under test sees the
//! generated inputs. Every answer is checked against a brute-force filter
//! over the raw generated objects, and a failed or wrong op is *counted*
//! (`failed`), never thrown.

mod mine_ingest;
mod serve;
mod subscribe_stream;
mod window_e2e;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::{Acc2, AccElem};
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{object_multiset, CompiledQuery};
use vchain_core::sp::ServiceProvider;
use vchain_core::vo::{BlockCoverage, QueryResponse, VoNode};
use vchain_datagen::{Dataset, Workload, WorkloadSpec};

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{self, Round};
use crate::trace::Tracer;

pub use mine_ingest::MineIngest;
pub use serve::{ServeChurn, ServeHot};
pub use subscribe_stream::SubscribeStream;
pub use window_e2e::WindowE2e;

/// `full` is what the numbers are recorded at; `tiny` is the same code on a
/// few ops, for the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Measuring budget for the rounds of one run.
    pub seconds: f64,
    pub scale: Scale,
    /// Scratch space for store directories; removed by its owner on exit.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
    /// Fault injection for the test suite: flip one byte of this op's
    /// `window_e2e` stream between the SP and the client.
    pub flip_byte_in_op: Option<usize>,
}

/// Window length and slide of the time-window queries, in blocks.
const WINDOW_BLOCKS: usize = 16;
const WINDOW_SLIDE: usize = 7;
/// Client threads of the serving workloads: `nproc` on the reference box.
pub const SERVE_THREADS: usize = 2;
/// Restart cycles of a workload that has restartable state; the best one is
/// reported.
const RESTART_CYCLES: usize = 3;
/// Rounds per run: at least two so a best round exists, at most this many.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 12;

/// Independent generator seeds from the one `--seed` (splitmix64 step), so
/// the chain, the query stream and the subscriptions do not share a stream.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How long the shared set-up steps took, in ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub keygen_ms: f64,
    pub datagen_ms: f64,
    pub build_chain_ms: f64,
}

/// The fixed fixture: Construction-2 key, a generated 4SQ block stream, and
/// the public chain parameters.
pub struct Fixture {
    pub acc: Acc2,
    pub data: Workload,
    pub cfg: MinerConfig,
    pub times: SetupTimes,
}

/// A mined chain: the SP holding it and a light client synced to it.
pub struct Chain {
    pub sp: ServiceProvider<Acc2>,
    pub light: LightClient,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Fixture {
    /// Keygen + datagen. The key is honest (no trapdoor fast path): a light
    /// client has no trapdoor, and honest `setup` is also what miners pay.
    pub fn new(cfg: &Config, blocks: usize) -> Result<Self, String> {
        let t0 = Instant::now();
        // Universe bound of the key; the tiny scale keeps the test suite
        // quick. The dictionary check below holds for both.
        let universe = cfg.scale.pick(8192, 2048);
        let acc = Acc2::keygen(universe, &mut StdRng::seed_from_u64(0xACC2));
        let keygen_ms = ms_since(t0);

        let t0 = Instant::now();
        let mut spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, blocks);
        spec.seed = sub_seed(cfg.seed, 0);
        let data = spec.generate();
        let datagen_ms = ms_since(t0);

        // The interned element dictionary must stay inside the key's
        // universe, or `setup` cannot accumulate a block. If this fires,
        // enlarge the key, do not shrink the chain.
        let max_index = data
            .blocks
            .iter()
            .flat_map(|(_, objs)| objs)
            .flat_map(|o| {
                object_multiset(o, spec.domain_bits).elements().map(|e| e.to_index()).max()
            })
            .max()
            .unwrap_or(0);
        if max_index >= universe {
            return Err(format!(
                "element dictionary index {max_index} outside the key's universe {universe}"
            ));
        }

        let miner_cfg = MinerConfig {
            scheme: IndexScheme::Both,
            skip_levels: 4,
            domain_bits: spec.domain_bits,
            difficulty: Difficulty(1),
            bloom_bits_per_key: 10,
        };
        Ok(Self {
            acc,
            data,
            cfg: miner_cfg,
            times: SetupTimes { keygen_ms, datagen_ms, build_chain_ms: 0.0 },
        })
    }

    /// Mine the whole block stream and sync a light client to it.
    pub fn mine(&self) -> Result<Chain, String> {
        let mut miner = Miner::new(self.cfg, self.acc.clone());
        for (ts, objs) in &self.data.blocks {
            miner.mine_block(*ts, objs.clone());
        }
        let mut light = LightClient::new(self.cfg.difficulty);
        for h in miner.headers() {
            light.sync_header(h).map_err(|e| format!("mined header rejected: {e:?}"))?;
        }
        Ok(Chain { sp: miner.into_service_provider(), light })
    }

    /// [`Fixture::mine`], timed into `times.build_chain_ms`.
    pub fn mine_timed(&mut self) -> Result<Chain, String> {
        let t0 = Instant::now();
        let chain = self.mine()?;
        self.times.build_chain_ms = ms_since(t0);
        Ok(chain)
    }

    /// `n` distinct time-window queries from the chain's own keyword and
    /// range distributions: 16-block windows sliding by 7 blocks.
    pub fn window_queries(&self, n: usize, seed: u64) -> Vec<CompiledQuery> {
        let blocks = &self.data.blocks;
        let len = WINDOW_BLOCKS.min(blocks.len());
        let starts = blocks.len() - len + 1;
        let mut gen = self.data.spec.query_gen(seed);
        (0..n)
            .map(|i| {
                let s = (i * WINDOW_SLIDE) % starts;
                gen.time_window((blocks[s].0, blocks[s + len - 1].0))
                    .compile(self.data.spec.domain_bits)
            })
            .collect()
    }

    /// The brute-force oracle: every raw generated object the query selects,
    /// by id. Independent of every index, proof and codec under test.
    pub fn oracle(&self, q: &CompiledQuery) -> Vec<Object> {
        let mut hits: Vec<Object> = self
            .data
            .blocks
            .iter()
            .flat_map(|(_, objs)| objs)
            .filter(|o| q.in_window(o.timestamp) && q.object_matches(o))
            .cloned()
            .collect();
        hits.sort_by_key(|o| o.id);
        hits
    }
}

/// Does a verified (or claimed) result set equal the oracle's?
pub fn same_objects(mut got: Vec<Object>, want: &[Object]) -> bool {
    got.sort_by_key(|o| o.id);
    got == want
}

/// Shape of the VOs of a round's responses, from a walk over the public
/// tree: accumulated with [`VoShape::add`], reported per op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VoShape {
    pub nodes: usize,
    pub blocks: u64,
    pub skipped_blocks: u64,
    pub results: usize,
}

impl VoShape {
    pub fn add(&mut self, resp: &QueryResponse<Acc2>) {
        fn nodes(n: &VoNode<Acc2>) -> usize {
            match n {
                VoNode::Internal { left, right, .. } => 1 + nodes(left) + nodes(right),
                _ => 1,
            }
        }
        for cov in &resp.coverage {
            match cov {
                BlockCoverage::Block { vo, .. } => {
                    self.nodes += nodes(&vo.root);
                    self.blocks += 1;
                }
                BlockCoverage::Skip { distance, .. } => {
                    self.blocks += distance;
                    self.skipped_blocks += distance;
                }
            }
        }
        self.results += resp.result_count();
    }
}

/// Operation counts of the pairing layer on this thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairingCounts {
    pub miller_loops: u64,
    pub final_exps: u64,
    pub field_inversions: u64,
}

impl PairingCounts {
    pub fn now() -> Self {
        use vchain_pairing::stats;
        Self {
            miller_loops: stats::miller_loops(),
            final_exps: stats::final_exps(),
            field_inversions: stats::field_inversions(),
        }
    }

    pub fn add_since(&mut self, earlier: PairingCounts) {
        let now = Self::now();
        self.miller_loops += now.miller_loops - earlier.miller_loops;
        self.final_exps += now.final_exps - earlier.final_exps;
        self.field_inversions += now.field_inversions - earlier.field_inversions;
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// What one round produced.
pub struct RoundOutcome {
    pub round: Round,
    /// Ops that returned an error or a wrong answer.
    pub failed: u64,
    /// Bytes that crossed the wire (or, for mining, that the blocks carry).
    pub bytes: u64,
}

/// Per-layer values a traced round produced: name → (value, sample count).
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(crate::catalog::per_layer(name).is_some(), "unknown layer metric {name}");
        self.0.insert(name, (value, samples));
    }

    /// `total ÷ n`, recorded with `n` samples (0 when there were none).
    pub fn set_mean(&mut self, name: &'static str, total: f64, n: usize) {
        self.set(name, if n == 0 { 0.0 } else { total / n as f64 }, n);
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0.get(name).copied()
    }

    /// The pairing layer's operation counts over `ops` ops.
    pub fn set_pairing(&mut self, counts: PairingCounts, ops: usize) {
        self.set_mean("pairing.miller_loops_per_op", counts.miller_loops as f64, ops);
        self.set_mean("pairing.final_exps_per_op", counts.final_exps as f64, ops);
        self.set_mean("pairing.field_inversions_per_op", counts.field_inversions as f64, ops);
    }

    /// The shape of the VOs of `ops` responses.
    pub fn set_vo_shape(&mut self, shape: VoShape, ops: usize) {
        self.set_mean("sp.skip_block_ratio", shape.skipped_blocks as f64, shape.blocks as usize);
        self.set_mean("sp.vo_nodes_per_op", shape.nodes as f64, ops);
        self.set_mean("sp.results_per_op", shape.results as f64, ops);
    }
}

/// One workload. `round` is the measured path and never sees a tracer;
/// `traced_round` runs the same ops decomposed through lower-level public
/// functions, with a span around each call into a layer.
pub trait Bench: Sized {
    const NAME: &'static str;

    fn setup(cfg: &Config) -> Result<Self, String>;
    fn fixture(&self) -> &Fixture;
    /// Shape of the run, echoed in the output header.
    fn describe(&self) -> Vec<(&'static str, String)>;
    fn ops_per_round(&self) -> usize;
    fn round(&mut self) -> RoundOutcome;
    fn traced_round(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> RoundOutcome;
    /// One restart cycle, after the rounds: its duration in seconds, and
    /// whether the restarted component answered correctly. `None` for a
    /// workload that keeps no serving state on disk: restarting it is setting
    /// it up again, and its `restart_s` is its `setup_s`.
    fn restart(&mut self) -> Result<Option<(f64, bool)>, String> {
        Ok(None)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value: ops per round for a percentile, rounds or
    /// cycles for a best-of, calls for a mean.
    pub samples: usize,
    /// Set when the round has too few ops to support the percentile the
    /// metric is named after: the lower percentile the value really is.
    pub percentile_used: Option<u32>,
    /// A remark for the printed report.
    pub note: &'static str,
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub header: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run):
    /// every name of the respective catalogue, in catalogue order.
    pub metrics: Vec<Metric>,
    /// `median round wall ÷ best round wall − 1` over this run's untraced
    /// rounds; a traced run also reports it as `bench.round_spread_ratio`.
    pub round_spread_ratio: f64,
    /// The layer table of a traced run.
    pub layer_table: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Run rounds until the budget is spent, but at least `min_rounds`.
fn measure<B: Bench>(
    bench: &mut B,
    cfg: &Config,
    budget_s: f64,
    min_rounds: usize,
) -> (Vec<Round>, u64, u64, u64) {
    let (min, max) = cfg.scale.pick((min_rounds, MAX_ROUNDS), (1, 1));
    let started = Instant::now();
    let (mut rounds, mut attempted, mut failed, mut bytes) = (Vec::new(), 0u64, 0u64, 0u64);
    // A round is started only if one more like the last fits the budget.
    let mut last_wall = 0.0;
    while rounds.len() < min
        || (rounds.len() < max && started.elapsed().as_secs_f64() + last_wall <= budget_s)
    {
        let out = bench.round();
        last_wall = out.round.wall_s;
        attempted += out.round.lat_ms.len() as u64;
        failed += out.failed;
        bytes += out.bytes;
        rounds.push(out.round);
    }
    (rounds, attempted, failed, bytes)
}

fn header<B: Bench>(bench: &B, cfg: &Config, rounds: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut h = vec![
        ("workload", B::NAME.to_string()),
        ("seed", cfg.seed.to_string()),
        ("scale", format!("{:?}", cfg.scale).to_lowercase()),
        ("nproc", nproc.to_string()),
        ("rounds", rounds.to_string()),
        ("ops_per_round", bench.ops_per_round().to_string()),
    ];
    h.extend(bench.describe());
    h
}

/// The untraced run: set-up, rounds, restart cycles → end-to-end metrics.
pub fn run_end_to_end<B: Bench>(cfg: &Config) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut bench = B::setup(cfg)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let (rounds, ops_done, mut failed, bytes) = measure(&mut bench, cfg, cfg.seconds, MIN_ROUNDS);
    let mut restarts = Vec::new();
    for _ in 0..cfg.scale.pick(RESTART_CYCLES, 1) {
        let Some((seconds, ok)) = bench.restart()? else { break };
        restarts.push(seconds);
        failed += u64::from(!ok);
    }
    let attempted = ops_done + restarts.len() as u64;

    let ops = bench.ops_per_round();
    let mut metrics = Vec::new();
    for def in END_TO_END {
        let mut metric = Metric { name: def.name, unit: def.unit, ..Metric::default() };
        let mut percentile = |p: u32| {
            let (v, used, n) = stats::best_percentile(&rounds, p).ok_or("no samples")?;
            metric.percentile_used = (used != p).then_some(used);
            Ok::<_, String>((v, n))
        };
        (metric.value, metric.samples) = match def.name {
            "setup_s" => (setup_s, 1),
            "op_ms_p50" => percentile(50)?,
            "op_ms_p90" => percentile(90)?,
            "op_ms_p99" => percentile(99)?,
            "ops_per_s" => (
                stats::best(rounds.iter().map(Round::ops_per_s), Better::Higher)
                    .ok_or("no rounds")?,
                rounds.len(),
            ),
            "bytes_per_op" => (bytes as f64 / ops_done.max(1) as f64, ops),
            "restart_s" => match stats::best(restarts.iter().copied(), Better::Lower) {
                Some(best) => (best, restarts.len()),
                None => {
                    metric.note = "no serving state on disk: a restart is the set-up again";
                    (setup_s, 1)
                }
            },
            other => return Err(format!("end-to-end metric {other} has no measurement")),
        };
        metrics.push(metric);
    }
    Ok(Report {
        workload: B::NAME,
        traced: false,
        header: header(&bench, cfg, rounds.len()),
        attempted,
        failed,
        metrics,
        round_spread_ratio: stats::round_spread_ratio(&rounds),
        layer_table: None,
    })
}

/// The traced run: calibration probes, one traced round, then untraced
/// rounds for the rest of the budget (at least one: they give the overhead
/// and spread readings), probes again → per-layer metrics. Spans are written
/// at exit.
pub fn run_traced<B: Bench>(cfg: &Config) -> Result<Report, String> {
    let mut bench = B::setup(cfg)?;
    let calib_before = probes::calibrate();
    let probe = probes::run(&bench.fixture().acc);

    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let traced = bench.traced_round(&mut tracer, &mut layers);
    let budget = (cfg.seconds - started.elapsed().as_secs_f64()).max(0.0);
    let (rounds, attempted, failed, _) = measure(&mut bench, cfg, budget, 1);
    let calib_after = probes::calibrate();

    let times = bench.fixture().times;
    layers.set("datagen.generate_ms", times.datagen_ms, 1);
    layers.set("accumulator.keygen_ms", times.keygen_ms, 1);
    // `mine_ingest` builds no chain in set-up (and reports its own reading).
    if times.build_chain_ms > 0.0 {
        layers.set("miner.build_chain_ms", times.build_chain_ms, 1);
    }
    for (name, v) in [
        ("accumulator.acc2_prove_cold_us", probe.acc2_prove_cold_us),
        ("accumulator.acc2_verify_us", probe.acc2_verify_us),
        ("pairing.pairing_us", probe.pairing_us),
        ("pairing.miller_loop_us", probe.miller_loop_us),
        ("pairing.final_exp_us", probe.final_exp_us),
        ("pairing.g1_decode_checked_us", probe.g1_decode_checked_us),
        ("pairing.g2_decode_checked_us", probe.g2_decode_checked_us),
        ("pairing.fp12_mul_ns", probe.fp12_mul_ns),
    ] {
        layers.set(name, v, 1);
    }

    let traced_p50 = stats::percentile(&traced.round.sorted(), 50).ok_or("empty traced round")?;
    let (plain_p50, _, _) = stats::best_percentile(&rounds, 50).ok_or("no untraced round")?;
    layers.set("bench.trace_overhead_ratio", traced_p50 / plain_p50 - 1.0, 1);
    layers.set("bench.span_residual_ratio", tracer.residual_ratio("op"), traced.round.lat_ms.len());
    let round_spread_ratio = stats::round_spread_ratio(&rounds);
    layers.set("bench.round_spread_ratio", round_spread_ratio, rounds.len());
    layers.set("bench.calib_drift_ratio", (calib_after / calib_before - 1.0).abs(), 2);

    let path = cfg.trace_dir.join(format!("trace-{}.json", B::NAME));
    tracer.write(&path, B::NAME, cfg.seed).map_err(|e| format!("write {}: {e}", path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let (value, samples) = layers.get(def.name).unwrap_or((0.0, 0));
            Metric { name: def.name, unit: def.unit, value, samples, ..Metric::default() }
        })
        .collect();
    let ops = traced.round.lat_ms.len();
    let mut h = header(&bench, cfg, rounds.len());
    h.push(("trace_file", path.display().to_string()));
    Ok(Report {
        workload: B::NAME,
        traced: true,
        header: h,
        attempted: attempted + ops as u64,
        failed: failed + traced.failed,
        metrics,
        round_spread_ratio,
        layer_table: Some(tracer.layer_table("op", ops)),
    })
}

/// Run the workload called `name`, traced or not.
pub fn run_named(name: &str, cfg: &Config, traced: bool) -> Result<Report, String> {
    fn go<B: Bench>(cfg: &Config, traced: bool) -> Result<Report, String> {
        if traced {
            run_traced::<B>(cfg)
        } else {
            run_end_to_end::<B>(cfg)
        }
    }
    match name {
        WindowE2e::NAME => go::<WindowE2e>(cfg, traced),
        ServeHot::NAME => go::<ServeHot>(cfg, traced),
        ServeChurn::NAME => go::<ServeChurn>(cfg, traced),
        MineIngest::NAME => go::<MineIngest>(cfg, traced),
        SubscribeStream::NAME => go::<SubscribeStream>(cfg, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Time `op(i)` for `i in 0..ops` on this thread; outputs are kept so the
/// caller checks them after the clock has stopped.
pub fn timed_ops<T>(ops: usize, mut op: impl FnMut(usize) -> T) -> (Round, Vec<T>) {
    let mut lat_ms = Vec::with_capacity(ops);
    let mut outs = Vec::with_capacity(ops);
    let wall = Instant::now();
    for i in 0..ops {
        let t0 = Instant::now();
        let out = op(i);
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        outs.push(out);
    }
    (Round { lat_ms, wall_s: wall.elapsed().as_secs_f64() }, outs)
}
