//! Shared harness for the vChain experiments: chain construction per
//! (dataset × scheme × accumulator), wall-clock metering, and plain-text
//! table/series printing matching the paper's figures.
//!
//! Which harness answers which question (`docs/BENCHMARKS.md`): `vbench`
//! measures the system end to end and layer by layer; `bench_smoke` +
//! [`check`] pin the primitives and the same-run reference twins; the
//! `experiments` binary regenerates the paper's tables.

pub mod check;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::{Acc1, Acc2, Accumulator};
use vchain_chain::{Difficulty, LightClient};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query};
use vchain_core::sp::ServiceProvider;
use vchain_core::verify::verify_response;
use vchain_core::vo::QueryResponse;
use vchain_core::wire::encode_response_v2;
use vchain_datagen::Workload;

/// Capacity of the shared Construction-1 key: the largest characteristic
/// polynomial `experiments` commits is a skip entry's multiset sum — WX, 32
/// block roots, 18 995 elements at `std` scale (9 366 at `quick`, 16 blocks);
/// `tests::acc1_capacity_covers_every_skip_entry` recomputes it.
pub const ACC1_CAPACITY: usize = 1 << 15;
/// Universe bound of the shared Construction-2 key (max interned element
/// dictionary index + margin).
pub const ACC2_UNIVERSE: u64 = 8192;

static SHARED_ACC1: OnceLock<Acc1> = OnceLock::new();
static SHARED_ACC2: OnceLock<Acc2> = OnceLock::new();

/// Process-wide Construction-1 key (honest setup: the handle holds public
/// parameters only).
pub fn shared_acc1() -> Acc1 {
    SHARED_ACC1
        .get_or_init(|| {
            eprintln!("[setup] generating acc1 public key (capacity {ACC1_CAPACITY})…");
            Acc1::keygen(ACC1_CAPACITY, &mut StdRng::seed_from_u64(0xACC1))
        })
        .clone()
}

/// Process-wide Construction-2 key.
pub fn shared_acc2() -> Acc2 {
    SHARED_ACC2
        .get_or_init(|| {
            eprintln!("[setup] generating acc2 public key (universe {ACC2_UNIVERSE})…");
            Acc2::keygen(ACC2_UNIVERSE, &mut StdRng::seed_from_u64(0xACC2))
        })
        .clone()
}

/// Wall-clock measurement of a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Build a chain + light client over a generated workload.
pub fn build_chain<A: Accumulator>(
    workload: &Workload,
    scheme: IndexScheme,
    skip_levels: u8,
    acc: A,
) -> (ServiceProvider<A>, LightClient, MinerConfig) {
    let cfg = MinerConfig {
        scheme,
        skip_levels,
        domain_bits: workload.spec.domain_bits,
        difficulty: Difficulty(1),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc);
    for (ts, objs) in &workload.blocks {
        miner.mine_block(*ts, objs.clone());
    }
    let mut light = LightClient::new(cfg.difficulty);
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    (miner.into_service_provider(), light, cfg)
}

/// Metrics of one time-window query run (paper's three plots).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryMetrics {
    pub sp_cpu: Duration,
    pub user_cpu: Duration,
    /// The encoded response on the wire (VO and results) — the number
    /// `vbench` reports as `bytes_per_op`.
    pub vo_bytes: usize,
    pub results: usize,
}

impl QueryMetrics {
    pub fn accumulate(&mut self, other: &QueryMetrics) {
        self.sp_cpu += other.sp_cpu;
        self.user_cpu += other.user_cpu;
        self.vo_bytes += other.vo_bytes;
        self.results += other.results;
    }

    pub fn averaged(metrics: &[QueryMetrics]) -> QueryMetrics {
        let n = metrics.len().max(1) as u32;
        let mut total = QueryMetrics::default();
        for m in metrics {
            total.accumulate(m);
        }
        QueryMetrics {
            sp_cpu: total.sp_cpu / n,
            user_cpu: total.user_cpu / n,
            vo_bytes: total.vo_bytes / n as usize,
            results: total.results / n as usize,
        }
    }
}

/// Execute one verified time-window query and meter both sides.
pub fn run_query<A: Accumulator>(
    sp: &ServiceProvider<A>,
    light: &LightClient,
    cfg: &MinerConfig,
    q: &CompiledQuery,
) -> QueryMetrics {
    let (resp, sp_cpu): (QueryResponse<A>, _) = timed(|| sp.time_window_query(q));
    let vo_bytes = encode_response_v2(&resp).len();
    let (verified, user_cpu) =
        timed(|| verify_response(q, &resp, light, cfg, &sp.acc).expect("honest SP must verify"));
    QueryMetrics { sp_cpu, user_cpu, vo_bytes, results: verified.len() }
}

/// Compile a batch of queries for a workload's domain.
pub fn compile_all(queries: &[Query], domain_bits: u8) -> Vec<CompiledQuery> {
    queries.iter().map(|q| q.compile(domain_bits)).collect()
}

/// Plain-text figure/table output helpers.
pub mod report {
    /// Print a table with a title, column headers and rows.
    pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let header_line: Vec<String> =
            headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
        println!("{}", header_line.join("  "));
        for row in rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    pub fn secs(d: std::time::Duration) -> String {
        format!("{:.3}", d.as_secs_f64())
    }

    pub fn kb(bytes: usize) -> String {
        format!("{:.1}", bytes as f64 / 1024.0)
    }
}

/// Experiment scale: `quick` for smoke runs, `std` for the recorded numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Std,
}

impl Scale {
    pub fn from_env() -> Self {
        match std::env::var("VCHAIN_SCALE").as_deref() {
            Ok("std") => Scale::Std,
            _ => Scale::Quick,
        }
    }

    pub fn queries(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Std => 5,
        }
    }

    pub fn chain_blocks(self) -> usize {
        match self {
            Scale::Quick => 20,
            Scale::Std => 40,
        }
    }

    pub fn windows(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2, 4, 8, 16],
            Scale::Std => vec![4, 8, 16, 24, 32],
        }
    }

    pub fn subscription_periods(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2, 4, 8],
            Scale::Std => vec![4, 8, 16, 24, 32],
        }
    }

    pub fn query_counts(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![4, 8, 16],
            Scale::Std => vec![10, 20, 40, 80],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vchain_acc::MultiSet;
    use vchain_core::query::object_multiset;
    use vchain_datagen::{Dataset, WorkloadSpec};

    /// The largest multiset `experiments` sets up under Acc1 fits the shared
    /// key, recomputed without crypto: a block root is the union of its
    /// objects' multisets, a top-level skip entry (5 levels, as every
    /// sweep's deepest) the multiset sum of 2⁵ consecutive roots.
    #[test]
    fn acc1_capacity_covers_every_skip_entry() {
        for ds in [Dataset::FourSquare, Dataset::Weather, Dataset::Ethereum] {
            let w = WorkloadSpec::paper_defaults(ds, Scale::Std.chain_blocks()).generate();
            let roots: Vec<MultiSet<_>> = w
                .blocks
                .iter()
                .map(|(_, objs)| {
                    objs.iter()
                        .map(|o| object_multiset(o, w.spec.domain_bits))
                        .fold(MultiSet::new(), |root, ms| root.union(&ms))
                })
                .collect();
            let largest = roots
                .windows(1 << 5)
                .map(|run| run.iter().fold(MultiSet::new(), |sum, root| sum.sum(root)))
                .map(|entry| entry.total_count())
                .max()
                .expect("a std chain is longer than one skip entry");
            assert!(
                largest as usize <= ACC1_CAPACITY,
                "{ds:?}: a skip entry of {largest} elements exceeds ACC1_CAPACITY"
            );
        }
    }
}
