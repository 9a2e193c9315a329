//! Regenerates every table and figure of the vChain paper's evaluation
//! (§9 and Appendix D) at a documented, reduced scale.
//!
//! ```text
//! experiments <exp-id> [...]      # table1 fig9 fig10 … fig22, or `all`
//! VCHAIN_SCALE=std experiments …  # larger scale used for EXPERIMENTS.md
//! ```

use std::time::Duration;

use vchain_acc::Accumulator;
use vchain_bench::report::{kb, secs, table};
use vchain_bench::{
    build_chain, compile_all, run_query, shared_acc1, shared_acc2, timed, QueryMetrics, Scale,
};
use vchain_chain::{Difficulty, LightClient};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::Query;
use vchain_core::subscribe::{
    verify_subscription_update, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate,
};
use vchain_core::wire::encode_update;
use vchain_datagen::{Dataset, MhtBaseline, Workload, WorkloadSpec};

/// Is `arg` an experiment this binary can run: `table1`, `fig9` … `fig22`,
/// or `all`?
fn known_experiment(arg: &str) -> bool {
    arg == "all" || arg == "table1" || (9..=22).any(|n| arg == format!("fig{n}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.iter().all(|a| known_experiment(a)) {
        eprintln!(
            "usage: experiments <table1|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|fig21|fig22|all>"
        );
        std::process::exit(2);
    }
    let scale = Scale::from_env();
    println!("# vChain experiment harness (scale = {scale:?})");
    let all = args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        table1(scale);
    }
    for (fig, ds) in [(9, Dataset::FourSquare), (10, Dataset::Weather), (11, Dataset::Ethereum)] {
        if want(&format!("fig{fig}")) {
            fig_time_window(fig, ds, scale);
        }
    }
    if want("fig12") {
        fig12(scale);
    }
    for (fig, ds) in [(13, Dataset::FourSquare), (14, Dataset::Weather), (15, Dataset::Ethereum)] {
        if want(&format!("fig{fig}")) {
            fig_subscription_period(fig, ds, scale);
        }
    }
    if want("fig16") {
        fig16(scale);
    }
    for (fig, ds) in [(17, Dataset::FourSquare), (18, Dataset::Weather), (19, Dataset::Ethereum)] {
        if want(&format!("fig{fig}")) {
            fig_selectivity(fig, ds, scale);
        }
    }
    for (fig, ds) in [(20, Dataset::FourSquare), (21, Dataset::Weather), (22, Dataset::Ethereum)] {
        if want(&format!("fig{fig}")) {
            fig_skiplist(fig, ds, scale);
        }
    }
}

fn ds_name(ds: Dataset) -> &'static str {
    match ds {
        Dataset::FourSquare => "4SQ",
        Dataset::Weather => "WX",
        Dataset::Ethereum => "ETH",
    }
}

fn schemes() -> [(IndexScheme, &'static str); 3] {
    [(IndexScheme::Nil, "nil"), (IndexScheme::Intra, "intra"), (IndexScheme::Both, "both")]
}

// ---------------------------------------------------------------- Table 1

/// Miner's setup cost: honest (public-key-only) ADS construction time and
/// per-block ADS size, for nil/intra/both × acc1/acc2 × 3 datasets; plus
/// the light-node header size note of §9.1.
fn table1(scale: Scale) {
    let blocks = match scale {
        Scale::Quick => 4,
        Scale::Std => 8,
    };
    let mut rows = Vec::new();
    for ds in [Dataset::FourSquare, Dataset::Weather, Dataset::Ethereum] {
        let w = WorkloadSpec::paper_defaults(ds, blocks).generate();
        for (acc_name, honest1, honest2) in
            [("acc1", Some(shared_acc1()), None), ("acc2", None, Some(shared_acc2()))]
        {
            for (scheme, sname) in schemes() {
                let (t, s, hdr_bits) = match (&honest1, &honest2) {
                    (Some(a1), _) => measure_setup(&w, scheme, a1.clone()),
                    (_, Some(a2)) => measure_setup(&w, scheme, a2.clone()),
                    _ => unreachable!(),
                };
                rows.push(vec![
                    ds_name(ds).to_string(),
                    acc_name.to_string(),
                    sname.to_string(),
                    secs(t),
                    kb(s),
                    hdr_bits.to_string(),
                ]);
            }
        }
    }
    table(
        "Table 1: miner setup cost (T = ADS construction s/block, S = ADS KB/block) + header bits",
        &["dataset", "acc", "index", "T (s/blk)", "S (KB/blk)", "header(bits)"],
        &rows,
    );
}

fn measure_setup<A: Accumulator>(
    w: &Workload,
    scheme: IndexScheme,
    acc: A,
) -> (Duration, usize, usize) {
    let cfg = MinerConfig {
        scheme,
        skip_levels: 5,
        domain_bits: w.spec.domain_bits,
        difficulty: Difficulty(0), // isolate ADS cost from PoW search
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc);
    let (_, elapsed) = timed(|| {
        for (ts, objs) in &w.blocks {
            miner.mine_block(*ts, objs.clone());
        }
    });
    let per_block = elapsed / w.blocks.len() as u32;
    let ads_bytes: usize =
        miner.indexed().iter().map(|ib| ib.ads_size_bytes(&miner.acc)).sum::<usize>()
            / w.blocks.len();
    let hdr_bits = miner.headers().last().map(|h| h.size_bits()).unwrap_or(0);
    (per_block, ads_bytes, hdr_bits)
}

// ------------------------------------------------------------- Figs 9-11

/// Time-window query performance vs window size: six schemes
/// (nil/intra/both × acc1/acc2), three plots (SP CPU, user CPU, VO size).
fn fig_time_window(fig: u32, ds: Dataset, scale: Scale) {
    let w = WorkloadSpec::paper_defaults(ds, scale.chain_blocks()).generate();
    let mut rows = Vec::new();
    for (acc_name, kind) in [("acc1", AccKind::A1), ("acc2", AccKind::A2)] {
        for (scheme, sname) in schemes() {
            let series = kind.dispatch_window_series(&w, scheme, scale);
            for (win, m) in series {
                rows.push(vec![
                    format!("{sname}-{acc_name}"),
                    win.to_string(),
                    secs(m.sp_cpu),
                    secs(m.user_cpu),
                    kb(m.vo_bytes),
                    m.results.to_string(),
                ]);
            }
        }
    }
    table(
        &format!("Fig {fig}: time-window query performance ({})", ds_name(ds)),
        &["scheme", "window(blocks)", "SP CPU(s)", "user CPU(s)", "VO(KB)", "|R|"],
        &rows,
    );
}

/// Static dispatch between the two accumulator constructions.
#[derive(Clone, Copy)]
enum AccKind {
    A1,
    A2,
}

impl AccKind {
    fn dispatch_window_series(
        self,
        w: &Workload,
        scheme: IndexScheme,
        scale: Scale,
    ) -> Vec<(usize, QueryMetrics)> {
        match self {
            AccKind::A1 => window_series(w, scheme, scale, shared_acc1()),
            AccKind::A2 => window_series(w, scheme, scale, shared_acc2()),
        }
    }
}

fn window_series<A: Accumulator>(
    w: &Workload,
    scheme: IndexScheme,
    scale: Scale,
    acc: A,
) -> Vec<(usize, QueryMetrics)> {
    let (sp, light, cfg) = build_chain(w, scheme, 5, acc);
    scale
        .windows()
        .into_iter()
        .filter(|&win| win <= w.blocks.len())
        .map(|win| {
            let window = w.window_of_last(win);
            let mut qg = w.spec.query_gen(fig_seed(scheme, win));
            let queries: Vec<Query> =
                (0..scale.queries()).map(|_| qg.time_window(window)).collect();
            let compiled = compile_all(&queries, w.spec.domain_bits);
            let metrics: Vec<QueryMetrics> =
                compiled.iter().map(|q| run_query(&sp, &light, &cfg, q)).collect();
            (win, QueryMetrics::averaged(&metrics))
        })
        .collect()
}

fn fig_seed(scheme: IndexScheme, x: usize) -> u64 {
    (match scheme {
        IndexScheme::Nil => 1,
        IndexScheme::Intra => 2,
        IndexScheme::Both => 3,
    }) * 1000
        + x as u64
}

// ---------------------------------------------------------------- Fig 12

/// Subscription processing with/without the IP-Tree: accumulated SP CPU
/// vs number of registered queries, real-time and lazy.
fn fig12(scale: Scale) {
    for ds in [Dataset::FourSquare, Dataset::Weather, Dataset::Ethereum] {
        let blocks = match scale {
            Scale::Quick => 8,
            Scale::Std => 16,
        };
        let w = WorkloadSpec::paper_defaults(ds, blocks).generate();
        let mut rows = Vec::new();
        for n in scale.query_counts() {
            for (mode, mname) in
                [(SubscriptionMode::Realtime, "real"), (SubscriptionMode::Lazy, "lazy")]
            {
                for (ip, ipname) in [(false, "nip"), (true, "ip")] {
                    let sp_cpu = subscription_sp_time(&w, mode, ip, n);
                    rows.push(vec![format!("{mname}-{ipname}-acc2"), n.to_string(), secs(sp_cpu)]);
                }
            }
        }
        table(
            &format!("Fig 12: subscription SP CPU vs #queries ({})", ds_name(ds)),
            &["scheme", "#queries", "accum SP CPU(s)"],
            &rows,
        );
    }
}

fn subscription_sp_time(w: &Workload, mode: SubscriptionMode, ip: bool, n: usize) -> Duration {
    let acc = shared_acc2();
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 5,
        domain_bits: w.spec.domain_bits,
        difficulty: Difficulty(1),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc.clone());
    let mut engine = SubscriptionEngine::new(cfg, acc, mode, ip);
    let mut qg = w.spec.query_gen(12_000 + n as u64);
    for _ in 0..n {
        engine.register(&qg.subscription());
    }
    let mut total = Duration::ZERO;
    for (ts, objs) in &w.blocks {
        let h = miner.mine_block(*ts, objs.clone());
        let block = miner.store().block(h).unwrap().clone();
        let indexed = miner.indexed()[h as usize].clone();
        let (_, d) = timed(|| engine.process_block(&block, &indexed));
        total += d;
    }
    total
}

// ------------------------------------------------------------- Figs 13-15

/// Real-time vs lazy subscription authentication vs subscription period:
/// accumulated SP CPU, user CPU and VO size for realtime-acc1,
/// realtime-acc2 and lazy-acc2.
fn fig_subscription_period(fig: u32, ds: Dataset, scale: Scale) {
    let mut rows = Vec::new();
    for period in scale.subscription_periods() {
        let w = WorkloadSpec::paper_defaults(ds, period).generate();
        for variant in ["realtime-acc1", "realtime-acc2", "lazy-acc2"] {
            let (sp_cpu, user_cpu, vo) = match variant {
                "realtime-acc1" => subscription_run(&w, SubscriptionMode::Realtime, shared_acc1()),
                "realtime-acc2" => subscription_run(&w, SubscriptionMode::Realtime, shared_acc2()),
                _ => subscription_run(&w, SubscriptionMode::Lazy, shared_acc2()),
            };
            rows.push(vec![
                variant.to_string(),
                period.to_string(),
                secs(sp_cpu),
                secs(user_cpu),
                kb(vo),
            ]);
        }
    }
    table(
        &format!("Fig {fig}: subscription performance vs period ({})", ds_name(ds)),
        &["scheme", "period(blocks)", "SP CPU(s)", "user CPU(s)", "VO(KB)"],
        &rows,
    );
}

fn subscription_run<A: Accumulator>(
    w: &Workload,
    mode: SubscriptionMode,
    acc: A,
) -> (Duration, Duration, usize) {
    let cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 5,
        domain_bits: w.spec.domain_bits,
        difficulty: Difficulty(1),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, acc.clone());
    let mut light = LightClient::new(cfg.difficulty);
    let mut engine = SubscriptionEngine::new(cfg, acc.clone(), mode, false);
    let mut qg = w.spec.query_gen(0xF13);
    let q = qg.subscription();
    let qid = engine.register(&q);
    let cq = q.compile(w.spec.domain_bits);

    let mut sp_cpu = Duration::ZERO;
    let mut user_cpu = Duration::ZERO;
    let mut vo_bytes = 0usize;
    let mut verify_updates = |updates: Vec<SubscriptionUpdate<A>>, light: &LightClient| {
        for u in &updates {
            vo_bytes += encode_update(u).len();
            let (_, d) = timed(|| {
                verify_subscription_update(&cq, u, light, &cfg, &acc).expect("update verifies")
            });
            user_cpu += d;
        }
    };
    for (ts, objs) in &w.blocks {
        let h = miner.mine_block(*ts, objs.clone());
        light.sync_header(miner.headers()[h as usize].clone()).unwrap();
        let block = miner.store().block(h).unwrap().clone();
        let indexed = miner.indexed()[h as usize].clone();
        let (updates, d) = timed(|| engine.process_block(&block, &indexed));
        sp_cpu += d;
        verify_updates(updates, &light);
    }
    if let Some(u) = engine.deregister(qid) {
        verify_updates(vec![u], &light);
    }
    (sp_cpu, user_cpu, vo_bytes)
}

// ---------------------------------------------------------------- Fig 16

/// Comparison with the traditional MHT baseline: per-block ADS construction
/// time and normalized block size vs dimensionality (Appendix D.1).
fn fig16(scale: Scale) {
    let dims_list = match scale {
        Scale::Quick => vec![1usize, 3, 5, 7],
        Scale::Std => vec![1, 3, 5, 7, 9],
    };
    let mut rows = Vec::new();
    for dims in dims_list {
        // WX-like numeric-only blocks (keywords removed, as in the paper)
        let mut spec = WorkloadSpec::paper_defaults(Dataset::Weather, 2);
        spec.keywords_per_object = 1; // minimal set attribute
        let w = spec.generate();
        let objects: Vec<_> = w.blocks[0]
            .1
            .iter()
            .map(|o| {
                let mut o = o.clone();
                let mut v = o.numeric.clone();
                v.resize(dims, 3);
                o.numeric = v;
                o.keywords.clear();
                o.keywords.push("wx:0".into()); // non-empty set attribute
                o
            })
            .collect();
        let raw_block_size: usize = objects
            .iter()
            .map(|o| 16 + 8 * o.numeric.len() + o.keywords.iter().map(|k| k.len()).sum::<usize>())
            .sum();

        let acc1 = shared_acc1();
        let (t1, s1) = {
            let (tree, d) = timed(|| {
                vchain_core::intra::IntraTree::build_clustered(&objects, &acc1, spec.domain_bits)
            });
            (d, tree.ads_size_bytes(&acc1))
        };
        let acc2 = shared_acc2();
        let (t2, s2) = {
            let (tree, d) = timed(|| {
                vchain_core::intra::IntraTree::build_clustered(&objects, &acc2, spec.domain_bits)
            });
            (d, tree.ads_size_bytes(&acc2))
        };
        let (mht, tm) = timed(|| MhtBaseline::build(&objects, dims));
        let sm = mht.ads_size_bytes();

        let norm = |s: usize| format!("{:.2}", 1.0 + s as f64 / raw_block_size as f64);
        rows.push(vec![
            dims.to_string(),
            secs(t1),
            secs(t2),
            secs(tm),
            norm(s1),
            norm(s2),
            norm(sm),
        ]);
    }
    table(
        "Fig 16: accumulator ADS vs MHT baseline (construction time s/block; normalized block size)",
        &["dims", "T acc1", "T acc2", "T MHT", "size acc1", "size acc2", "size MHT"],
        &rows,
    );
}

// ------------------------------------------------------------- Figs 17-19

/// Impact of the numeric-range selectivity (10%–50%), `both` scheme.
fn fig_selectivity(fig: u32, ds: Dataset, scale: Scale) {
    let w = WorkloadSpec::paper_defaults(ds, scale.chain_blocks()).generate();
    let win = *scale.windows().last().unwrap();
    let window = w.window_of_last(win.min(w.blocks.len()));
    let mut rows = Vec::new();
    for sel_pct in [10u32, 20, 30, 40, 50] {
        for (acc_name, kind) in [("acc1", AccKind::A1), ("acc2", AccKind::A2)] {
            let m = match kind {
                AccKind::A1 => selectivity_point(&w, window, sel_pct, scale, shared_acc1()),
                AccKind::A2 => selectivity_point(&w, window, sel_pct, scale, shared_acc2()),
            };
            rows.push(vec![
                acc_name.to_string(),
                format!("{sel_pct}%"),
                secs(m.sp_cpu),
                secs(m.user_cpu),
                kb(m.vo_bytes),
                m.results.to_string(),
            ]);
        }
    }
    table(
        &format!("Fig {fig}: impact of range selectivity ({}, both-index)", ds_name(ds)),
        &["acc", "selectivity", "SP CPU(s)", "user CPU(s)", "VO(KB)", "|R|"],
        &rows,
    );
}

fn selectivity_point<A: Accumulator>(
    w: &Workload,
    window: (u64, u64),
    sel_pct: u32,
    scale: Scale,
    acc: A,
) -> QueryMetrics {
    let (sp, light, cfg) = build_chain(w, IndexScheme::Both, 5, acc);
    let mut qg = w.spec.query_gen(17_000 + sel_pct as u64);
    let queries: Vec<Query> = (0..scale.queries())
        .map(|_| qg.with_params(Some(window), sel_pct as f64 / 100.0, w.spec.bool_size))
        .collect();
    let compiled = compile_all(&queries, w.spec.domain_bits);
    let metrics: Vec<QueryMetrics> =
        compiled.iter().map(|q| run_query(&sp, &light, &cfg, q)).collect();
    QueryMetrics::averaged(&metrics)
}

// ------------------------------------------------------------- Figs 20-22

/// Impact of the skip-list size (0 = intra only, 1, 3, 5).
fn fig_skiplist(fig: u32, ds: Dataset, scale: Scale) {
    let w = WorkloadSpec::paper_defaults(ds, scale.chain_blocks()).generate();
    let win = *scale.windows().last().unwrap();
    let window = w.window_of_last(win.min(w.blocks.len()));
    let mut rows = Vec::new();
    for levels in [0u8, 1, 3, 5] {
        for (acc_name, kind) in [("acc1", AccKind::A1), ("acc2", AccKind::A2)] {
            let m = match kind {
                AccKind::A1 => skiplist_point(&w, window, levels, scale, shared_acc1()),
                AccKind::A2 => skiplist_point(&w, window, levels, scale, shared_acc2()),
            };
            rows.push(vec![
                acc_name.to_string(),
                format!("{levels} (max jump {})", if levels == 0 { 0 } else { 1u64 << levels }),
                secs(m.sp_cpu),
                secs(m.user_cpu),
                kb(m.vo_bytes),
            ]);
        }
    }
    table(
        &format!("Fig {fig}: impact of SkipList size ({})", ds_name(ds)),
        &["acc", "skip levels", "SP CPU(s)", "user CPU(s)", "VO(KB)"],
        &rows,
    );
}

fn skiplist_point<A: Accumulator>(
    w: &Workload,
    window: (u64, u64),
    levels: u8,
    scale: Scale,
    acc: A,
) -> QueryMetrics {
    let scheme = if levels == 0 { IndexScheme::Intra } else { IndexScheme::Both };
    let (sp, light, cfg) = build_chain(w, scheme, levels.max(1), acc);
    let mut qg = w.spec.query_gen(20_000 + levels as u64);
    let queries: Vec<Query> = (0..scale.queries()).map(|_| qg.time_window(window)).collect();
    let compiled = compile_all(&queries, w.spec.domain_bits);
    let metrics: Vec<QueryMetrics> =
        compiled.iter().map(|q| run_query(&sp, &light, &cfg, q)).collect();
    QueryMetrics::averaged(&metrics)
}
