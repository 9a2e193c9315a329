//! `vbench` — the repository's benchmark: five workloads, end-to-end
//! metrics a party to the protocol would see, and an outside-in layer trace.
//! See `README.md` beside this file for the catalogue and the protocol.
//!
//! ```text
//! vbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--check]
//! vbench --all [--seed N] [--seconds S] [--out FILE] [--check]
//! vbench --compare A.json B.json
//! vbench --describe
//! ```
//!
//! A run prints a header (seed, threads, shards, `nproc`, rounds, ops per
//! round), every metric by name with its unit and sample count, and as its
//! last line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! It reads no environment variable and imports only the product crates and
//! `rand`, so nothing outside this directory can change what is measured.

mod catalog;
mod json;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{Better, END_TO_END, WORKLOADS};
use json::Json;
use stats::valid_metric_name;
use workloads::{Config, Report, Scale};

/// Where traces, results and store directories go, relative to the working
/// directory (the benchmark writes nowhere else).
const OUT_DIR: &str = "target/vbench";

const USAGE: &str = "usage:
  vbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--check]
  vbench --all [--seed N] [--seconds S] [--scale full|tiny] [--out FILE] [--check]
  vbench --compare A.json B.json
  vbench --describe              (the definitions, as BENCHMARK.json)
workloads: window_e2e serve_hot serve_churn mine_ingest subscribe_stream";

/// Removes the run's scratch directory on every exit path, unwinding
/// included; `main` returns an `ExitCode` instead of calling `exit` so this
/// always runs.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

enum Mode {
    One { workload: String, traced: bool },
    All { out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
    Describe,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    scale: Scale,
    check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let (mut workload, mut all, mut compare, mut out) = (None, false, None, None);
    let (mut seed, mut seconds, mut scale) = (1u64, f64::from(catalog::RUN_SECONDS), Scale::Full);
    let (mut traced, mut check, mut describe) = (false, false, false);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--all" => all = true,
            "--describe" => describe = true,
            "--check" => check = true,
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--scale" => {
                scale = match value("full or tiny")?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale: unknown scale {other:?}")),
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                traced = match it.next_if(|v| !v.starts_with("--")).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (workload, all, compare, describe) {
        (Some(workload), false, None, false) => Mode::One { workload, traced },
        (None, true, None, false) => Mode::All { out },
        (None, false, Some((a, b)), false) => Mode::Compare { a, b },
        (None, false, None, true) => Mode::Describe,
        _ => return Err("give exactly one of --workload, --all, --compare, --describe".into()),
    };
    Ok(Cli { mode, seed, seconds, scale, check })
}

/// The driver's result object: one line, the last of standard output.
fn contract_json(report: &Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|m| (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])));
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_report(report: &Report) {
    let header: Vec<String> = report.header.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# vbench {}", header.join(" "));
    let kind = if report.traced { "per-layer (traced run)" } else { "end-to-end (tracing off)" };
    println!("# {kind}");
    let mut idle = Vec::new();
    for m in &report.metrics {
        assert!(valid_metric_name(m.name), "emitted metric name {:?} is invalid", m.name);
        if m.samples == 0 {
            idle.push(m.name);
            continue;
        }
        let note = match m.percentile_used {
            Some(p) => format!("  (p{p}: {} ops per round support no higher tail)", m.samples),
            None if m.note.is_empty() => String::new(),
            None => format!("  ({})", m.note),
        };
        println!("{:<34} {:>16.6} {:<6} n={}{note}", m.name, m.value, m.unit, m.samples);
    }
    if !idle.is_empty() {
        println!("# layers this workload does not call (reported as 0): {}", idle.join(" "));
    }
    println!(
        "{:<34} {:>16.6} {:<6} n={}  (failed {} of {} ops)",
        "failed_ops_ratio",
        report.failed_ops_ratio(),
        "ratio",
        report.attempted,
        report.failed,
        report.attempted
    );
    if !report.traced {
        println!(
            "{:<34} {:>16.6} {:<6}",
            "bench.round_spread_ratio", report.round_spread_ratio, "ratio"
        );
    }
    if let Some(table) = &report.layer_table {
        println!("# where one op's time goes ({}):", report.workload);
        print!("{table}");
    }
    println!("{}", contract_json(report).render());
}

/// The metrics of one run for the results file. A percentile metric whose
/// round was too short for it carries `percentile_used`, so `--compare` and
/// any other reader can tell a real tail from a repeated median.
fn metrics_json(report: &Report) -> Json {
    Json::obj(report.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("samples", Json::Num(m.samples as f64)),
        ];
        fields.extend(m.percentile_used.map(|p| ("percentile_used", Json::Num(f64::from(p)))));
        (m.name, Json::obj(fields))
    }))
}

/// Run every workload, untraced then traced, and write one results file.
fn run_all(cfg: &Config, out: Option<PathBuf>) -> Result<u64, String> {
    let mut entries = Vec::new();
    let mut failed = 0;
    for (name, _) in WORKLOADS {
        let plain = workloads::run_named(name, cfg, false)?;
        print_report(&plain);
        let traced = workloads::run_named(name, cfg, true)?;
        print_report(&traced);
        failed += plain.failed + traced.failed;
        entries.push((
            *name,
            Json::obj([
                ("attempted", Json::Num((plain.attempted + traced.attempted) as f64)),
                ("failed", Json::Num((plain.failed + traced.failed) as f64)),
                // Of the untraced run, whose end-to-end numbers it qualifies.
                ("round_spread_ratio", Json::Num(plain.round_spread_ratio)),
                ("end_to_end", metrics_json(&plain)),
                ("per_layer", metrics_json(&traced)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::str("vbench-results/v1")),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("scale", Json::str(format!("{:?}", cfg.scale).to_lowercase())),
        ("workloads", Json::obj(entries)),
    ]);
    let path =
        out.unwrap_or_else(|| Path::new(OUT_DIR).join(format!("results-seed{}.json", cfg.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(failed)
}

fn field_of(doc: &Json, workload: &str, section: &str, metric: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(section)?.get(metric)?.get(field)?.as_f64()
}

/// `bytes_per_op` is determined by the seed, so two files of one seed are
/// held to ISSUE 11's bound; the catalogue's wider one covers the difference
/// between the chains and query sets of different seeds.
const SAME_SEED_BYTES_BOUND: f64 = 0.01;

/// One line of the comparison and whether it is a regression: how much worse
/// `vb` is than `va` as a share of `va`, against `bound`. A percentile row
/// that a file clamped to a lower percentile (`clamped`) repeats a row above
/// it, so it is labelled and not gated.
fn compare_row(
    name: &str,
    (va, vb): (f64, f64),
    better: Better,
    bound: f64,
    clamped: Option<f64>,
) -> (String, bool) {
    let worse = match better {
        _ if va == 0.0 => f64::from(u8::from(vb > 0.0)),
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    let regressed = clamped.is_none() && worse > bound;
    let verdict = match clamped {
        Some(p) => format!("not gated: the round supports p{p} only"),
        None if regressed => "REGRESSED".into(),
        None if va == vb => "exact".into(),
        None => "ok".into(),
    };
    let line = format!(
        "  {name:<16} {va:>16.6} {vb:>16.6}  {:>+8.2}%  bound {:>5.1}%  {verdict}\n",
        100.0 * worse,
        100.0 * bound
    );
    (line, regressed)
}

/// Compare two `--all` results files on every (workload, end-to-end metric)
/// pair against the metric's bound, and on `failed_ops_ratio` against a bound
/// of 0. Returns the printed table and how many pairs are outside their
/// bound.
fn compare(a: &Json, b: &Json) -> Result<(String, usize), String> {
    use std::fmt::Write as _;
    for doc in [a, b] {
        if doc.get("schema").and_then(Json::as_str) != Some("vbench-results/v1") {
            return Err("not a vbench-results/v1 file".into());
        }
    }
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut out = String::new();
    let mut regressions = 0;
    for (workload, _) in WORKLOADS {
        let mut rows = Vec::new();
        for def in END_TO_END {
            let field = |doc, f| field_of(doc, workload, "end_to_end", def.name, f);
            let (Some(va), Some(vb)) = (field(a, "value"), field(b, "value")) else { continue };
            let bound = match def.name {
                "bytes_per_op" if same_seed => SAME_SEED_BYTES_BOUND,
                _ => def.bound,
            };
            let clamped = field(a, "percentile_used").or(field(b, "percentile_used"));
            rows.push(compare_row(def.name, (va, vb), def.better, bound, clamped));
        }
        if rows.is_empty() {
            continue;
        }
        let of_workload = |doc: &Json, f: &str| {
            doc.get("workloads").and_then(|w| w.get(workload)?.get(f)?.as_f64()).unwrap_or(f64::NAN)
        };
        let failed_ratio =
            |doc: &Json| of_workload(doc, "failed") / of_workload(doc, "attempted").max(1.0);
        if !failed_ratio(a).is_nan() && !failed_ratio(b).is_nan() {
            let both = (failed_ratio(a), failed_ratio(b));
            rows.push(compare_row("failed_ops_ratio", both, Better::Lower, 0.0, None));
        }
        // A noisy run is visible as such: the benchmark's own trust readings
        // of both files sit above the rows they qualify.
        let drift = |doc: &Json| {
            field_of(doc, workload, "per_layer", "bench.calib_drift_ratio", "value")
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "{workload}  round_spread {:.3} / {:.3}  calib_drift {:.3} / {:.3}",
            of_workload(a, "round_spread_ratio"),
            of_workload(b, "round_spread_ratio"),
            drift(a),
            drift(b),
        );
        for (line, regressed) in rows {
            out.push_str(&line);
            regressions += usize::from(regressed);
        }
    }
    if out.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok((out, regressions))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Exit status of a measuring run: failures are reported in the result
/// object either way; under `--check` they also fail the process.
fn exit_status(failed: u64, check: bool) -> u8 {
    u8::from(check && failed > 0)
}

fn run(cli: Cli) -> Result<u8, String> {
    match &cli.mode {
        Mode::Compare { a, b } => {
            let (table, regressions) = compare(&read_json(a)?, &read_json(b)?)?;
            print!("{table}");
            println!("{regressions} (workload, metric) pairs outside their bound");
            return Ok(u8::from(regressions > 0));
        }
        Mode::Describe => {
            print!("{}", catalog::benchmark_json().pretty());
            return Ok(0);
        }
        Mode::One { .. } | Mode::All { .. } => {}
    }
    let work = WorkDir::create()?;
    let cfg = Config {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        work_dir: work.0.clone(),
        trace_dir: PathBuf::from(OUT_DIR),
        flip_byte_in_op: None,
    };
    let failed = match cli.mode {
        Mode::One { workload, traced } => {
            let report = workloads::run_named(&workload, &cfg, traced)?;
            print_report(&report);
            report.failed
        }
        Mode::All { out } => run_all(&cfg, out)?,
        Mode::Compare { .. } | Mode::Describe => 0,
    };
    Ok(exit_status(failed, cli.check))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("vbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(cli) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("vbench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli =
            parse_cli(&args("--workload serve_hot --seed 42 --seconds 10 --trace 1")).unwrap();
        assert!(
            matches!(cli.mode, Mode::One { ref workload, traced: true } if workload == "serve_hot")
        );
        assert_eq!((cli.seed, cli.seconds, cli.check), (42, 10.0, false));
        let cli = parse_cli(&args("--workload window_e2e --trace 0 --check")).unwrap();
        assert!(matches!(cli.mode, Mode::One { traced: false, .. }) && cli.check);
        let cli = parse_cli(&args("--all --trace --scale tiny")).unwrap();
        assert!(matches!(cli.mode, Mode::All { out: None }) && cli.scale == Scale::Tiny);
        assert!(matches!(
            parse_cli(&args("--compare a.json b.json")).unwrap().mode,
            Mode::Compare { .. }
        ));
        for bad in
            ["", "--all --workload x", "--workload", "--seed x --all", "--trace 2 --all", "--bogus"]
        {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// Each tiny run gets its own scratch directory: tests run in parallel.
    fn tiny(tag: &str) -> (WorkDir, Config) {
        let dir = std::env::temp_dir().join(format!("vbench-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Config {
            seed: 7,
            seconds: 0.1,
            scale: Scale::Tiny,
            work_dir: dir.join("work"),
            trace_dir: dir.join("trace"),
            flip_byte_in_op: None,
        };
        (WorkDir(dir), cfg)
    }

    /// One workload at the tiny scale, untraced and traced: nothing fails and
    /// every catalogue metric is emitted under a valid name. Returns the
    /// traced report so each test can check its workload's predictions.
    fn runs_clean(name: &str) -> Report {
        let (_guard, cfg) = tiny(name);
        let plain = workloads::run_named(name, &cfg, false).unwrap();
        assert_eq!(plain.failed, 0, "{name}: failed ops");
        assert_eq!(plain.failed_ops_ratio(), 0.0);
        assert!(plain.attempted >= 1);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
        // A tiny round supports no tail: the clamp is carried into the
        // results file, never silent.
        assert_eq!(plain.metric("op_ms_p99").unwrap().percentile_used, Some(50));
        let in_file = |m: &str| metrics_json(&plain).get(m)?.get("percentile_used").cloned();
        assert_eq!((in_file("op_ms_p99"), in_file("op_ms_p50")), (Some(Json::Num(50.0)), None));

        let traced = workloads::run_named(name, &cfg, true).unwrap();
        assert_eq!(traced.failed, 0, "{name}: failed ops in the traced run");
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for m in &traced.metrics {
            assert!(valid_metric_name(m.name) && m.value.is_finite(), "{name}: {}", m.name);
        }
        assert!(cfg.trace_dir.join(format!("trace-{name}.json")).is_file());
        let doc = Json::parse(&contract_json(&traced).render()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        traced
    }

    fn layer(report: &Report, name: &str) -> f64 {
        report.metric(name).unwrap().value
    }

    // The five tiny-scale runs are separate tests so the harness spreads
    // them over the cores; each also checks what the README predicts for its
    // workload ("does most of the work" / "does nothing").

    #[test]
    fn window_e2e_runs_clean_and_its_spans_sum_to_the_op() {
        let r = runs_clean("window_e2e");
        assert!(layer(&r, "bench.span_residual_ratio") <= 0.05);
        assert!(layer(&r, "wire.decode_ms") > 0.0 && layer(&r, "verify.flush_ms") > 0.0);
        assert!(layer(&r, "sp.proofs_per_op") > 0.0);
        assert!(layer(&r, "pairing.miller_loops_per_op") > 0.0);
    }

    #[test]
    fn serve_hot_runs_clean_and_bypasses_proving() {
        let r = runs_clean("serve_hot");
        assert_eq!(layer(&r, "cache.hit_ratio"), 1.0);
        assert_eq!(layer(&r, "sp.proofs_per_op"), 0.0);
        assert_eq!(layer(&r, "cache.evictions_per_op"), 0.0);
        assert_eq!(layer(&r, "pairing.miller_loops_per_op"), 0.0);
        assert_eq!(layer(&r, "store.log_bytes_per_op"), 0.0);
    }

    #[test]
    fn serve_churn_runs_clean_and_works_the_cache_and_the_store() {
        let r = runs_clean("serve_churn");
        assert!(layer(&r, "cache.hit_ratio") < 1.0 && layer(&r, "sp.proofs_per_op") > 0.0);
        assert!(layer(&r, "cache.evictions_per_op") > 0.0);
        assert!(layer(&r, "store.log_bytes_per_op") > 0.0);
        assert!(layer(&r, "store.proofs_loaded") > 0.0);
    }

    #[test]
    fn mine_ingest_runs_clean_without_a_pairing() {
        let r = runs_clean("mine_ingest");
        assert!(layer(&r, "intra.build_ms") > 0.0);
        assert_eq!(layer(&r, "pairing.miller_loops_per_op"), 0.0);
        assert_eq!(layer(&r, "wire.decode_ms"), 0.0);
    }

    #[test]
    fn subscribe_stream_runs_clean_and_proves_fresh_blocks() {
        let r = runs_clean("subscribe_stream");
        assert!(layer(&r, "subscribe.proofs_per_block") > 0.0);
        assert!(layer(&r, "subscribe.updates_per_block") > 0.0);
    }

    /// One flipped byte between the SP and the client is a failed op: it is
    /// counted, nothing panics, and `--check` turns it into a failing exit.
    #[test]
    fn a_flipped_stream_byte_is_counted_not_thrown() {
        let (_guard, mut cfg) = tiny("flip");
        cfg.flip_byte_in_op = Some(2);
        let report = workloads::run_named("window_e2e", &cfg, false).unwrap();
        assert_eq!(report.failed, 1, "exactly the corrupted op fails");
        assert!(!report.correct() && report.failed_ops_ratio() > 0.0);
        assert_eq!(contract_json(&report).get("correct"), Some(&Json::Bool(false)));
        assert_eq!(exit_status(report.failed, true), 1);
        assert_eq!(exit_status(report.failed, false), 0);
        assert_eq!(exit_status(0, true), 0);
    }

    /// A one-workload results file of `seed`.
    fn results(seed: u64, p50: f64, ops: f64, bytes: f64) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([
            ("schema", Json::str("vbench-results/v1")),
            ("seed", Json::Num(seed as f64)),
            (
                "workloads",
                Json::obj([(
                    "serve_hot",
                    Json::obj([
                        ("attempted", Json::Num(1000.0)),
                        ("failed", Json::Num(0.0)),
                        ("round_spread_ratio", Json::Num(0.04)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("op_ms_p50", m(p50)),
                                ("ops_per_s", m(ops)),
                                ("bytes_per_op", m(bytes)),
                            ]),
                        ),
                        ("per_layer", Json::obj([("bench.calib_drift_ratio", m(0.02))])),
                    ]),
                )]),
            ),
        ])
    }

    /// `doc` with the value at `path` replaced (or added).
    fn with(doc: &Json, path: &[&str], value: Json) -> Json {
        let Some((key, rest)) = path.split_first() else { return value };
        let Json::Obj(pairs) = doc else { panic!("{key}: not inside an object") };
        let mut pairs = pairs.clone();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = with(v, rest, value),
            None => pairs.push((key.to_string(), with(&Json::Obj(Vec::new()), rest, value))),
        }
        Json::Obj(pairs)
    }

    #[test]
    fn compare_flags_only_what_is_outside_its_bound() {
        let base = results(1, 1.0, 1000.0, 5000.0);
        let (table, n) = compare(&base, &base).unwrap();
        assert_eq!(n, 0);
        assert!(table.contains("exact") && table.contains("round_spread 0.040 / 0.040"));
        assert!(table.contains("calib_drift 0.020") && table.contains("failed_ops_ratio"));
        // 5 % slower and 5 % less throughput: inside both bounds.
        assert_eq!(compare(&base, &results(1, 1.05, 950.0, 5000.0)).unwrap().1, 0);
        // Faster and more throughput is never a regression.
        assert_eq!(compare(&base, &results(1, 0.5, 2000.0, 5000.0)).unwrap().1, 0);
        // 40 % slower: op_ms_p50 regressed; 40 % less throughput: ops_per_s too.
        let (table, n) = compare(&base, &results(1, 1.4, 600.0, 5000.0)).unwrap();
        assert_eq!(n, 2, "{table}");
        assert!(table.contains("REGRESSED"));
        // Direction matters: the same numbers the other way round are gains.
        assert_eq!(compare(&results(1, 1.4, 600.0, 5000.0), &base).unwrap().1, 0);
        assert!(compare(&base, &Json::obj([("schema", Json::str("other"))])).is_err());
    }

    /// Same seed, same inputs: the VO may not grow by more than 1 %. Across
    /// seeds the chains differ and the catalogue's bound applies.
    #[test]
    fn compare_holds_bytes_per_op_tight_for_one_seed() {
        let base = results(1, 1.0, 1000.0, 5000.0);
        assert_eq!(compare(&base, &results(1, 1.0, 1000.0, 5040.0)).unwrap().1, 0);
        let (table, n) = compare(&base, &results(1, 1.0, 1000.0, 5950.0)).unwrap();
        assert_eq!(n, 1, "19 % more bytes on one seed: {table}");
        assert_eq!(compare(&base, &results(2, 1.0, 1000.0, 5950.0)).unwrap().1, 0);
        assert_eq!(compare(&base, &results(2, 1.0, 1000.0, 6100.0)).unwrap().1, 1);
    }

    /// A side that got faster by failing ops is a regression, whatever its
    /// timings say.
    #[test]
    fn compare_counts_new_failed_ops_as_a_regression() {
        let base = results(1, 1.0, 1000.0, 5000.0);
        let broken = with(
            &results(1, 0.5, 2000.0, 5000.0),
            &["workloads", "serve_hot", "failed"],
            Json::Num(3.0),
        );
        let (table, n) = compare(&base, &broken).unwrap();
        assert_eq!(n, 1, "{table}");
        assert!(table.lines().any(|l| l.contains("failed_ops_ratio") && l.contains("REGRESSED")));
        // Fewer failures than before is not one.
        let failing = with(&base, &["workloads", "serve_hot", "failed"], Json::Num(3.0));
        assert_eq!(compare(&failing, &base).unwrap().1, 0);
    }

    /// A tail the round could not support is a repeated median: labelled,
    /// not gated a second time.
    #[test]
    fn compare_does_not_gate_a_clamped_percentile() {
        let clamp = |doc: &Json| {
            with(
                doc,
                &["workloads", "serve_hot", "end_to_end", "op_ms_p50", "percentile_used"],
                Json::Num(50.0),
            )
        };
        let (base, slow) = (results(1, 1.0, 1000.0, 5000.0), results(1, 1.4, 1000.0, 5000.0));
        assert_eq!(compare(&base, &slow).unwrap().1, 1);
        let (table, n) = compare(&clamp(&base), &clamp(&slow)).unwrap();
        assert_eq!(n, 0, "{table}");
        assert!(table.contains("not gated: the round supports p50 only"));
    }
}
