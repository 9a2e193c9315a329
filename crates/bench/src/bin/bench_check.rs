//! CI perf-regression gate over the committed bench-smoke ledger.
//!
//! ```text
//! bench_check [baseline.json] [current.json]
//! ```
//!
//! Defaults: baseline `BENCH_pairing.json` (the committed ledger), current
//! `BENCH_current.json` (a fresh `bench_smoke` run). Exits non-zero and
//! prints the per-entry table when any entry regresses beyond
//! `VCHAIN_BENCH_TOL` × baseline + `VCHAIN_BENCH_TOL_ABS_US` µs, or when a
//! baseline entry is missing from the fresh run (see
//! [`vchain_bench::check`] for the tolerance model).

use std::process::ExitCode;

use vchain_bench::check;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_pairing.json".to_string());
    let current_path = args.next().unwrap_or_else(|| "BENCH_current.json".to_string());

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let parse = |path: &str, body: &str| match check::parse(body) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("bench_check: {path} is not a bench-smoke ledger: {e}");
            std::process::exit(2);
        }
    };
    let baseline = parse(&baseline_path, &read(&baseline_path));
    let current = parse(&current_path, &read(&current_path));

    let (tol, abs) = (check::tol_from_env(), check::abs_slack_from_env());
    let cmp = check::compare(&baseline, &current, tol, abs);
    println!(
        "bench_check: {current_path} vs {baseline_path} (tolerance {tol:.2}x + {abs:.0} µs)\n"
    );
    print!("{}", cmp.render_table());
    if cmp.passed() {
        println!("\nbench_check: OK — no entry beyond tolerance");
        ExitCode::SUCCESS
    } else {
        let n = cmp.findings.iter().filter(|f| f.regressed).count() + cmp.missing_entries.len();
        println!(
            "\nbench_check: FAILED — {n} entr{} beyond tolerance",
            if n == 1 { "y" } else { "ies" }
        );
        ExitCode::FAILURE
    }
}
