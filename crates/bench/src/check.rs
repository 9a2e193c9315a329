//! The CI perf-regression gate: compare a fresh `bench_smoke` run against
//! the committed `BENCH_pairing.json` baseline.
//!
//! The committed file is the repo's perf ledger — four PRs of pairing-
//! engine work are recorded in it — but until this module nothing
//! *guarded* it: a regression in any hot path would merge silently. The
//! `bench_check` binary re-runs the comparison in CI after the perf-smoke
//! step and fails the job when any entry slows down beyond a generous,
//! env-tunable tolerance.
//!
//! Tolerance model: an entry regresses when
//!
//! ```text
//! current > baseline × VCHAIN_BENCH_TOL + VCHAIN_BENCH_TOL_ABS_US
//! ```
//!
//! The ratio (default 2.0×) absorbs the CI runners' noisy clocks; the
//! absolute slack (default 25 µs) keeps micro-entries like `fp_mul`
//! (~0.06 µs) from tripping on scheduling jitter that dwarfs the entry
//! itself. Entries present in the baseline but missing from the fresh run
//! fail the gate too — silently dropping a ledger line is how a
//! regression hides. New entries are reported but pass.
//!
//! The gate is one-sided: a faster entry passes. The per-entry table
//! prints the bound *actually applied* to each entry (`bound µs` — ratio
//! and slack folded in), so a verdict can be read off one line without
//! re-deriving the tolerance arithmetic.

use std::fmt::Write as _;

/// One `(name, mean µs/iter)` measurement from a bench-smoke JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// The timing's name (e.g. `final_exp`).
    pub name: String,
    /// Mean wall-clock microseconds per iteration.
    pub us_per_iter: f64,
}

/// Parse the `bench_smoke` JSON emitter's output (see its `main`): a
/// `vchain-bench-smoke/v1` schema header and one `{"name": …,
/// "us_per_iter": …}` object per timing. Hand-rolled on purpose — the
/// offline workspace has no JSON crate, and accepting only the emitter's
/// shape means a malformed file fails loudly here rather than comparing
/// garbage.
pub fn parse(json: &str) -> Result<Vec<Entry>, String> {
    if !json.contains("vchain-bench-smoke/v1") {
        return Err("missing vchain-bench-smoke/v1 schema marker".into());
    }
    let mut out = Vec::new();
    for (lineno, line) in json.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let (name, rest) = rest.split_once('"').ok_or_else(|| err("unterminated name"))?;
        let (_, val) =
            rest.split_once("\"us_per_iter\": ").ok_or_else(|| err("missing us_per_iter"))?;
        let num: String =
            val.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
        let us_per_iter: f64 =
            num.parse().map_err(|e| err(&format!("bad us_per_iter {num:?}: {e}")))?;
        if !us_per_iter.is_finite() || us_per_iter < 0.0 {
            return Err(err(&format!("non-physical us_per_iter {us_per_iter}")));
        }
        out.push(Entry { name: name.to_string(), us_per_iter });
    }
    if out.is_empty() {
        return Err("no timing entries found".into());
    }
    Ok(out)
}

/// Per-entry verdict of a baseline/current comparison.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Entry name.
    pub name: String,
    /// Baseline mean, µs/iter.
    pub baseline_us: f64,
    /// Fresh-run mean, µs/iter.
    pub current_us: f64,
    /// `current / baseline` (∞-safe: 0-baseline entries compare by slack
    /// only).
    pub ratio: f64,
    /// The bound actually applied to this entry, in µs:
    /// `baseline × tol + abs_slack`. The entry regresses iff
    /// `current > bound_us`.
    pub bound_us: f64,
    /// Whether this entry trips the gate.
    pub regressed: bool,
}

/// The outcome of comparing a fresh run against the baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One finding per entry present in both files.
    pub findings: Vec<Finding>,
    /// Entries only in the fresh run (informational).
    pub new_entries: Vec<String>,
    /// Entries only in the baseline (these FAIL the gate).
    pub missing_entries: Vec<String>,
}

impl Comparison {
    /// Does the gate pass?
    pub fn passed(&self) -> bool {
        self.missing_entries.is_empty() && self.findings.iter().all(|f| !f.regressed)
    }

    /// Render the per-entry table (regressed entries first, worst ratios
    /// first). The `bound µs` column is the tolerance *actually applied*
    /// to that entry — `baseline × tol + slack` — so each verdict is
    /// auditable from its own line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>12} {:>12} {:>8} {:>18}  verdict",
            "entry", "baseline µs", "current µs", "ratio", "bound µs"
        );
        for f in &self.findings {
            let verdict = if f.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<38} {:>12.3} {:>12.3} {:>7.2}x {:>18.3}  {}",
                f.name, f.baseline_us, f.current_us, f.ratio, f.bound_us, verdict
            );
        }
        for name in &self.missing_entries {
            let _ =
                writeln!(out, "{name:<38} {:>12} {:>12} {:>8} {:>18}  MISSING", "-", "-", "-", "-");
        }
        for name in &self.new_entries {
            let _ = writeln!(out, "{name:<38} {:>12} {:>12} {:>8} {:>18}  new", "-", "-", "-", "-");
        }
        out
    }
}

/// Compare `current` against `baseline` with the given ratio tolerance and
/// absolute slack (both in the units of the entries, µs).
pub fn compare(baseline: &[Entry], current: &[Entry], tol: f64, abs_slack_us: f64) -> Comparison {
    assert!(tol >= 1.0, "a tolerance below 1.0 would flag same-speed runs");
    assert!(abs_slack_us >= 0.0, "negative slack makes no sense");
    let mut cmp = Comparison::default();
    for base in baseline {
        match current.iter().find(|c| c.name == base.name) {
            None => cmp.missing_entries.push(base.name.clone()),
            Some(cur) => {
                let bound = base.us_per_iter * tol + abs_slack_us;
                let ratio = if base.us_per_iter > 0.0 {
                    cur.us_per_iter / base.us_per_iter
                } else {
                    f64::INFINITY
                };
                cmp.findings.push(Finding {
                    name: base.name.clone(),
                    baseline_us: base.us_per_iter,
                    current_us: cur.us_per_iter,
                    ratio,
                    bound_us: bound,
                    regressed: cur.us_per_iter > bound,
                });
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            cmp.new_entries.push(cur.name.clone());
        }
    }
    // worst offenders first so the CI log leads with the problem
    cmp.findings.sort_by(|a, b| {
        (b.regressed, b.ratio).partial_cmp(&(a.regressed, a.ratio)).expect("finite ratios")
    });
    cmp
}

/// The ratio tolerance from `VCHAIN_BENCH_TOL` (default 2.0).
pub fn tol_from_env() -> f64 {
    std::env::var("VCHAIN_BENCH_TOL").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0)
}

/// The absolute slack in µs from `VCHAIN_BENCH_TOL_ABS_US` (default 25).
pub fn abs_slack_from_env() -> f64 {
    std::env::var("VCHAIN_BENCH_TOL_ABS_US").ok().and_then(|v| v.parse().ok()).unwrap_or(25.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "vchain-bench-smoke/v1",
  "timings": [
    {"name": "fp_mul", "iters": 100000, "us_per_iter": 0.058},
    {"name": "pairing", "iters": 50, "us_per_iter": 1732.342},
    {"name": "final_exp", "iters": 50, "us_per_iter": 979.199}
  ]
}
"#;

    fn entries(pairs: &[(&str, f64)]) -> Vec<Entry> {
        pairs.iter().map(|(n, v)| Entry { name: n.to_string(), us_per_iter: *v }).collect()
    }

    #[test]
    fn parses_emitter_format() {
        let parsed = parse(SAMPLE).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], Entry { name: "fp_mul".into(), us_per_iter: 0.058 });
        assert_eq!(parsed[1].name, "pairing");
        assert!((parsed[1].us_per_iter - 1732.342).abs() < 1e-9);
    }

    #[test]
    fn rejects_foreign_or_empty_json() {
        assert!(parse("{}").is_err());
        assert!(parse("{\"schema\": \"vchain-bench-smoke/v1\"}").is_err());
        assert!(parse(
            "{\"schema\": \"vchain-bench-smoke/v1\",\n{\"name\": \"x\", \"us_per_iter\": abc}"
        )
        .is_err());
    }

    #[test]
    fn same_run_passes() {
        let base = parse(SAMPLE).unwrap();
        let cmp = compare(&base, &base, 2.0, 25.0);
        assert!(cmp.passed());
        assert!(cmp.new_entries.is_empty() && cmp.missing_entries.is_empty());
    }

    #[test]
    fn synthetically_slowed_entry_fails() {
        // the acceptance demo: slow one entry past ratio·base + slack
        let base = entries(&[("pairing", 1000.0), ("fp_mul", 0.06)]);
        let slowed = entries(&[("pairing", 2100.0), ("fp_mul", 0.06)]);
        let cmp = compare(&base, &slowed, 2.0, 25.0);
        assert!(!cmp.passed());
        let bad: Vec<_> = cmp.findings.iter().filter(|f| f.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "pairing");
        assert!(cmp.render_table().contains("REGRESSED"));
    }

    #[test]
    fn abs_slack_shields_micro_entries() {
        // 3× on a 0.06 µs entry is scheduler jitter, not a regression…
        let base = entries(&[("fp_mul", 0.06)]);
        let jitter = entries(&[("fp_mul", 0.18)]);
        assert!(compare(&base, &jitter, 2.0, 25.0).passed());
        // …but 3× on a multi-ms entry is a real one
        let base = entries(&[("pairing", 1500.0)]);
        let slow = entries(&[("pairing", 4500.0)]);
        assert!(!compare(&base, &slow, 2.0, 25.0).passed());
    }

    #[test]
    fn missing_entry_fails_new_entry_passes() {
        let base = entries(&[("pairing", 1000.0), ("final_exp", 900.0)]);
        let fresh = entries(&[("pairing", 1000.0), ("brand_new", 1.0)]);
        let cmp = compare(&base, &fresh, 2.0, 25.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing_entries, vec!["final_exp".to_string()]);
        assert_eq!(cmp.new_entries, vec!["brand_new".to_string()]);
        let table = cmp.render_table();
        assert!(table.contains("MISSING") && table.contains("new"));
        // a row the emitter stopped producing fails until the baseline drops
        // it too: ledger and emitter can only be trimmed together
        let stale = entries(&[("pairing", 1000.0), ("retired_row", 18420.0)]);
        let cmp = compare(&stale, &entries(&[("pairing", 1000.0)]), 2.0, 25.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing_entries, vec!["retired_row".to_string()]);
    }

    #[test]
    fn regressions_sort_first() {
        let base = entries(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        let fresh = entries(&[("a", 90.0), ("b", 500.0), ("c", 300.0)]);
        let cmp = compare(&base, &fresh, 2.0, 25.0);
        let names: Vec<_> = cmp.findings.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
        // the gate is one-sided: the faster entry sorts last and passes
        assert!(!cmp.findings[2].regressed);
    }

    #[test]
    fn table_prints_the_bound_actually_applied() {
        let base = entries(&[("pairing", 1000.0)]);
        let fresh = entries(&[("pairing", 1100.0)]);
        // bound: 1000×2 + 25 = 2025.000
        let cmp = compare(&base, &fresh, 2.0, 25.0);
        assert!(cmp.render_table().contains("2025.000"));
    }
}
