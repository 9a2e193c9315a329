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
//! Symmetrically, `VCHAIN_BENCH_TOL_IMPROVE` (default **off**) arms an
//! inverse gate for *unexplained improvements*: an entry is flagged when
//!
//! ```text
//! current < baseline / VCHAIN_BENCH_TOL_IMPROVE − VCHAIN_BENCH_TOL_ABS_US
//! ```
//!
//! A large speed-up nobody claimed usually means the benchmark broke (a
//! workload got optimized away, an entry silently measures a cached path)
//! or the committed ledger is stale; arming this after a perf PR forces
//! the baseline to be re-recorded rather than drifting. The per-entry
//! table prints the bound *actually applied* to each entry (`bound µs` —
//! ratio and slack folded in), so a verdict can be read off one line
//! without re-deriving the tolerance arithmetic.

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
    /// The slow-side bound actually applied to this entry, in µs:
    /// `baseline × tol + abs_slack`. The entry regresses iff
    /// `current > bound_us`.
    pub bound_us: f64,
    /// The fast-side bound applied when the improvement gate is armed:
    /// `baseline / improve_tol − abs_slack` (`None` when the gate is off).
    /// The entry is flagged improved iff `current < improve_bound_us`.
    pub improve_bound_us: Option<f64>,
    /// Whether this entry trips the gate as a slowdown.
    pub regressed: bool,
    /// Whether this entry trips the gate as an unexplained speed-up
    /// (always `false` while the improvement gate is off).
    pub improved: bool,
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
        self.missing_entries.is_empty() && self.findings.iter().all(|f| !f.regressed && !f.improved)
    }

    /// Render the per-entry table (flagged entries first, worst ratios
    /// first among them, then baseline order). The `bound µs` column is
    /// the tolerance *actually applied* to that entry — `baseline × tol +
    /// slack` for the slow side, suffixed with `/fast-bound` when the
    /// improvement gate is armed — so each verdict is auditable from its
    /// own line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>12} {:>12} {:>8} {:>18}  verdict",
            "entry", "baseline µs", "current µs", "ratio", "bound µs"
        );
        for f in &self.findings {
            let bound = match f.improve_bound_us {
                Some(lo) => format!("{:.3}/{:.3}", f.bound_us, lo.max(0.0)),
                None => format!("{:.3}", f.bound_us),
            };
            let verdict = if f.regressed {
                "REGRESSED"
            } else if f.improved {
                "IMPROVED?"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<38} {:>12.3} {:>12.3} {:>7.2}x {:>18}  {}",
                f.name, f.baseline_us, f.current_us, f.ratio, bound, verdict
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
/// absolute slack (both in the units of the entries, µs). Equivalent to
/// [`compare_with_improve`] with the improvement gate off.
pub fn compare(baseline: &[Entry], current: &[Entry], tol: f64, abs_slack_us: f64) -> Comparison {
    compare_with_improve(baseline, current, tol, abs_slack_us, None)
}

/// [`compare`] with an optional inverse-ratio improvement gate: when
/// `improve_tol` is `Some(it)`, an entry is flagged (and fails the gate)
/// if `current < baseline / it − abs_slack_us` — a speed-up large enough
/// that it should have been claimed and baselined, not merged silently.
/// The slack shields micro-entries symmetrically on both sides.
pub fn compare_with_improve(
    baseline: &[Entry],
    current: &[Entry],
    tol: f64,
    abs_slack_us: f64,
    improve_tol: Option<f64>,
) -> Comparison {
    assert!(tol >= 1.0, "a tolerance below 1.0 would flag same-speed runs");
    assert!(abs_slack_us >= 0.0, "negative slack makes no sense");
    if let Some(it) = improve_tol {
        assert!(it > 1.0, "an improvement tolerance at or below 1.0 would flag same-speed runs");
    }
    let mut cmp = Comparison::default();
    for base in baseline {
        match current.iter().find(|c| c.name == base.name) {
            None => cmp.missing_entries.push(base.name.clone()),
            Some(cur) => {
                let bound = base.us_per_iter * tol + abs_slack_us;
                let improve_bound = improve_tol.map(|it| base.us_per_iter / it - abs_slack_us);
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
                    improve_bound_us: improve_bound,
                    regressed: cur.us_per_iter > bound,
                    improved: improve_bound.is_some_and(|lo| cur.us_per_iter < lo),
                });
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            cmp.new_entries.push(cur.name.clone());
        }
    }
    // worst offenders first so the CI log leads with the problem; among
    // flagged entries, slowdowns sort by ratio and unexplained speed-ups
    // by inverse ratio (the smaller the ratio, the more suspicious).
    cmp.findings.sort_by(|a, b| {
        let key = |f: &Finding| {
            let severity =
                if f.improved && !f.regressed { 1.0 / f.ratio.max(1e-12) } else { f.ratio };
            (f.regressed || f.improved, severity)
        };
        key(b).partial_cmp(&key(a)).expect("finite ratios")
    });
    cmp
}

/// Splice freshly measured timings into an existing bench-smoke JSON file
/// by text surgery, preserving the emitter's exact line shape (so
/// [`parse`] and the gate treat merged entries like native ones). Each
/// `(name, iters, us_per_iter)` becomes one timing line before the closing
/// `  ]` of the array; the previous last entry gains the comma JSON
/// requires. Duplicate names are an error — a merge is additive, never a
/// silent overwrite.
pub fn merge_entries(json: &str, entries: &[(String, u32, f64)]) -> Result<String, String> {
    if !json.contains("vchain-bench-smoke/v1") {
        return Err("missing vchain-bench-smoke/v1 schema marker".into());
    }
    let existing = parse(json)?;
    for (name, _, us) in entries {
        if existing.iter().any(|e| &e.name == name) {
            return Err(format!("entry {name:?} already present — merge is additive only"));
        }
        if !us.is_finite() || *us < 0.0 {
            return Err(format!("non-physical us_per_iter {us} for {name:?}"));
        }
    }
    let close = json.rfind("  ]").ok_or("no closing `  ]` of the timings array")?;
    let (head, tail) = json.split_at(close);
    let mut out = head.trim_end().to_string();
    if out.ends_with('}') {
        out.push(','); // the former last entry now has a successor
    }
    for (i, (name, iters, us)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = write!(
            out,
            "\n    {{\"name\": \"{name}\", \"iters\": {iters}, \"us_per_iter\": {us:.3}}}{comma}"
        );
    }
    out.push('\n');
    out.push_str(tail);
    Ok(out)
}

/// The ratio tolerance from `VCHAIN_BENCH_TOL` (default 2.0).
pub fn tol_from_env() -> f64 {
    std::env::var("VCHAIN_BENCH_TOL").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0)
}

/// The absolute slack in µs from `VCHAIN_BENCH_TOL_ABS_US` (default 25).
pub fn abs_slack_from_env() -> f64 {
    std::env::var("VCHAIN_BENCH_TOL_ABS_US").ok().and_then(|v| v.parse().ok()).unwrap_or(25.0)
}

/// The inverse-ratio improvement tolerance from `VCHAIN_BENCH_TOL_IMPROVE`.
/// Unset, empty, `off`, or `0` disable the gate (the default); a numeric
/// value > 1.0 arms it.
pub fn improve_tol_from_env() -> Option<f64> {
    let raw = std::env::var("VCHAIN_BENCH_TOL_IMPROVE").ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("off") {
        return None;
    }
    let v: f64 = trimmed.parse().ok()?;
    (v > 1.0).then_some(v)
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
    }

    #[test]
    fn regressions_sort_first() {
        let base = entries(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        let fresh = entries(&[("a", 90.0), ("b", 500.0), ("c", 300.0)]);
        let cmp = compare(&base, &fresh, 2.0, 25.0);
        let names: Vec<_> = cmp.findings.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
    }

    #[test]
    fn improvement_gate_off_by_default() {
        // a 100× speed-up passes when the gate is off (compare == gate off)
        let base = entries(&[("pairing", 5000.0)]);
        let fast = entries(&[("pairing", 50.0)]);
        let cmp = compare(&base, &fast, 2.0, 25.0);
        assert!(cmp.passed());
        assert!(cmp.findings.iter().all(|f| !f.improved && f.improve_bound_us.is_none()));
    }

    #[test]
    fn armed_improvement_gate_flags_unexplained_speedups() {
        let base = entries(&[("pairing", 5000.0), ("final_exp", 900.0)]);
        let fresh = entries(&[("pairing", 50.0), ("final_exp", 880.0)]);
        let cmp = compare_with_improve(&base, &fresh, 2.0, 25.0, Some(1.5));
        assert!(!cmp.passed());
        let flagged: Vec<_> = cmp.findings.iter().filter(|f| f.improved).collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].name, "pairing");
        // fast bound actually applied: 5000/1.5 − 25
        let lo = flagged[0].improve_bound_us.unwrap();
        assert!((lo - (5000.0 / 1.5 - 25.0)).abs() < 1e-9);
        // the in-tolerance entry passes
        assert!(!cmp.findings.iter().find(|f| f.name == "final_exp").unwrap().improved);
        // flagged speed-ups sort ahead of unflagged entries
        assert_eq!(cmp.findings[0].name, "pairing");
        assert!(cmp.render_table().contains("IMPROVED?"));
    }

    #[test]
    fn abs_slack_shields_micro_entries_on_the_fast_side_too() {
        // 0.06 µs → 0.001 µs is a 60× "speed-up" but inside the slack
        let base = entries(&[("fp_mul", 0.06)]);
        let fast = entries(&[("fp_mul", 0.001)]);
        assert!(compare_with_improve(&base, &fast, 2.0, 25.0, Some(1.5)).passed());
    }

    #[test]
    fn merge_appends_parseable_entries() {
        let merged = merge_entries(
            SAMPLE,
            &[("sp_serve_qps".to_string(), 64, 1234.5), ("sp_serve_p99_us".to_string(), 64, 99.25)],
        )
        .unwrap();
        let parsed = parse(&merged).unwrap();
        assert_eq!(parsed.len(), 5);
        assert_eq!(parsed[3], Entry { name: "sp_serve_qps".into(), us_per_iter: 1234.5 });
        assert_eq!(parsed[4], Entry { name: "sp_serve_p99_us".into(), us_per_iter: 99.25 });
        // the original entries survive byte-for-byte meaning-wise
        assert_eq!(parsed[..3], parse(SAMPLE).unwrap()[..]);
        // merged output is itself mergeable (still well-shaped)
        assert!(merge_entries(&merged, &[("one_more".to_string(), 1, 0.5)]).is_ok());
    }

    #[test]
    fn merge_rejects_duplicates_and_foreign_files() {
        assert!(merge_entries(SAMPLE, &[("pairing".to_string(), 1, 1.0)]).is_err());
        assert!(merge_entries("{}", &[("x".to_string(), 1, 1.0)]).is_err());
        assert!(merge_entries(SAMPLE, &[("x".to_string(), 1, f64::NAN)]).is_err());
    }

    #[test]
    fn table_prints_the_bound_actually_applied() {
        let base = entries(&[("pairing", 1000.0)]);
        let fresh = entries(&[("pairing", 1100.0)]);
        // slow-side bound: 1000×2 + 25 = 2025.000
        let cmp = compare(&base, &fresh, 2.0, 25.0);
        assert!(cmp.render_table().contains("2025.000"));
        // with the improvement gate armed both bounds appear: 1000/2 − 25
        let cmp = compare_with_improve(&base, &fresh, 2.0, 25.0, Some(2.0));
        let table = cmp.render_table();
        assert!(table.contains("2025.000/475.000"), "table was:\n{table}");
    }
}
