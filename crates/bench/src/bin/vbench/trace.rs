//! The outside-in layer trace: spans recorded by the benchmark around each
//! call into a layer's public functions. Spans live in memory and are
//! written once, at exit. End-to-end metrics never run with a tracer — a
//! separate traced round gives the per-layer numbers, and the difference
//! between the two is `bench.trace_overhead_ratio`.
//!
//! Spans *inside* the program under test are a later change (ROADMAP,
//! "instrumentation spine"); this file only times from the outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

/// One call into a layer: `[start_ns, end_ns)` since the tracer's origin,
/// the span that caused it, and the op it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op_id });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.spans[id as usize].ns() as f64 / 1e6
    }

    /// Mean duration in ms of the spans called `name`, and how many.
    pub fn mean_ms(&self, name: &str) -> (f64, usize) {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(sum, n), s| (sum + s.ns(), n + 1));
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 / n as f64 / 1e6, n)
        }
    }

    /// Total duration in ms of the spans called `name`, divided by `ops`:
    /// the layer's cost per op even when it runs many times (or not at all)
    /// inside one.
    pub fn per_op_ms(&self, name: &str, ops: usize) -> f64 {
        let sum: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum();
        sum as f64 / ops.max(1) as f64 / 1e6
    }

    /// Time inside direct children, per span.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.ns();
            }
        }
        child
    }

    /// `Σ |span − Σ children| ÷ Σ span` over the root spans called `root`:
    /// the share of an op that no child span accounts for.
    pub fn residual_ratio(&self, root: &str) -> f64 {
        let child = self.child_ns();
        let (gap, total) = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none())
            .fold((0u64, 0u64), |(gap, total), (i, s)| {
                (gap + s.ns().abs_diff(child[i]), total + s.ns())
            });
        if total == 0 {
            0.0
        } else {
            gap as f64 / total as f64
        }
    }

    /// Per span name: calls, total time and self time (span minus the part
    /// its children cover), in first-seen order.
    pub fn layers(&self) -> Vec<LayerRow> {
        let child = self.child_ns();
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                LayerRow { name: s.name, calls: 0, total_ns: 0, self_ns: 0 }
            });
            row.calls += 1;
            row.total_ns += s.ns();
            row.self_ns += s.ns().saturating_sub(child[i]);
        }
        order.into_iter().filter_map(|n| rows.remove(n)).collect()
    }

    /// The "where one op's time goes" table: each layer's self time per op
    /// and its share of the root span.
    pub fn layer_table(&self, root: &str, ops: usize) -> String {
        use std::fmt::Write as _;
        let rows = self.layers();
        let root_ns = rows.iter().find(|r| r.name == root).map(|r| r.total_ns).unwrap_or(0);
        let per_op = |ns: u64| ns as f64 / ops.max(1) as f64 / 1e6;
        let mut out = String::new();
        let _ =
            writeln!(out, "  {:<24} {:>8} {:>12} {:>8}", "span", "calls", "self ms/op", "share");
        for r in &rows {
            // Spans outside the root (warm re-runs, probes) are listed
            // without a share: they are not part of the op.
            let inside = r.name == root || self.is_under(r.name, root);
            let share = if inside && root_ns > 0 {
                format!("{:>7.1}%", 100.0 * r.self_ns as f64 / root_ns as f64)
            } else {
                format!("{:>8}", "-")
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>8} {:>12.4} {share}",
                r.name,
                r.calls,
                per_op(r.self_ns)
            );
        }
        out
    }

    fn is_under(&self, name: &str, root: &str) -> bool {
        self.spans.iter().filter(|s| s.name == name).any(|s| {
            let mut cur = s.parent;
            while let Some(p) = cur {
                let ps = &self.spans[p as usize];
                if ps.name == root {
                    return true;
                }
                cur = ps.parent;
            }
            false
        })
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("vbench-trace/v1")),
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }

    /// Flush the spans to `path` (parent directories are created).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed).render())
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        let mut put = |name, start, end, parent, op| {
            t.spans.push(Span { name, start_ns: start, end_ns: end, parent, op_id: op })
        };
        put("op", 0, 100, None, 0); // 0
        put("sp.query", 0, 30, Some(0), 0); // 1
        put("client", 30, 95, Some(0), 0); // 2
        put("wire.decode", 30, 70, Some(2), 0); // 3
        put("verify.flush", 70, 95, Some(2), 0); // 4
        put("sp.query_warm", 100, 110, None, 0); // 5: outside the op
        put("op", 200, 300, None, 1); // 6
        put("sp.query", 200, 250, Some(6), 1); // 7
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let rows = fixture().layers();
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("op"), LayerRow { name: "op", calls: 2, total_ns: 200, self_ns: 5 + 50 });
        assert_eq!(row("client").self_ns, 0);
        assert_eq!(row("wire.decode").self_ns, 40);
        assert_eq!(row("sp.query").total_ns, 80);
        assert_eq!(rows[0].name, "op", "first-seen order");
    }

    #[test]
    fn residual_is_the_unaccounted_share_of_the_root() {
        // op 0: 100 − (30 + 65) = 5; op 1: 100 − 50 = 50; over 200 total.
        let t = fixture();
        assert!((t.residual_ratio("op") - 55.0 / 200.0).abs() < 1e-12);
        assert_eq!(t.residual_ratio("absent"), 0.0);
    }

    #[test]
    fn means_and_per_op_totals() {
        let t = fixture();
        assert_eq!(t.mean_ms("sp.query"), (40e-6, 2));
        assert_eq!(t.mean_ms("absent"), (0.0, 0));
        assert_eq!(t.per_op_ms("wire.decode", 2), 20e-6);
        assert!(t.is_under("wire.decode", "op") && !t.is_under("sp.query_warm", "op"));
        let table = t.layer_table("op", 2);
        assert!(table.contains("wire.decode") && table.contains("20.0%"), "{table}");
    }

    #[test]
    fn spans_serialise_with_parent_and_op_id() {
        let mut t = Tracer::new();
        let root = t.open("op", None, 7);
        t.time("sp.query", Some(root), 7, || std::hint::black_box(1 + 1));
        t.close(root);
        let doc = t.to_json("window_e2e", 42);
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[1].get("op_id"), Some(&Json::Num(7.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(Json::parse(&doc.render()), Ok(doc));
    }
}
