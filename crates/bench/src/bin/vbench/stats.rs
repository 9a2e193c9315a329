//! The measurement protocol's arithmetic: within-round percentiles under the
//! "at least ten samples beyond" rule, best-of-rounds selection, throughput
//! from the round wall, and the metric-name rule.
//!
//! Wall-clock on a shared 2-core box drifts by ±20 % on a ~1 s timescale
//! while the best of several identical rounds repeats within a few percent
//! (README, "noise study"). So every timing metric is computed *inside* one
//! round and the best round's value is reported. Per-op minima across rounds
//! are never taken: that would erase a flush-induced tail.

use crate::catalog::Better;

/// A tail percentile is reported only if at least this many samples of the
/// round lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentiles the benchmark names, highest first. A round that
/// cannot support one falls back to the next; the median needs no support.
const LADDER: [u32; 3] = [99, 90, 50];

/// Nearest-rank index of percentile `p` (1..=99) in `n` sorted samples.
fn rank(n: usize, p: u32) -> usize {
    debug_assert!(n > 0 && (1..100).contains(&p));
    ((n * p as usize).div_ceil(100)).max(1) - 1
}

/// Can `n` samples support percentile `p`? The median always can; a tail
/// needs [`TAIL_MIN_BEYOND`] samples above its rank.
pub fn supports(n: usize, p: u32) -> bool {
    n > 0 && (p <= 50 || n - (rank(n, p) + 1) >= TAIL_MIN_BEYOND)
}

/// Percentile `p` of an ascending-sorted round, or `None` when the sample
/// cannot support it.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    supports(sorted.len(), p).then(|| sorted[rank(sorted.len(), p)])
}

/// The highest percentile not above `p` that the round supports, with the
/// percentile actually used. `op_ms_p99` of a 100-op round is its p90.
pub fn percentile_clamped(sorted: &[f64], p: u32) -> Option<(f64, u32)> {
    LADDER.iter().filter(|&&q| q <= p).find_map(|&q| percentile(sorted, q).map(|v| (v, q)))
}

/// One measured round: per-op latency in op order, and the round's wall.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
}

impl Round {
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.lat_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Ops completed per second of round wall, all client threads together.
    pub fn ops_per_s(&self) -> f64 {
        ops_per_s(self.lat_ms.len(), self.wall_s)
    }
}

pub fn ops_per_s(ops: usize, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        ops as f64 / wall_s
    } else {
        0.0
    }
}

/// The best of the per-round values of one metric.
pub fn best(values: impl IntoIterator<Item = f64>, better: Better) -> Option<f64> {
    values.into_iter().reduce(|a, b| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    })
}

/// Best-round percentile `p` (clamped per round) over `rounds`, with the
/// percentile used and the per-round sample count.
pub fn best_percentile(rounds: &[Round], p: u32) -> Option<(f64, u32, usize)> {
    let per_round: Vec<(f64, u32)> =
        rounds.iter().filter_map(|r| percentile_clamped(&r.sorted(), p)).collect();
    let used = per_round.first()?.1;
    let v = best(per_round.iter().map(|x| x.0), Better::Lower)?;
    Some((v, used, rounds[0].lat_ms.len()))
}

/// The middle value; the mean of the two middle values for an even count
/// (with two rounds, nearest rank would always name the better one).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// `median round wall ÷ best round wall − 1`: how far a typical round sat
/// above the best one. Large means the box was busy during the run.
pub fn round_spread_ratio(rounds: &[Round]) -> f64 {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    match (median(&walls), best(walls.iter().copied(), Better::Lower)) {
        (Some(m), Some(b)) if b > 0.0 => m / b - 1.0,
        _ => 0.0,
    }
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, starting with a letter or
/// digit, at most 64 characters. Applied to every emitted name.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        let v = ramp(5);
        assert_eq!(percentile(&v, 50), Some(3.0));
        assert_eq!(percentile(&[7.5], 50), Some(7.5));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly ten beyond it, p99 has one.
        assert!(supports(100, 90));
        assert!(!supports(100, 99));
        assert!(!supports(99, 90)); // rank 90 of 99 leaves nine beyond
        assert!(supports(1000, 99)); // rank 990 leaves ten
        assert!(!supports(999, 99));
        assert!(supports(1200, 99) && supports(3000, 99));
        assert!(!supports(24, 90) && supports(24, 50));
        assert_eq!(percentile(&ramp(100), 99), None);
        assert_eq!(percentile(&ramp(1200), 99), Some(1188.0));
    }

    #[test]
    fn an_unsupported_tail_falls_back_down_the_ladder() {
        assert_eq!(percentile_clamped(&ramp(3000), 99), Some((2970.0, 99)));
        assert_eq!(percentile_clamped(&ramp(100), 99), Some((90.0, 90)));
        assert_eq!(percentile_clamped(&ramp(24), 99), Some((12.0, 50)));
        assert_eq!(percentile_clamped(&ramp(24), 90), Some((12.0, 50)));
        assert_eq!(percentile_clamped(&[], 99), None);
    }

    #[test]
    fn best_round_wins_per_metric_not_per_op() {
        // Round a has the better median, round b the better tail; the two
        // metrics may come from different rounds, but never from a mix of
        // per-op minima (which would be p50 = 1, tail = 2 here).
        let mut a = vec![1.0; 60];
        a.extend(vec![9.0; 40]);
        let mut b = vec![2.0; 60];
        b.extend(vec![3.0; 40]);
        let rounds = [Round { lat_ms: a, wall_s: 2.0 }, Round { lat_ms: b, wall_s: 1.0 }];
        assert_eq!(best_percentile(&rounds, 50), Some((1.0, 50, 100)));
        assert_eq!(best_percentile(&rounds, 90), Some((3.0, 90, 100)));
        assert_eq!(best_percentile(&rounds, 99), Some((3.0, 90, 100)));
        assert_eq!(best(rounds.iter().map(Round::ops_per_s), Better::Higher), Some(100.0));
        assert_eq!(best([3.0, 1.0, 2.0], Better::Lower), Some(1.0));
        assert_eq!(best(std::iter::empty(), Better::Lower), None);
    }

    #[test]
    fn throughput_comes_from_the_round_wall() {
        assert_eq!(ops_per_s(3000, 1.5), 2000.0);
        assert_eq!(ops_per_s(10, 0.0), 0.0);
        // two threads, 1 ms ops, 0.5 s wall: 1000 ops => 2000 ops/s, not
        // the 1000/s that summing per-op latencies would give
        let r = Round { lat_ms: vec![1.0; 1000], wall_s: 0.5 };
        assert_eq!(r.ops_per_s(), 2000.0);
    }

    #[test]
    fn round_spread_is_median_over_best() {
        let mk = |w: f64| Round { lat_ms: vec![1.0], wall_s: w };
        let rounds = [mk(1.0), mk(1.2), mk(1.1), mk(1.5), mk(1.3)];
        assert!((round_spread_ratio(&rounds) - 0.2).abs() < 1e-12);
        assert!((round_spread_ratio(&[mk(1.1), mk(1.0)]) - 0.05).abs() < 1e-12);
        assert_eq!(round_spread_ratio(&[mk(2.0)]), 0.0);
        assert_eq!(round_spread_ratio(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["op_ms_p50", "sp.prove_ms", "1/s".replace('/', "_").as_str(), "a-b.c_d9"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "-x", "has space", "slash/name", "ünï", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
