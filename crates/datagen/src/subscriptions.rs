//! Standing-query (subscription) workload generator.
//!
//! Time-window queries are sampled per experiment; subscriptions are
//! *registered once and matched forever*, so their statistical shape is what
//! the subscription index lives or dies by: how many distinct clause
//! contents exist (the BCIF sharing pool), how many distinct literals the
//! posting lists carry, and how skewed the popularity of both is. This
//! module generates those populations at the 10⁵–10⁶ scale under two
//! profiles:
//!
//! * [`SkewProfile::Zipf`] — the realistic shape: clause contents drawn
//!   from a bounded pool with Zipf popularity (few hot clauses shared by
//!   thousands of queries, a long tail of rare ones), grid-aligned
//!   power-of-two ranges so the prefix cover of every range is a single
//!   literal and the distinct-literal population stays bounded.
//! * [`SkewProfile::Adversarial`] — attribute skew designed against the
//!   index: one scorching clause every query shares (posting lists of
//!   length Q), *ghost* keywords no block ever carries (probes that must
//!   miss), and stacked single-cell ranges (the interval index degenerates
//!   to one bucket).
//!
//! Both profiles are deterministic in `(spec, n)` and name keywords through
//! [`Dataset::keyword`], so generated subscriptions actually collide with
//! the block streams of [`crate::workload`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_core::query::{Query, RangeSpec};

use crate::workload::Dataset;
use crate::zipf::Zipf;

/// The two standing-query population shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkewProfile {
    /// Bounded clause pool with Zipf popularity; grid-aligned ranges.
    Zipf,
    /// Hot shared clause + ghost keywords + stacked single-cell ranges.
    Adversarial,
}

/// Generation parameters for a standing-query population.
#[derive(Clone, Debug)]
pub struct SubscriptionSpec {
    /// Keyword naming and dimensionality follow this dataset.
    pub dataset: Dataset,
    /// Numeric dimension width in bits (must match the miner's).
    pub domain_bits: u8,
    /// Keyword vocabulary size (ranks `0..vocab` appear in block streams;
    /// ghost keywords use ranks `vocab..`).
    pub vocab: usize,
    /// Zipf exponent for keyword and clause popularity.
    pub skew: f64,
    /// Which population shape to generate.
    pub profile: SkewProfile,
    /// Number of distinct keyword clauses in the pool (the BCIF effect:
    /// `n` queries share at most this many keyword-clause contents).
    pub clause_pool: usize,
    /// Keywords per disjunctive clause.
    pub clause_size: usize,
    /// Fraction of queries that also carry range predicates.
    pub range_fraction: f64,
    /// log₂ of the range width; ranges are aligned to multiples of the
    /// width, so each one covers exactly one binary prefix.
    pub range_bits: u8,
    /// Dimensions touched by each range predicate.
    pub dims_per_query: usize,
    /// RNG seed; `(spec, n)` fully determines the output.
    pub seed: u64,
}

impl SubscriptionSpec {
    /// Defaults matched to [`crate::workload::WorkloadSpec::paper_defaults`]
    /// for the same dataset: same vocabulary and skew, selective ranges
    /// (width `2^(domain_bits-5)`, ~3 % of the domain per dimension).
    pub fn paper_defaults(dataset: Dataset, profile: SkewProfile) -> Self {
        let base = crate::workload::WorkloadSpec::paper_defaults(dataset, 1);
        Self {
            dataset,
            domain_bits: base.domain_bits,
            vocab: base.vocab,
            skew: base.skew,
            profile,
            clause_pool: 512,
            clause_size: base.bool_size.max(1),
            range_fraction: 0.5,
            range_bits: base.domain_bits.saturating_sub(5).max(1),
            dims_per_query: base.dims_per_query,
            seed: base.seed ^ 0x5BB5,
        }
    }

    /// Generate `n` subscription queries (no time windows).
    pub fn generate(&self, n: usize) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let kw_zipf = Zipf::new(self.vocab, self.skew);
        let pool: Vec<Vec<String>> =
            (0..self.clause_pool.max(1)).map(|_| self.clause(&mut rng, &kw_zipf)).collect();
        let pool_zipf = Zipf::new(pool.len(), self.skew.max(0.5));
        (0..n)
            .map(|i| match self.profile {
                SkewProfile::Zipf => {
                    let ranges = if rng.gen::<f64>() < self.range_fraction {
                        self.aligned_ranges(&mut rng)
                    } else {
                        Vec::new()
                    };
                    let kws = pool[pool_zipf.sample(&mut rng)].clone();
                    Query { time_window: None, ranges, keywords: vec![kws] }
                }
                SkewProfile::Adversarial => match i % 3 {
                    // Every third query shares the single hottest clause:
                    // its posting lists grow with Q.
                    0 => Query {
                        time_window: None,
                        ranges: Vec::new(),
                        keywords: vec![pool[0].clone()],
                    },
                    // Ghost clauses: keywords with ranks past the
                    // vocabulary, so no block stream ever carries them and
                    // no block's multiset reaches their posting lists.
                    1 => {
                        let ghost = (0..self.clause_size)
                            .map(|_| {
                                self.dataset.keyword(self.vocab + rng.gen_range(0..self.vocab))
                            })
                            .collect();
                        Query { time_window: None, ranges: Vec::new(), keywords: vec![ghost] }
                    }
                    // Stacked ranges: everyone crowds the same aligned
                    // window (same grid cell, same cover prefix), plus a
                    // pooled clause so matching stays non-trivial.
                    _ => {
                        let width = 1u64 << self.range_bits.min(self.domain_bits);
                        let ranges = (0..self.dims_per_query.max(1))
                            .map(|d| RangeSpec { dim: d as u8, lo: 0, hi: width - 1 })
                            .collect();
                        let kws = pool[pool_zipf.sample(&mut rng)].clone();
                        Query { time_window: None, ranges, keywords: vec![kws] }
                    }
                },
            })
            .collect()
    }

    fn clause(&self, rng: &mut StdRng, zipf: &Zipf) -> Vec<String> {
        let size = self.clause_size.min(self.vocab).max(1);
        let mut kws = Vec::with_capacity(size);
        while kws.len() < size {
            let k = self.dataset.keyword(zipf.sample(rng));
            if !kws.contains(&k) {
                kws.push(k);
            }
        }
        kws
    }

    fn aligned_ranges(&self, rng: &mut StdRng) -> Vec<RangeSpec> {
        let bits = self.range_bits.min(self.domain_bits);
        let width = 1u64 << bits;
        let cells = 1u64 << (self.domain_bits - bits);
        (0..self.dims_per_query.max(1))
            .map(|d| {
                let lo = rng.gen_range(0..cells) * width;
                RangeSpec { dim: d as u8, lo, hi: lo + width - 1 }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generation_is_deterministic() {
        let spec = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
        assert_eq!(spec.generate(200), spec.generate(200));
    }

    #[test]
    fn zipf_profile_bounds_clause_contents() {
        let spec = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
        let qs = spec.generate(5_000);
        let contents: BTreeSet<Vec<String>> =
            qs.iter().flat_map(|q| q.keywords.iter().cloned()).collect();
        assert!(contents.len() <= spec.clause_pool);
        for q in &qs {
            assert!(q.time_window.is_none());
            for r in &q.ranges {
                let width = r.hi - r.lo + 1;
                assert_eq!(width, 1 << spec.range_bits, "power-of-two width");
                assert_eq!(r.lo % width, 0, "aligned to the grid");
            }
        }
    }

    #[test]
    fn adversarial_profile_has_ghosts_and_a_hot_clause() {
        let spec = SubscriptionSpec::paper_defaults(Dataset::Weather, SkewProfile::Adversarial);
        let qs = spec.generate(300);
        let hot = &qs[0].keywords[0];
        let hot_count = qs.iter().filter(|q| &q.keywords[0] == hot).count();
        assert!(hot_count >= 100, "a third of the population shares one clause");
        // ghost ranks sit past the vocabulary: wx:{vocab}..
        let ghosts = qs
            .iter()
            .flat_map(|q| q.keywords[0].iter())
            .filter(|k| {
                k.strip_prefix("wx:")
                    .and_then(|r| r.parse::<usize>().ok())
                    .is_some_and(|r| r >= spec.vocab)
            })
            .count();
        assert!(ghosts > 0, "ghost keywords present");
    }
}
