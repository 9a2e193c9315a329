//! Workspace-level property-based tests on the core invariants, using a
//! cheap shared accumulator key so proptest can afford pairing checks.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain::acc::{Acc1, Acc2, Accumulator, MultiSet};
use vchain::chain::Object;
use vchain::core::element::ElementId;
use vchain::core::query::{object_multiset, Query, RangeSpec};

fn acc1() -> Acc1 {
    static A: OnceLock<Acc1> = OnceLock::new();
    A.get_or_init(|| Acc1::keygen(128, &mut StdRng::seed_from_u64(1))).clone()
}

fn acc2() -> Acc2 {
    static A: OnceLock<Acc2> = OnceLock::new();
    A.get_or_init(|| Acc2::keygen(8192, &mut StdRng::seed_from_u64(2))).clone()
}

/// Element multisets drawn from a keyword universe disjoint from other
/// tests ("pp:<n>").
fn ms_strategy(max_len: usize) -> impl Strategy<Value = MultiSet<ElementId>> {
    proptest::collection::vec(0u32..40, 0..max_len)
        .prop_map(|ids| ids.into_iter().map(|i| ElementId::keyword(&format!("pp:{i}"))).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn acc1_disjoint_proofs_round_trip(
        a in ms_strategy(8),
        b_ids in proptest::collection::vec(100u32..140, 1..4),
    ) {
        let acc = acc1();
        let b: MultiSet<ElementId> =
            b_ids.into_iter().map(|i| ElementId::keyword(&format!("pp:{i}"))).collect();
        // a uses ids < 40, b uses ids >= 100 => always disjoint
        let proof = acc.prove_disjoint(&a, &b).unwrap();
        prop_assert!(acc.verify_disjoint(&acc.setup(&a), &acc.setup(&b), &proof));
        // A proof must not transfer to a modified right-hand set — *unless*
        // `a` is empty: then the Bézout witness is (1, 0), and the empty
        // set is genuinely disjoint from every set, so transfer is sound.
        if !a.is_empty() {
            let mut b2 = b.clone();
            b2.insert(ElementId::keyword("pp:999"));
            prop_assert!(!acc.verify_disjoint(&acc.setup(&a), &acc.setup(&b2), &proof));
        }
    }

    #[test]
    fn acc2_sum_homomorphism(a in ms_strategy(6), b in ms_strategy(6)) {
        let acc = acc2();
        let direct = acc.setup(&a.sum(&b));
        let aggregated = acc.sum(&[acc.setup(&a), acc.setup(&b)]).unwrap();
        prop_assert_eq!(direct, aggregated);
    }

    #[test]
    fn object_multiset_reflects_matching(
        price in 0u64..256,
        lo in 0u64..256,
        hi in 0u64..256,
        kw in 0u32..6,
        qkw in 0u32..6,
    ) {
        prop_assume!(lo <= hi);
        let o = Object::new(1, 5, vec![price], vec![format!("pk:{kw}")]);
        let q = Query {
            time_window: None,
            ranges: vec![RangeSpec { dim: 0, lo, hi }],
            keywords: vec![vec![format!("pk:{qkw}")]],
        }.compile(8);
        let direct = price >= lo && price <= hi && kw == qkw;
        prop_assert_eq!(q.object_matches(&o), direct);
        // CNF evaluation agrees with find_disjoint_clause
        let ms = object_multiset(&o, 8);
        prop_assert_eq!(q.cnf.find_disjoint_clause(&ms).is_none(), q.cnf.matches(&ms));
    }

    #[test]
    fn projective_and_affine_miller_loops_agree(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        use vchain::pairing::{pairing, pairing_impl, G1Projective, G2Projective};
        // The production (projective, inversion-free) Miller loop and the
        // retained affine reference differ in raw Fp12 output only by
        // subfield line scalings; the final exponentiation must erase them.
        let p = G1Projective::generator().mul_u64(a).to_affine();
        let q = G2Projective::generator().mul_u64(b).to_affine();
        prop_assert_eq!(pairing(&p, &q), pairing_impl::affine::pairing(&p, &q));
    }

    #[test]
    fn cached_and_cold_proofs_byte_match(
        a in ms_strategy(6),
        b_ids in proptest::collection::vec(100u32..140, 1..4),
    ) {
        use vchain::core::cache::{ProofCache, ProofRequest};
        let acc = acc2();
        let b: MultiSet<ElementId> =
            b_ids.into_iter().map(|i| ElementId::keyword(&format!("pp:{i}"))).collect();
        // ids < 40 vs ids >= 100 => always disjoint
        let att = acc.setup(&a);
        let cache: ProofCache<Acc2> = ProofCache::new(16);
        // two overlapping windows replay the same (value, clause) pair: the
        // first query proves cold, the second hits the cache — the proofs
        // must serialize identically (and match a cache-free derivation).
        let w1 = acc.prove_disjoint(&a, &b).unwrap();
        let ask = || vec![ProofRequest::node::<Acc2>(&att, &a, b.clone())];
        let cold = cache.resolve(&acc, ask()).remove(0).unwrap();
        let warm = cache.resolve(&acc, ask()).remove(0).unwrap();
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cold.as_bytes(), warm.as_bytes());
        prop_assert_eq!(Acc2::proof_bytes(&w1), warm.as_bytes());
    }

    #[test]
    fn multiset_algebra(xs in proptest::collection::vec(0u64..30, 0..20),
                        ys in proptest::collection::vec(0u64..30, 0..20)) {
        let a: MultiSet<u64> = xs.iter().map(|x| x + 1).collect();
        let b: MultiSet<u64> = ys.iter().map(|y| y + 1).collect();
        // sum cardinality adds; union support is the max
        prop_assert_eq!(a.sum(&b).total_count(), a.total_count() + b.total_count());
        let u = a.union(&b);
        for e in a.elements().chain(b.elements()) {
            prop_assert!(u.contains(e));
            prop_assert_eq!(u.count(e), a.count(e).max(b.count(e)));
        }
        // disjointness is symmetric and consistent with intersection size
        prop_assert_eq!(a.is_disjoint(&b), b.is_disjoint(&a));
        prop_assert_eq!(a.is_disjoint(&b), a.intersection_size(&b) == 0);
    }
}
