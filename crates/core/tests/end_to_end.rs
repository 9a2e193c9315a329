//! End-to-end pipeline tests: miner → service provider → light-client
//! verification, across index schemes and both accumulator constructions,
//! including adversarial-SP cases (paper §8's unforgeability experiment,
//! run literally).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc1, Acc2, Accumulator};
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query, RangeSpec};
use vchain_core::sp::ServiceProvider;
use vchain_core::verify::{verify_response, VerifyError};
use vchain_core::vo::{BlockCoverage, MismatchProof, QueryResponse, VoNode};
use vchain_core::wire::encode_response_v2;

const DOMAIN_BITS: u8 = 6;

fn cfg(scheme: IndexScheme) -> MinerConfig {
    MinerConfig {
        scheme,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    }
}

/// Deterministic mini-workload: 12 blocks × 4 objects with two numeric dims
/// and car-ish keywords.
fn workload(seed: u64) -> Vec<Vec<Object>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi", "Toyota"];
    let mut id = 0;
    (0..12)
        .map(|b| {
            (0..4)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b as u64 + 1) * 10,
                        vec![rng.gen_range(0..64), rng.gen_range(0..64)],
                        vec![
                            kinds[rng.gen_range(0..kinds.len())].to_string(),
                            brands[rng.gen_range(0..brands.len())].to_string(),
                        ],
                    )
                })
                .collect()
        })
        .collect()
}

fn build_chain<A: Accumulator>(scheme: IndexScheme, acc: A) -> (Miner<A>, LightClient) {
    let c = cfg(scheme);
    let mut miner = Miner::new(c, acc);
    let mut light = LightClient::new(c.difficulty);
    for (i, objs) in workload(7).into_iter().enumerate() {
        miner.mine_block((i as u64 + 1) * 10, objs);
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    (miner, light)
}

fn sample_query() -> Query {
    Query {
        time_window: Some((20, 90)),
        ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
        keywords: vec![vec!["Sedan".into(), "Van".into()], vec!["Benz".into(), "BMW".into()]],
    }
}

/// Ground truth by naive scan over the full chain.
fn naive_results<A: Accumulator>(miner: &Miner<A>, q: &Query) -> Vec<u64> {
    let cq = q.compile(DOMAIN_BITS);
    let mut ids: Vec<u64> = miner
        .store()
        .blocks()
        .iter()
        .flat_map(|b| b.objects.iter())
        .filter(|o| cq.object_matches(o))
        .map(|o| o.id)
        .collect();
    ids.sort_unstable();
    ids
}

fn run_roundtrip<A: Accumulator>(scheme: IndexScheme, acc: A) {
    let (miner, light) = build_chain(scheme, acc.clone());
    let q = sample_query();
    let expected = naive_results(&miner, &q);
    let cq = q.compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let resp = sp.time_window_query(&cq);
    assert!(!encode_response_v2(&resp).is_empty());
    let verified =
        verify_response(&cq, &resp, &light, &sp.cfg, &sp.acc).expect("honest SP must verify");
    let mut got: Vec<u64> = verified.iter().map(|o| o.id).collect();
    got.sort_unstable();
    assert_eq!(got, expected, "verified results must equal the naive scan");
}

#[test]
fn roundtrip_acc1_nil() {
    run_roundtrip(IndexScheme::Nil, Acc1::keygen(600, &mut StdRng::seed_from_u64(1)));
}

#[test]
fn roundtrip_acc1_intra() {
    run_roundtrip(IndexScheme::Intra, Acc1::keygen(600, &mut StdRng::seed_from_u64(2)));
}

#[test]
fn roundtrip_acc1_both() {
    run_roundtrip(IndexScheme::Both, Acc1::keygen(4000, &mut StdRng::seed_from_u64(3)));
}

#[test]
fn roundtrip_acc2_nil() {
    run_roundtrip(IndexScheme::Nil, Acc2::keygen(4096, &mut StdRng::seed_from_u64(4)));
}

#[test]
fn roundtrip_acc2_both_with_batch() {
    run_roundtrip(IndexScheme::Both, Acc2::keygen(4096, &mut StdRng::seed_from_u64(5)));
}

#[test]
fn skips_actually_occur_under_both() {
    // A very selective query over a long window must trigger skip coverage.
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(6));
    let (miner, light) = build_chain(IndexScheme::Both, acc);
    let q = Query {
        time_window: Some((10, 120)),
        ranges: vec![],
        keywords: vec![vec!["NoSuchKeyword".into()]],
    };
    let cq = q.compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let resp = sp.time_window_query(&cq);
    let skips = resp.coverage.iter().filter(|c| matches!(c, BlockCoverage::Skip { .. })).count();
    assert!(skips > 0, "expected inter-block skips for an all-mismatch query");
    let verified = verify_response(&cq, &resp, &light, &sp.cfg, &sp.acc).unwrap();
    assert!(verified.is_empty());
}

#[test]
fn parallel_overlapping_windows_verify_and_hit_the_cache() {
    // Overlapping windows answered through one SP must verify, share proofs
    // via the SP's cache, and produce byte-identical proofs warm vs cold.
    // (Parallel answers equal sequential ones: `shard_concurrency`.)
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(16));
    let (miner, light) = build_chain(IndexScheme::Both, acc);
    let sp = miner.into_service_provider();
    let windows: Vec<_> = [(10u64, 70u64), (20, 80), (30, 90), (10, 90)]
        .iter()
        .map(|&(lo, hi)| {
            Query {
                time_window: Some((lo, hi)),
                ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
                keywords: vec![vec!["Sedan".into()], vec!["Benz".into(), "BMW".into()]],
            }
            .compile(DOMAIN_BITS)
        })
        .collect();
    let answer_all = || windows.iter().map(|q| sp.time_window_query(q)).collect::<Vec<_>>();
    let cold = answer_all();
    for (cq, resp) in windows.iter().zip(&cold) {
        verify_response(cq, resp, &light, &sp.cfg, &sp.acc).expect("answers verify");
    }
    let after_first = sp.proof_cache().stats();
    assert!(after_first.hits > 0, "overlapping windows must share cached proofs");
    // a warm second pass answers from the cache and byte-matches
    let warm = answer_all();
    let grew = sp.proof_cache().stats();
    assert_eq!(grew.misses, after_first.misses, "warm pass must not prove anything new");
    for ((cq, cold), warm) in windows.iter().zip(&cold).zip(&warm) {
        assert_eq!(encode_response_v2(cold), encode_response_v2(warm));
        let a = verify_response(cq, cold, &light, &sp.cfg, &sp.acc).unwrap();
        let b = verify_response(cq, warm, &light, &sp.cfg, &sp.acc).unwrap();
        assert_eq!(
            a.iter().map(|o| o.id).collect::<Vec<_>>(),
            b.iter().map(|o| o.id).collect::<Vec<_>>()
        );
    }
}

/// Where a response's disjointness proofs sit: the three SP proving sites.
#[derive(Debug, Default)]
struct ProofSites {
    /// Member count of every §6.3 group of every block VO.
    group_members: Vec<usize>,
    /// Inline mismatch proofs.
    inline: usize,
    /// Skip entries.
    skips: usize,
}

impl ProofSites {
    fn of<A: Accumulator>(resp: &QueryResponse<A>) -> Self {
        fn walk<A: Accumulator>(n: &VoNode<A>, members: &mut [usize], inline: &mut usize) {
            match n {
                VoNode::Internal { left, right, .. } => {
                    walk(left, members, inline);
                    walk(right, members, inline);
                }
                VoNode::InternalMismatch { proof, .. } | VoNode::LeafMismatch { proof, .. } => {
                    match proof {
                        MismatchProof::Group(id) => members[*id as usize] += 1,
                        MismatchProof::Inline { .. } => *inline += 1,
                    }
                }
                VoNode::LeafMatch { .. } => {}
            }
        }
        let mut sites = Self::default();
        for cov in &resp.coverage {
            match cov {
                BlockCoverage::Block { vo, .. } => {
                    let mut members = vec![0; vo.groups.len()];
                    walk(&vo.root, &mut members, &mut sites.inline);
                    sites.group_members.extend(members);
                }
                BlockCoverage::Skip { .. } => sites.skips += 1,
            }
        }
        sites
    }

    /// A group of ≥ 2 members, a one-member group and a skip entry.
    fn has_all_three(&self) -> bool {
        self.group_members.iter().any(|&m| m >= 2)
            && self.group_members.contains(&1)
            && self.skips > 0
    }
}

/// Solve, over queries derived from the chain's own objects (each object's
/// two keywords as two clauses, a narrow range around its first value), for
/// one whose whole-chain response reaches all three proving sites at once.
fn three_site_query(sp: &ServiceProvider<Acc2>) -> CompiledQuery {
    let objects = sp.store().blocks().iter().flat_map(|b| b.objects.iter());
    let candidates = objects.map(|o| {
        Query {
            time_window: Some((10, 120)),
            ranges: vec![RangeSpec {
                dim: 0,
                lo: o.numeric[0].saturating_sub(6),
                hi: (o.numeric[0] + 6).min(63),
            }],
            keywords: o.keywords.iter().map(|k| vec![k.clone()]).collect(),
        }
        .compile(DOMAIN_BITS)
    });
    candidates
        .into_iter()
        .find(|q| ProofSites::of(&sp.time_window_query(q)).has_all_three())
        .expect("some object-derived query reaches a ≥2-member group, a 1-member group and a skip")
}

/// Look up, then sum: a fully warm time-window query finds every proof —
/// §6.3 groups included — under a key built from digests the walk already
/// holds, so it performs no curve arithmetic (a `Sum` of member digests
/// costs two field inversions per group), proves nothing, and returns the
/// bytes the cold query returned.
#[test]
fn warm_query_pays_no_field_inversion_and_no_miss() {
    use vchain_pairing::stats::field_inversions;
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(17));
    let (miner, light) = build_chain(IndexScheme::Both, acc);
    let sp = miner.into_service_provider();
    let q = three_site_query(&sp);
    sp.proof_cache().clear();

    let cold = sp.time_window_query(&q);
    let sites = ProofSites::of(&cold);
    assert!(sites.has_all_three(), "{sites:?}");
    let after_cold = sp.proof_cache().stats();
    assert_eq!(after_cold.misses as usize, sites.group_members.len() + sites.skips);

    let inversions = field_inversions();
    let warm = sp.time_window_query(&q);
    assert_eq!(field_inversions() - inversions, 0, "a warm query does no curve arithmetic");
    let after_warm = sp.proof_cache().stats();
    assert_eq!(after_warm.misses, after_cold.misses, "a warm query proves nothing");
    assert_eq!(after_warm.hits - after_cold.hits, after_cold.misses);
    assert_eq!(encode_response_v2(&warm), encode_response_v2(&cold));
    verify_response(&q, &warm, &light, &sp.cfg, &sp.acc).expect("warm answer verifies");
}

/// Grouping is derived, not set: over the same chain and the same query an
/// aggregating accumulator's time-window VO refutes clauses only through
/// §6.3 groups, a non-aggregating one's only inline.
#[test]
fn clause_refutations_group_exactly_when_the_accumulator_aggregates() {
    let (miner2, light2) =
        build_chain(IndexScheme::Both, Acc2::keygen(4096, &mut StdRng::seed_from_u64(18)));
    let sp2 = miner2.into_service_provider();
    let q = three_site_query(&sp2);
    let resp2 = sp2.time_window_query(&q);
    let sites2 = ProofSites::of(&resp2);
    assert!(sites2.has_all_three(), "{sites2:?}");
    assert_eq!(sites2.inline, 0, "Acc2 aggregates: no inline clause refutation, {sites2:?}");
    verify_response(&q, &resp2, &light2, &sp2.cfg, &sp2.acc).expect("grouped VO verifies");

    let (miner1, light1) =
        build_chain(IndexScheme::Both, Acc1::keygen(4000, &mut StdRng::seed_from_u64(19)));
    let sp1 = miner1.into_service_provider();
    let resp1 = sp1.time_window_query(&q);
    let sites1 = ProofSites::of(&resp1);
    assert!(sites1.group_members.is_empty(), "Acc1 cannot aggregate, {sites1:?}");
    assert_eq!(sites1.inline, sites2.group_members.iter().sum::<usize>(), "same pruned nodes");
    assert_eq!(sites1.skips, sites2.skips, "same skips");
    verify_response(&q, &resp1, &light1, &sp1.cfg, &sp1.acc).expect("inline VO verifies");
}

#[test]
fn adversarial_sp_is_caught() {
    let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(8));
    let (miner, light) = build_chain(IndexScheme::Intra, acc);
    let q = sample_query();
    let cq = q.compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let honest = sp.time_window_query(&cq);
    assert!(verify_response(&cq, &honest, &light, &sp.cfg, &sp.acc).is_ok());
    assert!(honest.result_count() > 0, "need at least one result for the tampering cases below");

    // Case 1 (soundness): tamper with a returned object's payload.
    let mut tampered = honest.clone();
    tampered.results[0].1[0].numeric[0] ^= 1;
    let e = verify_response(&cq, &tampered, &light, &sp.cfg, &sp.acc).unwrap_err();
    assert!(
        matches!(e, VerifyError::RootMismatch { .. } | VerifyError::ResultNotMatching { .. }),
        "tampered object must be rejected, got {e:?}"
    );

    // Case 2 (soundness): smuggle in an object that does not satisfy q.
    let mut smuggled = honest.clone();
    let alien = Object::new(999_999, 25, vec![63, 63], vec!["Truck".into(), "Toyota".into()]);
    smuggled.results[0].1.push(alien);
    assert!(verify_response(&cq, &smuggled, &light, &sp.cfg, &sp.acc).is_err());

    // Case 3 (completeness): drop an entire covered block.
    let mut dropped = honest.clone();
    dropped.coverage.remove(0);
    let e = verify_response(&cq, &dropped, &light, &sp.cfg, &sp.acc).unwrap_err();
    assert!(matches!(e, VerifyError::MissingCoverage { .. }), "got {e:?}");

    // Case 4 (completeness): drop a result but keep its coverage.
    let mut hidden = honest.clone();
    hidden.results[0].1.remove(0);
    assert!(verify_response(&cq, &hidden, &light, &sp.cfg, &sp.acc).is_err());

    // Case 5: empty response claims nothing matched.
    let empty: QueryResponse<Acc1> = QueryResponse { results: vec![], coverage: vec![] };
    let e = verify_response(&cq, &empty, &light, &sp.cfg, &sp.acc).unwrap_err();
    assert!(matches!(e, VerifyError::MissingCoverage { .. }));
}

#[test]
fn proof_swapped_between_clauses_fails() {
    // A proof made against one clause must not verify for another: swap the
    // clause reference inside a mismatch VO node.
    let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(9));
    let (miner, light) = build_chain(IndexScheme::Intra, acc);
    // query with two clauses having different content
    let q = Query {
        time_window: Some((20, 90)),
        ranges: vec![],
        keywords: vec![vec!["Sedan".into()], vec!["Benz".into()]],
    };
    let cq = q.compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let mut resp = sp.time_window_query(&cq);

    fn flip_clause<A: Accumulator>(n: &mut VoNode<A>) -> bool {
        match n {
            VoNode::Internal { left, right, .. } => flip_clause(left) || flip_clause(right),
            VoNode::InternalMismatch { proof, .. } | VoNode::LeafMismatch { proof, .. } => {
                if let MismatchProof::Inline {
                    clause: vchain_core::vo::ClauseRef::Index(i), ..
                } = proof
                {
                    *i ^= 1; // swap clause 0 <-> 1
                    return true;
                }
                false
            }
            _ => false,
        }
    }

    let mut flipped = false;
    for cov in &mut resp.coverage {
        if let BlockCoverage::Block { vo, .. } = cov {
            if flip_clause(&mut vo.root) {
                flipped = true;
                break;
            }
        }
    }
    assert!(flipped, "expected at least one inline mismatch proof to attack");
    assert!(verify_response(&cq, &resp, &light, &sp.cfg, &sp.acc).is_err());
}

#[test]
fn vo_size_smaller_with_intra_index_on_clustered_data() {
    // Clustered objects => intra index prunes subtrees => smaller VO than nil.
    let mk = |scheme| {
        let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(10));
        let c = cfg(scheme);
        let mut miner = Miner::new(c, acc);
        // homogeneous blocks: all objects share keywords => great clustering
        for b in 0..6u64 {
            let objs: Vec<Object> = (0..8)
                .map(|i| Object::new(b * 8 + i, (b + 1) * 10, vec![10], vec!["CommonKw".into()]))
                .collect();
            miner.mine_block((b + 1) * 10, objs);
        }
        miner.into_service_provider()
    };
    let q = Query {
        time_window: Some((10, 60)),
        ranges: vec![],
        keywords: vec![vec!["Absent".into()]],
    }
    .compile(DOMAIN_BITS);
    let sp_nil = mk(IndexScheme::Nil);
    let sp_intra = mk(IndexScheme::Intra);
    let vo_nil = encode_response_v2(&sp_nil.time_window_query(&q)).len();
    let vo_intra = encode_response_v2(&sp_intra.time_window_query(&q)).len();
    assert!(
        vo_intra < vo_nil,
        "intra index must shrink the VO on clustered data: {vo_intra} vs {vo_nil}"
    );
}

#[test]
fn empty_window_verifies_trivially() {
    let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(11));
    let (miner, light) = build_chain(IndexScheme::Intra, acc);
    let q = Query {
        time_window: Some((5000, 6000)),
        ranges: vec![],
        keywords: vec![vec!["Sedan".into()]],
    };
    let cq = q.compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let resp = sp.time_window_query(&cq);
    assert_eq!(resp.coverage.len(), 0);
    let verified = verify_response(&cq, &resp, &light, &sp.cfg, &sp.acc).unwrap();
    assert!(verified.is_empty());
}
