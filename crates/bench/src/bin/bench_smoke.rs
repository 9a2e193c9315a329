//! Machine-readable perf smoke: times what `vbench` cannot see from outside
//! — the field / curve / pairing / accumulator primitives and the same-run
//! reference twins — and writes the results as JSON so the perf trajectory
//! is tracked across PRs (CI uploads the file as an artifact). Every row is
//! a time in µs; whole-system numbers (latency, throughput, bytes per
//! query) are `vbench`'s.
//!
//! ```text
//! bench_smoke [output.json]     # default output: BENCH_pairing.json
//! ```
//!
//! Each entry records the number of iterations and the mean wall-clock
//! microseconds per iteration. Iteration counts are fixed (not adaptive) so
//! runs are comparable and cheap enough for CI.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::poly::naive;
use vchain_acc::{Acc2, AccElem, Accumulator, MultiSet};
use vchain_bench::{build_chain, shared_acc1, shared_acc2};
use vchain_core::cache::ProofCache;
use vchain_core::inter::SkipList;
use vchain_core::intra::IntraTree;
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::subscribe::{SubscriptionEngine, SubscriptionMode, WalkStrategy};
use vchain_datagen::{Dataset, SkewProfile, SubscriptionSpec, WorkloadSpec};
use vchain_pairing::{
    final_exponentiation, full_order_check, g1_subgroup_check, g2_subgroup_check,
    multi_miller_loop, multi_pairing, pairing, Field, Fp, Fp12, Fr, G1Affine, G1Projective,
    G2Affine, G2Projective,
};

struct Timing {
    name: &'static str,
    iters: u32,
    us_per_iter: f64,
}

fn time<T>(name: &'static str, iters: u32, mut f: impl FnMut() -> T) -> Timing {
    std::hint::black_box(f()); // warm-up (also initializes lazy tables)
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let us_per_iter = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    eprintln!("[bench-smoke] {name}: {us_per_iter:.2} µs/iter ({iters} iters)");
    Timing { name, iters, us_per_iter }
}

fn ms(v: &[u64]) -> MultiSet<u64> {
    v.iter().copied().collect()
}

/// Four rows for a batch entry point beside its one-job twin on the same
/// `items` jobs — whole batch and per item, each way — after checking once
/// that both give the same answers. Returns the two whole-batch times
/// (µs: batch, one by one) for a caller with a bar to hold them to.
fn twin_rows<T: PartialEq + std::fmt::Debug>(
    timings: &mut Vec<Timing>,
    items: usize,
    iters: u32,
    [batch, batch_per_item, one_by_one, one_by_one_per_item]: [&'static str; 4],
    mut run_batch: impl FnMut() -> T,
    mut run_one_by_one: impl FnMut() -> T,
) -> (f64, f64) {
    assert_eq!(run_batch(), run_one_by_one(), "{batch}: batch ≠ twin");
    let (t_batch, t_each) =
        (time(batch, iters, run_batch), time(one_by_one, iters, run_one_by_one));
    let whole = (t_batch.us_per_iter, t_each.us_per_iter);
    for (per_item, t) in [(batch_per_item, t_batch), (one_by_one_per_item, t_each)] {
        eprintln!("[bench-smoke] {per_item}: {:.2} µs", t.us_per_iter / items as f64);
        timings.push(Timing {
            name: per_item,
            iters: t.iters,
            us_per_iter: t.us_per_iter / items as f64,
        });
        timings.push(t);
    }
    whole
}

/// [`twin_rows`] for `jobs` through `prove_disjoint_batch` and through one
/// `prove_disjoint` per job.
fn prove_twin_rows(
    timings: &mut Vec<Timing>,
    acc: &Acc2,
    jobs: &[(MultiSet<u64>, Vec<MultiSet<u64>>)],
    iters: u32,
    names: [&'static str; 4],
) {
    let borrowed: Vec<(&MultiSet<u64>, &[MultiSet<u64>])> =
        jobs.iter().map(|(x1, clauses)| (x1, clauses.as_slice())).collect();
    let proofs = borrowed.iter().map(|(_, clauses)| clauses.len()).sum();
    twin_rows(
        timings,
        proofs,
        iters,
        names,
        || acc.prove_disjoint_batch(&borrowed),
        || -> Vec<_> {
            jobs.iter()
                .flat_map(|(x1, clauses)| clauses.iter().map(move |c| acc.prove_disjoint(x1, c)))
                .collect()
        },
    );
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pairing.json".to_string());
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let mut timings = Vec::new();

    // --- field layer ---------------------------------------------------
    let a = Fp::random(&mut rng);
    let b = Fp::random(&mut rng);
    timings.push(time("fp_mul", 100_000, || a * b));
    timings.push(time("fp_inverse", 10_000, || a.inverse()));
    let a2 = vchain_pairing::Fp2::random(&mut rng);
    let b2 = vchain_pairing::Fp2::random(&mut rng);
    timings.push(time("fp2_mul", 100_000, || Field::mul(&a2, &b2)));
    let x = Fp12::random(&mut rng);
    let y = Fp12::random(&mut rng);
    // Fp12 multiplication: lazy-reduction production path vs the retained
    // eager-reference twin, same operands, same run.
    timings.push(time("fp12_mul", 10_000, || Field::mul(&x, &y)));
    timings.push(time("fp12_mul_eager", 10_000, || x.mul_eager(&y)));
    timings.push(time("fp12_inverse", 10_000, || x.inverse()));

    // --- group layer ----------------------------------------------------
    let k = Fr::random(&mut rng);
    let g1 = G1Projective::generator();
    timings.push(time("g1_scalar_mul", 200, || g1.mul_fr(&k)));
    timings.push(time("g1_generator_mul", 200, || G1Projective::generator_mul_fr(&k)));
    // G2 scalar multiplication: the GLS endomorphism-split path vs the
    // retained wNAF reference ladder, same scalar, same run.
    let g2 = G2Projective::generator();
    timings.push(time("g2_scalar_mul", 100, || g2.mul_fr(&k)));
    timings.push(time("g2_scalar_mul_wnaf", 50, || g2.mul_u256_wnaf(&k.to_uint())));

    // --- pairing layer --------------------------------------------------
    let p = G1Projective::generator().mul_u64(7).to_affine();
    let q = G2Projective::generator().mul_u64(9).to_affine();
    let f = multi_miller_loop(&[(p, q)]);
    // Miller loop / final exponentiation / pairing: the lazy-reduction
    // production path next to its eager-reduction twin (identical formulas,
    // one reduction per Fp mul instead of per output coefficient) — and the
    // final exponentiation also next to the pre-Karabina Granger–Scott
    // reference. All twins share operands within one run.
    timings.push(time("miller_loop", 50, || multi_miller_loop(&[(p, q)])));
    timings
        .push(time("miller_loop_eager", 50, || vchain_pairing::multi_miller_loop_eager(&[(p, q)])));
    timings.push(time("final_exp", 50, || final_exponentiation(&f)));
    timings.push(time("final_exp_eager", 50, || vchain_pairing::final_exponentiation_eager(&f)));
    timings.push(time("final_exp_gs", 50, || vchain_pairing::final_exponentiation_gs(&f)));
    timings.push(time("pairing", 50, || pairing(&p, &q)));
    timings.push(time("pairing_eager", 50, || vchain_pairing::pairing_eager(&p, &q)));
    let pairs10: Vec<_> = (1..=10u64)
        .map(|i| {
            (
                G1Projective::generator().mul_u64(i).to_affine(),
                G2Projective::generator().mul_u64(i + 1).to_affine(),
            )
        })
        .collect();
    timings.push(time("multi_pairing_10", 10, || multi_pairing(&pairs10)));

    // --- untrusted decode boundary ---------------------------------------
    // Wire-decode cost of checked point deserialization: subgroup membership
    // alone, and the full ladder (length/canonical/on-curve/subgroup) from
    // bytes. The acceptance bar is one pairing (~940 µs): a checked G2
    // decode must stay below it so the decode boundary never dominates
    // verification.
    let p_aff = g1.mul_fr(&k).to_affine();
    let q_aff = g2.mul_fr(&k).to_affine();
    timings.push(time("g1_subgroup_check", 100, || g1_subgroup_check(&p_aff)));
    // Same-run twin: the generic [r]·P = O ladder the σ-check replaced.
    timings.push(time("g1_subgroup_check_full_order", 100, || full_order_check(&p_aff)));
    timings.push(time("g2_subgroup_check", 100, || g2_subgroup_check(&q_aff)));
    let p_bytes = p_aff.to_bytes();
    let q_bytes = q_aff.to_bytes();
    timings.push(time("g1_decode_checked", 100, || {
        G1Affine::try_from_bytes(&p_bytes).expect("round-trip")
    }));
    timings.push(time("g2_decode_checked", 100, || {
        G2Affine::try_from_bytes(&q_bytes).expect("round-trip")
    }));

    // --- accumulator layer ----------------------------------------------
    let acc1 = shared_acc1();
    let acc2 = shared_acc2();
    let (x1, x2) = (ms(&[1, 2, 3]), ms(&[10, 20]));
    let v1a = acc1.setup(&x1);
    let v2a = acc1.setup(&x2);
    let p1 = acc1.prove_disjoint(&x1, &x2).unwrap();
    timings.push(time("verify_disjoint_acc1", 20, || acc1.verify_disjoint(&v1a, &v2a, &p1)));
    let v1b = acc2.setup(&x1);
    let v2b = acc2.setup(&x2);
    let p2 = acc2.prove_disjoint(&x1, &x2).unwrap();
    timings.push(time("verify_disjoint_acc2", 20, || acc2.verify_disjoint(&v1b, &v2b, &p2)));

    // --- SP proving: cold, witness-shared and pre-PR-naive ---------------
    // A mid-size tree-node multiset against a 4-keyword clause (interned
    // element ids are sequential, so both sides are runs of nearby indices
    // — the shape that makes exponent convolution collapse |X1|·|X2| pairs
    // into few distinct powers).
    let node_ms: MultiSet<u64> = (1..=64u64).collect();
    let clause4: MultiSet<u64> = (1000..1004u64).collect();
    timings.push(time("prove_disjoint_acc2_cold", 50, || {
        acc2.prove_disjoint(&node_ms, &clause4).unwrap()
    }));
    // The pre-PR algorithm (one point per (x, y) pair, generic multiexp,
    // no merging, no batched-affine summation) — kept as the speed-up
    // reference for the trajectory file.
    let naive = {
        let pk = acc2.public_key();
        let (q, powers) = (pk.q, &pk.g1_powers);
        move |x1: &MultiSet<u64>, x2: &MultiSet<u64>| {
            let mut bases = Vec::new();
            let mut scalars = Vec::new();
            for (x, c1) in x1.iter() {
                for (y, c2) in x2.iter() {
                    bases.push(powers[(x + q - y) as usize].to_projective());
                    scalars.push(vchain_bigint::U256::from_u64(c1 * c2));
                }
            }
            vchain_pairing::multiexp(&bases, &scalars)
        }
    };
    timings.push(time("prove_disjoint_acc2_naive", 20, || naive(&node_ms, &clause4)));
    // One X₁ against the eight clauses of one query, as one batch (per-clause
    // mean beside it).
    let clauses8: Vec<MultiSet<u64>> =
        (0..8u64).map(|i| (1000 + 4 * i..1004 + 4 * i).collect()).collect();
    let t = time("prove_disjoint_batch_acc2_8", 10, || {
        acc2.prove_disjoint_batch(&[(&node_ms, &clauses8)])
    });
    timings.push(Timing {
        name: "prove_disjoint_batch_acc2_per_clause",
        iters: t.iters,
        us_per_iter: t.us_per_iter / clauses8.len() as f64,
    });
    timings.push(t);
    // The batch prover beside its one-job twin at the two shapes `vbench`'s
    // proving-bound workloads hand it (fixtures built once, untimed).
    // A cold `window_e2e` query: 19 jobs, each its own X₁ — a §6.3 sum of
    // ≈ 116 elements, every sixth with a multiplicity — against one
    // 4-literal clause.
    let window19: Vec<(MultiSet<u64>, Vec<MultiSet<u64>>)> = (0..19u64)
        .map(|j| {
            let x1 = (0..116u64)
                .map(|i| (1 + 3 * i + j, if i % 6 == 0 { 2 + (i / 6 + j) % 4 } else { 1 }))
                .collect();
            (x1, vec![(1000 + 5 * j..1004 + 5 * j).collect()])
        })
        .collect();
    prove_twin_rows(
        &mut timings,
        &acc2,
        &window19,
        20,
        [
            "prove_batch_acc2_window_19",
            "prove_batch_acc2_window_19_per_proof",
            "prove_batch_acc2_window_19_one_by_one",
            "prove_batch_acc2_window_19_one_by_one_per_proof",
        ],
    );
    // A fresh `subscribe_stream` block: 25 X₁ of 43 unit elements (tree
    // nodes), 1 056 clauses of 2–3 literals, each node's drawn from its own
    // pool of 45 — standing queries that share literals, not clauses.
    let mut fixture_rng = StdRng::seed_from_u64(0x1056);
    let block1056: Vec<(MultiSet<u64>, Vec<MultiSet<u64>>)> = (0..25u64)
        .map(|j| {
            let clauses = (0..if j < 6 { 43 } else { 42 })
                .map(|c| {
                    (0..2 + usize::from(c % 3 != 0))
                        .map(|_| 2000 + 50 * j + rand::Rng::gen_range(&mut fixture_rng, 0..45u64))
                        .collect()
                })
                .collect();
            ((0..43u64).map(|i| 1 + 7 * i + j).collect(), clauses)
        })
        .collect();
    prove_twin_rows(
        &mut timings,
        &acc2,
        &block1056,
        5,
        [
            "prove_batch_acc2_block_1056",
            "prove_batch_acc2_block_1056_per_proof",
            "prove_batch_acc2_block_1056_one_by_one",
            "prove_batch_acc2_block_1056_one_by_one_per_proof",
        ],
    );
    // --- Acc1: fast polynomial engine + comb commits ---------------------
    // The polynomial phases and the commitment phase are timed separately
    // so the trajectory attributes wins to the right layer. The naive
    // entries run the seed's algorithms (incremental char-poly, Pippenger
    // commits; the classical xgcd is the production one) on identical
    // inputs in the same process, so each fast/naive ratio is noise-free.
    let node16: MultiSet<u64> = (1..=16u64).collect();
    let p1_16 = node16.char_poly();
    let p2_4 = clause4.char_poly();
    timings.push(time("acc1_char_poly_16", 500, || node16.char_poly()));
    timings.push(time("acc1_char_poly_16_naive", 500, || {
        naive::char_poly(node16.iter().map(|(e, c)| (AccElem::to_fr(e), c)))
    }));
    timings.push(time("acc1_xgcd_16x4", 500, || p1_16.xgcd(&p2_4)));
    let (g16, _u16, v16) = p1_16.xgcd(&p2_4);
    let q2_16 = v16.scale(&g16.coeffs()[0].inverse().unwrap());
    timings.push(time("acc1_commit_g2_16", 50, || acc1.commit_g2(&q2_16).unwrap()));
    timings.push(time("acc1_commit_g2_16_naive", 10, || {
        let pk = acc1.public_key();
        let scalars: Vec<_> = q2_16.coeffs().iter().map(|c| c.to_uint()).collect();
        vchain_pairing::multiexp(&pk.g2_powers[..scalars.len()], &scalars)
    }));
    timings.push(time("prove_disjoint_acc1_cold", 20, || {
        acc1.prove_disjoint(&node16, &clause4).unwrap()
    }));
    timings.push(time("prove_disjoint_acc1_naive", 5, || {
        // the full pre-PR-4 pipeline on identical inputs
        let p1 = naive::char_poly(node16.iter().map(|(e, c)| (AccElem::to_fr(e), c)));
        let p2 = naive::char_poly(clause4.iter().map(|(e, c)| (AccElem::to_fr(e), c)));
        let (g, u, v) = p1.xgcd(&p2);
        let ginv = g.coeffs()[0].inverse().unwrap();
        let (q1, q2) = (u.scale(&ginv), v.scale(&ginv));
        let pk = acc1.public_key();
        let s1: Vec<_> = q1.coeffs().iter().map(|c| c.to_uint()).collect();
        let s2: Vec<_> = q2.coeffs().iter().map(|c| c.to_uint()).collect();
        (
            vchain_pairing::multiexp(&pk.g2_powers[..s1.len()], &s1),
            vchain_pairing::multiexp(&pk.g2_powers[..s2.len()], &s2),
        )
    }));
    // One characteristic polynomial across one query's clauses, as for Acc2
    // above.
    let t = time("prove_disjoint_batch_acc1_8", 5, || {
        acc1.prove_disjoint_batch(&[(&node16, &clauses8)])
    });
    timings.push(Timing {
        name: "prove_disjoint_batch_acc1_per_clause",
        iters: t.iters,
        us_per_iter: t.us_per_iter / clauses8.len() as f64,
    });
    timings.push(t);
    // The block-scale curve the naive engine could not reach.
    let node256: MultiSet<u64> = (1..=256u64).collect();
    timings.push(time("acc1_char_poly_256", 20, || node256.char_poly()));
    timings.push(time("acc1_char_poly_256_naive", 20, || {
        naive::char_poly(node256.iter().map(|(e, c)| (AccElem::to_fr(e), c)))
    }));
    timings.push(time("prove_disjoint_acc1_cold_256", 5, || {
        acc1.prove_disjoint(&node256, &clause4).unwrap()
    }));
    // Why the subproduct tree stays: block roots and skip entries reach
    // thousands of elements (`experiments`' WX skip entries: 18 995), where
    // the tree beats the incremental fold several times over.
    let node4096: MultiSet<u64> = (1..=4096u64).collect();
    let t_tree = time("acc1_char_poly_4096", 3, || node4096.char_poly());
    let t_fold = time("acc1_char_poly_4096_naive", 3, || {
        naive::char_poly(node4096.iter().map(|(e, c)| (AccElem::to_fr(e), c)))
    });
    assert!(
        t_tree.us_per_iter <= 0.5 * t_fold.us_per_iter,
        "the subproduct tree must cost at most half the naive fold at 4 096 elements \
         ({:.0} µs vs {:.0} µs)",
        t_tree.us_per_iter,
        t_fold.us_per_iter
    );
    timings.push(t_tree);
    timings.push(t_fold);
    // --- shared fixed-base keygen layer ----------------------------------
    // Both accumulator keygens now produce their power vectors through the
    // generator combs; the naive per-scalar window walk is kept as the
    // same-run reference. 256 G2 powers ≈ one mid-size Acc2 universe slice
    // (G2 is the expensive group, and its comb teeth come from the GLS
    // endomorphism).
    let power_scalars: Vec<vchain_bigint::U256> = {
        let s = Fr::random(&mut rng);
        let mut cur = Fr::one();
        (0..256)
            .map(|_| {
                let out = cur.to_uint();
                cur = Field::mul(&cur, &s);
                out
            })
            .collect()
    };
    timings.push(time("acc_keygen_powers_g2_256", 5, || {
        vchain_pairing::generator_powers::<vchain_pairing::G2Spec>(&power_scalars)
    }));
    timings.push(time("acc_keygen_powers_g2_256_naive", 5, || {
        vchain_acc::fixed_base_batch(&G2Projective::generator(), &power_scalars)
    }));
    // 32 checks against the 4 clauses of one query — the shape a light
    // client's batch has (many pruned nodes, few clauses).
    let batch: Vec<_> = (0..32u64)
        .map(|i| {
            let (xa, xb) = (ms(&[2 * i + 1]), ms(&[1000 + i % 4]));
            (acc2.setup(&xa).da, acc2.setup(&xb), acc2.prove_disjoint(&xa, &xb).unwrap())
        })
        .collect();
    let t = time("batch_verify_disjoint_acc2_32", 5, || acc2.batch_verify_disjoint(&[], &batch));
    timings.push(Timing {
        name: "batch_verify_disjoint_acc2_per_item",
        iters: t.iters,
        us_per_iter: t.us_per_iter / batch.len() as f64,
    });
    timings.push(t);

    // --- end-to-end block query (the paper's intra_acc2 hot path) -------
    let spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, 1);
    let w = spec.generate();
    let mut qg = spec.query_gen(5);
    let cq = qg.time_window((0, 1_000_000)).compile(spec.domain_bits);
    let objects = w.blocks[0].1.clone();
    let acc2_honest = Acc2::keygen(8192, &mut StdRng::seed_from_u64(8));
    let tree = IntraTree::build_clustered(&objects, &acc2_honest, 8);
    // Cold: a fresh (empty) cache per iteration, so every proof is proved.
    timings.push(time("block_query_intra_acc2", 5, || {
        tree.query(&objects, &cq, None, &acc2_honest, false, &ProofCache::default())
    }));
    // Same query against a warm window-level proof cache (the `time`
    // warm-up call populates it; every measured iteration hits).
    let cache: ProofCache<Acc2> = ProofCache::default();
    timings.push(time("block_query_intra_acc2_cached", 5, || {
        tree.query(&objects, &cq, None, &acc2_honest, false, &cache)
    }));

    // --- miner set-up: a block's digests as one batch ---------------------
    // The 23 node multisets of the tree above (12 objects of 18 attributes,
    // unions up to 153) through one `setup_batch`, beside one `try_setup`
    // per node — Construction 2's `try_setup` is its batch of one, so the
    // twin pays exactly what the batch shares: a halving ladder and a
    // normalization per digest and curve.
    let node_sets: Vec<&MultiSet<_>> = tree.nodes.iter().map(|n| &n.ms).collect();
    assert_eq!(node_sets.len(), 23, "the fixture block's tree");
    let (batch_us, one_by_one_us) = twin_rows(
        &mut timings,
        node_sets.len(),
        50,
        [
            "setup_batch_acc2_block_23",
            "setup_batch_acc2_block_23_per_node",
            "setup_batch_acc2_block_23_one_by_one",
            "setup_batch_acc2_block_23_one_by_one_per_node",
        ],
        || acc2_honest.setup_batch(&node_sets),
        || node_sets.iter().map(|x| acc2_honest.try_setup(x)).collect(),
    );
    assert!(
        batch_us <= 0.5 * one_by_one_us,
        "a block's set-up batch must cost at most half of its digests one by one \
         ({batch_us:.0} µs vs {one_by_one_us:.0} µs)"
    );

    // --- a block's skip list at height 64 ----------------------------------
    // Five levels (distances 2 … 32), each the sum of two halves that exist:
    // five multiset sums and five `Sum`s, where summing every covered block
    // afresh took 62 of each.
    let chain64 = WorkloadSpec::paper_defaults(Dataset::FourSquare, 64).generate();
    let cfg64 = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 5,
        domain_bits: chain64.spec.domain_bits,
        difficulty: vchain_chain::Difficulty(0),
        bloom_bits_per_key: 10,
    };
    let mut miner64 = Miner::new(cfg64, shared_acc2());
    for (ts, objs) in &chain64.blocks {
        miner64.mine_block(*ts, objs.clone());
    }
    timings.push(time("skiplist_build_acc2_h64", 50, || {
        SkipList::build(miner64.history(), cfg64.skip_levels, &miner64.acc)
    }));

    // --- a 12-block chain and 8 heavily overlapping windows --------------
    // The fixture of the decode and light-client rows below.
    let scan_spec = WorkloadSpec::paper_defaults(Dataset::FourSquare, 12);
    let scan_w = scan_spec.generate();
    let (sp, scan_light, scan_cfg) = build_chain(&scan_w, IndexScheme::Both, 4, shared_acc2());
    let mut qg2 = scan_spec.query_gen(11);
    let t0 = scan_w.blocks.first().expect("blocks").0;
    let t1 = scan_w.blocks.last().expect("blocks").0;
    let span = (t1 - t0).max(8);
    let windows: Vec<_> = (0..8u64)
        .map(|i| {
            // windows of ~half the chain, sliding by ~1/16 each — heavy overlap
            let lo = t0 + i * span / 16;
            qg2.time_window((lo, lo + span / 2)).compile(scan_spec.domain_bits)
        })
        .collect();

    // --- checked VO wire decode ------------------------------------------
    // A full window response through the untrusted byte boundary: its
    // one-window frame stream fed whole to the stream decoder — structural
    // parse and slot length checks, no point decoded (proofs and pairing
    // operands are decoded inside verification, `client_verify_*`). The
    // name is kept from when this decode checked every proof.
    let scan_responses: Vec<_> = windows.iter().map(|q| sp.time_window_query(q)).collect();
    let framed: Vec<Vec<u8>> =
        scan_responses.iter().map(vchain_core::wire::encode_response_v2).collect();
    let encoded = &framed[0];
    let sp_acc = sp.acc.clone();
    eprintln!("[bench-smoke] vo_decode_checked input: {} bytes", encoded.len());
    timings.push(time("vo_decode_checked", 5, || {
        let mut dec = vchain_core::wire::StreamDecoder::new();
        let events = dec.feed(&sp_acc, encoded).expect("honest VO decodes");
        dec.finish().expect("honest VO is complete");
        events
    }));

    // --- light-client pipeline: streaming and batching ---------------------
    // The 8-window scan, now on the client side: `client_verify_window_us`
    // is the per-window mean of streamed verification with one cross-window
    // pairing batch, with the per-block path (verify each window's own
    // framed bytes, one RLC flush per window) as its twin — both twins start
    // from wire bytes, the position a real client is in.
    let scan_stream = vchain_core::wire::encode_scan_stream(&scan_responses);
    let one_by_one: usize = framed.iter().map(Vec::len).sum();
    eprintln!("[bench-smoke] scan: {} bytes streamed, {one_by_one} one by one", scan_stream.len());
    let n_windows = windows.len() as f64;
    let stream_scan = || {
        let mut sv = vchain_core::client::StreamVerifier::new(
            windows.clone(),
            scan_light.clone(),
            scan_cfg,
            sp_acc.clone(),
        );
        for chunk in scan_stream.chunks(4096) {
            sv.feed(chunk).expect("honest stream feeds");
        }
        sv.finish().expect("honest stream verifies")
    };
    let t_batched = time("client_verify_window_scan", 3, stream_scan);
    let t_per_block = time("client_verify_window_scan_per_block", 3, || {
        for (q, bytes) in windows.iter().zip(&framed) {
            vchain_core::verify::verify_encoded_response(q, bytes, &scan_light, &scan_cfg, &sp_acc)
                .expect("honest window verifies");
        }
    });
    assert!(
        t_batched.us_per_iter < t_per_block.us_per_iter,
        "cross-window batching must beat the per-block flush path \
         ({:.0} µs vs {:.0} µs)",
        t_batched.us_per_iter,
        t_per_block.us_per_iter
    );
    timings.push(Timing {
        name: "client_verify_window_us",
        iters: t_batched.iters,
        us_per_iter: t_batched.us_per_iter / n_windows,
    });
    timings.push(Timing {
        name: "client_verify_window_per_block_us",
        iters: t_per_block.iters,
        us_per_iter: t_per_block.us_per_iter / n_windows,
    });

    // --- subscription engine at 10⁵ standing queries ----------------------
    // The inverted match path (attribute index + shared refutation proofs)
    // against the retained naive per-query walk, same engine state, same
    // block. Registration is timed once (it is a bulk index build); match
    // is timed on an idempotent steady-state block with a warm proof cache;
    // publish is timed over successive blocks because it advances the
    // engine height.
    let mut sub_workload = WorkloadSpec::paper_defaults(Dataset::FourSquare, 10);
    sub_workload.objects_per_block = 4;
    let sub_cfg = MinerConfig {
        scheme: IndexScheme::Both,
        skip_levels: 3,
        domain_bits: sub_workload.domain_bits,
        difficulty: vchain_chain::Difficulty(0),
        bloom_bits_per_key: 10,
    };
    let sub_acc = shared_acc2().clone();
    let sub_chain = sub_workload.generate();
    let mut sub_miner = Miner::new(sub_cfg, sub_acc.clone());
    for (ts, objs) in &sub_chain.blocks {
        sub_miner.mine_block(*ts, objs.clone());
    }
    let sub_blocks = sub_miner.store().blocks().to_vec();
    let sub_indexed = sub_miner.indexed().to_vec();

    let mut sub_spec = SubscriptionSpec::paper_defaults(Dataset::FourSquare, SkewProfile::Zipf);
    sub_spec.domain_bits = sub_workload.domain_bits;
    sub_spec.range_fraction = 1.0;
    let subs = sub_spec.generate(100_000);

    timings.push(time("sub_register_100k", 1, || {
        let mut e =
            SubscriptionEngine::new(sub_cfg, sub_acc.clone(), SubscriptionMode::Realtime, false);
        for q in &subs {
            e.register(q);
        }
        e
    }));

    let mut sub_eng =
        SubscriptionEngine::new(sub_cfg, sub_acc.clone(), SubscriptionMode::Realtime, false);
    let mut sub_twin =
        SubscriptionEngine::new(sub_cfg, sub_acc.clone(), SubscriptionMode::Realtime, false)
            .with_strategy(WalkStrategy::Naive);
    for q in &subs {
        sub_eng.register(q);
        sub_twin.register(q);
    }
    for h in 0..3 {
        std::hint::black_box(sub_eng.process_block(&sub_blocks[h], &sub_indexed[h]));
        std::hint::black_box(sub_twin.process_block(&sub_blocks[h], &sub_indexed[h]));
    }
    let t_indexed =
        time("sub_match_block_100k", 5, || sub_eng.match_block(&sub_blocks[3], &sub_indexed[3]));
    let t_naive = time("sub_match_block_100k_naive", 2, || {
        sub_twin.match_block(&sub_blocks[3], &sub_indexed[3])
    });
    let speedup = t_naive.us_per_iter / t_indexed.us_per_iter;
    eprintln!("[bench-smoke] subscription match speedup: {speedup:.1}x over the naive walk");
    assert!(
        speedup >= 20.0,
        "indexed subscription match must stay >=20x faster than the naive walk (got {speedup:.1}x)"
    );
    timings.push(t_indexed);
    timings.push(t_naive);

    // Publish materializes 100k realtime updates per block; measured over
    // successive blocks, timing only the publish half of each step.
    let pub_iters = 5u32;
    let mut pub_total = 0.0f64;
    for (i, h) in (3..(4 + pub_iters as usize)).enumerate() {
        let m = sub_eng.match_block(&sub_blocks[h], &sub_indexed[h]);
        let t0 = Instant::now();
        std::hint::black_box(sub_eng.publish(m, &sub_indexed[h]));
        if i > 0 {
            // step 0 is the warm-up
            pub_total += t0.elapsed().as_secs_f64();
        }
    }
    let pub_us = pub_total * 1e6 / f64::from(pub_iters);
    eprintln!("[bench-smoke] sub_publish_100k: {pub_us:.2} µs/iter ({pub_iters} iters)");
    timings.push(Timing { name: "sub_publish_100k", iters: pub_iters, us_per_iter: pub_us });

    // --- JSON output -----------------------------------------------------
    let mut json = String::from("{\n  \"schema\": \"vchain-bench-smoke/v1\",\n  \"timings\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 == timings.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"iters\": {}, \"us_per_iter\": {:.3}}}{comma}",
            t.name, t.iters, t.us_per_iter
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    eprintln!("[bench-smoke] wrote {out_path}");
}
