//! Fixed-input probes of the primitives beneath the workloads. Their inputs
//! never depend on `--seed`, so across runs they read the machine, not the
//! data: they price the counts a trace reports (points decoded × checked
//! decode, Miller loops × loop time) and, taken before and after a run, they
//! are the calibration whose drift says whether the box stayed steady.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::{Acc2, Accumulator, MultiSet};
use vchain_pairing::{
    final_exponentiation, multi_miller_loop, pairing, Field, Fp12, Fr, G1Affine, G1Projective,
    G2Affine, G2Projective,
};

/// Best-of-batches mean: the same best-round idea as the workloads, at probe
/// scale. Returns nanoseconds per call.
fn best_ns<T>(batches: u32, per_batch: u32, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn pairing_inputs() -> (G1Affine, G2Affine) {
    (
        G1Projective::generator().mul_u64(7).to_affine(),
        G2Projective::generator().mul_u64(9).to_affine(),
    )
}

/// One pairing, in µs: the calibration probe.
pub fn calibrate() -> f64 {
    let (p, q) = pairing_inputs();
    best_ns(5, 10, || pairing(&p, &q)) / 1e3
}

pub struct Probes {
    pub pairing_us: f64,
    pub miller_loop_us: f64,
    pub final_exp_us: f64,
    pub g1_decode_checked_us: f64,
    pub g2_decode_checked_us: f64,
    pub fp12_mul_ns: f64,
    pub acc2_prove_cold_us: f64,
    pub acc2_verify_us: f64,
}

pub fn run(acc: &Acc2) -> Probes {
    let (p, q) = pairing_inputs();
    let f = multi_miller_loop(&[(p, q)]);
    // A full-width scalar, so the decoded points are generic group elements.
    let k = Fr::hash_to_field(b"vbench/probe-scalar");
    let p_bytes = G1Projective::generator().mul_fr(&k).to_affine().to_bytes();
    let q_bytes = G2Projective::generator().mul_fr(&k).to_affine().to_bytes();
    let mut rng = StdRng::seed_from_u64(0xF12);
    let (x, y) = (Fp12::random(&mut rng), Fp12::random(&mut rng));

    // A mid-size tree-node multiset against a 4-element clause — the shape
    // `bench_smoke` uses for its cold-prove entry.
    let node: MultiSet<u64> = (1..=64u64).collect();
    let clause: MultiSet<u64> = (1000..1004u64).collect();
    let (v1, v2) = (acc.setup(&node), acc.setup(&clause));
    let proof = acc.prove_disjoint(&node, &clause).expect("disjoint by construction");

    Probes {
        pairing_us: best_ns(3, 10, || pairing(&p, &q)) / 1e3,
        miller_loop_us: best_ns(3, 10, || multi_miller_loop(&[(p, q)])) / 1e3,
        final_exp_us: best_ns(3, 10, || final_exponentiation(&f)) / 1e3,
        g1_decode_checked_us: best_ns(3, 20, || G1Affine::try_from_bytes(&p_bytes)) / 1e3,
        g2_decode_checked_us: best_ns(3, 20, || G2Affine::try_from_bytes(&q_bytes)) / 1e3,
        fp12_mul_ns: best_ns(3, 2000, || Field::mul(&x, &y)),
        acc2_prove_cold_us: best_ns(3, 10, || acc.prove_disjoint(&node, &clause)) / 1e3,
        acc2_verify_us: best_ns(3, 10, || acc.verify_disjoint(&v1, &v2, &proof)) / 1e3,
    }
}
