//! The batch prover against its one-job twin.
//!
//! [`Accumulator::prove_disjoint_batch`] must return, job for job, what
//! [`Accumulator::prove_disjoint`] returns: the same proof bytes, the same
//! error. Construction 2's override is data-dependent code — which path a
//! job takes depends on the multiplicities of its `X₁`, on whether its
//! group's clauses share literals, on which exponents collide — so the
//! inputs here are built to force each branch (the way Marcozzi et al.
//! derive inputs per path of data-dependent code), and a seeded random
//! sweep covers what the derivation did not think of. The three cases that
//! need a hand-made key or the chunk constant (the same-`x` spill, the
//! forbidden power, a chunk boundary) live in `acc2.rs`'s unit tests.
//!
//! The second half holds [`Accumulator::setup_batch`] to the same standard:
//! job for job what [`Accumulator::try_setup`] returns — and, since
//! Construction 2's `try_setup` *is* its batch of one, also what the
//! definition of `acc(X)` gives when it is evaluated term by term over the
//! published powers, with nothing shared and nothing batched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use vchain_acc::{Acc1, Acc1Value, Acc2, Acc2Value, AccElem, AccError, Accumulator, MultiSet};
use vchain_pairing::{Field, Fr, G1Projective, G2Projective};

type Job = (MultiSet<u64>, Vec<MultiSet<u64>>);

const Q: u64 = 64;

fn acc2() -> &'static Acc2 {
    static A: OnceLock<Acc2> = OnceLock::new();
    A.get_or_init(|| Acc2::keygen(Q, &mut StdRng::seed_from_u64(0xb47c)))
}

fn acc1() -> &'static Acc1 {
    static A: OnceLock<Acc1> = OnceLock::new();
    A.get_or_init(|| Acc1::keygen(24, &mut StdRng::seed_from_u64(0xb47c)))
}

fn ms(v: &[u64]) -> MultiSet<u64> {
    v.iter().copied().collect()
}

fn job(x1: &[u64], clauses: &[&[u64]]) -> Job {
    (ms(x1), clauses.iter().map(|c| ms(c)).collect())
}

/// Prove `jobs` as one batch and one at a time, and hold the two against
/// each other: `proof_bytes` for `proof_bytes`, `Err` for `Err`. Every
/// proof is also verified, so the twin cannot be wrong in the same way.
fn assert_batch_is_twin<A: Accumulator>(acc: &A, jobs: &[Job]) -> Vec<Result<A::Proof, AccError>> {
    let borrowed: Vec<(&MultiSet<u64>, &[MultiSet<u64>])> =
        jobs.iter().map(|(x1, clauses)| (x1, clauses.as_slice())).collect();
    let batch = acc.prove_disjoint_batch(&borrowed);
    let pairs: Vec<(&MultiSet<u64>, &MultiSet<u64>)> =
        jobs.iter().flat_map(|(x1, clauses)| clauses.iter().map(move |c| (x1, c))).collect();
    assert_eq!(batch.len(), pairs.len(), "one result per clause");
    for (i, (got, (x1, clause))) in batch.iter().zip(pairs).enumerate() {
        match (got, acc.prove_disjoint(x1, clause)) {
            (Ok(got), Ok(twin)) => {
                assert_eq!(A::proof_bytes(got), A::proof_bytes(&twin), "job {i}");
                assert!(acc.verify_disjoint(&acc.setup(x1), &acc.setup(clause), got), "job {i}");
            }
            (Err(got), Err(twin)) => assert_eq!(*got, twin, "job {i}"),
            (got, twin) => panic!("job {i}: batch {got:?}, one-by-one {twin:?}"),
        }
    }
    batch
}

fn assert_both(jobs: &[Job]) {
    assert_batch_is_twin(acc2(), jobs);
    assert_batch_is_twin(acc1(), jobs);
}

/// `X₁` of unit multiplicities against one clause with nothing colliding:
/// a single ladder group, a single term.
#[test]
fn unit_x1_one_clause() {
    assert_both(&[job(&[1, 2, 3, 4, 5], &[&[20, 40]])]);
}

/// `X₁` with multiplicities — a §6.3 sum. `x − y` collides for (2, 20) and
/// (3, 21), so coefficients 2 and 3 also merge into 5: the buckets are
/// {1, 2, 3, 5, 7}, with gaps of 1 and of 2 between their values.
#[test]
fn multiplicities_fill_several_buckets_with_a_gap() {
    assert_both(&[job(&[1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5], &[&[20, 21]])]);
}

/// Buckets only: no exponent has coefficient 1, so the unit group is absent
/// and the smallest bucket's gap reaches down to zero.
#[test]
fn no_unit_coefficient_at_all() {
    assert_both(&[job(&[1, 1, 1, 2, 2, 2, 2, 2], &[&[30], &[31, 31]])]);
}

/// Unit `X₁`, exponent collisions `x − y = x′ − y′` across the literals of
/// one clause: (2, 10) meets (3, 11) and (3, 10) meets (4, 11).
#[test]
fn collisions_across_literals_without_sharing() {
    assert_both(&[job(&[2, 3, 4], &[&[10, 11]])]);
}

/// The same collisions where the group's clauses *share* literal 10, so
/// every clause is assembled from per-literal sums and the colliding powers
/// meet as whole sums, not as merged coefficients.
#[test]
fn collisions_across_literals_with_sharing() {
    assert_both(&[job(&[2, 3, 4], &[&[10, 11], &[10, 12], &[11, 12, 13]])]);
}

/// One group whose clauses share literals beside one whose clauses share
/// none, in one batch.
#[test]
fn sharing_group_beside_a_group_with_nothing_to_share() {
    assert_both(&[
        job(&[1, 2, 3, 4, 5, 6], &[&[20, 21], &[21, 22], &[20, 22, 23]]),
        job(&[7, 8, 9], &[&[20, 21], &[22, 23], &[24]]),
    ]);
}

/// A clause with a multiplicity above one: in a sharing group (its literal's
/// sum counts twice) and on its own (every coefficient doubles).
#[test]
fn clause_multiplicity_above_one() {
    assert_both(&[
        job(&[1, 2, 3], &[&[20, 20, 21], &[21, 22], &[20, 23, 23, 23]]),
        job(&[4, 5], &[&[30, 30]]),
    ]);
}

/// Sharing is for unit `X₁` only: shared literals against an `X₁` with
/// multiplicities still go clause by clause.
#[test]
fn shared_literals_against_multiplicities() {
    assert_both(&[job(&[1, 2, 2, 3], &[&[20, 21], &[21, 22]])]);
}

/// One intersecting clause and one out-of-universe clause in the middle of
/// a batch: each fails alone, `NotDisjoint` before `CapacityExceeded`, and
/// the clauses around them — which share literals — are proved.
#[test]
fn failing_clauses_fail_alone() {
    let jobs = [
        job(&[1, 2, 3], &[&[20, 21], &[2, 20], &[21, 22], &[20, Q], &[2, Q + 6], &[22, 20]]),
        job(&[4], &[&[30]]),
    ];
    let batch = assert_batch_is_twin(acc2(), &jobs);
    assert_eq!(batch[1], Err(AccError::NotDisjoint));
    assert!(matches!(batch[3], Err(AccError::CapacityExceeded { needed: 64, capacity: 63 })));
    assert_eq!(batch[4], Err(AccError::NotDisjoint), "precedence as `universe_bound_enforced`");
    assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 4);
    // Construction 1 has no universe: its failures are the intersections.
    let batch = assert_batch_is_twin(acc1(), &jobs);
    assert_eq!(batch.iter().filter(|r| r.is_err()).count(), 2);
}

/// An `X₁` outside the universe fails every clause of its own group — as
/// `CapacityExceeded`, even for a clause that also intersects it — and
/// nothing of its neighbours'.
#[test]
fn out_of_universe_x1_fails_its_group_only() {
    let jobs =
        [job(&[1, 2], &[&[20]]), job(&[3, Q + 1], &[&[20], &[3]]), job(&[1, 2], &[&[20, 21]])];
    let batch = assert_batch_is_twin(acc2(), &jobs);
    assert!(batch[0].is_ok() && batch[3].is_ok());
    assert!(matches!(batch[1], Err(AccError::CapacityExceeded { .. })));
    assert!(matches!(batch[2], Err(AccError::CapacityExceeded { .. })));
}

/// Construction 1's bound is a degree: a clause whose Bézout cofactor
/// outgrows the key fails alone there too.
#[test]
fn acc1_capacity_failure_fails_alone() {
    let wide: Vec<u64> = (100..130).collect();
    let jobs = [job(&[1, 2, 3], &[&[20], &wide, &[21]])];
    let batch = assert_batch_is_twin(acc1(), &jobs);
    assert!(batch[0].is_ok() && batch[2].is_ok());
    assert!(matches!(batch[1], Err(AccError::CapacityExceeded { .. })));
}

/// The degenerate shapes: an empty batch, an `X₁` with no clauses between
/// two that have some, an empty `X₁`, an empty clause, the same job twice.
#[test]
fn degenerate_batches() {
    assert!(acc2().prove_disjoint_batch::<u64>(&[]).is_empty());
    assert!(acc1().prove_disjoint_batch::<u64>(&[]).is_empty());
    let twice = job(&[1, 2, 3], &[&[20, 21], &[21, 22]]);
    assert_both(&[
        job(&[1, 2], &[&[20]]),
        job(&[5, 6], &[]),
        job(&[], &[&[20], &[21, 22]]),
        job(&[3, 4], &[&[], &[20]]),
        twice.clone(),
        twice,
    ]);
}

// --- set-up ---------------------------------------------------------------

/// `acc(X) = (g₁^{Σ c·s^x}, g₂^{Σ c·s^{q−x}})` by definition: one scalar
/// multiplication and one projective addition per element, straight off the
/// key. For multisets inside the universe.
fn acc2_by_definition(x: &MultiSet<u64>) -> Acc2Value {
    let pk = acc2().public_key();
    let (mut da, mut db) = (G1Projective::identity(), G2Projective::identity());
    for (&e, c) in x.iter() {
        da = da.add(&pk.g1_powers[e as usize].to_projective().mul_u64(c));
        db = db.add(&pk.g2_powers[(pk.q - e) as usize].to_projective().mul_u64(c));
    }
    Acc2Value { da: da.to_affine(), db: db.to_affine() }
}

/// `acc(X) = g₁^{P_X(s)}`, `P_X(s) = Π (s + x)^c` multiplied out one linear
/// factor at a time and committed one power at a time. For multisets within
/// the key's capacity.
fn acc1_by_definition(x: &MultiSet<u64>) -> Acc1Value {
    let mut p = vec![Fr::one()];
    for (e, c) in x.iter() {
        for _ in 0..c {
            // p ← p · (s + x): coefficient i is x·pᵢ + pᵢ₋₁
            let x = e.to_fr();
            let mut next = vec![Fr::zero(); p.len() + 1];
            for (i, a) in p.iter().enumerate() {
                next[i] = Field::add(&next[i], &Field::mul(a, &x));
                next[i + 1] = *a;
            }
            p = next;
        }
    }
    let powers = &acc1().public_key().g1_powers;
    let commit = p
        .iter()
        .zip(powers)
        .fold(G1Projective::identity(), |sum, (a, power)| sum.add(&power.mul_fr(a)));
    commit.to_affine()
}

/// Set `jobs` up as one batch and hold every result against one `try_setup`
/// of the same job — `value_bytes` for `value_bytes`, `Err` for `Err` — and
/// every `Ok` against the definition.
fn assert_setup_batch_is_twin<A: Accumulator>(
    acc: &A,
    jobs: &[MultiSet<u64>],
    by_definition: impl Fn(&MultiSet<u64>) -> A::Value,
) -> Vec<Result<A::Value, AccError>> {
    let batch = acc.setup_batch(&jobs.iter().collect::<Vec<_>>());
    assert_eq!(batch.len(), jobs.len(), "one result per job");
    for (i, (got, x)) in batch.iter().zip(jobs).enumerate() {
        match (got, acc.try_setup(x)) {
            (Ok(got), Ok(twin)) => {
                assert_eq!(A::value_bytes(got), A::value_bytes(&twin), "job {i}");
                assert_eq!(A::value_bytes(got), A::value_bytes(&by_definition(x)), "job {i}");
            }
            (Err(got), Err(twin)) => assert_eq!(*got, twin, "job {i}"),
            (got, twin) => panic!("job {i}: batch {got:?}, one-by-one {twin:?}"),
        }
    }
    batch
}

fn assert_setup_both(jobs: &[MultiSet<u64>]) {
    assert_setup_batch_is_twin(acc2(), jobs, acc2_by_definition);
    assert_setup_batch_is_twin(acc1(), jobs, acc1_by_definition);
}

/// No job, and the job with nothing in it: `acc(∅)` is the neutral element
/// under Construction 2 and `g₁^1` under Construction 1.
#[test]
fn setup_of_nothing() {
    assert!(acc2().setup_batch::<u64>(&[]).is_empty());
    assert!(acc1().setup_batch::<u64>(&[]).is_empty());
    assert_setup_both(&[ms(&[]), ms(&[5, 9]), ms(&[])]);
    let empty = acc2().setup(&ms(&[]));
    assert!(empty.da.is_identity() && empty.db.is_identity());
}

/// Multiplicities 2, 3 and 7 — a §6.3 sum, a skip-list entry — beside units:
/// alone, mixed into one job, and as the whole of a job (no unit term for
/// the ladder to sum).
#[test]
fn setup_with_multiplicities() {
    assert_setup_both(&[
        ms(&[1, 2, 2, 3]),
        ms(&[4, 4, 4]),
        ms(&[5, 5, 5, 5, 5, 5, 5]),
        ms(&[1, 2, 2, 3, 3, 3, 6, 6, 6, 6, 6, 6, 6, 8, 9]),
        ms(&[10, 11, 12]),
    ]);
}

/// The same multiset twice in one batch, apart and side by side: two equal
/// groups in one ladder, two equal values out.
#[test]
fn setup_of_the_same_multiset_twice() {
    let x = ms(&[3, 7, 7, 20, 41]);
    let batch = assert_setup_batch_is_twin(
        acc2(),
        &[x.clone(), ms(&[1, 2]), x.clone(), x.clone()],
        acc2_by_definition,
    );
    assert!(batch[0] == batch[2] && batch[2] == batch[3] && batch[0] != batch[1]);
    assert_setup_batch_is_twin(acc1(), &[x.clone(), ms(&[1, 2]), x.clone(), x], acc1_by_definition);
}

/// A job outside the key in the middle of a batch fails alone, with the
/// error it fails with on its own, and its neighbours' values are theirs —
/// not shifted by one.
#[test]
fn setup_failure_fails_alone() {
    let jobs = [ms(&[1, 2, 3]), ms(&[4, Q, 5]), ms(&[6, 7]), ms(&[Q + 9]), ms(&[8])];
    let batch = assert_setup_batch_is_twin(acc2(), &jobs, acc2_by_definition);
    assert_eq!(batch[1], Err(AccError::CapacityExceeded { needed: 64, capacity: 63 }));
    assert_eq!(batch[3], Err(AccError::CapacityExceeded { needed: 73, capacity: 63 }));
    assert_eq!(batch.iter().filter(|r| r.is_ok()).count(), 3);
    // Construction 1's bound is the cardinality.
    let wide: MultiSet<u64> = (100..130).collect();
    let batch =
        assert_setup_batch_is_twin(acc1(), &[ms(&[1, 2]), wide, ms(&[3])], acc1_by_definition);
    assert_eq!(batch[1], Err(AccError::CapacityExceeded { needed: 30, capacity: 24 }));
    assert!(batch[0].is_ok() && batch[2].is_ok());
}

/// A batch several chunks long (25 200 points; a chunk closes at the first
/// whole job past 8 192), no two neighbouring jobs alike: every job's value
/// is its own on both sides of every boundary.
#[test]
fn setup_batch_crosses_chunk_boundaries() {
    let jobs: Vec<MultiSet<u64>> = (0..400u64)
        .map(|j| (1..Q).map(|e| (e, if (e + j) % 17 == 0 { 1 + j % 3 } else { 1 })).collect())
        .collect();
    assert!(jobs.iter().all(|x| x.distinct_len() == 63));
    assert_setup_batch_is_twin(acc2(), &jobs, acc2_by_definition);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blind draws over the whole job space: `X₁` from the low half of the
    /// universe with multiplicities now and then, clauses from a small
    /// literal pool (so sharing, collisions and the odd intersection all
    /// occur), a stray out-of-universe literal.
    #[test]
    fn random_batches_match_one_by_one(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs: Vec<Job> = (0..rng.gen_range(0..5usize))
            .map(|_| {
                let repeat = rng.gen_bool(0.4);
                let x1: MultiSet<u64> = (0..rng.gen_range(0..14usize))
                    .map(|_| (rng.gen_range(1..32u64), if repeat { rng.gen_range(1..4u64) } else { 1 }))
                    .collect();
                let pool = rng.gen_range(28..40u64);
                let clauses = (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let mut c: MultiSet<u64> = (0..rng.gen_range(1..4usize))
                            .map(|_| rng.gen_range(pool..pool + 8))
                            .collect();
                        if rng.gen_bool(0.05) {
                            c.insert(Q + rng.gen_range(0..3u64));
                        }
                        c
                    })
                    .collect();
                (x1, clauses)
            })
            .collect();
        assert_batch_is_twin(acc2(), &jobs);
    }

    /// The same sweep, smaller, for Construction 1 (a proof there is two
    /// `G2` commitments and an xgcd).
    #[test]
    fn random_batches_match_one_by_one_acc1(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs: Vec<Job> = (0..rng.gen_range(0..3usize))
            .map(|_| {
                let x1: MultiSet<u64> =
                    (0..rng.gen_range(0..8usize)).map(|_| rng.gen_range(1..12u64)).collect();
                let clauses = (0..rng.gen_range(0..4usize))
                    .map(|_| (0..rng.gen_range(1..4usize)).map(|_| rng.gen_range(9..20u64)).collect())
                    .collect();
                (x1, clauses)
            })
            .collect();
        assert_batch_is_twin(acc1(), &jobs);
    }

    /// Blind draws for set-up: up to six jobs of up to 23 draws from a small
    /// universe (so multiplicities above one occur by collision and repeats
    /// of a whole job are not rare), now and then a job outside the key.
    #[test]
    fn random_setup_batches_match_one_by_one(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs: Vec<MultiSet<u64>> = (0..rng.gen_range(0..7usize))
            .map(|_| {
                let top = if rng.gen_bool(0.1) { Q + 4 } else { rng.gen_range(2..Q) };
                (0..rng.gen_range(0..24usize)).map(|_| rng.gen_range(1..top)).collect()
            })
            .collect();
        assert_setup_batch_is_twin(acc2(), &jobs, acc2_by_definition);
        assert_setup_batch_is_twin(acc1(), &jobs, acc1_by_definition);
    }
}
