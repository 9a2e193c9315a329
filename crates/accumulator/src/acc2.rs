//! Construction 2: the q-DHE multiset accumulator (Zhang et al.,
//! EuroS&P'17; paper §5.2.2), with the `Sum` aggregation primitive that
//! powers vChain's online batch verification (§6.3) and the lazy
//! subscription authentication (§7.2).
//!
//! * `acc(X) = (d_A, d_B) = (g₁^{A_X(s)}, g₂^{B_X(s)})` with
//!   `A_X(s) = Σ_{x∈X} s^x` and `B_X(s) = Σ_{x∈X} s^{q−x}` (counted with
//!   multiplicity).
//! * If `X₁ ∩ X₂ = ∅` the product `A_{X₁}(s)·B_{X₂}(s)` has no `s^q` term,
//!   so `π = g₁^{A_{X₁}(s)B_{X₂}(s)}` is computable from the published
//!   powers `g₁^{sⁱ}, i ∈ [0, 2q−2] \ {q}`.
//! * `VerifyDisjoint`: `e(d_A(X₁), d_B(X₂)) = e(π, g₂)`.
//!
//! The SP-side proving path is **batch-first**: a service provider walks a
//! whole query (or a whole block's standing queries) before it proves
//! anything, so [`Accumulator::prove_disjoint_batch`] sees every job at once
//! and shares what one-at-a-time proving pays per call. `π`'s exponent
//! polynomial is `A_{X₁}(s)·B_{X₂}(s)`, so a proof is a sum of published
//! powers `g₁^{s^{x+q−y}}`; the batch prover
//!
//! * pushes every such sum of a chunk of jobs through **one** batched-affine
//!   ladder ([`sum_affine_groups`]: one field inversion per halving round
//!   for the chunk, not per proof) and normalizes the chunk's proofs with
//!   one more ([`batch_to_affine`]);
//! * merges colliding exponents `x + q − y = x′ + q − y′` by sort-merge and
//!   **buckets the non-unit ones by coefficient value** — multiplicities are
//!   2, 3, 4 …, so `Σ c·B_c` over the few bucket sums is a handful of
//!   additions where Pippenger would sweep windows of a 256-bit scalar;
//! * where an `X₁` of unit multiplicities meets clauses that share
//!   literals, uses `π(X₁, Y) = Σ_{y∈Y} π(X₁, {y})` (the proof is linear in
//!   both multisets, the property `Sum`/`ProofSum` rest on): each distinct
//!   literal's sum is computed once and every clause's proof assembled from
//!   its literals' sums.
//!
//! [`Acc2::finalize_proof`] (behind [`Accumulator::prove_disjoint`]) is the
//! one-job reference twin: a `BTreeMap` convolution, its own ladder, a
//! Pippenger pass over the non-unit coefficients. The two are byte-identical
//! on every input — a proof is a group element and its affine encoding is
//! unique — which `tests/batch_props.rs` and the ledger's twin rows pin.
//!
//! Set-up is batch-first for the same reason, on the miner's side: a block's
//! index is planned on multisets alone, so all its digests are asked for in
//! one [`Accumulator::setup_batch`]. A digest is two sums of published
//! powers (`g₁^{s^x}` for `d_A`, `g₂^{s^{q−x}}` for `d_B`), and the batch
//! runs one ladder and one normalization per curve for a whole chunk of
//! digests, out of the same [`sum_affine_groups`] / [`batch_to_affine`] pair
//! and under the same chunk budget as the prover. It has no twin: a lone
//! [`Accumulator::try_setup`] is the batch of one job, and
//! `tests/batch_props.rs` holds both against `acc(X)` evaluated term by
//! term.
//!
//! The public key grows with the *universe size* `q` (every attribute value
//! must map into `[1, q)`), the drawback the paper addresses with a trusted
//! oracle / SGX; our dictionary encoder plays that role (DESIGN.md §2).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use vchain_bigint::U256;
use vchain_pairing::{
    batch_to_affine, multi_pairing, multiexp, sum_affine, sum_affine_groups, Affine, CurveSpec,
    Field, Fr, G1Affine, G1Projective, G1Spec, G2Affine, G2Projective, G2Spec,
};

use crate::{batch_coefficients, AccElem, AccError, Accumulator, BatchItem, MultiSet};

/// The accumulative value `(d_A, d_B)` (a block's AttDigest under acc2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acc2Value {
    /// `d_A = g₁^{A_X(s)}`.
    pub da: G1Affine,
    /// `d_B = g₂^{B_X(s)}`.
    pub db: G2Affine,
}

/// A disjointness witness `π = g₁^{A(X₁)B(X₂)}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acc2Proof {
    /// The single-`G1` proof point.
    pub pi: G1Affine,
}

/// Public parameters. Powers are stored in affine form: the prove/setup
/// paths consume them via batched-affine summation, and affine bases also
/// make the occasional mixed addition cheaper.
pub struct Acc2PublicKey {
    /// The universe bound: element indices must lie in `[1, q)`.
    pub q: u64,
    /// `g₁^{sⁱ}` for `i ∈ [0, 2q−2]`. Index `q` is the *forbidden* power: it
    /// is stored as the identity and must never be consumed (the q-DHE
    /// assumption is precisely that it is hard to compute).
    pub g1_powers: Vec<G1Affine>,
    /// `g₂^{sⁱ}` for `i ∈ [0, q−1]`.
    pub g2_powers: Vec<G2Affine>,
}

/// The `X₁`-side state of a disjointness proof: the coefficient vector of
/// `A_{X₁}(s)`, checked against the universe bound once. One witness serves
/// every clause its `X₁` meets — in the batch prover, and one at a time
/// through the reference twin [`Acc2::finalize_proof`].
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use vchain_acc::{Acc2, Accumulator, MultiSet};
///
/// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(5));
/// let node: MultiSet<u64> = [1u64, 2, 3].into_iter().collect();
/// let witness = acc.prove_witness(&node).unwrap();
/// for clause in [[10u64, 11], [20u64, 21]] {
///     let clause: MultiSet<u64> = clause.into_iter().collect();
///     let proof = acc.finalize_proof(&witness, &clause).unwrap();
///     assert_eq!(proof, acc.prove_disjoint(&node, &clause).unwrap());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Acc2Witness {
    /// `(element index, multiplicity)` of `X₁`, ascending by index.
    coeffs: Vec<(u64, u64)>,
}

/// Construction 2 handle. Cloning shares the public key.
#[derive(Clone)]
pub struct Acc2 {
    pk: Arc<Acc2PublicKey>,
}

impl Acc2 {
    /// `KeyGen(1^λ)` with universe bound `q` (indices in `[1, q)`).
    pub fn keygen<R: Rng + ?Sized>(q: u64, rng: &mut R) -> Self {
        assert!(q >= 2, "universe bound must be at least 2");
        let s = Fr::random(rng);
        let n1 = (2 * q - 1) as usize; // exponents 0..=2q-2
        let mut scalars = Vec::with_capacity(n1);
        let mut cur = Fr::one();
        for i in 0..n1 {
            // poison the forbidden power with scalar 0 => identity point
            scalars.push(if i as u64 == q { U256::ZERO } else { cur.to_uint() });
            cur = Field::mul(&cur, &s);
        }
        // Powers come from the generator combs — the fixed-base layer both
        // constructions share (see `Acc1::keygen`).
        let g1_powers =
            vchain_pairing::batch_to_affine(&vchain_pairing::generator_powers::<G1Spec>(&scalars));
        let g2_powers = vchain_pairing::batch_to_affine(
            &vchain_pairing::generator_powers::<G2Spec>(&scalars[..q as usize]),
        );
        Self { pk: Arc::new(Acc2PublicKey { q, g1_powers, g2_powers }) }
    }

    /// The published parameters.
    pub fn public_key(&self) -> &Acc2PublicKey {
        &self.pk
    }

    fn check_universe<E: AccElem>(&self, x: &MultiSet<E>) -> Result<(), AccError> {
        for e in x.elements() {
            let idx = e.to_index();
            if idx == 0 || idx >= self.pk.q {
                return Err(AccError::CapacityExceeded {
                    needed: idx as usize,
                    capacity: self.pk.q as usize - 1,
                });
            }
        }
        Ok(())
    }

    /// Whether a proof of `witness`'s `X₁` against `x2` exists under this
    /// key. Disjointness before the universe bound, preserving the
    /// historical error precedence: intersecting inputs report `NotDisjoint`
    /// even when the clause also contains out-of-range elements.
    fn check_clause<E: AccElem>(
        &self,
        witness: &Acc2Witness,
        x2: &MultiSet<E>,
    ) -> Result<(), AccError> {
        for e in x2.elements() {
            if witness.coeffs.binary_search_by_key(&e.to_index(), |&(i, _)| i).is_ok() {
                return Err(AccError::NotDisjoint);
            }
        }
        self.check_universe(x2)
    }

    /// The `X₁` half of `ProveDisjoint`: extract (and bound-check) the
    /// `X₁`-side coefficients. Cost is O(|X₁|) integer work, paid once per
    /// `X₁` however many clauses it meets.
    pub fn prove_witness<E: AccElem>(&self, x1: &MultiSet<E>) -> Result<Acc2Witness, AccError> {
        self.check_universe(x1)?;
        let mut coeffs: Vec<(u64, u64)> = x1.iter().map(|(e, c)| (e.to_index(), c)).collect();
        // The multiset iterates in the element type's `Ord` order, which an
        // `AccElem` impl need not make monotone in `to_index` — sort so the
        // disjointness binary search below is valid unconditionally.
        coeffs.sort_unstable_by_key(|&(i, _)| i);
        Ok(Acc2Witness { coeffs })
    }

    /// The per-clause half of `ProveDisjoint`, one job at a time — the
    /// reference twin of [`Accumulator::prove_disjoint_batch`]: convolve the
    /// witness with the clause's exponents and sum the matching public-key
    /// powers.
    ///
    /// Duplicate exponents `x + q − y` merge into one integer coefficient
    /// first, so the point work is bounded by the number of *distinct*
    /// exponents (≤ `2q − 3`, typically far below `|X₁|·|X₂|`); unit
    /// coefficients — the overwhelmingly common case — are then added with
    /// the batched-affine ladder ([`sum_affine`]) rather than one-by-one
    /// complete projective additions.
    pub fn finalize_proof<E: AccElem>(
        &self,
        witness: &Acc2Witness,
        x2: &MultiSet<E>,
    ) -> Result<Acc2Proof, AccError> {
        self.check_clause(witness, x2)?;
        let q = self.pk.q;
        // exponent convolution: coefficient of s^{x+q−y} is Σ c₁(x)·c₂(y)
        let mut conv: BTreeMap<u64, u128> = BTreeMap::new();
        for (y, c2) in x2.iter() {
            let shift = q - y.to_index();
            for &(x, c1) in &witness.coeffs {
                debug_assert_ne!(x + shift, q, "disjointness was checked above");
                *conv.entry(x + shift).or_insert(0) += (c1 as u128) * (c2 as u128);
            }
        }
        let mut units: Vec<G1Affine> = Vec::with_capacity(conv.len());
        let mut bases: Vec<G1Projective> = Vec::new();
        let mut scalars: Vec<U256> = Vec::new();
        for (exp, c) in conv {
            let base = self.pk.g1_powers[exp as usize];
            if c == 1 {
                units.push(base);
            } else {
                bases.push(base.to_projective());
                let mut k = U256::ZERO;
                k.0[0] = c as u64;
                k.0[1] = (c >> 64) as u64;
                scalars.push(k);
            }
        }
        let mut pi = sum_affine(units);
        if !bases.is_empty() {
            pi = pi.add(&multiexp(&bases, &scalars));
        }
        Ok(Acc2Proof { pi: pi.to_affine() })
    }
}

impl Accumulator for Acc2 {
    type Value = Acc2Value;
    type Proof = Acc2Proof;
    type Operand = G1Affine;

    fn name(&self) -> &'static str {
        "acc2"
    }

    fn try_setup<E: AccElem>(&self, x: &MultiSet<E>) -> Result<Acc2Value, AccError> {
        self.setup_batch(&[x]).pop().expect("one job in, one result out")
    }

    fn setup_batch<E: AccElem>(&self, jobs: &[&MultiSet<E>]) -> Vec<Result<Acc2Value, AccError>> {
        // Every check first, as the prover makes them: a multiset that
        // leaves the universe fails alone.
        let checks: Vec<_> = jobs.iter().map(|x| self.check_universe(x)).collect();
        let passed: Vec<&MultiSet<E>> =
            jobs.iter().zip(&checks).filter_map(|(x, check)| check.is_ok().then_some(*x)).collect();
        let q = self.pk.q as usize;
        let (g1, g2) = (&self.pk.g1_powers, &self.pk.g2_powers);
        let mut values = Vec::with_capacity(passed.len());
        let (mut chunk_start, mut points) = (0, 0);
        for (i, x) in passed.iter().enumerate() {
            // A chunk is whole jobs: it closes past the budget, as the
            // prover's does.
            points += x.distinct_len();
            if points >= CHUNK_POINTS || i + 1 == passed.len() {
                let chunk = &passed[core::mem::replace(&mut chunk_start, i + 1)..=i];
                // d_A = Π (g1^{s^x})^{c_x} ; d_B = Π (g2^{s^{q-x}})^{c_x}.
                let da = digest_components(chunk, |idx| g1[idx]);
                let db = digest_components(chunk, |idx| g2[q - idx]);
                values.extend(da.into_iter().zip(db).map(|(da, db)| Acc2Value { da, db }));
                points = 0;
            }
        }
        let mut values = values.into_iter();
        checks
            .into_iter()
            .map(|check| check.map(|()| values.next().expect("one value per passed check")))
            .collect()
    }

    fn prove_disjoint<E: AccElem>(
        &self,
        x1: &MultiSet<E>,
        x2: &MultiSet<E>,
    ) -> Result<Acc2Proof, AccError> {
        let witness = self.prove_witness(x1)?;
        self.finalize_proof(&witness, x2)
    }

    fn prove_disjoint_batch<E: AccElem>(
        &self,
        jobs: &[(&MultiSet<E>, &[MultiSet<E>])],
    ) -> Vec<Result<Acc2Proof, AccError>> {
        // Every check first, exactly as the one-job path makes them: a
        // clause that intersects or leaves the universe fails alone, and if
        // the X₁-side witness cannot be built, every clause of its group
        // inherits that error.
        let mut checks = Vec::with_capacity(jobs.iter().map(|(_, clauses)| clauses.len()).sum());
        // One proof per passed check, in job order.
        let mut proofs: Vec<Acc2Proof> = Vec::with_capacity(checks.capacity());
        let mut chunk = Chunk::default();
        for &(x1, clauses) in jobs {
            match self.prove_witness(x1) {
                Err(e) => checks.extend(clauses.iter().map(|_| Err(e.clone()))),
                Ok(witness) => {
                    let first = checks.len();
                    checks.extend(clauses.iter().map(|c| self.check_clause(&witness, c)));
                    let provable: Vec<&MultiSet<E>> = clauses
                        .iter()
                        .zip(&checks[first..])
                        .filter_map(|(c, check)| check.is_ok().then_some(c))
                        .collect();
                    chunk.plan_group(self.pk.q, &witness.coeffs, &provable);
                }
            }
            if chunk.exps.len() >= CHUNK_POINTS {
                chunk.prove_into(&self.pk.g1_powers, &mut proofs);
            }
        }
        chunk.prove_into(&self.pk.g1_powers, &mut proofs);
        let mut proofs = proofs.into_iter();
        checks
            .into_iter()
            .map(|check| check.map(|()| proofs.next().expect("one proof per passed check")))
            .collect()
    }

    fn verify_operand(&self, da: &G1Affine, a2: &Acc2Value, proof: &Acc2Proof) -> bool {
        // e(d_A(X1), d_B(X2)) == e(π, g2)  ⇔  e(d_A, d_B) · e(−π, g2) == 1
        let g2 = G2Projective::generator().to_affine();
        multi_pairing(&[(*da, a2.db), (proof.pi.neg(), g2)]).is_one()
    }

    fn operand(v: &Acc2Value) -> G1Affine {
        v.da
    }

    fn operand_bytes(da: &G1Affine) -> Vec<u8> {
        da.to_bytes()
    }

    fn operand_from_bytes(&self, bytes: &[u8]) -> Result<G1Affine, crate::DecodeError> {
        crate::check_len(self.value_size(), bytes.len())?;
        crate::decode_slot::<G1Spec>(&bytes[..G1Spec::COMPRESSED_BYTES], 0)
    }

    fn sum_operands(&self, ops: &[G1Affine]) -> Result<G1Affine, AccError> {
        Ok(sum_affine(ops.iter().copied()).to_affine())
    }

    /// Random-linear-combination batch verification. Construction 2's
    /// per-triple check is `e(d_A(X₁)ᵢ, d_B(X₂)ᵢ) = e(πᵢ, g₂)`. All the
    /// proofs pair against the *same* fixed `g₂`, and the items of one
    /// query pair against the `d_B` of a handful of clauses, so by
    /// bilinearity both sides collapse into multi-exponents:
    ///
    /// ```text
    /// Π_c e(Σ_{i∈c} ρᵢ·d_Aᵢ, d_B^c) · e(−Σρᵢπᵢ, g₂) = 1
    /// ```
    ///
    /// with `c` ranging over the *distinct* clause digests of the batch.
    /// An `n`-batch over `k` clauses costs one `k+1`-pair multi-pairing
    /// (one final exponentiation) plus `k+1` multiexps of 128-bit scalars
    /// over `2n` points in all — versus `n` Miller pairs for the ungrouped
    /// sum, and `n` full pairing checks for the naive loop. The grouping is
    /// an identity, so the accepted set is the ungrouped check's. The
    /// coefficients `ρᵢ` come from the shared [`batch_coefficients`]
    /// transcript derivation.
    fn batch_holds(&self, context: &[u8], items: &[BatchItem<Self>]) -> bool {
        match items {
            [] => true,
            [(da, a2, proof)] => self.verify_operand(da, a2, proof),
            _ => multi_pairing(&rlc_pairs(context, items)).is_one(),
        }
    }

    fn value_bytes(v: &Acc2Value) -> Vec<u8> {
        let mut out = v.da.to_bytes();
        out.extend_from_slice(&v.db.to_bytes());
        out
    }

    fn proof_bytes(p: &Acc2Proof) -> Vec<u8> {
        p.pi.to_bytes()
    }

    fn value_size(&self) -> usize {
        G1Spec::COMPRESSED_BYTES + G2Spec::COMPRESSED_BYTES
    }

    fn proof_size(&self) -> usize {
        G1Spec::COMPRESSED_BYTES // one compressed G1 point
    }

    fn proof_from_bytes(&self, bytes: &[u8]) -> Result<Acc2Proof, crate::DecodeError> {
        crate::check_len(self.proof_size(), bytes.len())?;
        Ok(Acc2Proof { pi: crate::decode_slot::<G1Spec>(bytes, 0)? })
    }

    fn supports_aggregation(&self) -> bool {
        true
    }

    fn sum(&self, values: &[Acc2Value]) -> Result<Acc2Value, AccError> {
        let mut da = G1Projective::identity();
        let mut db = G2Projective::identity();
        for v in values {
            da = da.add_affine(&v.da);
            db = db.add_affine(&v.db);
        }
        Ok(Acc2Value { da: da.to_affine(), db: db.to_affine() })
    }
}

/// How many public-key powers one chunk of the batch prover gathers before
/// it runs its ladder. A chunk is whole `X₁` groups, so this is where it
/// closes, not a cap on it. What it bounds is the ladder's working layer
/// (104 bytes a point: under 1 MB here, where a block's 1 056 jobs in one
/// piece are 5–13 MB and a batch has no upper limit), at no cost in time: on
/// the ledger's `prove_batch_acc2_window_19` / `_block_1056` fixtures a
/// proof costs 176 / 19.2 µs at 1 000 points a chunk, 149–155 / 17.7–18.7 µs
/// anywhere from 4 000 to 24 000, and the same with no bound at all — past
/// a few thousand chords a round's shared inversion is already spread thin.
/// A constant, not an option: no caller has a reason to choose.
const CHUNK_POINTS: usize = 8_192;

/// One component of every digest of a chunk of set-up jobs
/// ([`Accumulator::setup_batch`]): `Σ c_x · power(x)` per job, where `power`
/// reads the key (`g₁^{s^x}` for `d_A`, `g₂^{s^{q−x}}` for `d_B`). Unit
/// multiplicities — the common case: an object's attributes, a tree node's
/// union — are gathered straight out of the key into one ladder for the whole
/// chunk, and the chunk's sums normalized together: a round's inversion and
/// the final one are paid once per chunk and curve, not once per digest.
fn digest_components<S: CurveSpec, E: AccElem>(
    jobs: &[&MultiSet<E>],
    power: impl Fn(usize) -> Affine<S> + Copy,
) -> Vec<Affine<S>> {
    let power_of = move |e: &E| power(e.to_index() as usize);
    let mut sums = sum_affine_groups(
        jobs.iter().map(|x| x.iter().filter(|&(_, c)| c == 1).map(move |(e, _)| power_of(e))),
    );
    for (sum, x) in sums.iter_mut().zip(jobs) {
        for (e, c) in x.iter().filter(|&(_, c)| c != 1) {
            *sum = sum.add(&power_of(e).to_projective().mul_u256(&U256::from_u64(c)));
        }
    }
    batch_to_affine(&sums)
}

/// The batch prover's unit of work ([`Accumulator::prove_disjoint_batch`]):
/// the jobs of some whole `X₁` groups, planned as index lists — which
/// powers each ladder group sums, and which group sums, times what, make up
/// each proof — and then proved together by [`Chunk::prove_into`].
#[derive(Default)]
struct Chunk {
    /// Exponents of the `g₁` powers to sum, ladder group after ladder group.
    exps: Vec<usize>,
    /// Ladder group `g` is `exps[group_ends[g − 1]..group_ends[g]]`.
    group_ends: Vec<usize>,
    /// `(ladder group, coefficient)`, proof after proof, a proof's terms
    /// ascending by coefficient: `π = Σ coefficient · sum(group)`.
    terms: Vec<(usize, u128)>,
    /// Proof `p` is `terms[proof_ends[p − 1]..proof_ends[p]]`.
    proof_ends: Vec<usize>,
    /// Scratch of [`Chunk::plan_clause`], reused from clause to clause.
    conv: Vec<(usize, u128)>,
}

impl Chunk {
    /// Plan the proofs of one `X₁` (its witness coefficients, ascending by
    /// index) against `clauses`, each already checked disjoint from it and
    /// inside the universe `[1, q)`.
    fn plan_group<E: AccElem>(&mut self, q: u64, x1: &[(u64, u64)], clauses: &[&MultiSet<E>]) {
        let mut literals: Vec<u64> =
            clauses.iter().flat_map(|c| c.elements().map(AccElem::to_index)).collect();
        let uses = literals.len();
        literals.sort_unstable();
        literals.dedup();
        // π is linear in the clause: π(X₁, Y) = Σ_{y∈Y} c(y)·π(X₁, {y}). Where
        // clauses share literals, sum each distinct literal's shifted copy
        // of X₁ once and assemble every clause from its literals' sums. With
        // multiplicities on X₁ a literal's sum is itself a bucketed sum, and
        // with nothing shared it saves nothing: those clauses go one by one.
        if literals.len() == uses || x1.iter().any(|&(_, c)| c != 1) {
            for clause in clauses {
                self.plan_clause(q, x1, clause);
            }
            return;
        }
        let first_group = self.group_ends.len();
        for y in &literals {
            self.exps.extend(x1.iter().map(|&(x, _)| exponent(q, x, *y)));
            self.group_ends.push(self.exps.len());
        }
        for clause in clauses {
            let start = self.terms.len();
            self.terms.extend(clause.iter().map(|(y, c)| {
                let group = literals.binary_search(&y.to_index()).expect("collected above");
                (first_group + group, c as u128)
            }));
            self.terms[start..].sort_unstable_by_key(|&(_, c)| c);
            self.proof_ends.push(self.terms.len());
        }
    }

    /// Plan one proof on its own: convolve exponents, merge collisions, and
    /// hand the ladder one group of unit-coefficient powers plus one group
    /// per distinct larger coefficient.
    fn plan_clause<E: AccElem>(&mut self, q: u64, x1: &[(u64, u64)], clause: &MultiSet<E>) {
        // The coefficient of s^{x+q−y} is Σ c₁(x)·c₂(y) over colliding pairs.
        self.conv.clear();
        for (y, c2) in clause.iter() {
            let y = y.to_index();
            self.conv.extend(
                x1.iter().map(|&(x, c1)| (exponent(q, x, y), u128::from(c1) * u128::from(c2))),
            );
        }
        // Every literal appended an ascending run; the stable sort merges
        // runs instead of starting over.
        self.conv.sort_by_key(|&(exp, _)| exp);
        self.conv.dedup_by(|next, kept| {
            let collide = next.0 == kept.0;
            if collide {
                kept.1 += next.1;
            }
            collide
        });
        // Units first, then buckets of equal coefficient, ascending.
        self.conv.sort_unstable_by_key(|&(_, c)| c);
        for bucket in self.conv.chunk_by(|a, b| a.1 == b.1) {
            self.exps.extend(bucket.iter().map(|&(exp, _)| exp));
            self.group_ends.push(self.exps.len());
            self.terms.push((self.group_ends.len() - 1, bucket[0].1));
        }
        self.proof_ends.push(self.terms.len());
    }

    /// Prove everything planned — one ladder over every group, one shared
    /// normalization — append the proofs in planning order, and reset.
    fn prove_into(&mut self, powers: &[G1Affine], proofs: &mut Vec<Acc2Proof>) {
        if self.proof_ends.is_empty() {
            return;
        }
        let mut start = 0;
        let groups = self.group_ends.iter().map(|&end| {
            let group = &self.exps[core::mem::replace(&mut start, end)..end];
            group.iter().map(|&exp| powers[exp])
        });
        let sums = sum_affine_groups(groups);
        let add = |acc: G1Projective, p: &G1Projective| match acc.is_identity() {
            true => *p,
            false => acc.add(p),
        };
        let mut start = 0;
        let points: Vec<G1Projective> = self
            .proof_ends
            .iter()
            .map(|&end| {
                // Σ c·B_c by running sums, largest coefficient first: after
                // adding bucket c the running sum holds every bucket ≥ c, and
                // is owed to π once per unit of the gap down to the next
                // smaller coefficient — a handful of additions where the
                // twin runs Pippenger over 256-bit scalars holding 2 and 3.
                let terms = &self.terms[core::mem::replace(&mut start, end)..end];
                let (mut running, mut pi) = (G1Projective::identity(), G1Projective::identity());
                for (i, &(group, c)) in terms.iter().enumerate().rev() {
                    running = add(running, &sums[group]);
                    let gap = c - i.checked_sub(1).map_or(0, |below| terms[below].1);
                    if gap > 0 {
                        pi = add(pi, &times(&running, gap));
                    }
                }
                pi
            })
            .collect();
        proofs.extend(batch_to_affine(&points).into_iter().map(|pi| Acc2Proof { pi }));
        self.exps.clear();
        self.group_ends.clear();
        self.terms.clear();
        self.proof_ends.clear();
    }
}

/// The exponent `x + q − y` of the power a pair `(x ∈ X₁, y ∈ X₂)` selects.
/// Never the forbidden `q`: the pair was checked disjoint.
fn exponent(q: u64, x: u64, y: u64) -> usize {
    let exp = x + q - y;
    debug_assert_ne!(exp, q, "disjointness was checked before planning");
    exp as usize
}

/// `k·P` for the small gaps between bucket coefficients (`k ≥ 1`): plain
/// double-and-add, no table to build for a scalar of two or three bits.
fn times(p: &G1Projective, k: u128) -> G1Projective {
    let mut acc = *p;
    for bit in (0..k.ilog2()).rev() {
        acc = acc.double();
        if (k >> bit) & 1 == 1 {
            acc = acc.add(p);
        }
    }
    acc
}

/// The pairs of the aggregated check of
/// [`Acc2::batch_holds`]: one per distinct clause digest of
/// the batch, in first-occurrence order, then the `g₂` pair.
fn rlc_pairs(context: &[u8], items: &[BatchItem<Acc2>]) -> Vec<(G1Affine, G2Affine)> {
    let rho = batch_coefficients::<Acc2>(context, items);
    let scalars: Vec<U256> = rho.iter().map(Fr::to_uint).collect();
    // A query has a handful of clauses, so a linear scan finds the group.
    let mut clauses: Vec<G2Affine> = Vec::new();
    let mut groups: Vec<(Vec<G1Projective>, Vec<U256>)> = Vec::new();
    for ((da, a2, _), k) in items.iter().zip(&scalars) {
        let c = clauses.iter().position(|db| *db == a2.db).unwrap_or_else(|| {
            clauses.push(a2.db);
            groups.push((Vec::new(), Vec::new()));
            clauses.len() - 1
        });
        groups[c].0.push(da.to_projective());
        groups[c].1.push(*k);
    }
    let mut sums: Vec<G1Projective> = groups.iter().map(|(b, k)| multiexp(b, k)).collect();
    let pis: Vec<G1Projective> = items.iter().map(|(_, _, p)| p.pi.to_projective()).collect();
    sums.push(multiexp(&pis, &scalars).neg());
    clauses.push(G2Projective::generator().to_affine());
    vchain_pairing::batch_to_affine(&sums).into_iter().zip(clauses).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn acc() -> Acc2 {
        Acc2::keygen(64, &mut StdRng::seed_from_u64(21))
    }

    fn ms(v: &[u64]) -> MultiSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn disjoint_round_trip() {
        let a = acc();
        let x1 = ms(&[1, 2, 3]);
        let x2 = ms(&[10, 20]);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert!(a.verify_disjoint(&a.setup(&x1), &a.setup(&x2), &proof));
    }

    #[test]
    fn intersecting_sets_rejected() {
        let a = acc();
        assert_eq!(a.prove_disjoint(&ms(&[1, 2]), &ms(&[2])).unwrap_err(), AccError::NotDisjoint);
    }

    #[test]
    fn witness_reuse_matches_direct_proofs() {
        let a = acc();
        let x1 = ms(&[1, 2, 3, 7, 7]);
        let clauses = vec![ms(&[10, 20]), ms(&[30]), ms(&[10, 31, 32])];
        let w = a.prove_witness(&x1).unwrap();
        for c in &clauses {
            assert_eq!(a.finalize_proof(&w, c).unwrap(), a.prove_disjoint(&x1, c).unwrap());
        }
        let batch = a.prove_disjoint_batch(&[(&x1, &clauses)]);
        for (p, c) in batch.iter().zip(&clauses) {
            assert_eq!(*p, a.prove_disjoint(&x1, c));
            assert!(a.verify_disjoint(&a.setup(&x1), &a.setup(c), p.as_ref().unwrap()));
        }
    }

    #[test]
    fn prove_disjoint_batch_attributes_errors_per_clause() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        // the intersecting clause fails alone: the good proof survives
        let batch = a.prove_disjoint_batch(&[(&x1, &[ms(&[10]), ms(&[2])])]);
        assert_eq!(batch[0], a.prove_disjoint(&x1, &ms(&[10])));
        assert_eq!(batch[1], Err(AccError::NotDisjoint));
        // an X₁ outside the universe fails every clause of its group, and
        // only of its group
        let batch =
            a.prove_disjoint_batch(&[(&ms(&[64]), &[ms(&[1]), ms(&[2])]), (&x1, &[ms(&[10])])]);
        assert!(matches!(batch[0], Err(AccError::CapacityExceeded { .. })));
        assert!(matches!(batch[1], Err(AccError::CapacityExceeded { .. })));
        assert_eq!(batch[2], a.prove_disjoint(&x1, &ms(&[10])));
    }

    #[test]
    fn exponent_convolution_merges_duplicates() {
        // X1 = {2, 3}, X2 = {10, 11}: exponents {2+q−10, 2+q−11, 3+q−10,
        // 3+q−11} collide pairwise (2−10 = 3−11), so the merged coefficient
        // vector has 3 entries with the middle one = 2. The proof must be
        // identical to the unmerged formulation — verified against setup.
        let a = acc();
        let x1 = ms(&[2, 3]);
        let x2 = ms(&[10, 11]);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert!(a.verify_disjoint(&a.setup(&x1), &a.setup(&x2), &proof));
    }

    #[test]
    fn wrong_value_fails() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[10]);
        let x3 = ms(&[11]);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert!(!a.verify_disjoint(&a.setup(&x1), &a.setup(&x3), &proof));
    }

    #[test]
    fn forged_proof_fails() {
        let a = acc();
        let x1 = ms(&[1]);
        let x2 = ms(&[2]);
        let forged = Acc2Proof { pi: G1Projective::generator().mul_u64(7).to_affine() };
        assert!(!a.verify_disjoint(&a.setup(&x1), &a.setup(&x2), &forged));
    }

    #[test]
    fn sum_equals_setup_of_multiset_sum() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[2, 3]); // overlapping is fine for Sum
        let direct = a.setup(&x1.sum(&x2));
        let aggregated = a.sum(&[a.setup(&x1), a.setup(&x2)]).unwrap();
        assert_eq!(direct, aggregated);
    }

    #[test]
    fn sum_verifies_a_proof_of_the_summed_multiset() {
        // Sum(acc(X1), acc(X2)) = acc(X1 + X2), so the proof for the summed
        // multiset verifies against the summed values (§6.3).
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[3]);
        let y = ms(&[20, 21]);
        let agg_value = a.sum(&[a.setup(&x1), a.setup(&x2)]).unwrap();
        assert_eq!(agg_value, a.setup(&x1.sum(&x2)));
        let proof = a.prove_disjoint(&x1.sum(&x2), &y).unwrap();
        assert!(a.verify_disjoint(&agg_value, &a.setup(&y), &proof));
        // the verifier's operand-only Sum is the d_A half of the full one
        let agg_operand = a.sum_operands(&[a.setup(&x1).da, a.setup(&x2).da]).unwrap();
        assert_eq!(agg_operand, agg_value.da);
        assert!(a.verify_operand(&agg_operand, &a.setup(&y), &proof));
    }

    #[test]
    fn universe_bound_enforced() {
        let a = acc();
        let out_of_range = ms(&[64]); // q = 64 ⇒ max index 63
        assert!(matches!(
            a.prove_disjoint(&out_of_range, &ms(&[1])),
            Err(AccError::CapacityExceeded { .. })
        ));
        // Error precedence (pinned): an intersecting clause reports
        // NotDisjoint even when it also contains out-of-range elements.
        assert_eq!(
            a.prove_disjoint(&ms(&[1, 2]), &ms(&[2, 70])).unwrap_err(),
            AccError::NotDisjoint
        );
    }

    #[test]
    fn multiplicities_scale_the_proof() {
        let a = acc();
        let x = ms(&[4, 4]);
        let y = ms(&[9]);
        let proof = a.prove_disjoint(&x, &y).unwrap();
        assert!(a.verify_disjoint(&a.setup(&x), &a.setup(&y), &proof));
    }

    #[test]
    fn reported_sizes_match_serialization() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[10]);
        let v = a.setup(&x1);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert_eq!(Acc2::value_bytes(&v).len(), a.value_size());
        assert_eq!(Acc2::proof_bytes(&proof).len(), a.proof_size());
    }

    fn batch(a: &Acc2, specs: &[(&[u64], &[u64])]) -> Vec<BatchItem<Acc2>> {
        specs
            .iter()
            .map(|(x, y)| {
                let (x, y) = (ms(x), ms(y));
                (a.setup(&x).da, a.setup(&y), a.prove_disjoint(&x, &y).unwrap())
            })
            .collect()
    }

    /// The pre-grouping aggregated check, one Miller pair per item:
    /// `Π e(ρᵢ·d_Aᵢ, d_Bᵢ) · e(−Σρᵢπᵢ, g₂) = 1`. Test oracle for
    /// [`rlc_pairs`].
    fn ungrouped(context: &[u8], items: &[BatchItem<Acc2>]) -> bool {
        let rho = batch_coefficients::<Acc2>(context, items);
        let mut pairs = Vec::new();
        let mut agg_pi = G1Projective::identity();
        for ((da, a2, proof), r) in items.iter().zip(&rho) {
            pairs.push((da.to_projective().mul_fr(r).to_affine(), a2.db));
            agg_pi = agg_pi.add(&proof.pi.to_projective().mul_fr(r));
        }
        pairs.push((agg_pi.neg().to_affine(), G2Projective::generator().to_affine()));
        multi_pairing(&pairs).is_one()
    }

    /// Grouped and ungrouped aggregation accept and reject the same
    /// batches: random batches of 1…40 items over 1…4 distinct clauses,
    /// then one corrupted item at every position — a bad `π`, a bad `d_A`,
    /// and a right proof paired with the wrong clause — with the attributed
    /// fallback naming the position, and one Miller pair per distinct
    /// clause plus the `g₂` pair.
    #[test]
    fn grouped_batch_agrees_with_ungrouped_on_accept_and_reject() {
        let a = acc();
        let mut rng = StdRng::seed_from_u64(0x6209);
        let clauses: Vec<MultiSet<u64>> = (0..4).map(|c| ms(&[40 + 2 * c, 41 + 2 * c])).collect();
        let clause_vals: Vec<Acc2Value> = clauses.iter().map(|c| a.setup(c)).collect();
        let bogus = G1Projective::generator().mul_u64(13).to_affine();
        for n in [1usize, 2, 3, 5, 17, 40] {
            let k = rng.gen_range(1..=4usize.min(n));
            // item i refutes clause (i mod k): every one of the k clauses occurs
            let items: Vec<BatchItem<Acc2>> = (0..n)
                .map(|i| {
                    let x = ms(&[rng.gen_range(1..20u64), rng.gen_range(20..40u64)]);
                    let proof = a.prove_disjoint(&x, &clauses[i % k]).unwrap();
                    (a.setup(&x).da, clause_vals[i % k], proof)
                })
                .collect();
            let ctx = (n as u64).to_le_bytes();
            assert!(ungrouped(&ctx, &items));
            assert!(a.batch_holds(&ctx, &items));
            assert_eq!(a.batch_verify_disjoint(&ctx, &items), Ok(()));
            if n > 1 {
                assert_eq!(rlc_pairs(&ctx, &items).len(), k + 1, "n={n} k={k}");
            }

            for pos in 0..n {
                let wrong_clause = clause_vals[(pos % k + 1) % 4];
                let corruptions: [BatchItem<Acc2>; 3] = [
                    (items[pos].0, items[pos].1, Acc2Proof { pi: bogus }),
                    (bogus, items[pos].1, items[pos].2),
                    (items[pos].0, wrong_clause, items[pos].2),
                ];
                for (which, bad) in corruptions.into_iter().enumerate() {
                    let mut mutated = items.clone();
                    mutated[pos] = bad;
                    assert!(!ungrouped(&ctx, &mutated), "n={n} pos={pos} corruption={which}");
                    assert!(!a.batch_holds(&ctx, &mutated), "n={n} pos={pos} corruption={which}");
                    assert_eq!(
                        a.batch_verify_disjoint(&ctx, &mutated),
                        Err(pos),
                        "n={n} corruption={which}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let a = acc();
        let items = batch(&a, &[(&[1, 2], &[10, 20]), (&[3], &[30]), (&[4, 4], &[9])]);
        assert_eq!(a.batch_verify_disjoint(&[], &items), Ok(()));
        assert_eq!(a.batch_verify_disjoint(&[], &[]), Ok(()));
        assert_eq!(a.batch_verify_disjoint(&[], &items[..1]), Ok(()));
    }

    #[test]
    fn batch_verify_rejects_one_forged_member() {
        let a = acc();
        let mut items = batch(&a, &[(&[1, 2], &[10, 20]), (&[3], &[30]), (&[4], &[9])]);
        items[2].2 = Acc2Proof { pi: G1Projective::generator().mul_u64(13).to_affine() };
        assert_eq!(a.batch_verify_disjoint(&[], &items), Err(2));
        // swapping two otherwise-valid proofs must also fail
        let mut swapped = batch(&a, &[(&[1], &[10]), (&[2], &[20])]);
        let p0 = swapped[0].2;
        swapped[0].2 = swapped[1].2;
        swapped[1].2 = p0;
        assert_eq!(a.batch_verify_disjoint(&[], &swapped), Err(0));
    }

    #[test]
    fn attributed_batch_names_the_forged_item() {
        let a = acc();
        let mut items = batch(&a, &[(&[1], &[10]), (&[2], &[20]), (&[3], &[30])]);
        assert_eq!(a.batch_verify_disjoint(&[], &items), Ok(()));
        items[1].2 = Acc2Proof { pi: G1Projective::generator().mul_u64(99).to_affine() };
        assert_eq!(a.batch_verify_disjoint(&[], &items), Err(1));
    }

    #[test]
    fn batch_coefficients_are_deterministic_and_transcript_bound() {
        // Two calls over the same items must produce identical coefficients
        // (the batch and any retry see one transcript), any reorder of the
        // items must change them, and so must any change of context — a
        // batch aggregated for one block coverage cannot be replayed against
        // another even when the item bytes coincide. The empty-context
        // derivation is pinned to the values the former context-free
        // `batch_coefficients` produced, so the transcript layout cannot
        // drift unnoticed.
        let a = acc();
        let items = batch(&a, &[(&[1], &[10]), (&[2], &[20])]);
        let plain = batch_coefficients::<Acc2>(&[], &items);
        assert_eq!(plain, batch_coefficients::<Acc2>(&[], &items));
        let swapped = vec![items[1], items[0]];
        assert_ne!(plain, batch_coefficients::<Acc2>(&[], &swapped));
        assert_eq!(
            format!("{:?}", plain.iter().map(Fr::to_uint).collect::<Vec<_>>()),
            "[0xb49a86477077c8711f2c6786dd03bb40, 0x20d81307d6513b5aac7262d994020612]"
        );
        assert_ne!(plain, batch_coefficients::<Acc2>(b"heights", &items));
        assert_ne!(
            batch_coefficients::<Acc2>(b"heights", &items),
            batch_coefficients::<Acc2>(b"heights2", &items)
        );
    }

    #[test]
    fn try_setup_errors_instead_of_panicking() {
        let a = acc();
        assert!(matches!(
            a.try_setup(&ms(&[64])), // q = 64 ⇒ max index 63
            Err(AccError::CapacityExceeded { needed: 64, capacity: 63 })
        ));
        assert_eq!(a.try_setup(&ms(&[1, 2])).unwrap(), a.setup(&ms(&[1, 2])));
    }

    #[test]
    fn wire_decode_round_trips_and_rejects_corruption() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[10]);
        let v = a.setup(&x1);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();

        let vb = Acc2::value_bytes(&v);
        assert_eq!(a.operand_from_bytes(&vb).unwrap(), Acc2::operand(&v));
        let pb = Acc2::proof_bytes(&proof);
        assert_eq!(a.proof_from_bytes(&pb).unwrap(), proof);

        assert!(matches!(a.operand_from_bytes(&[]), Err(crate::DecodeError::Length { .. })));
        assert!(matches!(
            a.operand_from_bytes(&vb[..G1Spec::COMPRESSED_BYTES]),
            Err(crate::DecodeError::Length { .. })
        ));
        assert!(matches!(a.proof_from_bytes(&pb[1..]), Err(crate::DecodeError::Length { .. })));

        // corrupting the consumed d_A half is a slot-0 point error …
        let mut bad = vb.clone();
        bad[0] ^= 0b100; // d_A's flag byte → invalid flags
        match a.operand_from_bytes(&bad) {
            Err(crate::DecodeError::Point { slot: 0, .. }) => {}
            other => panic!("expected slot-0 point error, got {other:?}"),
        }
        // … while the d_B half is never parsed: the operand has no G2 part,
        // and a hash commitment over the whole byte string is what pins it
        let mut bad = vb.clone();
        bad[G1Spec::COMPRESSED_BYTES] ^= 0b100; // d_B's flag byte
        assert_eq!(a.operand_from_bytes(&bad).unwrap(), v.da);
    }

    #[test]
    fn forbidden_power_is_poisoned() {
        let a = acc();
        assert!(a.pk.g1_powers[a.pk.q as usize].is_identity());
    }

    /// Batch and one-by-one proofs of `jobs` under `a`, compared.
    fn assert_batch_is_twin(a: &Acc2, jobs: &[(MultiSet<u64>, Vec<MultiSet<u64>>)]) {
        let borrowed: Vec<_> = jobs.iter().map(|(x1, cs)| (x1, cs.as_slice())).collect();
        let twin: Vec<_> = jobs
            .iter()
            .flat_map(|(x1, cs)| cs.iter().map(move |c| a.prove_disjoint(x1, c)))
            .collect();
        assert_eq!(a.prove_disjoint_batch(&borrowed), twin);
    }

    /// Jobs through every path of the batch prover whose exponents crowd
    /// the forbidden one: `x − y = ±1` throughout.
    fn jobs_around_q() -> Vec<(MultiSet<u64>, Vec<MultiSet<u64>>)> {
        vec![
            (ms(&[10, 12, 14]), vec![ms(&[11, 13]), ms(&[13, 15]), ms(&[9, 11])]), // shared literals
            (ms(&[10, 12, 12, 14]), vec![ms(&[11, 13])]),                          // buckets
            (ms(&[20, 22]), vec![ms(&[21]), ms(&[19, 23])]), // clause by clause
        ]
    }

    /// The batch prover never reads `g1_powers[q]`: with a non-identity
    /// point planted there, every proof is still what the clean key gives.
    /// (The twin would add the planted point in silently; the batch prover's
    /// `debug_assert_ne!` also trips in debug builds.)
    #[test]
    fn batch_never_reads_the_forbidden_power() {
        let clean = acc();
        let mut planted = Acc2PublicKey {
            q: clean.pk.q,
            g1_powers: clean.pk.g1_powers.clone(),
            g2_powers: clean.pk.g2_powers.clone(),
        };
        planted.g1_powers[planted.q as usize] = G1Projective::generator().mul_u64(77).to_affine();
        let planted = Acc2 { pk: Arc::new(planted) };
        for (x1, clauses) in jobs_around_q() {
            assert_eq!(
                planted.prove_disjoint_batch(&[(&x1, &clauses)]),
                clean.prove_disjoint_batch(&[(&x1, &clauses)])
            );
        }
        assert_batch_is_twin(&clean, &jobs_around_q());
    }

    /// The degenerate key of trapdoor `s = −1`: the powers alternate `g, −g`.
    /// An honest key's powers are distinct; under this one the pairs of
    /// every ladder round are doublings or cancellations.
    fn alternating_key(q: u64) -> Acc2 {
        let (g1, g2) =
            (G1Projective::generator().to_affine(), G2Projective::generator().to_affine());
        Acc2 {
            pk: Arc::new(Acc2PublicKey {
                q,
                g1_powers: (0..2 * q - 1)
                    .map(|i| match i {
                        i if i == q => G1Affine::identity(),
                        i if i % 2 == 0 => g1,
                        _ => g1.neg(),
                    })
                    .collect(),
                g2_powers: (0..q).map(|i| if i % 2 == 0 { g2 } else { g2.neg() }).collect(),
            }),
        }
    }

    /// Equal points meeting in one ladder round — the same-`x` spill.
    #[test]
    fn batch_matches_twin_when_every_chord_is_exceptional() {
        let a = alternating_key(32);
        let jobs = vec![
            (ms(&[1, 2, 3, 4, 6]), vec![ms(&[20, 21]), ms(&[21, 23]), ms(&[20, 24, 26])]),
            (ms(&[1, 2, 2, 5, 7, 9]), vec![ms(&[20, 22]), ms(&[21])]),
            (ms(&[2, 4, 6, 8]), vec![ms(&[10, 12, 14])]),
        ];
        assert_batch_is_twin(&a, &jobs);
        for (x1, clauses) in &jobs {
            for c in clauses {
                let proof = a.prove_disjoint(x1, c).unwrap();
                assert!(a.verify_disjoint(&a.setup(x1), &a.setup(c), &proof));
            }
        }
    }

    /// The same spill in set-up, on both curves: under the alternating key
    /// `acc(X)` is `(n·g₁, n·g₂)` for `n` the even elements of `X` less the
    /// odd ones, counted with multiplicity (`q = 32` is even, so `s^{q−x}`
    /// has the sign of `s^x`) — all doublings, all cancellations, and
    /// mixtures, side by side in one ladder.
    #[test]
    fn setup_batch_is_exact_when_every_chord_is_exceptional() {
        let a = alternating_key(32);
        let jobs = [
            (ms(&[2, 4, 6, 8, 10, 12, 14]), 7i64), // doublings all the way down
            (ms(&[1, 2, 3, 4]), 0),                // every pair cancels
            (ms(&[1, 2, 4, 6, 7, 8, 8, 8]), 4),    // a mixture, with a multiplicity
            (ms(&[5]), -1),
            (ms(&[]), 0),
        ];
        let batch = a.setup_batch(&jobs.iter().map(|(x, _)| x).collect::<Vec<_>>());
        for ((x, n), got) in jobs.iter().zip(batch) {
            let (mut da, mut db) = (
                G1Projective::generator().mul_u64(n.unsigned_abs()),
                G2Projective::generator().mul_u64(n.unsigned_abs()),
            );
            if *n < 0 {
                (da, db) = (da.neg(), db.neg());
            }
            let want = Acc2Value { da: da.to_affine(), db: db.to_affine() };
            assert_eq!(got, Ok(want), "{x:?}");
            assert_eq!(a.try_setup(x), Ok(want), "{x:?}");
        }
    }

    /// A chunk boundary falling between two `X₁` groups: the first group
    /// alone plans past the chunk budget, so the second is proved by a
    /// second ladder — and in between sits a group with no provable clause.
    #[test]
    fn chunk_boundary_between_groups() {
        let a = Acc2::keygen(256, &mut StdRng::seed_from_u64(22));
        let x1: MultiSet<u64> = (1..=100).collect();
        // disjoint two-literal clauses: nothing shared, 200 points apiece
        let clauses: Vec<MultiSet<u64>> = (0..CHUNK_POINTS.div_ceil(200) as u64)
            .map(|i| ms(&[101 + 2 * i, 102 + 2 * i]))
            .collect();
        assert!(clauses.len() * 200 >= CHUNK_POINTS && 102 + 2 * clauses.len() < 256);
        assert_batch_is_twin(
            &a,
            &[
                (x1, clauses),
                (ms(&[1, 2]), vec![ms(&[2])]),
                (ms(&[3, 4, 5]), vec![ms(&[200, 201]), ms(&[201, 202])]),
            ],
        );
    }

    /// The comb-built key must equal the naive window-walk key limb for
    /// limb, so proofs from either keygen path are byte-identical.
    #[test]
    fn comb_keygen_matches_naive_fixed_base() {
        use vchain_pairing::Field;
        let a = acc();
        let q = a.pk.q;
        // reconstruct the scalar vector: the trapdoor is keygen's first draw
        let s = Fr::random(&mut StdRng::seed_from_u64(21));
        let mut scalars = Vec::new();
        let mut cur = Fr::one();
        for i in 0..(2 * q - 1) {
            scalars.push(if i == q { U256::ZERO } else { cur.to_uint() });
            cur = Field::mul(&cur, &s);
        }
        let naive_g1 = vchain_pairing::batch_to_affine(&crate::acc1::fixed_base_batch(
            &G1Projective::generator(),
            &scalars,
        ));
        let naive_g2 = vchain_pairing::batch_to_affine(&crate::acc1::fixed_base_batch(
            &G2Projective::generator(),
            &scalars[..q as usize],
        ));
        assert_eq!(a.pk.g1_powers.len(), naive_g1.len(), "g1 power count drifted");
        assert_eq!(a.pk.g2_powers.len(), naive_g2.len(), "g2 power count drifted");
        for (comb, naive) in a.pk.g1_powers.iter().zip(&naive_g1) {
            assert_eq!(comb.to_bytes(), naive.to_bytes());
        }
        for (comb, naive) in a.pk.g2_powers.iter().zip(&naive_g2) {
            assert_eq!(comb.to_bytes(), naive.to_bytes());
        }
        // and a proof built on the comb key is byte-identical to one built
        // on a naive-keyed accumulator with the same trapdoor
        let x1 = ms(&[1, 2, 3]);
        let x2 = ms(&[10, 20]);
        let naive_acc =
            Acc2 { pk: Arc::new(Acc2PublicKey { q, g1_powers: naive_g1, g2_powers: naive_g2 }) };
        let p_comb = a.prove_disjoint(&x1, &x2).unwrap();
        let p_naive = naive_acc.prove_disjoint(&x1, &x2).unwrap();
        assert_eq!(Acc2::proof_bytes(&p_comb), Acc2::proof_bytes(&p_naive));
    }
}
