//! Construction 1: the q-SDH multiset accumulator (Papamanthou et al.,
//! CRYPTO'11; paper §5.2.1).
//!
//! * `acc(X) = g₁^{P_X(s)}` where `P_X(s) = ∏_{x∈X} (x + s)` (with
//!   multiplicity), computed from the public powers `g₁^{sⁱ}` only.
//! * `ProveDisjoint` finds Bézout polynomials `Q₁, Q₂` with
//!   `P₁Q₁ + P₂Q₂ = 1` and publishes `(F₁*, F₂*) = (g₂^{Q₁(s)}, g₂^{Q₂(s)})`.
//! * `VerifyDisjoint` checks `e(acc(X₁), F₁*) · e(acc(X₂), F₂*) = e(g₁, g₂)`.
//!
//! On the asymmetric BLS12-381, values live in `G1` and proof components in
//! `G2`; the pairing equation is otherwise the paper's.

use std::sync::Arc;

use rand::Rng;
use vchain_bigint::U256;
use vchain_pairing::{
    multi_pairing, pairing, CurveSpec, Field, Fr, G1Affine, G1Projective, G1Spec, G2Affine,
    G2Projective, G2Spec, Gt, PowersCombCache,
};

use crate::poly::Poly;
use crate::{batch_coefficients, AccElem, AccError, Accumulator, BatchItem, MultiSet};

/// Comb tables are precomputed for at most this many public-key powers per
/// source group (lazily, as commitments actually need them); commitments
/// of higher degree fall back to the generic Pippenger multi-exponentiation.
/// 1024 bounds the per-key table memory at ~50 MiB in `G2` while covering
/// every multiset size the vChain workloads commit.
pub const COMB_PREFIX_LIMIT: usize = 1024;

/// The accumulative value `acc(X) ∈ G1` (a block's AttDigest under acc1).
pub type Acc1Value = G1Affine;

/// A disjointness witness `(F₁*, F₂*) ∈ G2²`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acc1Proof {
    /// `F₁* = g₂^{Q₁(s)}`.
    pub f1: G2Affine,
    /// `F₂* = g₂^{Q₂(s)}`.
    pub f2: G2Affine,
}

/// Public parameters: powers of the trapdoor in both source groups, plus
/// the lazily-built fixed-base comb tables that make committing against
/// those powers cheap (see [`vchain_pairing::comb`]).
pub struct Acc1PublicKey {
    /// `g₁^{sⁱ}` for `i = 0..=capacity`.
    pub g1_powers: Vec<G1Projective>,
    /// `g₂^{sⁱ}` for `i = 0..=capacity`.
    pub g2_powers: Vec<G2Projective>,
    /// `e(g₁, g₂)`, the right-hand side of the verification equation.
    pub gt_gen: Gt,
    /// Comb tables over a prefix of [`Acc1PublicKey::g1_powers`] (setup
    /// commitments).
    pub g1_combs: PowersCombCache<G1Spec>,
    /// Comb tables over a prefix of [`Acc1PublicKey::g2_powers`] (the two
    /// Bézout commitments of every disjointness proof).
    pub g2_combs: PowersCombCache<G2Spec>,
}

impl Acc1PublicKey {
    /// Maximum accumulatable multiset cardinality.
    pub fn capacity(&self) -> usize {
        self.g1_powers.len() - 1
    }
}

/// Construction 1 handle. Cloning shares the public key.
#[derive(Clone)]
pub struct Acc1 {
    pk: Arc<Acc1PublicKey>,
}

impl Acc1 {
    /// `KeyGen(1^λ)`: sample the trapdoor, publish `capacity + 1` powers
    /// and drop it — the handle holds public parameters only.
    ///
    /// The power vectors are produced through the generator combs
    /// ([`vchain_pairing::generator_powers`]) — the same fixed-base layer
    /// the commitments use — instead of the per-scalar window walk
    /// retained as [`fixed_base_batch`] (the property-tested reference).
    pub fn keygen<R: Rng + ?Sized>(capacity: usize, rng: &mut R) -> Self {
        let s = Fr::random(rng);
        let scalars = power_scalars(&s, capacity + 1);
        let g1_powers = vchain_pairing::generator_powers::<G1Spec>(&scalars);
        let g2_powers = vchain_pairing::generator_powers::<G2Spec>(&scalars);
        let gt_gen =
            pairing(&G1Projective::generator().to_affine(), &G2Projective::generator().to_affine());
        let comb_limit = (capacity + 1).min(COMB_PREFIX_LIMIT);
        Self {
            pk: Arc::new(Acc1PublicKey {
                g1_powers,
                g2_powers,
                gt_gen,
                g1_combs: PowersCombCache::new(comb_limit),
                g2_combs: PowersCombCache::new(comb_limit),
            }),
        }
    }

    /// The published parameters.
    pub fn public_key(&self) -> &Acc1PublicKey {
        &self.pk
    }

    fn char_poly<E: AccElem>(x: &MultiSet<E>) -> Poly {
        x.char_poly()
    }

    /// Commit to a polynomial in `G1` using the public powers:
    /// `g₁^{p(s)} = Π (g₁^{sⁱ})^{cᵢ}`, computed through the key's comb
    /// tables. This is the `Setup` half of Construction 1; it is public
    /// (no trapdoor) and errors when `deg p` exceeds the key capacity.
    pub fn commit_g1(&self, p: &Poly) -> Result<G1Projective, AccError> {
        self.commit(p, &self.pk.g1_powers, &self.pk.g1_combs)
    }

    /// Commit to a polynomial in `G2` — the proof half of Construction 1:
    /// both Bézout polynomials of a disjointness witness are committed
    /// here. Exposed so benchmarks can time the commitment phase apart
    /// from the polynomial phase.
    pub fn commit_g2(&self, p: &Poly) -> Result<G2Projective, AccError> {
        self.commit(p, &self.pk.g2_powers, &self.pk.g2_combs)
    }

    fn commit<S: vchain_pairing::CurveSpec>(
        &self,
        p: &Poly,
        powers: &[vchain_pairing::Projective<S>],
        combs: &PowersCombCache<S>,
    ) -> Result<vchain_pairing::Projective<S>, AccError> {
        let n = p.coeffs().len();
        if n > powers.len() {
            return Err(AccError::CapacityExceeded { needed: n - 1, capacity: powers.len() - 1 });
        }
        let scalars: Vec<U256> = p.coeffs().iter().map(|c| c.to_uint()).collect();
        Ok(combs.multiexp(powers, &scalars))
    }

    /// The per-clause half of proving: Bézout polynomials against the
    /// (precomputed) `X₁` characteristic polynomial, then two `G2` commits.
    fn finalize_from_poly<E: AccElem>(
        &self,
        p1: &Poly,
        x2: &MultiSet<E>,
    ) -> Result<Acc1Proof, AccError> {
        let p2 = Self::char_poly(x2);
        let (g, u, v) = p1.xgcd(&p2);
        // disjoint supports => coprime characteristic polynomials
        debug_assert_eq!(g.degree(), Some(0), "coprime polynomials expected");
        let ginv = g.coeffs()[0].inverse().expect("nonzero gcd");
        let q1 = u.scale(&ginv);
        let q2 = v.scale(&ginv);
        Ok(Acc1Proof { f1: self.commit_g2(&q1)?.to_affine(), f2: self.commit_g2(&q2)?.to_affine() })
    }
}

impl Accumulator for Acc1 {
    type Value = Acc1Value;
    type Proof = Acc1Proof;
    /// Construction 1's equation pairs the whole (single-`G1`) value.
    type Operand = Acc1Value;

    fn name(&self) -> &'static str {
        "acc1"
    }

    fn try_setup<E: AccElem>(&self, x: &MultiSet<E>) -> Result<Acc1Value, AccError> {
        let needed = x.total_count() as usize; // char-poly degree
        let capacity = self.pk.capacity();
        if needed > capacity {
            return Err(AccError::CapacityExceeded { needed, capacity });
        }
        let p = Self::char_poly(x);
        Ok(self.commit_g1(&p)?.to_affine())
    }

    fn prove_disjoint<E: AccElem>(
        &self,
        x1: &MultiSet<E>,
        x2: &MultiSet<E>,
    ) -> Result<Acc1Proof, AccError> {
        if x1.intersects(x2) {
            return Err(AccError::NotDisjoint);
        }
        self.finalize_from_poly(&Self::char_poly(x1), x2)
    }

    fn prove_disjoint_batch<E: AccElem>(
        &self,
        jobs: &[(&MultiSet<E>, &[MultiSet<E>])],
    ) -> Vec<Result<Acc1Proof, AccError>> {
        let mut results = Vec::with_capacity(jobs.iter().map(|(_, clauses)| clauses.len()).sum());
        for &(x1, clauses) in jobs {
            // The X₁-side witness — its characteristic polynomial, the largest
            // subproduct tree of proving — is computed once and shared by
            // every clause; each clause then pays only its own xgcd and two
            // commits.
            let p1 = Self::char_poly(x1);
            results.extend(clauses.iter().map(|x2| {
                if x1.intersects(x2) {
                    return Err(AccError::NotDisjoint);
                }
                self.finalize_from_poly(&p1, x2)
            }));
        }
        results
    }

    fn verify_operand(&self, a1: &Acc1Value, a2: &Acc1Value, proof: &Acc1Proof) -> bool {
        // e(acc(X1), F1) · e(acc(X2), F2) == e(g1, g2)
        let lhs = multi_pairing(&[(*a1, proof.f1), (*a2, proof.f2)]);
        lhs == self.pk.gt_gen
    }

    fn operand(v: &Acc1Value) -> Acc1Value {
        *v
    }

    fn operand_bytes(op: &Acc1Value) -> Vec<u8> {
        op.to_bytes()
    }

    fn operand_from_bytes(&self, bytes: &[u8]) -> Result<Acc1Value, crate::DecodeError> {
        crate::check_len(self.value_size(), bytes.len())?;
        crate::decode_slot::<G1Spec>(bytes, 0)
    }

    /// Random-linear-combination batch verification: every valid triple
    /// satisfies `e(a1ᵢ, F1ᵢ)·e(a2ᵢ, F2ᵢ) = e(g1, g2)`, so for transcript-
    /// derived coefficients `ρᵢ` the single aggregated check
    ///
    /// ```text
    /// Π e(ρᵢ·a1ᵢ, F1ᵢ)·e(ρᵢ·a2ᵢ, F2ᵢ) · e(−(Σρᵢ)·g1, g2) = 1
    /// ```
    ///
    /// folds the whole batch into one `2n+1`-pair multi-pairing: one shared
    /// Miller loop and one final exponentiation instead of `n`. The
    /// coefficients `ρᵢ` come from the shared [`batch_coefficients`]
    /// transcript derivation.
    fn batch_holds(&self, context: &[u8], items: &[BatchItem<Self>]) -> bool {
        match items {
            [] => true,
            [(a1, a2, proof)] => self.verify_operand(a1, a2, proof),
            _ => {
                let rho = batch_coefficients::<Self>(context, items);
                let mut pairs = Vec::with_capacity(2 * items.len() + 1);
                let mut rho_sum = Fr::zero();
                for ((a1, a2, proof), r) in items.iter().zip(&rho) {
                    let k = r.to_uint();
                    pairs.push((a1.to_projective().mul_u256(&k).to_affine(), proof.f1));
                    pairs.push((a2.to_projective().mul_u256(&k).to_affine(), proof.f2));
                    rho_sum += *r;
                }
                pairs.push((
                    G1Projective::generator_mul_fr(&rho_sum).neg().to_affine(),
                    G2Projective::generator().to_affine(),
                ));
                multi_pairing(&pairs).is_one()
            }
        }
    }

    fn value_bytes(v: &Acc1Value) -> Vec<u8> {
        v.to_bytes()
    }

    fn proof_bytes(p: &Acc1Proof) -> Vec<u8> {
        let mut out = p.f1.to_bytes();
        out.extend_from_slice(&p.f2.to_bytes());
        out
    }

    fn value_size(&self) -> usize {
        G1Spec::COMPRESSED_BYTES // one compressed G1 point
    }

    fn proof_size(&self) -> usize {
        2 * G2Spec::COMPRESSED_BYTES // two compressed G2 points
    }

    fn proof_from_bytes(&self, bytes: &[u8]) -> Result<Acc1Proof, crate::DecodeError> {
        crate::check_len(self.proof_size(), bytes.len())?;
        let n = G2Spec::COMPRESSED_BYTES;
        Ok(Acc1Proof {
            f1: crate::decode_slot::<G2Spec>(&bytes[..n], 0)?,
            f2: crate::decode_slot::<G2Spec>(&bytes[n..], 1)?,
        })
    }
}

/// `s⁰, s¹, …, s^{n-1}` as canonical integers.
fn power_scalars(s: &Fr, n: usize) -> Vec<U256> {
    let mut out = Vec::with_capacity(n);
    let mut cur = Fr::one();
    for _ in 0..n {
        out.push(cur.to_uint());
        cur = Field::mul(&cur, s);
    }
    out
}

/// Fixed-base batch multiplication: precompute the `2ⁱ·g` table once, then
/// each scalar costs only additions. The pre-comb key-generation path,
/// retained as the reference implementation the shared comb layer is
/// pinned against (tests and the `acc_keygen_powers_*_naive` bench twin).
pub fn fixed_base_batch<S: vchain_pairing::CurveSpec>(
    g: &vchain_pairing::Projective<S>,
    scalars: &[U256],
) -> Vec<vchain_pairing::Projective<S>> {
    let mut table = Vec::with_capacity(256);
    let mut cur = *g;
    for _ in 0..256 {
        table.push(cur);
        cur = cur.double();
    }
    scalars
        .iter()
        .map(|k| {
            let mut acc = vchain_pairing::Projective::<S>::identity();
            for (i, t) in table.iter().enumerate() {
                if k.bit(i as u32) {
                    acc = acc.add(t);
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn acc() -> Acc1 {
        Acc1::keygen(32, &mut StdRng::seed_from_u64(11))
    }

    fn ms(v: &[u64]) -> MultiSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn disjoint_round_trip() {
        let a = acc();
        let x1 = ms(&[1, 2, 3]);
        let x2 = ms(&[4, 5]);
        let v1 = a.setup(&x1);
        let v2 = a.setup(&x2);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert!(a.verify_disjoint(&v1, &v2, &proof));
    }

    #[test]
    fn intersecting_sets_rejected_at_prove_time() {
        let a = acc();
        assert_eq!(
            a.prove_disjoint(&ms(&[1, 2]), &ms(&[2, 3])).unwrap_err(),
            AccError::NotDisjoint
        );
    }

    #[test]
    fn proof_does_not_verify_against_wrong_value() {
        let a = acc();
        let x1 = ms(&[1, 2, 3]);
        let x2 = ms(&[4, 5]);
        let x3 = ms(&[6, 7]);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        let v1 = a.setup(&x1);
        let v3 = a.setup(&x3);
        assert!(!a.verify_disjoint(&v1, &v3, &proof), "proof bound to X2 must not verify for X3");
    }

    #[test]
    fn forged_proof_fails() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[3]);
        let v1 = a.setup(&x1);
        let v2 = a.setup(&x2);
        let forged = Acc1Proof {
            f1: G2Projective::generator().mul_u64(123).to_affine(),
            f2: G2Projective::generator().mul_u64(456).to_affine(),
        };
        assert!(!a.verify_disjoint(&v1, &v2, &forged));
    }

    #[test]
    fn setup_deterministic_and_order_independent() {
        let a = acc();
        let x1: MultiSet<u64> = [3u64, 1, 2].into_iter().collect();
        let x2: MultiSet<u64> = [2u64, 3, 1].into_iter().collect();
        assert_eq!(a.setup(&x1), a.setup(&x2));
    }

    #[test]
    fn empty_set_is_disjoint_with_everything() {
        let a = acc();
        let empty = ms(&[]);
        let x = ms(&[1]);
        let proof = a.prove_disjoint(&empty, &x).unwrap();
        assert!(a.verify_disjoint(&a.setup(&empty), &a.setup(&x), &proof));
    }

    #[test]
    fn multiplicities_affect_value_but_not_disjointness() {
        let a = acc();
        let x1 = ms(&[1, 1]);
        let x2 = ms(&[1]);
        assert_ne!(a.setup(&x1), a.setup(&x2));
        let y = ms(&[9, 9, 9]);
        let proof = a.prove_disjoint(&x1, &y).unwrap();
        assert!(a.verify_disjoint(&a.setup(&x1), &a.setup(&y), &proof));
    }

    #[test]
    fn capacity_errors() {
        let small = Acc1::keygen(2, &mut StdRng::seed_from_u64(3));
        let big = ms(&[1, 2, 3, 4, 5]);
        let other = ms(&[9]);
        // prove_disjoint commits to Bézout polys with degree < |other| so it
        // is fine, but committing the char poly of `big` overflows.
        let p = Poly::char_poly(big.iter().map(|(e, c)| (AccElem::to_fr(e), c)));
        assert!(matches!(small.commit_g1(&p), Err(AccError::CapacityExceeded { .. })));
        // and the other direction still works
        let _ = small.prove_disjoint(&other, &ms(&[1])).unwrap();
    }

    #[test]
    fn reported_sizes_match_serialization() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[3]);
        let v = a.setup(&x1);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();
        assert_eq!(Acc1::value_bytes(&v).len(), a.value_size());
        assert_eq!(Acc1::proof_bytes(&proof).len(), a.proof_size());
    }

    fn batch(a: &Acc1, specs: &[(&[u64], &[u64])]) -> Vec<(Acc1Value, Acc1Value, Acc1Proof)> {
        specs
            .iter()
            .map(|(x, y)| {
                let (x, y) = (ms(x), ms(y));
                (a.setup(&x), a.setup(&y), a.prove_disjoint(&x, &y).unwrap())
            })
            .collect()
    }

    #[test]
    fn batch_verify_accepts_valid_batches() {
        let a = acc();
        let items = batch(&a, &[(&[1, 2], &[3, 4]), (&[5], &[6, 7]), (&[8, 8], &[9])]);
        assert_eq!(a.batch_verify_disjoint(&[], &items), Ok(()));
        assert_eq!(a.batch_verify_disjoint(&[], &[]), Ok(())); // empty batch is vacuously true
        assert_eq!(a.batch_verify_disjoint(&[], &items[..1]), Ok(())); // single-item fast path
    }

    #[test]
    fn batch_verify_rejects_one_forged_member() {
        let a = acc();
        let mut items = batch(&a, &[(&[1, 2], &[3, 4]), (&[5], &[6, 7]), (&[8], &[9])]);
        // forge only the middle proof, keep the rest honest
        items[1].2 =
            Acc1Proof { f1: G2Projective::generator().mul_u64(77).to_affine(), f2: items[1].2.f2 };
        assert_eq!(a.batch_verify_disjoint(&[], &items), Err(1));
        // a mismatched (value, proof) pairing is also caught
        let mut swapped = batch(&a, &[(&[1], &[2]), (&[3], &[4])]);
        let p0 = swapped[0].2.clone();
        swapped[0].2 = swapped[1].2.clone();
        swapped[1].2 = p0;
        assert_eq!(a.batch_verify_disjoint(&[], &swapped), Err(0));
    }

    #[test]
    fn try_setup_errors_instead_of_panicking() {
        let small = Acc1::keygen(2, &mut StdRng::seed_from_u64(3));
        assert!(matches!(
            small.try_setup(&ms(&[1, 2, 3, 4, 5])),
            Err(AccError::CapacityExceeded { needed: 5, capacity: 2 })
        ));
        // multiplicity counts toward the degree bound
        assert!(small.try_setup(&ms(&[1, 1, 1])).is_err());
        assert_eq!(small.try_setup(&ms(&[1, 2])).unwrap(), small.setup(&ms(&[1, 2])));
    }

    #[test]
    fn wire_decode_round_trips_and_rejects_corruption() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[3]);
        let v = a.setup(&x1);
        let proof = a.prove_disjoint(&x1, &x2).unwrap();

        let vb = Acc1::value_bytes(&v);
        assert_eq!(a.operand_from_bytes(&vb).unwrap(), v);
        let pb = Acc1::proof_bytes(&proof);
        assert_eq!(a.proof_from_bytes(&pb).unwrap(), proof);

        // truncation / extension
        assert!(matches!(
            a.operand_from_bytes(&vb[..vb.len() - 1]),
            Err(crate::DecodeError::Length { .. })
        ));
        let mut long = pb.clone();
        long.push(0);
        assert!(matches!(a.proof_from_bytes(&long), Err(crate::DecodeError::Length { .. })));

        // corrupting the second proof point attributes to slot 1
        let mut bad = pb.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40; // top coordinate byte → non-canonical or off-curve
        match a.proof_from_bytes(&bad) {
            Err(crate::DecodeError::Point { slot: 1, .. }) => {}
            other => panic!("expected slot-1 point error, got {other:?}"),
        }
    }

    #[test]
    fn aggregation_unsupported() {
        let a = acc();
        assert!(!a.supports_aggregation());
        assert!(matches!(a.sum(&[]), Err(AccError::AggregationUnsupported)));
    }
}
