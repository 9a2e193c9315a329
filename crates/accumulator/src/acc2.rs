//! Construction 2: the q-DHE multiset accumulator (Zhang et al.,
//! EuroS&P'17; paper §5.2.2), with the `Sum`/`ProofSum` aggregation
//! primitives that power vChain's online batch verification (§6.3) and the
//! lazy subscription authentication (§7.2).
//!
//! * `acc(X) = (d_A, d_B) = (g₁^{A_X(s)}, g₂^{B_X(s)})` with
//!   `A_X(s) = Σ_{x∈X} s^x` and `B_X(s) = Σ_{x∈X} s^{q−x}` (counted with
//!   multiplicity).
//! * If `X₁ ∩ X₂ = ∅` the product `A_{X₁}(s)·B_{X₂}(s)` has no `s^q` term,
//!   so `π = g₁^{A_{X₁}(s)B_{X₂}(s)}` is computable from the published
//!   powers `g₁^{sⁱ}, i ∈ [0, 2q−2] \ {q}`.
//! * `VerifyDisjoint`: `e(d_A(X₁), d_B(X₂)) = e(π, g₂)`.
//!
//! The SP-side proving path is split in two (see [`Acc2Witness`]): the
//! `X₁`-side coefficient extraction is reusable across every clause of one
//! query, and the per-clause finalization first *convolves exponents* —
//! `π`'s exponent polynomial is `A_{X₁}(s)·B_{X₂}(s)`, so colliding terms
//! `x + q − y` merge into one integer coefficient before any point work —
//! and then sums the (overwhelmingly unit-coefficient) powers with
//! batched-affine additions. Both effects cut cold `ProveDisjoint` well
//! below the naive one-point-per-(x,y)-pair multi-exponentiation.
//!
//! The public key grows with the *universe size* `q` (every attribute value
//! must map into `[1, q)`), the drawback the paper addresses with a trusted
//! oracle / SGX; our dictionary encoder plays that role (DESIGN.md §2).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use vchain_bigint::U256;
use vchain_pairing::{
    multi_pairing, multiexp, sum_affine, CurveSpec, Field, Fr, G1Affine, G1Projective, G1Spec,
    G2Affine, G2Projective, G2Spec,
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

/// The reusable `X₁`-side state of a disjointness proof: the coefficient
/// vector of `A_{X₁}(s)`, checked against the universe bound once. One
/// witness serves every clause of a query via [`Acc2::finalize_proof`].
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

    /// The reusable half of `ProveDisjoint`: extract (and bound-check) the
    /// `X₁`-side coefficients. Cost is O(|X₁|) integer work — every
    /// per-clause [`Acc2::finalize_proof`] built on the same witness skips
    /// it.
    pub fn prove_witness<E: AccElem>(&self, x1: &MultiSet<E>) -> Result<Acc2Witness, AccError> {
        self.check_universe(x1)?;
        let mut coeffs: Vec<(u64, u64)> = x1.iter().map(|(e, c)| (e.to_index(), c)).collect();
        // The multiset iterates in the element type's `Ord` order, which an
        // `AccElem` impl need not make monotone in `to_index` — sort so the
        // disjointness binary search below is valid unconditionally.
        coeffs.sort_unstable_by_key(|&(i, _)| i);
        Ok(Acc2Witness { coeffs })
    }

    /// The per-clause half of `ProveDisjoint`: convolve the witness with the
    /// clause's exponents and sum the matching public-key powers.
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
        // Disjointness before the universe bound, preserving the historical
        // error precedence: intersecting inputs report `NotDisjoint` even
        // when the clause also contains out-of-range elements.
        for e in x2.elements() {
            if witness.coeffs.binary_search_by_key(&e.to_index(), |&(i, _)| i).is_ok() {
                return Err(AccError::NotDisjoint);
            }
        }
        self.check_universe(x2)?;
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
        let mut pi = sum_affine(&units);
        if !bases.is_empty() {
            pi = pi.add(&multiexp(&bases, &scalars));
        }
        Ok(Acc2Proof { pi: pi.to_affine() })
    }

    /// Version byte heading every serialized [`Acc2Witness`]; bump on any
    /// layout change so stale persisted witnesses are rejected, not
    /// misread.
    pub const WITNESS_VERSION: u8 = 1;

    /// Canonical bytes of a witness: the version byte, a `u32` coefficient
    /// count, then `(index, multiplicity)` as little-endian `u64` pairs in
    /// ascending index order. `16·|X₁| + 5` bytes total.
    pub fn witness_to_bytes(witness: &Acc2Witness) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + 16 * witness.coeffs.len());
        out.push(Self::WITNESS_VERSION);
        out.extend_from_slice(
            &u32::try_from(witness.coeffs.len()).unwrap_or(u32::MAX).to_le_bytes(),
        );
        for &(idx, count) in &witness.coeffs {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// Checked inverse of [`Acc2::witness_to_bytes`] against *this* key:
    /// `None` on any malformation — wrong version, truncated or trailing
    /// bytes, an index outside the key's universe `[1, q)`, a zero
    /// multiplicity, or indices not strictly ascending (the invariant
    /// [`Acc2::finalize_proof`]'s disjointness binary search relies on).
    pub fn witness_from_bytes(&self, bytes: &[u8]) -> Option<Acc2Witness> {
        let (&version, rest) = bytes.split_first()?;
        if version != Self::WITNESS_VERSION {
            return None;
        }
        let (len_bytes, rest) = rest.split_at_checked(4)?;
        let n = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
        if rest.len() != n.checked_mul(16)? {
            return None;
        }
        let mut coeffs = Vec::with_capacity(n);
        let mut prev: Option<u64> = None;
        for chunk in rest.chunks_exact(16) {
            let idx = u64::from_le_bytes(chunk.get(..8)?.try_into().ok()?);
            let count = u64::from_le_bytes(chunk.get(8..)?.try_into().ok()?);
            if idx == 0 || idx >= self.pk.q || count == 0 {
                return None;
            }
            if prev.is_some_and(|p| p >= idx) {
                return None;
            }
            prev = Some(idx);
            coeffs.push((idx, count));
        }
        Some(Acc2Witness { coeffs })
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
        self.check_universe(x)?;
        let q = self.pk.q;
        // d_A = Π (g1^{s^x})^{c_x} ; d_B = Π (g2^{s^{q-x}})^{c_x}.
        // Unit multiplicities (the common case) sum batched-affine.
        let mut da_units: Vec<G1Affine> = Vec::new();
        let mut db_units: Vec<G2Affine> = Vec::new();
        let mut da = G1Projective::identity();
        let mut db = G2Projective::identity();
        for (e, c) in x.iter() {
            let idx = e.to_index() as usize;
            if c == 1 {
                da_units.push(self.pk.g1_powers[idx]);
                db_units.push(self.pk.g2_powers[q as usize - idx]);
            } else {
                let count = U256::from_u64(c);
                da = da.add(&self.pk.g1_powers[idx].to_projective().mul_u256(&count));
                db = db.add(&self.pk.g2_powers[q as usize - idx].to_projective().mul_u256(&count));
            }
        }
        da = da.add(&sum_affine(&da_units));
        db = db.add(&sum_affine(&db_units));
        Ok(Acc2Value { da: da.to_affine(), db: db.to_affine() })
    }

    fn prove_disjoint<E: AccElem>(
        &self,
        x1: &MultiSet<E>,
        x2: &MultiSet<E>,
    ) -> Result<Acc2Proof, AccError> {
        let witness = self.prove_witness(x1)?;
        self.finalize_proof(&witness, x2)
    }

    fn prove_disjoint_each<E: AccElem>(
        &self,
        x1: &MultiSet<E>,
        clauses: &[MultiSet<E>],
    ) -> Vec<Result<Acc2Proof, AccError>> {
        // One shared X₁-side witness; a clause that intersects (or whose
        // convolution overflows the key) fails alone. If the witness itself
        // cannot be built, every clause inherits that error.
        match self.prove_witness(x1) {
            Ok(witness) => clauses.iter().map(|c| self.finalize_proof(&witness, c)).collect(),
            Err(e) => clauses.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn witness_bytes<E: AccElem>(&self, x1: &MultiSet<E>) -> Option<Vec<u8>> {
        self.prove_witness(x1).ok().map(|w| Self::witness_to_bytes(&w))
    }

    fn finalize_from_witness_bytes<E: AccElem>(
        &self,
        witness: &[u8],
        clause: &MultiSet<E>,
    ) -> Option<Acc2Proof> {
        let w = self.witness_from_bytes(witness)?;
        self.finalize_proof(&w, clause).ok()
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
        Ok(sum_affine(ops).to_affine())
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
            db = db.add(&v.db.to_projective());
        }
        Ok(Acc2Value { da: da.to_affine(), db: db.to_affine() })
    }

    fn proof_sum(&self, proofs: &[Acc2Proof]) -> Result<Acc2Proof, AccError> {
        let mut pi = G1Projective::identity();
        for p in proofs {
            pi = pi.add_affine(&p.pi);
        }
        Ok(Acc2Proof { pi: pi.to_affine() })
    }
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
        let many = a.prove_disjoint_many(&x1, &clauses).unwrap();
        for (p, c) in many.iter().zip(&clauses) {
            assert_eq!(*p, a.prove_disjoint(&x1, c).unwrap());
            assert!(a.verify_disjoint(&a.setup(&x1), &a.setup(c), p));
        }
    }

    #[test]
    fn witness_bytes_round_trip_and_rejection() {
        let a = acc();
        let x1 = ms(&[1, 2, 3, 7, 7]);
        let w = a.prove_witness(&x1).unwrap();
        let bytes = Acc2::witness_to_bytes(&w);
        let back = a.witness_from_bytes(&bytes).unwrap();
        assert_eq!(Acc2::witness_to_bytes(&back), bytes, "decode∘encode identity");

        // wrong version byte
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(a.witness_from_bytes(&bad).is_none());
        // truncation and trailing bytes
        assert!(a.witness_from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(a.witness_from_bytes(&long).is_none());
        // out-of-universe index (q = 64)
        let oob = Acc2::witness_to_bytes(&Acc2Witness { coeffs: vec![(64, 1)] });
        assert!(a.witness_from_bytes(&oob).is_none());
        // zero multiplicity and non-ascending indices
        let zero = Acc2::witness_to_bytes(&Acc2Witness { coeffs: vec![(3, 0)] });
        assert!(a.witness_from_bytes(&zero).is_none());
        let unsorted = Acc2::witness_to_bytes(&Acc2Witness { coeffs: vec![(5, 1), (3, 1)] });
        assert!(a.witness_from_bytes(&unsorted).is_none());
        // empty input is not a witness
        assert!(a.witness_from_bytes(&[]).is_none());
    }

    #[test]
    fn finalize_from_witness_bytes_matches_prove_disjoint() {
        let a = acc();
        let x1 = ms(&[1, 2, 3, 7, 7]);
        let wb = a.witness_bytes(&x1).unwrap();
        for c in [ms(&[10, 20]), ms(&[30]), ms(&[10, 31, 32])] {
            let from_bytes = a.finalize_from_witness_bytes(&wb, &c).unwrap();
            let direct = a.prove_disjoint(&x1, &c).unwrap();
            assert_eq!(
                Acc2::proof_bytes(&from_bytes),
                Acc2::proof_bytes(&direct),
                "persisted-witness proofs are byte-identical to cold proofs"
            );
        }
        // an intersecting clause falls back to None, never a wrong proof
        assert!(a.finalize_from_witness_bytes(&wb, &ms(&[2])).is_none());
        // garbage witness bytes likewise
        assert!(a.finalize_from_witness_bytes(b"not a witness", &ms(&[10])).is_none());
    }

    #[test]
    fn prove_disjoint_many_propagates_errors() {
        let a = acc();
        let x1 = ms(&[1, 2]);
        assert_eq!(
            a.prove_disjoint_many(&x1, &[ms(&[10]), ms(&[2])]).unwrap_err(),
            AccError::NotDisjoint
        );
        assert!(matches!(
            a.prove_disjoint_many(&ms(&[64]), &[ms(&[1])]).unwrap_err(),
            AccError::CapacityExceeded { .. }
        ));
        // the override point attributes per clause: the good proof survives
        let each = a.prove_disjoint_each(&x1, &[ms(&[10]), ms(&[2])]);
        assert_eq!(each[0], a.prove_disjoint(&x1, &ms(&[10])));
        assert_eq!(each[1], Err(AccError::NotDisjoint));
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
    fn proof_sum_verifies_against_summed_values() {
        // π1 disjoint(X1, Y), π2 disjoint(X2, Y) =>
        // ProofSum(π1, π2) verifies (Sum(acc(X1), acc(X2)), acc(Y)).
        let a = acc();
        let x1 = ms(&[1, 2]);
        let x2 = ms(&[3]);
        let y = ms(&[20, 21]);
        let p1 = a.prove_disjoint(&x1, &y).unwrap();
        let p2 = a.prove_disjoint(&x2, &y).unwrap();
        let agg_value = a.sum(&[a.setup(&x1), a.setup(&x2)]).unwrap();
        let agg_proof = a.proof_sum(&[p1, p2]).unwrap();
        assert!(a.verify_disjoint(&agg_value, &a.setup(&y), &agg_proof));
        // the verifier's operand-only Sum is the d_A half of the full one
        let agg_operand = a.sum_operands(&[a.setup(&x1).da, a.setup(&x2).da]).unwrap();
        assert_eq!(agg_operand, agg_value.da);
        assert!(a.verify_operand(&agg_operand, &a.setup(&y), &agg_proof));
        // sanity: aggregate proof equals a direct proof on the summed multiset
        let direct = a.prove_disjoint(&x1.sum(&x2), &y).unwrap();
        assert_eq!(agg_proof, direct);
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
