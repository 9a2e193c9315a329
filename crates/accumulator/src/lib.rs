//! Cryptographic multiset accumulators for vChain (§4, §5.2 of the paper).
//!
//! Two constructions are provided behind the common [`Accumulator`] trait:
//!
//! * [`Acc1`] — the q-SDH construction of Papamanthou et al. (CRYPTO'11,
//!   paper's "Construction 1"): `acc(X) = g₁^{∏ (xᵢ + s)}`, disjointness
//!   proofs are Bézout witnesses of the coprimality of the characteristic
//!   polynomials.
//! * [`Acc2`] — the q-DHE construction of Zhang et al. (EuroS&P'17, paper's
//!   "Construction 2"): `acc(X) = (g₁^{Σ s^{xᵢ}}, g₂^{Σ s^{q−xᵢ}})` with the
//!   extra [`Accumulator::sum`] aggregation primitive that enables vChain's
//!   online batch verification (§6.3).
//!
//! The paper uses a symmetric pairing; BLS12-381 is asymmetric, so values
//! live in `G1` and proof components in `G2` (or vice versa) as noted on
//! each method — the verification equations are otherwise verbatim.

#![warn(missing_docs)]

pub mod acc1;
pub mod acc2;
pub mod multiset;
pub mod poly;

pub use acc1::{fixed_base_batch, Acc1, Acc1Proof, Acc1PublicKey, Acc1Value};
pub use acc2::{Acc2, Acc2Proof, Acc2PublicKey, Acc2Value};
pub use multiset::MultiSet;
pub use poly::Poly;

use core::fmt;
use core::hash::Hash;

use vchain_pairing::{Affine, CurveSpec, Fr, PointDecodeError};

/// An element that can be accumulated.
///
/// * Construction 1 consumes the [`AccElem::to_fr`] representative (a hash
///   into the scalar field).
/// * Construction 2 consumes the [`AccElem::to_index`] representative, an
///   integer in `[1, q)` assigned by a public dictionary (standing in for
///   the paper's hash-to-integer encoding plus trusted public-key oracle).
pub trait AccElem: Copy + Clone + Ord + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// Representative in the scalar field (collision-resistant).
    fn to_fr(&self) -> Fr;
    /// Small-integer representative, `>= 1`.
    fn to_index(&self) -> u64;
}

/// `u64` elements accumulate directly; index 0 is reserved.
impl AccElem for u64 {
    fn to_fr(&self) -> Fr {
        Fr::hash_to_field(&self.to_le_bytes())
    }

    fn to_index(&self) -> u64 {
        assert!(*self >= 1, "accumulator indices start at 1");
        *self
    }
}

/// Errors from accumulator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccError {
    /// `ProveDisjoint` was called on intersecting multisets.
    NotDisjoint,
    /// A multiset exceeds the degree/universe bound fixed at key generation.
    CapacityExceeded {
        /// The degree / element index the operation required.
        needed: usize,
        /// The bound fixed at key generation.
        capacity: usize,
    },
    /// Aggregation was requested from a construction that does not support it.
    AggregationUnsupported,
}

impl fmt::Display for AccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccError::NotDisjoint => write!(f, "multisets are not disjoint"),
            AccError::CapacityExceeded { needed, capacity } => {
                write!(f, "accumulator capacity exceeded: need {needed}, capacity {capacity}")
            }
            AccError::AggregationUnsupported => {
                write!(f, "this accumulator construction does not support aggregation")
            }
        }
    }
}

impl std::error::Error for AccError {}

/// Why untrusted wire bytes failed to decode into an accumulator value or
/// proof. Produced by [`Accumulator::operand_from_bytes`] /
/// [`Accumulator::proof_from_bytes`], the *only* paths by which SP-supplied
/// bytes become group elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte string is not exactly `value_size()` / `proof_size()` long.
    Length {
        /// The construction's fixed wire size.
        expected: usize,
        /// What arrived.
        got: usize,
    },
    /// A component point failed the checked decode
    /// ([`vchain_pairing::Affine::try_from_bytes`]).
    Point {
        /// Which fixed-size point slot (0-based, in serialization order).
        slot: usize,
        /// The underlying curve-level failure.
        error: PointDecodeError,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "accumulator wire object must be {expected} bytes, got {got}")
            }
            DecodeError::Point { slot, error } => write!(f, "point slot {slot}: {error}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The exact-length rung of every slot decode.
pub(crate) fn check_len(expected: usize, got: usize) -> Result<(), DecodeError> {
    if got == expected {
        Ok(())
    } else {
        Err(DecodeError::Length { expected, got })
    }
}

/// Decode one fixed-size compressed point out of a concatenated wire object,
/// attributing failures to its `slot` index. The caller has already checked
/// the total length, so the slice here is exactly one point wide.
pub(crate) fn decode_slot<S: CurveSpec>(
    bytes: &[u8],
    slot: usize,
) -> Result<Affine<S>, DecodeError> {
    Affine::<S>::try_from_bytes(bytes).map_err(|error| DecodeError::Point { slot, error })
}

/// Derive `n` random-linear-combination coefficients from a batch
/// transcript, Fiat–Shamir style: the verifier hashes every value and proof
/// in the batch, so the coefficients are fixed only *after* the prover has
/// committed to all of them. Each coefficient is a uniform 128-bit scalar —
/// enough for a `2⁻¹²⁸` soundness error while keeping the verifier's
/// per-item scalar multiplications at half width.
pub(crate) fn rlc_coefficients(transcript: &[u8], n: usize) -> Vec<Fr> {
    let seed = vchain_hash::hash_domain("vchain/acc/batch-rlc", transcript);
    (0..n)
        .map(|i| {
            let d = vchain_hash::hash_concat(&[seed.as_bytes(), &(i as u64).to_le_bytes()]);
            Fr::from_bytes_reduce(&d.as_bytes()[..16])
        })
        .collect()
}

/// One deferred disjointness check as the verifier batches it: the
/// consumed component of the block-side AttDigest, the clause's (locally
/// computed) accumulative value, and the proof.
pub type BatchItem<A> =
    (<A as Accumulator>::Operand, <A as Accumulator>::Value, <A as Accumulator>::Proof);

/// The canonical Fiat–Shamir coefficients for a batch of disjointness
/// triples: one transcript (the length-prefixed `context`, then every
/// operand, clause value and proof, in order), one derivation. Both
/// constructions' [`Accumulator::batch_holds`] overrides call this single
/// function, so there is exactly one transcript layout to audit.
///
/// The light client's cross-block window batch feeds the covered block
/// heights as `context`: the derived coefficients are then bound not just
/// to the values and proofs in the batch but to *which blocks of the chain*
/// each triple claims to refute — a proof transplanted between batches over
/// different coverage sees fresh coefficients even when the item bytes
/// coincide. The length prefix keeps distinct contexts from colliding by
/// concatenation.
pub fn batch_coefficients<A: Accumulator>(context: &[u8], items: &[BatchItem<A>]) -> Vec<Fr> {
    let mut transcript = Vec::with_capacity(8 + context.len());
    transcript.extend_from_slice(&(context.len() as u64).to_le_bytes());
    transcript.extend_from_slice(context);
    for (a1, a2, proof) in items {
        transcript.extend_from_slice(&A::operand_bytes(a1));
        transcript.extend_from_slice(&A::value_bytes(a2));
        transcript.extend_from_slice(&A::proof_bytes(proof));
    }
    rlc_coefficients(&transcript, items.len())
}

/// The interface the vChain query layer programs against (paper §4,
/// "Cryptographic Multiset Accumulator").
///
/// The full prove/verify round trip:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use vchain_acc::{Acc2, Accumulator, MultiSet};
///
/// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(1));
/// let block: MultiSet<u64> = [1u64, 2, 3].into_iter().collect();
/// let clause: MultiSet<u64> = [10u64, 11].into_iter().collect();
/// // SP side: prove the block's attribute set misses the whole clause…
/// let proof = acc.prove_disjoint(&block, &clause).unwrap();
/// // …user side: check it against the two accumulative values alone.
/// assert!(acc.verify_disjoint(&acc.setup(&block), &acc.setup(&clause), &proof));
/// ```
pub trait Accumulator: Clone + Send + Sync + 'static {
    /// The accumulative value `acc(X)` (the block's *AttDigest*).
    type Value: Clone + PartialEq + Eq + fmt::Debug + Send + Sync;
    /// A set-disjointness proof `π`.
    type Proof: Clone + fmt::Debug + Send + Sync;
    /// The verifier-side view of a block-side accumulative value: exactly
    /// the component [`Accumulator::verify_operand`]'s pairing equation
    /// consumes from its first argument, and nothing else. Construction 1
    /// consumes the whole value; Construction 2's `VerifyDisjoint` reads
    /// `d_A` of the node and `d_B` of the clause (§5.2.2), so its operand
    /// is `d_A` alone — it has no `G2` half for a verifier to decode, add
    /// or pair by accident.
    type Operand: Clone + fmt::Debug + Send + Sync;

    /// Short scheme name for experiment output ("acc1" / "acc2").
    fn name(&self) -> &'static str;

    /// `Setup(X, pk) → acc(X)` — publicly computable. Convenience wrapper
    /// over [`Accumulator::try_setup`] for *trusted* multisets (the miner /
    /// SP side, and the verifier's own query clauses): panics when the
    /// multiset exceeds the bound fixed at key generation. Code touching
    /// attacker-influenced sets must call `try_setup` instead.
    fn setup<E: AccElem>(&self, x: &MultiSet<E>) -> Self::Value {
        match self.try_setup(x) {
            Ok(v) => v,
            Err(e) => panic!("accumulator setup exceeded key bounds: {e}"),
        }
    }

    /// Fallible `Setup(X, pk) → acc(X)`: `Err(AccError::CapacityExceeded)`
    /// when the multiset exceeds the degree / universe bound fixed at key
    /// generation, instead of panicking. This is the form the verifier uses
    /// on sets an adversary can influence — a decoded `ClauseRef` can intern
    /// element encodings the honest key never covered, and that must be an
    /// attributable rejection, not a crash.
    fn try_setup<E: AccElem>(&self, x: &MultiSet<E>) -> Result<Self::Value, AccError>;

    /// `Setup` of many multisets at once — the shape in which set-up reaches
    /// a full node: Algorithm 2 plans a block's index on multisets alone, so
    /// every digest of the block can be asked for in one call. Returns one
    /// `Result` per job, in order; a job that exceeds the key fails alone,
    /// with the error [`Accumulator::try_setup`] would report for it.
    ///
    /// The set-up override point, beside
    /// [`Accumulator::prove_disjoint_batch`] for proofs. The default is one
    /// `try_setup` per job, which Construction 1 keeps (a digest there is a
    /// characteristic polynomial committed on the comb tables; two digests
    /// share nothing). Construction 2 sums public-key powers, and shares the
    /// summation pass across the batch (see the `acc2` module docs); its
    /// `try_setup` *is* the batch of one. Every override returns the values
    /// `try_setup` would, byte for byte.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use vchain_acc::{Acc2, Accumulator, MultiSet};
    ///
    /// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(4));
    /// let nodes: Vec<MultiSet<u64>> =
    ///     vec![[1u64, 2].into_iter().collect(), [2u64, 3, 64].into_iter().collect()];
    /// let digests = acc.setup_batch(&nodes.iter().collect::<Vec<_>>());
    /// assert_eq!(digests[0], Ok(acc.setup(&nodes[0])));
    /// assert!(digests[1].is_err()); // 64 is outside the universe [1, 64)
    /// ```
    fn setup_batch<E: AccElem>(&self, jobs: &[&MultiSet<E>]) -> Vec<Result<Self::Value, AccError>> {
        jobs.iter().map(|x| self.try_setup(x)).collect()
    }

    /// `ProveDisjoint(X₁, X₂, pk) → π`, defined only when `X₁ ∩ X₂ = ∅`.
    fn prove_disjoint<E: AccElem>(
        &self,
        x1: &MultiSet<E>,
        x2: &MultiSet<E>,
    ) -> Result<Self::Proof, AccError>;

    /// Prove a batch of disjointness jobs, grouped by their `X₁`: each entry
    /// pairs one multiset with the clause sets to refute it against — the
    /// shape in which a service provider's proofs reach the prover, since it
    /// walks a whole query (or a whole block's standing queries) first and
    /// proves the distinct cache misses afterwards. Returns one `Result`
    /// per clause, flat, in job order. A clause that intersects its `X₁` (or
    /// overflows the key) fails alone, with the error
    /// [`Accumulator::prove_disjoint`] would report for it — one bad
    /// clause costs one `Err`, not the batch.
    ///
    /// This is the one multi-proof override point. The default
    /// implementation loops over [`Accumulator::prove_disjoint`];
    /// Construction 1 computes each `X₁`'s characteristic polynomial once,
    /// Construction 2 shares its whole point-summation pass across the
    /// batch (see the `acc2` module docs). Every override returns the
    /// proofs `prove_disjoint` would, byte for byte.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use vchain_acc::{Acc2, Accumulator, MultiSet};
    ///
    /// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(2));
    /// let node: MultiSet<u64> = [1u64, 2, 3, 4].into_iter().collect();
    /// let clauses: Vec<MultiSet<u64>> =
    ///     vec![[10u64, 11].into_iter().collect(), [20u64, 3].into_iter().collect()];
    /// let proofs = acc.prove_disjoint_batch(&[(&node, &clauses)]);
    /// // one shared pass, but the same proofs — and errors — as one at a time
    /// for (p, c) in proofs.iter().zip(&clauses) {
    ///     assert_eq!(*p, acc.prove_disjoint(&node, c));
    /// }
    /// assert!(proofs[0].is_ok() && proofs[1].is_err());
    /// ```
    fn prove_disjoint_batch<E: AccElem>(
        &self,
        jobs: &[(&MultiSet<E>, &[MultiSet<E>])],
    ) -> Vec<Result<Self::Proof, AccError>> {
        jobs.iter()
            .flat_map(|&(x1, clauses)| clauses.iter().map(move |c| self.prove_disjoint(x1, c)))
            .collect()
    }

    /// `VerifyDisjoint(acc(X₁), acc(X₂), π, pk) → {0, 1}`.
    fn verify_disjoint(&self, a1: &Self::Value, a2: &Self::Value, proof: &Self::Proof) -> bool {
        self.verify_operand(&Self::operand(a1), a2, proof)
    }

    /// `VerifyDisjoint` on the verifier-side view of `acc(X₁)` — the form
    /// the light client runs, where `a1` came from
    /// [`Accumulator::operand_from_bytes`] and `a2` is the client's own
    /// `Setup` of a query clause.
    fn verify_operand(&self, a1: &Self::Operand, a2: &Self::Value, proof: &Self::Proof) -> bool;

    /// The operand of a value this side computed itself.
    fn operand(v: &Self::Value) -> Self::Operand;

    /// Canonical bytes of an operand, for batch transcripts.
    fn operand_bytes(op: &Self::Operand) -> Vec<u8>;

    /// Decode the operand out of the untrusted wire bytes of a *value*
    /// ([`Accumulator::value_bytes`] form): the exact length is checked, the
    /// consumed component passes the full curve ladder (flags, canonical
    /// coordinates, on-curve, subgroup membership), and the bytes of any
    /// unconsumed component are not parsed at all. Sound only for byte
    /// strings a hash commitment already pins (a VO's AttDigests, which the
    /// block header's roots fix) — see `docs/SECURITY.md`.
    fn operand_from_bytes(&self, bytes: &[u8]) -> Result<Self::Operand, DecodeError>;

    /// `Sum` on operands: the operand of `acc(ΣXᵢ)` from the operands of
    /// the `acc(Xᵢ)` — what the verifier's §6.3 group check needs of
    /// [`Accumulator::sum`].
    fn sum_operands(&self, _ops: &[Self::Operand]) -> Result<Self::Operand, AccError> {
        Err(AccError::AggregationUnsupported)
    }

    /// Verify many `(acc(X₁), acc(X₂), π)` triples at once; on rejection,
    /// `Err(i)` names the first invalid triple. This is the one batch
    /// entry point: the aggregated check is [`Accumulator::batch_holds`]
    /// over `context` and `items`, and only when it fails is each triple
    /// re-verified solo to attribute the failure (so attribution is
    /// context-independent).
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use vchain_acc::{Acc2, Accumulator, MultiSet};
    ///
    /// let acc = Acc2::keygen(64, &mut StdRng::seed_from_u64(3));
    /// let items: Vec<_> = [(1u64, 10u64), (2, 20)]
    ///     .iter()
    ///     .map(|&(x, y)| {
    ///         let (a, b): (MultiSet<u64>, MultiSet<u64>) =
    ///             ([x].into_iter().collect(), [y].into_iter().collect());
    ///         let operand = Acc2::operand(&acc.setup(&a));
    ///         (operand, acc.setup(&b), acc.prove_disjoint(&a, &b).unwrap())
    ///     })
    ///     .collect();
    /// assert_eq!(acc.batch_verify_disjoint(&[], &items), Ok(())); // one multi-pairing, not two
    /// ```
    fn batch_verify_disjoint(
        &self,
        context: &[u8],
        items: &[BatchItem<Self>],
    ) -> Result<(), usize> {
        if self.batch_holds(context, items) {
            return Ok(());
        }
        for (i, (a1, a2, proof)) in items.iter().enumerate() {
            if !self.verify_operand(a1, a2, proof) {
                return Err(i);
            }
        }
        // Unreachable in practice: an all-valid batch satisfies the RLC
        // identity with probability 1. Fail closed regardless.
        Err(0)
    }

    /// Whether every triple of the batch verifies — the one override point
    /// behind [`Accumulator::batch_verify_disjoint`].
    ///
    /// The default implementation checks each triple solo (no coefficients
    /// are derived, so `context` is unused); the pairing-based
    /// constructions override it with a random-linear-combination
    /// aggregation that folds every triple into a *single* multi-pairing
    /// (one shared Miller loop, one final exponentiation). The combination
    /// coefficients are 128-bit scalars derived Fiat–Shamir-style by
    /// [`batch_coefficients`] from `context` and the whole batch, so a
    /// cheating prover cannot anticipate them: a batch containing any
    /// invalid triple passes with probability at most `≈ 2⁻¹²⁸`.
    fn batch_holds(&self, context: &[u8], items: &[BatchItem<Self>]) -> bool {
        let _ = context;
        items.iter().all(|(a1, a2, proof)| self.verify_operand(a1, a2, proof))
    }

    /// Canonical bytes of a value, for embedding in block-header hashes.
    fn value_bytes(v: &Self::Value) -> Vec<u8>;

    /// Canonical bytes of a proof, for wire-size accounting and batch
    /// transcripts.
    fn proof_bytes(p: &Self::Proof) -> Vec<u8>;

    /// Wire size of a value in bytes. Must equal
    /// `Self::value_bytes(v).len()` for every value.
    fn value_size(&self) -> usize;

    /// Wire size of a proof in bytes. Must equal
    /// `Self::proof_bytes(p).len()` for every proof.
    fn proof_size(&self) -> usize;

    /// Decode a proof from untrusted wire bytes — the checked inverse of
    /// [`Accumulator::proof_bytes`]. Every component point passes the full
    /// curve decode ladder (length, canonical coordinates, on-curve,
    /// subgroup membership), so an `Ok` proof is safe to feed to
    /// [`Accumulator::verify_operand`] and the GLS scalar-multiplication
    /// paths. Accepted bytes re-encode identically.
    fn proof_from_bytes(&self, bytes: &[u8]) -> Result<Self::Proof, DecodeError>;

    /// Whether `Sum` is available (Construction 2 only).
    fn supports_aggregation(&self) -> bool {
        false
    }

    /// `Sum(acc(X₁), …, acc(Xₙ)) → acc(ΣXᵢ)`.
    fn sum(&self, _values: &[Self::Value]) -> Result<Self::Value, AccError> {
        Err(AccError::AggregationUnsupported)
    }
}
