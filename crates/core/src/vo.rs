//! Verification objects (VOs) — the cryptographic proofs the SP returns
//! alongside query results (paper §3, threat model; §5–§6 construction).
//!
//! A VO mirrors the pruned intra-block index: explored internal nodes carry
//! their AttDigest (needed to rebuild the Merkle commitment), pruned
//! subtrees carry a disjointness proof, matched leaves point into the result
//! set. Inter-block skips and §6.3 batch-verification groups ride alongside.
//!
//! On the wire a VO travels in the [`crate::wire`] codec — the
//! deduplicating intern-table encoding for responses, raw slots for
//! subscription updates — and can be delivered as a
//! frame stream verified incrementally by [`crate::client`]; see
//! `docs/LIGHT_CLIENT.md` for byte layouts and the pipeline architecture.

// Decoded VOs are attacker-shaped; resolution paths must not panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use core::marker::PhantomData;
use std::sync::Arc;

use vchain_acc::{Accumulator, MultiSet};
use vchain_chain::Object;
use vchain_hash::Digest;

use crate::element::ElementId;
use crate::query::CompiledQuery;
use crate::trans::prefix_interval;

/// An AttDigest as a VO carries it: the canonical bytes of an accumulative
/// value ([`Accumulator::value_bytes`]), not the group elements.
///
/// A VO mentions AttDigests for two reasons. Every one of them is *hashed*
/// into the Merkle commitment the verifier rebuilds, and for that the bytes
/// are all that is needed — the block header's root already pins them, the
/// way any Merkle verifier hashes node contents as opaque bytes. Only the
/// AttDigests of mismatch nodes and skip entries are also *paired*, and
/// only in the component the pairing equation consumes; the verifier
/// decodes exactly that, at the point of use
/// ([`Accumulator::operand_from_bytes`]). So this one representation
/// serves both sides: the SP fills it once at VO construction (the codec
/// then copies bytes instead of re-serializing points), and the wire
/// decoder fills it with length-checked bytes and no group arithmetic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Att(Vec<u8>);

impl Att {
    /// The AttDigest of a value this side computed itself (SP side).
    pub fn of<A: Accumulator>(value: &A::Value) -> Self {
        Att(A::value_bytes(value))
    }

    /// Wrap bytes as they arrived. Nothing is checked here: a byte string
    /// of the wrong length or content cannot reproduce the committed root,
    /// and [`Accumulator::operand_from_bytes`] length-checks before it
    /// decodes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Att(bytes.to_vec())
    }

    /// The canonical bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A disjointness proof as a VO carries it: the canonical bytes of
/// [`Accumulator::proof_bytes`], not the group elements.
///
/// A proof has one consumer, the verifier's pairing check, so it stays
/// bytes from the prover to that check. The SP encodes it once, where
/// [`crate::cache::ProofCache::resolve`] takes a fresh proof from the
/// prover, and the cache, the log and the codec copy those bytes. The
/// verifier decodes it once, with the checked
/// [`Accumulator::proof_from_bytes`], where it joins the pairing batch
/// ([`crate::verify::DisjointBatch`]). The type parameter keeps the bytes of
/// one construction apart from the other's; it asks nothing of `A`. A clone
/// shares the bytes: a block hands one proof to every standing query it
/// refutes with it (a copy each cost `sub_publish_100k` ≈ 1.25×).
pub struct ProofBytes<A>(Arc<[u8]>, PhantomData<fn() -> A>);

impl<A: Accumulator> ProofBytes<A> {
    /// The bytes of a proof this side computed itself (SP side).
    pub fn of(proof: &A::Proof) -> Self {
        Self::from_bytes(&A::proof_bytes(proof))
    }
}

impl<A> ProofBytes<A> {
    /// Wrap bytes as they arrived. Nothing is checked here: the verifier
    /// decodes them, checked, before they reach a pairing.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self(bytes.into(), PhantomData)
    }

    /// The canonical bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

// By hand, so that `A` needs no bounds: only the bytes are compared.
impl<A> Clone for ProofBytes<A> {
    fn clone(&self) -> Self {
        Self(self.0.clone(), PhantomData)
    }
}

impl<A> core::fmt::Debug for ProofBytes<A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("ProofBytes").field(&self.0).finish()
    }
}

impl<A> PartialEq for ProofBytes<A> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<A> Eq for ProofBytes<A> {}

impl<A> core::hash::Hash for ProofBytes<A> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// Which set a disjointness proof was made against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClauseRef {
    /// Clause `i` of the compiled query's CNF — the verifier re-derives the
    /// set itself, so the SP cannot substitute a weaker clause.
    Index(u16),
    /// A grid cell: one binary prefix of length `len` per listed dimension.
    /// Used by subscriptions that share range refutations (§7.1): one proof
    /// against a cell serves every query whose range box lies inside it;
    /// the verifier checks the containment before trusting it.
    Cell {
        /// Prefix length in bits.
        len: u8,
        /// `(dimension, prefix bits)` pairs.
        prefixes: Vec<(u8, u64)>,
    },
}

/// Errors raised when a [`ClauseRef`] cannot be resolved for a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClauseError {
    /// The clause index exceeds the query's CNF.
    OutOfRange(u16),
    /// The cell references a dimension the query has no range on.
    NoSuchDim(u8),
    /// The query's range box is not contained in the cell.
    NotContaining {
        /// The dimension where containment fails.
        dim: u8,
    },
    /// The cell lists no prefixes.
    EmptyCell,
    /// A cell prefix is malformed: zero length, length beyond the query's
    /// domain width, or bits wider than the stated length. (A decoded VO can
    /// carry any `(len, bits)` pair; unchecked, these would trip the
    /// precondition assert in [`crate::trans::prefix_interval`].)
    InvalidPrefix {
        /// The offending prefix length.
        len: u8,
    },
    /// The resolved element set exceeds the accumulator's key bound, so no
    /// honest proof against it can exist.
    Unaccumulatable,
}

impl ClauseRef {
    /// Resolve to the element set whose disjointness implies the query
    /// mismatches, verifying the reference is *valid for this query*.
    pub fn resolve(&self, q: &CompiledQuery) -> Result<MultiSet<ElementId>, ClauseError> {
        match self {
            ClauseRef::Index(i) => {
                q.cnf.0.get(*i as usize).map(|c| c.to_multiset()).ok_or(ClauseError::OutOfRange(*i))
            }
            ClauseRef::Cell { len, prefixes } => {
                if prefixes.is_empty() {
                    return Err(ClauseError::EmptyCell);
                }
                // `len`/`bits` arrive from the wire; reject anything outside
                // the domain the query was compiled against *before* doing
                // interval arithmetic on it.
                if *len == 0 || *len > q.domain_bits || q.domain_bits > 64 {
                    return Err(ClauseError::InvalidPrefix { len: *len });
                }
                // Disjoint(W, cell-prefixes) proves every covered object
                // lies outside each dimension's slab, hence outside the
                // cell. That implies a query mismatch only when the query's
                // own range box is contained in the cell — checked per dim.
                let mut out = MultiSet::new();
                for (dim, bits) in prefixes {
                    if (*len as u32) < 64 && (*bits >> *len) != 0 {
                        return Err(ClauseError::InvalidPrefix { len: *len });
                    }
                    let r = q
                        .ranges
                        .iter()
                        .find(|r| r.dim == *dim)
                        .ok_or(ClauseError::NoSuchDim(*dim))?;
                    let (lo, hi) = prefix_interval(*len, *bits, q.domain_bits);
                    if r.lo < lo || r.hi > hi {
                        return Err(ClauseError::NotContaining { dim: *dim });
                    }
                    let e = crate::element::Element::Prefix { dim: *dim, len: *len, bits: *bits };
                    out.insert(ElementId::intern(&e));
                }
                Ok(out)
            }
        }
    }
}

/// How a mismatch is proven: inline, or as a member of a §6.3 batch group.
#[derive(Clone, Debug)]
pub enum MismatchProof<A: Accumulator> {
    /// A proof carried directly in the VO node.
    Inline {
        /// The disjointness proof.
        proof: ProofBytes<A>,
        /// The clause it refutes.
        clause: ClauseRef,
    },
    /// Index into [`BlockVo::groups`]; the verifier sums the member
    /// AttDigests with `Sum(·)` and checks the group's single proof.
    Group(u16),
}

/// One node of the pruned intra-block index, as shipped to the verifier.
#[derive(Clone, Debug)]
pub enum VoNode<A: Accumulator> {
    /// An explored internal node (its subtree contains results).
    Internal {
        /// `AttDigest_n`; `None` under the `nil` scheme where internal nodes
        /// are plain Merkle nodes.
        att: Option<Att>,
        /// The left child's VO.
        left: Box<VoNode<A>>,
        /// The right child's VO.
        right: Box<VoNode<A>>,
    },
    /// A pruned internal node: everything below mismatches `clause`.
    InternalMismatch {
        /// `hash(hash_l | hash_r)` — opaque, binds the hidden subtree.
        child_hash: Digest,
        /// The node's AttDigest.
        att: Att,
        /// Why the whole subtree mismatches.
        proof: MismatchProof<A>,
    },
    /// A matching leaf; the object is in the result set.
    LeafMatch {
        /// The leaf's AttDigest.
        att: Att,
        /// Index into this block's result list.
        result_idx: u32,
    },
    /// A mismatching leaf.
    LeafMismatch {
        /// `hash(object)` — opaque, binds the hidden object.
        obj_hash: Digest,
        /// The leaf's AttDigest.
        att: Att,
        /// Why the object mismatches.
        proof: MismatchProof<A>,
    },
}

/// A batch-verification group (§6.3): one proof for several mismatch nodes
/// sharing the same reason.
#[derive(Clone, Debug)]
pub struct GroupProof<A: Accumulator> {
    /// The clause every group member mismatches.
    pub clause: ClauseRef,
    /// One proof for the `Sum` of the members' digests.
    pub proof: ProofBytes<A>,
}

/// The VO for one block.
#[derive(Clone, Debug)]
pub struct BlockVo<A: Accumulator> {
    /// The pruned tree mirroring the intra-block index.
    pub root: VoNode<A>,
    /// §6.3 batch groups referenced by `MismatchProof::Group` nodes.
    pub groups: Vec<GroupProof<A>>,
}

/// Coverage of one stretch of the query window.
#[derive(Clone, Debug)]
pub enum BlockCoverage<A: Accumulator> {
    /// An individually processed block.
    Block {
        /// The covered height.
        height: u64,
        /// Its verification object.
        vo: BlockVo<A>,
    },
    /// An inter-block skip (§6.2): blocks `height-distance ..= height-1`
    /// all mismatch `clause`.
    Skip {
        /// The block whose skip list is being used.
        height: u64,
        /// Number of preceding blocks covered.
        distance: u64,
        /// The skip entry's AttDigest.
        att: Att,
        /// Disjointness of the entry's multiset from `clause`.
        proof: ProofBytes<A>,
        /// The refuted clause.
        clause: ClauseRef,
        /// `(distance, hash_Lk)` of the *other* levels, to rebuild
        /// `SkipListRoot`.
        siblings: Vec<(u64, Digest)>,
    },
}

/// The SP's full answer: results grouped by block (descending height) plus
/// the VO covering every block of the window.
#[derive(Clone, Debug)]
pub struct QueryResponse<A: Accumulator> {
    /// Matching objects, grouped by block height (descending).
    pub results: Vec<(u64, Vec<Object>)>,
    /// The VO covering every in-window block.
    pub coverage: Vec<BlockCoverage<A>>,
}

impl<A: Accumulator> QueryResponse<A> {
    /// Total number of result objects.
    pub fn result_count(&self) -> usize {
        self.results.iter().map(|(_, v)| v.len()).sum()
    }

    /// Flatten results (descending height order preserved).
    pub fn all_results(&self) -> impl Iterator<Item = &Object> {
        self.results.iter().flat_map(|(_, v)| v.iter())
    }
}
