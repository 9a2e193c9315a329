//! The untrusted wire boundary: byte codecs for SP-supplied responses.
//!
//! Everything the service provider ships to the light client —
//! [`QueryResponse`] for time-window queries, [`SubscriptionUpdate`] for
//! subscriptions — crosses the network as bytes an adversary controls
//! end-to-end. This module is the *only* place those bytes become typed
//! values, and it holds the line the threat model (paper §3, §8) requires:
//!
//! * **Total decoding** — every decode path returns [`WireError`]; no input,
//!   however malformed, panics, overflows, or aborts.
//! * **No attacker-sized allocation** — claimed collection counts are
//!   checked against the bytes actually present (each element consumes at
//!   least its minimum wire size) before a single element is read, and
//!   buffers are never pre-reserved from a claimed length.
//! * **Bounded recursion** — a [`VoNode`] tree deeper than
//!   [`MAX_VO_DEPTH`] is rejected, so a crafted VO cannot blow the stack.
//! * **No point decoded here** — AttDigests ([`Att`]) and proofs
//!   ([`ProofBytes`]) are fixed-size slots of canonical bytes, length-checked
//!   and copied. The verifier hashes AttDigests into the commitment the
//!   block header pins, and runs the full curve ladder (canonical
//!   coordinate, on-curve, subgroup membership) only where a pairing
//!   equation consumes a point, at the point of use
//!   ([`Accumulator::operand_from_bytes`] and
//!   [`Accumulator::proof_from_bytes`] in [`crate::verify`]).
//! * **Canonical form** — trailing bytes are rejected, and every accepted
//!   input re-encodes byte-identically (there is exactly one encoding per
//!   value), so byte strings can be hashed or compared in place of values.
//!
//! One encoding per message, one decoder per encoding:
//!
//! | message | encoder | decoder |
//! |---|---|---|
//! | window response or scan, framed | [`encode_scan_stream`] | [`StreamDecoder`] |
//! | subscription update | [`encode_update`] | [`decode_update`] |
//!
//! A single window's response is the one-window stream
//! ([`encode_response_v2`]); there is no second response layout.
//!
//! The encoders are infallible: they serialize honestly-constructed values
//! (the SP side). The decoders are the adversarial surface.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;

use vchain_acc::Accumulator;
use vchain_chain::Object;
use vchain_hash::Digest;

use crate::subscribe::SubscriptionUpdate;
use crate::vo::{
    Att, BlockCoverage, BlockVo, ClauseRef, GroupProof, MismatchProof, ProofBytes, QueryResponse,
    VoNode,
};

/// Version byte of the raw-slot message: the first byte of every encoded
/// subscription update ([`encode_update`]). Not a response version — see
/// [`WIRE_VERSION_V2`].
pub const WIRE_VERSION: u8 = 1;

/// Version of the one response body encoding, announced in every stream
/// header ([`encode_scan_stream`]): shared accumulator values and repeated
/// proofs are interned once into a per-stream table and
/// back-referenced by index everywhere else. A header announcing any other
/// body version is [`WireError::UnsupportedVersion`] before any entry frame
/// is parsed.
pub const WIRE_VERSION_V2: u8 = 2;

/// Version byte of the frame-stream envelope ([`encode_scan_stream`]),
/// carried in the header frame alongside the body codec version.
pub const STREAM_VERSION: u8 = 1;

/// Maximum accepted payload length of one stream frame. The decoder
/// rejects a larger claim from the 4-byte length prefix alone, so a
/// malicious length can never force the client to buffer more than this
/// (an honest frame — one block's coverage entry — is kilobytes).
pub const MAX_FRAME_BYTES: usize = 1 << 22;

/// Maximum accepted [`VoNode`] nesting depth. An honest VO mirrors the
/// intra-block index, whose depth is `⌈log₂(objects per block)⌉`, so 64
/// levels is beyond any realizable block while keeping decoder stack use
/// trivially bounded.
pub const MAX_VO_DEPTH: usize = 64;

/// Why untrusted response bytes failed structural decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually left.
        remaining: usize,
    },
    /// A version byte is not the message's one version
    /// ([`STREAM_VERSION`] and [`WIRE_VERSION_V2`] in a stream header,
    /// [`WIRE_VERSION`] leading an update).
    UnsupportedVersion(u8),
    /// An enum tag byte has no corresponding variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A claimed collection count exceeds what the remaining bytes could
    /// possibly hold — rejected before any allocation.
    Oversized {
        /// Which collection was being decoded.
        what: &'static str,
        /// The claimed element count.
        count: u64,
        /// Bytes actually left.
        remaining: usize,
    },
    /// A [`VoNode`] tree nests deeper than [`MAX_VO_DEPTH`].
    DepthExceeded {
        /// The enforced bound.
        max: usize,
    },
    /// A keyword string is not valid UTF-8.
    BadUtf8,
    /// An interned AttDigest or proof has the wrong length (here), or a
    /// pairing operand or proof failed the checked point decode (in
    /// [`crate::verify`]).
    Accumulator(vchain_acc::DecodeError),
    /// Bytes remained after the top-level value was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A v2 slot back-reference points past the end of the intern table.
    BackRefOutOfRange {
        /// The referenced table index.
        index: u32,
        /// The table's actual entry count.
        table: usize,
    },
    /// A v2 encoding is structurally valid but not the one canonical form
    /// the encoder produces (duplicate or unused table entries, an entry
    /// referenced fewer than twice, out-of-order first use, or an inline
    /// slot that repeats earlier bytes instead of back-referencing).
    NonCanonical {
        /// Which canonical-form rule was violated.
        what: &'static str,
    },
    /// A stream frame claims a payload larger than [`MAX_FRAME_BYTES`] —
    /// rejected from the 4-byte length prefix alone, before any buffering.
    FrameOversized {
        /// The claimed payload length.
        len: u64,
    },
    /// A stream frame arrived out of order (its sequence number is not the
    /// next expected one) — reordered, duplicated, or dropped in transit.
    FrameSequence {
        /// The sequence number the decoder expected next.
        expected: u32,
        /// The sequence number that actually arrived.
        got: u32,
    },
    /// The stream ended before delivering every frame the header declared
    /// (or ended inside a partial frame, or never delivered a header).
    StreamTruncated {
        /// Entry frames fully decoded.
        entries_seen: u32,
        /// Entry frames the header declared.
        entries_declared: u32,
        /// Bytes of an incomplete trailing frame still buffered.
        pending: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "input truncated: needed {needed} bytes, {remaining} left")
            }
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            WireError::Oversized { what, count, remaining } => {
                write!(f, "{what} claims {count} elements but only {remaining} bytes remain")
            }
            WireError::DepthExceeded { max } => write!(f, "VO tree deeper than {max} levels"),
            WireError::BadUtf8 => write!(f, "keyword is not valid UTF-8"),
            WireError::Accumulator(e) => write!(f, "accumulator object: {e}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the encoded value")
            }
            WireError::BackRefOutOfRange { index, table } => {
                write!(f, "slot back-reference {index} outside the {table}-entry intern table")
            }
            WireError::NonCanonical { what } => {
                write!(f, "non-canonical v2 encoding: {what}")
            }
            WireError::FrameOversized { len } => {
                write!(f, "stream frame claims {len} bytes, cap is {MAX_FRAME_BYTES}")
            }
            WireError::FrameSequence { expected, got } => {
                write!(f, "stream frame out of order: expected seq {expected}, got {got}")
            }
            WireError::StreamTruncated { entries_seen, entries_declared, pending } => {
                write!(
                    f,
                    "stream ended after {entries_seen} of {entries_declared} entry frames \
                     ({pending} bytes of a partial frame pending)"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Byte-sink half of the codec. `pub(crate)` so sibling byte formats — the
/// persistent store's record codec in [`crate::store`] — share one set of
/// little-endian primitives instead of growing a divergent twin.
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Collection counts are `u32` on the wire; honest collections are far
    /// below `u32::MAX`, and saturating keeps the encoder total.
    pub(crate) fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Byte-source half of the codec; same `pub(crate)` sharing rationale as
/// [`Writer`]. Every accessor is total: any shortfall is a typed
/// [`WireError`], never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Truncated { needed: n, remaining: self.remaining() })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Truncated { needed: n, remaining: self.remaining() })?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1).map(|s| s.first().copied().unwrap_or(0))
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.take(2).map(|s| le_bytes(s) as u16)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take(4).map(|s| le_bytes(s) as u32)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.take(8).map(le_bytes)
    }

    pub(crate) fn digest(&mut self) -> Result<Digest, WireError> {
        let s = self.take(Digest::LEN)?;
        let mut d = [0u8; Digest::LEN];
        for (dst, src) in d.iter_mut().zip(s) {
            *dst = *src;
        }
        Ok(Digest(d))
    }

    /// Read a collection count and reject it up-front unless the remaining
    /// bytes could hold `count` elements of at least `min_item` bytes each.
    /// Decoders then grow their vectors element by element, so memory use
    /// is bounded by the input length regardless of the claimed count.
    pub(crate) fn count(
        &mut self,
        what: &'static str,
        min_item: usize,
    ) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(min_item.max(1)).ok_or(WireError::Oversized {
            what,
            count: n as u64,
            remaining: self.remaining(),
        })?;
        if need > self.remaining() {
            return Err(WireError::Oversized {
                what,
                count: n as u64,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(WireError::TrailingBytes { count }),
        }
    }
}

/// Little-endian integer from at most 8 bytes (panic-free by construction).
fn le_bytes(s: &[u8]) -> u64 {
    s.iter().rev().fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

// ---------------------------------------------------------------------------
// Slot codecs: how AttDigests / proofs embed into the body
// ---------------------------------------------------------------------------
//
// Every structural codec below (nodes, mismatches, coverage) is generic
// over a *slot codec* — the one place an AttDigest or proof slot becomes
// bytes. Both kinds of slot are fixed-size canonical bytes the VO already
// holds ([`Att`], [`ProofBytes`]), and differ only in that size. A
// subscription update writes every slot raw in place; a response tags each
// slot and back-references repeated byte strings into an intern table. One
// set of body functions serves both messages.

/// Encode-side slot strategy: `bytes` borrow from the coverage being
/// encoded, for as long as `'a`.
trait SlotWrite<'a> {
    fn slot(&mut self, w: &mut Writer, bytes: &'a [u8]);
}

/// Decode-side slot strategy: the bytes of one slot of exactly `size`
/// bytes, for [`Att::from_bytes`] or [`ProofBytes::from_bytes`] to copy.
trait SlotRead {
    fn slot<'x>(&'x mut self, r: &'x mut Reader<'_>, size: usize) -> Result<&'x [u8], WireError>;
}

/// Subscription updates: every slot is its raw fixed-size bytes, in place.
struct RawSlots;

impl SlotWrite<'_> for RawSlots {
    fn slot(&mut self, w: &mut Writer, bytes: &[u8]) {
        w.bytes(bytes);
    }
}

impl SlotRead for RawSlots {
    fn slot<'x>(&'x mut self, r: &'x mut Reader<'_>, size: usize) -> Result<&'x [u8], WireError> {
        r.take(size)
    }
}

/// v2 slot tag: the slot's bytes follow inline (first/only occurrence).
const SLOT_INLINE: u8 = 0;
/// v2 slot tag: a `u32` index into the response's intern table follows.
const SLOT_BACKREF: u8 = 1;

/// v2 encode pass 1: count every slot byte-string in encode order and
/// remember first-occurrence order, borrowing the strings from the
/// coverage. Writes nothing — [`intern_table`] runs the body encoder into a
/// scratch buffer that is discarded.
#[derive(Default)]
struct CountSlots<'a> {
    counts: HashMap<&'a [u8], u32>,
    order: Vec<&'a [u8]>,
}

impl<'a> CountSlots<'a> {
    /// The intern table: every byte-string that occurs at least twice, in
    /// first-occurrence order (which is exactly the order the decode pass
    /// will first dereference them in — the canonical-form invariant).
    fn into_table(self) -> Vec<&'a [u8]> {
        let counts = self.counts;
        self.order.into_iter().filter(|b| counts.get(b).copied().unwrap_or(0) >= 2).collect()
    }
}

impl<'a> SlotWrite<'a> for CountSlots<'a> {
    fn slot(&mut self, _w: &mut Writer, bytes: &'a [u8]) {
        let n = self.counts.entry(bytes).or_insert(0);
        if *n == 0 {
            self.order.push(bytes);
        }
        *n += 1;
    }
}

/// v2 encode pass 2: emit `SLOT_BACKREF ‖ u32 index` for interned strings,
/// `SLOT_INLINE ‖ raw bytes` otherwise.
struct InternSlots<'t> {
    index: HashMap<&'t [u8], u32>,
}

impl<'t> InternSlots<'t> {
    fn new(table: &[&'t [u8]]) -> Self {
        Self {
            index: table
                .iter()
                .enumerate()
                .map(|(i, e)| (*e, u32::try_from(i).unwrap_or(u32::MAX)))
                .collect(),
        }
    }
}

impl SlotWrite<'_> for InternSlots<'_> {
    fn slot(&mut self, w: &mut Writer, bytes: &[u8]) {
        match self.index.get(bytes) {
            Some(&i) => {
                w.u8(SLOT_BACKREF);
                w.u32(i);
            }
            None => {
                w.u8(SLOT_INLINE);
                w.bytes(bytes);
            }
        }
    }
}

/// v2 decode: resolve tagged slots against the intern table while
/// enforcing the canonical form (exactly one encoding per response):
///
/// * a back-reference must be in range, and first uses must walk the table
///   in order `0, 1, 2, …` — the order the encoder's first occurrences
///   produce by construction;
/// * inline bytes must not duplicate a table entry or an earlier inline
///   slot (the encoder would have interned them);
/// * a table entry carries its own length, and is held to the slot's fixed
///   size like an inline slot;
/// * at [`TableSlots::finish`], every table entry must have been referenced
///   at least twice (interning a once-used string would *grow* the
///   encoding, so the encoder never does).
///
/// No slot is group-decoded here: a table entry is copied into each slot
/// that references it, and the verifier's per-batch caches decode each
/// distinct byte string once ([`crate::verify::DisjointBatch`]).
struct TableSlots {
    raw: Vec<Vec<u8>>,
    refs: Vec<u32>,
    first_unused: usize,
    /// Total byte length of the entries (the streaming client's buffer).
    table_bytes: usize,
    inline_seen: HashSet<Vec<u8>>,
    table_set: HashSet<Vec<u8>>,
}

impl TableSlots {
    /// Parse the intern table (`u32 count`, then `u32 len ‖ bytes` per
    /// entry) from a stream header frame.
    fn parse(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count("intern table", 5)?;
        let mut raw = Vec::new();
        let mut table_set = HashSet::new();
        let mut table_bytes = 0usize;
        for _ in 0..n {
            let len = r.count("intern table entry", 1)?;
            let bytes = r.take(len)?.to_vec();
            if !table_set.insert(bytes.clone()) {
                return Err(WireError::NonCanonical { what: "duplicate intern-table entry" });
            }
            table_bytes = table_bytes.saturating_add(bytes.len());
            raw.push(bytes);
        }
        Ok(Self {
            refs: vec![0; raw.len()],
            first_unused: 0,
            table_bytes,
            inline_seen: HashSet::new(),
            table_set,
            raw,
        })
    }

    /// End-of-response canonicality: every table entry was first-used in
    /// order (so all were used) and referenced at least twice.
    fn finish(&self) -> Result<(), WireError> {
        if self.first_unused != self.raw.len() {
            return Err(WireError::NonCanonical { what: "unused intern-table entry" });
        }
        if self.refs.iter().any(|&c| c < 2) {
            return Err(WireError::NonCanonical { what: "intern-table entry referenced once" });
        }
        Ok(())
    }
}

impl SlotRead for TableSlots {
    fn slot<'x>(&'x mut self, r: &'x mut Reader<'_>, size: usize) -> Result<&'x [u8], WireError> {
        match r.u8()? {
            SLOT_INLINE => {
                let bytes = r.take(size)?;
                if self.table_set.contains(bytes) {
                    return Err(WireError::NonCanonical {
                        what: "inline slot duplicates an intern-table entry",
                    });
                }
                if !self.inline_seen.insert(bytes.to_vec()) {
                    return Err(WireError::NonCanonical {
                        what: "repeated slot bytes not interned",
                    });
                }
                Ok(bytes)
            }
            SLOT_BACKREF => {
                let index = r.u32()?;
                let i = index as usize;
                let Some(bytes) = self.raw.get(i) else {
                    return Err(WireError::BackRefOutOfRange { index, table: self.raw.len() });
                };
                if i > self.first_unused {
                    return Err(WireError::NonCanonical {
                        what: "intern-table first use out of order",
                    });
                }
                if bytes.len() != size {
                    return Err(WireError::Accumulator(vchain_acc::DecodeError::Length {
                        expected: size,
                        got: bytes.len(),
                    }));
                }
                if i == self.first_unused {
                    self.first_unused += 1;
                }
                if let Some(c) = self.refs.get_mut(i) {
                    *c = c.saturating_add(1);
                }
                Ok(bytes)
            }
            tag => Err(WireError::BadTag { what: "v2 slot", tag }),
        }
    }
}

fn put_string(w: &mut Writer, s: &str) {
    w.count(s.len());
    w.bytes(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = r.count("string", 1)?;
    let bytes = r.take(len)?;
    core::str::from_utf8(bytes).map(str::to_owned).map_err(|_| WireError::BadUtf8)
}

fn put_object(w: &mut Writer, o: &Object) {
    w.u64(o.id);
    w.u64(o.timestamp);
    w.count(o.numeric.len());
    for v in &o.numeric {
        w.u64(*v);
    }
    w.count(o.keywords.len());
    for k in &o.keywords {
        put_string(w, k);
    }
}

fn get_object(r: &mut Reader<'_>) -> Result<Object, WireError> {
    let id = r.u64()?;
    let timestamp = r.u64()?;
    let n_numeric = r.count("object numeric vector", 8)?;
    let mut numeric = Vec::new();
    for _ in 0..n_numeric {
        numeric.push(r.u64()?);
    }
    let n_kw = r.count("object keywords", 4)?;
    let mut keywords = Vec::new();
    for _ in 0..n_kw {
        keywords.push(get_string(r)?);
    }
    Ok(Object { id, timestamp, numeric, keywords })
}

fn put_clause(w: &mut Writer, c: &ClauseRef) {
    match c {
        ClauseRef::Index(i) => {
            w.u8(0);
            w.u16(*i);
        }
        ClauseRef::Cell { len, prefixes } => {
            w.u8(1);
            w.u8(*len);
            w.count(prefixes.len());
            for (dim, bits) in prefixes {
                w.u8(*dim);
                w.u64(*bits);
            }
        }
    }
}

fn get_clause(r: &mut Reader<'_>) -> Result<ClauseRef, WireError> {
    match r.u8()? {
        0 => Ok(ClauseRef::Index(r.u16()?)),
        1 => {
            let len = r.u8()?;
            let n = r.count("cell prefixes", 9)?;
            let mut prefixes = Vec::new();
            for _ in 0..n {
                let dim = r.u8()?;
                let bits = r.u64()?;
                prefixes.push((dim, bits));
            }
            Ok(ClauseRef::Cell { len, prefixes })
        }
        tag => Err(WireError::BadTag { what: "ClauseRef", tag }),
    }
}

fn put_mismatch<'a, A: Accumulator, S: SlotWrite<'a>>(
    w: &mut Writer,
    m: &'a MismatchProof<A>,
    s: &mut S,
) {
    match m {
        MismatchProof::Inline { proof, clause } => {
            w.u8(0);
            s.slot(w, proof.as_bytes());
            put_clause(w, clause);
        }
        MismatchProof::Group(gid) => {
            w.u8(1);
            w.u16(*gid);
        }
    }
}

fn get_mismatch<A: Accumulator, S: SlotRead>(
    r: &mut Reader<'_>,
    acc: &A,
    s: &mut S,
) -> Result<MismatchProof<A>, WireError> {
    match r.u8()? {
        0 => {
            let proof = ProofBytes::from_bytes(s.slot(r, acc.proof_size())?);
            let clause = get_clause(r)?;
            Ok(MismatchProof::Inline { proof, clause })
        }
        1 => Ok(MismatchProof::Group(r.u16()?)),
        tag => Err(WireError::BadTag { what: "MismatchProof", tag }),
    }
}

// ---------------------------------------------------------------------------
// VO tree
// ---------------------------------------------------------------------------

fn put_node<'a, A: Accumulator, S: SlotWrite<'a>>(w: &mut Writer, node: &'a VoNode<A>, s: &mut S) {
    match node {
        VoNode::Internal { att, left, right } => {
            w.u8(0);
            match att {
                Some(a) => {
                    w.u8(1);
                    s.slot(w, a.as_bytes());
                }
                None => w.u8(0),
            }
            put_node(w, left, s);
            put_node(w, right, s);
        }
        VoNode::InternalMismatch { child_hash, att, proof } => {
            w.u8(1);
            w.bytes(child_hash.as_bytes());
            s.slot(w, att.as_bytes());
            put_mismatch(w, proof, s);
        }
        VoNode::LeafMatch { att, result_idx } => {
            w.u8(2);
            s.slot(w, att.as_bytes());
            w.u32(*result_idx);
        }
        VoNode::LeafMismatch { obj_hash, att, proof } => {
            w.u8(3);
            w.bytes(obj_hash.as_bytes());
            s.slot(w, att.as_bytes());
            put_mismatch(w, proof, s);
        }
    }
}

fn get_node<A: Accumulator, S: SlotRead>(
    r: &mut Reader<'_>,
    acc: &A,
    s: &mut S,
    depth: usize,
) -> Result<VoNode<A>, WireError> {
    if depth >= MAX_VO_DEPTH {
        return Err(WireError::DepthExceeded { max: MAX_VO_DEPTH });
    }
    match r.u8()? {
        0 => {
            let att = match r.u8()? {
                0 => None,
                1 => Some(Att::from_bytes(s.slot(r, acc.value_size())?)),
                tag => return Err(WireError::BadTag { what: "optional AttDigest", tag }),
            };
            let left = Box::new(get_node(r, acc, s, depth + 1)?);
            let right = Box::new(get_node(r, acc, s, depth + 1)?);
            Ok(VoNode::Internal { att, left, right })
        }
        1 => {
            let child_hash = r.digest()?;
            let att = Att::from_bytes(s.slot(r, acc.value_size())?);
            let proof = get_mismatch(r, acc, s)?;
            Ok(VoNode::InternalMismatch { child_hash, att, proof })
        }
        2 => {
            let att = Att::from_bytes(s.slot(r, acc.value_size())?);
            let result_idx = r.u32()?;
            Ok(VoNode::LeafMatch { att, result_idx })
        }
        3 => {
            let obj_hash = r.digest()?;
            let att = Att::from_bytes(s.slot(r, acc.value_size())?);
            let proof = get_mismatch(r, acc, s)?;
            Ok(VoNode::LeafMismatch { obj_hash, att, proof })
        }
        tag => Err(WireError::BadTag { what: "VoNode", tag }),
    }
}

fn put_block_vo<'a, A: Accumulator, S: SlotWrite<'a>>(
    w: &mut Writer,
    vo: &'a BlockVo<A>,
    s: &mut S,
) {
    put_node(w, &vo.root, s);
    w.count(vo.groups.len());
    for g in &vo.groups {
        put_clause(w, &g.clause);
        s.slot(w, g.proof.as_bytes());
    }
}

fn get_block_vo<A: Accumulator, S: SlotRead>(
    r: &mut Reader<'_>,
    acc: &A,
    s: &mut S,
) -> Result<BlockVo<A>, WireError> {
    let root = get_node(r, acc, s, 0)?;
    // A v2 back-referenced group proof is 5 bytes on the wire, so the
    // count pre-check must use the smallest per-element size either slot
    // form can take — still enough to bound allocation by input length.
    let n = r.count("batch groups", 2)?;
    let mut groups = Vec::new();
    for _ in 0..n {
        let clause = get_clause(r)?;
        let proof = ProofBytes::from_bytes(s.slot(r, acc.proof_size())?);
        groups.push(GroupProof { clause, proof });
    }
    Ok(BlockVo { root, groups })
}

fn put_coverage<'a, A: Accumulator, S: SlotWrite<'a>>(
    w: &mut Writer,
    cov: &'a BlockCoverage<A>,
    s: &mut S,
) {
    match cov {
        BlockCoverage::Block { height, vo } => {
            w.u8(0);
            w.u64(*height);
            put_block_vo(w, vo, s);
        }
        BlockCoverage::Skip { height, distance, att, proof, clause, siblings } => {
            w.u8(1);
            w.u64(*height);
            w.u64(*distance);
            s.slot(w, att.as_bytes());
            s.slot(w, proof.as_bytes());
            put_clause(w, clause);
            w.count(siblings.len());
            for (d, h) in siblings {
                w.u64(*d);
                w.bytes(h.as_bytes());
            }
        }
    }
}

fn get_coverage<A: Accumulator, S: SlotRead>(
    r: &mut Reader<'_>,
    acc: &A,
    s: &mut S,
) -> Result<BlockCoverage<A>, WireError> {
    match r.u8()? {
        0 => {
            let height = r.u64()?;
            let vo = get_block_vo(r, acc, s)?;
            Ok(BlockCoverage::Block { height, vo })
        }
        1 => {
            let height = r.u64()?;
            let distance = r.u64()?;
            let att = Att::from_bytes(s.slot(r, acc.value_size())?);
            let proof = ProofBytes::from_bytes(s.slot(r, acc.proof_size())?);
            let clause = get_clause(r)?;
            let n = r.count("skip siblings", 8 + Digest::LEN)?;
            let mut siblings = Vec::new();
            for _ in 0..n {
                let d = r.u64()?;
                let h = r.digest()?;
                siblings.push((d, h));
            }
            Ok(BlockCoverage::Skip { height, distance, att, proof, clause, siblings })
        }
        tag => Err(WireError::BadTag { what: "BlockCoverage", tag }),
    }
}

fn put_results(w: &mut Writer, results: &[(u64, Vec<Object>)]) {
    w.count(results.len());
    for (height, objs) in results {
        w.u64(*height);
        w.count(objs.len());
        for o in objs {
            put_object(w, o);
        }
    }
}

fn get_results(r: &mut Reader<'_>) -> Result<Vec<(u64, Vec<Object>)>, WireError> {
    let n_blocks = r.count("result blocks", 12)?;
    let mut results = Vec::new();
    for _ in 0..n_blocks {
        let height = r.u64()?;
        let n_objs = r.count("result objects", 24)?;
        let mut objs = Vec::new();
        for _ in 0..n_objs {
            objs.push(get_object(r)?);
        }
        results.push((height, objs));
    }
    Ok(results)
}

// ---------------------------------------------------------------------------
// Top-level entry points
// ---------------------------------------------------------------------------

/// Collect the v2 intern table over one or more responses' coverage: run
/// the body encoder once with a counting slot sink (output discarded) and
/// keep every slot byte-string that occurs at least twice, in
/// first-occurrence order. The table borrows its entries from the coverage.
fn intern_table<'a, A: Accumulator>(covs: &[&'a [BlockCoverage<A>]]) -> Vec<&'a [u8]> {
    let mut count = CountSlots::default();
    let mut scratch = Writer::default();
    for coverage in covs {
        for cov in *coverage {
            put_coverage(&mut scratch, cov, &mut count);
        }
    }
    count.into_table()
}

fn put_table(w: &mut Writer, table: &[&[u8]]) {
    w.count(table.len());
    for entry in table {
        w.count(entry.len());
        w.bytes(entry);
    }
}

// ---------------------------------------------------------------------------
// Frame streaming
// ---------------------------------------------------------------------------

/// Open a frame in `out` (`u32 len ‖ u32 seq ‖ u8 tag`, the length a
/// placeholder) and return where it starts; the caller writes the body
/// straight into `out` and [`close_frame`] back-patches the length.
fn open_frame(out: &mut Writer, seq: u32, tag: u8) -> usize {
    let at = out.buf.len();
    out.u32(0);
    out.u32(seq);
    out.u8(tag);
    at
}

/// Back-patch the length prefix of the frame opened at `at`: everything
/// written since, sequence number and tag included.
fn close_frame(out: &mut Writer, at: usize) {
    let len = out.buf.len().saturating_sub(at.saturating_add(4));
    let len = u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes();
    if let Some(prefix) = out.buf.get_mut(at..at.saturating_add(4)) {
        prefix.copy_from_slice(&len);
    }
}

/// Serialize a scan (one or more window responses) as a sequence of
/// self-delimiting frames (SP side): a header frame carrying the shared
/// intern table and each window's entry count, then one frame per coverage
/// entry with that block's result objects inlined. Each frame is
/// `u32 len ‖ u32 seq ‖ u8 tag ‖ body`; the concatenation returned here is
/// what crosses the network. [`StreamDecoder`] accepts precisely the byte
/// strings this function produces, one per scan.
///
/// The framing exists so a light client can verify block *i* while block
/// *i + 1* is still in flight, holding only one frame plus the table in
/// memory — see [`StreamDecoder`] and `core::client`. Repetition is the
/// norm, not the exception: objects sharing an attribute set produce
/// identical leaf AttDigests, mismatch proofs against the same clause
/// repeat across blocks, and overlapping windows of a scan re-cover the
/// same blocks — so the table is shared across every window of the scan.
/// See `docs/LIGHT_CLIENT.md` for the byte layout.
pub fn encode_scan_stream<A: Accumulator>(responses: &[QueryResponse<A>]) -> Vec<u8> {
    let covs: Vec<&[BlockCoverage<A>]> = responses.iter().map(|r| r.coverage.as_slice()).collect();
    let table = intern_table(&covs);
    let mut slots = InternSlots::new(&table);

    let mut out = Writer::default();
    let header = open_frame(&mut out, 0, 0);
    out.u8(STREAM_VERSION);
    out.u8(WIRE_VERSION_V2);
    out.count(responses.len());
    for resp in responses {
        out.count(resp.coverage.len());
    }
    put_table(&mut out, &table);
    close_frame(&mut out, header);

    let mut seq = 0u32;
    for resp in responses {
        let results: HashMap<u64, &Vec<Object>> =
            resp.results.iter().map(|(h, v)| (*h, v)).collect();
        for cov in &resp.coverage {
            seq = seq.saturating_add(1);
            let frame = open_frame(&mut out, seq, 1);
            put_coverage(&mut out, cov, &mut slots);
            if let BlockCoverage::Block { height, .. } = cov {
                let objs = results.get(height).map_or(&[][..], |v| v.as_slice());
                out.count(objs.len());
                for o in objs {
                    put_object(&mut out, o);
                }
            }
            close_frame(&mut out, frame);
        }
    }
    out.buf
}

/// Serialize one window's response: the one-window frame stream
/// ([`encode_scan_stream`] of `[response]`), which the light client
/// verifies with [`crate::verify::verify_encoded_response`].
pub fn encode_response_v2<A: Accumulator>(response: &QueryResponse<A>) -> Vec<u8> {
    encode_scan_stream(std::slice::from_ref(response))
}

/// A decoded item surfaced by [`StreamDecoder::feed`].
#[derive(Debug)]
pub enum StreamEvent<A: Accumulator> {
    /// The header frame: how many entry frames each window contributes and
    /// how large the intern table is.
    Header {
        /// Declared per-window entry-frame counts.
        windows: Vec<u32>,
        /// Intern-table entry count.
        table_entries: usize,
    },
    /// One coverage entry, with the block's result objects when the entry
    /// is a [`BlockCoverage::Block`].
    Entry {
        /// Which window (index into the header's `windows`) this entry
        /// belongs to.
        window: usize,
        /// The decoded coverage entry.
        coverage: BlockCoverage<A>,
        /// The block's result objects (empty for skip entries).
        results: Vec<Object>,
    },
}

/// Incremental decoder for [`encode_scan_stream`] bytes: feed chunks
/// of any size as they arrive, get back fully-decoded coverage entries.
///
/// Memory stays bounded by construction: only the bytes of the single
/// incomplete frame are buffered (capped by [`MAX_FRAME_BYTES`] from the
/// length prefix alone), plus the intern table retained for back-reference
/// resolution. Nothing is ever allocated from a claimed length before the
/// bytes backing it have arrived.
///
/// Every defense of the body codec applies per frame — slot length
/// checks, depth caps, count pre-checks, canonical slot rules — and
/// the envelope adds its own: frames arrive in declared sequence order
/// ([`WireError::FrameSequence`]), a stream that ends early is
/// [`WireError::StreamTruncated`] at [`StreamDecoder::finish`], and bytes
/// after the declared last frame are [`WireError::TrailingBytes`].
pub struct StreamDecoder<A: Accumulator> {
    pending: Vec<u8>,
    slots: Option<TableSlots>,
    acc: PhantomData<fn() -> A>,
    windows: Vec<u32>,
    declared: u32,
    entries_done: u32,
    window_idx: usize,
    window_done: u32,
    next_seq: u32,
    peak_buffered: usize,
    fed: usize,
    error: Option<WireError>,
}

impl<A: Accumulator> Default for StreamDecoder<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Accumulator> StreamDecoder<A> {
    /// An empty decoder, waiting for the header frame.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            slots: None,
            windows: Vec::new(),
            declared: 0,
            entries_done: 0,
            window_idx: 0,
            window_done: 0,
            next_seq: 0,
            peak_buffered: 0,
            fed: 0,
            error: None,
            acc: PhantomData,
        }
    }

    /// High-water mark of the decoder's retained memory over the stream so
    /// far: the buffered partial frame plus the intern table, sampled at
    /// the same instant (the table is only counted once it is actually
    /// retained — while the header frame is still buffered, its bytes are
    /// part of the partial frame, not of the table).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Total bytes fed so far (the stream's wire size).
    pub fn bytes_fed(&self) -> usize {
        self.fed
    }

    /// Intern-table entry count (0 before the header frame arrives).
    pub fn table_entries(&self) -> usize {
        self.slots.as_ref().map_or(0, |s| s.raw.len())
    }

    /// Entry frames fully decoded so far.
    pub fn entries_done(&self) -> u32 {
        self.entries_done
    }

    fn fail<T>(&mut self, e: WireError) -> Result<T, WireError> {
        self.error = Some(e.clone());
        Err(e)
    }

    /// Feed the next chunk of stream bytes; returns every item that chunk
    /// completed. A decoder that has reported an error keeps returning it.
    ///
    /// Frames are parsed where they lie in `chunk`. Only a frame the chunk
    /// leaves incomplete is copied, to be completed by the next chunks
    /// before anything after it is parsed.
    pub fn feed(&mut self, acc: &A, chunk: &[u8]) -> Result<Vec<StreamEvent<A>>, WireError> {
        if let Some(e) = self.error.clone() {
            return Err(e);
        }
        self.fed = self.fed.saturating_add(chunk.len());
        let mut events = Vec::new();
        let fed = self.feed_frames(acc, chunk, &mut events);
        fed.map(|()| events).or_else(|e| self.fail(e))
    }

    fn feed_frames(
        &mut self,
        acc: &A,
        mut chunk: &[u8],
        events: &mut Vec<StreamEvent<A>>,
    ) -> Result<(), WireError> {
        // First complete the frame a previous chunk left pending: its length
        // prefix, then its payload.
        while !self.pending.is_empty() {
            let want = match self.pending.get(..4) {
                Some(prefix) => frame_len(prefix)?.saturating_add(4),
                None => 4,
            };
            if self.pending.len() == want {
                let frame = core::mem::take(&mut self.pending);
                self.frame(acc, frame.get(4..).unwrap_or_default(), events)?;
                break;
            }
            let Some((head, rest)) =
                chunk.split_at_checked(want.saturating_sub(self.pending.len()))
            else {
                self.buffer(chunk);
                return Ok(());
            };
            self.buffer(head);
            chunk = rest;
        }
        // Then every frame the chunk holds whole, in place.
        while let Some(prefix) = chunk.get(..4) {
            let end = frame_len(prefix)?.saturating_add(4);
            let Some((frame, rest)) = chunk.split_at_checked(end) else {
                break;
            };
            self.frame(acc, frame.get(4..).unwrap_or_default(), events)?;
            chunk = rest;
        }
        // And keep the incomplete tail.
        self.buffer(chunk);
        Ok(())
    }

    /// Append `bytes` to the partial frame and sample the retained memory.
    fn buffer(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
        // (the table counts from the moment the header frame is released)
        let table_bytes = self.slots.as_ref().map_or(0, |s| s.table_bytes);
        self.peak_buffered = self.peak_buffered.max(self.pending.len().saturating_add(table_bytes));
    }

    fn frame(
        &mut self,
        acc: &A,
        payload: &[u8],
        events: &mut Vec<StreamEvent<A>>,
    ) -> Result<(), WireError> {
        let mut r = Reader::new(payload);
        let seq = r.u32()?;
        let tag = r.u8()?;
        match self.slots.as_mut() {
            None => {
                if seq != 0 {
                    return Err(WireError::FrameSequence { expected: 0, got: seq });
                }
                if tag != 0 {
                    return Err(WireError::BadTag { what: "stream header frame", tag });
                }
                let sv = r.u8()?;
                if sv != STREAM_VERSION {
                    return Err(WireError::UnsupportedVersion(sv));
                }
                let cv = r.u8()?;
                if cv != WIRE_VERSION_V2 {
                    return Err(WireError::UnsupportedVersion(cv));
                }
                let n_windows = r.count("stream windows", 4)?;
                let mut windows = Vec::new();
                let mut declared = 0u32;
                for _ in 0..n_windows {
                    let n = r.u32()?;
                    declared = declared.saturating_add(n);
                    windows.push(n);
                }
                let slots = TableSlots::parse(&mut r)?;
                r.finish()?;
                events.push(StreamEvent::Header {
                    windows: windows.clone(),
                    table_entries: slots.raw.len(),
                });
                self.windows = windows;
                self.declared = declared;
                self.slots = Some(slots);
                self.next_seq = 1;
                Ok(())
            }
            Some(slots) => {
                if self.entries_done >= self.declared {
                    return Err(WireError::TrailingBytes {
                        count: payload.len().saturating_add(4),
                    });
                }
                if seq != self.next_seq {
                    return Err(WireError::FrameSequence { expected: self.next_seq, got: seq });
                }
                if tag != 1 {
                    return Err(WireError::BadTag { what: "stream entry frame", tag });
                }
                let coverage = get_coverage(&mut r, acc, slots)?;
                let results = match &coverage {
                    BlockCoverage::Block { .. } => {
                        let n = r.count("result objects", 24)?;
                        let mut objs = Vec::new();
                        for _ in 0..n {
                            objs.push(get_object(&mut r)?);
                        }
                        objs
                    }
                    BlockCoverage::Skip { .. } => Vec::new(),
                };
                r.finish()?;
                while self.windows.get(self.window_idx).is_some_and(|&n| self.window_done >= n) {
                    self.window_idx += 1;
                    self.window_done = 0;
                }
                let window = self.window_idx;
                self.window_done += 1;
                self.entries_done += 1;
                self.next_seq += 1;
                events.push(StreamEvent::Entry { window, coverage, results });
                Ok(())
            }
        }
    }

    /// Declare the stream over. Rejects early ends (missing header, fewer
    /// entry frames than declared, a buffered partial frame) and runs the
    /// end-of-response intern-table canonicality checks.
    pub fn finish(self) -> Result<(), WireError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match &self.slots {
            Some(slots) if self.entries_done == self.declared && self.pending.is_empty() => {
                slots.finish()
            }
            _ => Err(WireError::StreamTruncated {
                entries_seen: self.entries_done,
                entries_declared: self.declared,
                pending: self.pending.len(),
            }),
        }
    }
}

/// The payload length a frame's 4-byte prefix claims, refused above
/// [`MAX_FRAME_BYTES`] before any of it is buffered.
fn frame_len(prefix: &[u8]) -> Result<usize, WireError> {
    let len = le_bytes(prefix);
    if len > MAX_FRAME_BYTES as u64 {
        return Err(WireError::FrameOversized { len });
    }
    Ok(len as usize)
}

/// Serialize a subscription update (SP side, infallible).
pub fn encode_update<A: Accumulator>(update: &SubscriptionUpdate<A>) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(WIRE_VERSION);
    w.u32(update.query_id);
    w.u64(update.from_height);
    w.u64(update.to_height);
    put_results(&mut w, &update.results);
    w.count(update.coverage.len());
    let mut slots = RawSlots;
    for cov in &update.coverage {
        put_coverage(&mut w, cov, &mut slots);
    }
    w.buf
}

/// Decode a subscription update from untrusted bytes.
pub fn decode_update<A: Accumulator>(
    acc: &A,
    bytes: &[u8],
) -> Result<SubscriptionUpdate<A>, WireError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        WIRE_VERSION => {}
        v => return Err(WireError::UnsupportedVersion(v)),
    }
    let query_id = r.u32()?;
    let from_height = r.u64()?;
    let to_height = r.u64()?;
    let results = get_results(&mut r)?;
    let n_cov = r.count("coverage entries", 9)?;
    let mut coverage = Vec::new();
    let mut slots = RawSlots;
    for _ in 0..n_cov {
        coverage.push(get_coverage(&mut r, acc, &mut slots)?);
    }
    r.finish()?;
    Ok(SubscriptionUpdate { query_id, from_height, to_height, results, coverage })
}
