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
//! * **Checked points, only where points are needed** — proofs decode
//!   through [`Accumulator::proof_from_bytes`], which runs the full curve
//!   ladder (canonical coordinate, on-curve, subgroup membership) on every
//!   compressed point. AttDigests stay length-checked canonical bytes
//!   ([`Att`]): the verifier hashes them into the commitment the block
//!   header pins, and group-decodes only the pairing operand of the ones a
//!   disjointness check consumes, at the point of use
//!   ([`Accumulator::operand_from_bytes`] in [`crate::verify`]).
//! * **Canonical form** — trailing bytes are rejected, and every accepted
//!   input re-encodes byte-identically (there is exactly one encoding per
//!   value), so byte strings can be hashed or compared in place of values.
//!
//! One encoding per message, one decoder per encoding:
//!
//! | message | encoder | decoder |
//! |---|---|---|
//! | window response, one-shot | [`encode_response_v2`] | [`decode_response_v2`] |
//! | window scan, framed | [`encode_scan_stream`] | [`StreamDecoder`] |
//! | subscription update | [`encode_update`] | [`decode_update`] |
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

use vchain_acc::Accumulator;
use vchain_chain::Object;
use vchain_hash::Digest;

use crate::subscribe::SubscriptionUpdate;
use crate::vo::{
    Att, BlockCoverage, BlockVo, ClauseRef, GroupProof, MismatchProof, QueryResponse, VoNode,
};

/// Version byte of the raw-slot message: the first byte of every encoded
/// subscription update ([`encode_update`]). Not a response version — see
/// [`WIRE_VERSION_V2`].
pub const WIRE_VERSION: u8 = 1;

/// Version byte of the one response body encoding ([`encode_response_v2`],
/// and the body version a stream header announces): shared accumulator
/// values and repeated proof points are interned once into a per-response
/// table and back-referenced by index everywhere else. Any other leading
/// byte is [`WireError::UnsupportedVersion`] before anything is parsed.
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
    /// The leading version byte is not the message's one version
    /// ([`WIRE_VERSION_V2`] for responses, [`WIRE_VERSION`] for updates,
    /// [`STREAM_VERSION`] for the stream envelope).
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
    /// An AttDigest has the wrong length, or a proof (here) or a pairing
    /// operand (in [`crate::verify`]) failed the checked point decode.
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
// Leaf codecs
// ---------------------------------------------------------------------------

fn proof_from_slot<A: Accumulator>(acc: &A, bytes: &[u8]) -> Result<A::Proof, WireError> {
    acc.proof_from_bytes(bytes).map_err(WireError::Accumulator)
}

// ---------------------------------------------------------------------------
// Slot codecs: how AttDigests / proofs embed into the body
// ---------------------------------------------------------------------------
//
// Every structural codec below (nodes, mismatches, coverage) is generic
// over a *slot codec* — the one place an AttDigest or proof slot becomes
// bytes. A subscription update writes every slot raw in place; a response
// tags each slot and back-references repeated byte strings into an intern
// table. One set of body functions serves both messages.

/// Encode-side slot strategy.
trait SlotWrite<A: Accumulator> {
    fn value(&mut self, w: &mut Writer, v: &Att);
    fn proof(&mut self, w: &mut Writer, p: &A::Proof);
}

/// Decode-side slot strategy.
trait SlotRead<A: Accumulator> {
    fn value(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<Att, WireError>;
    fn proof(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<A::Proof, WireError>;
}

/// Subscription updates: every slot is its raw fixed-size bytes, in place.
struct RawSlots;

impl<A: Accumulator> SlotWrite<A> for RawSlots {
    fn value(&mut self, w: &mut Writer, v: &Att) {
        w.bytes(v.as_bytes());
    }
    fn proof(&mut self, w: &mut Writer, p: &A::Proof) {
        w.bytes(&A::proof_bytes(p));
    }
}

impl<A: Accumulator> SlotRead<A> for RawSlots {
    fn value(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<Att, WireError> {
        // the whole decode of a value slot: exactly `value_size()` bytes
        Ok(Att::from_bytes(r.take(acc.value_size())?))
    }
    fn proof(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<A::Proof, WireError> {
        proof_from_slot(acc, r.take(acc.proof_size())?)
    }
}

/// v2 slot tag: the slot's bytes follow inline (first/only occurrence).
const SLOT_INLINE: u8 = 0;
/// v2 slot tag: a `u32` index into the response's intern table follows.
const SLOT_BACKREF: u8 = 1;

/// v2 encode pass 1: count every slot byte-string in encode order and
/// remember first-occurrence order. Writes nothing — the driver runs the
/// body encoder into a scratch buffer that is discarded.
#[derive(Default)]
struct CountSlots {
    counts: HashMap<Vec<u8>, u32>,
    order: Vec<Vec<u8>>,
}

impl CountSlots {
    fn record(&mut self, bytes: &[u8]) {
        match self.counts.get_mut(bytes) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(bytes.to_vec(), 1);
                self.order.push(bytes.to_vec());
            }
        }
    }

    /// The intern table: every byte-string that occurs at least twice, in
    /// first-occurrence order (which is exactly the order the decode pass
    /// will first dereference them in — the canonical-form invariant).
    fn into_table(self) -> Vec<Vec<u8>> {
        let counts = self.counts;
        self.order.into_iter().filter(|b| counts.get(b).copied().unwrap_or(0) >= 2).collect()
    }
}

impl<A: Accumulator> SlotWrite<A> for CountSlots {
    fn value(&mut self, _w: &mut Writer, v: &Att) {
        self.record(v.as_bytes());
    }
    fn proof(&mut self, _w: &mut Writer, p: &A::Proof) {
        self.record(&A::proof_bytes(p));
    }
}

/// v2 encode pass 2: emit `SLOT_BACKREF ‖ u32 index` for interned strings,
/// `SLOT_INLINE ‖ raw bytes` otherwise.
struct InternSlots {
    index: HashMap<Vec<u8>, u32>,
}

impl InternSlots {
    fn new(table: &[Vec<u8>]) -> Self {
        Self {
            index: table
                .iter()
                .enumerate()
                .map(|(i, e)| (e.clone(), u32::try_from(i).unwrap_or(u32::MAX)))
                .collect(),
        }
    }

    fn emit(&mut self, w: &mut Writer, bytes: &[u8]) {
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

impl<A: Accumulator> SlotWrite<A> for InternSlots {
    fn value(&mut self, w: &mut Writer, v: &Att) {
        self.emit(w, v.as_bytes());
    }
    fn proof(&mut self, w: &mut Writer, p: &A::Proof) {
        self.emit(w, &A::proof_bytes(p));
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
/// * at [`TableSlots::finish`], every table entry must have been referenced
///   at least twice (interning a once-used string would *grow* the
///   encoding, so the encoder never does).
///
/// A table entry referenced as a proof passes the checked point decode
/// exactly once and is served from a cache afterwards — deduplication
/// saves decode work, not just bytes. (An entry referenced as an AttDigest
/// is only ever copied; the verifier's operand cache plays the same role
/// for the ones it decodes.)
struct TableSlots<A: Accumulator> {
    raw: Vec<Vec<u8>>,
    proofs: Vec<Option<A::Proof>>,
    refs: Vec<u32>,
    first_unused: usize,
    table_bytes: usize,
    inline_seen: HashSet<Vec<u8>>,
    table_set: HashSet<Vec<u8>>,
}

/// Where a resolved v2 slot's bytes live.
enum SlotBytes<'a> {
    Inline(&'a [u8]),
    Table(usize),
}

impl<A: Accumulator> TableSlots<A> {
    /// Parse the intern table (`u32 count`, then `u32 len ‖ bytes` per
    /// entry) from the front of a v2 body or a stream header frame.
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
            proofs: vec![None; raw.len()],
            refs: vec![0; raw.len()],
            first_unused: 0,
            table_bytes,
            inline_seen: HashSet::new(),
            table_set,
            raw,
        })
    }

    fn len(&self) -> usize {
        self.raw.len()
    }

    /// Total byte length of the retained table entries (buffer accounting
    /// for the streaming client).
    fn table_bytes(&self) -> usize {
        self.table_bytes
    }

    /// Resolve one tagged slot of `size` inline bytes to where its bytes
    /// live, enforcing the canonical-form rules on the way.
    fn resolve<'a>(&mut self, r: &mut Reader<'a>, size: usize) -> Result<SlotBytes<'a>, WireError> {
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
                Ok(SlotBytes::Inline(bytes))
            }
            SLOT_BACKREF => {
                let index = r.u32()?;
                let i = index as usize;
                if i >= self.raw.len() {
                    return Err(WireError::BackRefOutOfRange { index, table: self.raw.len() });
                }
                if i > self.first_unused {
                    return Err(WireError::NonCanonical {
                        what: "intern-table first use out of order",
                    });
                }
                if i == self.first_unused {
                    self.first_unused += 1;
                }
                if let Some(c) = self.refs.get_mut(i) {
                    *c = c.saturating_add(1);
                }
                Ok(SlotBytes::Table(i))
            }
            tag => Err(WireError::BadTag { what: "v2 slot", tag }),
        }
    }

    fn entry(&self, i: usize) -> &[u8] {
        self.raw.get(i).map(Vec::as_slice).unwrap_or_default()
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

impl<A: Accumulator> SlotRead<A> for TableSlots<A> {
    fn value(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<Att, WireError> {
        match self.resolve(r, acc.value_size())? {
            SlotBytes::Inline(bytes) => Ok(Att::from_bytes(bytes)),
            SlotBytes::Table(i) => {
                // a table entry carries its own length: hold it to the
                // fixed value size like an inline slot
                let bytes = self.entry(i);
                if bytes.len() != acc.value_size() {
                    return Err(WireError::Accumulator(vchain_acc::DecodeError::Length {
                        expected: acc.value_size(),
                        got: bytes.len(),
                    }));
                }
                Ok(Att::from_bytes(bytes))
            }
        }
    }

    fn proof(&mut self, r: &mut Reader<'_>, acc: &A) -> Result<A::Proof, WireError> {
        match self.resolve(r, acc.proof_size())? {
            SlotBytes::Inline(bytes) => proof_from_slot(acc, bytes),
            SlotBytes::Table(i) => {
                if let Some(hit) = self.proofs.get(i).and_then(Clone::clone) {
                    return Ok(hit);
                }
                let p = proof_from_slot(acc, self.entry(i))?;
                if let Some(c) = self.proofs.get_mut(i) {
                    *c = Some(p.clone());
                }
                Ok(p)
            }
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

fn put_mismatch<A: Accumulator, S: SlotWrite<A>>(w: &mut Writer, m: &MismatchProof<A>, s: &mut S) {
    match m {
        MismatchProof::Inline { proof, clause } => {
            w.u8(0);
            s.proof(w, proof);
            put_clause(w, clause);
        }
        MismatchProof::Group(gid) => {
            w.u8(1);
            w.u16(*gid);
        }
    }
}

fn get_mismatch<A: Accumulator, S: SlotRead<A>>(
    r: &mut Reader<'_>,
    acc: &A,
    s: &mut S,
) -> Result<MismatchProof<A>, WireError> {
    match r.u8()? {
        0 => {
            let proof = s.proof(r, acc)?;
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

fn put_node<A: Accumulator, S: SlotWrite<A>>(w: &mut Writer, node: &VoNode<A>, s: &mut S) {
    match node {
        VoNode::Internal { att, left, right } => {
            w.u8(0);
            match att {
                Some(a) => {
                    w.u8(1);
                    s.value(w, a);
                }
                None => w.u8(0),
            }
            put_node(w, left, s);
            put_node(w, right, s);
        }
        VoNode::InternalMismatch { child_hash, att, proof } => {
            w.u8(1);
            w.bytes(child_hash.as_bytes());
            s.value(w, att);
            put_mismatch(w, proof, s);
        }
        VoNode::LeafMatch { att, result_idx } => {
            w.u8(2);
            s.value(w, att);
            w.u32(*result_idx);
        }
        VoNode::LeafMismatch { obj_hash, att, proof } => {
            w.u8(3);
            w.bytes(obj_hash.as_bytes());
            s.value(w, att);
            put_mismatch(w, proof, s);
        }
    }
}

fn get_node<A: Accumulator, S: SlotRead<A>>(
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
                1 => Some(s.value(r, acc)?),
                tag => return Err(WireError::BadTag { what: "optional AttDigest", tag }),
            };
            let left = Box::new(get_node(r, acc, s, depth + 1)?);
            let right = Box::new(get_node(r, acc, s, depth + 1)?);
            Ok(VoNode::Internal { att, left, right })
        }
        1 => {
            let child_hash = r.digest()?;
            let att = s.value(r, acc)?;
            let proof = get_mismatch(r, acc, s)?;
            Ok(VoNode::InternalMismatch { child_hash, att, proof })
        }
        2 => {
            let att = s.value(r, acc)?;
            let result_idx = r.u32()?;
            Ok(VoNode::LeafMatch { att, result_idx })
        }
        3 => {
            let obj_hash = r.digest()?;
            let att = s.value(r, acc)?;
            let proof = get_mismatch(r, acc, s)?;
            Ok(VoNode::LeafMismatch { obj_hash, att, proof })
        }
        tag => Err(WireError::BadTag { what: "VoNode", tag }),
    }
}

fn put_block_vo<A: Accumulator, S: SlotWrite<A>>(w: &mut Writer, vo: &BlockVo<A>, s: &mut S) {
    put_node(w, &vo.root, s);
    w.count(vo.groups.len());
    for g in &vo.groups {
        put_clause(w, &g.clause);
        s.proof(w, &g.proof);
    }
}

fn get_block_vo<A: Accumulator, S: SlotRead<A>>(
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
        let proof = s.proof(r, acc)?;
        groups.push(GroupProof { clause, proof });
    }
    Ok(BlockVo { root, groups })
}

fn put_coverage<A: Accumulator, S: SlotWrite<A>>(
    w: &mut Writer,
    cov: &BlockCoverage<A>,
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
            s.value(w, att);
            s.proof(w, proof);
            put_clause(w, clause);
            w.count(siblings.len());
            for (d, h) in siblings {
                w.u64(*d);
                w.bytes(h.as_bytes());
            }
        }
    }
}

fn get_coverage<A: Accumulator, S: SlotRead<A>>(
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
            let att = s.value(r, acc)?;
            let proof = s.proof(r, acc)?;
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
/// first-occurrence order.
fn intern_table<A: Accumulator>(covs: &[&[BlockCoverage<A>]]) -> Vec<Vec<u8>> {
    let mut count = CountSlots::default();
    let mut scratch = Writer::default();
    for coverage in covs {
        for cov in *coverage {
            put_coverage(&mut scratch, cov, &mut count);
        }
    }
    count.into_table()
}

fn put_table(w: &mut Writer, table: &[Vec<u8>]) {
    w.count(table.len());
    for entry in table {
        w.count(entry.len());
        w.bytes(entry);
    }
}

/// Serialize a response in the deduplicating v2 format: shared accumulator
/// values and repeated proof points are interned once into a per-response
/// table and back-referenced by a 5-byte tag everywhere else.
/// [`decode_response_v2`] accepts precisely the byte strings this function
/// produces, one per response.
///
/// Repetition is the norm, not the exception: objects sharing an attribute
/// set produce identical leaf AttDigests, mismatch proofs against the same
/// clause repeat across blocks of a window, and §6.3 group proofs repeat
/// across the response. See `docs/LIGHT_CLIENT.md` for the byte layout.
pub fn encode_response_v2<A: Accumulator>(response: &QueryResponse<A>) -> Vec<u8> {
    let table = intern_table(&[response.coverage.as_slice()]);
    let mut w = Writer::default();
    w.u8(WIRE_VERSION_V2);
    put_table(&mut w, &table);
    put_results(&mut w, &response.results);
    w.count(response.coverage.len());
    let mut slots = InternSlots::new(&table);
    for cov in &response.coverage {
        put_coverage(&mut w, cov, &mut slots);
    }
    w.buf
}

/// Decode a v2 ([`encode_response_v2`]) response from untrusted bytes.
/// Total, and *strictly* canonical: beyond structural validity,
/// the intern table must be exactly the one the encoder would build
/// (every entry used at least twice, first uses in table order, no inline
/// repetition), so decode∘encode remains the identity on accepted inputs.
pub fn decode_response_v2<A: Accumulator>(
    acc: &A,
    bytes: &[u8],
) -> Result<QueryResponse<A>, WireError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        WIRE_VERSION_V2 => {}
        v => return Err(WireError::UnsupportedVersion(v)),
    }
    let mut slots = TableSlots::<A>::parse(&mut r)?;
    let results = get_results(&mut r)?;
    let n_cov = r.count("coverage entries", 9)?;
    let mut coverage = Vec::new();
    for _ in 0..n_cov {
        coverage.push(get_coverage(&mut r, acc, &mut slots)?);
    }
    slots.finish()?;
    r.finish()?;
    Ok(QueryResponse { results, coverage })
}

// ---------------------------------------------------------------------------
// Frame streaming
// ---------------------------------------------------------------------------

/// Append one frame: the payload behind its length prefix.
fn put_frame(out: &mut Writer, seq: u32, tag: u8, body: &[u8]) {
    out.count(body.len().saturating_add(5));
    out.u32(seq);
    out.u8(tag);
    out.bytes(body);
}

/// Serialize a scan (one or more window responses) as a sequence of
/// self-delimiting frames (SP side): a header frame carrying the shared
/// intern table and each window's entry count, then one frame per coverage
/// entry with that block's result objects inlined. Each frame is
/// `u32 len ‖ u32 seq ‖ u8 tag ‖ body`; the concatenation returned here is
/// what crosses the network.
///
/// The framing exists so a light client can verify block *i* while block
/// *i + 1* is still in flight, holding only one frame plus the table in
/// memory — see [`StreamDecoder`] and `core::client`. The table is shared
/// across every window of the scan, which is where deduplication earns its
/// keep: overlapping windows re-cover the same blocks, so the same
/// accumulator values and proofs recur across responses even when each
/// response alone has few internal repeats.
pub fn encode_scan_stream<A: Accumulator>(responses: &[QueryResponse<A>]) -> Vec<u8> {
    let covs: Vec<&[BlockCoverage<A>]> = responses.iter().map(|r| r.coverage.as_slice()).collect();
    let table = intern_table::<A>(&covs);
    let mut slots = InternSlots::new(&table);

    let mut out = Writer::default();
    let mut header = Writer::default();
    header.u8(STREAM_VERSION);
    header.u8(WIRE_VERSION_V2);
    header.count(responses.len());
    for resp in responses {
        header.count(resp.coverage.len());
    }
    put_table(&mut header, &table);
    put_frame(&mut out, 0, 0, &header.buf);

    let mut seq = 0u32;
    for resp in responses {
        let results: HashMap<u64, &Vec<Object>> =
            resp.results.iter().map(|(h, v)| (*h, v)).collect();
        for cov in &resp.coverage {
            let mut body = Writer::default();
            put_coverage(&mut body, cov, &mut slots);
            if let BlockCoverage::Block { height, .. } = cov {
                match results.get(height) {
                    Some(objs) => {
                        body.count(objs.len());
                        for o in objs.iter() {
                            put_object(&mut body, o);
                        }
                    }
                    None => body.count(0),
                }
            }
            seq = seq.saturating_add(1);
            put_frame(&mut out, seq, 1, &body.buf);
        }
    }
    out.buf
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
/// Every defense of the one-shot decoders applies per frame — checked
/// point decodes, depth caps, count pre-checks, canonical slot rules — and
/// the envelope adds its own: frames arrive in declared sequence order
/// ([`WireError::FrameSequence`]), a stream that ends early is
/// [`WireError::StreamTruncated`] at [`StreamDecoder::finish`], and bytes
/// after the declared last frame are [`WireError::TrailingBytes`].
pub struct StreamDecoder<A: Accumulator> {
    pending: Vec<u8>,
    slots: Option<TableSlots<A>>,
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
        self.slots.as_ref().map(TableSlots::len).unwrap_or(0)
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
    pub fn feed(&mut self, acc: &A, chunk: &[u8]) -> Result<Vec<StreamEvent<A>>, WireError> {
        if let Some(e) = self.error.clone() {
            return Err(e);
        }
        self.fed = self.fed.saturating_add(chunk.len());
        self.pending.extend_from_slice(chunk);
        // (the table counts from the moment the header frame is released)
        let table_bytes = self.slots.as_ref().map_or(0, TableSlots::table_bytes);
        self.peak_buffered = self.peak_buffered.max(self.pending.len().saturating_add(table_bytes));
        let mut events = Vec::new();
        while let Some(len_bytes) = self.pending.get(..4) {
            let len = le_bytes(len_bytes) as usize;
            if len > MAX_FRAME_BYTES {
                return self.fail(WireError::FrameOversized { len: len as u64 });
            }
            if self.pending.len() < 4 + len {
                break;
            }
            let payload: Vec<u8> = self.pending.drain(..4 + len).skip(4).collect();
            if let Err(e) = self.frame(acc, &payload, &mut events) {
                return self.fail(e);
            }
        }
        Ok(events)
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
                let slots = TableSlots::<A>::parse(&mut r)?;
                r.finish()?;
                events.push(StreamEvent::Header {
                    windows: windows.clone(),
                    table_entries: slots.len(),
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
