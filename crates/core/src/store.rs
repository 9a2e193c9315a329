//! The SP's persistence layer: an append-only, checksummed,
//! log-structured record store.
//!
//! A production service provider cannot re-prove the world after every
//! deploy — the [`ProofCache`](crate::cache::ProofCache) is worth exactly
//! as much as it survives a restart. This module is the durability
//! substrate of the sharded serving layer
//! ([`crate::sp::ShardedServiceProvider`]): one flat file per shard, written
//! strictly append-only, read back in full at startup. It holds **proof
//! records only**. A proof is the one piece of serving state that is
//! expensive to lose; everything else the SP serves from (the chain, the
//! ADS multisets, the proving witnesses extracted from them) is a cheap
//! deterministic function of the blocks a full node holds anyway and is
//! derived at open, and the cache counters start at zero.
//!
//! # On-disk layout
//!
//! ```text
//! file   := magic(8) version(1) frame*
//! frame  := len(u32 LE) len_check(u32 LE) payload_check(u64 LE) payload
//! ```
//!
//! `len_check` is an involutive mix of `len` ([`LEN_CHECK_XOR`]) so a
//! corrupted length field is *detected* instead of desynchronizing the
//! scan; `payload_check` is the first eight bytes of a domain-separated
//! SHA-256 over the payload. Payloads are [`StoreRecord`]s under a
//! versioned tag codec built on the same total [`WireError`]-returning
//! reader the untrusted wire boundary uses. Tag `0` is the proof record;
//! tags `1` and `2` (the witness and counter-snapshot records of earlier
//! builds) are retired and never reused — a frame that carries one is
//! skipped like any other undecodable record, so a directory written by
//! such a build opens as the proof cache it is.
//!
//! A record's key is the two halves of a
//! [`CacheKey`](crate::cache::CacheKey), opaque to this module. PR 17
//! changed how the key of a §6.3 *group* proof is derived, not the file
//! format: a log written before it opens unchanged, its group records go
//! unasked-for and the same proofs are appended once more under the new key
//! (see [`crate::cache`], "Upgrading over a warm log").
//!
//! # Recovery protocol
//!
//! [`LogStore::open`] scans every frame and classifies damage into exactly
//! two responses, both of which it must never confuse:
//!
//! * **Torn tail** — the file ends mid-frame, or a frame header fails its
//!   own checksum (so `len` cannot be trusted): everything from that
//!   offset on is unreadable. The file is truncated back to the last good
//!   frame boundary ([`RecoveryReport::truncated_bytes`]) so subsequent
//!   appends heal the log. This is the crash-during-flush case.
//! * **Corrupt record** — the frame header is intact but the payload fails
//!   its checksum or its codec: the record is *skipped*
//!   ([`RecoveryReport::skipped_corrupt`]) and the scan continues at the
//!   next frame, because the framing still walks. This is the bit-rot
//!   case.
//!
//! Recovery never panics and never yields a record whose bytes were not
//! exactly the bytes appended: a wrong proof cannot be served from a
//! damaged store, only a cache miss (which re-proves).
//!
//! The store hands records on as bytes, and the serving layer keeps them
//! that way: [`crate::cache::ProofCache::preload`] holds a record's proof
//! bytes until a query first hits them, then runs the checked accumulator
//! decode. Opening a store therefore decodes no curve point; a proof whose
//! bytes pass the checksum but fail that decode is dropped at its first hit
//! and re-proved as a miss (`docs/SECURITY.md`, "One check per source of
//! points").

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing
)]

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

use vchain_hash::{hash_domain, Digest};

use crate::wire::{Reader, WireError, Writer};

/// The eight magic bytes heading every store file.
pub const STORE_MAGIC: [u8; 8] = *b"VCHSTORE";

/// Store *file* format version (header layout + framing).
pub const STORE_VERSION: u8 = 1;

/// Store *record* codec version; the first byte of every frame payload.
pub const RECORD_VERSION: u8 = 1;

/// Bytes of file header: magic + version.
pub const STORE_HEADER_LEN: usize = 9;

/// Bytes of frame header: `len` + `len_check` + `payload_check`.
pub const FRAME_HEADER_LEN: usize = 16;

/// Involutive mixing constant for the frame-length checksum: a frame
/// stores `len ^ LEN_CHECK_XOR` beside `len`, so any single corrupted
/// header word breaks the equality.
pub const LEN_CHECK_XOR: u32 = 0x9E37_79B9;

/// Sanity cap on a single record's payload. Honest records are a few
/// hundred bytes (a compressed proof); a claimed length beyond this is treated as torn-tail corruption rather
/// than an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Why a store file could not be opened or appended to. Damage *inside* a
/// structurally valid file is not an error — it is absorbed by the
/// recovery protocol and reported in [`RecoveryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed (message of the
    /// `std::io::Error`).
    Io(String),
    /// The file exists but does not begin with [`STORE_MAGIC`] — refuse to
    /// scan (or truncate!) a file that was never ours.
    BadMagic,
    /// The file's format version is not understood by this build.
    UnsupportedVersion(u8),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O: {msg}"),
            StoreError::BadMagic => write!(f, "not a vchain store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store format version {v}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// The persistent identity of a cached proof: which block's index entry it
/// refutes (`block_height`, informational), the digest of the serialized
/// accumulative value (`att`), and the digest of the clause's canonical
/// `(index, count)` encoding. The latter two reproduce the in-memory
/// [`CacheKey`](crate::cache::CacheKey) exactly, so rehydration needs no
/// access to the original multisets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordKey {
    /// Chain tip height at flush time (provenance/debugging only — not
    /// part of the cache key).
    pub block_height: u64,
    /// `H(value_bytes(att))` of the accumulative value the proof refutes
    /// against.
    pub att: Digest,
    /// `H(canonical clause bytes)` of the refuted clause.
    pub clause: Digest,
}

/// The one durable record of the serving layer: a cached disjointness
/// proof, as canonical
/// [`Accumulator::proof_bytes`](vchain_acc::Accumulator::proof_bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreRecord {
    /// Which `(att, clause)` pair the proof refutes.
    pub key: RecordKey,
    /// Canonical proof bytes.
    pub proof: Vec<u8>,
}

/// The proof record's tag byte. `1` and `2` are retired (see the module
/// docs) and must never be assigned again.
const TAG_PROOF: u8 = 0;

/// Encode a record's frame *payload* (no frame header): the
/// [`RECORD_VERSION`] byte, the tag byte, then the fields on the shared
/// little-endian writer.
pub fn encode_record(record: &StoreRecord) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(RECORD_VERSION);
    w.u8(TAG_PROOF);
    w.u64(record.key.block_height);
    w.bytes(record.key.att.as_bytes());
    w.bytes(record.key.clause.as_bytes());
    w.count(record.proof.len());
    w.bytes(&record.proof);
    w.buf
}

/// Total inverse of [`encode_record`]: typed [`WireError`]s on any
/// malformation (wrong record version, unknown or retired tag, truncation,
/// oversized counts, trailing bytes), never a panic. Accepted payloads
/// re-encode byte-identically.
pub fn decode_record(payload: &[u8]) -> Result<StoreRecord, WireError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != RECORD_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = r.u8()?;
    if tag != TAG_PROOF {
        return Err(WireError::BadTag { what: "store record", tag });
    }
    let block_height = r.u64()?;
    let att = r.digest()?;
    let clause = r.digest()?;
    let n = r.count("proof bytes", 1)?;
    let proof = r.take(n)?.to_vec();
    r.finish()?;
    Ok(StoreRecord { key: RecordKey { block_height, att, clause }, proof })
}

/// The payload checksum: first eight little-endian bytes of a
/// domain-separated SHA-256 over the payload.
pub fn payload_check(payload: &[u8]) -> u64 {
    let d = hash_domain("vchain/store-frame", payload);
    let mut out = 0u64;
    for (i, b) in d.as_bytes().iter().take(8).enumerate() {
        out |= (*b as u64) << (8 * i);
    }
    out
}

/// Encode a record as a complete on-disk frame (header + payload) — what
/// [`LogStore::append`] writes, exposed so crash tests can carve frames at
/// arbitrary byte boundaries.
pub fn frame_record(record: &StoreRecord) -> Vec<u8> {
    let payload = encode_record(record);
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_CHECK_XOR).to_le_bytes());
    out.extend_from_slice(&payload_check(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// What [`LogStore::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records decoded and returned.
    pub loaded: usize,
    /// Frames whose header walked but whose payload failed its checksum or
    /// codec — skipped, scan continued.
    pub skipped_corrupt: usize,
    /// Bytes cut off the tail (torn final write or untrustworthy frame
    /// header). `0` on a clean open.
    pub truncated_bytes: u64,
}

/// An append-only record log backed by one flat file. See the module docs
/// for layout and recovery semantics.
///
/// Writes go through [`LogStore::append_all`] (buffered in the OS) and
/// become crash-durable at [`LogStore::sync`]; the serving layer writes and
/// syncs once per flush batch, not per record. A write that fails part-way
/// is cut back off the file, so the log never keeps a torn frame with whole
/// ones appended behind it — which the next [`LogStore::open`] would take
/// for a torn tail, and truncate them all.
pub struct LogStore {
    file: File,
    path: PathBuf,
    /// Where the last whole frame ends, and the next one goes.
    end: u64,
    /// A write failed and its bytes may still be in the file past `end`.
    torn: bool,
    /// Fault injection: the next write stops after this many bytes and
    /// fails.
    #[cfg(test)]
    fail_after: Option<usize>,
}

impl LogStore {
    /// Open (creating if absent) the store at `path`, replay every
    /// surviving record, and repair the file per the recovery protocol.
    ///
    /// A file shorter than its own header whose bytes are a prefix of
    /// `STORE_MAGIC ‖ STORE_VERSION` — empty, or our own torn creation — is
    /// rewritten fresh; any other file without the magic, however short, is
    /// refused with [`StoreError::BadMagic`] and left untouched — this code
    /// never truncates a file it cannot prove is its own.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<(Self, Vec<StoreRecord>, RecoveryReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        let mut report = RecoveryReport::default();

        if bytes.len() < STORE_HEADER_LEN {
            // Empty (fresh) or torn mid-header-write: both rewrite cleanly.
            // Anything else this short is somebody else's file.
            let ours = STORE_MAGIC.iter().chain(&[STORE_VERSION]);
            if !ours.zip(&bytes).all(|(a, b)| a == b) {
                return Err(StoreError::BadMagic);
            }
            report.truncated_bytes = bytes.len() as u64;
            file.set_len(0).map_err(io_err)?;
            // `read_to_end` left the cursor past the torn bytes; writing
            // there would zero-fill the start of the emptied file.
            file.rewind().map_err(io_err)?;
            file.write_all(&STORE_MAGIC).map_err(io_err)?;
            file.write_all(&[STORE_VERSION]).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
            return Ok((Self::at_end(file, path, STORE_HEADER_LEN as u64), Vec::new(), report));
        }
        if bytes.get(..8) != Some(&STORE_MAGIC[..]) {
            return Err(StoreError::BadMagic);
        }
        let version = bytes.get(8).copied().unwrap_or(0);
        if version != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }

        let mut records = Vec::new();
        let mut pos = STORE_HEADER_LEN;
        let mut truncate_at: Option<usize> = None;
        while pos < bytes.len() {
            let Some(header) = bytes.get(pos..pos + FRAME_HEADER_LEN) else {
                truncate_at = Some(pos); // torn mid-header
                break;
            };
            let len = u32::from_le_bytes([
                header.first().copied().unwrap_or(0),
                header.get(1).copied().unwrap_or(0),
                header.get(2).copied().unwrap_or(0),
                header.get(3).copied().unwrap_or(0),
            ]);
            let len_check = u32::from_le_bytes([
                header.get(4).copied().unwrap_or(0),
                header.get(5).copied().unwrap_or(0),
                header.get(6).copied().unwrap_or(0),
                header.get(7).copied().unwrap_or(0),
            ]);
            let mut pcheck = 0u64;
            for (i, b) in header.get(8..16).unwrap_or(&[]).iter().enumerate() {
                pcheck |= (*b as u64) << (8 * i);
            }
            if len ^ LEN_CHECK_XOR != len_check || len as usize > MAX_RECORD_LEN {
                // The length field itself is untrustworthy: everything from
                // here on is unreadable.
                truncate_at = Some(pos);
                break;
            }
            let body_start = pos + FRAME_HEADER_LEN;
            let Some(payload) = bytes.get(body_start..body_start + len as usize) else {
                truncate_at = Some(pos); // torn mid-payload
                break;
            };
            if payload_check(payload) != pcheck {
                report.skipped_corrupt += 1;
            } else {
                match decode_record(payload) {
                    Ok(r) => records.push(r),
                    Err(_) => report.skipped_corrupt += 1,
                }
            }
            pos = body_start + len as usize;
        }
        if let Some(at) = truncate_at {
            report.truncated_bytes = (bytes.len() - at) as u64;
            file.set_len(at as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        report.loaded = records.len();
        // Position at the (possibly repaired) end for subsequent appends.
        let end = file.seek(std::io::SeekFrom::End(0)).map_err(io_err)?;
        Ok((Self::at_end(file, path, end), records, report))
    }

    /// A store whose handle is positioned at `end`, the end of its last
    /// whole frame.
    fn at_end(file: File, path: PathBuf, end: u64) -> Self {
        Self {
            file,
            path,
            end,
            torn: false,
            #[cfg(test)]
            fail_after: None,
        }
    }

    /// Append one record (buffered; durable after [`LogStore::sync`]).
    pub fn append(&mut self, record: &StoreRecord) -> Result<(), StoreError> {
        self.append_all(core::slice::from_ref(record))
    }

    /// Append a batch of records, all or nothing: the frames go out in one
    /// buffered write, and if it fails — possibly part-way through a frame —
    /// the file is cut back to where the batch began, so a retry (or any
    /// later append) lands on a whole-frame boundary.
    pub fn append_all(&mut self, records: &[StoreRecord]) -> Result<(), StoreError> {
        self.heal()?;
        let frames: Vec<u8> = records.iter().flat_map(frame_record).collect();
        match self.write_frames(&frames) {
            Ok(()) => {
                self.end += frames.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.torn = true;
                // If the cut fails too, `torn` stays set and the next append
                // starts by trying again.
                let _ = self.heal();
                Err(io_err(e))
            }
        }
    }

    /// Cut a failed write's bytes back off the file.
    fn heal(&mut self) -> Result<(), StoreError> {
        if self.torn {
            self.file.set_len(self.end).map_err(io_err)?;
            self.file.seek(std::io::SeekFrom::Start(self.end)).map_err(io_err)?;
            self.torn = false;
        }
        Ok(())
    }

    fn write_frames(&mut self, frames: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        {
            if let Some(n) = self.fail_after.take() {
                self.file.write_all(frames.get(..n).unwrap_or(frames))?;
                return Err(std::io::Error::other("injected write failure"));
            }
        }
        self.file.write_all(frames)
    }

    /// Flush OS buffers and fsync — the durability point of a flush batch.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.flush().map_err(io_err)?;
        self.file.sync_all().map_err(io_err)
    }

    /// A store over a *read-only* handle to an existing log: every append
    /// fails, which is how the serving layer's tests stand in for a disk
    /// that stopped taking writes.
    #[cfg(test)]
    pub(crate) fn read_only(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(io_err)?;
        let end = file.metadata().map_err(io_err)?.len();
        Ok(Self::at_end(file, path, end))
    }

    /// Make the next append write its first `n` bytes and then fail — a
    /// disk filling up mid-flush. One-shot: the append after that goes
    /// through.
    #[cfg(test)]
    pub(crate) fn fail_after(&mut self, n: usize) {
        self.fail_after = Some(n);
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl core::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LogStore({})", self.path.display())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vchain-store-unit-{}-{tag}-{n}.log", std::process::id()))
    }

    fn sample_records() -> Vec<StoreRecord> {
        (1u8..=3)
            .map(|i| StoreRecord {
                key: RecordKey { block_height: 7, att: Digest([i; 32]), clause: Digest([2u8; 32]) },
                proof: vec![9, 8, 7, i],
            })
            .collect()
    }

    #[test]
    fn append_reopen_round_trip() {
        let path = temp_path("roundtrip");
        let records = sample_records();
        {
            let (mut store, loaded, report) = LogStore::open(&path).unwrap();
            assert!(loaded.is_empty());
            assert_eq!(report, RecoveryReport::default());
            store.append_all(&records).unwrap();
            store.sync().unwrap();
        }
        let (_store, loaded, report) = LogStore::open(&path).unwrap();
        assert_eq!(loaded, records);
        assert_eq!(report.loaded, 3);
        assert_eq!(report.skipped_corrupt, 0);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = temp_path("foreign");
        // Longer and shorter than a store header: neither is ours to wipe.
        for foreign in [&b"definitely not a store file"[..], b"hello", b"VCHSTORX"] {
            std::fs::write(&path, foreign).unwrap();
            assert_eq!(LogStore::open(&path).unwrap_err(), StoreError::BadMagic);
            // and the foreign file is left untouched
            assert_eq!(std::fs::read(&path).unwrap(), foreign);
        }
        // Our own torn header — any proper prefix of magic ‖ version — is
        // a crashed creation and heals into a fresh, appendable store.
        let header = [&STORE_MAGIC[..], &[STORE_VERSION]].concat();
        for torn in 0..STORE_HEADER_LEN {
            std::fs::write(&path, &header[..torn]).unwrap();
            let (mut store, records, report) = LogStore::open(&path).unwrap();
            assert!(records.is_empty());
            assert_eq!(report.truncated_bytes, torn as u64);
            store.append(&sample_records()[0]).unwrap();
            store.sync().unwrap();
            drop(store);
            assert_eq!(LogStore::open(&path).unwrap().1, sample_records()[..1]);
        }
        std::fs::remove_file(&path).ok();
    }

    /// A write that fails part-way — at every byte offset of a 3-record
    /// batch — leaves nothing behind: the retry and a later batch land on a
    /// whole-frame boundary, and the reopened log holds every record once.
    #[test]
    fn failed_append_is_cut_back_at_every_offset() {
        let path = temp_path("cutback");
        let records = sample_records();
        let later = StoreRecord { proof: vec![1, 2, 3], ..records[0].clone() };
        let batch_len: usize = records.iter().map(|r| frame_record(r).len()).sum();
        for n in 0..batch_len {
            std::fs::remove_file(&path).ok();
            let (mut store, _, _) = LogStore::open(&path).unwrap();
            store.append(&later).unwrap();
            store.fail_after(n);
            assert!(matches!(store.append_all(&records), Err(StoreError::Io(_))), "offset {n}");
            store.append_all(&records).unwrap();
            store.append(&later).unwrap();
            store.sync().unwrap();
            drop(store);
            let (_, loaded, report) = LogStore::open(&path).unwrap();
            let expect = RecoveryReport { loaded: 5, skipped_corrupt: 0, truncated_bytes: 0 };
            assert_eq!(report, expect, "offset {n}");
            assert_eq!(loaded[1..4], records[..], "offset {n}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_refused() {
        let path = temp_path("version");
        let mut bytes = STORE_MAGIC.to_vec();
        bytes.push(STORE_VERSION + 1);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            LogStore::open(&path).unwrap_err(),
            StoreError::UnsupportedVersion(STORE_VERSION + 1)
        );
        std::fs::remove_file(&path).ok();
    }
}
