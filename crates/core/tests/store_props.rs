//! Property tests for the store codec and the cache↔store round trip:
//! encode∘decode identity, decode totality on arbitrary bytes,
//! record-version and retired-tag rejection, save→load→save byte equality, and the
//! eviction-vs-persistence independence the write-behind design promises.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vchain_acc::{Acc2, Accumulator, MultiSet};
use vchain_core::cache::{CacheStats, ProofCache, ProofRequest};
use vchain_core::store::{
    decode_record, encode_record, frame_record, payload_check, FRAME_HEADER_LEN, LEN_CHECK_XOR,
    RECORD_VERSION,
};
use vchain_core::wire::WireError;
use vchain_core::{CacheKey, LogStore, RecordKey, StoreRecord};
use vchain_hash::Digest;

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vchain-store-props-{}-{tag}-{n}.log", std::process::id()))
}

fn digest(seed: u8) -> Digest {
    let mut b = [0u8; 32];
    for (i, x) in b.iter_mut().enumerate() {
        *x = seed.wrapping_mul(31).wrapping_add(i as u8);
    }
    Digest(b)
}

/// Build the (one kind of) record from generic raw material.
fn record_from(height: u64, seed: u8, payload: Vec<u8>) -> StoreRecord {
    StoreRecord {
        key: RecordKey { block_height: height, att: digest(seed), clause: digest(seed ^ 0xA5) },
        proof: payload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_identity(
        height in 0u64..=u64::MAX - 1,
        seed in 0u8..=255,
        payload in pvec(0u8..=255, 0..200),
    ) {
        let record = record_from(height, seed, payload);
        let encoded = encode_record(&record);
        prop_assert_eq!(encoded[0], RECORD_VERSION);
        let decoded = decode_record(&encoded);
        prop_assert_eq!(decoded.as_ref(), Ok(&record));
        // Second generation is byte-stable (a canonical codec).
        prop_assert_eq!(encode_record(&record), encoded);

        // The frame wrapper is coherent with its own constants.
        let frame = frame_record(&record);
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + encoded.len());
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let len_check = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        prop_assert_eq!(len as usize, encoded.len());
        prop_assert_eq!(len ^ LEN_CHECK_XOR, len_check);
        let mut pc = [0u8; 8];
        pc.copy_from_slice(&frame[8..16]);
        prop_assert_eq!(u64::from_le_bytes(pc), payload_check(&encoded));
        prop_assert_eq!(&frame[FRAME_HEADER_LEN..], &encoded[..]);
    }

    #[test]
    fn decode_is_total_on_arbitrary_bytes(payload in pvec(0u8..=255, 0..256)) {
        // Typed error or a value that re-encodes to exactly the input —
        // never a panic, never a lossy accept.
        if let Ok(record) = decode_record(&payload) {
            prop_assert_eq!(encode_record(&record), payload);
        }
    }

    #[test]
    fn unknown_record_version_is_rejected(
        version in 0u8..=255,
        height in 0u64..1000,
        payload in pvec(0u8..=255, 0..32),
    ) {
        prop_assume!(version != RECORD_VERSION);
        let mut encoded = encode_record(&record_from(height, 7, payload));
        encoded[0] = version;
        prop_assert_eq!(decode_record(&encoded), Err(WireError::UnsupportedVersion(version)));
    }

    /// Tag 0 is the proof record; 1 and 2 are retired, the rest never
    /// assigned — all of them are the same typed error.
    #[test]
    fn unknown_tag_is_rejected(tag in 1u8..=255) {
        let mut encoded = encode_record(&record_from(1, 2, vec![3]));
        encoded[1] = tag;
        prop_assert_eq!(
            decode_record(&encoded),
            Err(WireError::BadTag { what: "store record", tag })
        );
    }

    #[test]
    fn log_survives_trailing_junk(
        n in 1usize..6,
        junk in pvec(0u8..=255, 1..64),
    ) {
        let records: Vec<StoreRecord> =
            (0..n).map(|i| record_from(i as u64, i as u8, vec![i as u8; 8])).collect();
        let path = temp_path("junk");
        {
            let (mut store, _, _) = LogStore::open(&path).unwrap();
            store.append_all(&records).unwrap();
            store.sync().unwrap();
        }
        // A crashed writer leaves arbitrary bytes after the last full frame.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&junk).unwrap();
        }
        let (_, loaded, report) = LogStore::open(&path).unwrap();
        // The junk either fails the header self-check immediately (torn
        // tail) or masquerades as N frames before failing — in every case
        // all real records survive and nothing invented is returned.
        prop_assert_eq!(&loaded[..records.len().min(loaded.len())], &records[..]);
        prop_assert_eq!(loaded.len(), records.len());
        prop_assert!(report.truncated_bytes as usize <= junk.len());
        std::fs::remove_file(&path).ok();
    }
}

// --- cache ↔ store round trips (real proofs) ------------------------------

fn acc() -> Acc2 {
    Acc2::keygen(64, &mut StdRng::seed_from_u64(21))
}

fn ms(v: &[u64]) -> MultiSet<u64> {
    v.iter().copied().collect()
}

/// Drain a persistent cache's dirty queue into proof records (the flush
/// path, without the dedup — inputs here are already distinct).
fn dirty_to_records(cache: &ProofCache<Acc2>) -> Vec<StoreRecord> {
    cache
        .take_dirty()
        .into_iter()
        .map(|e| StoreRecord {
            key: RecordKey { block_height: 0, att: e.key.att, clause: e.key.clause },
            proof: e.proof,
        })
        .collect()
}

#[test]
fn cache_save_load_save_is_byte_identical() {
    let a = acc();
    let cache: ProofCache<Acc2> = ProofCache::new(64).with_persistence();
    let x1 = ms(&[1, 2, 3]);
    let att = a.setup(&x1);
    // one request per resolve, as eight one-proof queries would ask
    for e in 10u64..18 {
        cache.resolve(&a, vec![ProofRequest::node::<Acc2>(&att, &x1, ms(&[e]))]).remove(0).unwrap();
    }

    // Save.
    let path1 = temp_path("save1");
    let records = dirty_to_records(&cache);
    assert_eq!(records.len(), 8);
    {
        let (mut store, _, _) = LogStore::open(&path1).unwrap();
        store.append_all(&records).unwrap();
        store.sync().unwrap();
    }

    // Load into a fresh cache; preloading must not dirty or count anything.
    let (_, loaded, _) = LogStore::open(&path1).unwrap();
    let cache2: ProofCache<Acc2> = ProofCache::new(64).with_persistence();
    for StoreRecord { key, proof } in &loaded {
        cache2.preload(CacheKey { att: key.att, clause: key.clause }, proof.clone());
    }
    assert_eq!(cache2.len(), 8);
    assert_eq!(cache2.dirty_len(), 0, "rehydration must not re-queue write-behind");
    assert_eq!(cache2.stats(), CacheStats::default());

    // Save again: the second generation of the log is byte-identical.
    let path2 = temp_path("save2");
    {
        let (mut store, _, _) = LogStore::open(&path2).unwrap();
        store.append_all(&loaded).unwrap();
        store.sync().unwrap();
    }
    assert_eq!(std::fs::read(&path1).unwrap(), std::fs::read(&path2).unwrap());

    // And the loaded proofs answer lookups byte-identically to the originals.
    for e in 10u64..18 {
        let key = ProofCache::<Acc2>::key(&att, &ms(&[e]));
        let p1 = cache.get(&a, &key).unwrap();
        let p2 = cache2.get(&a, &key).unwrap();
        assert_eq!(Acc2::proof_bytes(&p1), Acc2::proof_bytes(&p2));
    }

    std::fs::remove_file(&path1).ok();
    std::fs::remove_file(&path2).ok();
}

/// The PR-9 bug fix pinned down: eviction bounds *memory*, persistence
/// bounds *re-proving* — an entry evicted from a persistent cache must
/// still be in the log (dirty capture happens at insert, before the LRU
/// decision), so a restart can serve it without a cold prove.
#[test]
fn evicted_entries_are_still_persisted_and_reloadable() {
    let a = acc();
    let tiny: ProofCache<Acc2> = ProofCache::new(2).with_persistence();
    let x1 = ms(&[1, 2]);
    let att = a.setup(&x1);
    let clauses: Vec<MultiSet<u64>> = (20u64..26).map(|e| ms(&[e])).collect();
    // one six-proof query: the answers come from the resolver's own results,
    // four of them for keys the two-entry cache has already let go of
    let requests = clauses.iter().map(|c| ProofRequest::node::<Acc2>(&att, &x1, c.clone()));
    let originals: Vec<Vec<u8>> = tiny
        .resolve(&a, requests.collect())
        .iter()
        .map(|proof| Acc2::proof_bytes(proof.as_ref().unwrap()))
        .collect();
    assert_eq!(tiny.len(), 2, "capacity bound holds");
    assert_eq!(tiny.stats().evictions, 4, "four entries were displaced");

    let path = temp_path("evict");
    let records = dirty_to_records(&tiny);
    assert_eq!(records.len(), 6, "every insert was captured, evicted or not");
    {
        let (mut store, _, _) = LogStore::open(&path).unwrap();
        store.append_all(&records).unwrap();
        store.sync().unwrap();
    }

    // Restart with room: all six entries — including the four evicted ones —
    // rehydrate and serve byte-identical proofs.
    let (_, loaded, report) = LogStore::open(&path).unwrap();
    assert_eq!(report.loaded, 6);
    let big: ProofCache<Acc2> = ProofCache::new(16);
    for StoreRecord { key, proof } in &loaded {
        big.preload(CacheKey { att: key.att, clause: key.clause }, proof.clone());
    }
    for (c, orig) in clauses.iter().zip(&originals) {
        let got =
            big.get(&a, &ProofCache::<Acc2>::key(&att, c)).expect("persisted entry reloadable");
        assert_eq!(&Acc2::proof_bytes(&got), orig);
    }

    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `CacheKey` digests are stable and injective over their halves — the
    /// property that lets a `RecordKey` reproduce the in-memory map key.
    #[test]
    fn cache_key_digest_is_stable_and_separating(a in 0u8..=255, b in 0u8..=255) {
        let k1 = CacheKey { att: digest(a), clause: digest(b) };
        let k2 = CacheKey { att: digest(a), clause: digest(b) };
        prop_assert_eq!(k1.digest(), k2.digest());
        if a != b {
            let swapped = CacheKey { att: digest(b), clause: digest(a) };
            prop_assert!(k1.digest() != swapped.digest(), "halves must not commute");
        }
    }
}
