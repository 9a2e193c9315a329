//! Wire-codec properties (the decode boundary's contract), for the one
//! response layout — the frame stream (`encode_scan_stream`), whose
//! one-window form is `encode_response_v2` — over a single-window fixture
//! and a multi-window scan:
//!
//! 1. **Round-trip** — encoding any response and decoding it back is the
//!    identity, byte-for-byte (`encode ∘ decode ∘ encode = encode`).
//! 2. **Canonical form** — *any* byte string the decoder accepts re-encodes
//!    to exactly those bytes: there is one encoding per value, so corrupted
//!    inputs cannot alias a different encoding of the same response.
//! 3. **Single-bit corruption** — exhaustively over every bit of an honest
//!    encoding: the flipped string either fails to decode with a typed
//!    [`WireError`], or decodes to a VO that full verification rejects.
//!    Never a panic, never an accept.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc1, Accumulator};
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::adversary::{for_each_att, for_each_proof, Adversary, AttRole};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query, RangeSpec};
use vchain_core::verify::verify_encoded_response;
use vchain_core::verify::{verify_response, VerifyError};
use vchain_core::vo::{Att, BlockCoverage, BlockVo, QueryResponse, VoNode};
use vchain_core::wire::{
    decode_update, encode_response_v2, encode_scan_stream, encode_update, StreamDecoder,
    StreamEvent, WireError,
};

const DOMAIN_BITS: u8 = 6;

struct Fixture {
    q: CompiledQuery,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    resp: QueryResponse<Acc1>,
    encoded: Vec<u8>,
}

/// A small honest chain of `blocks` blocks, `per_block` objects each,
/// mined under an `Acc1` key and synced into a light client.
fn chain(seed: u64, blocks: u64, per_block: usize) -> (Miner<Acc1>, LightClient) {
    let cfg = MinerConfig {
        scheme: IndexScheme::Intra,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    };
    let mut miner = Miner::new(cfg, Acc1::keygen(600, &mut StdRng::seed_from_u64(seed)));
    let mut light = LightClient::new(cfg.difficulty);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let kinds = ["Sedan", "Van"];
    let mut id = 0u64;
    for b in 0..blocks {
        let objs: Vec<Object> = (0..per_block)
            .map(|_| {
                id += 1;
                Object::new(
                    id,
                    (b + 1) * 10,
                    vec![rng.gen_range(0..64)],
                    vec![kinds[rng.gen_range(0..kinds.len())].to_string()],
                )
            })
            .collect();
        miner.mine_block((b + 1) * 10, objs);
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    (miner, light)
}

fn sedan_query(window: (u64, u64)) -> CompiledQuery {
    Query {
        time_window: Some(window),
        ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
        keywords: vec![vec!["Sedan".into()]],
    }
    .compile(DOMAIN_BITS)
}

/// One small honest chain + response, built once: a 3-block window keeps
/// the encoding in the low kilobytes so the exhaustive bit sweep stays fast.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let (miner, light) = chain(31, 3, 3);
        let q = sedan_query((10, 30));
        let sp = miner.into_service_provider();
        let resp = sp.time_window_query(&q);
        verify_response(&q, &resp, &light, &sp.cfg, &sp.acc).expect("honest response verifies");
        let encoded = encode_response_v2(&resp);
        Fixture { q, light, cfg: sp.cfg, acc: sp.acc, resp, encoded }
    })
}

struct ScanFixture {
    queries: Vec<CompiledQuery>,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    responses: Vec<QueryResponse<Acc1>>,
    stream: Vec<u8>,
}

/// An 8-window overlapping scan over a 6-block chain — the dedup fixture.
/// Consecutive windows re-cover the same blocks, so the stream's shared
/// intern table has real work to do.
fn scan_fixture() -> &'static ScanFixture {
    static FIX: OnceLock<ScanFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let (miner, light) = chain(41, 6, 2);
        let queries: Vec<CompiledQuery> =
            (0..8u64).map(|i| sedan_query((5 + 5 * i, 25 + 5 * i))).collect();
        let sp = miner.into_service_provider();
        let responses: Vec<QueryResponse<Acc1>> =
            queries.iter().map(|q| sp.time_window_query(q)).collect();
        for (q, resp) in queries.iter().zip(&responses) {
            verify_response(q, resp, &light, &sp.cfg, &sp.acc).expect("honest scan verifies");
        }
        let stream = encode_scan_stream(&responses);
        ScanFixture { queries, light, cfg: sp.cfg, acc: sp.acc, responses, stream }
    })
}

/// Reassemble a frame stream into its window responses through
/// [`StreamDecoder`], fed `chunk` bytes at a time (`usize::MAX`: whole).
fn decode_stream(
    acc: &Acc1,
    bytes: &[u8],
    chunk: usize,
) -> Result<Vec<QueryResponse<Acc1>>, WireError> {
    let mut dec = StreamDecoder::<Acc1>::new();
    let mut out: Vec<QueryResponse<Acc1>> = Vec::new();
    for piece in bytes.chunks(chunk) {
        for ev in dec.feed(acc, piece)? {
            match ev {
                StreamEvent::Header { windows, .. } => {
                    out.resize_with(windows.len(), || QueryResponse {
                        results: vec![],
                        coverage: vec![],
                    });
                }
                StreamEvent::Entry { window, coverage, results, .. } => {
                    let resp = &mut out[window];
                    if let BlockCoverage::Block { height, .. } = &coverage {
                        if !results.is_empty() {
                            resp.results.push((*height, results));
                        }
                    }
                    resp.coverage.push(coverage);
                }
            }
        }
    }
    dec.finish()?;
    Ok(out)
}

/// A stream inlines each block's result objects in that block's frame, so
/// a corrupted stream in which two entries of one window claim the same
/// height has no [`QueryResponse`] form to re-encode from. Verification
/// rejects it as duplicate coverage, which the sweeps assert.
fn repeats_a_height(scan: &[QueryResponse<Acc1>]) -> bool {
    scan.iter().any(|r| {
        let mut seen = std::collections::BTreeSet::new();
        r.coverage
            .iter()
            .any(|c| matches!(c, BlockCoverage::Block { height, .. } if !seen.insert(*height)))
    })
}

/// Whenever the decoder accepts `mutant`, the mutant *is* the canonical
/// encoding of what it decoded to — corrupt bytes can never alias an
/// honest value's encoding under a different byte string.
fn accepted_reencodes_canonically(acc: &Acc1, mutant: &[u8]) -> bool {
    decode_stream(acc, mutant, 64)
        .map_or(true, |d| repeats_a_height(&d) || encode_scan_stream(&d) == mutant)
}

/// Exhaustive single-bit sweep over an honest stream of `queries`' windows:
/// every flip is either a typed decode failure or a decoded scan that does
/// not fully verify, any accepted decode re-encodes to exactly the
/// corrupted bytes, and both rejection layers take part.
fn every_bit_fails_decode_or_verify(
    acc: &Acc1,
    light: &LightClient,
    cfg: &MinerConfig,
    queries: &[CompiledQuery],
    encoded: &[u8],
) {
    let (mut decode_failures, mut verify_rejections) = (0usize, 0usize);
    for bit in 0..encoded.len() * 8 {
        let mutant = Adversary::flip_bit(encoded, bit);
        match decode_stream(acc, &mutant, usize::MAX) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                if !repeats_a_height(&decoded) {
                    assert_eq!(encode_scan_stream(&decoded), mutant, "bit {bit}: not canonical");
                }
                let all_ok = decoded.len() == queries.len()
                    && queries
                        .iter()
                        .zip(&decoded)
                        .all(|(q, r)| verify_response(q, r, light, cfg, acc).is_ok());
                assert!(!all_ok, "bit {bit}: corrupted VO must not verify");
                verify_rejections += 1;
            }
        }
    }
    assert_eq!(decode_failures + verify_rejections, encoded.len() * 8);
    assert!(decode_failures > 0, "no structural rejections in the sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the sweep");
}

/// Responses with randomized result shapes and no crypto: empty keyword
/// lists, empty numeric vectors, unicode keywords, many blocks. A stream
/// carries a block's objects in that block's coverage frame, so each result
/// block gets a one-leaf block entry (its AttDigest is opaque bytes to the
/// decoder) — the codec round-trips them byte-identically.
fn random_results_response(acc: &Acc1, seed: u64) -> QueryResponse<Acc1> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = rng.gen_range(0..5u64);
    let results: Vec<(u64, Vec<Object>)> = (0..blocks)
        .map(|b| {
            let objs = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let numeric = (0..rng.gen_range(0..3usize)).map(|_| rng.gen()).collect();
                    let keywords = (0..rng.gen_range(0..3usize))
                        .map(|_| match rng.gen_range(0..3u32) {
                            0 => String::new(),
                            1 => format!("kw-{}", rng.gen::<u32>()),
                            _ => "名前🚗".to_string(),
                        })
                        .collect();
                    Object::new(rng.gen(), rng.gen(), numeric, keywords)
                })
                .collect();
            // distinct heights, in no particular order
            ((rng.gen::<u64>() << 3) | b, objs)
        })
        .collect();
    let coverage = results
        .iter()
        .map(|(height, _)| {
            let att: Vec<u8> = (0..acc.value_size()).map(|_| rng.gen()).collect();
            let root = VoNode::LeafMatch { att: Att::from_bytes(&att), result_idx: 0 };
            BlockCoverage::Block { height: *height, vo: BlockVo { root, groups: vec![] } }
        })
        .collect();
    QueryResponse { results, coverage }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn results_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let fix = fixture();
        let resp = random_results_response(&fix.acc, seed);
        let bytes = encode_response_v2(&resp);
        let decoded = decode_stream(&fix.acc, &bytes, usize::MAX);
        prop_assert!(decoded.is_ok(), "honest encoding must decode: {:?}", decoded.err());
        let decoded = decoded.expect("checked").remove(0);
        prop_assert_eq!(encode_response_v2(&decoded), bytes);
        // an empty object list travels as a zero count, not as a result entry
        let sent: Vec<_> = resp.results.into_iter().filter(|(_, o)| !o.is_empty()).collect();
        prop_assert_eq!(decoded.results, sent);
    }

    /// Arbitrary multi-byte corruption of the one-window stream.
    #[test]
    fn accepted_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        let fix = fixture();
        let (mutant, _label) = Adversary::new(seed).mutate_bytes(&fix.encoded);
        prop_assert!(accepted_reencodes_canonically(&fix.acc, &mutant));
    }
}

/// The full honest encoding round-trips byte-identically (crypto slots
/// included), and so does a full verification pass on the decoded copy.
#[test]
fn honest_response_round_trips_byte_identically() {
    let fix = fixture();
    let decoded = decode_stream(&fix.acc, &fix.encoded, usize::MAX).expect("honest").remove(0);
    assert_eq!(encode_response_v2(&decoded), fix.encoded);
    verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc)
        .expect("decoded copy verifies");
}

/// There is one response layout, and the single-window entry point takes
/// exactly its one-window form: a header declaring 0 or 2 windows, a
/// header announcing body version 1, the empty input and the retired
/// one-shot layout (a leading `0x02` body version, then the table, the
/// results and the coverage) are each a typed [`VerifyError::Malformed`],
/// never a panic. Subscription updates keep *their* version byte 1: the
/// two version spaces are separate, and an update is not a response.
#[test]
fn v1_tagged_bytes_are_rejected_unparsed() {
    let fix = fixture();
    let resp = &fix.resp;
    let verify = |bytes: &[u8]| {
        verify_encoded_response(&fix.q, bytes, &fix.light, &fix.cfg, &fix.acc)
            .expect_err("not a one-window stream")
    };

    let window_count = VerifyError::Malformed(WireError::NonCanonical {
        what: "stream window count differs from the scan's queries",
    });
    assert_eq!(verify(&encode_scan_stream::<Acc1>(&[])), window_count);
    assert_eq!(verify(&encode_scan_stream(&[resp.clone(), resp.clone()])), window_count);

    // frame = u32 len ‖ u32 seq ‖ u8 tag ‖ body; the header body leads with
    // the stream version, then the body codec version
    let mut v1 = fix.encoded.clone();
    assert_eq!(v1[9..11], [1, 2], "stream version 1 carrying body version 2");
    v1[10] = 0x01;
    assert_eq!(verify(&v1), VerifyError::Malformed(WireError::UnsupportedVersion(1)));

    assert!(matches!(
        verify(&[]),
        VerifyError::Malformed(WireError::StreamTruncated { entries_declared: 0, .. })
    ));

    // The retired one-shot layouts, by hand: a body version byte (`0x02`;
    // `0x01` led the raw-slot one before it), then `table ‖ results ‖
    // coverage` of an empty response, or a random tail.
    let mut rng = StdRng::seed_from_u64(0x0002);
    for lead in [0x01, 0x02] {
        let empty: Vec<u8> = std::iter::once(lead).chain([0; 12]).collect();
        let tail: Vec<u8> = std::iter::once(lead).chain((0..200).map(|_| rng.gen())).collect();
        for bytes in [&empty, &tail] {
            assert!(matches!(verify(bytes), VerifyError::Malformed(_)));
        }
    }

    let update = vchain_core::SubscriptionUpdate::<Acc1> {
        query_id: 7,
        from_height: 1,
        to_height: 2,
        results: vec![],
        coverage: vec![],
    };
    let bytes = encode_update(&update);
    assert_eq!(bytes[0], 0x01);
    assert_eq!(decode_update(&fix.acc, &bytes).expect("version-1 update decodes").query_id, 7);
    assert!(matches!(verify(&bytes), VerifyError::Malformed(_)));
}

/// Exhaustive single-bit sweep over the whole honest one-window encoding.
#[test]
fn every_single_bit_corruption_fails_cleanly_or_is_rejected() {
    let fix = fixture();
    let queries = std::slice::from_ref(&fix.q);
    every_bit_fails_decode_or_verify(&fix.acc, &fix.light, &fix.cfg, queries, &fix.encoded);
}

/// AttDigest and proof slots are opaque to the decoder: every single-bit
/// flip inside one still *decodes* (no group arithmetic runs on a slot, so
/// there is nothing to fail) and re-encodes to the flipped bytes, and it is
/// verification that rejects it — through the rebuilt root for a hash-only
/// AttDigest, through the root or the operand's checked decode for one a
/// pairing equation consumes, and through the proof's checked decode or the
/// pairing check for a proof. Exhaustive over every bit of every slot; an
/// interned slot is flipped in the table, which changes every slot that
/// references it.
#[test]
fn every_bit_of_every_att_slot_is_pinned_by_verification_not_by_decode() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Slot {
        HashOnly,
        Operand,
        Proof,
    }
    let fix = fixture();
    let mut honest = fix.resp.clone();
    // bytes -> what the verifier does with them (an operand wherever any
    // slot holding them is one)
    let mut slots: std::collections::BTreeMap<Vec<u8>, Slot> = Default::default();
    for_each_att::<Acc1>(&mut honest.coverage, &mut |role, att| {
        let slot = slots.entry(att.as_bytes().to_vec()).or_insert(Slot::HashOnly);
        if role == AttRole::NodeOperand {
            *slot = Slot::Operand;
        }
    });
    for_each_proof::<Acc1>(&mut honest.coverage, &mut |proof| {
        slots.insert(proof.as_bytes().to_vec(), Slot::Proof);
    });
    for kind in [Slot::HashOnly, Slot::Operand, Slot::Proof] {
        assert!(slots.values().any(|s| *s == kind), "the fixture has a {kind:?} slot");
    }
    for (bytes, slot) in slots {
        let at = fix
            .encoded
            .windows(bytes.len())
            .position(|w| w == bytes)
            .expect("slot bytes appear verbatim, inline or in the intern table");
        for bit in 0..bytes.len() * 8 {
            let mutant = Adversary::flip_bit(&fix.encoded, at * 8 + bit);
            let decoded = decode_stream(&fix.acc, &mutant, usize::MAX)
                .unwrap_or_else(|e| panic!("{slot:?} bit {bit}: a slot cannot fail decode: {e}"))
                .remove(0);
            assert_eq!(encode_response_v2(&decoded), mutant);
            match (slot, verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc)) {
                (Slot::HashOnly | Slot::Operand, Err(VerifyError::RootMismatch { .. })) => {}
                (
                    Slot::Operand | Slot::Proof,
                    Err(VerifyError::Malformed(WireError::Accumulator(_))),
                ) => {}
                (Slot::Proof, Err(VerifyError::BadProof { .. })) => {}
                (slot, other) => panic!("{slot:?} bit {bit}: unexpected verdict {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The frame stream
// ---------------------------------------------------------------------------

/// The scan's frame stream round-trips byte-identically through
/// [`StreamDecoder`] whatever the transport chunking (1, 7, 64 bytes, or
/// the whole stream at once), every reassembled window still verifies, and
/// the one shared intern table makes the 8-window stream smaller than the
/// eight windows encoded one by one with `encode_response_v2` — measured on
/// this fixture: 3 669 bytes against 7 900, 53.6 % fewer.
#[test]
fn scan_stream_round_trips_at_any_chunking_and_dedupes_across_windows() {
    let fix = scan_fixture();
    for chunk in [1, 7, 64, fix.stream.len()] {
        let decoded = decode_stream(&fix.acc, &fix.stream, chunk).expect("honest stream decodes");
        assert_eq!(decoded.len(), fix.responses.len());
        assert_eq!(encode_scan_stream(&decoded), fix.stream, "chunk size {chunk}");
        for (q, resp) in fix.queries.iter().zip(&decoded) {
            verify_response(q, resp, &fix.light, &fix.cfg, &fix.acc)
                .expect("decoded scan window verifies");
        }
    }
    let one_by_one: usize = fix.responses.iter().map(|r| encode_response_v2(r).len()).sum();
    println!("stream {} bytes vs {} one by one", fix.stream.len(), one_by_one);
    assert!(
        fix.stream.len() < one_by_one,
        "the shared table must pay for the framing: stream={} one-by-one={one_by_one}",
        fix.stream.len()
    );
}

/// Exhaustive single-bit sweep over a multi-window stream (a 2-window
/// sub-scan keeps the sweep affordable while still exercising the intern
/// table and back-references).
#[test]
fn every_single_bit_corruption_of_a_stream_fails_cleanly_or_is_rejected() {
    let fix = scan_fixture();
    let encoded = encode_scan_stream(&fix.responses[..2]);
    every_bit_fails_decode_or_verify(&fix.acc, &fix.light, &fix.cfg, &fix.queries[..2], &encoded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode totality: the stream decoder, at any chunking, returns `Ok`
    /// or a typed `WireError` on arbitrary bytes, and the single-window
    /// entry point an `Err` — never a panic. (proptest reports a panic as a
    /// failure, so simply driving them is the assert.)
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let fix = fixture();
        let _ = verify_encoded_response(&fix.q, &bytes, &fix.light, &fix.cfg, &fix.acc);
        for chunk in [1, 64, 512] {
            let _ = decode_stream(&fix.acc, &bytes, chunk);
        }
    }

    /// Arbitrary multi-byte corruption of the multi-window stream.
    #[test]
    fn accepted_stream_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        let fix = scan_fixture();
        let (mutant, _label) = Adversary::new(seed).mutate_bytes(&fix.stream);
        prop_assert!(accepted_reencodes_canonically(&fix.acc, &mutant));
    }
}
