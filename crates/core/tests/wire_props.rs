//! Wire-codec properties (the decode boundary's contract), for both
//! deliveries of the one response encoding — one-shot
//! (`encode_response_v2`) and the frame stream (`encode_scan_stream`):
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
use vchain_acc::Acc1;
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::adversary::{for_each_att, Adversary, AttRole};
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::{CompiledQuery, Query, RangeSpec};
use vchain_core::verify::verify_encoded_response;
use vchain_core::verify::{verify_response, VerifyError};
use vchain_core::vo::{BlockCoverage, QueryResponse};
use vchain_core::wire::{
    decode_response_v2, decode_update, encode_response_v2, encode_scan_stream, encode_update,
    StreamDecoder, StreamEvent, WireError,
};

const DOMAIN_BITS: u8 = 6;

struct Fixture {
    q: CompiledQuery,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
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
        Fixture { q, light, cfg: sp.cfg, acc: sp.acc, encoded }
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
/// [`StreamDecoder`], fed `chunk` bytes at a time.
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

/// Results-only responses (no crypto needed) with randomized shapes:
/// empty keyword lists, empty numeric vectors, unicode keywords, many
/// blocks — all round-trip byte-identically.
fn random_results_response(seed: u64) -> QueryResponse<Acc1> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = rng.gen_range(0..5usize);
    let results = (0..blocks)
        .map(|_| {
            let h: u64 = rng.gen();
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
            (h, objs)
        })
        .collect();
    QueryResponse { results, coverage: vec![] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn results_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let fix = fixture();
        let resp = random_results_response(seed);
        let bytes = encode_response_v2(&resp);
        let decoded = decode_response_v2(&fix.acc, &bytes);
        prop_assert!(decoded.is_ok(), "honest encoding must decode: {:?}", decoded.err());
        let reencoded = encode_response_v2(&decoded.expect("checked"));
        prop_assert_eq!(reencoded, bytes);
    }

    #[test]
    fn accepted_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        // Arbitrary multi-byte corruption: whenever the decoder accepts the
        // mutant, the mutant *is* the canonical encoding of what it decoded
        // to — corrupt bytes can never alias an honest value's encoding
        // under a different byte string.
        let fix = fixture();
        let mut adv = Adversary::new(seed);
        let (mutant, _label) = adv.mutate_bytes(&fix.encoded);
        if let Ok(decoded) = decode_response_v2(&fix.acc, &mutant) {
            prop_assert_eq!(encode_response_v2(&decoded), mutant);
        }
    }
}

/// The full honest encoding round-trips byte-identically (crypto slots
/// included), and so does a full verification pass on the decoded copy.
#[test]
fn honest_response_round_trips_byte_identically() {
    let fix = fixture();
    let decoded = decode_response_v2(&fix.acc, &fix.encoded).expect("honest encoding decodes");
    assert_eq!(encode_response_v2(&decoded), fix.encoded);
    verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc)
        .expect("decoded copy verifies");
}

/// There is one response version. Bytes tagged `1` — what the retired
/// raw-slot response encoding led with — are refused on the version byte
/// alone, whatever follows; a stream header announcing body version 1
/// likewise. Subscription updates keep *their* version byte 1: the two
/// version spaces are separate, and an update is not a response.
#[test]
fn v1_tagged_bytes_are_rejected_unparsed() {
    let fix = fixture();
    let mut retagged = fix.encoded.clone();
    retagged[0] = 0x01;
    let mut rng = StdRng::seed_from_u64(0x0001);
    let random_tail: Vec<u8> =
        std::iter::once(0x01).chain((0..200).map(|_| rng.gen::<u8>())).collect();
    for bytes in [&retagged, &random_tail] {
        assert_eq!(
            decode_response_v2(&fix.acc, bytes).err(),
            Some(WireError::UnsupportedVersion(1))
        );
        assert_eq!(
            verify_encoded_response(&fix.q, bytes, &fix.light, &fix.cfg, &fix.acc),
            Err(VerifyError::Malformed(WireError::UnsupportedVersion(1)))
        );
    }

    // frame = u32 len ‖ u32 seq ‖ u8 tag ‖ body; the header body leads with
    // the stream version, then the body codec version
    let mut stream = scan_fixture().stream.clone();
    assert_eq!(stream[9..11], [1, 2], "stream version 1 carrying body version 2");
    stream[10] = 0x01;
    assert_eq!(
        StreamDecoder::<Acc1>::new().feed(&fix.acc, &stream).err(),
        Some(WireError::UnsupportedVersion(1))
    );

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
    assert_eq!(decode_response_v2(&fix.acc, &bytes).err(), Some(WireError::UnsupportedVersion(1)));
}

/// Exhaustive single-bit sweep over the whole honest encoding: every flip
/// is either a typed decode failure or a decoded-but-rejected VO, and any
/// accepted decode re-encodes to exactly the corrupted bytes.
#[test]
fn every_single_bit_corruption_fails_cleanly_or_is_rejected() {
    let fix = fixture();
    let mut decode_failures = 0usize;
    let mut verify_rejections = 0usize;
    for bit in 0..fix.encoded.len() * 8 {
        let mutant = Adversary::flip_bit(&fix.encoded, bit);
        match decode_response_v2(&fix.acc, &mutant) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                assert_eq!(
                    encode_response_v2(&decoded),
                    mutant,
                    "bit {bit}: accepted decode must re-encode canonically"
                );
                let v = verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc);
                assert!(v.is_err(), "bit {bit}: corrupted VO must not verify");
                verify_rejections += 1;
            }
        }
    }
    assert_eq!(decode_failures + verify_rejections, fix.encoded.len() * 8);
    // Both rejection layers must actually participate in the sweep.
    assert!(decode_failures > 0, "no structural rejections in the sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the sweep");
}

/// AttDigest slots are opaque to the decoder: every single-bit flip inside
/// one still *decodes* (no group arithmetic runs on a value slot, so there
/// is nothing to fail) and re-encodes to the flipped bytes, and it is
/// verification that rejects it — through the rebuilt root for a hash-only
/// slot, and through the root or the operand's checked decode for a slot a
/// pairing equation consumes. Exhaustive over every bit of every slot; an
/// interned AttDigest is flipped in the table, which changes every slot
/// that references it.
#[test]
fn every_bit_of_every_att_slot_is_pinned_by_verification_not_by_decode() {
    let fix = fixture();
    let mut honest = decode_response_v2(&fix.acc, &fix.encoded).expect("honest encoding decodes");
    // bytes -> whether any slot holding them is a pairing operand
    let mut slots: std::collections::BTreeMap<Vec<u8>, bool> = Default::default();
    for_each_att::<Acc1>(&mut honest.coverage, &mut |role, att| {
        *slots.entry(att.as_bytes().to_vec()).or_default() |= role == AttRole::NodeOperand;
    });
    assert!(slots.values().any(|operand| *operand));
    assert!(slots.values().any(|operand| !*operand));
    for (bytes, operand) in slots {
        let at = fix
            .encoded
            .windows(bytes.len())
            .position(|w| w == bytes)
            .expect("slot bytes appear verbatim, inline or in the intern table");
        for bit in 0..bytes.len() * 8 {
            let mutant = Adversary::flip_bit(&fix.encoded, at * 8 + bit);
            let decoded = decode_response_v2(&fix.acc, &mutant).unwrap_or_else(|e| {
                panic!("operand={operand} bit {bit}: a value slot cannot fail decode: {e}")
            });
            assert_eq!(encode_response_v2(&decoded), mutant);
            match verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc) {
                Err(VerifyError::RootMismatch { .. }) => {}
                Err(VerifyError::Malformed(WireError::Accumulator(_))) if operand => {}
                other => panic!(
                    "operand={operand} bit {bit}: expected a root or operand rejection, \
                     got {other:?}"
                ),
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
/// this fixture: 3 669 bytes against 7 596, 51.7 % fewer.
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

/// Exhaustive single-bit sweep over a full frame stream (a 2-window
/// sub-scan keeps the sweep affordable while still exercising the intern
/// table and back-references): every flip is a typed decode failure or a
/// decoded-but-rejected scan, and accepted decodes re-encode canonically.
#[test]
fn every_single_bit_corruption_of_a_stream_fails_cleanly_or_is_rejected() {
    let fix = scan_fixture();
    let sub = &fix.responses[..2];
    let encoded = encode_scan_stream(sub);
    let mut decode_failures = 0usize;
    let mut verify_rejections = 0usize;
    for bit in 0..encoded.len() * 8 {
        let mutant = Adversary::flip_bit(&encoded, bit);
        match decode_stream(&fix.acc, &mutant, mutant.len()) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                if !repeats_a_height(&decoded) {
                    assert_eq!(
                        encode_scan_stream(&decoded),
                        mutant,
                        "bit {bit}: accepted decode must re-encode canonically"
                    );
                }
                let all_ok = decoded.len() == sub.len()
                    && fix.queries.iter().zip(&decoded).all(|(q, r)| {
                        verify_response(q, r, &fix.light, &fix.cfg, &fix.acc).is_ok()
                    });
                assert!(!all_ok, "bit {bit}: corrupted scan must not fully verify");
                verify_rejections += 1;
            }
        }
    }
    assert_eq!(decode_failures + verify_rejections, encoded.len() * 8);
    assert!(decode_failures > 0, "no structural rejections in the stream sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the stream sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode totality: the one-shot and stream decoders return `Ok` or a
    /// typed `WireError` on arbitrary bytes — never a panic. (proptest
    /// reports a panic as a failure, so simply driving the decoders is the
    /// assert.)
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let fix = fixture();
        let _ = decode_response_v2(&fix.acc, &bytes);
        for chunk in [1, 64, 512] {
            let _ = decode_stream(&fix.acc, &bytes, chunk);
        }
    }

    /// Adversarial multi-byte corruption of the stream: whenever the
    /// decoder accepts the mutant, the mutant is the canonical encoding of
    /// what it decoded to.
    #[test]
    fn accepted_stream_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        let fix = scan_fixture();
        let mut adv = Adversary::new(seed);
        let (mutant, _label) = adv.mutate_bytes(&fix.stream);
        if let Ok(decoded) = decode_stream(&fix.acc, &mutant, 64) {
            if !repeats_a_height(&decoded) {
                prop_assert_eq!(encode_scan_stream(&decoded), mutant);
            }
        }
    }
}
