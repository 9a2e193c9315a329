//! Wire-codec properties (the decode boundary's contract):
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
use vchain_core::verify::{verify_response, VerifyError};
use vchain_core::vo::QueryResponse;
use vchain_core::wire::{
    decode_response, decode_response_auto, decode_response_v2, decode_scan_v2, encode_response,
    encode_response_v2, encode_scan_v2, StreamDecoder, WireError, WireVersion,
};

const DOMAIN_BITS: u8 = 6;

struct Fixture {
    q: CompiledQuery,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    encoded: Vec<u8>,
}

/// One small honest chain + response, built once: a 3-block window keeps
/// the encoding in the low kilobytes so the exhaustive bit sweep stays fast.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = MinerConfig {
            scheme: IndexScheme::Intra,
            skip_levels: 3,
            domain_bits: DOMAIN_BITS,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(31));
        let mut miner = Miner::new(cfg, acc.clone());
        let mut light = LightClient::new(cfg.difficulty);
        let mut rng = StdRng::seed_from_u64(32);
        let kinds = ["Sedan", "Van"];
        let mut id = 0u64;
        for b in 0..3u64 {
            let objs: Vec<Object> = (0..3)
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
        let q = Query {
            time_window: Some((10, 30)),
            ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
            keywords: vec![vec!["Sedan".into()]],
        }
        .compile(DOMAIN_BITS);
        let sp = miner.into_service_provider();
        let resp = sp.time_window_query(&q);
        verify_response(&q, &resp, &light, &sp.cfg, &sp.acc).expect("honest response verifies");
        let encoded = encode_response(&resp);
        Fixture { q, light, cfg: sp.cfg, acc: sp.acc, encoded }
    })
}

struct ScanFixture {
    queries: Vec<CompiledQuery>,
    light: LightClient,
    cfg: MinerConfig,
    acc: Acc1,
    responses: Vec<QueryResponse<Acc1>>,
    v1_total: usize,
    scan_v2: Vec<u8>,
}

/// An 8-window overlapping scan over a 6-block chain — the dedup fixture.
/// Consecutive windows re-cover the same blocks, so the scan-level v2
/// intern table has real work to do.
fn scan_fixture() -> &'static ScanFixture {
    static FIX: OnceLock<ScanFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = MinerConfig {
            scheme: IndexScheme::Intra,
            skip_levels: 3,
            domain_bits: DOMAIN_BITS,
            difficulty: Difficulty(2),
            bloom_bits_per_key: 10,
        };
        let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(41));
        let mut miner = Miner::new(cfg, acc.clone());
        let mut light = LightClient::new(cfg.difficulty);
        let mut rng = StdRng::seed_from_u64(42);
        let kinds = ["Sedan", "Van"];
        let mut id = 100u64;
        for b in 0..6u64 {
            let objs: Vec<Object> = (0..2)
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
        let queries: Vec<CompiledQuery> = (0..8u64)
            .map(|i| {
                Query {
                    time_window: Some((5 + 5 * i, 25 + 5 * i)),
                    ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
                    keywords: vec![vec!["Sedan".into()]],
                }
                .compile(DOMAIN_BITS)
            })
            .collect();
        let sp = miner.into_service_provider();
        let responses: Vec<QueryResponse<Acc1>> =
            queries.iter().map(|q| sp.time_window_query(q)).collect();
        for (q, resp) in queries.iter().zip(&responses) {
            verify_response(q, resp, &light, &sp.cfg, &sp.acc).expect("honest scan verifies");
        }
        let v1_total = responses.iter().map(|r| encode_response(r).len()).sum();
        let scan_v2 = encode_scan_v2(&responses);
        ScanFixture { queries, light, cfg: sp.cfg, acc: sp.acc, responses, v1_total, scan_v2 }
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
        let bytes = encode_response(&resp);
        let decoded = decode_response(&fix.acc, &bytes);
        prop_assert!(decoded.is_ok(), "honest encoding must decode: {:?}", decoded.err());
        let reencoded = encode_response(&decoded.expect("checked"));
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
        if let Ok(decoded) = decode_response(&fix.acc, &mutant) {
            prop_assert_eq!(encode_response(&decoded), mutant);
        }
    }
}

/// The full honest encoding round-trips byte-identically (crypto slots
/// included), and so does a full verification pass on the decoded copy.
#[test]
fn honest_response_round_trips_byte_identically() {
    let fix = fixture();
    let decoded = decode_response(&fix.acc, &fix.encoded).expect("honest encoding decodes");
    assert_eq!(encode_response(&decoded), fix.encoded);
    verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc)
        .expect("decoded copy verifies");
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
        match decode_response(&fix.acc, &mutant) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                assert_eq!(
                    encode_response(&decoded),
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
/// pairing equation consumes. Exhaustive over every bit of every slot.
#[test]
fn every_bit_of_every_att_slot_is_pinned_by_verification_not_by_decode() {
    let fix = fixture();
    let mut honest = decode_response(&fix.acc, &fix.encoded).expect("honest encoding decodes");
    let mut slots: std::collections::BTreeMap<Vec<u8>, AttRole> = Default::default();
    for_each_att::<Acc1>(&mut honest.coverage, &mut |role, att| {
        slots.insert(att.as_bytes().to_vec(), role);
    });
    assert!(slots.values().any(|r| *r == AttRole::HashOnly));
    assert!(slots.values().any(|r| *r == AttRole::NodeOperand));
    for (bytes, role) in slots {
        let at = fix
            .encoded
            .windows(bytes.len())
            .position(|w| w == bytes)
            .expect("slot bytes appear verbatim in the v1 encoding");
        for bit in 0..bytes.len() * 8 {
            let mutant = Adversary::flip_bit(&fix.encoded, at * 8 + bit);
            let decoded = decode_response(&fix.acc, &mutant).unwrap_or_else(|e| {
                panic!("{role:?} bit {bit}: a value slot cannot fail decode: {e}")
            });
            assert_eq!(encode_response(&decoded), mutant);
            match verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc) {
                Err(VerifyError::RootMismatch { .. }) => {}
                Err(VerifyError::Malformed(WireError::Accumulator(_)))
                    if role == AttRole::NodeOperand => {}
                other => panic!(
                    "{role:?} bit {bit}: expected a root or operand rejection, got {other:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// v2 (deduplicating intern-table) encoding
// ---------------------------------------------------------------------------

/// The per-response v2 encoding round-trips byte-identically, and the
/// version-dispatching decoder routes both encodings of the same response
/// to the same value.
#[test]
fn v2_response_round_trips_byte_identically() {
    let fix = fixture();
    let resp = decode_response(&fix.acc, &fix.encoded).expect("honest v1 decodes");
    let v2 = encode_response_v2(&resp);
    let decoded = decode_response_v2(&fix.acc, &v2).expect("honest v2 decodes");
    assert_eq!(encode_response_v2(&decoded), v2);
    verify_response(&fix.q, &decoded, &fix.light, &fix.cfg, &fix.acc)
        .expect("decoded v2 copy verifies");

    let (auto_v1, ver1) = decode_response_auto(&fix.acc, &fix.encoded).expect("auto v1");
    let (auto_v2, ver2) = decode_response_auto(&fix.acc, &v2).expect("auto v2");
    assert_eq!(ver1, WireVersion::V1);
    assert_eq!(ver2, WireVersion::V2);
    assert_eq!(encode_response(&auto_v1), fix.encoded);
    assert_eq!(encode_response_v2(&auto_v2), v2);
}

/// The scan-level v2 encoding round-trips byte-identically, every decoded
/// window still verifies, and scan-level dedup beats the v1 per-window
/// encodings by more than 20% on the 8-window overlapping fixture.
#[test]
fn scan_v2_round_trips_and_dedupes_over_20_percent() {
    let fix = scan_fixture();
    let decoded = decode_scan_v2(&fix.acc, &fix.scan_v2).expect("honest scan decodes");
    assert_eq!(decoded.len(), fix.responses.len());
    assert_eq!(encode_scan_v2(&decoded), fix.scan_v2);
    for (q, resp) in fix.queries.iter().zip(&decoded) {
        verify_response(q, resp, &fix.light, &fix.cfg, &fix.acc)
            .expect("decoded scan window verifies");
    }
    // ratio < 0.8  ⟺  5 * v2 < 4 * v1 (integer-exact).
    assert!(
        5 * fix.scan_v2.len() < 4 * fix.v1_total,
        "scan v2 must be <0.8x the v1 total: v2={} v1={}",
        fix.scan_v2.len(),
        fix.v1_total
    );
}

/// Exhaustive single-bit sweep over a full v2 scan encoding (a 2-window
/// sub-scan keeps the sweep affordable while still exercising the intern
/// table and back-references): every flip is a typed decode failure or a
/// decoded-but-rejected scan, and accepted decodes re-encode canonically.
#[test]
fn every_single_bit_corruption_of_v2_fails_cleanly_or_is_rejected() {
    let fix = scan_fixture();
    let sub = &fix.responses[..2];
    let encoded = encode_scan_v2(sub);
    let mut decode_failures = 0usize;
    let mut verify_rejections = 0usize;
    for bit in 0..encoded.len() * 8 {
        let mutant = Adversary::flip_bit(&encoded, bit);
        match decode_scan_v2(&fix.acc, &mutant) {
            Err(_) => decode_failures += 1,
            Ok(decoded) => {
                assert_eq!(
                    encode_scan_v2(&decoded),
                    mutant,
                    "bit {bit}: accepted decode must re-encode canonically"
                );
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
    assert!(decode_failures > 0, "no structural rejections in the v2 sweep");
    assert!(verify_rejections > 0, "no cryptographic rejections in the v2 sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decode totality: the v2 and stream decoders return `Ok` or a typed
    /// `WireError` on arbitrary bytes — never a panic. (proptest reports a
    /// panic as a failure, so simply driving the decoders is the assert.)
    #[test]
    fn v2_decoders_are_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let fix = fixture();
        let _ = decode_response_v2(&fix.acc, &bytes);
        let _ = decode_scan_v2(&fix.acc, &bytes);
        let mut dec = StreamDecoder::<Acc1>::new();
        let _ = dec.feed(&fix.acc, &bytes);
        let _ = dec.finish();
    }

    /// Adversarial multi-byte corruption of the scan encoding: whenever the
    /// decoder accepts the mutant, the mutant is the canonical encoding of
    /// what it decoded to.
    #[test]
    fn accepted_scan_corruptions_reencode_canonically(seed in 0u64..u64::MAX) {
        let fix = scan_fixture();
        let mut adv = Adversary::new(seed);
        let (mutant, _label) = adv.mutate_bytes(&fix.scan_v2);
        if let Ok(decoded) = decode_scan_v2(&fix.acc, &mutant) {
            prop_assert_eq!(encode_scan_v2(&decoded), mutant);
        }
    }
}
