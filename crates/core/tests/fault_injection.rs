//! Adversarial fault-injection suite: the Byzantine-SP experiment of
//! paper §8, run mechanically at scale.
//!
//! A seeded [`Adversary`] derives thousands of corrupted variants of an
//! honestly produced response — byte-level (bit flips, truncation,
//! splices, chunk swaps, extensions, wrong-subgroup point substitution)
//! and structure-level (AttDigest swaps, witness replay across blocks,
//! dropped results, dropped coverage, forged results, redirected leaves) —
//! and drives every one through the wire decoder and full verification.
//!
//! Invariants asserted for *every* mutation, across both accumulator
//! constructions:
//!
//! 1. **zero panics** — each drive runs under `catch_unwind`;
//! 2. **100% rejection** — a mutant that still decodes must fail
//!    verification (mutations that round-trip to the original bytes are
//!    detected and skipped as no-ops);
//! 3. **classified errors** — every rejection maps to a named
//!    [`VerifyError`] variant (decode failures surface as
//!    `VerifyError::Malformed`).
//!
//! Iteration count per construction comes from `VCHAIN_FUZZ_ITERS`
//! (default 500, giving ≥1000 mutations across Acc1 + Acc2); the seed is
//! fixed, so any failure replays from its printed `(seed, iteration)`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::{Acc1, Acc2, Accumulator};
use vchain_chain::{Difficulty, LightClient, Object};
use vchain_core::adversary::{for_each_att, for_each_proof, Adversary, AttRole, POINT_MUTATIONS};
use vchain_core::client::StreamVerifier;
use vchain_core::miner::{IndexScheme, Miner, MinerConfig};
use vchain_core::query::CompiledQuery;
use vchain_core::query::{Query, RangeSpec};
use vchain_core::subscribe::{
    verify_subscription_update, SubscriptionEngine, SubscriptionMode, SubscriptionUpdate,
};
use vchain_core::verify::{verify_encoded_response, verify_response, VerifyError};
use vchain_core::vo::{ClauseRef, QueryResponse};
use vchain_core::wire::{
    decode_response_v2, encode_response_v2, encode_scan_stream, encode_update,
};
use vchain_pairing::{stats, G1Spec, G2Spec};

const DOMAIN_BITS: u8 = 6;

fn fuzz_iters() -> usize {
    std::env::var("VCHAIN_FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(500)
}

fn cfg(scheme: IndexScheme) -> MinerConfig {
    MinerConfig {
        scheme,
        skip_levels: 3,
        domain_bits: DOMAIN_BITS,
        difficulty: Difficulty(2),
        bloom_bits_per_key: 10,
    }
}

/// Small deterministic workload: enough blocks for skips, small enough to
/// keep a thousand verifications fast.
fn workload(seed: u64, blocks: usize, per_block: usize) -> Vec<Vec<Object>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = ["Sedan", "Van", "Truck"];
    let brands = ["Benz", "BMW", "Audi"];
    let mut id = 0;
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|_| {
                    id += 1;
                    Object::new(
                        id,
                        (b as u64 + 1) * 10,
                        vec![rng.gen_range(0..64), rng.gen_range(0..64)],
                        vec![
                            kinds[rng.gen_range(0..kinds.len())].to_string(),
                            brands[rng.gen_range(0..brands.len())].to_string(),
                        ],
                    )
                })
                .collect()
        })
        .collect()
}

fn build_chain<A: Accumulator>(scheme: IndexScheme, acc: A) -> (Miner<A>, LightClient) {
    let c = cfg(scheme);
    let mut miner = Miner::new(c, acc);
    let mut light = LightClient::new(c.difficulty);
    for (i, objs) in workload(7, 8, 3).into_iter().enumerate() {
        miner.mine_block((i as u64 + 1) * 10, objs);
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    (miner, light)
}

fn sample_query() -> Query {
    Query {
        time_window: Some((20, 70)),
        ranges: vec![RangeSpec { dim: 0, lo: 5, hi: 40 }],
        keywords: vec![vec!["Sedan".into(), "Van".into()], vec!["Benz".into(), "BMW".into()]],
    }
}

/// Every rejection must map onto a named taxonomy variant; this is the
/// "classified error" half of the acceptance bar. Wire-level
/// rejections keep their [`vchain_core::wire::WireError`] variant name, so
/// the tally shows which structural defenses (framing, back-references,
/// truncation detection) the corpus actually exercised instead of one flat
/// "Malformed".
fn classify(e: &VerifyError) -> &'static str {
    use vchain_core::wire::WireError;
    match e {
        VerifyError::RootMismatch { .. } => "RootMismatch",
        VerifyError::BadProof { .. } => "BadProof",
        VerifyError::BadClause { .. } => "BadClause",
        VerifyError::ResultNotMatching { .. } => "ResultNotMatching",
        VerifyError::ResultIndexing { .. } => "ResultIndexing",
        VerifyError::MissingCoverage { .. } => "MissingCoverage",
        VerifyError::DuplicateCoverage { .. } => "DuplicateCoverage",
        VerifyError::SkipHashMismatch { .. } => "SkipHashMismatch",
        VerifyError::SkipRootMismatch { .. } => "SkipRootMismatch",
        VerifyError::SchemeViolation => "SchemeViolation",
        VerifyError::UnknownBlock { .. } => "UnknownBlock",
        VerifyError::BadGroup { .. } => "BadGroup",
        VerifyError::AggregationUnsupported => "AggregationUnsupported",
        VerifyError::MissingWindow => "MissingWindow",
        VerifyError::InvalidUpdateInterval { .. } => "InvalidUpdateInterval",
        VerifyError::Malformed(w) => match w {
            WireError::Truncated { .. } => "Malformed/Truncated",
            WireError::UnsupportedVersion(_) => "Malformed/UnsupportedVersion",
            WireError::BadTag { .. } => "Malformed/BadTag",
            WireError::Oversized { .. } => "Malformed/Oversized",
            WireError::DepthExceeded { .. } => "Malformed/DepthExceeded",
            WireError::BadUtf8 => "Malformed/BadUtf8",
            WireError::Accumulator(_) => "Malformed/Accumulator",
            WireError::TrailingBytes { .. } => "Malformed/TrailingBytes",
            WireError::BackRefOutOfRange { .. } => "Malformed/BackRefOutOfRange",
            WireError::NonCanonical { .. } => "Malformed/NonCanonical",
            WireError::FrameOversized { .. } => "Malformed/FrameOversized",
            WireError::FrameSequence { .. } => "Malformed/FrameSequence",
            WireError::StreamTruncated { .. } => "Malformed/StreamTruncated",
        },
    }
}

struct Tally {
    rejected: BTreeMap<&'static str, usize>,
    noops: usize,
    driven: usize,
}

impl Tally {
    /// The corpus-level invariants of a fault-injection run of `iters`
    /// iterations.
    fn check(&self, iters: usize) {
        let rejected: usize = self.rejected.values().sum();
        assert_eq!(rejected, self.driven, "every driven mutation must be rejected");
        assert!(
            self.driven >= iters * 9 / 10,
            "no-op rate too high to be meaningful: {} driven of {iters} ({} no-ops)",
            self.driven,
            self.noops
        );
        // The corpus must actually exercise a spread of the taxonomy, not
        // collapse into one rejection path. (Distinct-class spread needs a
        // statistically meaningful corpus; a `VCHAIN_FUZZ_ITERS`-reduced dev
        // run keeps the harder invariants above.)
        if self.driven >= 200 {
            assert!(
                self.rejected.len() >= 4,
                "expected ≥4 distinct rejection classes, got {:?}",
                self.rejected
            );
        }
        // Wire-level rejections occur alongside the cryptographic ones.
        assert!(
            self.rejected.keys().any(|k| k.starts_with("Malformed")),
            "no wire-level rejections: {:?}",
            self.rejected
        );
    }
}

fn run_fault_injection<A: Accumulator>(scheme: IndexScheme, acc: A, seed: u64, iters: usize) {
    let (miner, light) = build_chain(scheme, acc);
    let q = sample_query().compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let honest = sp.time_window_query(&q);
    let cfg = sp.cfg;
    let acc = &sp.acc;

    // Honest baseline: verifies, and the encoding round-trips byte-identically.
    verify_response(&q, &honest, &light, &cfg, acc).expect("honest response verifies");
    let encoded = encode_response_v2(&honest);
    let decoded = decode_response_v2(acc, &encoded).expect("honest encoding decodes");
    assert_eq!(encode_response_v2(&decoded), encoded, "decode∘encode must be the identity");
    verify_encoded_response(&q, &encoded, &light, &cfg, acc)
        .expect("honest encoding verifies end-to-end");

    // Wrong-subgroup substitution target: the first AttDigest slot's G1
    // component, located in the encoding by its honest bytes.
    let mut first_value = None;
    let mut cov = honest.coverage.clone();
    for_each_att::<A>(&mut cov, &mut |_, v| {
        if first_value.is_none() {
            first_value = Some(v.clone());
        }
    });
    let victim_bytes = first_value.expect("response has at least one value").as_bytes().to_vec();
    // Both constructions lead their value encoding with a G1 point.
    let mut adv = Adversary::new(seed);
    let bad_g1 = adv.mutate_point::<G1Spec>(&victim_bytes[..49], 3, &[]);
    let replacement = splice(&victim_bytes, 0, &bad_g1);

    let mut tally = Tally { rejected: BTreeMap::new(), noops: 0, driven: 0 };

    // Structure-level classes: mutate the typed response, then re-encode
    // (the encoder is canonical by construction, so the mutant decodes).
    type Semantic<A> = (fn(&mut Adversary, &mut QueryResponse<A>) -> bool, &'static str);
    let semantic: [Semantic<A>; 6] = [
        (|adv, m| adv.swap_values(&mut m.coverage), "swap-values"),
        (|adv, m| adv.replay_proof(&mut m.coverage), "replay-proof"),
        (|adv, m| adv.drop_result(&mut m.results), "drop-result"),
        (|adv, m| adv.drop_coverage(&mut m.coverage), "drop-coverage"),
        (|adv, m| adv.forge_result(&mut m.results), "forge-result"),
        (|adv, m| adv.redirect_leaf(&mut m.coverage), "redirect-leaf"),
    ];

    for iter in 0..iters {
        let class = adv.rng().gen_range(0..14u32);
        let (mutant, label): (Vec<u8>, &'static str) = match class {
            0..=4 => adv.mutate_bytes(&encoded),
            5..=10 => {
                let (mutate, label) = semantic[class as usize - 5];
                let mut m = honest.clone();
                if !mutate(&mut adv, &mut m) {
                    tally.noops += 1;
                    continue;
                }
                (encode_response_v2(&m), label)
            }
            // A lone window's intern table can be empty (dedup is mostly a
            // cross-window effect); the stream suite covers the shared one.
            11 | 12 => {
                let (table_mutant, label) = if class == 11 {
                    (Adversary::v2_shrink_table(&encoded), "table-shrink")
                } else {
                    (adv.v2_splice_table(&encoded), "table-splice")
                };
                table_mutant.map_or_else(|| adv.mutate_bytes(&encoded), |m| (m, label))
            }
            _ => {
                let mut m = encoded.clone();
                assert!(
                    Adversary::substitute_slot(&mut m, &victim_bytes, &replacement),
                    "value slot must be locatable in the encoding"
                );
                (m, "wrong-subgroup-point")
            }
        };

        // A mutation that reproduces the original bytes proves nothing —
        // skip it rather than let it inflate the rejection count.
        if mutant == encoded {
            tally.noops += 1;
            continue;
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            verify_encoded_response(&q, &mutant, &light, &cfg, acc)
        }));
        tally.driven += 1;
        match outcome {
            Err(_) => panic!(
                "PANIC on mutation (class={label}, seed={seed:#x}, iter={iter}) — \
                 verification must be total"
            ),
            Ok(Ok(accepted)) => panic!(
                "ACCEPTED a mutated VO (class={label}, seed={seed:#x}, iter={iter}): \
                 {} results passed",
                accepted.len()
            ),
            Ok(Err(e)) => {
                *tally.rejected.entry(classify(&e)).or_insert(0) += 1;
            }
        }
    }
    tally.check(iters);
}

#[test]
fn fault_injection_acc1() {
    run_fault_injection(
        IndexScheme::Both,
        Acc1::keygen(4000, &mut StdRng::seed_from_u64(21)),
        0xACC1_0000_0000_0001,
        fuzz_iters(),
    );
}

#[test]
fn fault_injection_acc2() {
    run_fault_injection(
        IndexScheme::Both,
        Acc2::keygen(4096, &mut StdRng::seed_from_u64(22)),
        0xACC2_0000_0000_0002,
        fuzz_iters(),
    );
}

/// Which group a component of a value or proof encoding lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Curve {
    G1,
    G2,
}

impl Curve {
    fn len(self) -> usize {
        match self {
            Curve::G1 => 49,
            Curve::G2 => 97,
        }
    }

    fn mutate(self, adv: &mut Adversary, point: &[u8], class: usize, donor: &[u8]) -> Vec<u8> {
        match self {
            Curve::G1 => adv.mutate_point::<G1Spec>(point, class, donor),
            Curve::G2 => adv.mutate_point::<G2Spec>(point, class, donor),
        }
    }
}

/// `bytes` with the component at `off` replaced.
fn splice(bytes: &[u8], off: usize, component: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[off..off + component.len()].copy_from_slice(component);
    out
}

/// The typed rejections of one mutant through both client entry points:
/// the one-shot decoder and the frame stream. Neither may panic.
fn reject_both_ways<A: Accumulator>(
    q: &CompiledQuery,
    light: &LightClient,
    cfg: MinerConfig,
    acc: &A,
    one_shot: &[u8],
    stream: &[u8],
    what: &str,
) -> [VerifyError; 2] {
    let one_shot =
        catch_unwind(AssertUnwindSafe(|| verify_encoded_response(q, one_shot, light, &cfg, acc)))
            .unwrap_or_else(|_| panic!("PANIC in one-shot verification: {what}"))
            .expect_err(what);
    let streamed = catch_unwind(AssertUnwindSafe(|| {
        drive_stream(std::slice::from_ref(q), light, cfg, acc, stream)
    }))
    .unwrap_or_else(|_| panic!("PANIC in streamed verification: {what}"))
    .expect_err(what);
    [one_shot, streamed]
}

/// Satellite of the operand-only decode: every point-mutation class
/// (bit flip, off-curve, non-canonical, wrong-subgroup, point swap) driven
/// separately through every slot *role* — hash-only AttDigest, pairing
/// operand of a tree node, pairing operand of a skip entry, the component
/// of an operand AttDigest no equation consumes, and proof — one input per
/// path of the data-dependent code. Every mutant is rejected with the typed
/// error its path predicts, through both decoders, with no panic.
///
/// `value` / `proof` list each encoding's components as `(offset, group)`;
/// `consumed` is how many leading value components the pairing operand
/// covers.
fn run_slot_role_matrix<A: Accumulator>(
    acc: A,
    value: &[(usize, Curve)],
    consumed: usize,
    proof: &[(usize, Curve)],
    seed: u64,
) {
    let (miner, light) = build_chain(IndexScheme::Both, acc);
    let sp = miner.into_service_provider();
    let (cfg, acc) = (sp.cfg, &sp.acc);

    // A query derived from the data so that one response takes every path:
    // the first range over the whole chain whose VO has explored nodes,
    // pruned nodes and a skip. `slots` is every AttDigest with its role,
    // in walk order.
    let (q, honest, slots) = (0..57u64)
        .find_map(|lo| {
            let q = Query {
                time_window: Some((10, 80)),
                ranges: vec![RangeSpec { dim: 0, lo, hi: lo + 7 }],
                keywords: vec![],
            }
            .compile(DOMAIN_BITS);
            let honest = sp.time_window_query(&q);
            let mut slots: Vec<(AttRole, Vec<u8>)> = Vec::new();
            for_each_att::<A>(&mut honest.coverage.clone(), &mut |role, att| {
                slots.push((role, att.as_bytes().to_vec()));
            });
            [AttRole::HashOnly, AttRole::NodeOperand, AttRole::SkipOperand]
                .iter()
                .all(|role| slots.iter().any(|(r, _)| r == role))
                .then_some((q, honest, slots))
        })
        .expect("some range query exercises every slot role");
    verify_response(&q, &honest, &light, &cfg, acc).expect("honest response verifies");
    let mut adv = Adversary::new(seed);
    let mut driven = 0usize;

    for role in [AttRole::HashOnly, AttRole::NodeOperand, AttRole::SkipOperand] {
        let target = slots.iter().position(|(r, _)| *r == role).expect("fixture covers every role");
        let bytes = &slots[target].1;
        // A point swap takes the same component of a slot holding
        // different bytes.
        let other = &slots.iter().find(|(_, b)| b != bytes).expect("two distinct AttDigests").1;
        for (comp, &(off, curve)) in value.iter().enumerate() {
            for (class, label) in POINT_MUTATIONS.iter().enumerate() {
                let point = &bytes[off..off + curve.len()];
                let donor = &other[off..off + curve.len()];
                let mutated = curve.mutate(&mut adv, point, class, donor);
                if mutated == point {
                    continue; // the donor shares this component: no mutation
                }
                let mut m = honest.clone();
                let mut k = 0usize;
                for_each_att::<A>(&mut m.coverage, &mut |_, att| {
                    if k == target {
                        *att = vchain_core::vo::Att::from_bytes(&splice(bytes, off, &mutated));
                    }
                    k += 1;
                });
                let what = format!("{role:?} component {comp} {label}");
                let [e, streamed] = reject_both_ways(
                    &q,
                    &light,
                    cfg,
                    acc,
                    &encode_response_v2(&m),
                    &encode_scan_stream(std::slice::from_ref(&m)),
                    &what,
                );
                assert_eq!(classify(&e), classify(&streamed), "{what}");
                driven += 1;
                let undecodable_operand =
                    role == AttRole::NodeOperand && comp < consumed && *label != "point-swap";
                match (role, &e) {
                    // the operand is decoded while the tree is walked, ahead
                    // of the root comparison
                    (_, VerifyError::Malformed(vchain_core::wire::WireError::Accumulator(_)))
                        if undecodable_operand => {}
                    // everything else about an AttDigest is caught by the
                    // commitment it is hashed into — no group decode needed
                    (AttRole::SkipOperand, VerifyError::SkipRootMismatch { .. }) => {}
                    (
                        AttRole::HashOnly | AttRole::NodeOperand,
                        VerifyError::RootMismatch { .. },
                    ) if !undecodable_operand => {}
                    _ => panic!("{what}: unexpected rejection {e:?}"),
                }
            }
        }
    }

    // Proof slots: mutated in the encodings, since an undecodable proof has
    // no typed form. The first proof of the response, each component.
    let mut proofs: Vec<Vec<u8>> = Vec::new();
    for_each_proof::<A>(&mut honest.coverage.clone(), &mut |p| proofs.push(A::proof_bytes(p)));
    let victim = &proofs[0];
    let other = proofs.iter().find(|p| *p != victim).expect("two distinct proofs");
    let one_shot = encode_response_v2(&honest);
    let stream = encode_scan_stream(std::slice::from_ref(&honest));
    for (comp, &(off, curve)) in proof.iter().enumerate() {
        for (class, label) in POINT_MUTATIONS.iter().enumerate() {
            let point = &victim[off..off + curve.len()];
            let mutated = curve.mutate(&mut adv, point, class, &other[off..off + curve.len()]);
            if mutated == point {
                continue;
            }
            let replacement = splice(victim, off, &mutated);
            let (mut m1, mut ms) = (one_shot.clone(), stream.clone());
            assert!(Adversary::substitute_slot(&mut m1, victim, &replacement));
            assert!(Adversary::substitute_slot(&mut ms, victim, &replacement));
            let what = format!("proof component {comp} {label}");
            driven += 1;
            for e in &reject_both_ways(&q, &light, cfg, acc, &m1, &ms, &what) {
                match e {
                    // a valid proof for a different (node, clause) pair
                    VerifyError::BadProof { .. } if *label == "point-swap" => {}
                    // a byte-level swap can also repeat bytes the table had
                    // to intern
                    VerifyError::Malformed(vchain_core::wire::WireError::NonCanonical {
                        ..
                    }) if *label == "point-swap" => {}
                    VerifyError::Malformed(vchain_core::wire::WireError::Accumulator(_))
                        if *label != "point-swap" => {}
                    _ => panic!("{what}: unexpected rejection {e:?}"),
                }
            }
        }
    }
    assert!(
        driven >= POINT_MUTATIONS.len() * (3 + proof.len()) - 2,
        "only {driven} mutants driven"
    );
}

#[test]
fn slot_role_matrix_acc1() {
    run_slot_role_matrix(
        Acc1::keygen(4000, &mut StdRng::seed_from_u64(51)),
        &[(0, Curve::G1)],
        1,
        &[(0, Curve::G2), (97, Curve::G2)],
        0x0517_0000_0000_0008,
    );
}

#[test]
fn slot_role_matrix_acc2() {
    run_slot_role_matrix(
        Acc2::keygen(4096, &mut StdRng::seed_from_u64(52)),
        &[(0, Curve::G1), (49, Curve::G2)],
        1,
        &[(0, Curve::G1)],
        0x0517_0000_0000_0009,
    );
}

/// The client group-decodes a VO slot only where a pairing equation
/// consumes it: over a whole streamed scan, no `G2` point is decoded at
/// all under Construction 2, and the `G1` decodes are exactly the distinct
/// mismatch / skip AttDigests (their `d_A`) plus the distinct proofs.
#[test]
fn client_decodes_only_pairing_operands() {
    let (miner, light) =
        build_chain(IndexScheme::Both, Acc2::keygen(4096, &mut StdRng::seed_from_u64(53)));
    let queries = scan_queries(4, 10);
    let sp = miner.into_service_provider();
    let responses: Vec<_> = queries.iter().map(|q| sp.time_window_query(q)).collect();
    let stream = encode_scan_stream(&responses);

    let mut operands = std::collections::BTreeSet::new();
    let mut hashed_only = 0usize;
    let mut proofs = std::collections::BTreeSet::new();
    for resp in &responses {
        let mut cov = resp.coverage.clone();
        for_each_att::<Acc2>(&mut cov, &mut |role, att| match role {
            AttRole::HashOnly => hashed_only += 1,
            AttRole::NodeOperand | AttRole::SkipOperand => {
                operands.insert(att.as_bytes().to_vec());
            }
        });
        for_each_proof::<Acc2>(&mut cov, &mut |p| {
            proofs.insert(Acc2::proof_bytes(p));
        });
    }
    assert!(hashed_only > 0 && !operands.is_empty() && !proofs.is_empty());

    // Clause digests are the client's own `Setup`, not decodes. The
    // pipeline runs on this thread, where the counters are.
    let (g1, g2) = (stats::g1_subgroup_checks(), stats::g2_subgroup_checks());
    drive_stream(&queries, &light, sp.cfg, &sp.acc, &stream).expect("honest stream verifies");
    assert_eq!(stats::g2_subgroup_checks() - g2, 0, "no G2 point is ever decoded");
    assert_eq!(
        (stats::g1_subgroup_checks() - g1) as usize,
        operands.len() + proofs.len(),
        "one G1 decode per distinct pairing operand and per distinct proof"
    );
}

/// Feed a byte string through the streamed verification pipeline (it runs
/// on the caller's thread, so `catch_unwind` sees any panic directly).
fn drive_stream<A: Accumulator>(
    queries: &[CompiledQuery],
    light: &LightClient,
    cfg: MinerConfig,
    acc: &A,
    bytes: &[u8],
) -> Result<Vec<Vec<Object>>, VerifyError> {
    let mut sv = StreamVerifier::new(queries.to_vec(), light.clone(), cfg, acc.clone());
    for chunk in bytes.chunks(251) {
        sv.feed(chunk)?;
    }
    sv.finish().map(|(results, _)| results)
}

/// An overlapping `n`-window scan over the 8-block chain (`shift` time
/// units between window starts), used by the streaming fault suite.
fn scan_queries(n: u64, shift: u64) -> Vec<CompiledQuery> {
    (0..n)
        .map(|i| {
            let mut q = sample_query();
            q.time_window = Some((10 + shift * i, 40 + shift * i));
            q.compile(DOMAIN_BITS)
        })
        .collect()
}

/// Streaming counterpart of [`run_fault_injection`]: corrupts a scan's
/// frame stream (byte classes plus frame reorder, mid-stream truncation,
/// intern-table shrink and table-entry splice) and drives every mutant
/// through [`StreamVerifier`]. Same invariants: zero panics, 100%
/// rejection, every rejection classified.
fn run_stream_fault_injection<A: Accumulator>(
    scheme: IndexScheme,
    acc: A,
    seed: u64,
    iters: usize,
) {
    let (miner, light) = build_chain(scheme, acc);
    let queries = scan_queries(4, 10);
    let sp = miner.into_service_provider();
    let responses: Vec<_> = queries.iter().map(|q| sp.time_window_query(q)).collect();
    let cfg = sp.cfg;
    let acc = &sp.acc;
    let stream = encode_scan_stream(&responses);

    // Honest baseline: the stream verifies to the same per-window results
    // as one-shot verification.
    let reference: Vec<Vec<Object>> = queries
        .iter()
        .zip(&responses)
        .map(|(q, r)| verify_response(q, r, &light, &cfg, acc).expect("honest window verifies"))
        .collect();
    let streamed =
        drive_stream(&queries, &light, cfg, acc, &stream).expect("honest stream verifies");
    assert_eq!(streamed, reference, "streamed results must match one-shot verification");

    let mut adv = Adversary::new(seed);
    let mut tally = Tally { rejected: BTreeMap::new(), noops: 0, driven: 0 };

    for iter in 0..iters {
        let (mutant, label): (Option<Vec<u8>>, &'static str) = match adv.rng().gen_range(0..9u32) {
            0..=4 => {
                let (m, label) = adv.mutate_bytes(&stream);
                (Some(m), label)
            }
            5 => (adv.stream_reorder(&stream), "frame-reorder"),
            6 => (Some(adv.stream_truncate(&stream)), "mid-stream-truncation"),
            7 => (Adversary::stream_shrink_table(&stream), "table-shrink-backref"),
            _ => (adv.stream_splice_table(&stream), "table-entry-splice"),
        };
        let Some(mutant) = mutant.filter(|m| *m != stream) else {
            tally.noops += 1;
            continue;
        };

        let outcome =
            catch_unwind(AssertUnwindSafe(|| drive_stream(&queries, &light, cfg, acc, &mutant)));
        tally.driven += 1;
        match outcome {
            Err(_) => panic!(
                "PANIC on stream mutation (class={label}, seed={seed:#x}, iter={iter}) — \
                 verification must be total"
            ),
            Ok(Ok(accepted)) => panic!(
                "ACCEPTED a mutated stream (class={label}, seed={seed:#x}, iter={iter}): \
                 {} results passed",
                accepted.concat().len()
            ),
            Ok(Err(e)) => {
                *tally.rejected.entry(classify(&e)).or_insert(0) += 1;
            }
        }
    }
    tally.check(iters);
}

#[test]
fn stream_fault_injection_acc1() {
    run_stream_fault_injection(
        IndexScheme::Both,
        Acc1::keygen(4000, &mut StdRng::seed_from_u64(27)),
        0x57E1_0000_0000_0005,
        fuzz_iters() / 2,
    );
}

#[test]
fn stream_fault_injection_acc2() {
    run_stream_fault_injection(
        IndexScheme::Both,
        Acc2::keygen(4096, &mut StdRng::seed_from_u64(28)),
        0x57E2_0000_0000_0006,
        fuzz_iters() / 2,
    );
}

/// Each targeted streaming mutation class lands on its intended taxonomy
/// entry (not merely "some error"), and the honest stream's peak buffer
/// stays strictly below the full VO size.
#[test]
fn stream_mutation_classes_hit_their_taxonomy_entries() {
    use vchain_core::wire::WireError;

    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(29));
    let (miner, light) = build_chain(IndexScheme::Both, acc);
    // Moderate overlap (each block re-covered once, not three times): the
    // retained state — intern table + one in-flight frame — then sits well
    // below the whole VO, which is what the bounded-buffer claim is about.
    let queries = scan_queries(4, 20);
    let sp = miner.into_service_provider();
    let responses: Vec<_> = queries.iter().map(|q| sp.time_window_query(q)).collect();
    let (cfg, acc) = (sp.cfg, &sp.acc);
    let stream = encode_scan_stream(&responses);

    // Honest control: the stream verifies and buffering is strictly
    // sub-linear in it (the acceptance bar's "peak buffer < full VO size").
    let mut sv = StreamVerifier::new(queries.clone(), light.clone(), cfg, acc.clone());
    for chunk in stream.chunks(251) {
        sv.feed(chunk).expect("honest stream feeds");
    }
    let (_, stats) = sv.finish().expect("honest stream verifies");
    assert_eq!(stats.vo_bytes, stream.len());
    assert!(
        stats.peak_buffer_bytes < stats.vo_bytes,
        "streaming must buffer less than the full VO: peak={} full={}",
        stats.peak_buffer_bytes,
        stats.vo_bytes
    );

    let mut adv = Adversary::new(0x7A70_0000_0000_0007);

    let shrunk = Adversary::stream_shrink_table(&stream).expect("scan stream interns slots");
    match drive_stream(&queries, &light, cfg, acc, &shrunk).expect_err("shrunk table rejected") {
        VerifyError::Malformed(WireError::BackRefOutOfRange { .. }) => {}
        other => panic!("table shrink must dangle a back-reference, got {other:?}"),
    }

    let reordered = adv.stream_reorder(&stream).expect("scan stream has ≥2 entry frames");
    match drive_stream(&queries, &light, cfg, acc, &reordered).expect_err("reorder rejected") {
        VerifyError::Malformed(WireError::FrameSequence { .. }) => {}
        other => panic!("frame reorder must break the sequence, got {other:?}"),
    }

    let truncated = adv.stream_truncate(&stream);
    match drive_stream(&queries, &light, cfg, acc, &truncated).expect_err("truncation rejected") {
        VerifyError::Malformed(WireError::StreamTruncated { .. } | WireError::Truncated { .. }) => {
        }
        // A cut can also land inside a frame body, surfacing as any other
        // decode error — but never as an accept. Tolerate typed errors.
        VerifyError::Malformed(_) | VerifyError::MissingCoverage { .. } => {}
        other => panic!("truncation must be a typed rejection, got {other:?}"),
    }

    let spliced = adv.stream_splice_table(&stream).expect("scan stream interns slots");
    assert!(
        drive_stream(&queries, &light, cfg, acc, &spliced).is_err(),
        "a corrupted shared table entry must fail verification"
    );
}

/// Subscription-side fault injection. Updates carry their own claimed
/// interval, so the client binding is part of the defense: an update is
/// accepted only if its `query_id` and `from_height` match what the
/// subscriber is waiting for, its interval anchors to known headers, and
/// verification passes. Mutations must either be rejected by that pipeline
/// or be *provably harmless* (a subset of the honest results over a subset
/// of the honest interval — e.g. a bit flip that only shrinks the claimed
/// window).
#[test]
fn fault_injection_subscription() {
    let c = cfg(IndexScheme::Both);
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(23));
    let mut miner = Miner::new(c, acc.clone());
    let mut light = LightClient::new(c.difficulty);
    let mut engine = SubscriptionEngine::new(c, acc.clone(), SubscriptionMode::Lazy, false);
    let q = Query { time_window: None, ranges: vec![], keywords: vec![vec!["Sedan".into()]] };
    let qid = engine.register(&q);
    let cq = engine.compiled(qid).expect("registered").clone();

    let mut updates: Vec<SubscriptionUpdate<Acc2>> = Vec::new();
    for (i, objs) in workload(9, 8, 3).into_iter().enumerate() {
        let h = miner.mine_block((i as u64 + 1) * 10, objs);
        let block = miner.store().block(h).expect("mined").clone();
        let indexed = miner.indexed()[h as usize].clone();
        updates.extend(engine.process_block(&block, &indexed));
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    let honest = updates.into_iter().find(|u| !u.results.is_empty()).expect("some update matches");
    let honest_ids: Vec<u64> =
        honest.results.iter().flat_map(|(_, v)| v.iter().map(|o| o.id)).collect();
    verify_subscription_update(&cq, &honest, &light, &c, &acc).expect("honest update verifies");
    let encoded = encode_update(&honest);

    let mut adv = Adversary::new(0x5AB5_0000_0000_0003);
    let iters = (fuzz_iters() / 4).max(100);
    let mut rejected = 0usize;
    let mut harmless = 0usize;
    for iter in 0..iters {
        let (mutant, label) = if adv.rng().gen_range(0..8u32) == 0 {
            let mut m = honest.clone();
            adv.inflate_claim(&mut m);
            (encode_update(&m), "inflate-claim")
        } else {
            adv.mutate_bytes(&encoded)
        };
        if mutant == encoded {
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Object>, VerifyError> {
            let update =
                vchain_core::wire::decode_update(&acc, &mutant).map_err(VerifyError::Malformed)?;
            // client-side dispatch binding
            if update.query_id != qid || update.from_height != honest.from_height {
                return Err(VerifyError::InvalidUpdateInterval {
                    from: update.from_height,
                    to: update.to_height,
                });
            }
            let objs = verify_subscription_update(&cq, &update, &light, &c, &acc)?;
            // anything accepted must be a sub-claim of the honest update
            assert!(
                update.to_height <= honest.to_height,
                "accepted update widens the claimed interval"
            );
            for o in &objs {
                assert!(honest_ids.contains(&o.id), "accepted update forged result {}", o.id);
            }
            Ok(objs)
        }));
        match outcome {
            Err(_) => panic!("PANIC on subscription mutation (class={label}, iter={iter})"),
            Ok(Ok(_)) => harmless += 1,
            Ok(Err(_)) => rejected += 1,
        }
    }
    assert!(rejected > 0, "corpus produced no rejections");
    // Shrunk-window accepts are rare single-bit cases; the overwhelming
    // majority of mutations must be hard rejections.
    assert!(
        harmless * 20 <= rejected,
        "too many harmless accepts: {harmless} vs {rejected} rejections"
    );
}

/// Satellite (a): a subscription-compiled query (no window) fed to the
/// time-window verifier is a typed error, not a panic.
#[test]
fn missing_window_is_a_typed_error() {
    let acc = Acc1::keygen(600, &mut StdRng::seed_from_u64(24));
    let (miner, light) = build_chain(IndexScheme::Intra, acc);
    let windowless =
        Query { time_window: None, ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
            .compile(DOMAIN_BITS);
    let sp = miner.into_service_provider();
    let empty = vchain_core::vo::QueryResponse::<Acc1> { results: vec![], coverage: vec![] };
    let e = verify_response(&windowless, &empty, &light, &sp.cfg, &sp.acc).unwrap_err();
    assert_eq!(e, VerifyError::MissingWindow);
}

/// Decoded cell prefixes with out-of-domain lengths or oversized bits are
/// typed [`vchain_core::vo::ClauseError`]s, not asserts.
#[test]
fn malformed_cell_prefixes_are_typed_errors() {
    use vchain_core::vo::ClauseError;
    let q = sample_query().compile(DOMAIN_BITS);
    for (len, bits) in [(0u8, 0u64), (DOMAIN_BITS + 1, 0), (63, 0), (255, u64::MAX)] {
        let c = ClauseRef::Cell { len, prefixes: vec![(0, bits)] };
        assert_eq!(c.resolve(&q), Err(ClauseError::InvalidPrefix { len }), "len={len} bits={bits}");
    }
    // bits wider than the stated length
    let c = ClauseRef::Cell { len: 3, prefixes: vec![(0, 0b1000)] };
    assert_eq!(c.resolve(&q), Err(ClauseError::InvalidPrefix { len: 3 }));
}

/// A subscription update claiming an absurd interval is rejected before
/// any allocation sized by the claim.
#[test]
fn inflated_interval_rejected_without_allocation() {
    let c = cfg(IndexScheme::Both);
    let acc = Acc2::keygen(4096, &mut StdRng::seed_from_u64(25));
    let mut miner = Miner::new(c, acc.clone());
    let mut light = LightClient::new(c.difficulty);
    for (i, objs) in workload(11, 4, 2).into_iter().enumerate() {
        miner.mine_block((i as u64 + 1) * 10, objs);
    }
    for h in miner.headers() {
        light.sync_header(h).expect("headers validate");
    }
    let cq = Query { time_window: None, ranges: vec![], keywords: vec![vec!["Sedan".into()]] }
        .compile(DOMAIN_BITS);
    let update = SubscriptionUpdate::<Acc2> {
        query_id: 0,
        from_height: 0,
        to_height: u64::MAX, // would be a 2⁶⁴-element set if materialized
        results: vec![],
        coverage: vec![],
    };
    let e = verify_subscription_update(&cq, &update, &light, &c, &acc).unwrap_err();
    assert_eq!(e, VerifyError::InvalidUpdateInterval { from: 0, to: u64::MAX });
}
