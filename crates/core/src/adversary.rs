//! Seeded, deterministic VO mutation engine for adversarial fault
//! injection (the Byzantine-SP experiment of paper §8, run mechanically).
//!
//! The engine plays the malicious service provider: given an honestly
//! produced response it derives corrupted variants — at the byte level
//! (bit flips, truncation, splices, slot swaps) and at the structure level
//! (AttDigest swaps, witness replay across blocks, dropped results and
//! coverage, forged result objects, inflated subscription claims). The
//! fault-injection suite drives thousands of these through
//! [`crate::verify`] and asserts every one is rejected with a classified
//! [`crate::verify::VerifyError`] and zero panics.
//!
//! Everything is driven by one [`rand::rngs::StdRng`] seeded at
//! construction, so a failing case replays from `(seed, iteration)` alone.
//!
//! This module is *test tooling on the trusted side* — it may allocate and
//! panic freely; it is the code under attack that must not.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vchain_acc::Accumulator;
use vchain_chain::Object;
use vchain_pairing::{Affine, CurveSpec, PointDecodeError};

use crate::subscribe::SubscriptionUpdate;
use crate::vo::{Att, BlockCoverage, BlockVo, MismatchProof, ProofBytes, VoNode};

/// Labels for the byte-level mutation classes (index-aligned with
/// [`Adversary::mutate_bytes`]'s internal choice).
pub const BYTE_MUTATIONS: &[&str] =
    &["bit-flip", "truncate", "random-splice", "chunk-swap", "extend"];

/// Labels for the point-level mutation classes (index-aligned with
/// [`Adversary::mutate_point`]'s `class`).
pub const POINT_MUTATIONS: &[&str] =
    &["bit-flip", "off-curve", "non-canonical", "wrong-subgroup", "point-swap"];

/// What the verifier does with an AttDigest slot — the data-dependent
/// paths a corrupted AttDigest can take through `crate::verify`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttRole {
    /// An explored `Internal` / `LeafMatch` node: hashed into the rebuilt
    /// commitment, never group-decoded.
    HashOnly,
    /// A pruned `InternalMismatch` / `LeafMismatch` node: hashed, and its
    /// pairing operand decoded while the tree is walked.
    NodeOperand,
    /// A skip entry: hashed into the skip-list root, which is compared
    /// before its pairing operand is decoded.
    SkipOperand,
}

/// The mutation engine. One instance = one deterministic adversary.
pub struct Adversary {
    rng: StdRng,
}

impl Adversary {
    /// A deterministic adversary; every derived mutation is a pure
    /// function of `seed` and the call sequence.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    /// Access the underlying RNG (for harness-side choices that should
    /// share the determinism).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // -- byte-level mutations ---------------------------------------------

    /// Derive a byte-level corruption of `bytes`: flip a bit, truncate,
    /// overwrite a random run with random bytes, swap two disjoint chunks
    /// (a blind "point swap between slots"), or append garbage. Returns the
    /// mutant and the label of the class applied.
    pub fn mutate_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, &'static str) {
        let mut out = bytes.to_vec();
        let choice = if out.is_empty() { 4 } else { self.rng.gen_range(0..5u32) };
        match choice {
            0 => {
                let bit = self.rng.gen_range(0..out.len() * 8);
                out[bit / 8] ^= 1 << (bit % 8);
                (out, "bit-flip")
            }
            1 => {
                let new_len = self.rng.gen_range(0..out.len());
                out.truncate(new_len);
                (out, "truncate")
            }
            2 => {
                let start = self.rng.gen_range(0..out.len());
                let run = self.rng.gen_range(1..=16usize.min(out.len() - start));
                for b in &mut out[start..start + run] {
                    *b = self.rng.gen();
                }
                (out, "random-splice")
            }
            3 => {
                // swap two equal-length disjoint chunks
                if out.len() < 2 {
                    out[0] ^= 0xff;
                    return (out, "bit-flip");
                }
                let chunk = self.rng.gen_range(1..=(out.len() / 2).min(64));
                let a = self.rng.gen_range(0..=out.len() - 2 * chunk);
                let b = self.rng.gen_range(a + chunk..=out.len() - chunk);
                for k in 0..chunk {
                    out.swap(a + k, b + k);
                }
                (out, "chunk-swap")
            }
            _ => {
                let extra = self.rng.gen_range(1..=32usize);
                for _ in 0..extra {
                    out.push(self.rng.gen());
                }
                (out, "extend")
            }
        }
    }

    /// Flip exactly bit `bit` (for exhaustive single-bit sweeps).
    pub fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    /// Overwrite the first occurrence of `needle` in `encoded` with
    /// `replacement` (same length). This is how a wrong-subgroup or
    /// otherwise-crafted point encoding is substituted into a known value
    /// slot of an honest encoding. Returns `false` when the slot was not
    /// found or the lengths differ.
    pub fn substitute_slot(encoded: &mut [u8], needle: &[u8], replacement: &[u8]) -> bool {
        if needle.len() != replacement.len() || needle.is_empty() {
            return false;
        }
        let Some(pos) = encoded.windows(needle.len()).position(|w| w == needle) else {
            return false;
        };
        encoded[pos..pos + needle.len()].copy_from_slice(replacement);
        true
    }

    /// Derive a corruption of one compressed point encoding of group `S`,
    /// by class ([`POINT_MUTATIONS`]): flip one coordinate bit; move `x`
    /// off the curve; make the coordinate non-canonical (≥ the modulus);
    /// replace the point with an on-curve point outside the order-`r`
    /// subgroup; or replace it with `donor`, another valid point (a point
    /// swap between slots). Classes 1–3 are checked against the decoder
    /// they are meant to trip, so a mutant is what its label says.
    pub fn mutate_point<S: CurveSpec>(
        &mut self,
        point: &[u8],
        class: usize,
        donor: &[u8],
    ) -> Vec<u8> {
        let mut out = point.to_vec();
        match class {
            0 => {
                let bit = self.rng.gen_range(8..out.len() * 8);
                out[bit / 8] ^= 1 << (bit % 8);
            }
            1 => {
                out[0] &= 0b10; // a finite point, whatever the input was
                while Affine::<S>::try_from_bytes_on_curve(&out)
                    != Err(PointDecodeError::NotOnCurve)
                {
                    out[1] = out[1].wrapping_add(1);
                }
            }
            2 => {
                out[0] &= 0b10;
                out[1..].fill(0xff);
            }
            3 => loop {
                // A uniform reduced coordinate (top byte of every base-field
                // limb string cleared) lands on the curve half the time and
                // in the order-r subgroup essentially never.
                out[0] = 0;
                self.rng.fill(&mut out[1..]);
                for limbs in out[1..].chunks_mut(48) {
                    limbs[47] = 0;
                }
                if Affine::<S>::try_from_bytes_on_curve(&out).is_ok_and(|p| !p.is_torsion_free()) {
                    break;
                }
            },
            _ => out = donor.to_vec(),
        }
        out
    }

    // -- stream mutations ---------------------------------------------------
    //
    // These operate on the byte layout of `wire::encode_scan_stream` (and so
    // of `wire::encode_response_v2`, its one-window form): a frame envelope
    // of `u32 len ‖ u32 seq ‖ u8 tag ‖ body`, and an intern table
    // (`u32 N ‖ N × (u32 len ‖ bytes)`) inside the header frame.

    /// Byte ranges of the intern-table entries in a stream's header frame:
    /// `u32 len ‖ u32 seq ‖ u8 tag ‖ sv ‖ cv ‖ u32 n_windows ‖
    /// n_windows × u32 ‖ table`. Returns the position of the table's
    /// entry-count `u32` and each entry's `(payload_start, payload_len)`.
    fn table_entries(stream: &[u8]) -> Option<(usize, Vec<(usize, usize)>)> {
        let n_windows = u32::from_le_bytes(stream.get(11..15)?.try_into().ok()?) as usize;
        let offset = 15 + 4 * n_windows;
        let n = u32::from_le_bytes(stream.get(offset..offset + 4)?.try_into().ok()?) as usize;
        let mut entries = Vec::with_capacity(n);
        let mut pos = offset + 4;
        for _ in 0..n {
            let len = u32::from_le_bytes(stream.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            stream.get(pos..pos + len)?;
            entries.push((pos, len));
            pos += len;
        }
        Some((offset, entries))
    }

    /// Split a frame stream into its frames (honest input; panics on
    /// malformed framing, which is fine on the trusted side).
    pub fn stream_frames(stream: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while pos < stream.len() {
            let len = u32::from_le_bytes(stream[pos..pos + 4].try_into().expect("length prefix"))
                as usize;
            frames.push(stream[pos..pos + 4 + len].to_vec());
            pos += 4 + len;
        }
        frames
    }

    /// Swap two randomly chosen entry frames of a scan stream, violating
    /// the declared sequence order (`WireError::FrameSequence`). `None`
    /// when the stream has fewer than two entry frames.
    pub fn stream_reorder(&mut self, stream: &[u8]) -> Option<Vec<u8>> {
        let mut frames = Self::stream_frames(stream);
        if frames.len() < 3 {
            return None;
        }
        let a = self.rng.gen_range(1..frames.len());
        let b = loop {
            let b = self.rng.gen_range(1..frames.len());
            if b != a {
                break b;
            }
        };
        frames.swap(a, b);
        Some(frames.concat())
    }

    /// Cut the stream at a random interior byte — the transport dying
    /// mid-response. Always a strict prefix, never empty-to-empty.
    pub fn stream_truncate(&mut self, stream: &[u8]) -> Vec<u8> {
        let cut = self.rng.gen_range(1..stream.len());
        stream[..cut].to_vec()
    }

    /// Drop the last intern-table entry of a stream's header frame and
    /// decrement the count (the frame's length prefix is fixed up to
    /// match), so every back-reference to the removed index dangles
    /// (`WireError::BackRefOutOfRange`). `None` when the table is empty
    /// (nothing to shrink).
    pub fn stream_shrink_table(stream: &[u8]) -> Option<Vec<u8>> {
        let (count_pos, entries) = Self::table_entries(stream)?;
        let &(last_start, last_len) = entries.last()?;
        let mut out = stream.to_vec();
        out.drain(last_start - 4..last_start + last_len);
        out[count_pos..count_pos + 4].copy_from_slice(&(entries.len() as u32 - 1).to_le_bytes());
        let old_len = u32::from_le_bytes(out.get(0..4)?.try_into().ok()?) as usize;
        let new_len = old_len.checked_sub(4 + last_len)? as u32;
        out[0..4].copy_from_slice(&new_len.to_le_bytes());
        Some(out)
    }

    /// Flip one byte inside a randomly chosen intern-table entry of a
    /// stream's header frame — a shared point every back-reference now
    /// resolves to corrupted. `None` when the table has no non-empty entry.
    pub fn stream_splice_table(&mut self, stream: &[u8]) -> Option<Vec<u8>> {
        let (_, entries) = Self::table_entries(stream)?;
        let nonempty: Vec<_> = entries.iter().filter(|(_, len)| *len > 0).collect();
        if nonempty.is_empty() {
            return None;
        }
        let &&(start, len) = nonempty.get(self.rng.gen_range(0..nonempty.len()))?;
        let mut out = stream.to_vec();
        // Flip a low-order bit of one payload byte: the point stays the
        // right length but decodes to a different (or invalid) element.
        out[start + self.rng.gen_range(0..len)] ^= 1;
        Some(out)
    }

    // -- structure-level mutations ----------------------------------------

    /// Swap two AttDigest slots anywhere in the coverage (point swap
    /// between slots). Returns `false` when fewer than two slots exist.
    pub fn swap_values<A: Accumulator>(&mut self, coverage: &mut [BlockCoverage<A>]) -> bool {
        let mut values: Vec<Att> = Vec::new();
        for_each_att(coverage, &mut |_, v| values.push(v.clone()));
        if values.len() < 2 {
            return false;
        }
        let i = self.rng.gen_range(0..values.len());
        let j = {
            let mut j = self.rng.gen_range(0..values.len() - 1);
            if j >= i {
                j += 1;
            }
            j
        };
        values.swap(i, j);
        let mut k = 0usize;
        for_each_att(coverage, &mut |_, v| {
            *v = values[k].clone();
            k += 1;
        });
        true
    }

    /// Replay a disjointness witness: overwrite one proof slot with the
    /// proof from another slot (across nodes, groups, skips — hence across
    /// blocks and windows). Returns `false` when fewer than two slots exist.
    pub fn replay_proof<A: Accumulator>(&mut self, coverage: &mut [BlockCoverage<A>]) -> bool {
        let mut proofs: Vec<ProofBytes<A>> = Vec::new();
        for_each_proof(coverage, &mut |p| proofs.push(p.clone()));
        if proofs.len() < 2 {
            return false;
        }
        let victim = self.rng.gen_range(0..proofs.len());
        let donor = {
            let mut d = self.rng.gen_range(0..proofs.len() - 1);
            if d >= victim {
                d += 1;
            }
            d
        };
        let donated = proofs[donor].clone();
        let mut k = 0usize;
        for_each_proof(coverage, &mut |p| {
            if k == victim {
                *p = donated.clone();
            }
            k += 1;
        });
        true
    }

    /// Silently drop one returned object while keeping its coverage — the
    /// classic completeness attack. Returns `false` when there are no
    /// results.
    pub fn drop_result(&mut self, results: &mut [(u64, Vec<Object>)]) -> bool {
        let total: usize = results.iter().map(|(_, v)| v.len()).sum();
        if total == 0 {
            return false;
        }
        let mut pick = self.rng.gen_range(0..total);
        for (_, objs) in results.iter_mut() {
            if pick < objs.len() {
                objs.remove(pick);
                return true;
            }
            pick -= objs.len();
        }
        false
    }

    /// Drop one whole coverage entry (hide a block or a skip run).
    /// Returns `false` when the coverage is empty.
    pub fn drop_coverage<A: Accumulator>(&mut self, coverage: &mut Vec<BlockCoverage<A>>) -> bool {
        if coverage.is_empty() {
            return false;
        }
        let i = self.rng.gen_range(0..coverage.len());
        coverage.remove(i);
        true
    }

    /// Forge an extra result object the VO never committed to — claims the
    /// query matched more than it did. Returns `false` when there is no
    /// result entry to piggyback on.
    pub fn forge_result(&mut self, results: &mut [(u64, Vec<Object>)]) -> bool {
        if results.is_empty() {
            return false;
        }
        let i = self.rng.gen_range(0..results.len());
        let forged = Object::new(
            self.rng.gen(),
            self.rng.gen_range(0..1_000),
            vec![self.rng.gen_range(0..64)],
            vec![format!("forged-{}", self.rng.gen_range(0..1_000u32))],
        );
        results[i].1.push(forged);
        true
    }

    /// Redirect one `LeafMatch` at a different result slot. Returns
    /// `false` when the coverage holds no match leaves.
    pub fn redirect_leaf<A: Accumulator>(&mut self, coverage: &mut [BlockCoverage<A>]) -> bool {
        let mut n = 0usize;
        for_each_leaf_idx(coverage, &mut |_| n += 1);
        if n == 0 {
            return false;
        }
        let victim = self.rng.gen_range(0..n);
        let delta = self.rng.gen_range(1..=8u32);
        let mut k = 0usize;
        for_each_leaf_idx(coverage, &mut |idx| {
            if k == victim {
                *idx = idx.wrapping_add(delta);
            }
            k += 1;
        });
        true
    }

    /// Inflate a subscription update's completeness claim: stretch the
    /// covered interval beyond what the VO proves.
    pub fn inflate_claim<A: Accumulator>(&mut self, update: &mut SubscriptionUpdate<A>) {
        if self.rng.gen::<bool>() {
            update.to_height = update.to_height.wrapping_add(self.rng.gen_range(1..1_000u64));
        } else {
            update.from_height = update.from_height.wrapping_sub(self.rng.gen_range(1..1_000u64));
        }
    }
}

// ---------------------------------------------------------------------------
// Slot walkers (deterministic pre-order traversal)
// ---------------------------------------------------------------------------

fn walk_node_atts<A: Accumulator>(node: &mut VoNode<A>, f: &mut dyn FnMut(AttRole, &mut Att)) {
    match node {
        VoNode::Internal { att, left, right } => {
            if let Some(a) = att.as_mut() {
                f(AttRole::HashOnly, a);
            }
            walk_node_atts(left, f);
            walk_node_atts(right, f);
        }
        VoNode::LeafMatch { att, .. } => f(AttRole::HashOnly, att),
        VoNode::InternalMismatch { att, .. } | VoNode::LeafMismatch { att, .. } => {
            f(AttRole::NodeOperand, att)
        }
    }
}

/// Visit every AttDigest slot of the coverage in deterministic order, with
/// the role the verifier gives it.
pub fn for_each_att<A: Accumulator>(
    coverage: &mut [BlockCoverage<A>],
    f: &mut dyn FnMut(AttRole, &mut Att),
) {
    for cov in coverage {
        match cov {
            BlockCoverage::Block { vo, .. } => walk_node_atts(&mut vo.root, f),
            BlockCoverage::Skip { att, .. } => f(AttRole::SkipOperand, att),
        }
    }
}

fn walk_node_proofs<A: Accumulator>(node: &mut VoNode<A>, f: &mut dyn FnMut(&mut ProofBytes<A>)) {
    match node {
        VoNode::Internal { left, right, .. } => {
            walk_node_proofs(left, f);
            walk_node_proofs(right, f);
        }
        VoNode::InternalMismatch { proof, .. } | VoNode::LeafMismatch { proof, .. } => {
            if let MismatchProof::Inline { proof, .. } = proof {
                f(proof);
            }
        }
        VoNode::LeafMatch { .. } => {}
    }
}

fn walk_vo_proofs<A: Accumulator>(vo: &mut BlockVo<A>, f: &mut dyn FnMut(&mut ProofBytes<A>)) {
    walk_node_proofs(&mut vo.root, f);
    for g in &mut vo.groups {
        f(&mut g.proof);
    }
}

/// Visit every disjointness-proof slot of the coverage in deterministic
/// order (inline node proofs, §6.3 group proofs, skip proofs).
pub fn for_each_proof<A: Accumulator>(
    coverage: &mut [BlockCoverage<A>],
    f: &mut dyn FnMut(&mut ProofBytes<A>),
) {
    for cov in coverage {
        match cov {
            BlockCoverage::Block { vo, .. } => walk_vo_proofs(vo, f),
            BlockCoverage::Skip { proof, .. } => f(proof),
        }
    }
}

fn walk_leaf_idx<A: Accumulator>(node: &mut VoNode<A>, f: &mut dyn FnMut(&mut u32)) {
    match node {
        VoNode::Internal { left, right, .. } => {
            walk_leaf_idx(left, f);
            walk_leaf_idx(right, f);
        }
        VoNode::LeafMatch { result_idx, .. } => f(result_idx),
        _ => {}
    }
}

fn for_each_leaf_idx<A: Accumulator>(
    coverage: &mut [BlockCoverage<A>],
    f: &mut dyn FnMut(&mut u32),
) {
    for cov in coverage {
        if let BlockCoverage::Block { vo, .. } = cov {
            walk_leaf_idx(&mut vo.root, f);
        }
    }
}
