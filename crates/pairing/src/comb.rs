//! Fixed-base comb (Lim–Lee) multi-exponentiation.
//!
//! A Pippenger [`crate::multiexp`] treats its bases as one-shot inputs, so
//! every call pays the full window sweep: at the small sizes the
//! accumulator commitments use (a few dozen points), that is thousands of
//! variable-base group operations. But the bases of a polynomial
//! commitment are *fixed public-key powers* `g^{sⁱ}` — the same vector for
//! every proof a key ever makes — which is exactly the shape fixed-base
//! precomputation exploits.
//!
//! The comb table of one base `B` stores, for every non-empty subset
//! `m ⊆ {0, …, 7}` of the eight "teeth", the point
//! `T[m] = Σ_{k ∈ m} 2^{32k}·B` (255 affine points, ~49 KiB in `G2`).
//! A 256-bit scalar is then read column-wise: its comb digit at position
//! `j` is the byte formed by bits `j, j+32, …, j+224`, and
//!
//! ```text
//! k·B = Σ_{j=0}^{31} 2^j · T[digit_j(k)]
//! ```
//!
//! — 32 table lookups, no per-scalar doublings. [`comb_multiexp`] goes one
//! step further across a whole multi-exponentiation: the lookups of *all*
//! scalars are bucketed per column, each column is summed with batched
//! affine additions ([`crate::sum_affine_groups`]: one shared field
//! inversion per halving round), and a single 31-doubling Horner pass
//! combines the 32 column sums. For an `n`-term commitment that is `~32n`
//! cheap affine additions plus 63 projective operations, against
//! thousands of full projective operations for cold Pippenger.
//!
//! [`PowersCombCache`] owns the lazily-built tables for a prefix of a
//! public power vector; the accumulator keys hold one per source group.

use std::sync::RwLock;

use vchain_bigint::U256;

use crate::curve::{
    batch_to_affine, gls_digits, multiexp, sum_affine_groups, Affine, CurveSpec, Projective,
};

/// Number of comb teeth: one scalar bit per tooth, per column.
pub const COMB_TEETH: u32 = 8;
/// Distance in bits between adjacent teeth; `COMB_TEETH × COMB_SPACING`
/// covers the full 256-bit scalar width.
pub const COMB_SPACING: u32 = 32;

/// How a scalar's bits are distributed over the eight comb teeth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DigitScheme {
    /// Tooth `t` reads bit `32t + column` of the raw scalar; tooth points
    /// are the doubling chain `2^{32t}·B`.
    Straight,
    /// GLS teeth: the scalar is first decomposed in base `|x|` into four
    /// 64-bit digits `e₀..e₃` ([`crate::curve::gls_digits`]); tooth
    /// `t = 2i + j` reads bit `32j + column` of `eᵢ`, and its point is
    /// `2^{32j}·φⁱ(B)` — six of the eight tooth points come from the cheap
    /// endomorphism instead of 32-doubling chains, cutting the tooth
    /// doublings per table from 224 to 32 ("halved" is an understatement:
    /// 7×). Requires [`CurveSpec::HAS_ENDO`].
    Gls,
}

/// Precomputed comb table for one fixed base (see the [module docs](self)).
pub struct FixedBaseComb<S: CurveSpec> {
    /// `table[m − 1] = Σ_{t ∈ bits(m)} tooth_t`, for every non-empty tooth
    /// subset `m ∈ 1..=255`, in affine form.
    table: Vec<Affine<S>>,
    scheme: DigitScheme,
}

impl<S: CurveSpec> FixedBaseComb<S> {
    /// Build the comb tables for many bases at once.
    ///
    /// Per base this costs 32 doublings (`G2`, GLS teeth) or
    /// `(COMB_TEETH − 1) · COMB_SPACING = 224` doublings (straight teeth)
    /// plus one addition per remaining subset; the final
    /// projective→affine normalization is batched across *all* bases with
    /// a single shared inversion.
    pub fn build_many(bases: &[Projective<S>]) -> Vec<Self> {
        let scheme = if S::HAS_ENDO { DigitScheme::Gls } else { DigitScheme::Straight };
        let subsets = (1usize << COMB_TEETH) - 1;
        let mut all = Vec::with_capacity(bases.len() * subsets);
        for base in bases {
            let mut tooth = Vec::with_capacity(COMB_TEETH as usize);
            match scheme {
                DigitScheme::Straight => {
                    // tooth[t] = 2^{32t}·B
                    let mut cur = *base;
                    for _ in 0..COMB_TEETH {
                        tooth.push(cur);
                        for _ in 0..COMB_SPACING {
                            cur = cur.double();
                        }
                    }
                }
                DigitScheme::Gls => {
                    // tooth[2i + j] = 2^{32j}·φⁱ(B): one 32-doubling chain,
                    // everything else by endomorphism images
                    let mut lo = *base;
                    let mut hi = *base;
                    for _ in 0..COMB_SPACING {
                        hi = hi.double();
                    }
                    for lane in 0..4 {
                        if lane > 0 {
                            lo = S::endo_phi_proj(&lo).expect("HAS_ENDO groups provide φ");
                            hi = S::endo_phi_proj(&hi).expect("HAS_ENDO groups provide φ");
                        }
                        tooth.push(lo);
                        tooth.push(hi);
                    }
                }
            }
            // table[m] = table[m with lowest bit cleared] + tooth[lowest bit]
            let mut tbl = vec![Projective::<S>::identity(); subsets + 1];
            for m in 1..=subsets {
                let low = m & (m - 1);
                tbl[m] = tbl[low].add(&tooth[m.trailing_zeros() as usize]);
            }
            all.extend_from_slice(&tbl[1..]);
        }
        let affine = batch_to_affine(&all);
        affine.chunks(subsets).map(|c| Self { table: c.to_vec(), scheme }).collect()
    }

    /// The table entry for a non-zero comb digit.
    fn entry(&self, digit: usize) -> &Affine<S> {
        &self.table[digit - 1]
    }

    /// The base point this comb was built for (the singleton subset of
    /// tooth 0).
    fn base(&self) -> &Affine<S> {
        &self.table[0]
    }

    /// The per-column digits of `k` under this comb's scheme, or `None`
    /// when the scalar cannot be decomposed (GLS scheme, `k ≥ |x|⁴` — the
    /// caller falls back to a plain ladder on [`FixedBaseComb::base`]).
    fn digits(&self, k: &U256) -> Option<[u8; COMB_SPACING as usize]> {
        match self.scheme {
            DigitScheme::Straight => {
                let mut out = [0u8; COMB_SPACING as usize];
                for (j, d) in out.iter_mut().enumerate() {
                    let mut m = 0u8;
                    for t in 0..COMB_TEETH {
                        if k.bit(j as u32 + COMB_SPACING * t) {
                            m |= 1 << t;
                        }
                    }
                    *d = m;
                }
                Some(out)
            }
            DigitScheme::Gls => {
                let e = gls_digits(k)?;
                let mut out = [0u8; COMB_SPACING as usize];
                for (j, d) in out.iter_mut().enumerate() {
                    let mut m = 0u8;
                    for t in 0..COMB_TEETH {
                        let (lane, half) = ((t >> 1) as usize, t & 1);
                        if (e[lane] >> (32 * half + j as u32)) & 1 == 1 {
                            m |= 1 << t;
                        }
                    }
                    *d = m;
                }
                Some(out)
            }
        }
    }

    /// Single-scalar fixed-base multiplication through the comb: 32 table
    /// lookups and a 31-doubling Horner pass — no per-scalar doubling
    /// chains. Used by the shared key-generation layer
    /// ([`generator_powers`]).
    pub fn mul(&self, k: &U256) -> Projective<S> {
        let Some(digits) = self.digits(k) else {
            return self.base().to_projective().mul_u256(k);
        };
        let mut acc = Projective::identity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            if d != 0 {
                acc = acc.add_affine(self.entry(d as usize));
            }
        }
        acc
    }
}

impl<S: CurveSpec> core::fmt::Debug for FixedBaseComb<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FixedBaseComb<{}>({} entries)", S::NAME, self.table.len())
    }
}

/// `Σ scalars[i] · bases[i]` where each base is represented by its
/// prebuilt [`FixedBaseComb`].
///
/// ```
/// use vchain_bigint::U256;
/// use vchain_pairing::comb::{comb_multiexp, FixedBaseComb};
/// use vchain_pairing::{multiexp, G1Projective};
///
/// // "public key powers": g, 2g, 4g, 8g — any fixed bases work
/// let bases: Vec<G1Projective> =
///     (0..4).map(|i| G1Projective::generator().mul_u64(1 << i)).collect();
/// let combs = FixedBaseComb::build_many(&bases);
/// let scalars: Vec<U256> = (0..4).map(|i| U256::from_u64(1000 + 97 * i)).collect();
/// // 32 column lookups per scalar + one Horner pass == cold Pippenger
/// assert_eq!(comb_multiexp(&combs, &scalars), multiexp(&bases, &scalars));
/// ```
pub fn comb_multiexp<S: CurveSpec>(combs: &[FixedBaseComb<S>], scalars: &[U256]) -> Projective<S> {
    assert_eq!(combs.len(), scalars.len(), "comb multiexp length mismatch");
    // Bucket every (scalar, column) lookup by column…
    let mut columns: Vec<Vec<Affine<S>>> =
        (0..COMB_SPACING).map(|_| Vec::with_capacity(scalars.len())).collect();
    // …(scalars outside the digit domain — only possible for raw
    // non-reduced integers under the GLS scheme — fall back to a plain
    // ladder on the comb's base and join at the end)…
    let mut slow = Projective::identity();
    for (comb, k) in combs.iter().zip(scalars) {
        let Some(digits) = comb.digits(k) else {
            slow = slow.add(&comb.base().to_projective().mul_u256(k));
            continue;
        };
        for (column, &digit) in columns.iter_mut().zip(digits.iter()) {
            if digit != 0 {
                column.push(*comb.entry(digit as usize));
            }
        }
    }
    // …sum all columns with shared batched-affine rounds…
    let sums = sum_affine_groups(columns.iter().map(|column| column.iter().copied()));
    // …and combine with one Horner pass: Σ 2ʲ·S_j.
    let mut acc = Projective::identity();
    for s in sums.iter().rev() {
        acc = acc.double().add(s);
    }
    acc.add(&slow)
}

/// Build the power vector `k₀·G, k₁·G, …` of the group generator through
/// a comb of `G` — the shared fixed-base layer of *both* accumulator key
/// generations. Each power costs 32 comb lookups plus a 31-doubling
/// Horner pass, against ~64 full-width window additions for the naive
/// per-scalar table walk it replaced (`G2` combs additionally build their
/// teeth from endomorphism images).
pub fn generator_powers<S: CurveSpec>(scalars: &[U256]) -> Vec<Projective<S>> {
    let comb = &FixedBaseComb::<S>::build_many(&[Projective::generator()])[0];
    scalars.iter().map(|k| comb.mul(k)).collect()
}

/// Lazily built comb tables over a prefix of a fixed power vector
/// `g^{s⁰}, g^{s¹}, …` — the shape of an accumulator public key.
///
/// The cache starts empty and grows geometrically the first time a
/// commitment needs a longer prefix, so a key only ever pays for the
/// degrees its workload actually commits. Commitments past `limit` fall
/// back to the cold Pippenger [`multiexp`] (they amortize their own window
/// sweep, and an unbounded cache over an 8192-power key would cost
/// hundreds of MiB).
///
/// ```
/// use vchain_bigint::U256;
/// use vchain_pairing::comb::PowersCombCache;
/// use vchain_pairing::{multiexp, G1Projective};
///
/// let powers: Vec<G1Projective> =
///     (0..6u64).map(|i| G1Projective::generator().mul_u64(100 + i)).collect();
/// let cache = PowersCombCache::new(4); // combs cover at most 4 powers
/// let scalars: Vec<U256> = (3..6u64).map(U256::from_u64).collect();
/// let fast = cache.multiexp(&powers, &scalars); // builds combs for powers[..3]
/// assert_eq!(fast, multiexp(&powers[..3], &scalars));
/// let all: Vec<U256> = (1..7u64).map(U256::from_u64).collect();
/// // 6 > limit: transparently served by the fallback path instead
/// assert_eq!(cache.multiexp(&powers, &all), multiexp(&powers, &all));
/// ```
pub struct PowersCombCache<S: CurveSpec> {
    combs: RwLock<Vec<FixedBaseComb<S>>>,
    limit: usize,
}

impl<S: CurveSpec> PowersCombCache<S> {
    /// An empty cache that will precompute combs for at most the first
    /// `limit` powers.
    pub fn new(limit: usize) -> Self {
        Self { combs: RwLock::new(Vec::new()), limit }
    }

    /// The comb-coverage bound this cache was created with.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// How many powers currently have comb tables (for diagnostics).
    pub fn covered(&self) -> usize {
        self.combs.read().expect("comb cache poisoned").len()
    }

    /// `Σ scalars[i] · powers[i]`, through the comb tables when
    /// `scalars.len() ≤ limit` (building any missing prefix first) and
    /// through the generic [`multiexp`] otherwise.
    ///
    /// Panics if there are more scalars than powers — the cache commits
    /// against a *prefix* of the power vector, so that call has no
    /// meaning.
    pub fn multiexp(&self, powers: &[Projective<S>], scalars: &[U256]) -> Projective<S> {
        let n = scalars.len();
        assert!(
            n <= powers.len(),
            "PowersCombCache::multiexp: {n} scalars against {} powers",
            powers.len()
        );
        if n == 0 {
            return Projective::identity();
        }
        if n > self.limit {
            return multiexp(&powers[..n], scalars);
        }
        {
            let combs = self.combs.read().expect("comb cache poisoned");
            if combs.len() >= n {
                return comb_multiexp(&combs[..n], scalars);
            }
        }
        {
            // Grow geometrically so repeated slightly-larger requests do
            // not rebuild from scratch each time. The write guard covers
            // only table construction; the multi-exponentiation below runs
            // under a read guard so concurrent committers are not
            // serialized behind it.
            let mut combs = self.combs.write().expect("comb cache poisoned");
            if combs.len() < n {
                let target = n.max(2 * combs.len()).max(16).min(self.limit).min(powers.len());
                let built = FixedBaseComb::build_many(&powers[combs.len()..target]);
                combs.extend(built);
            }
        }
        let combs = self.combs.read().expect("comb cache poisoned");
        comb_multiexp(&combs[..n], scalars)
    }
}

impl<S: CurveSpec> core::fmt::Debug for PowersCombCache<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PowersCombCache<{}>({}/{} covered)", S::NAME, self.covered(), self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{G1Projective, G1Spec, G2Projective};
    use crate::field::Field;
    use crate::fp::Fr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn powers<S: CurveSpec>(g: Projective<S>, n: usize) -> Vec<Projective<S>> {
        // distinct, structureless-enough bases: g^(i²+1)
        (0..n).map(|i| g.mul_u64((i * i + 1) as u64)).collect()
    }

    fn rand_scalars(n: usize, seed: u64) -> Vec<U256> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Fr::random(&mut rng).to_uint()).collect()
    }

    #[test]
    fn comb_matches_multiexp_g1() {
        for n in [1usize, 2, 5, 16] {
            let bases = powers(G1Projective::generator(), n);
            let combs = FixedBaseComb::build_many(&bases);
            let scalars = rand_scalars(n, 7 + n as u64);
            assert_eq!(comb_multiexp(&combs, &scalars), multiexp(&bases, &scalars), "n = {n}");
        }
    }

    #[test]
    fn comb_matches_multiexp_g2() {
        let bases = powers(G2Projective::generator(), 6);
        let combs = FixedBaseComb::build_many(&bases);
        let scalars = rand_scalars(6, 99);
        assert_eq!(comb_multiexp(&combs, &scalars), multiexp(&bases, &scalars));
    }

    #[test]
    fn comb_handles_degenerate_scalars() {
        let bases = powers(G1Projective::generator(), 4);
        let combs = FixedBaseComb::build_many(&bases);
        // zeros, ones, and a maximal-ish scalar with every tooth set
        let scalars = vec![
            U256::from_u64(0),
            U256::from_u64(1),
            Fr::from_u64(u64::MAX).to_uint(),
            (-Fr::one()).to_uint(), // r − 1: top bits set in every spacing band
        ];
        assert_eq!(comb_multiexp(&combs, &scalars), multiexp(&bases, &scalars));
    }

    #[test]
    fn comb_digit_reassembles_scalar() {
        // Σ_j 2^j · digit_j(k) interpreted tooth-wise must reproduce k.
        let k = rand_scalars(1, 3)[0];
        let comb = &FixedBaseComb::<G1Spec>::build_many(&[G1Projective::generator()])[0];
        assert_eq!(comb.scheme, DigitScheme::Straight);
        let digits = comb.digits(&k).expect("straight digits always exist");
        let mut acc = [0u64; 4];
        for (j, &m) in digits.iter().enumerate() {
            for t in 0..COMB_TEETH {
                if m & (1 << t) != 0 {
                    let bit = j as u32 + COMB_SPACING * t;
                    acc[(bit / 64) as usize] |= 1u64 << (bit % 64);
                }
            }
        }
        assert_eq!(acc, k.0);
    }

    #[test]
    fn gls_comb_digits_reassemble_decomposition() {
        // Under the GLS scheme, tooth t = 2i + j of column c must carry bit
        // 32j + c of the base-|x| digit eᵢ.
        let k = rand_scalars(1, 11)[0];
        let comb =
            &FixedBaseComb::<crate::curve::G2Spec>::build_many(&[G2Projective::generator()])[0];
        assert_eq!(comb.scheme, DigitScheme::Gls);
        let digits = comb.digits(&k).expect("reduced scalars decompose");
        let e = crate::curve::gls_digits(&k).unwrap();
        let mut acc = [0u64; 4];
        for (c, &m) in digits.iter().enumerate() {
            for t in 0..COMB_TEETH {
                if m & (1 << t) != 0 {
                    acc[(t >> 1) as usize] |= 1u64 << (32 * (t & 1) + c as u32);
                }
            }
        }
        assert_eq!(acc, e);
    }

    #[test]
    fn comb_single_mul_matches_ladder() {
        let g1 = G1Projective::generator().mul_u64(3);
        let g2 = G2Projective::generator().mul_u64(3);
        let c1 = &FixedBaseComb::build_many(&[g1])[0];
        let c2 = &FixedBaseComb::build_many(&[g2])[0];
        for k in rand_scalars(4, 17) {
            assert_eq!(c1.mul(&k), g1.mul_u256(&k));
            assert_eq!(c2.mul(&k), g2.mul_u256(&k));
        }
        assert!(c1.mul(&U256::ZERO).is_identity());
        // a full-width raw integer exceeds the GLS digit domain and must
        // take the fallback ladder, still correctly
        let mut huge = U256::ZERO;
        huge.0[3] = u64::MAX;
        assert_eq!(c2.mul(&huge), g2.mul_u256(&huge));
    }

    #[test]
    fn generator_powers_match_naive_ladder() {
        let scalars = rand_scalars(5, 23);
        let g1 = generator_powers::<G1Spec>(&scalars);
        let g2 = generator_powers::<crate::curve::G2Spec>(&scalars);
        for ((k, p1), p2) in scalars.iter().zip(&g1).zip(&g2) {
            assert_eq!(*p1, G1Projective::generator().mul_u256(k));
            assert_eq!(*p2, G2Projective::generator().mul_u256(k));
        }
    }

    #[test]
    fn cache_grows_lazily_and_falls_back() {
        let bases = powers(G1Projective::generator(), 12);
        let cache: PowersCombCache<G1Spec> = PowersCombCache::new(8);
        assert_eq!(cache.covered(), 0);
        let s3 = rand_scalars(3, 1);
        assert_eq!(cache.multiexp(&bases, &s3), multiexp(&bases[..3], &s3));
        assert!(cache.covered() >= 3, "prefix built on demand");
        let s8 = rand_scalars(8, 2);
        assert_eq!(cache.multiexp(&bases, &s8), multiexp(&bases[..8], &s8));
        assert_eq!(cache.covered(), 8, "growth clamps to the limit");
        // beyond the limit: correct answer via the fallback, no growth
        let s12 = rand_scalars(12, 3);
        assert_eq!(cache.multiexp(&bases, &s12), multiexp(&bases, &s12));
        assert_eq!(cache.covered(), 8);
    }

    #[test]
    fn empty_comb_multiexp_is_identity() {
        assert_eq!(comb_multiexp::<G1Spec>(&[], &[]), Projective::identity());
    }
}
