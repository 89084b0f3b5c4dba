//! Multi-program workload mixes: enumeration and sampling.
//!
//! For `N` benchmarks and `M` cores there are `C(N+M−1, M)` distinct
//! multi-program workloads (combinations with repetition) — 435 two-program
//! mixes for SPEC CPU2006's 29 benchmarks, 35,960 four-program mixes, and
//! over 30 million eight-program mixes (paper §1). This module provides the
//! exact count, a lazy enumerator, and the random / per-category sampling
//! procedures that "current practice" uses (paper §5).

use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from mix-space counting, ranking and sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MixSpaceError {
    /// The exact mix count `C(n+m−1, m)` does not fit in a `u128`.
    Overflow {
        /// Number of benchmarks.
        n: usize,
        /// Programs per mix.
        m: usize,
    },
    /// A rank is outside the `0..total` enumeration range.
    RankOutOfRange {
        /// The offending rank.
        rank: u128,
        /// Size of the mix space.
        total: u128,
    },
    /// More distinct mixes were requested than the space contains.
    SampleTooLarge {
        /// Requested sample size.
        requested: usize,
        /// Size of the mix space.
        total: u128,
    },
}

impl fmt::Display for MixSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixSpaceError::Overflow { n, m } => {
                write!(f, "mix count C({}+{m}-1, {m}) overflows u128", n)
            }
            MixSpaceError::RankOutOfRange { rank, total } => {
                write!(f, "mix rank {rank} is outside the space of {total} mixes")
            }
            MixSpaceError::SampleTooLarge { requested, total } => {
                write!(f, "cannot draw {requested} distinct mixes from a space of {total}")
            }
        }
    }
}

impl std::error::Error for MixSpaceError {}

/// A multi-program workload: a multiset of benchmark indices, stored
/// sorted so equal mixes compare equal.
///
/// # Example
///
/// ```
/// use mppm::mix::Mix;
///
/// let a = Mix::new(vec![3, 1, 3]);
/// let b = Mix::new(vec![3, 3, 1]);
/// assert_eq!(a, b);
/// assert_eq!(a.members(), &[1, 3, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Mix {
    members: Vec<usize>,
}

impl Mix {
    /// Creates a mix; members are sorted into canonical order.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(mut members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "a mix needs at least one program");
        members.sort_unstable();
        Self { members }
    }

    /// Benchmark indices, sorted ascending (with repetition).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of programs (cores) in the mix.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the mix is empty (never true for a constructed mix).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Resolves the mix against a slice of per-benchmark values (profiles,
    /// names, ...), yielding one reference per program.
    pub fn resolve<'a, T>(&self, items: &'a [T]) -> Vec<&'a T> {
        self.members.iter().map(|&i| &items[i]).collect()
    }
}

/// Binomial coefficient `C(a, b)` with checked arithmetic, in
/// `O(min(b, a−b))` steps and no allocation.
///
/// Steps through `C(a−b+k, k)` for `k = 1..=b`; each is no larger than the
/// result, and [`scale`] returns `None` only when the step's true value
/// overflows. So `None` is returned exactly when `C(a, b)` does not fit in
/// a `u128`, not when some product along the way does.
fn binomial(a: usize, b: usize) -> Option<u128> {
    if b > a {
        return Some(0);
    }
    let b = b.min(a - b);
    let top = (a - b) as u128;
    (1..=b as u128).try_fold(1u128, |c, k| scale(c, top + k, k))
}

/// `c·x / y` for a quotient known to be an integer, or `None` if the
/// quotient overflows `u128`. When the product itself would overflow the
/// factors are first reduced by `g = gcd(c, y)`: `y/g` then divides `x`
/// (it is coprime to `c/g` and divides `(c/g)·x`), so the remaining
/// product is the quotient itself.
fn scale(c: u128, x: u128, y: u128) -> Option<u128> {
    if let Some(p) = c.checked_mul(x) {
        return Some(p / y);
    }
    let g = gcd(c, y);
    (c / g).checked_mul(x / (y / g))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Exact number of distinct `m`-program mixes over `n` benchmarks:
/// `C(n+m−1, m)`.
///
/// # Errors
///
/// Returns [`MixSpaceError::Overflow`] when the count does not fit in a
/// `u128` (the arithmetic is fully checked; there is no silent wrap).
///
/// # Example
///
/// ```
/// use mppm::mix::count_mixes;
///
/// // The paper's counts for SPEC CPU2006 (§1):
/// assert_eq!(count_mixes(29, 2), Ok(435));
/// assert_eq!(count_mixes(29, 4), Ok(35_960));
/// assert_eq!(count_mixes(29, 8), Ok(30_260_340));
/// ```
pub fn count_mixes(n: usize, m: usize) -> Result<u128, MixSpaceError> {
    if n == 0 {
        return Ok(u128::from(m == 0));
    }
    let overflow = || MixSpaceError::Overflow { n, m };
    let a = n.checked_add(m).and_then(|s| s.checked_sub(1)).ok_or_else(overflow)?;
    binomial(a, m).ok_or_else(overflow)
}

/// Lexicographic rank of `mix` within [`enumerate_mixes`]`(n, mix.len())`.
///
/// The rank is the number of mixes that enumerate before `mix`, so
/// `unrank_mix(n, m, mix_rank(&mix, n)?) == Ok(mix)`.
///
/// # Errors
///
/// [`MixSpaceError::Overflow`] if an intermediate count overflows `u128`.
///
/// # Panics
///
/// Panics if any member of `mix` is `>= n`.
pub fn mix_rank(mix: &Mix, n: usize) -> Result<u128, MixSpaceError> {
    let m = mix.len();
    let overflow = || MixSpaceError::Overflow { n, m };
    let mut rank: u128 = 0;
    let mut lo = 0usize;
    for (i, &member) in mix.members().iter().enumerate() {
        assert!(member < n, "mix member {member} out of range for {n} benchmarks");
        let remaining = m - 1 - i;
        if lo < member {
            // Completions of `remaining` slots over [v, n): C(a, remaining)
            // with a = n−v+remaining−1, counted once at v = lo (the largest
            // count, so the only one that can overflow) and stepped down
            // for each later v.
            let mut c = count_mixes(n - lo, remaining)?;
            let mut a = (n - lo + remaining - 1) as u128;
            for _ in lo..member {
                rank = rank.checked_add(c).ok_or_else(overflow)?;
                c = scale(c, a - remaining as u128, a).expect("a smaller count fits");
                a -= 1;
            }
        }
        lo = member;
    }
    Ok(rank)
}

/// Inverse of [`mix_rank`]: the `rank`-th mix (0-based) in the
/// lexicographic enumeration of `m`-program mixes over `n` benchmarks.
///
/// Walks the counts incrementally from the space's size: `O(n + m)`
/// exact multiply-divides, no allocation beyond the returned mix.
///
/// # Errors
///
/// [`MixSpaceError::RankOutOfRange`] if `rank >= count_mixes(n, m)`, and
/// [`MixSpaceError::Overflow`] if the space itself is uncountable.
///
/// # Example
///
/// ```
/// use mppm::mix::{enumerate_mixes, unrank_mix};
///
/// let third = enumerate_mixes(5, 3).nth(17).unwrap();
/// assert_eq!(unrank_mix(5, 3, 17), Ok(third));
/// ```
pub fn unrank_mix(n: usize, m: usize, rank: u128) -> Result<Mix, MixSpaceError> {
    assert!(m > 0, "mixes need at least one program");
    let total = count_mixes(n, m)?;
    if rank >= total {
        return Err(MixSpaceError::RankOutOfRange { rank, total });
    }
    // `c` counts the completions of the `r` slots after the current one
    // once it holds benchmark `v`: C(a, r) with a = n−v+r−1. Every count
    // is at most `total`, so no step overflows.
    let mut rank = rank;
    let mut members = Vec::with_capacity(m);
    let (mut v, mut r) = (0usize, m - 1);
    let mut a = (n + m - 2) as u128;
    let mut c = scale(total, m as u128, a + 1).expect("a smaller count fits");
    loop {
        if rank < c {
            members.push(v);
            if r == 0 {
                break;
            }
            // One slot fewer, same benchmark: C(a−1, r−1) = C(a, r)·r/a.
            c = scale(c, r as u128, a).expect("a smaller count fits");
            r -= 1;
        } else {
            rank -= c;
            // Same slots, next benchmark: C(a−1, r) = C(a, r)·(a−r)/a.
            c = scale(c, a - r as u128, a).expect("a smaller count fits");
            v += 1;
        }
        a -= 1;
    }
    debug_assert_eq!(members.len(), m, "rank was within the space");
    Ok(Mix { members })
}

/// Draws a uniform `u128` below `span` by rejection sampling (unbiased,
/// deterministic per RNG state).
fn gen_below_u128(rng: &mut impl RngCore, span: u128) -> u128 {
    assert!(span > 0, "cannot sample an empty range");
    let rem = u128::MAX % span;
    // When 2^128 ≡ 0 (mod span) every draw is already unbiased; otherwise
    // reject draws at or above the largest multiple of `span`.
    if rem == span - 1 {
        let v = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        return v % span;
    }
    let limit = u128::MAX - rem;
    loop {
        let v = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        if v < limit {
            return v % span;
        }
    }
}

/// Deterministic seeded sample *without replacement*: `count` distinct
/// mixes drawn by stratifying the rank space `0..count_mixes(n, m)` into
/// `count` equal-width strata and unranking one uniform rank per stratum.
///
/// Stratification guarantees the sample is duplicate-free, covers the
/// whole enumeration range, and — because it goes through
/// [`unrank_mix`] — is reproducible from the RNG seed alone. This is the
/// mix source campaigns use when the full space is too large.
///
/// # Errors
///
/// [`MixSpaceError::SampleTooLarge`] if `count` exceeds the space, plus
/// any counting overflow.
///
/// # Panics
///
/// Panics if `count` or `m` is zero.
pub fn sample_stratified(
    n: usize,
    m: usize,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<Mix>, MixSpaceError> {
    assert!(count > 0, "need at least one sample");
    assert!(m > 0, "mixes need at least one program");
    let total = count_mixes(n, m)?;
    if (count as u128) > total {
        return Err(MixSpaceError::SampleTooLarge { requested: count, total });
    }
    let base = total / count as u128;
    let extra = total % count as u128;
    // Strata: the first `extra` strata are one wider, partitioning
    // `0..total` exactly.
    let mut start: u128 = 0;
    let mut out = Vec::with_capacity(count);
    for s in 0..count as u128 {
        let width = base + u128::from(s < extra);
        let rank = start + gen_below_u128(rng, width);
        out.push(unrank_mix(n, m, rank)?);
        start += width;
    }
    Ok(out)
}

/// Lazy enumerator of every distinct `m`-program mix over `n` benchmarks,
/// in lexicographic order.
///
/// # Example
///
/// ```
/// use mppm::mix::{count_mixes, enumerate_mixes};
///
/// let all: Vec<_> = enumerate_mixes(3, 2).collect();
/// assert_eq!(all.len() as u128, count_mixes(3, 2).unwrap());
/// ```
pub fn enumerate_mixes(n: usize, m: usize) -> EnumerateMixes {
    assert!(m > 0, "mixes need at least one program");
    let state = if n == 0 { None } else { Some(vec![0; m]) };
    EnumerateMixes { n, state }
}

/// Enumerates mixes lexicographically starting *at* `start` (inclusive).
///
/// Combined with [`unrank_mix`] this gives cheap range iteration over a
/// huge mix space: unrank the range's first rank once (O(n + m) count
/// work), then advance in O(m) per mix — the campaign executor walks
/// 30M-mix shard ranges this way without ever materializing the space.
///
/// # Panics
///
/// Panics if `start` is empty or any member is `>= n`.
///
/// # Example
///
/// ```
/// use mppm::mix::{enumerate_mixes, enumerate_mixes_from, unrank_mix};
///
/// let all: Vec<_> = enumerate_mixes(4, 2).collect();
/// let fifth = unrank_mix(4, 2, 5).unwrap();
/// let tail: Vec<_> = enumerate_mixes_from(4, &fifth).collect();
/// assert_eq!(&all[5..], &tail[..]);
/// ```
pub fn enumerate_mixes_from(n: usize, start: &Mix) -> EnumerateMixes {
    let members = start.members();
    assert!(!members.is_empty(), "mixes need at least one program");
    assert!(
        members.iter().all(|&b| b < n),
        "start mix references a benchmark outside 0..{n}"
    );
    EnumerateMixes { n, state: Some(members.to_vec()) }
}

/// Iterator returned by [`enumerate_mixes`].
#[derive(Debug, Clone)]
pub struct EnumerateMixes {
    n: usize,
    /// Next non-decreasing index vector to yield, or `None` when done.
    state: Option<Vec<usize>>,
}

impl Iterator for EnumerateMixes {
    type Item = Mix;

    fn next(&mut self) -> Option<Mix> {
        let current = self.state.clone()?;
        // Advance to the next non-decreasing vector.
        let mut next = current.clone();
        let m = next.len();
        let mut i = m;
        loop {
            if i == 0 {
                self.state = None;
                break;
            }
            i -= 1;
            if next[i] + 1 < self.n {
                let v = next[i] + 1;
                for slot in next.iter_mut().skip(i) {
                    *slot = v;
                }
                self.state = Some(next);
                break;
            }
        }
        Some(Mix { members: current })
    }
}

/// Samples `count` mixes of `m` programs uniformly (each slot independently
/// uniform over the `n` benchmarks — the paper's "randomly chosen"
/// workloads). Duplicates across samples are possible, as in practice.
///
/// # Panics
///
/// Panics if `n` or `m` is zero.
pub fn sample_random(n: usize, m: usize, count: usize, rng: &mut impl Rng) -> Vec<Mix> {
    assert!(n > 0 && m > 0, "need at least one benchmark and one slot");
    (0..count).map(|_| Mix::new((0..m).map(|_| rng.gen_range(0..n)).collect())).collect()
}

/// Samples `count` mixes with every member drawn from `pool` (a workload
/// *category*, e.g. the memory-intensive benchmarks).
///
/// # Panics
///
/// Panics if `pool` is empty or `m` is zero.
pub fn sample_from_pool(pool: &[usize], m: usize, count: usize, rng: &mut impl Rng) -> Vec<Mix> {
    assert!(!pool.is_empty(), "category pool must not be empty");
    assert!(m > 0, "need at least one slot");
    (0..count)
        .map(|_| Mix::new((0..m).map(|_| pool[rng.gen_range(0..pool.len())]).collect()))
        .collect()
}

/// Samples a "mixed" workload: half the slots (rounded up) from `pool_a`,
/// the rest from `pool_b` — the paper's compute+memory mixed category.
///
/// # Panics
///
/// Panics if either pool is empty or `m` is zero.
pub fn sample_mixed(
    pool_a: &[usize],
    pool_b: &[usize],
    m: usize,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Mix> {
    assert!(!pool_a.is_empty() && !pool_b.is_empty(), "pools must not be empty");
    assert!(m > 0, "need at least one slot");
    (0..count)
        .map(|_| {
            let a_slots = m.div_ceil(2);
            let mut members: Vec<usize> =
                (0..a_slots).map(|_| pool_a[rng.gen_range(0..pool_a.len())]).collect();
            members
                .extend((a_slots..m).map(|_| pool_b[rng.gen_range(0..pool_b.len())]));
            Mix::new(members)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn mix_is_canonical() {
        assert_eq!(Mix::new(vec![2, 0, 1]).members(), &[0, 1, 2]);
        assert_eq!(Mix::new(vec![5, 5]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn empty_mix_panics() {
        Mix::new(vec![]);
    }

    #[test]
    fn resolve_maps_indices() {
        let names = ["a", "b", "c"];
        let mix = Mix::new(vec![2, 0, 2]);
        let resolved: Vec<&str> = mix.resolve(&names).into_iter().copied().collect();
        assert_eq!(resolved, vec!["a", "c", "c"]);
    }

    #[test]
    fn count_matches_paper() {
        assert_eq!(count_mixes(29, 2), Ok(435));
        assert_eq!(count_mixes(29, 4), Ok(35_960));
        assert_eq!(count_mixes(29, 8), Ok(30_260_340));
    }

    #[test]
    fn count_edge_cases() {
        assert_eq!(count_mixes(1, 5), Ok(1));
        assert_eq!(count_mixes(5, 1), Ok(5));
        assert_eq!(count_mixes(0, 3), Ok(0));
        assert_eq!(count_mixes(0, 0), Ok(1));
        assert_eq!(count_mixes(7, 0), Ok(1));
    }

    #[test]
    fn count_overflow_boundary() {
        // C(130, 65) ≈ 9.5e37 still fits in a u128 (max ≈ 3.4e38)...
        let close = count_mixes(66, 65).expect("C(130, 65) fits");
        assert!(close > 9 * 10u128.pow(37), "got {close}");
        // ...and satisfies Pascal's identity C(130,65) = C(129,64) + C(129,65),
        // which pins the value without a 39-digit literal.
        let left = count_mixes(66, 64).unwrap(); // C(129, 64)
        let right = count_mixes(65, 65).unwrap(); // C(129, 65)
        assert_eq!(close, left + right);
        // C(132, 66) ≈ 3.8e38 is just past the u128 limit: a typed error,
        // never a silent wrap.
        assert_eq!(count_mixes(67, 66), Err(MixSpaceError::Overflow { n: 67, m: 66 }));
        // Grossly oversized spaces also error cleanly.
        assert_eq!(count_mixes(1000, 500), Err(MixSpaceError::Overflow { n: 1000, m: 500 }));
    }

    /// `C(a, b)` by Pascal's rule over one row: every intermediate is a
    /// binomial no larger than the result, so `None` means exactly that
    /// the result overflows `u128`. The oracle for [`binomial`].
    fn pascal_binomial(a: usize, b: usize) -> Option<u128> {
        if b > a {
            return Some(0);
        }
        let b = b.min(a - b);
        let mut row = vec![0u128; b + 1];
        row[0] = 1;
        for i in 1..=a {
            for j in (1..=b.min(i)).rev() {
                row[j] = row[j].checked_add(row[j - 1])?;
            }
        }
        Some(row[b])
    }

    #[test]
    fn binomial_matches_pascal_up_to_the_u128_limit() {
        // Every row up to 140 crosses the u128 limit (C(132, 66) is the
        // first overflow), so both the exact values and the exact overflow
        // frontier are compared.
        for a in 0..=140 {
            for b in 0..=a + 1 {
                assert_eq!(binomial(a, b), pascal_binomial(a, b), "C({a}, {b})");
            }
        }
    }

    #[test]
    fn rank_overflow_errors_are_unchanged() {
        // An all-zeros mix needs no counts, so it ranks even in a space
        // too large to count.
        assert_eq!(mix_rank(&Mix::new(vec![0; 500]), 1000), Ok(0));
        // The first count a rank needs names its own sub-space.
        let mut members = vec![1; 500];
        members[0] = 0;
        assert_eq!(
            mix_rank(&Mix::new(members), 1000),
            Err(MixSpaceError::Overflow { n: 1000, m: 498 })
        );
        // Unranking counts the whole space first.
        assert_eq!(unrank_mix(1000, 500, 0), Err(MixSpaceError::Overflow { n: 1000, m: 500 }));
        // Near the limit every intermediate still fits: the last mix of
        // C(130, 65) round-trips.
        let total = count_mixes(66, 65).unwrap();
        let last = unrank_mix(66, 65, total - 1).unwrap();
        assert_eq!(last.members(), &[65; 65]);
        assert_eq!(mix_rank(&last, 66), Ok(total - 1));
    }

    #[test]
    fn rank_round_trips_exhaustively() {
        for (n, m) in [(3, 2), (4, 3), (2, 4), (5, 1), (6, 2)] {
            let total = count_mixes(n, m).unwrap();
            for (i, mix) in enumerate_mixes(n, m).enumerate() {
                assert_eq!(mix_rank(&mix, n), Ok(i as u128), "n={n} m={m}");
                assert_eq!(unrank_mix(n, m, i as u128), Ok(mix), "n={n} m={m} i={i}");
            }
            assert_eq!(
                unrank_mix(n, m, total),
                Err(MixSpaceError::RankOutOfRange { rank: total, total })
            );
        }
    }

    #[test]
    fn rank_round_trips_at_paper_scale() {
        // Spot-check the 4-core SPEC space (35,960 mixes) without
        // enumerating it: rank(unrank(r)) == r at scattered ranks.
        let total = count_mixes(29, 4).unwrap();
        for r in [0u128, 1, 434, 17_980, 35_959] {
            assert!(r < total);
            let mix = unrank_mix(29, 4, r).unwrap();
            assert_eq!(mix_rank(&mix, 29), Ok(r));
        }
    }

    #[test]
    fn stratified_samples_are_deterministic_distinct_and_ordered() {
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        let sa = sample_stratified(29, 4, 500, &mut a).unwrap();
        let sb = sample_stratified(29, 4, 500, &mut b).unwrap();
        assert_eq!(sa, sb, "seeded draws are reproducible");
        let set: HashSet<_> = sa.iter().collect();
        assert_eq!(set.len(), sa.len(), "without replacement");
        // Stratification implies enumeration order.
        let ranks: Vec<u128> = sa.iter().map(|m| mix_rank(m, 29).unwrap()).collect();
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "strata are disjoint and ordered");
    }

    /// FNV-1a over every member of every mix, in order.
    fn digest(mixes: &[Mix]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in mixes.iter().flat_map(|m| m.members()).flat_map(|v| (*v as u64).to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn stratified_samples_are_pinned_for_fixed_seeds() {
        // Digests of the samples as first drawn, so a change to counting
        // or unranking cannot silently move a seeded campaign's mixes.
        // (66, 65) sits just below the u128 limit of the space size.
        for (n, m, count, seed, want) in [
            (29, 8, 4000, 7, 0x2f59_fcb7_d16d_14b4_u64),
            (29, 4, 500, 11, 0x3083_dfb1_64cb_1dbc),
            (29, 2, 435, 3, 0xb77a_54c2_dfce_60a5),
            (13, 5, 97, 42, 0x5dc6_9583_41c6_aa89),
            (66, 65, 9, 1, 0x81cd_3032_318b_93a0),
        ] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sample = sample_stratified(n, m, count, &mut rng).unwrap();
            assert_eq!(digest(&sample), want, "n={n} m={m} count={count} seed={seed}");
        }
    }

    #[test]
    fn stratified_full_space_is_the_enumeration() {
        let total = count_mixes(5, 3).unwrap() as usize;
        let mut rng = SmallRng::seed_from_u64(1);
        let sample = sample_stratified(5, 3, total, &mut rng).unwrap();
        let all: Vec<Mix> = enumerate_mixes(5, 3).collect();
        assert_eq!(sample, all, "count == total degenerates to exhaustive enumeration");
        assert_eq!(
            sample_stratified(5, 3, total + 1, &mut rng),
            Err(MixSpaceError::SampleTooLarge { requested: total + 1, total: total as u128 })
        );
    }

    #[test]
    fn enumeration_is_exhaustive_and_unique() {
        for (n, m) in [(3, 2), (4, 3), (5, 1), (2, 4)] {
            let all: Vec<Mix> = enumerate_mixes(n, m).collect();
            assert_eq!(all.len() as u128, count_mixes(n, m).unwrap(), "n={n} m={m}");
            let set: HashSet<_> = all.iter().collect();
            assert_eq!(set.len(), all.len(), "no duplicates for n={n} m={m}");
            for mix in &all {
                assert!(mix.members().windows(2).all(|w| w[0] <= w[1]));
                assert!(mix.members().iter().all(|&i| i < n));
            }
        }
    }

    #[test]
    fn enumeration_is_lexicographic() {
        let all: Vec<Mix> = enumerate_mixes(3, 2).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        assert_eq!(all[0].members(), &[0, 0]);
        assert_eq!(all.last().unwrap().members(), &[2, 2]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert_eq!(sample_random(29, 4, 10, &mut a), sample_random(29, 4, 10, &mut b));
    }

    #[test]
    fn sampling_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for mix in sample_random(7, 3, 100, &mut rng) {
            assert_eq!(mix.len(), 3);
            assert!(mix.members().iter().all(|&i| i < 7));
        }
    }

    #[test]
    fn pool_sampling_stays_in_pool() {
        let pool = [2, 4, 6];
        let mut rng = SmallRng::seed_from_u64(2);
        for mix in sample_from_pool(&pool, 4, 50, &mut rng) {
            assert!(mix.members().iter().all(|i| pool.contains(i)));
        }
    }

    proptest! {
        #[test]
        fn prop_rank_round_trips(n in 1usize..14, m in 1usize..6, r in 0u64..u64::MAX) {
            // n >= 1, so the space is never empty.
            let total = count_mixes(n, m).unwrap();
            let rank = u128::from(r) % total;
            let mix = unrank_mix(n, m, rank).unwrap();
            prop_assert_eq!(mix.len(), m);
            prop_assert!(mix.members().iter().all(|&i| i < n));
            prop_assert_eq!(mix_rank(&mix, n), Ok(rank));
        }

        #[test]
        fn prop_stratified_is_duplicate_free(
            n in 2usize..12,
            m in 1usize..5,
            count in 1usize..40,
            seed in 0u64..10_000,
        ) {
            let total = count_mixes(n, m).unwrap();
            let count = count.min(total as usize);
            let mut rng = SmallRng::seed_from_u64(seed);
            let sample = sample_stratified(n, m, count, &mut rng).unwrap();
            prop_assert_eq!(sample.len(), count);
            let distinct: HashSet<_> = sample.iter().collect();
            prop_assert_eq!(distinct.len(), count, "duplicate in {:?}", sample);
        }
    }

    #[test]
    fn mixed_sampling_draws_from_both_pools() {
        let a = [0, 1];
        let b = [8, 9];
        let mut rng = SmallRng::seed_from_u64(3);
        for mix in sample_mixed(&a, &b, 4, 50, &mut rng) {
            let from_a = mix.members().iter().filter(|&&i| i < 2).count();
            let from_b = mix.members().iter().filter(|&&i| i >= 8).count();
            assert_eq!(from_a, 2);
            assert_eq!(from_b, 2);
        }
        // Odd m: extra slot goes to pool a.
        for mix in sample_mixed(&a, &b, 3, 20, &mut rng) {
            let from_a = mix.members().iter().filter(|&&i| i < 2).count();
            assert_eq!(from_a, 2);
        }
    }
}
