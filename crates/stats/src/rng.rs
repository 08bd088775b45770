//! Deterministic pseudo-random number generation.
//!
//! The whole workspace draws its randomness from this module so that every
//! simulated cost, sampled workload, state partition and fitted coefficient
//! is a pure function of the seeds an experiment was launched with — the
//! repeatability the paper's controlled dynamic environment depends on.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded through
//! **SplitMix64** so that small consecutive seeds (0, 1, 2, …) still yield
//! well-separated streams. Both algorithms are public-domain and implemented
//! here from their reference descriptions; no third-party RNG crate is used
//! anywhere in the workspace.
//!
//! ```
//! use mdbs_stats::rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! ```

/// The SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion only; the long-lived stream is xoshiro256++.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a root seed and a stable stream key.
///
/// The batch-derivation machinery gives every job its own well-separated
/// RNG stream: `split_stream(root, key)` mixes the key into the SplitMix64
/// state before one mixing step, so nearby keys (and nearby roots) yield
/// statistically independent child seeds. The mapping is pure, so a batch
/// run is reproducible from `(root, key)` alone regardless of how many
/// worker threads execute it or in which order.
pub fn split_stream(root: u64, key: u64) -> u64 {
    let mut state = root ^ key.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// A seedable deterministic pseudo-random number generator (xoshiro256++).
///
/// Cloning an `Rng` clones its position in the stream, so a clone replays
/// exactly the draws the original would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Moves past the next `n` outputs without using them: the state `n`
    /// calls of [`Self::next_u64`] leave behind.
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range` — accepts half-open (`lo..hi`) and
    /// inclusive (`lo..=hi`) ranges over `u64`, `u32`, `usize` and `f64`.
    ///
    /// Panics on an empty range, mirroring the standard-library convention
    /// for slicing: asking for a draw from nothing is a caller bug.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded(slice.len() as u64) as usize])
        }
    }

    /// A standard-normal-derived draw `mean + std_dev · Z` via the
    /// Box–Muller transform (moved here from `mdbs-sim::util` so every
    /// crate shares one Gaussian source).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // u1 in (0, 1] guards against ln(0); u2 in [0, 1).
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// A uniform integer in `[0, span)` via widening multiply.
    ///
    /// The multiply-shift map has a selection bias below `2⁻⁴⁰` for every
    /// span this workspace uses (all ≪ 2²⁴), which is far beneath the
    /// statistical tolerances of the tests — and, unlike rejection
    /// sampling, consumes exactly one `next_u64` per draw, keeping stream
    /// positions easy to reason about.
    fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Ranges [`Rng::gen_range`] can draw from.
pub trait SampleRange {
    /// The element type produced by the draw.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded(span) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1; // Cannot overflow for the
                                                 // widths used here (< u64::MAX).
                lo + rng.bounded(span) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u64, u32, usize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.gen_f64() * (self.end - self.start);
        // Floating rounding can land exactly on `end`; nudge back inside.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_stream_is_pure_and_separating() {
        assert_eq!(split_stream(7, 3), split_stream(7, 3));
        // Nearby keys and nearby roots must not collide.
        let mut seen = std::collections::BTreeSet::new();
        for root in 0..8u64 {
            for key in 0..64u64 {
                assert!(seen.insert(split_stream(root, key)));
            }
        }
        // Child streams differ from the root's own stream.
        let mut direct = Rng::seed_from_u64(7);
        let mut child = Rng::seed_from_u64(split_stream(7, 0));
        assert_ne!(direct.next_u64(), child.next_u64());
    }

    /// Known-answer test: the first outputs for seed 0 must never change —
    /// they pin the SplitMix64 seeding and the xoshiro256++ step together.
    /// (Values cross-checked against an independent reimplementation of
    /// the reference algorithms.)
    #[test]
    fn seed_zero_known_answers() {
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330,
            ]
        );
    }

    #[test]
    fn skip_lands_where_the_draws_would() {
        let mut skipped = Rng::seed_from_u64(9);
        let mut drawn = skipped.clone();
        skipped.skip(16);
        for _ in 0..16 {
            drawn.next_u64();
        }
        assert_eq!(skipped, drawn);
    }

    #[test]
    fn seed_one_known_answer_differs() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(rng.next_u64(), 14971601782005023387);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_replays_the_stream() {
        let mut a = Rng::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.gen_f64(), b.gen_f64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn int_ranges_cover_and_respect_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.gen_range(10u64..15);
            assert!((10..15).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all values hit: {seen:?}");
    }

    #[test]
    fn inclusive_int_range_reaches_both_ends() {
        let mut rng = Rng::seed_from_u64(5);
        let mut lo_hit = false;
        let mut hi_hit = false;
        for _ in 0..500 {
            let v = rng.gen_range(0usize..=3);
            assert!(v <= 3);
            lo_hit |= v == 0;
            hi_hit |= v == 3;
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn degenerate_inclusive_range_is_constant() {
        let mut rng = Rng::seed_from_u64(6);
        assert_eq!(rng.gen_range(7u64..=7), 7);
        assert_eq!(rng.gen_range(0.5f64..=0.5), 0.5);
    }

    #[test]
    fn float_ranges_stay_inside() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&v), "{v}");
            let w = rng.gen_range(0.0f64..=1.0);
            assert!((0.0..=1.0).contains(&w), "{w}");
        }
    }

    #[test]
    fn float_range_spans_its_interval() {
        let mut rng = Rng::seed_from_u64(8);
        let draws: Vec<f64> = (0..2_000).map(|_| rng.gen_range(0.0f64..100.0)).collect();
        let lo = draws.iter().cloned().fold(f64::MAX, f64::min);
        let hi = draws.iter().cloned().fold(f64::MIN, f64::max);
        assert!(lo < 2.0 && hi > 98.0, "range unexercised: [{lo}, {hi}]");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = Rng::seed_from_u64(9);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        let mut rng = Rng::seed_from_u64(10);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn normal_has_correct_moments() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
        // Roughly symmetric tails.
        let above = draws.iter().filter(|&&x| x > 3.0).count() as f64 / n as f64;
        assert!((above - 0.5).abs() < 0.02, "P(X > mean) = {above}");
    }

    #[test]
    fn normal_is_finite_even_at_extreme_u1() {
        let mut rng = Rng::seed_from_u64(12);
        for _ in 0..100_000 {
            assert!(rng.normal(0.0, 1.0).is_finite());
        }
    }

    #[test]
    fn shuffle_permutes_without_losing_elements() {
        let mut rng = Rng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "shuffle was identity");
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = Rng::seed_from_u64(14);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [7u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [7]);
    }

    #[test]
    fn choose_is_uniformish_and_total() {
        let mut rng = Rng::seed_from_u64(15);
        let pool = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[*rng.choose(&pool).unwrap()] += 1;
        }
        for &c in &counts {
            assert!((1_700..2_300).contains(&c), "counts {counts:?}");
        }
        let empty: [usize; 0] = [];
        assert_eq!(rng.choose(&empty), None);
    }

    #[test]
    fn distinct_seeds_produce_distinct_streams() {
        let first: Vec<u64> = (0..64)
            .map(|seed| Rng::seed_from_u64(seed).next_u64())
            .collect();
        let unique: std::collections::BTreeSet<&u64> = first.iter().collect();
        assert_eq!(unique.len(), first.len());
    }
}
