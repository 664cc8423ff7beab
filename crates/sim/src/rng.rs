//! In-tree deterministic pseudo-random number generation.
//!
//! The workspace builds in fully offline environments, so it cannot depend
//! on the `rand` crate. This module provides the small slice of its API the
//! simulator actually uses — seedable construction, uniform ranges, and
//! Bernoulli draws — on top of a SplitMix64-seeded xoshiro256** generator.
//! Both algorithms are public-domain reference designs (Blackman & Vigna),
//! chosen for excellent statistical quality at a few ns per draw and, above
//! all, for *bit-stable determinism*: the same seed yields the same stream
//! on every platform, which every reproducibility test in this repo relies
//! on.
//!
//! ```
//! use nssd_sim::{DetRng, Rng};
//!
//! let mut a = DetRng::seed_from_u64(7);
//! let mut b = DetRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let die = a.gen_range(1..=6u64);
//! assert!((1..=6).contains(&die));
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64: expands a 64-bit seed into well-distributed state words.
///
/// Used only for seeding; one step per state word guarantees that even
/// adjacent seeds (0, 1, 2, …) produce uncorrelated xoshiro states.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The random-source trait: everything the simulator draws derives from
/// [`Rng::next_u64`]. Mirrors the subset of `rand::Rng` the codebase uses,
/// so call sites read identically (`gen_range`, `gen_bool`).
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53: the standard dyadic-rational mapping.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range`. Supports `Range<u64>`, `Range<usize>`,
    /// `RangeInclusive<u64>` and `Range<f64>`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.next_f64() < p
    }
}

/// Range types [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from `self` using `rng`.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, n)` via Lemire's unbiased multiply-shift rejection.
fn gen_u64_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (n as u128);
        let low = m as u64;
        if low < n {
            // Only a sliver of the 64-bit space is biased; reject it.
            let threshold = n.wrapping_neg() % n;
            if low < threshold {
                continue;
            }
        }
        return (m >> 64) as u64;
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + gen_u64_below(rng, self.end - self.start)
    }
}

impl SampleRange<u64> for RangeInclusive<u64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range {self:?}");
        if start == 0 && end == u64::MAX {
            rng.next_u64()
        } else {
            start + gen_u64_below(rng, end - start + 1)
        }
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range {self:?}");
        self.start + gen_u64_below(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard against the half-open bound being hit by rounding.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// A deterministic xoshiro256** generator.
///
/// `Clone` snapshots the stream (used by runners to keep preconditioning
/// from advancing the engine's own stream); equality of seeds implies
/// equality of streams, forever, on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Builds a generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64 (the construction xoshiro's authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The four xoshiro256** state words, for checkpointing. Restoring via
    /// [`DetRng::from_state`] resumes the stream exactly.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from state words captured by [`DetRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }
}

impl Rng for DetRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(0);
        let mut b = DetRng::seed_from_u64(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let a = rng.gen_range(10..20u64);
            assert!((10..20).contains(&a));
            let b = rng.gen_range(3..=5u64);
            assert!((3..=5).contains(&b));
            let c = rng.gen_range(0..7usize);
            assert!(c < 7);
            let d = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&d));
        }
    }

    #[test]
    fn unit_width_ranges_are_constant() {
        let mut rng = DetRng::seed_from_u64(9);
        assert_eq!(rng.gen_range(4..5u64), 4);
        assert_eq!(rng.gen_range(4..=4u64), 4);
        assert_eq!(rng.gen_range(4..5usize), 4);
    }

    #[test]
    fn f64_draws_cover_unit_interval() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = DetRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn uniform_range_is_unbiased_across_buckets() {
        let mut rng = DetRng::seed_from_u64(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((9_000..11_000).contains(&c), "bucket {i}: {c}");
        }
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let mut rng = DetRng::seed_from_u64(1);
        fn draw<R: Rng>(mut r: R) -> u64 {
            r.gen_range(0..100u64)
        }
        // &mut DetRng is itself an Rng, as with rand's blanket impl.
        let v = draw(&mut rng);
        assert!(v < 100);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(2);
        let _ = rng.gen_range(5..5u64);
    }
}
