//! Zipfian address sampling.
//!
//! Enterprise read traffic is heavily skewed; the paper's channel-imbalance
//! analysis (Fig 3) rests on exactly this property. [`Zipf`] samples ranks
//! with probability ∝ 1/kˢ via a precomputed CDF and a guided search, and
//! scatters ranks across the address space with a multiplicative-hash
//! permutation so the hot set is not clustered at offset zero (which would
//! alias with the FTL's striping order and fake imbalance).

use nssd_sim::Rng;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A Zipf(s) sampler over `0..n` with hot items scattered pseudo-randomly.
///
/// # Examples
///
/// ```
/// use nssd_workloads::Zipf;
/// use nssd_sim::DetRng;
///
/// let z = Zipf::new(1000, 1.1, 42);
/// let mut rng = DetRng::seed_from_u64(7);
/// let v = z.sample(&mut rng);
/// assert!(v < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    cdf: Vec<f64>,
    /// For each of `guide.len() - 1` equal buckets of `u`, the first CDF
    /// index at or above the bucket's start, then `n - 1`. Empty when the
    /// CDF is not strictly increasing, where a plain search decides.
    guide: Vec<u32>,
    /// Odd multiplier for the rank→address permutation.
    mult: u64,
    offset: u64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with exponent `s` (`s == 0` is
    /// uniform). Hot-item placement is derived from `scatter_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s < 0`, or `s` is not finite.
    pub fn new(n: u64, s: f64, scatter_seed: u64) -> Self {
        assert!(n > 0, "domain must be nonempty");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // The multiplier must be coprime with n for the scatter map to be a
        // permutation; walk down from the golden-gamma constant until it is.
        let mut mult = (0x9E37_79B9_7F4A_7C15u64 % n.max(2)).max(1);
        while gcd(mult, n) != 1 {
            mult -= 1;
        }
        let guide = guide_table(&cdf);
        Zipf {
            n,
            cdf,
            guide,
            mult,
            offset: scatter_seed,
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples one address in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.scatter(self.rank(u))
    }

    /// The rank `u` in `[0, 1)` falls on: the first CDF entry at or above
    /// it. With a guide, `u`'s bucket bounds the search to the entries
    /// between its start and the next bucket's; on a strictly increasing
    /// CDF that is the index the plain search finds.
    fn rank(&self, u: f64) -> u64 {
        if self.guide.is_empty() {
            return self.plain_rank(u);
        }
        // The bucket count is a power of two, so `u * buckets` and its
        // floor are exact and the bucket starts at or below `u`.
        let buckets = self.guide.len() - 1;
        let b = (u * buckets as f64) as usize;
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        (lo + self.cdf[lo..=hi].partition_point(|&p| p < u)) as u64
    }

    /// [`Zipf::rank`] by a binary search over the whole CDF.
    fn plain_rank(&self, u: f64) -> u64 {
        let rank = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i,
        } as u64;
        rank.min(self.n - 1)
    }

    /// The address that rank `k` (0 = hottest) maps to.
    pub fn scatter(&self, rank: u64) -> u64 {
        (rank.wrapping_mul(self.mult).wrapping_add(self.offset)) % self.n
    }
}

/// The guide table of [`Zipf::guide`]: `n` rounded up to a power of two
/// buckets, or none when the CDF is not strictly increasing (a binary
/// search over equal entries may return any of them) or its indices do
/// not fit a `u32`.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let n = cdf.len();
    if n > u32::MAX as usize || cdf.windows(2).any(|p| p[0] >= p[1]) {
        return Vec::new();
    }
    let buckets = n.next_power_of_two();
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut i = 0;
    for b in 0..buckets {
        let start = b as f64 / buckets as f64;
        while cdf[i] < start {
            i += 1;
        }
        guide.push(i as u32);
    }
    // The last entry is exactly 1.0 (the total divided by itself), above
    // every `u`.
    guide.push(n as u32 - 1);
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use nssd_sim::DetRng;

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(100, 1.2, 3);
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0, 0);
        let mut rng = DetRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(
            max / min < 1.2,
            "uniform counts spread too wide: {counts:?}"
        );
    }

    #[test]
    fn high_exponent_concentrates_mass() {
        let z = Zipf::new(1000, 1.3, 7);
        let mut rng = DetRng::seed_from_u64(3);
        let hot = z.scatter(0);
        let mut hot_hits = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) == hot {
                hot_hits += 1;
            }
        }
        let observed = hot_hits as f64 / n as f64;
        let expected = z.cdf[0];
        assert!(
            (observed - expected).abs() < 0.03,
            "hottest item frequency {observed} vs expected {expected}"
        );
        assert!(expected > 0.1);
    }

    #[test]
    fn scatter_is_a_permutation() {
        let z = Zipf::new(257, 1.0, 11);
        let mut seen = std::collections::HashSet::new();
        for k in 0..257 {
            assert!(seen.insert(z.scatter(k)));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let z = Zipf::new(500, 1.1, 9);
        let mut a = DetRng::seed_from_u64(5);
        let mut b = DetRng::seed_from_u64(5);
        let va: Vec<u64> = (0..100).map(|_| z.sample(&mut a)).collect();
        let vb: Vec<u64> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn guided_and_plain_sampling_agree() {
        let mut rng = DetRng::seed_from_u64(11);
        for (n, s) in [
            (1, 1.0),
            (2, 0.0),
            (10, 0.0),
            (1000, 0.99),
            (3000, 1.3),
            (4096, 0.5),
            (70_001, 1.1),
        ] {
            let z = Zipf::new(n, s, 5);
            assert!(!z.guide.is_empty(), "n={n} s={s} has no guide");
            let buckets = (z.guide.len() - 1) as f64;
            // Random draws, every CDF entry itself (where the plain search
            // hits an equal entry), and every bucket start.
            let draws = (0..50_000).map(|_| rng.gen_range(0.0..1.0));
            let edges = z.cdf.iter().copied().filter(|&p| p < 1.0);
            let starts = (0..z.guide.len() - 1).map(|b| b as f64 / buckets);
            for u in draws.chain(edges).chain(starts) {
                assert_eq!(z.rank(u), z.plain_rank(u), "n={n} s={s} u={u}");
            }
        }
        // A CDF whose tail terms vanish against the running total has
        // equal entries; it keeps the plain search.
        let flat = Zipf::new(100_000, 6.0, 5);
        assert!(flat.guide.is_empty());
        let _ = flat.sample(&mut rng);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_domain_rejected() {
        let _ = Zipf::new(0, 1.0, 0);
    }
}
