//! Zipfian address sampling.
//!
//! Enterprise read traffic is heavily skewed; the paper's channel-imbalance
//! analysis (Fig 3) rests on exactly this property. [`Zipf`] samples ranks
//! with probability ∝ 1/kˢ via a precomputed CDF and binary search, and
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
        Zipf {
            n,
            cdf,
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
        let rank = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i,
        } as u64;
        self.scatter(rank.min(self.n - 1))
    }

    /// The address that rank `k` (0 = hottest) maps to.
    pub fn scatter(&self, rank: u64) -> u64 {
        (rank.wrapping_mul(self.mult).wrapping_add(self.offset)) % self.n
    }
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
    #[should_panic(expected = "nonempty")]
    fn empty_domain_rejected() {
        let _ = Zipf::new(0, 1.0, 0);
    }
}
