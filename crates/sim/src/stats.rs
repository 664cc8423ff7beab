//! Latency statistics.
//!
//! [`Histogram`] is a log-linear (HDR-style) histogram over `u64` nanosecond
//! samples: exact below 64 ns, then 32 sub-buckets per octave, giving a
//! worst-case relative quantile error of about 3% — far below the
//! run-to-run variance of any of the paper's experiments — in a few KiB of
//! memory regardless of sample count. [`RunningStats`] is a Welford
//! mean/variance accumulator for scalar series.

use crate::{CkptError, CkptReader, CkptWriter, SimTime};

const LINEAR_LIMIT: u64 = 64;
const SUB_BUCKETS: u64 = 32;
/// 64 linear buckets + 32 sub-buckets for each of the 58 octaves above 2^6.
const BUCKETS: usize = 64 + 58 * 32;

/// A log-linear histogram of nanosecond latency samples.
///
/// # Examples
///
/// ```
/// use nssd_sim::{Histogram, SimTime};
///
/// let mut h = Histogram::new();
/// for us in 1..=100u64 {
///     h.record(SimTime::from_us(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).as_us_f64();
/// assert!((p50 - 50.0).abs() / 50.0 < 0.05, "p50 was {p50}us");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 6
        let octave = msb - 5; // 1-based octave beyond the linear range
        let sub = (v >> (msb - 5)) - SUB_BUCKETS; // in [0, 32)
        (LINEAR_LIMIT + (octave - 1) * SUB_BUCKETS + sub) as usize
    }
}

/// Midpoint of the value range covered by bucket `idx`.
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_LIMIT {
        idx
    } else {
        let rel = idx - LINEAR_LIMIT;
        let octave = rel / SUB_BUCKETS + 1;
        let sub = rel % SUB_BUCKETS;
        let width = 1u64 << octave;
        let lower = (1u64 << (octave + 5)) + sub * width;
        lower + width / 2
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimTime) {
        let v = sample.as_ns();
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean of the recorded samples.
    /// Returns [`SimTime::ZERO`] when empty.
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns((self.sum / self.count as u128) as u64)
        }
    }

    /// Exact minimum sample. Returns [`SimTime::ZERO`] when empty.
    pub fn min(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.min)
        }
    }

    /// Exact maximum sample. Returns [`SimTime::ZERO`] when empty.
    pub fn max(&self) -> SimTime {
        SimTime::from_ns(self.max)
    }

    /// The approximate `p`-th percentile (0 < p ≤ 100), within ~3% relative
    /// error. Returns [`SimTime::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    pub fn percentile(&self, p: f64) -> SimTime {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket representative into the observed range so
                // p100 == max and small-p values never undershoot min.
                return SimTime::from_ns(bucket_value(idx).clamp(self.min, self.max));
            }
        }
        SimTime::from_ns(self.max)
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The samples recorded in `self` but not yet in `earlier` (an older
    /// snapshot of the same histogram), as a new histogram. Used by the
    /// lifetime experiment to report per-segment tail latency from a
    /// cumulative histogram.
    ///
    /// The delta's min/max are recovered at bucket resolution (the exact
    /// extremes of the intermediate samples are not retained), clamped into
    /// the observed range of `self`.
    ///
    /// Returns `None` if `earlier` is not a prefix of `self` (some bucket
    /// or total would go negative).
    pub fn delta_since(&self, earlier: &Histogram) -> Option<Histogram> {
        let mut d = Histogram::new();
        for (i, (&a, &b)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            d.counts[i] = a.checked_sub(b)?;
        }
        d.count = self.count.checked_sub(earlier.count)?;
        d.sum = self.sum.checked_sub(earlier.sum)?;
        if d.count > 0 {
            let lo = d.counts.iter().position(|&c| c > 0).expect("count > 0");
            let hi = d.counts.iter().rposition(|&c| c > 0).expect("count > 0");
            d.min = bucket_value(lo).clamp(self.min, self.max);
            d.max = bucket_value(hi).clamp(d.min, self.max);
        }
        Some(d)
    }

    /// Serializes the histogram: exact summary fields plus a sparse
    /// `(bucket, count)` list of non-empty buckets.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u64(self.count);
        w.put_u128(self.sum);
        w.put_u64(self.min);
        w.put_u64(self.max);
        let nonzero = self.counts.iter().filter(|&&c| c > 0).count();
        w.put_usize(nonzero);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                w.put_u32(idx as u32);
                w.put_u64(c);
            }
        }
    }

    /// Decodes a histogram written by [`Histogram::ckpt_save`], validating
    /// bucket indices, ordering, and count conservation.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or any internal inconsistency.
    pub fn ckpt_load(r: &mut CkptReader) -> Result<Histogram, CkptError> {
        let count = r.take_u64()?;
        let sum = r.take_u128()?;
        let min = r.take_u64()?;
        let max = r.take_u64()?;
        let n = r.take_count(12)?;
        if n > BUCKETS {
            return Err(CkptError::Invalid(format!(
                "histogram has {n} non-empty buckets, max {BUCKETS}"
            )));
        }
        let mut h = Histogram::new();
        let mut prev: Option<u32> = None;
        let mut total = 0u64;
        for _ in 0..n {
            let idx = r.take_u32()?;
            if idx as usize >= BUCKETS {
                return Err(CkptError::Invalid(format!(
                    "bucket index {idx} out of range"
                )));
            }
            if prev.is_some_and(|p| idx <= p) {
                return Err(CkptError::Invalid(format!(
                    "bucket indices not strictly increasing at {idx}"
                )));
            }
            prev = Some(idx);
            let c = r.take_u64()?;
            if c == 0 {
                return Err(CkptError::Invalid(format!(
                    "bucket {idx} stored with zero count"
                )));
            }
            total = total
                .checked_add(c)
                .ok_or_else(|| CkptError::Invalid("bucket counts overflow".into()))?;
            h.counts[idx as usize] = c;
        }
        if total != count {
            return Err(CkptError::Invalid(format!(
                "bucket counts sum to {total}, header says {count}"
            )));
        }
        if count == 0 {
            if min != u64::MAX || max != 0 || sum != 0 {
                return Err(CkptError::Invalid(
                    "empty histogram with nonzero summary fields".into(),
                ));
            }
        } else if min > max {
            return Err(CkptError::Invalid(format!("min {min} exceeds max {max}")));
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Welford running mean/variance for floating-point series.
///
/// # Examples
///
/// ```
/// use nssd_sim::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ); 0 when the mean is 0.
    ///
    /// Used as the load-imbalance metric for Fig 3-style channel analyses.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean()
        }
    }

    /// Minimum observation; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        let mut h = Histogram::new();
        for v in 0..LINEAR_LIMIT {
            h.record(SimTime::from_ns(v));
        }
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::from_ns(63));
        assert_eq!(h.percentile(100.0), SimTime::from_ns(63));
    }

    #[test]
    fn bucket_index_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_value_within_3pct() {
        for &v in &[100u64, 1_000, 12_345, 1_000_000, 987_654_321] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.032, "value {v} represented as {rep} (err {err})");
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimTime::from_us(us));
        }
        for &(p, expect) in &[(50.0, 500.0), (90.0, 900.0), (99.0, 990.0)] {
            let got = h.percentile(p).as_us_f64();
            assert!(
                (got - expect).abs() / expect < 0.05,
                "p{p} was {got}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(SimTime::from_ns(10));
        h.record(SimTime::from_ns(20));
        h.record(SimTime::from_ns(60));
        assert_eq!(h.mean(), SimTime::from_ns(30));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimTime::ZERO);
        assert_eq!(h.percentile(99.0), SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_zero_rejected() {
        Histogram::new().percentile(0.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimTime::from_ns(5));
        b.record(SimTime::from_ns(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimTime::from_ns(5));
        assert!(a.max() >= SimTime::from_ns(500));
    }

    #[test]
    fn tail_percentile_clamped_to_max() {
        let mut h = Histogram::new();
        h.record(SimTime::from_us(100));
        assert_eq!(h.percentile(99.99), h.max());
    }

    #[test]
    fn histogram_ckpt_round_trip() {
        let mut h = Histogram::new();
        for us in [1u64, 5, 5, 20, 100, 100_000] {
            h.record(SimTime::from_us(us));
        }
        let mut w = CkptWriter::new();
        h.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let back = Histogram::ckpt_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.counts, h.counts);
        assert_eq!(back.count, h.count);
        assert_eq!(back.sum, h.sum);
        assert_eq!(back.min, h.min);
        assert_eq!(back.max, h.max);

        let mut w = CkptWriter::new();
        Histogram::new().ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let back = Histogram::ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn histogram_ckpt_rejects_count_mismatch() {
        let mut h = Histogram::new();
        h.record(SimTime::from_us(3));
        let mut w = CkptWriter::new();
        h.ckpt_save(&mut w);
        let mut bytes = w.into_bytes();
        // Corrupt the total-count header (first 8 bytes).
        bytes[0] ^= 1;
        assert!(Histogram::ckpt_load(&mut CkptReader::new(&bytes)).is_err());
    }

    #[test]
    fn histogram_delta_since_isolates_new_samples() {
        let mut h = Histogram::new();
        h.record(SimTime::from_us(10));
        let snap = h.clone();
        h.record(SimTime::from_us(500));
        h.record(SimTime::from_us(501));
        let d = h.delta_since(&snap).unwrap();
        assert_eq!(d.count(), 2);
        let p50 = d.percentile(50.0).as_us_f64();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "delta p50 was {p50}us");
        // Reversed arguments are not a prefix.
        assert!(snap.delta_since(&h).is_none());
    }

    #[test]
    fn running_stats_welford() {
        let mut s = RunningStats::new();
        for v in [1.0f64, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn running_stats_cov() {
        let mut s = RunningStats::new();
        for v in [10.0f64, 10.0, 10.0] {
            s.push(v);
        }
        assert_eq!(s.coefficient_of_variation(), 0.0);
        let mut t = RunningStats::new();
        t.push(0.0);
        t.push(0.0);
        assert_eq!(t.coefficient_of_variation(), 0.0); // zero-mean guard
    }
}
