//! Percentile accuracy gate: the log-linear [`Histogram`] that every report
//! and the lifetime experiment's segment and window tails read must match
//! the nearest-rank reference on a device-like heavy tail, within the ~3%
//! relative error `nssd_sim::stats` documents.

use networked_ssd::sim::{DetRng, Histogram, Rng, SimTime};
use networked_ssd::workloads::exact_percentile;

/// Worst-case relative error of a [`Histogram`] quantile: one bucket width
/// at 32 sub-buckets per octave.
const HISTOGRAM_ERROR_BOUND: f64 = 1.0 / 32.0;

/// A heavy-tailed latency stream shaped like device completions: a fast
/// common case around 80 µs, a slower GC-collided mode around 1.2 ms, and a
/// sparse multi-millisecond tail.
fn device_like_samples(n: usize, seed: u64) -> Vec<SimTime> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0..1000u64);
            let ns = if roll < 900 {
                60_000 + rng.gen_range(0..40_000u64)
            } else if roll < 990 {
                900_000 + rng.gen_range(0..600_000u64)
            } else {
                3_000_000 + rng.gen_range(0..9_000_000u64)
            };
            SimTime::from_ns(ns)
        })
        .collect()
}

#[test]
fn histogram_tails_match_nearest_rank_on_a_heavy_tail() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let samples = device_like_samples(20_000, seed);
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        for p in [50.0, 99.0, 99.9] {
            let est = hist.percentile(p).as_ns() as f64;
            let rank = exact_percentile(&samples, p).unwrap().as_ns() as f64;
            assert!(
                (est - rank).abs() / rank <= HISTOGRAM_ERROR_BOUND,
                "seed {seed} p{p}: histogram {est} vs nearest-rank {rank}"
            );
        }
    }
}
