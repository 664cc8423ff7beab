//! The named trace suite standing in for the paper's enterprise traces.
//!
//! The paper evaluates on traces from Yadgar et al. (TOS'21), the FIU
//! collection and TraceTracker — proprietary-origin workloads we cannot
//! redistribute. Each [`PaperWorkload`] is a deterministic generator tuned
//! to reproduce the *characteristics the paper's results depend on*: the
//! read/write mix, the Zipf skew of read addresses (channel imbalance,
//! Fig 3), sequential run lengths, arrival intensity and burstiness, and
//! idle periods (which preemptive GC exploits, Fig 19).

use nssd_host::{IoOp, IoRequest};
use nssd_sim::SimTime;
use nssd_sim::{DetRng, Rng};

use crate::{Trace, Zipf};

/// Reference aggregate bandwidth the `intensity` knob is expressed against
/// (the baseline SSD's 8 × 1 GB/s flash channels).
pub const REFERENCE_BYTES_PER_SEC: u64 = 8_000_000_000;

/// Generation-time characteristics of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Trace name.
    pub name: &'static str,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Zipf exponent of read addresses (0 = uniform).
    pub read_skew: f64,
    /// Probability a request continues the previous sequential run.
    pub sequential_fraction: f64,
    /// Mean request size in bytes (jittered ×1–4 pages).
    pub request_bytes: u32,
    /// Offered load as a fraction of [`REFERENCE_BYTES_PER_SEC`].
    pub intensity: f64,
    /// Burstiness: `Some((on_fraction, multiplier))` alternates busy phases
    /// at `multiplier ×` the mean rate with idle phases.
    pub burst: Option<(f64, f64)>,
    /// Hot-set granularity: skewed reads pick a Zipf *region* of this many
    /// pages, then a uniform page within it. Block-trace hot spots are
    /// files/extents, not single sectors; region granularity keeps the
    /// hottest single page's share realistic.
    pub hot_region_pages: u64,
}

/// The named workloads of the evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperWorkload {
    /// Mail-server-like: mixed, skewed reads, bursty (cf. Exchange).
    Exchange0,
    /// Mail-server-like, hotter and more intense (the Fig 3 subject).
    Exchange1,
    /// LSM store under read-mostly load with compaction runs
    /// (cf. RocksDB; the Fig 20a tail-latency subject).
    RocksDb0,
    /// LSM store under write-heavy compaction.
    RocksDb1,
    /// Read-dominant index serving (cf. WebSearch).
    WebSearch0,
    /// Write-heavy sequential build/ingest.
    Build0,
    /// 50/50 random key-value mix (cf. YCSB-A).
    YcsbA,
    /// Developer-tools trace with long idle gaps (preemptive-GC friendly).
    DevTools0,
}

impl PaperWorkload {
    /// The full suite, in presentation order.
    pub fn all() -> [PaperWorkload; 8] {
        [
            PaperWorkload::Exchange0,
            PaperWorkload::Exchange1,
            PaperWorkload::RocksDb0,
            PaperWorkload::RocksDb1,
            PaperWorkload::WebSearch0,
            PaperWorkload::Build0,
            PaperWorkload::YcsbA,
            PaperWorkload::DevTools0,
        ]
    }

    /// This workload's generation parameters.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            PaperWorkload::Exchange0 => WorkloadSpec {
                name: "exchange-0",
                read_fraction: 0.60,
                read_skew: 1.05,
                sequential_fraction: 0.20,
                request_bytes: 32 * 1024,
                intensity: 0.18,
                burst: Some((0.4, 2.0)),
                hot_region_pages: 4,
            },
            PaperWorkload::Exchange1 => WorkloadSpec {
                name: "exchange-1",
                read_fraction: 0.55,
                read_skew: 1.15,
                sequential_fraction: 0.15,
                request_bytes: 16 * 1024,
                intensity: 0.25,
                burst: Some((0.35, 2.2)),
                hot_region_pages: 2,
            },
            PaperWorkload::RocksDb0 => WorkloadSpec {
                name: "rocksdb-0",
                read_fraction: 0.80,
                read_skew: 1.00,
                sequential_fraction: 0.30,
                request_bytes: 16 * 1024,
                intensity: 0.22,
                burst: Some((0.5, 1.6)),
                hot_region_pages: 4,
            },
            PaperWorkload::RocksDb1 => WorkloadSpec {
                name: "rocksdb-1",
                read_fraction: 0.45,
                read_skew: 0.90,
                sequential_fraction: 0.50,
                request_bytes: 64 * 1024,
                intensity: 0.20,
                burst: Some((0.5, 1.6)),
                hot_region_pages: 8,
            },
            PaperWorkload::WebSearch0 => WorkloadSpec {
                name: "websearch-0",
                read_fraction: 0.95,
                read_skew: 1.10,
                sequential_fraction: 0.10,
                request_bytes: 16 * 1024,
                intensity: 0.20,
                burst: Some((0.45, 1.8)),
                hot_region_pages: 2,
            },
            PaperWorkload::Build0 => WorkloadSpec {
                name: "build-0",
                read_fraction: 0.20,
                read_skew: 0.60,
                sequential_fraction: 0.70,
                request_bytes: 64 * 1024,
                intensity: 0.22,
                burst: Some((0.5, 1.6)),
                hot_region_pages: 8,
            },
            PaperWorkload::YcsbA => WorkloadSpec {
                name: "ycsb-a",
                read_fraction: 0.50,
                read_skew: 1.00,
                sequential_fraction: 0.0,
                request_bytes: 16 * 1024,
                intensity: 0.20,
                burst: Some((0.45, 1.8)),
                hot_region_pages: 2,
            },
            PaperWorkload::DevTools0 => WorkloadSpec {
                name: "devtools-0",
                read_fraction: 0.70,
                read_skew: 0.85,
                sequential_fraction: 0.40,
                request_bytes: 32 * 1024,
                intensity: 0.08,
                burst: Some((0.25, 2.5)),
                hot_region_pages: 4,
            },
        }
    }

    /// The trace's name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Generates `requests` requests over a `footprint_bytes` logical span.
    pub fn generate(self, requests: usize, footprint_bytes: u64, seed: u64) -> Trace {
        generate_trace(&self.spec(), requests, footprint_bytes, seed)
    }
}

/// Generates a trace from an arbitrary [`WorkloadSpec`].
///
/// # Panics
///
/// Panics if the footprint holds fewer than four pages or `requests == 0`.
pub fn generate_trace(
    spec: &WorkloadSpec,
    requests: usize,
    footprint_bytes: u64,
    seed: u64,
) -> Trace {
    const PAGE: u64 = 16 * 1024;
    assert!(footprint_bytes >= 4 * PAGE, "footprint too small");
    assert!(requests > 0, "need at least one request");
    let pages = footprint_bytes / PAGE;
    let region = spec.hot_region_pages.clamp(1, pages);
    let regions = (pages / region).max(1);
    let mut rng = DetRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let zipf = Zipf::new(regions, spec.read_skew, seed);
    let mut trace = Trace::new(spec.name);

    // Mean inter-arrival from the offered byte rate.
    let mean_bytes = spec.request_bytes as f64 * 1.5; // 1–4 page jitter mean
    let byte_rate = spec.intensity * REFERENCE_BYTES_PER_SEC as f64;
    let mean_gap_ns = mean_bytes / byte_rate * 1e9;

    let mut now = 0u64;
    let mut seq_read_cursor = rng.gen_range(0..pages);
    let mut seq_write_cursor = rng.gen_range(0..pages);
    // Burst phases cycle on a fixed 2 ms period.
    const BURST_PERIOD_NS: u64 = 2_000_000;

    for _ in 0..requests {
        // Arrival process: exponential gaps, modulated by the burst phase.
        let rate_mult = match spec.burst {
            Some((on_fraction, mult)) => {
                // The integer remainder equals `now as f64 % 2e6` while
                // `now` (ns) is below 2^53, about 104 days.
                let phase = (now % BURST_PERIOD_NS) as f64 / BURST_PERIOD_NS as f64;
                if phase < on_fraction {
                    mult
                } else {
                    // Scale the off-phase so the long-run mean rate holds.
                    ((1.0 - on_fraction * mult) / (1.0 - on_fraction)).max(0.05)
                }
            }
            None => 1.0,
        };
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let gap = -u.ln() * mean_gap_ns / rate_mult;
        now += gap as u64;

        let is_read = rng.gen_bool(spec.read_fraction);
        let pages_len = rng
            .gen_range(1..=4)
            .min(spec.request_bytes as u64 / PAGE * 2)
            .max(1);
        let sequential = rng.gen_bool(spec.sequential_fraction);
        let page = if is_read {
            if sequential {
                seq_read_cursor = (seq_read_cursor + pages_len) % pages;
                seq_read_cursor
            } else {
                let r = zipf.sample(&mut rng);
                (r * region + rng.gen_range(0..region)).min(pages - 1)
            }
        } else if sequential {
            seq_write_cursor = (seq_write_cursor + pages_len) % pages;
            seq_write_cursor
        } else {
            rng.gen_range(0..pages)
        };
        let page = page.min(pages - pages_len.min(pages));
        trace.push(IoRequest::new(
            if is_read { IoOp::Read } else { IoOp::Write },
            page * PAGE,
            (pages_len * PAGE) as u32,
            SimTime::from_ns(now),
        ));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOOTPRINT: u64 = 1 << 28; // 256 MiB

    #[test]
    fn read_fractions_match_specs() {
        for w in PaperWorkload::all() {
            let t = w.generate(4000, FOOTPRINT, 1);
            let want = w.spec().read_fraction;
            let got = t.read_fraction();
            assert!(
                (got - want).abs() < 0.05,
                "{}: read fraction {got} vs spec {want}",
                w.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperWorkload::Exchange1.generate(500, FOOTPRINT, 9);
        let b = PaperWorkload::Exchange1.generate(500, FOOTPRINT, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PaperWorkload::Exchange1.generate(500, FOOTPRINT, 1);
        let b = PaperWorkload::Exchange1.generate(500, FOOTPRINT, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn requests_stay_in_footprint() {
        for w in PaperWorkload::all() {
            let t = w.generate(2000, FOOTPRINT, 3);
            for r in &t {
                assert!(r.offset + r.len as u64 <= FOOTPRINT, "{}", w.name());
                assert_eq!(r.offset % (16 * 1024), 0);
            }
        }
    }

    #[test]
    fn skewed_reads_have_hot_pages() {
        let t = PaperWorkload::Exchange1.generate(8000, FOOTPRINT, 4);
        let mut counts = std::collections::HashMap::new();
        for r in t.iter().filter(|r| r.op.is_read()) {
            *counts.entry(r.offset / (16 * 1024)).or_insert(0u32) += 1;
        }
        let reads: u32 = counts.values().sum();
        let hottest = *counts.values().max().unwrap();
        // The hottest page should absorb a clearly super-uniform share.
        assert!(
            hottest as f64 / reads as f64 > 0.01,
            "no hot page: {hottest}/{reads}"
        );
    }

    #[test]
    fn bursty_workloads_have_irregular_gaps() {
        let bursty = PaperWorkload::Exchange1.generate(4000, FOOTPRINT, 5);
        let steady = PaperWorkload::RocksDb0.generate(4000, FOOTPRINT, 5);
        let cov = |t: &Trace| {
            let gaps: Vec<f64> = t
                .records()
                .windows(2)
                .map(|w| (w[1].at - w[0].at).as_ns() as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cov(&bursty) > cov(&steady),
            "burstiness not visible in arrival gaps"
        );
    }

    #[test]
    fn intensity_controls_duration() {
        let slow = PaperWorkload::DevTools0.generate(2000, FOOTPRINT, 6);
        let fast = PaperWorkload::RocksDb0.generate(2000, FOOTPRINT, 6);
        // DevTools offers ~0.2× reference bandwidth vs RocksDB's 0.7× with
        // larger requests, so its trace must span a longer wall-clock.
        assert!(slow.duration() > fast.duration());
    }

    #[test]
    fn all_names_unique() {
        let mut names: Vec<&str> = PaperWorkload::all().iter().map(|w| w.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
