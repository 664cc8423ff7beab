//! Workload substrate for the Networked SSD reproduction.
//!
//! * [`Trace`] — an ordered block-level I/O trace with statistics and a
//!   plain-text codec.
//! * [`Zipf`] — skewed address sampling with scattered hot items.
//! * [`SyntheticSpec`]/[`SyntheticPattern`] — the sequential/random
//!   read/write streams of Figs 16–18.
//! * [`PaperWorkload`]/[`generate_trace`] — the named suite standing in for
//!   the paper's enterprise traces, with per-workload documented
//!   characteristics (read mix, skew, burstiness, idleness).
//! * [`TenantMix`]/[`TenantSpec`] — multi-tenant mixes pairing QoS
//!   parameters with per-tenant arrival processes over partitioned
//!   address space.
//! * [`import_msr`] — the MSR Cambridge CSV trace importer.
//! * [`TraceStats`] — a trace's read mix, sizes, burstiness and skew, plus
//!   the nearest-rank [`exact_percentile`] and the [`tail_resolvable`] gate
//!   that keeps reports from presenting a maximum as a deep tail.
//!
//! ```
//! use nssd_workloads::PaperWorkload;
//!
//! let trace = PaperWorkload::Exchange1.generate(1000, 1 << 28, 42);
//! assert_eq!(trace.name(), "exchange-1");
//! assert!((trace.read_fraction() - 0.55).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod import;
mod stats;
mod suite;
mod synthetic;
mod tenants;
mod trace;
mod zipf;

pub use import::{import_msr, MsrImportOptions, MsrParseError};
pub use stats::{exact_percentile, tail_resolvable, tail_support, TraceStats};
pub use suite::{generate_trace, PaperWorkload, WorkloadSpec, REFERENCE_BYTES_PER_SEC};
pub use synthetic::{MixedSpec, SyntheticPattern, SyntheticSpec};
pub use tenants::{TenantMix, TenantSpec, TenantWorkload};
pub use trace::{Trace, TraceParseError};
pub use zipf::Zipf;

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    1024
} else {
    32
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_sim::{DetRng, Rng};

    #[test]
    fn trace_text_roundtrip() {
        let mut rng = DetRng::seed_from_u64(0x77AC3);
        for _ in 0..CASES {
            let requests = rng.gen_range(1..200usize);
            let seed = rng.gen_range(0..1000u64);
            let t = PaperWorkload::YcsbA.generate(requests, 1 << 26, seed);
            let back: Trace = t.to_text().parse().unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn zipf_in_bounds() {
        let mut rng = DetRng::seed_from_u64(0x21BF);
        for _ in 0..CASES {
            let n = rng.gen_range(1..100_000u64);
            let s = rng.gen_range(0.0..2.0f64);
            let seed = rng.gen_range(0..100u64);
            let z = Zipf::new(n, s, seed);
            let mut sample_rng = DetRng::seed_from_u64(seed);
            for _ in 0..50 {
                assert!(z.sample(&mut sample_rng) < n);
            }
        }
    }

    #[test]
    fn synthetic_request_counts() {
        let mut rng = DetRng::seed_from_u64(0x5C);
        for _ in 0..CASES {
            let requests = rng.gen_range(1..500usize);
            let t =
                SyntheticSpec::paper(SyntheticPattern::RandomRead, requests, 1 << 26).generate();
            assert_eq!(t.len(), requests);
        }
    }

    #[test]
    fn generated_traces_are_time_ordered() {
        let mut rng = DetRng::seed_from_u64(0x08D);
        for _ in 0..CASES {
            let seed = rng.gen_range(0..500u64);
            let t = PaperWorkload::Exchange0.generate(300, 1 << 26, seed);
            for w in t.records().windows(2) {
                assert!(w[1].at >= w[0].at);
            }
        }
    }
}
