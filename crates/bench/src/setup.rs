//! Shared experiment setup: standard configurations, workload
//! instantiation, and run-scale knobs.

use nssd_core::{Aging, Architecture, SsdConfig};
use nssd_ftl::GcPlanSpec;
use nssd_sim::env_count;
use nssd_workloads::{PaperWorkload, Trace};

/// Deterministic seed every experiment derives from.
pub const EXPERIMENT_SEED: u64 = 0x20220C0;

/// Requests per trace run; override with `NSSD_REQUESTS` to trade fidelity
/// for wall-clock.
pub fn requests_per_run() -> usize {
    env_count("NSSD_REQUESTS", 20_000)
}

/// A smaller request budget for the expensive preconditioned GC sweeps;
/// override with `NSSD_GC_REQUESTS`.
pub fn gc_requests_per_run() -> usize {
    env_count("NSSD_GC_REQUESTS", 6_000)
}

/// Standard no-GC configuration for one architecture (scaled Table II
/// geometry, PCWD allocation).
pub fn io_config(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::new(arch);
    cfg.gc.plan = None;
    cfg.seed = EXPERIMENT_SEED;
    cfg
}

/// Standard GC-experiment configuration running `plan` (a further
/// capacity-scaled geometry, so that the many aged cells of a GC figure run
/// in seconds).
pub fn gc_config(arch: Architecture, plan: GcPlanSpec) -> SsdConfig {
    let mut cfg = SsdConfig::gc_scaled(arch);
    cfg.gc.plan = Some(plan);
    cfg.seed = EXPERIMENT_SEED;
    cfg
}

/// The fill fraction of [`Aging::PAPER`], the aging every GC experiment
/// runs on.
pub const PAPER_FILL: f64 = match Aging::PAPER {
    Aging::Aged { fill, .. } => fill,
    Aging::Footprint => 1.0,
};

/// The trace footprint used for no-GC runs: half the logical space.
pub fn io_footprint(cfg: &SsdConfig) -> u64 {
    cfg.logical_bytes() / 2
}

/// The trace footprint used for GC runs: must stay inside the
/// preconditioned region.
pub fn gc_footprint(cfg: &SsdConfig) -> u64 {
    (cfg.logical_bytes() as f64 * (PAPER_FILL - 0.05)) as u64
}

/// Instantiates the full named workload suite at a given footprint.
pub fn suite(requests: usize, footprint: u64) -> Vec<(PaperWorkload, Trace)> {
    PaperWorkload::all()
        .into_iter()
        .map(|w| {
            (
                w,
                w.generate(requests, footprint, EXPERIMENT_SEED ^ w.name().len() as u64),
            )
        })
        .collect()
}

/// Geometric-mean helper for "average" rows (ratios combine
/// multiplicatively).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        for arch in Architecture::all() {
            io_config(arch).validate().unwrap();
            for p in GcPlanSpec::PAPER {
                gc_config(arch, p).validate().unwrap();
            }
        }
    }

    #[test]
    fn footprints_fit_capacity() {
        let cfg = io_config(Architecture::BaseSsd);
        assert!(io_footprint(&cfg) < cfg.logical_bytes());
        let gcc = gc_config(Architecture::BaseSsd, GcPlanSpec::spatial());
        assert!(gc_footprint(&gcc) < (gcc.logical_bytes() as f64 * PAPER_FILL) as u64);
    }

    #[test]
    fn suite_has_eight_workloads() {
        let s = suite(10, 1 << 26);
        assert_eq!(s.len(), 8);
        assert!(s.iter().all(|(_, t)| t.len() == 10));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
