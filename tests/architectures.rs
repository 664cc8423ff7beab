//! Cross-crate integration: the six architectures compared end-to-end, and
//! the orderings the paper's evaluation rests on.

use networked_ssd::{run, Aging, Architecture, PaperWorkload, SimReport, SsdConfig};

fn io_cfg(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    cfg
}

fn run_workload(arch: Architecture, workload: PaperWorkload, n: usize, seed: u64) -> SimReport {
    let cfg = io_cfg(arch);
    let trace = workload.generate(n, cfg.logical_bytes() / 2, seed);
    run(cfg, &trace, Aging::Footprint).expect("run succeeds")
}

#[test]
fn all_architectures_complete_all_workloads() {
    for arch in Architecture::all() {
        for workload in [PaperWorkload::Exchange1, PaperWorkload::Build0] {
            let report = run_workload(arch, workload, 120, 5);
            assert_eq!(report.completed, 120, "{arch} {}", workload.name());
            assert_eq!(report.unmapped_reads, 0, "{arch}");
            assert!(report.all.count == 120);
            assert!(report.read.count + report.write.count == 120);
        }
    }
}

#[test]
fn packetized_interfaces_beat_the_dedicated_bus_on_reads() {
    // Read-heavy traffic is channel-bound even on the tiny geometry.
    let base = run_workload(Architecture::BaseSsd, PaperWorkload::WebSearch0, 400, 9);
    for arch in [
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
    ] {
        let r = run_workload(arch, PaperWorkload::WebSearch0, 400, 9);
        assert!(
            r.speedup_vs(&base) > 1.05,
            "{arch} should beat baseSSD, got {:.2}x",
            r.speedup_vs(&base)
        );
    }
}

#[test]
fn pin_constrained_mesh_is_strictly_worst() {
    let workload = PaperWorkload::YcsbA;
    let pin = run_workload(Architecture::NoSsdPinConstrained, workload, 250, 3);
    for arch in [
        Architecture::BaseSsd,
        Architecture::NoSsdUnconstrained,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ] {
        let r = run_workload(arch, workload, 250, 3);
        assert!(
            r.all.mean < pin.all.mean,
            "{arch} ({}) should beat pin-constrained NoSSD ({})",
            r.all.mean,
            pin.all.mean
        );
    }
}

#[test]
fn split_never_loses_to_plain_pnssd_by_much() {
    // Water-filling split subsumes the greedy single-path choice up to
    // framing/handshake overheads, so it must stay within a few percent.
    for (workload, seed) in [
        (PaperWorkload::Exchange1, 1),
        (PaperWorkload::WebSearch0, 2),
    ] {
        let plain = run_workload(Architecture::PnSsd, workload, 400, seed);
        let split = run_workload(Architecture::PnSsdSplit, workload, 400, seed);
        let ratio = split.all.mean.as_ns() as f64 / plain.all.mean.as_ns() as f64;
        assert!(
            ratio < 1.10,
            "{}: split mean {} vs plain {} (ratio {ratio:.3})",
            workload.name(),
            split.all.mean,
            plain.all.mean
        );
    }
}

#[test]
fn reports_are_internally_consistent() {
    let r = run_workload(Architecture::PnSsdSplit, PaperWorkload::Exchange0, 300, 8);
    // Percentiles are monotone.
    assert!(r.all.p50 <= r.all.p95);
    assert!(r.all.p95 <= r.all.p99);
    assert!(r.all.p99 <= r.all.p999);
    assert!(r.all.p999 <= r.all.max);
    // Mean lies within the observed range.
    assert!(r.all.mean <= r.all.max);
    // Throughput is positive and the time span sane.
    assert!(r.kiops() > 0.0);
    assert!(r.last_completion > r.first_arrival);
}

#[test]
fn multi_die_geometry_works_end_to_end() {
    use networked_ssd::flash::Geometry;
    for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
        let mut cfg = io_cfg(arch);
        cfg.geometry = Geometry {
            dies: 2,
            ..Geometry::tiny()
        };
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 30);
        let report = run(cfg, &trace, Aging::Footprint).expect("multi-die run");
        assert_eq!(report.completed, 150, "{arch}");
        assert_eq!(report.unmapped_reads, 0, "{arch}");
    }
}

#[test]
fn endurance_limited_device_survives_a_short_run() {
    let mut cfg = io_cfg(Architecture::PSsd);
    cfg.endurance_limit = Some(50);
    let trace = PaperWorkload::Build0.generate(200, cfg.logical_bytes() / 2, 31);
    let report = run(cfg, &trace, Aging::Footprint).expect("run");
    assert_eq!(report.completed, 200);
    // A short run nowhere near 50 P/E cycles retires nothing.
    assert_eq!(report.ftl.blocks_retired, 0);
}
