//! Reproducibility: identical configuration + seed ⇒ identical results,
//! across every layer of the stack.

use networked_ssd::{
    run, Aging, Architecture, Drive, GcPlanSpec, PaperWorkload, SsdConfig, SyntheticPattern,
    SyntheticSpec,
};

#[test]
fn trace_generation_is_bit_stable() {
    for workload in PaperWorkload::all() {
        let a = workload.generate(500, 1 << 26, 77);
        let b = workload.generate(500, 1 << 26, 77);
        assert_eq!(a, b, "{}", workload.name());
        assert_eq!(a.to_text(), b.to_text());
    }
}

#[test]
fn open_loop_runs_are_identical() {
    for arch in Architecture::all() {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = None;
        let trace = PaperWorkload::Exchange0.generate(150, cfg.logical_bytes() / 2, 5);
        let a = run(cfg, &trace, Aging::Footprint).unwrap();
        let b = run(cfg, &trace, Aging::Footprint).unwrap();
        assert_eq!(a, b, "{arch}");
    }
}

#[test]
fn closed_loop_runs_are_identical() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsdSplit);
    cfg.gc.plan = None;
    let spec = SyntheticSpec {
        pattern: SyntheticPattern::RandomWrite,
        request_bytes: 8192,
        requests: 150,
        footprint_bytes: cfg.logical_bytes() / 2,
        seed: 9,
    };
    let t = spec.generate();
    let a = run(cfg, Drive::closed_loop(&t, 8), Aging::Footprint).unwrap();
    let b = run(cfg, Drive::closed_loop(&t, 8), Aging::Footprint).unwrap();
    assert_eq!(a, b);
}

#[test]
fn gc_runs_are_identical_including_gc_stats() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.gc.plan = Some(GcPlanSpec::spatial());
    let trace = PaperWorkload::YcsbA.generate(250, cfg.logical_bytes() / 2, 13);
    let a = run(cfg, &trace, Aging::PAPER).unwrap();
    let b = run(cfg, &trace, Aging::PAPER).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.gc, b.gc);
    assert_eq!(a.ftl, b.ftl);
}

#[test]
fn zero_rate_faults_leave_reports_bit_identical() {
    // The fault subsystem's contract: an all-zero-rate configuration draws
    // no randomness and changes no timing, even with a different fault
    // seed — the report is bit-identical to the untouched default.
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ] {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = None;
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 3);
        let baseline = run(cfg, &trace, Aging::Footprint).unwrap();
        let mut seeded = cfg;
        seeded.faults.seed = 0xDEAD_BEEF;
        let b = run(seeded, &trace, Aging::Footprint).unwrap();
        assert_eq!(baseline, b, "{arch}");
        assert!(!baseline.reliability.any_events());
    }
}

#[test]
fn fault_injected_runs_are_identical() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsdSplit);
    cfg.gc.plan = None;
    cfg.faults.bit_error.rber = 2e-4;
    cfg.faults.link.ber = 1e-7;
    let trace = PaperWorkload::Exchange0.generate(200, cfg.logical_bytes() / 2, 5);
    let a = run(cfg, &trace, Aging::Footprint).unwrap();
    let b = run(cfg, &trace, Aging::Footprint).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.reliability, b.reliability);
    assert!(a.reliability.any_events());
}

/// Full matrix: every topology × every paper GC plan, each preconditioned run
/// executed twice with the same seed and compared as whole reports (latency
/// distributions, GC accounting, wear, energy, reliability, oracle digest —
/// `SimReport` derives `PartialEq` over all of it).
#[test]
fn every_topology_and_gc_policy_is_bit_stable() {
    let topologies = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
        Architecture::NoSsdUnconstrained,
    ];
    for arch in topologies {
        for plan in GcPlanSpec::PAPER {
            let mut cfg = SsdConfig::tiny(arch);
            cfg.gc.plan = Some(plan);
            cfg.gc.victims_per_trigger = 2;
            cfg.oracle = true;
            let trace = PaperWorkload::YcsbA.generate(100, cfg.logical_bytes() / 2, 41);
            let a = run(cfg, &trace, Aging::PAPER).unwrap();
            let b = run(cfg, &trace, Aging::PAPER).unwrap();
            assert_eq!(a, b, "{arch} / {plan}");
            assert!(
                a.oracle.violations.is_empty(),
                "{arch} / {plan}: {:?}",
                a.oracle.violations
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
    cfg.gc.plan = None;
    let t1 = PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 1);
    let t2 = PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 2);
    let a = run(cfg, &t1, Aging::Footprint).unwrap();
    let b = run(cfg, &t2, Aging::Footprint).unwrap();
    assert_ne!(a.all.mean, b.all.mean);
}
