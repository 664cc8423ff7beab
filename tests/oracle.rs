//! Shadow-oracle integration: clean runs stay clean, injected defects are
//! caught, and the functional digest is architecture-independent.
//!
//! The mutation self-tests are the oracle's own regression gate: each one
//! plants a defect the simulator's structural checks cannot see (a silently
//! swapped mapping entry, a GC copy whose relocation is never performed)
//! and asserts the shadow model reports it. If the oracle ever goes blind,
//! these tests — not a lucky workload — say so.

use networked_ssd::core::{Drive, SsdSim};
use networked_ssd::flash::Geometry;
use networked_ssd::ftl::{Ftl, FtlConfig, GcStream, Lpn, WayMask};
use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::oracle::Oracle;
use networked_ssd::sim::{DetRng, SimTime};
use networked_ssd::{
    run_trace, run_trace_preconditioned, Architecture, GcPolicy, PaperWorkload, SsdConfig,
};

fn oracle_cfg(arch: Architecture, policy: GcPolicy) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.policy = policy;
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    cfg
}

#[test]
fn clean_runs_have_zero_violations_on_every_architecture() {
    for arch in Architecture::all() {
        let cfg = oracle_cfg(arch, GcPolicy::None);
        let trace = PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 21);
        let report = run_trace(cfg, &trace).unwrap();
        assert!(report.oracle.enabled, "{arch}");
        assert!(report.oracle.checks > 0, "{arch}");
        assert!(
            report.oracle.violations.is_empty(),
            "{arch}: {:?}",
            report.oracle.violations
        );
    }
}

#[test]
fn clean_runs_have_zero_violations_under_every_gc_policy() {
    for policy in [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial] {
        let cfg = oracle_cfg(Architecture::PnSsd, policy);
        let trace = PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23);
        let report = run_trace_preconditioned(cfg, &trace, 0.85, 0.3).unwrap();
        assert!(report.gc.events > 0, "{policy}: GC never ran");
        assert!(
            report.oracle.violations.is_empty(),
            "{policy}: {:?}",
            report.oracle.violations
        );
    }
}

#[test]
fn oracle_off_by_default_and_report_says_so() {
    let cfg = SsdConfig::tiny(Architecture::BaseSsd);
    assert!(!cfg.oracle);
    let trace = PaperWorkload::YcsbA.generate(30, cfg.logical_bytes() / 2, 2);
    let report = run_trace(cfg, &trace).unwrap();
    assert!(!report.oracle.enabled);
    assert_eq!(report.oracle.checks, 0);
}

/// Mutation self-test 1: silently swap two L2P entries *after* the oracle
/// adopted the preconditioned state. The corruption keeps the forward and
/// reverse tables mutually consistent, so only the shadow model can see it.
#[test]
fn mutated_mapping_entry_fires_the_oracle_end_to_end() {
    let cfg = oracle_cfg(Architecture::BaseSsd, GcPolicy::None);
    let page = cfg.geometry.page_bytes as u64;
    let mut sim = SsdSim::new(cfg).unwrap();
    let mut rng = DetRng::seed_from_u64(17);
    sim.ftl_mut().precondition(0.5, 0.0, &mut rng).unwrap();
    // Sync first: the oracle trusts everything up to this point...
    sim.oracle_sync();
    // ...and the corruption lands after, invisible to the resync path.
    let mapped: Vec<Lpn> = (0..sim.ftl().logical_pages())
        .map(Lpn::new)
        .filter(|&l| sim.ftl().lookup(l).is_some())
        .take(2)
        .collect();
    assert_eq!(mapped.len(), 2, "preconditioning mapped too few pages");
    sim.ftl_mut().debug_swap_mapping(mapped[0], mapped[1]);
    let problems = sim.ftl().check_invariants();
    assert!(
        problems.is_empty(),
        "swap must stay structural: {problems:?}"
    );

    let reads = mapped
        .iter()
        .map(|l| IoRequest::new(IoOp::Read, l.raw() * page, page as u32, SimTime::ZERO))
        .collect();
    let report = sim.run(Drive::OpenLoop(reads));
    assert!(
        report
            .oracle
            .violations
            .iter()
            .any(|v| v.contains("read-mapping")),
        "swapped mapping not flagged: {:?}",
        report.oracle.violations
    );
    assert!(
        report
            .oracle
            .violations
            .iter()
            .any(|v| v.contains("final-mapping")),
        "end-of-run sweep missed the swap: {:?}",
        report.oracle.violations
    );
}

/// Mutation self-test 2: a GC copy is "dropped" — the FTL relocates and
/// erases, but the relocation observation never reaches the oracle, exactly
/// what a buggy collector that forgot a live page would look like.
#[test]
fn dropped_gc_copy_fires_the_oracle() {
    let mut fcfg = FtlConfig::evaluation_defaults();
    fcfg.geometry = Geometry::tiny();
    fcfg.gc.victims_per_trigger = 2;
    let mut ftl = Ftl::new(fcfg).unwrap();
    let mut oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());

    let out = ftl.write(Lpn::new(9)).unwrap();
    oracle.note_host_write(Lpn::new(9), out.ppn, SimTime::ZERO);
    let all = WayMask::all(ftl.geometry().ways);
    let rel = ftl
        .relocate_to(Lpn::new(9), out.ppn, all, GcStream::Gc)
        .unwrap()
        .unwrap();
    // The copy is lost: no note_relocation. Erasing the source must fire.
    let victim = ftl.geometry().pbn_of(rel.src);
    ftl.erase_block(victim);
    oracle.note_erase(victim, SimTime::from_ns(1));
    let rendered = oracle.violations().render();
    assert!(
        rendered.iter().any(|v| v.contains("erase-live-page")),
        "dropped copy not flagged: {rendered:?}"
    );
}

#[test]
fn functional_digest_is_identical_across_interconnect_backends() {
    // The dedicated bus (baseSSD), the packetized bus (pSSD), and the
    // Omnibus (pnSSD) place and time pages completely differently; the
    // functional outcome of the same logical workload must not differ.
    let trace = {
        let cfg = oracle_cfg(Architecture::BaseSsd, GcPolicy::None);
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 31)
    };
    let digests: Vec<u64> = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
    ]
    .into_iter()
    .map(|arch| {
        let report = run_trace(oracle_cfg(arch, GcPolicy::None), &trace).unwrap();
        assert!(report.oracle.violations.is_empty(), "{arch}");
        report.oracle.functional_digest
    })
    .collect();
    assert_eq!(digests[0], digests[1], "baseSSD vs pSSD");
    assert_eq!(digests[0], digests[2], "baseSSD vs pnSSD");
}

#[test]
fn functional_digest_is_identical_across_gc_policies() {
    // GC policies relocate different pages at different times onto
    // different planes — pure placement/timing choices that must cancel
    // out of the functional digest.
    let trace = {
        let cfg = oracle_cfg(Architecture::PnSsd, GcPolicy::Parallel);
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 37)
    };
    let digests: Vec<u64> = [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial]
        .into_iter()
        .map(|policy| {
            let report = run_trace_preconditioned(
                oracle_cfg(Architecture::PnSsd, policy),
                &trace,
                0.85,
                0.3,
            )
            .unwrap();
            assert!(report.oracle.violations.is_empty(), "{policy}");
            report.oracle.functional_digest
        })
        .collect();
    assert_eq!(digests[0], digests[1], "PaGC vs preemptive");
    assert_eq!(digests[0], digests[2], "PaGC vs spatial");
}
