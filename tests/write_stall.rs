//! Writes that cannot get a page park in a FIFO and wake when space frees;
//! a device that can free no more space reaches end of life as a state.
//!
//! A checkpoint taken while writes are parked resumes to the uninterrupted
//! run, stalled writes issue in arrival order, and a worn-out device keeps
//! serving reads while its writes fail host-visibly.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::core::{prepare, Aging, Checkpoint, Drive, SsdSim};
use networked_ssd::ftl::Lpn;
use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::sim::{DetRng, Rng, SimTime};
use networked_ssd::{Architecture, GcPlanSpec, PaperWorkload, SsdConfig};

/// A tiny device aged per `Aging::PAPER`, driven closed loop at depth 16
/// over YCSB-A, with the oracle on.
fn aged(arch: Architecture, plan: GcPlanSpec) -> (SsdConfig, SsdSim, Drive) {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = Some(plan);
    cfg.oracle = true;
    cfg.seed = 13;
    let trace = PaperWorkload::YcsbA.generate(3_000, cfg.logical_bytes() * 4 / 5, 13);
    let (sim, drive) = prepare(cfg, Drive::closed_loop(trace, 16), Aging::PAPER).expect("prepare");
    (cfg, sim, drive)
}

#[test]
fn checkpoint_while_writes_are_parked_resumes_to_the_continuous_run() {
    for (arch, plan) in [
        (Architecture::BaseSsd, GcPlanSpec::pagc()),
        (Architecture::PnSsdSplit, GcPlanSpec::spatial()),
    ] {
        let (cfg, mut sim, drive) = aged(arch, plan);
        sim.start(drive);
        while sim.parked_writes() < 2 {
            assert!(sim.step(), "{arch}: no two writes ever parked");
        }
        let bytes = Checkpoint::save(&sim);
        let mut resumed = Checkpoint::resume(cfg, &bytes).expect("resume");
        assert_eq!(resumed.parked_writes(), sim.parked_writes());
        assert_eq!(Checkpoint::save(&resumed), bytes, "{arch}: save∘resume");
        sim.run_to_idle();
        resumed.run_to_idle();
        let (a, b) = (sim.into_report(), resumed.into_report());
        assert_eq!(canonical_json(&a), canonical_json(&b), "{arch}");
        assert!(
            a.oracle.violations.is_empty(),
            "{arch}: {:?}",
            a.oracle.violations
        );
        assert_eq!(a.end_of_life, None, "{arch}: an aged device is not dead");
    }
}

#[test]
fn stalled_writes_issue_in_arrival_order() {
    // Fresh pages above the preconditioned region: each maps exactly when
    // its write issues, and GC never moves a page before that.
    let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
    cfg.oracle = true;
    let mut sim = SsdSim::new(cfg).unwrap();
    let logical = sim.ftl().logical_pages();
    let mut rng = DetRng::seed_from_u64(5);
    let filled = logical / 2;
    sim.ftl_mut().precondition(0.5, 0.5, &mut rng).unwrap();
    sim.ftl_mut().pressurize(filled, &mut rng).unwrap();
    let mut lpns: Vec<u64> = (filled..logical).collect();
    for i in (1..lpns.len()).rev() {
        lpns.swap(i, rng.gen_range(0..=i as u64) as usize);
    }
    let page = cfg.geometry.page_bytes;
    let trace = lpns
        .iter()
        .map(|&l| IoRequest::new(IoOp::Write, l * page as u64, page, SimTime::ZERO))
        .collect();
    sim.start(Drive::OpenLoop(trace));
    let (mut issued, mut most_parked) = (0, 0);
    while sim.step() {
        most_parked = most_parked.max(sim.parked_writes());
        while issued < lpns.len() && sim.ftl().lookup(Lpn::new(lpns[issued])).is_some() {
            issued += 1;
        }
        // Every page write so far is one of the `issued` oldest requests.
        assert_eq!(sim.ftl().stats().host_writes, issued as u64, "out of order");
    }
    assert!(most_parked > 8, "only {most_parked} writes ever parked");
    assert_eq!(issued, lpns.len());
    let r = sim.into_report();
    assert_eq!(r.completed, lpns.len() as u64);
    assert!(r.oracle.violations.is_empty(), "{:?}", r.oracle.violations);
}

#[test]
fn a_worn_out_device_fails_writes_and_keeps_serving_reads() {
    // A short endurance limit wears blocks out until GC cannot give a
    // stalled write room again. At 12 cycles the device dies with its GC
    // event stuck, every copy waiting for a page no erase will free; at 10,
    // with GC idle and no block left that would free a page.
    for endurance in [12, 10] {
        let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
        cfg.endurance_limit = Some(endurance);
        cfg.oracle = true;
        wear_out_then_check(cfg, 7);
    }
}

/// Drives random single-page writes over `working_set` tenths of the
/// logical span until the device reaches end of life, then checks that it
/// is read-only and consistent.
fn wear_out_then_check(cfg: SsdConfig, working_set: u64) {
    let page = cfg.geometry.page_bytes as u64;
    let span = cfg.logical_bytes() / page * working_set / 10;
    let mut sim = SsdSim::new(cfg).unwrap();
    let mut rng = DetRng::seed_from_u64(9);
    let mut segments = 0;
    while sim.end_of_life().is_none() {
        segments += 1;
        assert!(segments <= 40, "the device never wore out");
        let requests = (0..2_000)
            .map(|_| {
                let l = rng.gen_range(0..span);
                IoRequest::new(IoOp::Write, l * page, page as u32, SimTime::ZERO)
            })
            .collect();
        sim.start(Drive::ClosedLoop {
            requests,
            depth: 16,
        });
        sim.run_to_idle();
    }
    let died = sim.end_of_life().unwrap();
    let problems = sim.ftl().check_invariants();
    assert!(
        problems.is_empty(),
        "mapping and valid counts disagree: {problems:?}"
    );

    // After death: writes fail host-visibly, reads of written pages work.
    let errors = sim.reliability().host_io_errors;
    let completed = sim.completed();
    let mapped: Vec<u64> = (0..span)
        .filter(|&l| sim.ftl().lookup(Lpn::new(l)).is_some())
        .take(200)
        .collect();
    let requests = mapped
        .iter()
        .flat_map(|&l| {
            [
                IoRequest::new(IoOp::Write, l * page, page as u32, SimTime::ZERO),
                IoRequest::new(IoOp::Read, l * page, page as u32, SimTime::ZERO),
            ]
        })
        .collect();
    let host_writes = sim.ftl().stats().host_writes;
    let latencies = sim.latency_histogram().count();
    sim.start(Drive::ClosedLoop { requests, depth: 8 });
    sim.run_to_idle();
    assert!(sim.now() > died);
    assert_eq!(
        sim.end_of_life(),
        Some(died),
        "end of life is recorded once"
    );
    assert_eq!(sim.completed() - completed, 2 * mapped.len() as u64);
    assert_eq!(
        sim.reliability().host_io_errors - errors,
        mapped.len() as u64,
        "exactly the writes fail"
    );
    assert_eq!(
        sim.latency_histogram().count() - latencies,
        mapped.len() as u64,
        "only the served reads have a latency"
    );
    assert_eq!(
        sim.ftl().stats().host_writes,
        host_writes,
        "a dead device wrote"
    );
    assert_eq!(sim.parked_writes(), 0);
    let problems = sim.ftl().check_invariants();
    assert!(problems.is_empty(), "{problems:?}");
    let r = sim.into_report();
    assert_eq!(r.end_of_life, Some(died));
    assert!(canonical_json(&r).contains("\"end_of_life_ns\""));
    assert!(r.oracle.violations.is_empty(), "{:?}", r.oracle.violations);
}
