//! End-to-end fault-injection behavior: the retry ladder degrades reads,
//! packetized links recover wire corruption while the dedicated-signal
//! baseline corrupts silently, bad blocks retire, and a chip fail-stop
//! without parity loses its live pages while the device continues.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::core::{prepare, run, Aging, Checkpoint};
use networked_ssd::faults::ChipFailureSpec;
use networked_ssd::sim::SimTime;
use networked_ssd::{Architecture, GcPlanSpec, PaperWorkload, SsdConfig, Trace};

fn no_gc_config(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    cfg
}

fn trace_for(cfg: &SsdConfig, requests: usize) -> Trace {
    PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, 11)
}

#[test]
fn read_retries_scale_with_rber_and_degrade_latency() {
    let cfg = no_gc_config(Architecture::PSsd);
    let trace = trace_for(&cfg, 300);
    let at_rber = |rber: f64| {
        let mut c = cfg;
        c.faults.rber = rber;
        run(c, &trace, Aging::Footprint).unwrap()
    };
    // Tiny geometry has 4 KiB pages (32768 bits): RBER 1e-3 means ~33 raw
    // errors per sense — past the 16-bit fast tier, mostly soft-decoded —
    // and 3e-3 (~98 errors) forces retry senses before any tier corrects.
    let clean = at_rber(0.0);
    let mild = at_rber(1e-3);
    let harsh = at_rber(3e-3);
    assert_eq!(clean.reliability.read_retries, 0);
    assert!(
        mild.reliability.read_retries + mild.reliability.soft_decodes
            > clean.reliability.read_retries,
        "RBER 1e-3 on 4 KiB pages must trip the ECC tiers"
    );
    assert!(harsh.reliability.read_retries > mild.reliability.read_retries);
    // Every extra sense is a full tR on the plane: read latency must grow.
    assert!(harsh.read.mean > mild.read.mean);
    assert!(mild.read.mean >= clean.read.mean);
    assert_eq!(clean.completed, harsh.completed);
}

#[test]
fn packetized_links_recover_while_base_corrupts_silently() {
    let requests = 300;
    // The dedicated-signal baseline: corruption is invisible — zero
    // retransmissions, zero time cost, every timing identical to fault-free.
    let base = no_gc_config(Architecture::BaseSsd);
    let trace = trace_for(&base, requests);
    let clean = run(base, &trace, Aging::Footprint).unwrap();
    let mut faulty = base;
    faulty.faults.link.ber = 1e-6;
    let silent = run(faulty, &trace, Aging::Footprint).unwrap();
    assert!(silent.reliability.silent_corruptions > 0);
    assert_eq!(silent.reliability.retransmissions, 0);
    assert_eq!(silent.all, clean.all, "silent corruption must cost no time");
    assert_eq!(silent.read, clean.read);

    // The packetized interface: CRC catches the same wire noise and repairs
    // it with NAK + retransmission — counted, time-charged, nothing silent.
    for arch in [Architecture::PSsd, Architecture::PnSsdSplit] {
        let cfg = no_gc_config(arch);
        let trace = trace_for(&cfg, requests);
        let clean = run(cfg, &trace, Aging::Footprint).unwrap();
        let mut faulty = cfg;
        faulty.faults.link.ber = 1e-6;
        let r = run(faulty, &trace, Aging::Footprint).unwrap();
        assert!(r.reliability.retransmissions > 0, "{arch}");
        assert_eq!(r.reliability.silent_corruptions, 0, "{arch}");
        assert!(r.reliability.link_efficiency() < 1.0, "{arch}");
        // (Mean latency degradation is asserted at scale in fault_sweep —
        // on a 300-request run allocation reordering can mask it.)
        assert_eq!(r.completed, clean.completed, "{arch}");
    }
}

#[test]
fn manufacture_bad_blocks_are_retired_up_front() {
    let mut cfg = no_gc_config(Architecture::PnSsdSplit);
    // Tiny geometry only has 128 blocks; 5% keeps the expected mark count
    // comfortably above zero for any seed.
    cfg.faults.bad_blocks.manufacture_rate = 0.05;
    let trace = trace_for(&cfg, 200);
    let r = run(cfg, &trace, Aging::Footprint).unwrap();
    // Factory marking happens before the device serves I/O, so it shows up
    // in the reliability counters (run-scoped FtlStats are reset by
    // preconditioning) — and the device must absorb the lost spares.
    assert!(r.reliability.bad_blocks_manufacture > 0);
    assert_eq!(r.completed, 200);
    let again = run(cfg, &trace, Aging::Footprint).unwrap();
    assert_eq!(r, again, "factory marking must be deterministic");
}

#[test]
fn grown_bad_blocks_retire_during_gc() {
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.gc.plan = Some(GcPlanSpec::spatial());
    cfg.faults.bad_blocks.grown_rate = 0.01;
    let trace = PaperWorkload::YcsbA.generate(250, cfg.logical_bytes() / 2, 13);
    let r = run(cfg, &trace, Aging::PAPER).unwrap();
    // Every grown defect must be mirrored by an FTL retirement (the
    // deterministic seed fixes how many actually occur).
    assert_eq!(r.ftl.blocks_retired, r.reliability.grown_bad_blocks);
    assert_eq!(r.completed, 250);
}

/// A fail-stopped chip without parity loses its live pages: reads of them
/// complete as host I/O errors (never as never-written zeroes), and the
/// device keeps serving — and collecting garbage — on the survivors. Pinned
/// with GC off and with PaGC and SpGC on an aged device, and through a
/// checkpoint taken right after the failure.
#[test]
fn chip_failure_without_parity_loses_pages_under_every_gc_mode() {
    const REQUESTS: usize = 600;
    for arch in [Architecture::BaseSsd, Architecture::PnSsd] {
        for plan in [None, Some(GcPlanSpec::pagc()), Some(GcPlanSpec::spatial())] {
            let mut cfg = SsdConfig::tiny(arch);
            // 16 chips: one failure takes 1/16 of the device, not the
            // quarter the 4-chip tiny geometry would lose.
            cfg.geometry.channels = 4;
            cfg.geometry.ways = 4;
            cfg.gc.plan = plan;
            cfg.oracle = true;
            let trace = PaperWorkload::YcsbA.generate(REQUESTS, cfg.logical_bytes() * 3 / 4, 17);
            cfg.faults.chip_failure = Some(ChipFailureSpec {
                channel: 1,
                way: 2,
                at: trace.records()[REQUESTS / 3].at,
            });
            let aging = match plan {
                None => Aging::Footprint,
                Some(_) => Aging::PAPER,
            };
            let case = format!("{arch} {plan:?}");

            let (mut sim, drive) = prepare(cfg, &trace, aging).unwrap();
            sim.start(drive);
            let mut snapshot = None;
            while sim.step() {
                if snapshot.is_none() && sim.reliability().chip_failures == 1 {
                    snapshot = Some(Checkpoint::save(&sim));
                }
            }
            let r = sim.into_report();
            assert_eq!(r.completed, REQUESTS as u64, "{case}: device must finish");
            let rel = r.reliability;
            assert!(rel.pages_lost > 0, "{case}: {rel:?}");
            assert_eq!(rel.pages_degraded, 0, "{case}");
            assert!(rel.host_io_errors > 0, "{case}: no read hit a lost page");
            assert_eq!(r.unmapped_reads, 0, "{case}: lost reads served as zeroes");
            assert!(
                r.oracle.violations.is_empty(),
                "{case}: {:?}",
                r.oracle.violations
            );

            let bytes = snapshot.unwrap_or_else(|| panic!("{case}: chip never failed"));
            let mut resumed = Checkpoint::resume(cfg, &bytes).unwrap();
            while resumed.step() {}
            assert_eq!(
                canonical_json(&resumed.into_report()),
                canonical_json(&r),
                "{case}: resume after the failure diverged"
            );
        }
    }
}

#[test]
fn chip_failure_outside_geometry_is_rejected() {
    let mut cfg = no_gc_config(Architecture::PSsd);
    cfg.faults.chip_failure = Some(ChipFailureSpec {
        channel: 10_000,
        way: 0,
        at: SimTime::ZERO,
    });
    let trace = trace_for(&cfg, 10);
    assert!(run(cfg, &trace, Aging::Footprint).is_err());
}
