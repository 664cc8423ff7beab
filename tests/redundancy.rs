//! Parity-redundancy integration: degraded reads survive a chip fail-stop
//! with zero data loss, the fabric-routed rebuild re-protects the device,
//! the same failure without parity surfaces host-visible errors, a chip
//! that fails while GC is relocating from it hands its victims over
//! cleanly, and the whole subsystem checkpoints mid-rebuild.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::core::{prepare, run, Aging, Checkpoint, Drive, SsdSim};
use networked_ssd::faults::ChipFailureSpec;
use networked_ssd::flash::Geometry;
use networked_ssd::ftl::{Ftl, FtlConfig, GcStream, Lpn, RedundancyConfig, WayMask};
use networked_ssd::oracle::Oracle;
use networked_ssd::sim::{Pool, SimTime};
use networked_ssd::{Architecture, GcPlanSpec, PaperWorkload, SsdConfig, Trace};

fn redundant_cfg(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = None;
    cfg.redundancy = RedundancyConfig::with_stripe(2);
    cfg.oracle = true;
    cfg.faults.chip_failure = Some(ChipFailureSpec {
        channel: 0,
        way: 0,
        at: SimTime::from_us(900),
    });
    cfg
}

fn trace_for(cfg: &SsdConfig, requests: usize, seed: u64) -> Trace {
    PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, seed)
}

#[test]
fn degraded_reads_reconstruct_and_rebuild_reprotects_every_fabric() {
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::NoSsdUnconstrained,
    ] {
        let cfg = redundant_cfg(arch);
        let trace = trace_for(&cfg, 150, 29);
        let r = run(cfg, &trace, Aging::Footprint).unwrap();
        assert_eq!(r.completed, 150, "{arch}: device must finish degraded");
        assert_eq!(r.reliability.chip_failures, 1, "{arch}");
        assert!(
            r.reliability.pages_degraded > 0,
            "{arch}: failure stranded nothing"
        );
        assert!(
            r.reliability.reconstructed_reads > 0,
            "{arch}: no read was served by reconstruction"
        );
        let red = r.redundancy.expect("redundancy summary missing");
        assert_eq!(red.stripe_width, 2, "{arch}");
        assert!(red.degraded.count > 0, "{arch}: degraded window unsampled");
        assert!(red.rebuild_pages > 0, "{arch}: rebuild moved nothing");
        assert!(
            red.rebuild_time().is_some(),
            "{arch}: rebuild never completed"
        );
        // The headline: fail-stop under parity costs zero data.
        assert_eq!(r.reliability.pages_lost, 0, "{arch}");
        assert_eq!(r.reliability.host_io_errors, 0, "{arch}");
        assert!(
            r.oracle.violations.is_empty(),
            "{arch}: {:?}",
            r.oracle.violations
        );
    }
}

#[test]
fn fail_stop_without_parity_loses_pages_while_redundancy_recovers() {
    let redundant_cfg = redundant_cfg(Architecture::PnSsd);
    let mut bare_cfg = redundant_cfg;
    bare_cfg.redundancy = RedundancyConfig::off();
    let trace = trace_for(&bare_cfg, 300, 29);

    // Without parity the dead chip's live pages are gone, and reads of
    // them come back as host-visible I/O errors.
    let bare = run(bare_cfg, &trace, Aging::Footprint).unwrap();
    assert!(bare.reliability.pages_lost > 0);
    assert!(
        bare.reliability.host_io_errors > 0,
        "no read ever touched a lost page: {:?}",
        bare.reliability
    );
    assert_eq!(bare.completed, 300, "errors still complete");
    assert!(
        bare.oracle.violations.is_empty(),
        "{:?}",
        bare.oracle.violations
    );

    // Parity makes the same failure loss-free: a stripe serves those reads
    // by reconstruction.
    let redundant = run(redundant_cfg, &trace, Aging::Footprint).unwrap();
    assert_eq!(redundant.reliability.pages_lost, 0);
    assert_eq!(redundant.reliability.host_io_errors, 0);
    assert!(redundant.reliability.reconstructed_reads > 0);
}

#[test]
fn link_retry_exhaustion_is_a_host_visible_error() {
    let mut cfg = SsdConfig::tiny(Architecture::PSsd);
    cfg.gc.plan = None;
    // Wire noise hot enough that the shrunk retry budget gives up on some
    // transfers: each abandoned transfer must surface as a per-request
    // I/O error, not vanish into a silently-completed read.
    cfg.faults.link.ber = 1e-4;
    cfg.faults.link.max_retries = 1;
    let trace = trace_for(&cfg, 300, 31);
    let r = run(cfg, &trace, Aging::Footprint).unwrap();
    assert!(r.reliability.unrecovered_transfers > 0);
    assert!(
        r.reliability.host_io_errors > 0,
        "retry exhaustion never reached the host: {:?}",
        r.reliability
    );
    assert_eq!(r.completed, 300, "failed requests still complete");

    // Exponential backoff stretches the retry gaps but recovers the same
    // transfers: the error accounting must not depend on the gap shape.
    let mut backoff = cfg;
    backoff.faults.link.backoff_multiplier = Some(2.0);
    let b = run(backoff, &trace, Aging::Footprint).unwrap();
    assert_eq!(
        b.reliability.unrecovered_transfers,
        r.reliability.unrecovered_transfers
    );
    assert_eq!(b.reliability.host_io_errors, r.reliability.host_io_errors);
    assert!(b.all.mean >= r.all.mean, "longer gaps cannot be faster");
}

#[test]
fn invalid_redundancy_and_backoff_configs_are_rejected_with_messages() {
    // Stripe wider than the tiny geometry's 2 channels.
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.redundancy = RedundancyConfig::with_stripe(4);
    let err = SsdSim::new(cfg).unwrap_err();
    assert!(err.contains("exceeds the 2 channels"), "{err}");

    // Degenerate stripe.
    let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
    cfg.redundancy = RedundancyConfig::with_stripe(1);
    let err = SsdSim::new(cfg).unwrap_err();
    assert!(err.contains("stripe_width must be at least 2"), "{err}");

    // A backoff multiplier that never backs off.
    let mut cfg = SsdConfig::tiny(Architecture::PSsd);
    cfg.faults.link.backoff_multiplier = Some(1.0);
    let err = SsdSim::new(cfg).unwrap_err();
    assert!(
        err.contains("backoff_multiplier must be in (1.0, ..)"),
        "{err}"
    );
}

/// Mutation self-test: a rebuild copy is "dropped" — the FTL re-places a
/// degraded page and retires the drained dead-chip block, but the
/// relocation observation never reaches the oracle. Exactly what a buggy
/// rebuild that lost a page in flight would look like; the shadow model
/// must flag the retirement of a block it still believes holds live data.
#[test]
fn dropped_rebuild_copy_fires_the_oracle() {
    let mut fcfg = FtlConfig::evaluation_defaults();
    fcfg.geometry = Geometry::tiny();
    fcfg.gc.victims_per_trigger = 2;
    fcfg.redundancy = RedundancyConfig::with_stripe(2);
    let mut ftl = Ftl::new(fcfg).unwrap();
    let mut oracle = Oracle::new(*ftl.geometry(), ftl.logical_pages());

    let out = ftl.write(Lpn::new(3)).unwrap();
    oracle.note_host_write(Lpn::new(3), out.ppn, SimTime::ZERO);
    let addr = ftl.geometry().page_addr(out.ppn);
    ftl.fail_chip(addr.channel, addr.way);
    let backlog = ftl.degraded_pages();
    assert!(
        backlog.contains(&(Lpn::new(3), out.ppn)),
        "written page must be stranded on the dead chip"
    );

    // The rebuild's copy: re-place the page... and "lose" the notification.
    let all = WayMask::all(ftl.geometry().ways);
    ftl.relocate_to(Lpn::new(3), out.ppn, all, GcStream::Gc)
        .unwrap()
        .unwrap();
    // No oracle.note_relocation. Draining the source block must fire.
    let src = ftl.geometry().pbn_of(out.ppn);
    ftl.retire_dead_block(src);
    oracle.note_retire(src, SimTime::from_ns(1));
    let rendered = oracle.violations().render();
    assert!(
        rendered.iter().any(|v| v.contains("retire-live-page")),
        "dropped rebuild copy not flagged: {rendered:?}"
    );
}

/// Checkpoint/resume equivalence pinned specifically at the two moments
/// the redundancy subsystem makes interesting: right after the chip
/// failure (rebuild just started) and mid-rebuild (some pages re-placed,
/// more pending). Resuming either snapshot and draining must reproduce
/// the uninterrupted run's canonical report and oracle digest, at 1 and
/// 4 pool workers alike.
#[test]
fn checkpoint_mid_rebuild_resumes_to_the_continuous_run() {
    struct Outcome {
        arch: Architecture,
        reference: (String, u64),
        resumed: Vec<(&'static str, String, u64)>,
    }

    fn run_one(arch: Architecture) -> Outcome {
        let cfg = redundant_cfg(arch);
        let trace = trace_for(&cfg, 150, 29);
        let mut sim = SsdSim::new(cfg).unwrap();
        sim.start(Drive::OpenLoop(trace.records().to_vec()));
        let mut snapshots = Vec::new();
        loop {
            let r = sim.reliability();
            if r.chip_failures == 1 && snapshots.is_empty() {
                snapshots.push(("post-failure", Checkpoint::save(&sim)));
            }
            if r.rebuild_pages == 1 && snapshots.len() == 1 {
                snapshots.push(("mid-rebuild", Checkpoint::save(&sim)));
            }
            if !sim.step() {
                break;
            }
        }
        assert_eq!(
            snapshots.len(),
            2,
            "{arch}: run never reached both snapshot points"
        );
        let report = sim.into_report();
        assert!(report.oracle.violations.is_empty(), "{arch}");
        let reference = (canonical_json(&report), report.oracle.functional_digest);
        let resumed = snapshots
            .into_iter()
            .map(|(label, bytes)| {
                let mut sim = Checkpoint::resume(cfg, &bytes)
                    .unwrap_or_else(|e| panic!("{arch}: resume {label}: {e}"));
                assert_eq!(
                    Checkpoint::save(&sim),
                    bytes,
                    "{arch}: {label}: save∘resume not the identity"
                );
                while sim.step() {}
                let report = sim.into_report();
                (
                    label,
                    canonical_json(&report),
                    report.oracle.functional_digest,
                )
            })
            .collect();
        Outcome {
            arch,
            reference,
            resumed,
        }
    }

    let archs = [Architecture::BaseSsd, Architecture::PnSsd];
    let run_pool = |workers| {
        let jobs: Vec<_> = archs.iter().map(|&arch| move || run_one(arch)).collect();
        Pool::with_workers(workers).map(jobs)
    };
    let serial = run_pool(1);
    let parallel = run_pool(4);
    for (s, p) in serial.iter().zip(&parallel) {
        let arch = s.arch;
        for (label, json, digest) in &s.resumed {
            assert_eq!(
                json, &s.reference.0,
                "{arch}: {label} resume changed the canonical report"
            );
            assert_eq!(
                *digest, s.reference.1,
                "{arch}: {label} resume changed the oracle digest"
            );
        }
        assert_eq!(s.reference, p.reference, "{arch}: worker count leaked in");
        assert_eq!(s.resumed, p.resumed, "{arch}: worker count leaked in");
    }
}

/// One chip fail-stop on an aged device under closed-loop load, so GC
/// events are relocating from the failing chip when it dies. Drains the
/// run, checks it, and checks that a checkpoint saved right after the
/// failure resumes to the same canonical report.
fn fail_during_gc(cfg: SsdConfig, requests: usize, seed: u64) {
    let label = format!(
        "{} {:?} parity={} chip-fail@{}",
        cfg.architecture,
        cfg.gc.plan,
        cfg.redundancy.enabled,
        cfg.faults.chip_failure.expect("a failure is configured").at
    );
    let trace = PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, seed);
    let (mut sim, drive) = prepare(cfg, Drive::closed_loop(trace, 8), Aging::PAPER).unwrap();
    sim.start(drive);
    let mut snapshot = None;
    loop {
        if snapshot.is_none() && sim.reliability().chip_failures == 1 {
            snapshot = Some(Checkpoint::save(&sim));
        }
        if !sim.step() {
            break;
        }
    }
    let snapshot = snapshot.unwrap_or_else(|| panic!("{label}: the chip never failed"));
    let report = sim.into_report();
    assert_eq!(report.completed, requests as u64, "{label}");
    assert!(report.gc.events > 0, "{label}: GC never ran");
    assert!(
        report.oracle.violations.is_empty(),
        "{label}: {:?}",
        report.oracle.violations
    );
    if cfg.redundancy.enabled {
        assert_eq!(report.reliability.pages_lost, 0, "{label}");
        let red = report.redundancy.expect("redundancy summary missing");
        assert!(
            red.rebuild_time().is_some(),
            "{label}: rebuild never finished"
        );
    }
    let mut resumed = Checkpoint::resume(cfg, &snapshot)
        .unwrap_or_else(|e| panic!("{label}: resume after the failure: {e}"));
    assert_eq!(
        Checkpoint::save(&resumed),
        snapshot,
        "{label}: save∘resume not the identity"
    );
    while resumed.step() {}
    assert_eq!(
        canonical_json(&resumed.into_report()),
        canonical_json(&report),
        "{label}: resume after the failure changed the canonical report"
    );
}

/// A victim selected before a chip fail-stop must not be copied from or
/// erased on the dead chip. With parity its pages belong to the rebuild;
/// without parity `fail_chip` has already retired it. At each setting's
/// device seed, a GC event holds a victim on chip (1,2) when it dies in
/// every parity cell, and in every SpGC cell without parity.
#[test]
fn chip_failure_during_gc_hands_victims_to_the_failure_model() {
    let default_seed = SsdConfig::tiny(Architecture::BaseSsd).seed;
    for (parity, seed) in [(true, default_seed), (false, 17)] {
        for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
            for plan in GcPlanSpec::PAPER {
                for at_us in [500, 1000] {
                    let mut cfg = SsdConfig::tiny(arch);
                    cfg.geometry.channels = 4;
                    cfg.geometry.ways = 4;
                    cfg.gc.plan = Some(plan);
                    if parity {
                        cfg.redundancy = RedundancyConfig::with_stripe(2);
                    }
                    cfg.oracle = true;
                    cfg.seed = seed;
                    cfg.faults.chip_failure = Some(ChipFailureSpec {
                        channel: 1,
                        way: 2,
                        at: SimTime::from_us(at_us),
                    });
                    fail_during_gc(cfg, 1200, 17);
                }
            }
        }
    }
}
