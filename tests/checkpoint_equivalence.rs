//! Checkpoint/resume equivalence gate — the headline correctness claim of
//! the checkpoint subsystem.
//!
//! For every case in the pinned golden matrix, the run is snapshotted at
//! several mid-run points; resuming each snapshot and draining it must
//! produce the *byte-identical* canonical report and oracle digest the
//! uninterrupted run produces. The whole matrix is executed through a
//! 1-worker and a 4-worker pool and the two renderings are compared, so
//! resume equivalence holds regardless of host-side parallelism.
//!
//! A second identity is asserted along the way: re-serializing a freshly
//! resumed simulator must reproduce the checkpoint bytes exactly —
//! save∘resume is the identity on the serialized form.
//!
//! The matrix snapshots at fixed event counts; a separate case snapshots
//! SpGC runs exactly while an event confines user writes, which pins the
//! spatial placement state (group rotation and the GC-group mask).

use networked_ssd::core::golden::{canonical_json, matrix};
use networked_ssd::core::{prepare, Aging, Checkpoint, Drive};
use networked_ssd::ftl::WayMask;
use networked_ssd::sim::Pool;
use networked_ssd::{Architecture, GcPlanSpec, PaperWorkload, SsdConfig};

/// Event counts at which each case is snapshotted. Every golden case
/// schedules well over 512 events, so at least two of these land mid-run;
/// the third covers the long GC-heavy cases.
const MILESTONES: [u64; 3] = [64, 512, 4096];

struct CaseOutcome {
    name: String,
    /// Canonical JSON + oracle digest of the uninterrupted run.
    reference: (String, u64),
    /// `(snapshot step, canonical JSON, oracle digest)` per resumed run.
    resumed: Vec<(u64, String, u64)>,
}

fn run_case(case: &networked_ssd::core::GoldenCase) -> CaseOutcome {
    let name = case.file_name();
    let cfg = case.config();
    let (mut sim, drive) = case.prepare().unwrap_or_else(|e| panic!("{name}: {e}"));
    sim.start(drive);
    let mut snapshots = Vec::new();
    let mut steps = 0u64;
    loop {
        if MILESTONES.contains(&steps) && !sim.is_idle() {
            snapshots.push((steps, Checkpoint::save(&sim)));
        }
        if !sim.step() {
            break;
        }
        steps += 1;
    }
    assert!(
        !snapshots.is_empty(),
        "{name}: run too short to snapshot (only {steps} events)"
    );
    let report = sim.into_report();
    let reference = (canonical_json(&report), report.oracle.functional_digest);
    let resumed = snapshots
        .into_iter()
        .map(|(at, bytes)| {
            let mut sim = Checkpoint::resume(cfg, &bytes)
                .unwrap_or_else(|e| panic!("{name}: resume at step {at}: {e}"));
            // save ∘ resume is the identity on the serialized form.
            assert_eq!(
                Checkpoint::save(&sim),
                bytes,
                "{name}: re-serializing the resumed state at step {at} diverged"
            );
            while sim.step() {}
            let report = sim.into_report();
            (at, canonical_json(&report), report.oracle.functional_digest)
        })
        .collect();
    CaseOutcome {
        name,
        reference,
        resumed,
    }
}

fn render_matrix(pool: Pool) -> Vec<CaseOutcome> {
    let cases = matrix();
    let jobs: Vec<_> = cases.iter().map(|case| move || run_case(case)).collect();
    pool.map(jobs)
}

#[test]
fn resume_matches_uninterrupted_run_across_the_matrix() {
    let serial = render_matrix(Pool::with_workers(1));
    let parallel = render_matrix(Pool::with_workers(4));
    assert_eq!(serial.len(), parallel.len());
    assert!(serial.len() >= 19, "golden matrix shrank");
    for (s, p) in serial.iter().zip(&parallel) {
        let name = &s.name;
        // Every resumed run reproduces the uninterrupted run, byte for byte.
        for (at, json, digest) in &s.resumed {
            assert_eq!(
                json, &s.reference.0,
                "{name}: resume at step {at} changed the canonical report"
            );
            assert_eq!(
                *digest, s.reference.1,
                "{name}: resume at step {at} changed the oracle digest"
            );
        }
        // And none of it depends on the worker count.
        assert_eq!(s.name, p.name, "pool reordered results");
        assert_eq!(
            s.reference, p.reference,
            "{name}: parallel execution changed the reference run"
        );
        assert_eq!(
            s.resumed, p.resumed,
            "{name}: parallel execution changed a resumed run"
        );
    }
}

#[test]
fn oracle_digest_is_live_across_the_matrix() {
    // The digest comparison above is only meaningful if the oracle actually
    // observed the runs: every golden case runs with the oracle enabled and
    // a nonzero digest.
    for case in matrix() {
        assert!(
            case.config().oracle,
            "{}: oracle disabled",
            case.file_name()
        );
    }
}

/// SpGC on an aged device, closed loop: snapshot at the first step of each
/// of the first two GC events (the second runs on the swapped groups),
/// while the user write mask is narrowed to the I/O group. Each snapshot
/// must re-serialize to itself and drain to the uninterrupted run's
/// canonical report.
#[test]
fn resume_mid_spatial_gc_event_matches_uninterrupted_run() {
    for arch in [Architecture::BaseSsd, Architecture::PnSsdSplit] {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = Some(GcPlanSpec::spatial());
        cfg.oracle = true;
        let all = WayMask::all(cfg.geometry.ways);
        let trace = PaperWorkload::YcsbA.generate(600, cfg.logical_bytes() / 2, 13);
        let (mut sim, drive) = prepare(cfg, Drive::closed_loop(trace, 8), Aging::PAPER).unwrap();
        sim.start(drive);
        let mut snapshots = Vec::new();
        let mut last_mask = all;
        loop {
            // A new event narrows the mask, or swaps it when it chains
            // straight on from the last one.
            let mask = sim.ftl().write_mask();
            if mask != all && mask != last_mask && snapshots.len() < 2 {
                snapshots.push(Checkpoint::save(&sim));
            }
            last_mask = mask;
            if !sim.step() {
                break;
            }
        }
        assert_eq!(snapshots.len(), 2, "{arch}: fewer than two SpGC events");
        let report = sim.into_report();
        assert!(report.oracle.violations.is_empty(), "{arch}");
        let reference = canonical_json(&report);
        for (i, bytes) in snapshots.iter().enumerate() {
            let mut sim = Checkpoint::resume(cfg, bytes)
                .unwrap_or_else(|e| panic!("{arch}: resume event {i}: {e}"));
            assert_ne!(sim.ftl().write_mask(), all, "{arch}: event {i} not live");
            assert_eq!(
                &Checkpoint::save(&sim),
                bytes,
                "{arch}: event {i}: save∘resume not the identity"
            );
            while sim.step() {}
            assert_eq!(
                canonical_json(&sim.into_report()),
                reference,
                "{arch}: resume mid-event {i} changed the canonical report"
            );
        }
    }
}
