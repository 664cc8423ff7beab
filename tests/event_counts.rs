//! Per-kind event counts (`EngineSummary::events_by_kind`).
//!
//! Every handled event counts once in the slot of its kind, and arrivals
//! issued from the cursor count in their own slot, so once a run drains the
//! slots sum to `scheduled_events`. The counts ride in the checkpoint: a run
//! resumed mid-way reports the same counts as the uninterrupted run.

use networked_ssd::core::golden::{matrix, GoldenCase, GoldenDrive};
use networked_ssd::core::{Checkpoint, EngineSummary};
use networked_ssd::sim::SimTime;
use networked_ssd::GcPlanSpec;

fn slot(kind: &str) -> usize {
    EngineSummary::EVENT_KINDS
        .iter()
        .position(|&k| k == kind)
        .unwrap_or_else(|| panic!("no event kind {kind}"))
}

/// Runs `case` uninterrupted and, separately, resumed from a checkpoint
/// taken half-way; returns both engine summaries.
fn continuous_and_resumed(case: &GoldenCase) -> (EngineSummary, EngineSummary) {
    let name = case.file_name();
    let (mut sim, drive) = case.prepare().unwrap_or_else(|e| panic!("{name}: {e}"));
    sim.start(drive);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
    }
    let continuous = sim.into_report().engine;

    let (mut sim, drive) = case.prepare().unwrap_or_else(|e| panic!("{name}: {e}"));
    sim.start(drive);
    for _ in 0..steps / 2 {
        assert!(sim.step(), "{name}: drained before the half-way step");
    }
    let bytes = Checkpoint::save(&sim);
    drop(sim);
    let mut sim =
        Checkpoint::resume(case.config(), &bytes).unwrap_or_else(|e| panic!("{name}: resume: {e}"));
    while sim.step() {}
    (continuous, sim.into_report().engine)
}

#[test]
fn counts_sum_to_scheduled_events_and_survive_a_resume() {
    let cases = matrix();
    let gc = cases
        .iter()
        .find(|c| {
            c.plan == Some(GcPlanSpec::pagc())
                && c.redundancy.is_none()
                && !matches!(c.drive, GoldenDrive::Tenants)
        })
        .expect("the matrix has a PaGC case");
    let rebuild = cases
        .iter()
        .find(|c| c.redundancy.is_some())
        .expect("the matrix has a rebuild case");
    let cells = [
        (gc, ["gc_copy_prog_done", "gc_erase_done"]),
        (rebuild, ["chip_fail", "rebuild_prog_done"]),
    ];
    for (case, kinds) in cells {
        let name = case.file_name();
        let (continuous, resumed) = continuous_and_resumed(case);
        let counts = continuous.events_by_kind;
        assert_eq!(
            counts.iter().sum::<u64>(),
            continuous.scheduled_events,
            "{name}: per-kind counts {counts:?} do not sum to the scheduled events"
        );
        for kind in kinds {
            assert!(counts[slot(kind)] > 0, "{name}: no {kind} event counted");
        }
        // Open-loop arrivals come from the cursor, never the queue.
        assert!(counts[slot("cursor_arrival")] > 0, "{name}");
        assert_eq!(counts[slot("arrive")], 0, "{name}");
        assert_eq!(
            resumed.events_by_kind, counts,
            "{name}: a resumed run reports different counts"
        );
        assert_eq!(resumed.scheduled_events, continuous.scheduled_events);
    }
}

/// A busy rebuild source is re-polled by one chain of 5 µs polls, however
/// many completions find it busy: over the rebuild's span the pumps number
/// at most one per poll interval, plus one for the start and one per event
/// that queues a pump at its own instant — each host page completion and
/// each finished rebuild copy, and each GC erase or retry, which can wake a
/// rebuild waiting for space.
#[test]
fn rebuild_pumps_stay_within_one_poll_chain() {
    const POLL: SimTime = SimTime::from_us(5);
    let cases = matrix();
    let rebuilds: Vec<_> = cases.iter().filter(|c| c.redundancy.is_some()).collect();
    assert_eq!(rebuilds.len(), 5, "the matrix's parity cases");
    for case in rebuilds {
        let name = case.file_name();
        let report = case.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let counts = report.engine.events_by_kind;
        let red = report.redundancy.expect("parity configured");
        let (Some(start), Some(end)) = (red.rebuild_started, red.rebuild_completed) else {
            panic!("{name}: the rebuild did not finish");
        };
        let polls = (end - start).as_ns().div_ceil(POLL.as_ns());
        let queued = 1
            + counts[slot("page_done")]
            + report.reliability.pages_degraded
            + counts[slot("gc_erase_done")]
            + counts[slot("gc_retry")];
        let pumps = counts[slot("rebuild_pump")];
        assert!(
            pumps <= polls + queued,
            "{name}: {pumps} rebuild pumps over a {} rebuild, bound {polls} polls + {queued}",
            end - start
        );
    }
}
