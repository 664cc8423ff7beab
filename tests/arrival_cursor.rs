//! The arrival cursor: open-loop and multi-tenant requests are issued from
//! a time-sorted list as simulated time reaches them, not queued as events.
//!
//! These tests pin the cursor's contract at its edges:
//!
//! - an unsorted trace (out-of-order and duplicate timestamps) runs exactly
//!   like its stable-sorted copy;
//! - an arrival at the chip-failure nanosecond sees the failed chip, because
//!   the failure goes first at equal times;
//! - a checkpoint taken between two arrivals of the same instant resumes to
//!   the continuous run;
//! - the event queue holds in-flight work only: at most the chip failure
//!   right after `start()`, and a bound set by in-flight requests after
//!   that.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::core::{Checkpoint, Drive, SimReport, SsdSim};
use networked_ssd::faults::ChipFailureSpec;
use networked_ssd::ftl::RedundancyConfig;
use networked_ssd::host::{IoOp, IoRequest};
use networked_ssd::sim::{DetRng, Rng, SimTime};
use networked_ssd::{Architecture, GcPolicy, PaperWorkload, SsdConfig};

fn no_gc(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.policy = GcPolicy::None;
    cfg
}

fn run(cfg: SsdConfig, trace: Vec<IoRequest>) -> SimReport {
    SsdSim::new(cfg).unwrap().run(Drive::OpenLoop(trace))
}

#[test]
fn unsorted_trace_reports_like_its_stable_sorted_copy() {
    let cfg = no_gc(Architecture::PnSsdSplit);
    let page = cfg.geometry.page_bytes;
    let mut rng = DetRng::seed_from_u64(0x50F7);
    // Few distinct timestamps, so most requests share an instant with
    // others; alternating writes and reads of a small hot set make the
    // order within an instant change the outcome (a read before or after
    // the write to its page).
    let mut trace: Vec<IoRequest> = (0..400u64)
        .map(|i| {
            let op = if i % 2 == 0 { IoOp::Write } else { IoOp::Read };
            let lpn = rng.gen_range(0..24u64);
            let at = SimTime::from_us(rng.gen_range(0..40u64) * 25);
            IoRequest::new(op, lpn * page as u64, page, at)
        })
        .collect();
    // Shuffle so the trace is far from time order.
    for i in (1..trace.len()).rev() {
        trace.swap(i, rng.gen_range(0..i + 1));
    }
    assert!(trace.windows(2).any(|w| w[1].at < w[0].at));
    let mut sorted = trace.clone();
    sorted.sort_by_key(|r| r.at);

    let a = run(cfg, trace.clone());
    let b = run(cfg, sorted.clone());
    assert_eq!(a.completed, 400);
    assert_eq!(canonical_json(&a), canonical_json(&b));
    assert_eq!(a.engine.scheduled_events, b.engine.scheduled_events);

    // The order within an instant is observable: reversing it changes the
    // run, so the equality above really pins a stable sort.
    let mut reversed = sorted;
    reversed.reverse();
    reversed.sort_by_key(|r| r.at);
    assert_ne!(canonical_json(&a), canonical_json(&run(cfg, reversed)));
}

/// Writes 64 pages at t=0, then reads all of them at `read_at`, with a
/// parity-protected chip failing at 5 ms. Returns reconstructed reads.
fn reconstructed_reads_when_reading_at(read_at: SimTime) -> u64 {
    let mut cfg = no_gc(Architecture::BaseSsd);
    cfg.redundancy = RedundancyConfig::with_stripe(2);
    cfg.faults.chip_failure = Some(ChipFailureSpec {
        channel: 0,
        way: 0,
        at: SimTime::from_ms(5),
    });
    let page = cfg.geometry.page_bytes;
    let mut trace: Vec<IoRequest> = (0..64u64)
        .map(|i| IoRequest::new(IoOp::Write, i * page as u64, page, SimTime::ZERO))
        .collect();
    trace.extend((0..64u64).map(|i| IoRequest::new(IoOp::Read, i * page as u64, page, read_at)));
    let r = run(cfg, trace);
    assert_eq!(r.completed, 128);
    assert_eq!(r.reliability.chip_failures, 1);
    assert!(
        r.reliability.pages_degraded > 0,
        "the failure stranded nothing"
    );
    r.reliability.reconstructed_reads
}

#[test]
fn arrival_at_the_chip_failure_instant_sees_the_failed_chip() {
    let fail = SimTime::from_ms(5);
    assert_eq!(
        reconstructed_reads_when_reading_at(fail - SimTime::from_ns(1)),
        0,
        "reads one nanosecond before the failure must find the chip alive"
    );
    assert!(
        reconstructed_reads_when_reading_at(fail) > 0,
        "reads at the failure nanosecond must be served by reconstruction"
    );
}

#[test]
fn checkpoint_between_same_instant_arrivals_resumes_to_the_continuous_run() {
    let cfg = no_gc(Architecture::PSsd);
    let page = cfg.geometry.page_bytes;
    // A steady stream with one burst of eight requests at an odd
    // nanosecond no device event lands on.
    let burst = SimTime::from_ns(700_013);
    let mut trace: Vec<IoRequest> = (0..200u64)
        .map(|i| {
            let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
            IoRequest::new(op, (i % 50) * page as u64, page, SimTime::from_us(i * 7))
        })
        .collect();
    trace.extend(
        (0..8u64).map(|i| IoRequest::new(IoOp::Write, (60 + i) * page as u64, page, burst)),
    );
    let reference = SsdSim::new(cfg)
        .unwrap()
        .run(Drive::OpenLoop(trace.clone()));

    let mut sim = SsdSim::new(cfg).unwrap();
    sim.start(Drive::OpenLoop(trace));
    while sim.now() < burst {
        assert!(sim.step(), "the run drained before the burst");
    }
    // The first step at the burst instant issued its first arrival; the
    // next one issues the second, at the same instant.
    let bytes = Checkpoint::save(&sim);
    assert!(sim.step());
    assert_eq!(
        sim.now(),
        burst,
        "the checkpoint is not between two arrivals"
    );

    for by_step in [true, false] {
        let mut resumed = Checkpoint::resume(cfg, &bytes).unwrap();
        assert_eq!(Checkpoint::save(&resumed), bytes, "save∘resume ≠ identity");
        if by_step {
            while resumed.step() {}
        } else {
            resumed.run_to_idle();
        }
        let report = resumed.into_report();
        assert_eq!(canonical_json(&report), canonical_json(&reference));
        assert_eq!(
            report.engine.scheduled_events,
            reference.engine.scheduled_events
        );
    }
}

#[test]
fn pending_events_stay_bounded_by_in_flight_work() {
    let mut cfg = SsdConfig::new(Architecture::PnSsdSplit);
    cfg.gc.policy = GcPolicy::None;
    let page = cfg.geometry.page_bytes;
    let trace = PaperWorkload::WebSearch0.generate(20_000, cfg.logical_bytes() / 4, 11);
    let mut arrivals: Vec<SimTime> = trace.records().iter().map(|r| r.at).collect();
    arrivals.sort_unstable();
    let max_pages = trace
        .records()
        .iter()
        .map(|r| r.page_span(page).1 as usize)
        .max()
        .unwrap();

    let mut sim = SsdSim::new(cfg).unwrap();
    sim.start(Drive::OpenLoop(trace.records().to_vec()));
    assert!(
        sim.pending_events() <= 1,
        "start() queued {} events for a 20k-request trace",
        sim.pending_events()
    );
    let mut peak = 0;
    while sim.step() {
        // Requests issued so far are at most those arriving by `now`.
        let issued = arrivals.partition_point(|&at| at <= sim.now());
        let in_flight = issued - sim.completed() as usize;
        // Each in-flight page has at most two events pending (the two
        // halves of a split transfer), a write one more for its DMA, plus
        // one pump.
        let bound = in_flight * (2 * max_pages + 1) + 1;
        assert!(
            sim.pending_events() <= bound,
            "{} events pending for {in_flight} requests in flight at {}",
            sim.pending_events(),
            sim.now()
        );
        peak = peak.max(sim.pending_events());
    }
    assert_eq!(sim.completed(), 20_000);
    assert!(peak < 2_000, "the queue peaked at {peak} events");
}
