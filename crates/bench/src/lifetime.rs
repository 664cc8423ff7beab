//! Device-lifetime endurance experiment: months of simulated write churn per
//! architecture, run as checkpointed segments until wear-out ends the
//! device's life.
//!
//! Each architecture streams random-write-heavy closed-loop traffic through
//! a small-endurance device in segments. Between segments the simulator is
//! serialized with [`Checkpoint::save`], re-serialized after
//! [`Checkpoint::resume`] as a byte-identity self-check, and the *resumed*
//! simulator carries the run forward — so the whole experiment doubles as an
//! end-to-end exercise of the checkpoint subsystem under wear, grown-bad
//! accumulation, and GC churn.
//!
//! Per segment it reports wear-leveling efficacy (erase-count spread and
//! per-way imbalance), grown-bad-block accumulation, write amplification,
//! and end-of-life tail-latency drift: p50/p99 of the segment and of a
//! sliding window over the last three segments. Both are exact reads of
//! the run's one latency [`Histogram`]: the [`Histogram::delta_since`]
//! the cumulative snapshot taken at the segment's or window's start.

use std::collections::VecDeque;

use nssd_core::{Architecture, Checkpoint, Drive, SsdConfig, SsdSim};
use nssd_host::{IoOp, IoRequest};
use nssd_sim::{DetRng, Histogram, Rng, SimTime};
use nssd_workloads::tail_resolvable;

use crate::experiments::Experiment;
use crate::table::{fmt_opt_us, Table};

/// Segments per architecture; every architecture dies before the last.
const SEGMENTS: usize = 20;
/// Closed-loop requests per segment.
const REQUESTS_PER_SEGMENT: usize = 6_000;
/// Segments the sliding latency window spans.
const WINDOW_SEGMENTS: usize = 3;

/// Closed-loop segment traffic: page-sized requests, 80% writes over a
/// uniformly random working set (wear-driving churn), 20% reads. The
/// working set covers 70% of the logical span so the device keeps enough
/// slack to absorb the blocks it loses to defects and wear-out for most of
/// the run, until GC can no longer reclaim space at its end of life.
fn segment_requests(cfg: &SsdConfig, n: usize, seed: u64) -> Vec<IoRequest> {
    let page = cfg.geometry.page_bytes as u64;
    let working_set = cfg.logical_bytes() / page * 7 / 10;
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let lpn = rng.gen_range(0..working_set);
            let op = if rng.gen_range(0..10u64) < 8 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            IoRequest::new(op, lpn * page, page as u32, SimTime::ZERO)
        })
        .collect()
}

/// A percentile in nanoseconds, when the sample count resolves it.
fn percentile_ns(h: &Histogram, p: f64) -> Option<u64> {
    tail_resolvable(h.count(), p).then(|| h.percentile(p).as_ns())
}

/// Runs `arch` segment by segment until end of life or [`SEGMENTS`], and
/// returns its end-of-life row and one row per segment run.
fn run_architecture(arch: Architecture) -> (Vec<String>, Vec<Vec<String>>) {
    let label = arch.label();
    let mut cfg = SsdConfig::tiny(arch);
    // A deliberately short-lived device: mean wear reaches a large fraction
    // of the limit within the run, so late-life behaviour (endurance
    // retirement, shrinking spare pool, GC pressure) is observable, and the
    // full run ends at the device's end of life.
    cfg.endurance_limit = Some(170);
    cfg.faults.bad_blocks.grown_rate = 0.0008;
    cfg.oracle = true;
    // The Fig 3 channel-utilization instrumentation bins busy time per
    // 100 µs window, which grows linearly with simulated time (and with
    // it, the checkpoint). This experiment doesn't read it — widen the
    // window so months of simulated traffic stay bounded.
    cfg.util_window = SimTime::from_ms(100);

    let mut sim = SsdSim::new(cfg).unwrap_or_else(|e| panic!("lifetime: {label}: {e}"));
    // Cumulative latency histograms at the last WINDOW_SEGMENTS segment
    // boundaries (the start counts as one): the front opens the window,
    // the back opens the current segment.
    let mut boundaries = VecDeque::from([sim.latency_histogram().clone()]);
    let mut segments = Vec::with_capacity(SEGMENTS);

    for index in 1..=SEGMENTS {
        let requests = segment_requests(&cfg, REQUESTS_PER_SEGMENT, 0xDEAD + index as u64);
        let before = sim.completed();
        // Once wear-out and grown defects have eaten the spare pool, GC
        // cannot reclaim space and the device reaches end of life: the
        // segment still drains, its remaining writes failing host-visibly.
        sim.start(Drive::ClosedLoop {
            requests,
            depth: 16,
        });
        sim.run_to_idle();

        // Segment boundary: checkpoint, verify save∘resume is the identity
        // on the bytes, and continue from the *resumed* simulator.
        let bytes = Checkpoint::save(&sim);
        let resumed = Checkpoint::resume(cfg, &bytes)
            .unwrap_or_else(|e| panic!("lifetime: {label}: segment {index} resume: {e}"));
        assert!(
            Checkpoint::save(&resumed) == bytes,
            "lifetime: {label}: segment {index}: re-serializing the resumed state diverged"
        );
        sim = resumed;

        let since = |earlier: &Histogram| {
            sim.latency_histogram()
                .delta_since(earlier)
                .unwrap_or_else(|| panic!("lifetime: {label}: histogram went backwards"))
        };
        let segment = since(boundaries.back().expect("one boundary is always kept"));
        let window = since(boundaries.front().expect("one boundary is always kept"));
        if boundaries.len() == WINDOW_SEGMENTS {
            boundaries.pop_front();
        }
        boundaries.push_back(sim.latency_histogram().clone());

        let wear = sim.ftl().blocks().wear_summary();
        let ftl_stats = sim.ftl().stats();
        segments.push(vec![
            label.to_string(),
            index.to_string(),
            format!("{:.3}", sim.now().as_ms_f64()),
            (sim.completed() - before).to_string(),
            format!("{:.3}", ftl_stats.write_amplification()),
            format!("{:.2}", wear.mean),
            format!("{:.2}", wear.std_dev),
            wear.min.to_string(),
            wear.max.to_string(),
            format!("{:.3}", wear.way_imbalance()),
            sim.reliability().grown_bad_blocks.to_string(),
            ftl_stats.blocks_retired.to_string(),
            fmt_opt_us(percentile_ns(&segment, 50.0)),
            fmt_opt_us(percentile_ns(&segment, 99.0)),
            fmt_opt_us(percentile_ns(&window, 50.0)),
            fmt_opt_us(percentile_ns(&window, 99.0)),
            bytes.len().to_string(),
        ]);
        if sim.end_of_life().is_some() {
            break;
        }
    }
    // End of life: GC could no longer reclaim space for a stalled write, in
    // the last segment run.
    let (died_in, at) = match sim.end_of_life() {
        Some(t) => (segments.len().to_string(), format!("{:.1}", t.as_ms_f64())),
        None => ("-".into(), "-".into()),
    };
    (vec![label.to_string(), died_in, at], segments)
}

/// Device lifetime: checkpointed endurance segments on baseSSD, pSSD,
/// pnSSD and pnSSD+split until wear-out ends each device's life.
///
/// # Panics
///
/// Panics if any segment boundary's checkpoint fails to resume or
/// re-serializes to different bytes.
pub fn lifetime() -> Experiment {
    let archs = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
    ];
    let jobs: Vec<_> = archs.map(|arch| move || run_architecture(arch)).into();

    let mut end = Table::new(vec!["architecture", "died in segment", "end of life (ms)"]);
    let mut segments = Table::new(vec![
        "architecture",
        "segment",
        "sim time (ms)",
        "completed",
        "write amp",
        "wear mean",
        "wear std",
        "wear min",
        "wear max",
        "way imbalance",
        "grown bad",
        "retired",
        "seg p50",
        "seg p99",
        "window p50",
        "window p99",
        "checkpoint bytes",
    ]);
    for (end_row, segment_rows) in nssd_sim::scoped_map(jobs) {
        end.row(end_row);
        segment_rows.into_iter().for_each(|row| segments.row(row));
    }
    Experiment {
        id: "Lifetime",
        title: "device lifetime: checkpointed endurance segments until wear-out",
        tables: vec![
            (
                format!(
                    "end of life: up to {SEGMENTS} segments × {REQUESTS_PER_SEGMENT} \
                     closed-loop requests (80% random 4 KB writes), 170 P/E-cycle limit"
                ),
                end,
            ),
            (
                "per segment, at its end: every segment is checkpointed and the run \
                 continues from the resumed simulator"
                    .to_string(),
                segments,
            ),
        ],
        notes: vec![
            "end of life is a device state: once a stalled write can never get space \
             again, the rest of the segment's writes fail as host I/O errors and the run \
             stops after that segment"
                .into(),
            format!(
                "seg p50/p99 cover the segment and window p50/p99 the last \
                 {WINDOW_SEGMENTS} segments (fewer at the start), each the difference of \
                 two snapshots of the run's latency histogram; - = too few completions \
                 to resolve"
            ),
        ],
    }
}
