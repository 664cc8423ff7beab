//! One cell, run once: set up, drive the event loop, checkpoint where the
//! workload asks, report, and check every output.
//!
//! The untraced run drives the loop with `SsdSim::run_to_idle`. The traced
//! run drives it one `SsdSim::step` at a time, timing each step and
//! bucketing it by its first observable effect, and adds the unit-cost
//! replays of [`crate::replay`]. Both must produce the same canonical report,
//! which the caller checks through the digests.

use std::time::{Duration, Instant};

use nssd_core::{golden, Checkpoint, Drive, SimReport, SsdSim};
use nssd_sim::RunningStats;

use crate::replay::{drive_requests, replays};
use crate::spans::Spans;
use crate::workload::{Cell, Workload};
use crate::{CellResult, Metrics};

/// Step buckets, by the first effect a step shows through the public
/// accessors (checked in this order).
pub const BUCKETS: [&str; 5] = ["complete", "gc_erase", "gc_copy", "rebuild", "other"];

/// Runs `cell` of `workload` once and returns its result and spans.
/// `allocs` samples a process-wide allocation counter (return 0 to skip the
/// measurement). Every request of a cell whose checks fail counts as
/// failed.
pub fn run_cell(
    workload: Workload,
    cell: Cell,
    seed: u64,
    scale_div: usize,
    traced: bool,
    allocs: &dyn Fn() -> u64,
) -> (CellResult, Spans) {
    let mut r = CellResult {
        cell: cell.name.to_string(),
        ..CellResult::default()
    };
    let attempted = (workload.requests_per_cell() / scale_div.max(1)) as f64;
    r.metrics.insert("attempted".into(), attempted);
    let mut spans = Spans::new();
    let root = spans.begin(format!("{}.{}", workload.name(), cell.name));
    let outcome = workload
        .setup(cell, seed, scale_div, &mut spans)
        .and_then(|(sim, drive)| {
            drive_cell(workload, sim, drive, traced, allocs, &mut r, &mut spans)
        });
    match outcome {
        Ok(report) => check(workload, &report, &mut r),
        Err(e) => r.failures.push(e),
    }
    spans.end(root);
    for (k, v) in r.metrics.iter().filter(|(k, _)| k.starts_with("step.")) {
        spans.arg(root, k.as_str(), *v);
    }
    let m = &mut r.metrics;
    let failed = if r.failures.is_empty() {
        0.0
    } else {
        m["attempted"]
    };
    m.insert("failed".into(), failed);
    m.insert("wall_s".into(), spans.spans()[root].secs());
    m.insert("generate_s".into(), spans.secs("generate"));
    m.insert("prepare_s".into(), spans.secs("prepare"));
    m.insert(
        "setup_s".into(),
        spans.secs("generate") + spans.secs("prepare"),
    );
    m.insert("ckpt_s".into(), spans.secs("checkpoint"));
    m.insert("into_report_s".into(), spans.secs("SsdSim::into_report"));
    m.insert(
        "canonical_json_s".into(),
        spans.secs("golden::canonical_json"),
    );
    (r, spans)
}

/// Start through report; records the loop metrics on the way.
fn drive_cell(
    workload: Workload,
    mut sim: SsdSim,
    drive: Drive,
    traced: bool,
    allocs: &dyn Fn() -> u64,
    result: &mut CellResult,
    spans: &mut Spans,
) -> Result<SimReport, String> {
    let m = &mut result.metrics;
    m.insert("attempted".into(), drive_requests(&drive).len() as f64);
    if traced {
        replays(&sim, &drive, spans, m)?;
    }
    spans.time("SsdSim::start", || sim.start(drive));

    let mut steps = traced.then(StepBuckets::default);
    let mut loop_allocs = 0;
    let mut advance = |sim: &mut SsdSim, spans: &mut Spans, until_rebuild: bool| {
        let a0 = allocs();
        let id = spans.begin("loop");
        match steps.as_mut() {
            Some(b) => while !(until_rebuild && rebuilt(sim)) && b.step(sim) {},
            None if until_rebuild => while !rebuilt(sim) && sim.step() {},
            None => sim.run_to_idle(),
        }
        spans.end(id);
        loop_allocs += allocs().saturating_sub(a0);
    };
    if workload.checkpoints() {
        advance(&mut sim, spans, true);
        if !rebuilt(&sim) {
            return Err("the rebuild copied no page, so no checkpoint was taken".into());
        }
        sim = spans.time("checkpoint", || checkpoint_round_trip(sim))?;
    }
    advance(&mut sim, spans, false);

    let loop_s = spans.secs("loop");
    m.insert("loop_s".into(), loop_s);
    m.insert("allocs".into(), loop_allocs as f64);
    if let Some(b) = &steps {
        m.insert("steps".into(), b.count.iter().sum::<u64>() as f64);
        for (i, name) in BUCKETS.iter().enumerate() {
            m.insert(format!("step.{name}.count"), b.count[i] as f64);
            m.insert(format!("step.{name}.host_s"), b.host[i].as_secs_f64());
        }
    }
    let report = spans.time("SsdSim::into_report", || sim.into_report());
    let json = spans.time("golden::canonical_json", || golden::canonical_json(&report));
    result.digest = fnv1a(json.as_bytes());
    report_metrics(&report, m);
    Ok(report)
}

fn rebuilt(sim: &SsdSim) -> bool {
    sim.reliability().rebuild_pages > 0
}

/// Saves, resumes, and checks that saving the resumed simulator gives the
/// same bytes; the run continues on the resumed simulator.
fn checkpoint_round_trip(sim: SsdSim) -> Result<SsdSim, String> {
    let cfg = *sim.config();
    let bytes = Checkpoint::save(&sim);
    drop(sim);
    let resumed = Checkpoint::resume(cfg, &bytes)?;
    if Checkpoint::save(&resumed) != bytes {
        return Err("save(resume(b)) != b for the mid-run checkpoint".into());
    }
    Ok(resumed)
}

/// Per-bucket step counts and host time of a traced loop.
#[derive(Debug, Default)]
struct StepBuckets {
    count: [u64; 5],
    host: [Duration; 5],
}

impl StepBuckets {
    /// One timed `step()`, bucketed by its first observable effect;
    /// `false` once the queue has drained.
    fn step(&mut self, sim: &mut SsdSim) -> bool {
        let effects = |sim: &SsdSim| {
            let ftl = sim.ftl().stats();
            [
                sim.completed(),
                ftl.erases,
                ftl.gc_relocations,
                sim.reliability().rebuild_pages,
            ]
        };
        let before = effects(sim);
        let t = Instant::now();
        let more = sim.step();
        let dt = t.elapsed();
        if more {
            let after = effects(sim);
            let bucket = (0..4).find(|&i| after[i] != before[i]).unwrap_or(4);
            self.count[bucket] += 1;
            self.host[bucket] += dt;
        }
        more
    }
}

/// Output checks.
fn check(workload: Workload, r: &SimReport, result: &mut CellResult) {
    let attempted = result.metrics["attempted"] as u64;
    let mut fail = |ok: bool, what: String| {
        if !ok {
            result.failures.push(what);
        }
    };
    fail(
        r.completed == attempted,
        format!("completed {} of {attempted} requests", r.completed),
    );
    fail(
        r.read.count + r.write.count == r.completed,
        format!(
            "read {} + write {} != completed {}",
            r.read.count, r.write.count, r.completed
        ),
    );
    fail(
        r.unmapped_reads == 0,
        format!("{} reads hit unmapped pages", r.unmapped_reads),
    );
    fail(
        r.oracle.violations.is_empty(),
        format!("oracle violations: {:?}", r.oracle.violations),
    );
    if workload == Workload::TenantsAged {
        let sum: u64 = r.tenants.iter().map(|t| t.completed).sum();
        fail(
            !r.tenants.is_empty() && sum == r.completed,
            format!("tenant completions {sum} != completed {}", r.completed),
        );
    }
    if workload == Workload::RebuildOracle {
        let rel = r.reliability;
        fail(
            rel.pages_lost == 0,
            format!("{} pages lost", rel.pages_lost),
        );
        fail(
            rel.host_io_errors == 0,
            format!("{} host I/O errors", rel.host_io_errors),
        );
        fail(
            r.redundancy.is_some_and(|red| red.rebuild_time().is_some()),
            "the rebuild did not finish".into(),
        );
    }
}

/// Simulated outputs of the report the per-layer metrics draw on.
fn report_metrics(r: &SimReport, m: &mut Metrics) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.into(), v);
    };
    put("completed", r.completed as f64);
    put("events", r.engine.scheduled_events as f64);
    let util = &r.channel_util;
    let mean_busy = |per_channel: &[Vec<f64>]| {
        let cells: usize = per_channel.iter().map(Vec::len).sum();
        let busy: f64 = per_channel.iter().flatten().sum();
        ratio(busy, cells as f64)
    };
    put("channel.read_busy", mean_busy(&util.read));
    put("channel.write_busy", mean_busy(&util.write));
    put("channel.gc_busy", mean_busy(&util.gc));
    let mut per_channel = RunningStats::new();
    for ch in 0..util.read.len() {
        per_channel.push(
            [&util.read, &util.write, &util.gc]
                .iter()
                .map(|t| t[ch].iter().sum::<f64>())
                .sum(),
        );
    }
    put(
        "channel.imbalance_cv",
        per_channel.coefficient_of_variation(),
    );
    put("energy.mj", r.energy.total_mj());
    put("energy.host_bytes", r.energy.host_bytes as f64);
    put("ftl.host_writes", r.ftl.host_writes as f64);
    put("ftl.gc_relocations", r.ftl.gc_relocations as f64);
    put("ftl.erases", r.ftl.erases as f64);
    put("gc.events", r.gc.events as f64);
    put("gc.pages_copied", r.gc.pages_copied as f64);
    put("gc.busy_ms_sim", r.gc.total_time.as_ms_f64());
    let span = r.last_completion.saturating_sub(r.first_arrival);
    put("span_ms_sim", span.as_ms_f64());
    put("read.p99_us", r.read.p99.as_us_f64());
    let rel = r.reliability;
    put("faults.pages_degraded", rel.pages_degraded as f64);
    put("faults.reconstructed_reads", rel.reconstructed_reads as f64);
    put("faults.rebuild_pages", rel.rebuild_pages as f64);
    if let Some(red) = r.redundancy {
        let window = red.rebuild_time().unwrap_or_default();
        put("faults.rebuild_ms_sim", window.as_ms_f64());
        put("faults.degraded_p99_us", red.degraded.p99.as_us_f64());
    }
    put("oracle.checks", r.oracle.checks as f64);
    for t in &r.tenants {
        put(&format!("host.{}.p99_us", t.name), t.all.p99.as_us_f64());
        put(
            &format!("host.{}.slo_violations", t.name),
            t.slo_violations as f64,
        );
        put(
            &format!("host.{}.queue_delay_us", t.name),
            t.mean_queue_delay.as_us_f64(),
        );
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, the digest of a canonical report.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
