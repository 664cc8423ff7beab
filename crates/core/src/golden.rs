//! Golden-report snapshot harness.
//!
//! A [`SimReport`] rendered through [`canonical_json`] is byte-stable for a
//! fixed configuration and seed: every field is serialized in a fixed key
//! order, floats through Rust's shortest-roundtrip formatter, times as
//! integer nanoseconds. The pinned [`matrix`] of (topology × GC plan ×
//! workload × seed) runs is committed under `tests/golden/`; the
//! `golden_report` integration test re-runs the matrix and diffs against
//! the committed files, so *any* behavioural drift — timing, GC accounting,
//! wear, energy, oracle digest — shows up as a readable JSON diff in CI.
//!
//! To bless a deliberate change:
//!
//! ```text
//! NSSD_BLESS=1 cargo test --test golden_report
//! git diff tests/golden/   # review, then commit
//! ```

use std::fmt::Write as _;

use nssd_faults::ChipFailureSpec;
use nssd_ftl::{GcPlanSpec, RedundancyConfig};
use nssd_sim::SimTime;
use nssd_workloads::{PaperWorkload, TenantMix};

use crate::{
    prepare, Aging, Architecture, ChannelUtilSummary, Drive, LatencySummary, SchedulerKind,
    SimReport, SsdConfig, SsdSim, TenantSummary,
};

/// How a golden case drives the device: the three ways the paper's
/// experiments issue requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenDrive {
    /// The workload's requests arrive at their trace timestamps.
    OpenLoop,
    /// The workload's requests run closed loop with `depth` outstanding
    /// (timestamps ignored).
    ClosedLoop {
        /// Outstanding requests.
        depth: usize,
    },
    /// A multi-tenant scenario through the submission frontend (the
    /// `workload` field is unused).
    Tenants(TenantScenario),
}

/// The pinned multi-tenant scenarios a golden case can run instead of a
/// single workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantScenario {
    /// [`TenantMix::interference`] — a GC-heavy write-burst tenant against
    /// a read-latency-sensitive neighbor — under weighted-fair arbitration.
    InterferenceWfq,
}

impl TenantScenario {
    /// File-name slug standing in for the workload name.
    fn slug(self) -> &'static str {
        match self {
            TenantScenario::InterferenceWfq => "mt-interference-wfq",
        }
    }
}

/// One pinned run of the golden matrix.
#[derive(Debug, Clone, Copy)]
pub struct GoldenCase {
    /// Architecture simulated.
    pub architecture: Architecture,
    /// The GC plan, or `None` for GC off. With GC off the device starts
    /// mapped over the trace footprint, otherwise aged per
    /// [`Aging::PAPER`]. The paper's three collectors name the file `pagc`,
    /// `preempt` or `spatial`, any other plan `plan-<slug>`.
    pub plan: Option<GcPlanSpec>,
    /// Workload driving the run (ignored under [`GoldenDrive::Tenants`]).
    pub workload: PaperWorkload,
    /// Trace and simulator seed.
    pub seed: u64,
    /// Requests in the trace (per tenant under [`GoldenDrive::Tenants`]).
    pub requests: usize,
    /// How the requests are issued.
    pub drive: GoldenDrive,
    /// When set, enables parity redundancy of this stripe width *and*
    /// schedules a fail-stop failure of chip (0, 0) mid-run, pinning the
    /// degraded-read reconstruction path and the fabric-routed rebuild.
    pub redundancy: Option<u32>,
}

impl GoldenCase {
    /// Stable snapshot file name, e.g. `pnssd_spatial_ycsb-a_s13.json`.
    pub fn file_name(&self) -> String {
        let arch = match self.architecture {
            Architecture::BaseSsd => "base",
            Architecture::PSsd => "pssd",
            Architecture::PnSsd => "pnssd",
            Architecture::PnSsdSplit => "pnssd-split",
            Architecture::ChannelSliced => "sliced",
            Architecture::NoSsdPinConstrained => "nossd-pin",
            Architecture::NoSsdUnconstrained => "nossd",
        };
        let gc = match self.plan {
            None => "nogc".to_string(),
            Some(p) if p == GcPlanSpec::pagc() => "pagc".to_string(),
            Some(p) if p == GcPlanSpec::preemptive() => "preempt".to_string(),
            Some(p) if p == GcPlanSpec::spatial() => "spatial".to_string(),
            Some(p) => format!("plan-{p}"),
        };
        let workload: String = match self.drive {
            GoldenDrive::Tenants(scenario) => scenario.slug().to_string(),
            GoldenDrive::OpenLoop | GoldenDrive::ClosedLoop { .. } => self
                .workload
                .name()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '-'
                    }
                })
                .collect(),
        };
        let depth = match self.drive {
            GoldenDrive::ClosedLoop { depth } => format!("_cl{depth}"),
            GoldenDrive::OpenLoop | GoldenDrive::Tenants(_) => String::new(),
        };
        let red = match self.redundancy {
            Some(w) => format!("_red{w}"),
            None => String::new(),
        };
        format!("{arch}_{gc}_{workload}{red}{depth}_s{}.json", self.seed)
    }

    /// The configuration this case runs under: the tiny geometry with the
    /// shadow oracle enabled, so every golden run is also an invariant run.
    pub fn config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::tiny(self.architecture);
        cfg.gc.plan = self.plan;
        cfg.gc.victims_per_trigger = 2;
        cfg.seed = self.seed;
        cfg.oracle = true;
        if let Some(width) = self.redundancy {
            cfg.redundancy = RedundancyConfig::with_stripe(width);
            // Roughly a third of the way through the pinned traces: enough
            // writes land on the victim chip first, enough reads arrive
            // after to exercise reconstruction while the rebuild runs.
            cfg.faults.chip_failure = Some(ChipFailureSpec {
                channel: 0,
                way: 0,
                at: SimTime::from_us(900),
            });
        }
        cfg
    }

    /// Executes the case and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates configuration/run errors from the runner.
    pub fn run(&self) -> Result<SimReport, String> {
        let (sim, drive) = self.prepare()?;
        Ok(sim.run(drive))
    }

    /// Builds the preconditioned simulator and [`Drive`] for this case
    /// without running it — the checkpoint-equivalence tests step this pair
    /// by hand, snapshotting mid-run.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid configurations or infeasible traces.
    pub fn prepare(&self) -> Result<(SsdSim, Drive), String> {
        let cfg = self.config();
        // Traces are generated per run, so they move into the drive by value.
        let trace = || {
            self.workload
                .generate(self.requests, cfg.logical_bytes() / 2, self.seed)
        };
        let drive = match self.drive {
            GoldenDrive::OpenLoop => Drive::from(trace()),
            GoldenDrive::ClosedLoop { depth } => Drive::closed_loop(trace(), depth),
            GoldenDrive::Tenants(TenantScenario::InterferenceWfq) => {
                // 3/4 of logical space: inside the paper's filled region,
                // split into per-tenant partitions by the mix.
                let mix = TenantMix::interference(self.requests);
                let streams = mix.generate(cfg.logical_bytes() * 3 / 4, self.seed);
                Drive::tenants(streams, SchedulerKind::WeightedFair, 8)
            }
        };
        // GC cases start from an aged device so the plans actually fire
        // within the pinned request budget.
        let aging = match self.plan {
            None => Aging::Footprint,
            Some(_) => Aging::PAPER,
        };
        prepare(cfg, drive, aging)
    }
}

/// The pinned snapshot matrix.
///
/// Interconnect sweep: every evaluated topology under a read-skewed and a
/// mixed workload with GC off — pure interconnect behaviour. GC sweep: the
/// conventional bus and the paper's pnSSD under all three paper GC plans on
/// an aged device. Then composed GC plans, closed loop, multi-tenant and
/// parity-rebuild cases. Small request counts keep the whole matrix a debug-mode
/// test, not a benchmark.
pub fn matrix() -> Vec<GoldenCase> {
    let mut cases = Vec::new();
    for architecture in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::PnSsdSplit,
        Architecture::NoSsdUnconstrained,
    ] {
        for workload in [PaperWorkload::YcsbA, PaperWorkload::WebSearch0] {
            cases.push(GoldenCase {
                architecture,
                plan: None,
                workload,
                seed: 7,
                requests: 120,
                drive: GoldenDrive::OpenLoop,
                redundancy: None,
            });
        }
    }
    for architecture in [Architecture::BaseSsd, Architecture::PnSsd] {
        for plan in GcPlanSpec::PAPER {
            cases.push(GoldenCase {
                architecture,
                plan: Some(plan),
                workload: PaperWorkload::YcsbA,
                seed: 13,
                requests: 120,
                drive: GoldenDrive::OpenLoop,
                redundancy: None,
            });
        }
    }
    // Composed-plan sweep: the two plans beyond the paper's three — hot/cold
    // generational placement and wear-aware victim scoring — on the paper's
    // pnSSD over the same aged-device YCSB-A trace as the GC sweep.
    for plan in [GcPlanSpec::hot_cold(), GcPlanSpec::wear_aware()] {
        cases.push(GoldenCase {
            architecture: Architecture::PnSsd,
            plan: Some(plan),
            workload: PaperWorkload::YcsbA,
            seed: 13,
            requests: 120,
            drive: GoldenDrive::OpenLoop,
            redundancy: None,
        });
    }
    // Closed-loop sweep: the queue-depth drive of Figs 16-18 on the aged
    // device, with the paper's baseline GC on the conventional bus and
    // spatial GC on the split pnSSD, and once on a footprint-mapped device
    // with GC off.
    for (architecture, plan) in [
        (Architecture::BaseSsd, Some(GcPlanSpec::pagc())),
        (Architecture::PnSsdSplit, Some(GcPlanSpec::spatial())),
        (Architecture::BaseSsd, None),
    ] {
        cases.push(GoldenCase {
            architecture,
            plan,
            workload: PaperWorkload::YcsbA,
            seed: 13,
            requests: 120,
            drive: GoldenDrive::ClosedLoop { depth: 8 },
            redundancy: None,
        });
    }
    // Tenant-interference sweep: the write-burst vs latency-sensitive mix
    // through the multi-queue frontend on an aged device, across the
    // conventional bus, the packetized bus, and the paper's pnSSD, and on
    // the conventional bus once more with a footprint-mapped device and GC
    // off.
    let pagc = Some(GcPlanSpec::pagc());
    for (architecture, plan) in [
        (Architecture::BaseSsd, pagc),
        (Architecture::PSsd, pagc),
        (Architecture::PnSsd, pagc),
        (Architecture::BaseSsd, None),
    ] {
        cases.push(GoldenCase {
            architecture,
            plan,
            workload: PaperWorkload::YcsbA, // unused: the scenario drives it
            seed: 21,
            requests: 60,
            drive: GoldenDrive::Tenants(TenantScenario::InterferenceWfq),
            redundancy: None,
        });
    }
    // Redundancy sweep: parity stripe of 2 with a fail-stop chip failure
    // mid-run on the conventional bus and the paper's pnSSD. Pins the
    // degraded-read reconstruction path, the parity-write overhead, the
    // fabric-routed rebuild, and the oracle's zero-silent-loss proof.
    for architecture in [Architecture::BaseSsd, Architecture::PnSsd] {
        cases.push(GoldenCase {
            architecture,
            plan: None,
            workload: PaperWorkload::YcsbA,
            seed: 29,
            requests: 120,
            drive: GoldenDrive::OpenLoop,
            redundancy: Some(2),
        });
    }
    cases
}

/// Canonical float rendering: Rust's shortest-roundtrip `Display`, with
/// negative zero folded into `0` so the output is a function of the value.
fn jf(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else {
        format!("{x}")
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jlist<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let body: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", body.join(","))
}

fn tenant(t: &TenantSummary) -> String {
    format!(
        "{{\"name\":{},\"weight\":{},\"slo_latency_ns\":{},\"completed\":{},\"bytes\":{},\
         \"all\":{},\"read\":{},\"write\":{},\"slo_violations\":{},\
         \"mean_queue_delay_ns\":{},\"last_completion_ns\":{}}}",
        jstr(&t.name),
        t.weight,
        t.slo_latency.as_ns(),
        t.completed,
        t.bytes,
        latency(&t.all),
        latency(&t.read),
        latency(&t.write),
        t.slo_violations,
        t.mean_queue_delay.as_ns(),
        t.last_completion.as_ns()
    )
}

fn latency(l: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
         \"p999_ns\":{},\"max_ns\":{}}}",
        l.count,
        l.mean.as_ns(),
        l.p50.as_ns(),
        l.p95.as_ns(),
        l.p99.as_ns(),
        l.p999.as_ns(),
        l.max.as_ns()
    )
}

/// Channel utilization is snapshotted as per-channel busy-fraction *totals*
/// (the sum over time windows) per traffic class: the imbalance signal the
/// report exists for, without committing hundreds of per-window floats.
fn util(u: &ChannelUtilSummary) -> String {
    let totals = |per: &Vec<Vec<f64>>| jlist(per, |ch: &Vec<f64>| jf(ch.iter().sum::<f64>()));
    format!(
        "{{\"window_ns\":{},\"read\":{},\"write\":{},\"gc\":{}}}",
        u.window.as_ns(),
        totals(&u.read),
        totals(&u.write),
        totals(&u.gc)
    )
}

/// Serializes a [`SimReport`] to canonical JSON (fixed key order, stable
/// number formatting) — the golden-snapshot representation.
///
/// The report's `engine` block is deliberately *not* serialized: its
/// wall-clock is host time (different every run), and even the
/// deterministic event count would force a re-bless of every committed
/// snapshot on any engine bookkeeping change. Golden snapshots pin
/// simulated behaviour, not execution metrics.
// Newlines are canonical bytes of the snapshot format, spelled out where the
// text is produced rather than hidden inside writeln!.
#[allow(clippy::write_with_newline)]
pub fn canonical_json(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"architecture\": {},\n  \"completed\": {},\n  \"unmapped_reads\": {},\n  \
         \"first_arrival_ns\": {},\n  \"last_completion_ns\": {},\n",
        jstr(&r.architecture.to_string()),
        r.completed,
        r.unmapped_reads,
        r.first_arrival.as_ns(),
        r.last_completion.as_ns()
    );
    // Written only once set: runs that never reach end of life keep the
    // snapshot shape they had before the field existed.
    if let Some(t) = r.end_of_life {
        let _ = writeln!(s, "  \"end_of_life_ns\": {},", t.as_ns());
    }
    let _ = write!(
        s,
        "  \"all\": {},\n  \"read\": {},\n  \"write\": {},\n",
        latency(&r.all),
        latency(&r.read),
        latency(&r.write)
    );
    let _ = write!(
        s,
        "  \"gc\": {{\"events\":{},\"total_time_ns\":{},\"mean_time_ns\":{},\
         \"pages_copied\":{},\"blocks_erased\":{}}},\n",
        r.gc.events,
        r.gc.total_time.as_ns(),
        r.gc.mean_time.as_ns(),
        r.gc.pages_copied,
        r.gc.blocks_erased
    );
    let _ = write!(
        s,
        "  \"ftl\": {{\"host_writes\":{},\"gc_relocations\":{},\"erases\":{},\
         \"blocks_retired\":{},\"gc_triggers\":{}}},\n",
        r.ftl.host_writes,
        r.ftl.gc_relocations,
        r.ftl.erases,
        r.ftl.blocks_retired,
        r.ftl.gc_triggers
    );
    let _ = write!(s, "  \"channel_util\": {},\n", util(&r.channel_util));
    let _ = write!(
        s,
        "  \"energy\": {{\"h_channel_mj\":{},\"v_channel_mj\":{},\"mesh_mj\":{},\
         \"host_bytes\":{}}},\n",
        jf(r.energy.h_channel_mj),
        jf(r.energy.v_channel_mj),
        jf(r.energy.mesh_mj),
        r.energy.host_bytes
    );
    let _ = write!(
        s,
        "  \"wear\": {{\"min\":{},\"max\":{},\"mean\":{},\"std_dev\":{},\"per_way_mean\":{}}},\n",
        r.wear.min,
        r.wear.max,
        jf(r.wear.mean),
        jf(r.wear.std_dev),
        jlist(&r.wear.per_way_mean, |x| jf(*x))
    );
    // Emitted only for wear-observing GC plans that actually ran GC: the
    // paper-plan snapshots predate the block and must stay byte-identical.
    if r.wear_tracked && r.gc.events > 0 {
        let _ = write!(
            s,
            "  \"wear_detail\": {{\"min\":{},\"max\":{},\"mean\":{},\"spread\":{}}},\n",
            r.wear.min,
            r.wear.max,
            jf(r.wear.mean),
            r.wear.spread()
        );
    }
    let _ = write!(
        s,
        "  \"reliability\": {{\"read_retries\":{},\"soft_decodes\":{},\
         \"uncorrectable_reads\":{},\"retransmissions\":{},\"silent_corruptions\":{},\
         \"grown_bad_blocks\":{},\"chip_failures\":{}}},\n",
        r.reliability.read_retries,
        r.reliability.soft_decodes,
        r.reliability.uncorrectable_reads,
        r.reliability.retransmissions,
        r.reliability.silent_corruptions,
        r.reliability.grown_bad_blocks,
        r.reliability.chip_failures
    );
    // Emitted only for multi-tenant runs: the single-tenant snapshots
    // predate the field and must stay byte-identical.
    if !r.tenants.is_empty() {
        let _ = write!(s, "  \"tenants\": {},\n", jlist(&r.tenants, tenant));
    }
    // Emitted only when parity redundancy is configured: the baseline
    // snapshots predate the subsystem and must stay byte-identical. The
    // fault counters that only move under redundancy/failure ride along
    // here rather than widening the pinned reliability block.
    if let Some(red) = &r.redundancy {
        let jtime = |t: Option<nssd_sim::SimTime>| match t {
            Some(t) => t.as_ns().to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            s,
            "  \"redundancy\": {{\"stripe_width\":{},\"degraded\":{},\"rebuild_pages\":{},\
             \"rebuild_started_ns\":{},\"rebuild_completed_ns\":{},\"pages_degraded\":{},\
             \"reconstructed_reads\":{},\"host_io_errors\":{},\"unrecovered_transfers\":{}}},\n",
            red.stripe_width,
            latency(&red.degraded),
            red.rebuild_pages,
            jtime(red.rebuild_started),
            jtime(red.rebuild_completed),
            r.reliability.pages_degraded,
            r.reliability.reconstructed_reads,
            r.reliability.host_io_errors,
            r.reliability.unrecovered_transfers
        );
    }
    let _ = write!(
        s,
        "  \"oracle\": {{\"enabled\":{},\"checks\":{},\"violations\":{},\
         \"functional_digest\":{}}}\n}}\n",
        r.oracle.enabled,
        r.oracle.checks,
        jlist(&r.oracle.violations, |v: &String| jstr(v)),
        jstr(&format!("{:016x}", r.oracle.functional_digest))
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_are_unique_and_filesystem_safe() {
        let cases = matrix();
        let mut names: Vec<String> = cases.iter().map(GoldenCase::file_name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate golden file names");
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "unsafe file name {n}"
            );
        }
    }

    #[test]
    fn canonical_json_is_stable_and_parseable_shape() {
        let case = matrix()[0];
        let a = canonical_json(&case.run().unwrap());
        let b = canonical_json(&case.run().unwrap());
        assert_eq!(a, b, "same case must serialize byte-identically");
        // Shape smoke checks without a JSON parser (none in-tree).
        assert!(a.starts_with("{\n"));
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"functional_digest\""));
        assert_eq!(a.matches("\"architecture\"").count(), 1);
    }

    #[test]
    fn float_rendering_is_canonical() {
        assert_eq!(jf(0.0), "0");
        assert_eq!(jf(-0.0), "0");
        assert_eq!(jf(0.5), "0.5");
        assert_eq!(jf(1.0), "1");
        let x = 0.1 + 0.2;
        assert_eq!(jf(x).parse::<f64>().unwrap(), x, "shortest roundtrip");
    }

    #[test]
    fn string_escaping_covers_controls() {
        assert_eq!(jstr("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(jstr("x\ny"), "\"x\\ny\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
    }
}
