//! The four pinned workloads and their cells.
//!
//! Each workload builds every configuration it uses in one function
//! ([`Workload::setup`] dispatches to it), so a configuration change is one
//! edit in one place. GC is set through [`GcPlanSpec`] tuples; the only
//! `GcPolicy` line is the GC-off line of `nogc-fabrics`.

use nssd_core::{
    prepare_closed_loop_preconditioned, prepare_tenants_preconditioned, prepare_trace,
    Architecture, ChipFailureSpec, Drive, SchedulerKind, SsdConfig, SsdSim,
};
use nssd_ftl::{
    GcPlanSpec, GcPolicy, PlacementSpec, PreemptionSpec, RedundancyConfig, TriggerSpec, VictimSpec,
};
use nssd_sim::SimTime;
use nssd_workloads::{PaperWorkload, TenantMix};

use crate::spans::Spans;

/// Default `--seed`: the experiment seed of the repository's figures.
pub const DEFAULT_SEED: u64 = 0x20220C0;

/// Aging of the GC workloads: 85% of the logical space written, then 0.3×
/// logical random overwrites (the figures' GC preconditioning).
const AGED_FILL: f64 = 0.85;
const AGED_OVERWRITE: f64 = 0.3;

/// PaGC as a plan tuple: greedy victims, watermark trigger, unconstrained
/// placement, copies run to completion.
const PAGC: GcPlanSpec = GcPlanSpec {
    victim: VictimSpec::Greedy,
    trigger: TriggerSpec::Watermark,
    placement: PlacementSpec::Unconstrained,
    preemption: PreemptionSpec::RunToCompletion,
};

/// The paper's spatial GC as a plan tuple.
const SPGC: GcPlanSpec = GcPlanSpec {
    placement: PlacementSpec::Spatial,
    ..PAGC
};

/// One benchmark workload: a set of cells sharing a traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop YCSB-A on every fabric family with GC off.
    NogcFabrics,
    /// Closed-loop YCSB-A on an aged device, PaGC and spatial GC.
    GcAged,
    /// Two tenants through the multi-queue frontend on an aged device.
    TenantsAged,
    /// Read-dominant traffic through a chip failure, parity rebuild,
    /// oracle and a mid-run checkpoint.
    RebuildOracle,
}

/// One simulated configuration of a workload, run in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Short cell name used in metric names and trace files.
    pub name: &'static str,
    /// Interconnect architecture simulated.
    pub arch: Architecture,
}

const fn cell(name: &'static str, arch: Architecture) -> Cell {
    Cell { name, arch }
}

const BASE: Cell = cell("base", Architecture::BaseSsd);
const PSSD: Cell = cell("pssd", Architecture::PSsd);
const PNSSD: Cell = cell("pnssd", Architecture::PnSsd);
const PNSSD_SPLIT: Cell = cell("pnssd-split", Architecture::PnSsdSplit);
const NOSSD: Cell = cell("nossd", Architecture::NoSsdUnconstrained);

impl Workload {
    /// Every workload, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::NogcFabrics,
        Workload::GcAged,
        Workload::TenantsAged,
        Workload::RebuildOracle,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NogcFabrics => "nogc-fabrics",
            Workload::GcAged => "gc-aged",
            Workload::TenantsAged => "tenants-aged",
            Workload::RebuildOracle => "rebuild-oracle",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells, in run order. `base` is first in every workload.
    pub fn cells(self) -> &'static [Cell] {
        match self {
            Workload::NogcFabrics => &[BASE, PSSD, PNSSD_SPLIT, NOSSD],
            Workload::GcAged => &[BASE, PNSSD_SPLIT],
            Workload::TenantsAged => &[BASE, PNSSD],
            Workload::RebuildOracle => &[BASE, PNSSD_SPLIT],
        }
    }

    /// Requests each cell attempts at full scale (`scale_div` = 1).
    pub fn requests_per_cell(self) -> usize {
        match self {
            Workload::NogcFabrics => 125_000,
            Workload::GcAged => 150_000,
            Workload::TenantsAged => 2 * 50_000,
            Workload::RebuildOracle => 600_000,
        }
    }

    /// Whether the run checkpoints and resumes at the first rebuilt page.
    pub fn checkpoints(self) -> bool {
        self == Workload::RebuildOracle
    }

    /// Generates the cell's inputs from `seed` and prepares the simulator,
    /// recording `generate` and `prepare` spans. `scale_div` divides every
    /// request count (1 for measurement, 100 for the smoke test).
    ///
    /// # Errors
    ///
    /// Returns the runner's message for an invalid configuration or an
    /// infeasible trace.
    pub fn setup(
        self,
        cell: Cell,
        seed: u64,
        scale_div: usize,
        spans: &mut Spans,
    ) -> Result<(SsdSim, Drive), String> {
        let requests = self.requests_per_cell() / scale_div.max(1);
        match self {
            Workload::NogcFabrics => nogc_fabrics(cell.arch, requests, seed, spans),
            Workload::GcAged => gc_aged(cell.arch, requests, seed, spans),
            Workload::TenantsAged => tenants_aged(cell.arch, requests, seed, spans),
            Workload::RebuildOracle => rebuild_oracle(cell.arch, requests, seed, spans),
        }
    }
}

/// The host I/O path alone: the event queue, `Resource` reservations and
/// each `FabricBackend`'s plans, with reads beside writes and no erases.
fn nogc_fabrics(
    arch: Architecture,
    requests: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(SsdSim, Drive), String> {
    let mut cfg = SsdConfig::new(arch);
    cfg.gc.policy = GcPolicy::None;
    cfg.seed = seed;
    let trace = spans.time("generate", || {
        PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, seed)
    });
    spans.time("prepare", || prepare_trace(cfg, trace))
}

/// GC triggering, relocation, flash-to-flash copies and write-stall
/// retries. Closed loop at depth 32 (the Fig 18 style): open-loop GC traces
/// this long fall into a write-stall retry storm.
fn gc_aged(
    arch: Architecture,
    requests: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(SsdSim, Drive), String> {
    let mut cfg = SsdConfig::gc_scaled(arch);
    cfg.gc.plan = Some(if arch == Architecture::BaseSsd {
        PAGC
    } else {
        SPGC
    });
    cfg.seed = seed;
    let trace = spans.time("generate", || {
        PaperWorkload::YcsbA.generate(requests, aged_footprint(&cfg), seed)
    });
    spans.time("prepare", || {
        prepare_closed_loop_preconditioned(cfg, trace, 32, AGED_FILL, AGED_OVERWRITE)
    })
}

/// The multi-queue frontend (`Drive::MultiTenant`, `nssd-host::qos`) with
/// bursty writes beside latency-sensitive reads, on the GC layer of
/// `gc-aged`.
fn tenants_aged(
    arch: Architecture,
    requests: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(SsdSim, Drive), String> {
    let mut cfg = SsdConfig::gc_scaled(arch);
    cfg.gc.plan = Some(PAGC);
    cfg.seed = seed;
    let mix = TenantMix::interference(requests / 2);
    let streams = spans.time("generate", || mix.generate(aged_footprint(&cfg), seed));
    spans.time("prepare", || {
        prepare_tenants_preconditioned(
            cfg,
            streams,
            SchedulerKind::WeightedFair,
            16,
            AGED_FILL,
            AGED_OVERWRITE,
        )
    })
}

/// The oracle, degraded reads, the parity rebuild and (in the cell runner)
/// the checkpoint codec, under read-dominant traffic.
fn rebuild_oracle(
    arch: Architecture,
    requests: usize,
    seed: u64,
    spans: &mut Spans,
) -> Result<(SsdSim, Drive), String> {
    let mut cfg = SsdConfig::new(arch);
    cfg.gc.plan = Some(PAGC);
    cfg.redundancy = RedundancyConfig::with_stripe(2);
    cfg.oracle = true;
    cfg.seed = seed;
    let trace = spans.time("generate", || {
        PaperWorkload::WebSearch0.generate(requests, cfg.logical_bytes() / 2, seed)
    });
    // Fail chip (0, 0) a third of the way through the arrivals: enough
    // writes land on it first, enough reads follow to exercise
    // reconstruction while the rebuild runs.
    let third = trace
        .records()
        .get(requests / 3)
        .ok_or("rebuild-oracle needs at least one request")?;
    cfg.faults.chip_failure = Some(ChipFailureSpec {
        channel: 0,
        way: 0,
        at: third.at + SimTime::from_ns(1),
    });
    spans.time("prepare", || prepare_trace(cfg, trace))
}

/// Trace footprint of the aged workloads: inside the preconditioned region
/// with 5% of the logical space to spare.
fn aged_footprint(cfg: &SsdConfig) -> u64 {
    (cfg.logical_bytes() as f64 * (AGED_FILL - 0.05)) as u64
}
