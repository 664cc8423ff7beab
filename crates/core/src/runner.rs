//! High-level experiment runners.
//!
//! Every runner accepts anything implementing [`TraceInput`]: pass `&Trace`
//! when the same trace feeds many experiment cells (the records are copied
//! once into the engine), or pass an owned [`Trace`] / `Vec<IoRequest>` for
//! per-run generated traces, in which case the request list moves into the
//! engine's [`Drive`] without a single copy.

use nssd_ftl::FtlError;
use nssd_host::{IoRequest, SchedulerKind, TenantConfig};
use nssd_workloads::Trace;

use crate::{Drive, SimReport, SsdConfig, SsdSim};

/// A source of the request list driving a run.
///
/// The engine's [`Drive`] owns its `Vec<IoRequest>` end-to-end; this trait
/// decides whether getting there costs a copy (`&Trace`) or not (owned
/// [`Trace`], `Vec<IoRequest>`).
pub trait TraceInput {
    /// Highest byte address touched plus one (the footprint bound used for
    /// preconditioning checks).
    fn footprint_bytes(&self) -> u64;
    /// Consumes the input into the arrival-ordered request list.
    fn into_records(self) -> Vec<IoRequest>;
}

impl TraceInput for Trace {
    fn footprint_bytes(&self) -> u64 {
        Trace::footprint_bytes(self)
    }
    fn into_records(self) -> Vec<IoRequest> {
        Trace::into_records(self)
    }
}

impl TraceInput for &Trace {
    fn footprint_bytes(&self) -> u64 {
        Trace::footprint_bytes(self)
    }
    fn into_records(self) -> Vec<IoRequest> {
        self.records().to_vec()
    }
}

impl TraceInput for Vec<IoRequest> {
    fn footprint_bytes(&self) -> u64 {
        self.iter()
            .map(|r| r.offset + r.len as u64)
            .max()
            .unwrap_or(0)
    }
    fn into_records(self) -> Vec<IoRequest> {
        self
    }
}

/// Runs a trace open-loop (arrivals at trace timestamps) with the device
/// preconditioned just enough that every read hits a mapped page, without
/// fragmenting blocks (the no-GC experiments, Figs 14/15).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_trace(cfg: SsdConfig, trace: impl TraceInput) -> Result<SimReport, String> {
    let (sim, drive) = prepare_trace(cfg, trace)?;
    Ok(sim.run(drive))
}

/// Builds the preconditioned simulator and [`Drive`] that [`run_trace`]
/// would execute, without running it — the entry point for stepped or
/// checkpointed execution.
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_trace(cfg: SsdConfig, trace: impl TraceInput) -> Result<(SsdSim, Drive), String> {
    let mut sim = SsdSim::new(cfg)?;
    precondition_footprint(&mut sim, trace.footprint_bytes())?;
    Ok((sim, Drive::OpenLoop(trace.into_records())))
}

/// Runs a trace open-loop on a device preconditioned to `fill` of its
/// logical space with `overwrite × logical` random overwrites, so garbage
/// collection triggers naturally during the run (Figs 18–20).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_trace_preconditioned(
    cfg: SsdConfig,
    trace: impl TraceInput,
    fill: f64,
    overwrite: f64,
) -> Result<SimReport, String> {
    let (sim, drive) = prepare_trace_preconditioned(cfg, trace, fill, overwrite)?;
    Ok(sim.run(drive))
}

/// Prepared (unrun) form of [`run_trace_preconditioned`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_trace_preconditioned(
    cfg: SsdConfig,
    trace: impl TraceInput,
    fill: f64,
    overwrite: f64,
) -> Result<(SsdSim, Drive), String> {
    check_aging(fill, overwrite)?;
    let mut sim = SsdSim::new(cfg)?;
    check_footprint(&sim, trace.footprint_bytes(), fill)?;
    precondition_aged(&mut sim, fill, overwrite)?;
    Ok((sim, Drive::OpenLoop(trace.into_records())))
}

/// Runs requests closed-loop with `depth` outstanding (the synthetic
/// studies, Figs 16/17, where the x-axis is the number of concurrent I/Os).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_closed_loop(
    cfg: SsdConfig,
    requests: impl TraceInput,
    depth: usize,
) -> Result<SimReport, String> {
    let (sim, drive) = prepare_closed_loop(cfg, requests, depth)?;
    Ok(sim.run(drive))
}

/// Prepared (unrun) form of [`run_closed_loop`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_closed_loop(
    cfg: SsdConfig,
    requests: impl TraceInput,
    depth: usize,
) -> Result<(SsdSim, Drive), String> {
    let mut sim = SsdSim::new(cfg)?;
    precondition_footprint(&mut sim, requests.footprint_bytes())?;
    Ok((
        sim,
        Drive::ClosedLoop {
            requests: requests.into_records(),
            depth,
        },
    ))
}

/// Closed-loop variant with GC preconditioning (Fig 18).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_closed_loop_preconditioned(
    cfg: SsdConfig,
    requests: impl TraceInput,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<SimReport, String> {
    let (sim, drive) = prepare_closed_loop_preconditioned(cfg, requests, depth, fill, overwrite)?;
    Ok(sim.run(drive))
}

/// Prepared (unrun) form of [`run_closed_loop_preconditioned`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_closed_loop_preconditioned(
    cfg: SsdConfig,
    requests: impl TraceInput,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<(SsdSim, Drive), String> {
    check_aging(fill, overwrite)?;
    let mut sim = SsdSim::new(cfg)?;
    check_footprint(&sim, requests.footprint_bytes(), fill)?;
    precondition_aged(&mut sim, fill, overwrite)?;
    Ok((
        sim,
        Drive::ClosedLoop {
            requests: requests.into_records(),
            depth,
        },
    ))
}

/// Runs per-tenant streams through the NVMe-style multi-queue frontend:
/// each tenant's requests arrive at their trace timestamps into that
/// tenant's submission queue, the device pulls through `scheduler` with at
/// most `depth` outstanding, and the report carries per-tenant rollups
/// ([`SimReport::tenants`]). The device is preconditioned just enough that
/// every read hits a mapped page (no GC pressure).
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_tenants(
    cfg: SsdConfig,
    streams: Vec<(TenantConfig, impl TraceInput)>,
    scheduler: SchedulerKind,
    depth: usize,
) -> Result<SimReport, String> {
    let (sim, drive) = prepare_tenants(cfg, streams, scheduler, depth)?;
    Ok(sim.run(drive))
}

/// Prepared (unrun) form of [`run_tenants`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_tenants(
    cfg: SsdConfig,
    streams: Vec<(TenantConfig, impl TraceInput)>,
    scheduler: SchedulerKind,
    depth: usize,
) -> Result<(SsdSim, Drive), String> {
    check_streams(&streams)?;
    let mut sim = SsdSim::new(cfg)?;
    let footprint = streams
        .iter()
        .map(|(_, t)| t.footprint_bytes())
        .max()
        .unwrap_or(0);
    precondition_footprint(&mut sim, footprint)?;
    Ok((
        sim,
        Drive::MultiTenant {
            tenants: tenant_records(streams),
            scheduler,
            depth,
        },
    ))
}

/// Multi-tenant variant on an aged device (GC triggers during the run) —
/// the interference experiments, where one tenant's GC-heavy writes
/// contend with a neighbor's latency-sensitive reads.
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn run_tenants_preconditioned(
    cfg: SsdConfig,
    streams: Vec<(TenantConfig, impl TraceInput)>,
    scheduler: SchedulerKind,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<SimReport, String> {
    let (sim, drive) =
        prepare_tenants_preconditioned(cfg, streams, scheduler, depth, fill, overwrite)?;
    Ok(sim.run(drive))
}

/// Prepared (unrun) form of [`run_tenants_preconditioned`].
///
/// # Errors
///
/// Returns a message for invalid configurations or infeasible traces.
pub fn prepare_tenants_preconditioned(
    cfg: SsdConfig,
    streams: Vec<(TenantConfig, impl TraceInput)>,
    scheduler: SchedulerKind,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<(SsdSim, Drive), String> {
    check_streams(&streams)?;
    check_aging(fill, overwrite)?;
    let mut sim = SsdSim::new(cfg)?;
    let footprint = streams
        .iter()
        .map(|(_, t)| t.footprint_bytes())
        .max()
        .unwrap_or(0);
    check_footprint(&sim, footprint, fill)?;
    precondition_aged(&mut sim, fill, overwrite)?;
    Ok((
        sim,
        Drive::MultiTenant {
            tenants: tenant_records(streams),
            scheduler,
            depth,
        },
    ))
}

fn check_streams(streams: &[(TenantConfig, impl TraceInput)]) -> Result<(), String> {
    if streams.is_empty() {
        return Err("multi-tenant run needs at least one tenant stream".into());
    }
    Ok(())
}

fn tenant_records(
    streams: Vec<(TenantConfig, impl TraceInput)>,
) -> Vec<(TenantConfig, Vec<IoRequest>)> {
    streams
        .into_iter()
        .map(|(config, t)| (config, t.into_records()))
        .collect()
}

/// Ages the device: `fill` of the logical space written, `overwrite ×
/// logical` random overwrites, then pressurized so GC has work immediately.
fn precondition_aged(sim: &mut SsdSim, fill: f64, overwrite: f64) -> Result<(), String> {
    let mut rng = sim.rng_mut().clone();
    let max_lpn = (sim.ftl().logical_pages() as f64 * fill) as u64;
    sim.ftl_mut()
        .precondition(fill, overwrite, &mut rng)
        .map_err(|e: FtlError| e.to_string())?;
    sim.ftl_mut()
        .pressurize(max_lpn.max(1), &mut rng)
        .map_err(|e: FtlError| e.to_string())
}

/// Sequentially maps every page the trace's footprint covers, so reads hit
/// flash rather than the unmapped-page fast path.
fn precondition_footprint(sim: &mut SsdSim, footprint_bytes: u64) -> Result<(), String> {
    let page = sim.config().geometry.page_bytes as u64;
    let logical = sim.ftl().logical_pages();
    let footprint_pages = footprint_bytes.div_ceil(page);
    if footprint_pages > logical {
        return Err(format!(
            "trace footprint ({footprint_pages} pages) exceeds logical capacity ({logical})"
        ));
    }
    // One page of headroom so float rounding in `precondition`'s
    // fraction-to-count conversion can never leave the last page unmapped.
    let fill = (footprint_pages + 1) as f64 / logical as f64;
    let mut rng = sim.rng_mut().clone();
    sim.ftl_mut()
        .precondition(fill.min(1.0), 0.0, &mut rng)
        .map_err(|e| e.to_string())
}

/// Refuses the aging fractions [`nssd_ftl::Ftl::precondition`] refuses,
/// before [`check_footprint`] reads `fill`: a NaN fill would otherwise
/// pass for a footprint overflow.
fn check_aging(fill: f64, overwrite: f64) -> Result<(), String> {
    if !(0.0..=1.0).contains(&fill) {
        return Err(format!("fill fraction {fill} is outside [0, 1]"));
    }
    if !(0.0..=2.0).contains(&overwrite) {
        return Err(format!("overwrite fraction {overwrite} is outside [0, 2]"));
    }
    Ok(())
}

fn check_footprint(sim: &SsdSim, footprint_bytes: u64, fill: f64) -> Result<(), String> {
    let page = sim.config().geometry.page_bytes as u64;
    let logical = sim.ftl().logical_pages();
    let footprint_pages = footprint_bytes.div_ceil(page);
    let filled = (logical as f64 * fill) as u64;
    if footprint_pages > filled {
        return Err(format!(
            "trace footprint ({footprint_pages} pages) exceeds the preconditioned region \
             ({filled} pages); shrink the footprint or raise the fill fraction"
        ));
    }
    Ok(())
}
