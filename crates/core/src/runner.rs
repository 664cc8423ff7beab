//! One way to prepare a run: a [`Drive`] (how the requests are issued) and
//! an [`Aging`] (the state the device starts in).
//!
//! [`prepare`] builds the preconditioned simulator and its drive without
//! running them (the entry point for stepped or checkpointed execution);
//! [`run`] runs them to completion. Both take anything that converts into
//! a [`Drive`]. A `&Trace` copies its records once, for a trace that feeds
//! many experiment cells; an owned [`Trace`] or `Vec<IoRequest>` moves into
//! the drive without a copy. Those three convert to open loop;
//! [`Drive::closed_loop`] and [`Drive::tenants`] build the other two.

use nssd_ftl::FtlError;
use nssd_host::{IoRequest, SchedulerKind, TenantConfig};
use nssd_workloads::Trace;

use crate::{Drive, SimReport, SsdConfig, SsdSim};

/// The state the device starts a run in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aging {
    /// Every page the drive's requests touch is mapped sequentially, so
    /// reads hit flash without fragmenting blocks (the no-GC experiments,
    /// Figs 14–17).
    Footprint,
    /// `fill` of the logical space written, then `overwrite × logical`
    /// random overwrites, then pressurized, so garbage collection triggers
    /// naturally during the run (Figs 18–20). Every request must fall
    /// inside the filled region.
    Aged {
        /// Fraction of the logical space written, in `[0, 1]`.
        fill: f64,
        /// Random overwrites as a multiple of the logical space, in `[0, 2]`.
        overwrite: f64,
    },
}

impl Aging {
    /// The paper's aging (§VII-A): 85% fill plus 0.3× overwrites.
    pub const PAPER: Aging = Aging::Aged {
        fill: 0.85,
        overwrite: 0.3,
    };
}

impl From<&Trace> for Drive {
    fn from(trace: &Trace) -> Self {
        Drive::OpenLoop(trace.into())
    }
}

impl From<Trace> for Drive {
    fn from(trace: Trace) -> Self {
        Drive::OpenLoop(trace.into())
    }
}

impl From<Vec<IoRequest>> for Drive {
    fn from(requests: Vec<IoRequest>) -> Self {
        Drive::OpenLoop(requests)
    }
}

impl Drive {
    /// Closed loop over `requests` with `depth` outstanding (the synthetic
    /// studies, Figs 16/17, where the x-axis is the number of concurrent
    /// I/Os).
    pub fn closed_loop(requests: impl Into<Vec<IoRequest>>, depth: usize) -> Drive {
        Drive::ClosedLoop {
            requests: requests.into(),
            depth,
        }
    }

    /// Per-tenant streams through the NVMe-style multi-queue frontend, pulled
    /// through `scheduler` with at most `depth` outstanding; the report
    /// carries per-tenant rollups ([`SimReport::tenants`]).
    pub fn tenants<R: Into<Vec<IoRequest>>>(
        streams: Vec<(TenantConfig, R)>,
        scheduler: SchedulerKind,
        depth: usize,
    ) -> Drive {
        Drive::MultiTenant {
            tenants: streams.into_iter().map(|(c, r)| (c, r.into())).collect(),
            scheduler,
            depth,
        }
    }
}

/// Runs `drive` on a device prepared by [`prepare`].
///
/// # Errors
///
/// Returns [`prepare`]'s message for invalid configurations, drives or
/// agings.
pub fn run(cfg: SsdConfig, drive: impl Into<Drive>, aging: Aging) -> Result<SimReport, String> {
    let (sim, drive) = prepare(cfg, drive, aging)?;
    Ok(sim.run(drive))
}

/// Builds the simulator, ages it per `aging`, and returns it with the
/// drive, unrun.
///
/// The footprint is the highest byte any of the drive's requests touches
/// (across every tenant stream); it must fit the logical capacity, and
/// under [`Aging::Aged`] the filled region.
///
/// # Errors
///
/// Returns a message for a zero depth, an empty or oversized tenant list,
/// a tenant of weight 0, an aging fraction out of range, an invalid
/// configuration, or a footprint that does not fit.
pub fn prepare(
    cfg: SsdConfig,
    drive: impl Into<Drive>,
    aging: Aging,
) -> Result<(SsdSim, Drive), String> {
    let drive = drive.into();
    check_drive(&drive)?;
    if let Aging::Aged { fill, overwrite } = aging {
        check_aging(fill, overwrite)?;
    }
    let mut sim = SsdSim::new(cfg)?;
    let footprint = footprint_bytes(&drive);
    match aging {
        Aging::Footprint => precondition_footprint(&mut sim, footprint)?,
        Aging::Aged { fill, overwrite } => {
            check_footprint(&sim, footprint, fill)?;
            precondition_aged(&mut sim, fill, overwrite)?;
        }
    }
    Ok((sim, drive))
}

// Benchmark-only forwarders: `benchmark/src/workload.rs` still calls these
// three by name. The next change to the benchmark moves it to `prepare` and
// deletes them.

#[doc(hidden)]
pub fn prepare_trace(cfg: SsdConfig, trace: Trace) -> Result<(SsdSim, Drive), String> {
    prepare(cfg, trace, Aging::Footprint)
}

#[doc(hidden)]
pub fn prepare_closed_loop_preconditioned(
    cfg: SsdConfig,
    requests: Trace,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<(SsdSim, Drive), String> {
    prepare(
        cfg,
        Drive::closed_loop(requests, depth),
        Aging::Aged { fill, overwrite },
    )
}

#[doc(hidden)]
pub fn prepare_tenants_preconditioned(
    cfg: SsdConfig,
    streams: Vec<(TenantConfig, Trace)>,
    scheduler: SchedulerKind,
    depth: usize,
    fill: f64,
    overwrite: f64,
) -> Result<(SsdSim, Drive), String> {
    prepare(
        cfg,
        Drive::tenants(streams, scheduler, depth),
        Aging::Aged { fill, overwrite },
    )
}

/// Refuses what the engine would otherwise panic on or a checkpoint of the
/// run would refuse to resume.
fn check_drive(drive: &Drive) -> Result<(), String> {
    match drive {
        Drive::ClosedLoop { depth: 0, .. } | Drive::MultiTenant { depth: 0, .. } => {
            Err("queue depth 0: a closed-loop or multi-tenant drive needs at least 1".into())
        }
        Drive::MultiTenant { tenants, .. } if tenants.is_empty() => {
            Err("multi-tenant run needs at least one tenant stream".into())
        }
        Drive::MultiTenant { tenants, .. } if tenants.len() > u16::MAX as usize => Err(format!(
            "{} tenant streams; the per-request tag holds at most {}",
            tenants.len(),
            u16::MAX
        )),
        Drive::MultiTenant { tenants, .. } => match tenants.iter().find(|(c, _)| c.weight == 0) {
            Some((c, _)) => Err(format!("tenant {} has weight 0", c.name)),
            None => Ok(()),
        },
        Drive::OpenLoop(_) | Drive::ClosedLoop { .. } => Ok(()),
    }
}

/// Highest byte address any request touches, plus one.
fn footprint_bytes(drive: &Drive) -> u64 {
    let end = |r: &IoRequest| r.offset + r.len as u64;
    match drive {
        Drive::OpenLoop(requests) | Drive::ClosedLoop { requests, .. } => {
            requests.iter().map(end).max()
        }
        Drive::MultiTenant { tenants, .. } => tenants.iter().flat_map(|(_, r)| r).map(end).max(),
    }
    .unwrap_or(0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;
    use nssd_host::{IoOp, SloClass};
    use nssd_sim::SimTime;

    #[test]
    fn prepare_refuses_each_bad_input_with_a_message() {
        let cfg = SsdConfig::tiny(Architecture::BaseSsd);
        let read = |offset| vec![IoRequest::new(IoOp::Read, offset, 4096, SimTime::ZERO)];
        let open = |offset| Drive::from(read(offset));
        let closed = |depth| Drive::closed_loop(read(0), depth);
        let tenants = |streams, depth| Drive::tenants(streams, SchedulerKind::RoundRobin, depth);
        let t0 = TenantConfig::new("t0", 1, SloClass::Throughput);
        let one = vec![(t0.clone(), read(0))];
        let too_many = vec![(t0.clone(), vec![]); u16::MAX as usize + 1];
        let weightless = vec![(TenantConfig { weight: 0, ..t0 }, read(0))];
        let aged = |fill, overwrite| Aging::Aged { fill, overwrite };
        let (full, past_aged) = (cfg.logical_bytes(), cfg.logical_bytes() * 9 / 10);
        let cases = [
            (open(0), aged(f64::NAN, 0.3), "fill fraction NaN"),
            (open(0), aged(1.5, 0.3), "fill fraction 1.5"),
            (open(0), aged(0.85, 2.5), "overwrite fraction 2.5"),
            (open(past_aged), Aging::PAPER, "preconditioned region"),
            (open(full), Aging::Footprint, "logical capacity"),
            (tenants(vec![], 4), Aging::Footprint, "one tenant stream"),
            (
                tenants(too_many, 4),
                Aging::Footprint,
                "65536 tenant streams",
            ),
            (tenants(weightless, 4), Aging::Footprint, "t0 has weight 0"),
            (closed(0), Aging::Footprint, "queue depth 0"),
            (tenants(one, 0), Aging::PAPER, "queue depth 0"),
        ];
        for (drive, aging, message) in cases {
            let err = prepare(cfg, drive, aging).expect_err(message);
            assert!(err.contains(message), "expected {message:?}, got {err:?}");
        }
    }
}
