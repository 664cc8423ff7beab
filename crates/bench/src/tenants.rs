//! Tenant-interference experiments: the multi-tenant serving scenario no
//! paper figure covers.
//!
//! A GC-heavy write-burst tenant shares the device with a
//! read-latency-sensitive neighbor ([`TenantMix::interference`]); the
//! matrix sweeps the three bus architectures (baseSSD, pSSD, pnSSD) × the
//! three NVMe-style arbitration policies, and reports per-tenant
//! p50/p99/p999, bandwidth, SLO violations, and queueing delay. Scale with
//! `NSSD_TENANT_REQUESTS` (per tenant, default 2000).

use nssd_core::{run, Aging, Architecture, Drive, SchedulerKind, SimReport, TenantSummary};
use nssd_ftl::GcPlanSpec;
use nssd_workloads::{tail_resolvable, TenantMix};

use crate::experiments::Experiment;
use crate::setup;
use crate::table::{fmt_us, Table};

/// Requests per tenant per cell; override with `NSSD_TENANT_REQUESTS`.
pub fn tenant_requests_per_run() -> usize {
    nssd_sim::env_count("NSSD_TENANT_REQUESTS", 2_000)
}

/// Outstanding-request budget shared by the tenants in every cell.
pub const TENANT_DEPTH: usize = 16;

/// The experiment matrix: bus architectures × arbitration policies.
pub fn tenant_cells() -> Vec<(Architecture, SchedulerKind)> {
    let mut cells = Vec::new();
    for arch in [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
    ] {
        for sched in SchedulerKind::all() {
            cells.push((arch, sched));
        }
    }
    cells
}

fn run_cell(arch: Architecture, sched: SchedulerKind, requests: usize) -> SimReport {
    let cfg = setup::gc_config(arch, GcPlanSpec::pagc());
    let streams = TenantMix::interference(requests)
        .generate(setup::gc_footprint(&cfg), setup::EXPERIMENT_SEED);
    run(
        cfg,
        Drive::tenants(streams, sched, TENANT_DEPTH),
        Aging::PAPER,
    )
    .expect("tenant interference cell")
}

/// A tail percentile cell, flagged when the sample count cannot resolve it
/// (a "p99.9" over fewer than 1000 completions is silently the max —
/// see `nssd_workloads::tail_support`).
fn fmt_tail(value_ns: u64, count: u64, p: f64) -> String {
    if tail_resolvable(count, p) {
        fmt_us(value_ns)
    } else {
        format!("{}*", fmt_us(value_ns))
    }
}

fn tenant_row(
    arch: Architecture,
    sched: SchedulerKind,
    span_bytes_per_sec: f64,
    t: &TenantSummary,
) -> Vec<String> {
    vec![
        arch.to_string(),
        sched.label().to_string(),
        t.name.clone(),
        t.completed.to_string(),
        fmt_us(t.all.p50.as_ns()),
        fmt_tail(t.all.p99.as_ns(), t.all.count, 99.0),
        fmt_tail(t.all.p999.as_ns(), t.all.count, 99.9),
        format!("{:.3}", span_bytes_per_sec / 1e9),
        format!(
            "{} ({:.1}%)",
            t.slo_violations,
            t.slo_violation_rate() * 100.0
        ),
        fmt_us(t.mean_queue_delay.as_ns()),
    ]
}

/// The tenant-interference matrix experiment.
pub fn tenant_interference() -> Experiment {
    let requests = tenant_requests_per_run();
    let cells = tenant_cells();
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(arch, sched)| move || run_cell(arch, sched, requests))
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    let mut table = Table::new(vec![
        "arch",
        "scheduler",
        "tenant",
        "done",
        "p50",
        "p99",
        "p99.9",
        "GB/s",
        "SLO viol",
        "queue delay",
    ]);
    for (&(arch, sched), report) in cells.iter().zip(&reports) {
        let span = report.last_completion.saturating_sub(report.first_arrival);
        for t in &report.tenants {
            table.row(tenant_row(arch, sched, t.bytes_per_sec(span), t));
        }
    }
    Experiment {
        id: "Tenants",
        title: "Multi-tenant interference: write-burst vs latency-sensitive",
        tables: vec![(
            format!(
                "{requests} requests/tenant, depth {TENANT_DEPTH}, parallel GC, \
                 aged device ({}% fill)",
                (setup::PAPER_FILL * 100.0) as u32
            ),
            table,
        )],
        notes: vec![
            "Latency is measured from submission-queue arrival, so queueing behind \
             the other tenant is part of every percentile and of the SLO check."
                .to_string(),
            "* marks tails the sample count cannot resolve (the value degenerates \
             to the max)."
                .to_string(),
            "SLO targets: latency tenant 1ms (latency-sensitive class), writeburst \
             tenant 20ms (throughput class)."
                .to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nssd_core::{LatencySummary, SloClass};
    use nssd_sim::SimTime;

    #[test]
    fn cell_matrix_covers_three_archs_by_three_schedulers() {
        let cells = tenant_cells();
        assert_eq!(cells.len(), 9);
        assert!(cells
            .iter()
            .any(|&(a, s)| a == Architecture::PnSsd && s == SchedulerKind::WeightedFair));
    }

    #[test]
    fn unresolvable_tails_are_flagged() {
        assert_eq!(fmt_tail(5000, 2000, 99.9), "5.00us");
        assert_eq!(fmt_tail(5000, 100, 99.9), "5.00us*");
        assert_eq!(fmt_tail(5000, 100, 99.0), "5.00us");
        assert_eq!(fmt_tail(5000, 50, 99.0), "5.00us*");
    }

    #[test]
    fn tenant_rows_match_table_width() {
        let t = TenantSummary {
            name: "x".into(),
            weight: 1,
            slo_latency: SloClass::Throughput.target(),
            completed: 10,
            bytes: 1 << 20,
            all: LatencySummary::from_histogram(&Default::default()),
            read: LatencySummary::from_histogram(&Default::default()),
            write: LatencySummary::from_histogram(&Default::default()),
            slo_violations: 1,
            mean_queue_delay: SimTime::from_us(3),
            last_completion: SimTime::from_ms(1),
        };
        let row = tenant_row(Architecture::BaseSsd, SchedulerKind::RoundRobin, 1e9, &t);
        assert_eq!(row.len(), 10);
        assert!(row[8].contains("10.0%"), "{:?}", row[8]);
    }
}
