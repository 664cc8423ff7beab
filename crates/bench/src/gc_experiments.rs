//! The garbage-collection experiments: Figs 18, 19, 20(a), 20(b).

use std::sync::OnceLock;

use nssd_core::{
    run_closed_loop_preconditioned, run_trace_preconditioned, Architecture, SimReport,
};
use nssd_ftl::{
    GcPlanSpec, GcPolicy, PlacementSpec, PreemptionSpec, TriggerSpec, VictimSpec,
    DEFAULT_WEAR_WEIGHT,
};
use nssd_workloads::{PaperWorkload, SyntheticPattern, SyntheticSpec};

use crate::experiments::Experiment;
use crate::setup::{self, geomean};
use crate::table::{fmt_ratio, fmt_us, Table};

/// The architectures the paper carries into the GC study.
pub fn gc_architectures() -> [Architecture; 3] {
    [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ]
}

/// The GC policies compared in Fig 19.
pub fn gc_policies() -> [GcPolicy; 3] {
    [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial]
}

/// Fig 18: synthetic I/O performance while GC is triggered.
pub fn fig18_gc_synthetic() -> Experiment {
    let requests = setup::gc_requests_per_run();
    let mut t = Table::new(vec![
        "metric".to_string(),
        "arch + GC".to_string(),
        "mean latency".to_string(),
        "vs baseSSD(PaGC)".to_string(),
    ]);
    // Read side: a 70/30 read/write random mix so GC triggers while reads
    // are measured; write side: pure random writes. Every cell generates
    // its own trace, so the trace moves into the job and then into the
    // engine by value.
    let mut cells = Vec::new();
    for (metric, pattern, write_frac_note) in [
        ("read", SyntheticPattern::RandomRead, true),
        ("write", SyntheticPattern::RandomWrite, false),
    ] {
        for arch in gc_architectures() {
            for policy in [GcPolicy::Parallel, GcPolicy::Spatial] {
                let cfg = setup::gc_config(arch, policy);
                let footprint = setup::gc_footprint(&cfg);
                let trace = if write_frac_note {
                    // A deterministic 70/30 read/write mix from the two pure
                    // generators, so GC triggers while reads are measured.
                    let reads =
                        SyntheticSpec::paper(pattern, requests * 7 / 10, footprint).generate();
                    let writes = SyntheticSpec::paper(
                        SyntheticPattern::RandomWrite,
                        requests * 3 / 10,
                        footprint,
                    )
                    .generate();
                    nssd_workloads::Trace::interleave("gc-read-mix", &reads, 7, &writes, 3)
                } else {
                    SyntheticSpec::paper(pattern, requests, footprint).generate()
                };
                cells.push((metric, arch, policy, cfg, trace));
            }
        }
    }
    let jobs: Vec<_> = cells
        .iter_mut()
        .map(|(_, _, _, cfg, trace)| {
            let cfg = *cfg;
            let trace = std::mem::replace(trace, nssd_workloads::Trace::new("taken"));
            move || {
                run_closed_loop_preconditioned(cfg, trace, 16, setup::GC_FILL, setup::GC_OVERWRITE)
                    .expect("fig18 run")
            }
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    let mut base_mean = 0.0f64;
    for ((metric, arch, policy, _, _), r) in cells.iter().zip(&reports) {
        let mean = if *metric == "read" {
            r.read.mean.as_ns() as f64
        } else {
            r.write.mean.as_ns() as f64
        };
        if *arch == Architecture::BaseSsd && *policy == GcPolicy::Parallel {
            base_mean = mean;
        }
        t.row(vec![
            metric.to_string(),
            format!("{} + {}", arch.label(), policy),
            fmt_us(mean as u64),
            fmt_ratio(base_mean / mean.max(1.0)),
        ]);
    }
    Experiment {
        id: "Fig 18",
        title: "synthetic I/O performance while GC runs (normalized to baseSSD+PaGC)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: SpGC gains ≤16% on baseSSD (channel still shared), 1.59x/1.95x (R/W) on \
             pSSD, and ≈5x on pnSSD where the v-channels isolate the GC path"
                .into(),
        ],
    }
}

type GcRunKey = (PaperWorkload, Architecture, GcPolicy);

fn gc_trace_reports() -> &'static Vec<(GcRunKey, SimReport)> {
    static CACHE: OnceLock<Vec<(GcRunKey, SimReport)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let requests = setup::gc_requests_per_run();
        // The 72-cell (workload × arch × policy) preconditioned matrix is
        // the most expensive cache in the harness; every cell is
        // independent, so fan it across the pool. Traces are generated
        // inside the jobs and move into the engine by value.
        let mut keys: Vec<GcRunKey> = Vec::new();
        for workload in PaperWorkload::all() {
            for arch in gc_architectures() {
                for policy in gc_policies() {
                    keys.push((workload, arch, policy));
                }
            }
        }
        let jobs: Vec<_> = keys
            .iter()
            .map(|&(workload, arch, policy)| {
                move || {
                    let cfg = setup::gc_config(arch, policy);
                    let trace = workload.generate(
                        requests,
                        setup::gc_footprint(&cfg),
                        setup::EXPERIMENT_SEED ^ workload.name().len() as u64,
                    );
                    run_trace_preconditioned(cfg, trace, setup::GC_FILL, setup::GC_OVERWRITE)
                        .expect("fig19 run")
                }
            })
            .collect();
        keys.into_iter().zip(nssd_sim::scoped_map(jobs)).collect()
    })
}

fn lookup(key: GcRunKey) -> &'static SimReport {
    gc_trace_reports()
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, r)| r)
        .expect("report cached")
}

/// Fig 19: average I/O performance on traces under PaGC / preemptive /
/// spatial GC, normalized to baseSSD + PaGC.
pub fn fig19_gc_traces() -> Experiment {
    let mut headers = vec!["workload".to_string()];
    for arch in gc_architectures() {
        for policy in gc_policies() {
            headers.push(format!("{}+{}", arch.label(), policy));
        }
    }
    let mut t = Table::new(headers);
    let mut ratio_cols: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for workload in PaperWorkload::all() {
        let base = lookup((workload, Architecture::BaseSsd, GcPolicy::Parallel));
        let mut row = vec![workload.name().to_string()];
        let mut col = 0;
        for arch in gc_architectures() {
            for policy in gc_policies() {
                let r = lookup((workload, arch, policy));
                let ratio = r.speedup_vs(base);
                ratio_cols[col].push(ratio);
                row.push(fmt_ratio(ratio));
                col += 1;
            }
        }
        t.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for col in &ratio_cols {
        avg.push(fmt_ratio(geomean(col)));
    }
    t.row(avg);
    Experiment {
        id: "Fig 19",
        title: "I/O performance under GC (normalized to baseSSD+PaGC)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: pnSSD+SpGC averages 9.7x over baseSSD+PaGC and 5.9x over pSSD; \
             SpGC beats preemptive GC by ~47% on average"
                .into(),
        ],
    }
}

/// Fig 20(a): tail latency on rocksdb-0.
pub fn fig20a_tail_latency() -> Experiment {
    let mut t = Table::new(vec![
        "arch + GC".to_string(),
        "p50".to_string(),
        "p95".to_string(),
        "p99".to_string(),
        "p99.9".to_string(),
        "max".to_string(),
    ]);
    let base = lookup((
        PaperWorkload::RocksDb0,
        Architecture::BaseSsd,
        GcPolicy::Parallel,
    ));
    let mut p99s = Vec::new();
    for (arch, policy) in [
        (Architecture::BaseSsd, GcPolicy::Parallel),
        (Architecture::BaseSsd, GcPolicy::Spatial),
        (Architecture::PSsd, GcPolicy::Spatial),
        (Architecture::PnSsdSplit, GcPolicy::Spatial),
    ] {
        let r = lookup((PaperWorkload::RocksDb0, arch, policy));
        p99s.push((format!("{}+{}", arch.label(), policy), r.all.p99));
        t.row(vec![
            format!("{}+{}", arch.label(), policy),
            fmt_us(r.all.p50.as_ns()),
            fmt_us(r.all.p95.as_ns()),
            fmt_us(r.all.p99.as_ns()),
            fmt_us(r.all.p999.as_ns()),
            fmt_us(r.all.max.as_ns()),
        ]);
    }
    let pn = p99s.last().expect("rows above").1;
    Experiment {
        id: "Fig 20a",
        title: "tail latency on rocksdb-0",
        tables: vec![(String::new(), t)],
        notes: vec![format!(
            "p99 reduction of pnSSD(+split)+SpGC vs baseSSD+PaGC: {} (paper: 18.7x)",
            fmt_ratio(base.all.p99.as_ns() as f64 / pn.as_ns().max(1) as f64)
        )],
    }
}

/// Composed-plan ablation: the full victim × placement × preemption grid on
/// pnSSD(+split) over the YCSB-A trace, every combination assembled from
/// components (the watermark trigger is the only trigger family),
/// normalized to the greedy/unconstrained/run-to-completion tuple (legacy
/// PaGC), which is the grid's first row.
pub fn plan_ablation() -> Experiment {
    let mut grid = Vec::new();
    for victim in [
        VictimSpec::Greedy,
        VictimSpec::WearAware {
            wear_weight: DEFAULT_WEAR_WEIGHT,
        },
    ] {
        for placement in [
            PlacementSpec::Unconstrained,
            PlacementSpec::Spatial,
            PlacementSpec::HotCold,
        ] {
            for preemption in [PreemptionSpec::RunToCompletion, PreemptionSpec::YieldToIo] {
                grid.push(GcPlanSpec {
                    victim,
                    trigger: TriggerSpec::Watermark,
                    placement,
                    preemption,
                });
            }
        }
    }
    let requests = setup::gc_requests_per_run();
    let jobs: Vec<_> = grid
        .iter()
        .map(|&spec| {
            move || {
                let mut cfg = setup::gc_config(Architecture::PnSsdSplit, GcPolicy::Parallel);
                cfg.gc.plan = Some(spec);
                let trace = PaperWorkload::YcsbA.generate(
                    requests,
                    setup::gc_footprint(&cfg),
                    setup::EXPERIMENT_SEED ^ 0x91AA,
                );
                run_trace_preconditioned(cfg, trace, setup::GC_FILL, setup::GC_OVERWRITE)
                    .expect("plan ablation run")
            }
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);

    let mut t = Table::new(vec![
        "plan".to_string(),
        "mean latency".to_string(),
        "p99".to_string(),
        "vs PaGC tuple".to_string(),
        "gc events".to_string(),
        "pages copied".to_string(),
        "wear spread".to_string(),
    ]);
    let base_mean = reports[0].all.mean.as_ns() as f64;
    for (spec, r) in grid.iter().zip(&reports) {
        let mean = r.all.mean.as_ns() as f64;
        t.row(vec![
            spec.to_string(),
            fmt_us(mean as u64),
            fmt_us(r.all.p99.as_ns()),
            fmt_ratio(base_mean / mean.max(1.0)),
            r.gc.events.to_string(),
            r.gc.pages_copied.to_string(),
            r.wear.spread().to_string(),
        ]);
    }
    Experiment {
        id: "Plans",
        title: "composed GC plan ablation on pnSSD(+split), YCSB-A (normalized to PaGC tuple)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "victim × placement × preemption grid assembled from components; \
             greedy-free-run is byte-identical to legacy PaGC, greedy-spatial-run to SpGC, \
             greedy-free-yield to preemptive GC"
                .into(),
        ],
    }
}

/// Fig 20(b): average GC event duration across the trace suite.
pub fn fig20b_gc_time() -> Experiment {
    let mut t = Table::new(vec![
        "arch + GC".to_string(),
        "gc events".to_string(),
        "mean event time".to_string(),
        "pages copied".to_string(),
    ]);
    for (arch, policy) in [
        (Architecture::BaseSsd, GcPolicy::Parallel),
        (Architecture::BaseSsd, GcPolicy::Spatial),
        (Architecture::PSsd, GcPolicy::Spatial),
        (Architecture::PnSsdSplit, GcPolicy::Spatial),
    ] {
        let mut events = 0u64;
        let mut total_ns = 0u64;
        let mut copied = 0u64;
        for workload in PaperWorkload::all() {
            let r = lookup((workload, arch, policy));
            events += r.gc.events;
            total_ns += r.gc.total_time.as_ns();
            copied += r.gc.pages_copied;
        }
        t.row(vec![
            format!("{}+{}", arch.label(), policy),
            events.to_string(),
            fmt_us(total_ns.checked_div(events).unwrap_or(0)),
            copied.to_string(),
        ]);
    }
    Experiment {
        id: "Fig 20b",
        title: "average GC execution time across the trace suite",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: SpGC variants finish GC faster than baseSSD+PaGC — direct \
             flash-to-flash copies halve the transfer count on pnSSD"
                .into(),
        ],
    }
}
