//! The garbage-collection experiments: Figs 18, 19, 20(a), 20(b).

use std::sync::OnceLock;

use nssd_core::{run, Aging, Architecture, Drive, SimReport};
use nssd_ftl::{
    GcPlanSpec, PlacementSpec, PreemptionSpec, TriggerSpec, VictimSpec, DEFAULT_WEAR_WEIGHT,
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

/// The GC plans compared in Fig 19, with their table labels.
pub const GC_PLANS: [(GcPlanSpec, &str); 3] = [
    (GcPlanSpec::pagc(), "PaGC"),
    (GcPlanSpec::preemptive(), "preemptive"),
    (GcPlanSpec::spatial(), "SpGC"),
];
const PAGC: (GcPlanSpec, &str) = GC_PLANS[0];
const SPGC: (GcPlanSpec, &str) = GC_PLANS[2];

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
            for (plan, label) in [PAGC, SPGC] {
                let cfg = setup::gc_config(arch, plan);
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
                cells.push((metric, arch, label, cfg, trace));
            }
        }
    }
    let jobs: Vec<_> = cells
        .iter_mut()
        .map(|(_, _, _, cfg, trace)| {
            let cfg = *cfg;
            let trace = std::mem::replace(trace, nssd_workloads::Trace::new("taken"));
            move || run(cfg, Drive::closed_loop(trace, 16), Aging::PAPER).expect("fig18 run")
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    let mut base_mean = 0.0f64;
    for ((metric, arch, label, _, _), r) in cells.iter().zip(&reports) {
        let mean = if *metric == "read" {
            r.read.mean.as_ns() as f64
        } else {
            r.write.mean.as_ns() as f64
        };
        if *arch == Architecture::BaseSsd && *label == PAGC.1 {
            base_mean = mean;
        }
        t.row(vec![
            metric.to_string(),
            format!("{} + {label}", arch.label()),
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

type GcRunKey = (PaperWorkload, Architecture, GcPlanSpec);

fn gc_trace_reports() -> &'static Vec<(GcRunKey, SimReport)> {
    static CACHE: OnceLock<Vec<(GcRunKey, SimReport)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let requests = setup::gc_requests_per_run();
        // The 72-cell (workload × arch × plan) preconditioned matrix is
        // the most expensive cache in the harness; every cell is
        // independent, so fan it across the pool. Traces are generated
        // inside the jobs and move into the engine by value.
        let mut keys: Vec<GcRunKey> = Vec::new();
        for workload in PaperWorkload::all() {
            for arch in gc_architectures() {
                for (plan, _) in GC_PLANS {
                    keys.push((workload, arch, plan));
                }
            }
        }
        let jobs: Vec<_> = keys
            .iter()
            .map(|&(workload, arch, plan)| {
                move || {
                    let cfg = setup::gc_config(arch, plan);
                    let trace = workload.generate(
                        requests,
                        setup::gc_footprint(&cfg),
                        setup::EXPERIMENT_SEED ^ workload.name().len() as u64,
                    );
                    run(cfg, trace, Aging::PAPER).expect("fig19 run")
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
        for (_, label) in GC_PLANS {
            headers.push(format!("{}+{label}", arch.label()));
        }
    }
    let mut t = Table::new(headers);
    let mut ratio_cols: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for workload in PaperWorkload::all() {
        let base = lookup((workload, Architecture::BaseSsd, PAGC.0));
        let mut row = vec![workload.name().to_string()];
        let mut col = 0;
        for arch in gc_architectures() {
            for (plan, _) in GC_PLANS {
                let r = lookup((workload, arch, plan));
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

/// The cells of Figs 20(a) and 20(b): baseSSD under PaGC, then SpGC on
/// each architecture of the GC study.
fn fig20_cells() -> [(Architecture, (GcPlanSpec, &'static str)); 4] {
    [
        (Architecture::BaseSsd, PAGC),
        (Architecture::BaseSsd, SPGC),
        (Architecture::PSsd, SPGC),
        (Architecture::PnSsdSplit, SPGC),
    ]
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
    let base = lookup((PaperWorkload::RocksDb0, Architecture::BaseSsd, PAGC.0));
    let mut p99s = Vec::new();
    for (arch, (plan, label)) in fig20_cells() {
        let r = lookup((PaperWorkload::RocksDb0, arch, plan));
        p99s.push((format!("{}+{label}", arch.label()), r.all.p99));
        t.row(vec![
            format!("{}+{label}", arch.label()),
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
/// normalized to the greedy/unconstrained/run-to-completion tuple (PaGC),
/// which is the grid's first row.
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
                let cfg = setup::gc_config(Architecture::PnSsdSplit, spec);
                let trace = PaperWorkload::YcsbA.generate(
                    requests,
                    setup::gc_footprint(&cfg),
                    setup::EXPERIMENT_SEED ^ 0x91AA,
                );
                run(cfg, trace, Aging::PAPER).expect("plan ablation run")
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
             greedy-free-run is PaGC, greedy-spatial-run SpGC, greedy-free-yield preemptive GC"
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
    for (arch, (plan, label)) in fig20_cells() {
        let mut events = 0u64;
        let mut total_ns = 0u64;
        let mut copied = 0u64;
        for workload in PaperWorkload::all() {
            let r = lookup((workload, arch, plan));
            events += r.gc.events;
            total_ns += r.gc.total_time.as_ns();
            copied += r.gc.pages_copied;
        }
        t.row(vec![
            format!("{}+{label}", arch.label()),
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
