//! Extension experiments quantifying the paper's *Discussion* (§VIII) and
//! motivation arguments: interconnect energy, hybrid ECC, and the Fig 9(b)
//! channel-sliced strawman.

use nssd_core::{run, Aging, Architecture, EccConfig, SsdConfig};
use nssd_ftl::GcPlanSpec;
use nssd_workloads::PaperWorkload;

use crate::experiments::Experiment;
use crate::setup;
use crate::table::{fmt_ratio, fmt_us, Table};

/// E1: interconnect energy per host byte — the paper's §V-A argument that
/// multi-hop NoSSD topologies cost I/O energy per hop.
pub fn ext_energy() -> Experiment {
    let requests = setup::requests_per_run() / 2;
    let mut t = Table::new(vec![
        "architecture".to_string(),
        "h-channel mJ".to_string(),
        "v-channel mJ".to_string(),
        "mesh mJ".to_string(),
        "pJ per host byte".to_string(),
        "vs baseSSD".to_string(),
    ]);
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let trace =
        PaperWorkload::YcsbA.generate(requests, setup::io_footprint(&cfg0), setup::EXPERIMENT_SEED);
    let jobs: Vec<_> = Architecture::with_strawmen()
        .into_iter()
        .map(|arch| {
            let trace = &trace;
            move || run(setup::io_config(arch), trace, Aging::Footprint).expect("energy run")
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    let mut base_pj = 0.0f64;
    for (arch, r) in Architecture::with_strawmen().into_iter().zip(&reports) {
        let e = r.energy;
        if arch == Architecture::BaseSsd {
            base_pj = e.pj_per_host_byte();
        }
        t.row(vec![
            arch.label().to_string(),
            format!("{:.2}", e.h_channel_mj + 0.0),
            format!("{:.2}", e.v_channel_mj + 0.0),
            format!("{:.2}", e.mesh_mj + 0.0),
            format!("{:.1}", e.pj_per_host_byte()),
            fmt_ratio(e.pj_per_host_byte() / base_pj.max(1e-12)),
        ]);
    }
    Experiment {
        id: "Ext E1",
        title: "interconnect energy per host byte (per-traversal/per-hop charging)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "constants are illustrative (15 pJ/B per bus traversal, 18 pJ/B per mesh \
             hop); the ratios carry the §V-A argument: every mesh hop pays again, so \
             NoSSD burns several times the bus architectures' energy"
                .into(),
        ],
    }
}

/// E2: hybrid ECC (§VIII) — what direct flash-to-flash movement costs under
/// the three ECC provisioning options.
pub fn ext_hybrid_ecc() -> Experiment {
    let requests = setup::gc_requests_per_run();
    let mut t = Table::new(vec![
        "ecc mode".to_string(),
        "read mean".to_string(),
        "all mean".to_string(),
        "gc mean event".to_string(),
        "h-channel GC busy".to_string(),
    ]);
    let modes = [
        EccConfig::ideal(),
        EccConfig::hybrid(),
        EccConfig::controller_strict(),
    ];
    let jobs: Vec<_> = modes
        .iter()
        .map(|&ecc| {
            move || {
                let mut cfg: SsdConfig =
                    setup::gc_config(Architecture::PnSsdSplit, GcPlanSpec::spatial());
                cfg.ecc = ecc;
                let trace = PaperWorkload::RocksDb0.generate(
                    requests,
                    setup::gc_footprint(&cfg),
                    setup::EXPERIMENT_SEED,
                );
                run(cfg, trace, Aging::PAPER).expect("ecc run")
            }
        })
        .collect();
    for (ecc, r) in modes.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        let h_gc_busy: f64 = r.channel_util.gc.iter().flatten().sum();
        t.row(vec![
            ecc.mode.to_string(),
            fmt_us(r.read.mean.as_ns()),
            fmt_us(r.all.mean.as_ns()),
            fmt_us(r.gc.mean_time.as_ns()),
            format!("{h_gc_busy:.2} window-fractions"),
        ]);
    }
    Experiment {
        id: "Ext E2",
        title: "hybrid ECC (§VIII) on pnSSD(+split) + spatial GC",
        tables: vec![(String::new(), t)],
        notes: vec![
            "controller-strict ECC forbids bypassing the LDPC decoder, forcing GC \
             copies back through the controller and the h-channels — hybrid ECC is \
             what keeps spatial GC's isolation intact"
                .into(),
        ],
    }
}

/// E3: the Fig 9(b) channel-sliced strawman against its neighbors.
pub fn ext_channel_sliced() -> Experiment {
    let requests = setup::requests_per_run() / 2;
    let mut t = Table::new(vec![
        "architecture".to_string(),
        "mean latency".to_string(),
        "vs baseSSD".to_string(),
    ]);
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let trace = PaperWorkload::WebSearch0.generate(
        requests,
        setup::io_footprint(&cfg0),
        setup::EXPERIMENT_SEED,
    );
    let arches = [
        Architecture::BaseSsd,
        Architecture::ChannelSliced,
        Architecture::PnSsdSplit,
        Architecture::PSsd,
    ];
    let jobs: Vec<_> = arches
        .into_iter()
        .map(|arch| {
            let trace = &trace;
            move || run(setup::io_config(arch), trace, Aging::Footprint).expect("sliced run")
        })
        .collect();
    let mut base = 0.0f64;
    for (arch, r) in arches.into_iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        let mean = r.all.mean.as_ns() as f64;
        if arch == Architecture::BaseSsd {
            base = mean;
        }
        t.row(vec![
            arch.label().to_string(),
            fmt_us(mean as u64),
            fmt_ratio(base / mean),
        ]);
    }
    Experiment {
        id: "Ext E3",
        title: "the channel-sliced strawman (Fig 9b) vs Omnibus",
        tables: vec![(String::new(), t)],
        notes: vec![
            "slicing the bandwidth without controller v-connectivity gives up the \
             pSSD 2x on I/O — Omnibus (Fig 9c) restores it by letting each \
             controller drive a v-channel"
                .into(),
        ],
    }
}

/// All extension experiments.
pub fn all_extensions() -> Vec<crate::NamedExperiment> {
    vec![
        ("ext_e1", ext_energy as fn() -> Experiment),
        ("ext_e2", ext_hybrid_ecc),
        ("ext_e3", ext_channel_sliced),
    ]
}
