//! Ablation studies on the design choices the paper discusses but does not
//! sweep: control-plane latency, spatial-GC group sizing, victim policy,
//! flash generation, and non-square Omnibus organizations.

use nssd_core::{run, Aging, Architecture, Drive};
use nssd_flash::{FlashTiming, Geometry};
use nssd_ftl::{GcPlanSpec, VictimSpec};
use nssd_sim::SimTime;
use nssd_workloads::{PaperWorkload, SyntheticPattern, SyntheticSpec};

use crate::experiments::Experiment;
use crate::setup;
use crate::table::{fmt_ratio, fmt_us, Table};

/// A1: how sensitive is pnSSD(+split) to the Omnibus control-plane message
/// latency? (Fig 11's handshakes gate every v-channel transfer.)
pub fn abl_ctrl_latency() -> Experiment {
    let requests = setup::requests_per_run() / 2;
    let mut t = Table::new(vec!["ctrl msg latency", "mean latency", "vs 0ns"]);
    let latencies = [0u64, 100, 250, 500, 1000, 2000];
    let jobs: Vec<_> = latencies
        .iter()
        .map(|&ns| {
            move || {
                let mut cfg = setup::io_config(Architecture::PnSsdSplit);
                cfg.ctrl_msg_latency = SimTime::from_ns(ns);
                let trace = PaperWorkload::Exchange1.generate(
                    requests,
                    setup::io_footprint(&cfg),
                    setup::EXPERIMENT_SEED,
                );
                run(cfg, trace, Aging::Footprint).expect("abl run")
            }
        })
        .collect();
    let mut base = 0.0f64;
    for (&ns, r) in latencies.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        let mean = r.all.mean.as_ns() as f64;
        if ns == 0 {
            base = mean;
        }
        t.row(vec![
            format!("{ns}ns"),
            fmt_us(mean as u64),
            fmt_ratio(base / mean),
        ]);
    }
    Experiment {
        id: "Abl A1",
        title: "pnSSD(+split) sensitivity to control-plane handshake latency",
        tables: vec![(String::new(), t)],
        notes: vec![
            "the handshake is per-transfer, so sub-µs SoC messaging keeps the v-path \
             attractive; the water-filling split sheds load off the v-path as the \
             handshake grows"
                .into(),
        ],
    }
}

/// A2: spatial-GC group sizing (§VI-A suggests 1/4 GC group trades more
/// frequent GC for better read service).
pub fn abl_gc_group_fraction() -> Experiment {
    let requests = setup::gc_requests_per_run();
    let mut t = Table::new(vec![
        "gc group".to_string(),
        "read mean".to_string(),
        "write mean".to_string(),
        "gc events".to_string(),
        "write amplification".to_string(),
    ]);
    let fractions = [0.25f64, 0.5, 0.75];
    let jobs: Vec<_> = fractions
        .iter()
        .map(|&fraction| {
            move || {
                let mut cfg = setup::gc_config(Architecture::PnSsdSplit, GcPlanSpec::spatial());
                cfg.gc.gc_group_fraction = fraction;
                let trace = PaperWorkload::YcsbA.generate(
                    requests,
                    setup::gc_footprint(&cfg),
                    setup::EXPERIMENT_SEED,
                );
                run(cfg, trace, Aging::PAPER).expect("abl run")
            }
        })
        .collect();
    for (&fraction, r) in fractions.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        t.row(vec![
            format!("{:.0}% of ways", fraction * 100.0),
            fmt_us(r.read.mean.as_ns()),
            fmt_us(r.write.mean.as_ns()),
            r.gc.events.to_string(),
            format!("{:.2}", r.ftl.write_amplification()),
        ]);
    }
    Experiment {
        id: "Abl A2",
        title: "spatial-GC group sizing on pnSSD(+split)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "a smaller GC group leaves more ways serving I/O but concentrates victim \
             choice; §VI-A predicts more frequent GC in exchange for read service"
                .into(),
        ],
    }
}

/// A3: greedy vs random victim selection.
pub fn abl_victim_policy() -> Experiment {
    let requests = setup::gc_requests_per_run();
    let mut t = Table::new(vec![
        "victim policy".to_string(),
        "mean latency".to_string(),
        "pages copied".to_string(),
        "write amplification".to_string(),
    ]);
    let victims = [
        ("greedy", VictimSpec::Greedy),
        ("random", VictimSpec::Random),
    ];
    let jobs: Vec<_> = victims
        .iter()
        .map(|&(_, victim)| {
            move || {
                let plan = GcPlanSpec {
                    victim,
                    ..GcPlanSpec::pagc()
                };
                let cfg = setup::gc_config(Architecture::PSsd, plan);
                let trace = PaperWorkload::Build0.generate(
                    requests,
                    setup::gc_footprint(&cfg),
                    setup::EXPERIMENT_SEED,
                );
                run(cfg, trace, Aging::PAPER).expect("abl run")
            }
        })
        .collect();
    for (&(label, _), r) in victims.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        t.row(vec![
            label.to_string(),
            fmt_us(r.all.mean.as_ns()),
            r.gc.pages_copied.to_string(),
            format!("{:.2}", r.ftl.write_amplification()),
        ]);
    }
    Experiment {
        id: "Abl A3",
        title: "victim selection: greedy vs random (pSSD + PaGC)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "greedy moves fewer live pages per reclaimed block — lower WA, less bus traffic".into(),
            "both rows run on the same greedy-aged device; only the timed collector's \
             victims differ"
                .into(),
        ],
    }
}

/// A4: does packetization still pay with slower (TLC) flash? The bus is a
/// smaller share of the read latency, so the gain must shrink.
pub fn abl_flash_generation() -> Experiment {
    let requests = setup::requests_per_run() / 2;
    let mut t = Table::new(vec![
        "flash".to_string(),
        "baseSSD mean".to_string(),
        "pSSD mean".to_string(),
        "pSSD speedup".to_string(),
    ]);
    let generations = [
        ("ULL (paper)", FlashTiming::ull()),
        ("TLC", FlashTiming::tlc()),
    ];
    let jobs: Vec<_> = generations
        .iter()
        .flat_map(|&(_, timing)| {
            [Architecture::BaseSsd, Architecture::PSsd]
                .into_iter()
                .map(move |arch| {
                    move || {
                        let mut cfg = setup::io_config(arch);
                        cfg.timing = timing;
                        let trace = PaperWorkload::WebSearch0.generate(
                            requests,
                            setup::io_footprint(&cfg),
                            setup::EXPERIMENT_SEED,
                        );
                        run(cfg, trace, Aging::Footprint).expect("abl run")
                    }
                })
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    for (i, &(label, _)) in generations.iter().enumerate() {
        let means: Vec<f64> = reports[2 * i..2 * i + 2]
            .iter()
            .map(|r| r.all.mean.as_ns() as f64)
            .collect();
        t.row(vec![
            label.to_string(),
            fmt_us(means[0] as u64),
            fmt_us(means[1] as u64),
            fmt_ratio(means[0] / means[1]),
        ]);
    }
    Experiment {
        id: "Abl A4",
        title: "packetization gain vs flash generation",
        tables: vec![(String::new(), t)],
        notes: vec![
            "ULL flash makes the channel the bottleneck (the paper's premise); with \
             slow TLC arrays the bus matters less and the pSSD gain compresses"
                .into(),
        ],
    }
}

/// A5: non-square Omnibus organizations (§V-E scalability).
pub fn abl_omnibus_shapes() -> Experiment {
    let requests = setup::requests_per_run() / 4;
    let mut t = Table::new(vec![
        "organization".to_string(),
        "v-channels".to_string(),
        "pnSSD(+split) mean".to_string(),
        "baseSSD mean".to_string(),
        "speedup".to_string(),
    ]);
    let shapes = [
        ("8ch x 8way (paper)", 8u32, 8u32),
        ("8ch x 4way (tall)", 8, 4),
        ("4ch x 8way (wide)", 4, 8),
    ];
    // Both architectures of a shape run the *same* trace (sized from the
    // pnSSD config), so generate once per shape and share it by reference.
    let cells: Vec<_> = shapes
        .iter()
        .map(|&(_, channels, ways)| {
            let shape = |arch: Architecture| {
                let mut cfg = setup::io_config(arch);
                cfg.geometry = Geometry {
                    channels,
                    ways,
                    ..Geometry::scaled()
                };
                cfg
            };
            let pn_cfg = shape(Architecture::PnSsdSplit);
            let trace = SyntheticSpec::paper(
                SyntheticPattern::RandomRead,
                requests,
                pn_cfg.logical_bytes() / 2,
            )
            .generate();
            (pn_cfg, shape(Architecture::BaseSsd), trace)
        })
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .flat_map(|(pn_cfg, base_cfg, trace)| {
            [*pn_cfg, *base_cfg].into_iter().map(move |cfg| {
                move || run(cfg, Drive::closed_loop(trace, 32), Aging::Footprint).expect("abl run")
            })
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    for (i, &(label, channels, ways)) in shapes.iter().enumerate() {
        let (pn, base) = (&reports[2 * i], &reports[2 * i + 1]);
        let v_channels = channels.min(ways);
        t.row(vec![
            label.to_string(),
            v_channels.to_string(),
            fmt_us(pn.all.mean.as_ns()),
            fmt_us(base.all.mean.as_ns()),
            fmt_ratio(base.all.mean.as_ns() as f64 / pn.all.mean.as_ns() as f64),
        ]);
    }
    Experiment {
        id: "Abl A5",
        title: "Omnibus on non-square organizations (§V-E)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "tall organizations leave some controllers without a v-channel; wide ones \
             share a v-channel across column groups — both keep the packetization win"
                .into(),
        ],
    }
}

/// A6: the intro's FTL-compute argument — as per-page FTL work grows, the
/// interconnect win is masked by controller compute.
pub fn abl_ftl_compute() -> Experiment {
    let requests = setup::requests_per_run() / 2;
    let mut t = Table::new(vec![
        "FTL us/page (4 cores)".to_string(),
        "baseSSD mean".to_string(),
        "pSSD mean".to_string(),
        "pSSD speedup".to_string(),
    ]);
    let latencies = [0u64, 1, 2, 4, 8];
    let jobs: Vec<_> = latencies
        .iter()
        .flat_map(|&us| {
            [Architecture::BaseSsd, Architecture::PSsd]
                .into_iter()
                .map(move |arch| {
                    move || {
                        let mut cfg = setup::io_config(arch);
                        cfg.ftl_page_latency = SimTime::from_us(us);
                        let trace = PaperWorkload::WebSearch0.generate(
                            requests,
                            setup::io_footprint(&cfg),
                            setup::EXPERIMENT_SEED,
                        );
                        run(cfg, trace, Aging::Footprint).expect("abl run")
                    }
                })
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);
    for (i, &us) in latencies.iter().enumerate() {
        let means: Vec<f64> = reports[2 * i..2 * i + 2]
            .iter()
            .map(|r| r.all.mean.as_ns() as f64)
            .collect();
        t.row(vec![
            format!("{us}us"),
            fmt_us(means[0] as u64),
            fmt_us(means[1] as u64),
            fmt_ratio(means[0] / means[1]),
        ]);
    }
    Experiment {
        id: "Abl A6",
        title: "FTL compute per page vs the interconnect win",
        tables: vec![(String::new(), t)],
        notes: vec![
            "the intro's scaling argument: once per-page FTL work dominates, faster              channels stop helping — motivating both faster FTL cores and,              orthogonally, the paper's interconnect work"
                .into(),
        ],
    }
}

/// All ablations, in order.
pub fn all_ablations() -> Vec<crate::NamedExperiment> {
    vec![
        ("abl_a1", abl_ctrl_latency as fn() -> Experiment),
        ("abl_a2", abl_gc_group_fraction),
        ("abl_a3", abl_victim_policy),
        ("abl_a4", abl_flash_generation),
        ("abl_a5", abl_omnibus_shapes),
        ("abl_a6", abl_ftl_compute),
    ]
}
