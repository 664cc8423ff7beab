//! The no-GC experiments: Figs 1, 3, 4, 8, 14, 15, 16, 17 and Tables I/II.

use std::sync::OnceLock;

use nssd_core::{run, Aging, Architecture, Drive, SimReport, SsdConfig, Traffic};
use nssd_ftl::AllocPolicy;
use nssd_interconnect::{signals, BusParams, DataPacket, DedicatedBus, PacketBus};
use nssd_workloads::{PaperWorkload, SyntheticPattern, SyntheticSpec};

use crate::setup::{self, geomean};
use crate::table::{fmt_ratio, fmt_us, Table};

/// One rendered experiment: a caption-tagged set of tables plus notes.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Paper anchor, e.g. `"Fig 14"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// `(caption, table)` pairs.
    pub tables: Vec<(String, Table)>,
    /// Free-form notes (normalizations, caveats).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Prints to stdout in the harness's standard format.
    pub fn print(&self) {
        println!("==== {} — {} ====", self.id, self.title);
        for (caption, table) in &self.tables {
            if !caption.is_empty() {
                println!("-- {caption}");
            }
            println!("{table}");
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }

    /// Renders as Markdown for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {} — {}\n\n", self.id, self.title);
        for (caption, table) in &self.tables {
            if !caption.is_empty() {
                s.push_str(&format!("**{caption}**\n\n"));
            }
            s.push_str(&table.to_markdown());
            s.push('\n');
        }
        for n in &self.notes {
            s.push_str(&format!("*Note: {n}*\n\n"));
        }
        s
    }
}

/// The architectures of Table III, in presentation order.
pub fn evaluated_architectures() -> [Architecture; 6] {
    Architecture::all()
}

/// Fig 1: flash chip vs channel bandwidth trend (literature survey; static
/// data from the ISSCC parts the paper cites).
pub fn fig01_bandwidth_trend() -> Experiment {
    // (year, part, per-chip write throughput MB/s, interface MT/s)
    const CHIPS: &[(u32, &str, f64)] = &[
        (2006, "SLC 50nm", 8.0),
        (2009, "MLC 3xnm", 10.0),
        (2012, "MLC 2xnm", 15.0),
        (2015, "TLC V-NAND v2", 30.0),
        (2018, "64L TLC (Lee, ISSCC'18)", 12.0),
        (2019, "92L TLC (Kang, ISSCC'19)", 82.0),
        (2020, "128L QLC (Kim, ISSCC'20)", 30.0),
        (2021, "176L TLC (Cho/Park, ISSCC'21)", 184.0),
    ];
    const BUSES: &[(u32, &str, u64)] = &[
        (2006, "ONFI 1.0 async", 50),
        (2008, "ONFI 2.0 NV-DDR", 133),
        (2010, "ONFI 2.3", 200),
        (2013, "ONFI 3.x NV-DDR2", 400),
        (2017, "ONFI 4.0 NV-DDR3", 800),
        (2020, "ONFI 4.2 NV-DDR4", 1200),
        (2021, "NV-LPDDR4 (ISSCC'21 parts)", 2000),
    ];
    let mut chips = Table::new(vec!["year", "flash chip", "write MB/s per chip"]);
    for (y, part, bw) in CHIPS {
        chips.row(vec![y.to_string(), (*part).into(), format!("{bw:.0}")]);
    }
    let mut buses = Table::new(vec!["year", "flash interface", "MT/s"]);
    for (y, part, mt) in BUSES {
        buses.row(vec![y.to_string(), (*part).into(), mt.to_string()]);
    }
    Experiment {
        id: "Fig 1",
        title: "flash chip bandwidth vs flash bus bandwidth trend",
        tables: vec![
            ("(a) per-chip write bandwidth".into(), chips),
            ("(b) flash memory bus transfer rate".into(), buses),
        ],
        notes: vec![
            "≈10× chip bandwidth per 5 years vs ≈10× bus bandwidth per 10 years: \
             the interconnect falls behind, motivating packetization."
                .into(),
        ],
    }
}

/// Table I: the ONFI NV-DDR4 signal inventory.
pub fn table1_signals() -> Experiment {
    let mut t = Table::new(vec![
        "symbol",
        "type",
        "pins",
        "description",
        "kept by pSSD",
    ]);
    for s in signals::nv_ddr4_signals() {
        t.row(vec![
            s.name.into(),
            format!("{:?}", s.kind),
            s.pins.to_string(),
            s.description.into(),
            if s.kept_by_pssd { "yes" } else { "repurposed" }.into(),
        ]);
    }
    Experiment {
        id: "Table I",
        title: "flash interface signals (ONFI)",
        tables: vec![(String::new(), t)],
        notes: vec![format!(
            "{} of {} pins carry payload conventionally; packetization repurposes {} control pins",
            signals::conventional_payload_pins(),
            signals::total_pins(),
            signals::pins_freed_by_packetization()
        )],
    }
}

/// Table II: the simulation parameters actually in effect.
pub fn table2_parameters() -> Experiment {
    let mut t = Table::new(vec!["parameter", "paper (Table II)", "this harness"]);
    let paper = SsdConfig::paper_table2(Architecture::BaseSsd);
    let ours = setup::io_config(Architecture::BaseSsd);
    let rows: Vec<(&str, String, String)> = vec![
        (
            "organization",
            format!(
                "{}ch {}way {}die {}pl {}blk {}pg",
                paper.geometry.channels,
                paper.geometry.ways,
                paper.geometry.dies,
                paper.geometry.planes,
                paper.geometry.blocks_per_plane,
                paper.geometry.pages_per_block
            ),
            format!(
                "{}ch {}way {}die {}pl {}blk {}pg (capacity-scaled)",
                ours.geometry.channels,
                ours.geometry.ways,
                ours.geometry.dies,
                ours.geometry.planes,
                ours.geometry.blocks_per_plane,
                ours.geometry.pages_per_block
            ),
        ),
        (
            "flash bus",
            "1000 MT/s × 8 bits".into(),
            format!("{} MT/s × {} bits", ours.channel_mts, ours.base_width_bits),
        ),
        (
            "pSSD bus",
            "1000 MT/s × 16 bits".into(),
            format!("{:?}", SsdConfig::new(Architecture::PSsd).h_bus()),
        ),
        (
            "pnSSD v-channels",
            "8 × 8 bits".into(),
            format!(
                "{} × {} bits",
                ours.geometry.channels.min(ours.geometry.ways),
                SsdConfig::new(Architecture::PnSsd).v_bus().width_bits
            ),
        ),
        (
            "flash timing",
            "read 3us / write 50us / erase 1ms".into(),
            format!(
                "read {} / write {} / erase {}",
                ours.timing.read, ours.timing.program, ours.timing.erase
            ),
        ),
        (
            "page size",
            "16KB".into(),
            format!("{}B", ours.geometry.page_bytes),
        ),
        (
            "host pipes",
            "PCIe4 x4, bus/DRAM 8 GB/s".into(),
            format!(
                "{} B/s each (scaled to flash bw)",
                ours.host_params().pcie_bps
            ),
        ),
    ];
    for (k, p, o) in rows {
        t.row(vec![k.into(), p, o]);
    }
    Experiment {
        id: "Table II",
        title: "simulation parameters",
        tables: vec![(String::new(), t)],
        notes: vec![],
    }
}

/// Fig 8: packet formats and their overhead.
pub fn fig08_packet_overhead() -> Experiment {
    let base = DedicatedBus::new(BusParams::table2_baseline());
    let pssd = PacketBus::new(BusParams::table2_pssd());
    let mut t = Table::new(vec![
        "page size",
        "data-packet framing overhead",
        "baseSSD read occupancy",
        "pSSD read occupancy",
        "ratio",
    ]);
    for kb in [4u32, 8, 16, 32, 64] {
        let bytes = kb * 1024;
        let pkt = DataPacket::new(bytes);
        let base_t = base.read_occupancy(bytes as u64);
        let pssd_t = pssd.control_packet_time(nssd_flash::FlashCommand::ReadPage)
            + pssd.read_out_time(bytes);
        t.row(vec![
            format!("{kb}KB"),
            format!("{:.4}%", pkt.overhead_fraction() * 100.0),
            fmt_us(base_t.as_ns()),
            fmt_us(pssd_t.as_ns()),
            fmt_ratio(base_t.as_ns() as f64 / pssd_t.as_ns() as f64),
        ]);
    }
    Experiment {
        id: "Fig 8",
        title: "packet formats: framing overhead and effective 2x bandwidth",
        tables: vec![(String::new(), t)],
        notes: vec![
            "control header uses 6/8 bits (25% header overhead), data header 4/8 (50%), \
             but the payload dwarfs both"
                .into(),
        ],
    }
}

/// Per-workload reports, one per architecture.
type SuiteReports = Vec<(PaperWorkload, Vec<(Architecture, SimReport)>)>;

fn no_gc_reports() -> &'static SuiteReports {
    static CACHE: OnceLock<SuiteReports> = OnceLock::new();
    CACHE.get_or_init(|| {
        let requests = setup::requests_per_run();
        let cfg0 = setup::io_config(Architecture::BaseSsd);
        let footprint = setup::io_footprint(&cfg0);
        // Every (workload × architecture) cell is independent; fan the whole
        // matrix across the pool and regroup in submission order, so the
        // rendered tables are byte-identical to a serial run.
        let suite = setup::suite(requests, footprint);
        let jobs: Vec<_> = suite
            .iter()
            .flat_map(|(_, trace)| {
                evaluated_architectures().into_iter().map(move |arch| {
                    move || {
                        run(setup::io_config(arch), trace, Aging::Footprint)
                            .expect("no-GC run must succeed")
                    }
                })
            })
            .collect();
        let mut reports = nssd_sim::scoped_map(jobs).into_iter();
        suite
            .iter()
            .map(|(w, _)| {
                let per_arch = evaluated_architectures()
                    .into_iter()
                    .map(|arch| (arch, reports.next().expect("one report per cell")))
                    .collect();
                (*w, per_arch)
            })
            .collect()
    })
}

/// Fig 14: normalized average I/O latency improvement, no GC.
pub fn fig14_io_latency_no_gc() -> Experiment {
    let mut headers = vec!["workload".to_string()];
    headers.extend(
        evaluated_architectures()
            .iter()
            .map(|a| a.label().to_string()),
    );
    let mut t = Table::new(headers);
    let mut per_arch_ratios: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for (w, reports) in no_gc_reports() {
        let base = &reports[0].1;
        let mut row = vec![w.name().to_string()];
        for (i, (_, r)) in reports.iter().enumerate() {
            let ratio = r.speedup_vs(base);
            per_arch_ratios[i].push(ratio);
            row.push(fmt_ratio(ratio));
        }
        t.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for ratios in &per_arch_ratios {
        avg.push(fmt_ratio(geomean(ratios)));
    }
    t.row(avg);
    Experiment {
        id: "Fig 14",
        title: "normalized I/O performance (1/mean-latency) without GC",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: pSSD ≈1.69x, pnSSD ≈1.60x, pnSSD(+split) ≈1.82x, NoSSD(pin) ≈0.25x, \
             NoSSD(no constraint) ≈1.40x on average"
                .into(),
        ],
    }
}

/// Fig 15: throughput (KIOPS) comparison. Measured closed-loop at queue
/// depth 64 so each architecture's *capacity* is exposed (open-loop
/// throughput below saturation would just echo the arrival rate).
pub fn fig15_throughput() -> Experiment {
    let depth = 64usize;
    let requests = setup::requests_per_run() / 2;
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let footprint = setup::io_footprint(&cfg0);
    let mut headers = vec!["workload".to_string()];
    headers.extend(
        evaluated_architectures()
            .iter()
            .map(|a| a.label().to_string()),
    );
    let mut t = Table::new(headers);
    let mut per_arch_ratios: Vec<Vec<f64>> = vec![Vec::new(); 6];
    let suite = setup::suite(requests, footprint);
    let jobs: Vec<_> = suite
        .iter()
        .flat_map(|(_, trace)| {
            evaluated_architectures().into_iter().map(move |arch| {
                move || {
                    run(
                        setup::io_config(arch),
                        Drive::closed_loop(trace, depth),
                        Aging::Footprint,
                    )
                    .expect("fig15 run")
                }
            })
        })
        .collect();
    let mut reports = nssd_sim::scoped_map(jobs).into_iter();
    for (w, _) in &suite {
        let mut row = vec![w.name().to_string()];
        let mut base_kiops = 0.0f64;
        for (i, _) in evaluated_architectures().into_iter().enumerate() {
            let r = reports.next().expect("one report per cell");
            if i == 0 {
                base_kiops = r.kiops();
            }
            row.push(format!("{:.1}", r.kiops()));
            per_arch_ratios[i].push(r.kiops() / base_kiops.max(1e-9));
        }
        t.row(row);
    }
    let mut avg = vec!["geomean vs base".to_string()];
    for ratios in &per_arch_ratios {
        avg.push(fmt_ratio(geomean(ratios)));
    }
    t.row(avg);
    Experiment {
        id: "Fig 15",
        title: "throughput (KIOPS) at queue depth 64",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: pSSD +69%, pnSSD(+split) +82% vs baseSSD; 13.5x over NoSSD(pin)".into(),
        ],
    }
}

/// Fig 3: read vs write channel-utilization imbalance on exchange-1.
pub fn fig03_channel_imbalance() -> Experiment {
    let cfg = setup::io_config(Architecture::BaseSsd);
    let trace = PaperWorkload::Exchange1.generate(
        setup::requests_per_run(),
        setup::io_footprint(&cfg),
        setup::EXPERIMENT_SEED,
    );
    let report = run(cfg, &trace, Aging::Footprint).expect("fig3 run");
    let heat = |per_channel: &Vec<Vec<f64>>| -> Table {
        let channels = per_channel.len();
        let windows = per_channel.first().map(|c| c.len()).unwrap_or(0);
        let cols = 48.min(windows.max(1));
        let stride = windows.div_ceil(cols).max(1);
        let mut t = Table::new(vec![
            "channel".to_string(),
            "utilization over time".to_string(),
        ]);
        const SHADES: &[u8] = b" .:-=+*#%@";
        for (ch, windows_of_ch) in per_channel.iter().enumerate().take(channels) {
            let mut line = String::new();
            for c in 0..cols {
                let lo = c * stride;
                let hi = (lo + stride).min(windows);
                if lo >= windows {
                    break;
                }
                let avg: f64 = windows_of_ch[lo..hi].iter().sum::<f64>() / (hi - lo).max(1) as f64;
                let idx =
                    ((avg * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
                line.push(SHADES[idx] as char);
            }
            t.row(vec![format!("ch{ch}"), line]);
        }
        t
    };
    let read_cov = report.channel_util.imbalance(Traffic::HostRead);
    let write_cov = report.channel_util.imbalance(Traffic::HostWrite);
    Experiment {
        id: "Fig 3",
        title: "channel utilization imbalance on exchange-1 (baseSSD)",
        tables: vec![
            ("(a) read traffic".into(), heat(&report.channel_util.read)),
            ("(b) write traffic".into(), heat(&report.channel_util.write)),
        ],
        notes: vec![format!(
            "imbalance (CoV of per-channel busy time): reads {read_cov:.2}, writes {write_cov:.2} \
             — FTL-placed writes balance, workload-placed reads do not"
        )],
    }
}

/// Fig 4: speedup as the flash channel width scales from 8 to 16 bits.
pub fn fig04_bandwidth_sweep() -> Experiment {
    let widths = [8u32, 10, 12, 14, 16];
    let mut headers = vec!["workload".to_string()];
    headers.extend(widths.iter().map(|w| format!("{:.2}x bw", *w as f64 / 8.0)));
    let mut t = Table::new(headers);
    let requests = setup::requests_per_run() / 2;
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let footprint = setup::io_footprint(&cfg0);
    let mut per_width: Vec<Vec<f64>> = vec![Vec::new(); widths.len()];
    let suite = setup::suite(requests, footprint);
    let jobs: Vec<_> = suite
        .iter()
        .flat_map(|(_, trace)| {
            widths.iter().map(move |width| {
                let mut cfg = setup::io_config(Architecture::BaseSsd);
                cfg.base_width_bits = *width;
                move || run(cfg, trace, Aging::Footprint).expect("fig4 run")
            })
        })
        .collect();
    let mut reports = nssd_sim::scoped_map(jobs).into_iter();
    for (w, _) in &suite {
        let mut row = vec![w.name().to_string()];
        let mut base_mean = 0u64;
        for (i, _) in widths.iter().enumerate() {
            let r = reports.next().expect("one report per cell");
            if i == 0 {
                base_mean = r.all.mean.as_ns();
            }
            let speedup = base_mean as f64 / r.all.mean.as_ns() as f64;
            per_width[i].push(speedup);
            row.push(fmt_ratio(speedup));
        }
        t.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for col in &per_width {
        avg.push(fmt_ratio(geomean(col)));
    }
    t.row(avg);
    Experiment {
        id: "Fig 4",
        title: "performance vs flash channel bandwidth (baseSSD width sweep)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "paper: 2x bandwidth gives +85% on average, up to 6x for imbalanced workloads".into(),
        ],
    }
}

fn synthetic_latency_table(policy: AllocPolicy) -> Table {
    let depths = [1usize, 2, 4, 8, 16, 32, 64];
    let mut headers = vec!["pattern".to_string(), "arch".to_string()];
    headers.extend(depths.iter().map(|d| format!("qd{d}")));
    let mut t = Table::new(headers);
    let requests = (setup::requests_per_run() / 8).max(512);
    // Generate each (pattern, architecture) trace once, then fan the full
    // (pattern × arch × depth) matrix across the pool.
    let mut rows = Vec::new();
    for pattern in SyntheticPattern::all() {
        for arch in evaluated_architectures() {
            let mut cfg = setup::io_config(arch);
            cfg.alloc_policy = policy;
            let spec = SyntheticSpec::paper(pattern, requests, setup::io_footprint(&cfg));
            rows.push((pattern, arch, cfg, spec.generate()));
        }
    }
    let jobs: Vec<_> = rows
        .iter()
        .flat_map(|(_, _, cfg, trace)| {
            depths.into_iter().map(move |depth| {
                let cfg = *cfg;
                move || {
                    run(cfg, Drive::closed_loop(trace, depth), Aging::Footprint)
                        .expect("synthetic run")
                }
            })
        })
        .collect();
    let mut reports = nssd_sim::scoped_map(jobs).into_iter();
    for (pattern, arch, _, _) in &rows {
        let mut row = vec![pattern.label().to_string(), arch.label().to_string()];
        for _ in depths {
            let r = reports.next().expect("one report per cell");
            row.push(fmt_us(r.all.mean.as_ns()));
        }
        t.row(row);
    }
    t
}

/// Fig 16: synthetic latency vs concurrency with PCWD (balanced) allocation.
pub fn fig16_synthetic_pcwd() -> Experiment {
    Experiment {
        id: "Fig 16",
        title: "synthetic seq/rand R/W latency vs concurrent 64KB I/Os (PCWD)",
        tables: vec![(String::new(), synthetic_latency_table(AllocPolicy::Pcwd))],
        notes: vec![
            "paper: with balanced PCWD placement pSSD is best (~2x below baseSSD); \
             pnSSD(+split) gains little over pnSSD; NoSSD collapses at high concurrency"
                .into(),
        ],
    }
}

/// Fig 17: the same sweep with PWCD (way-first, channel-imbalanced)
/// allocation.
pub fn fig17_synthetic_pwcd() -> Experiment {
    Experiment {
        id: "Fig 17",
        title: "synthetic seq/rand R/W latency vs concurrent 64KB I/Os (PWCD)",
        tables: vec![(String::new(), synthetic_latency_table(AllocPolicy::Pwcd))],
        notes: vec![
            "paper: under imbalanced PWCD placement pnSSD(+split) matches pSSD and wins \
             below 32 concurrent I/Os thanks to path diversity"
                .into(),
        ],
    }
}
