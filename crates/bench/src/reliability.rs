//! Reliability extension: fault-injection sweeps across the architectures.
//!
//! The paper evaluates an ideal (error-free) device; these experiments ask
//! how the interconnect choice behaves once flash and wire faults are
//! injected. The headline contrast: packetized links carry a CRC and repair
//! wire corruption with NAK + retransmission (a visible bandwidth cost),
//! while the dedicated-signal baseline has no frame check at all — the same
//! corruption is *silent*. Under parity, the same fail-stop becomes fabric
//! traffic instead of data loss: [`rebuild`] measures what each fabric makes
//! of the reconstruction and the background rebuild.

use nssd_core::{prepare, run, Aging, Architecture, SimReport, SsdConfig};
use nssd_flash::Geometry;
use nssd_ftl::RedundancyConfig;
use nssd_sim::SimTime;
use nssd_workloads::PaperWorkload;

use crate::experiments::Experiment;
use crate::setup;
use crate::table::{fmt_opt_us, fmt_ratio, fmt_us, Table};

/// The three architectures the fault story contrasts: the unframed bus, the
/// packetized bus, and the packetized 2D organization.
pub fn fault_architectures() -> [Architecture; 3] {
    [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsdSplit,
    ]
}

fn faulty_config(arch: Architecture, rber: f64, link_ber: f64) -> SsdConfig {
    let mut cfg = setup::io_config(arch);
    cfg.faults.bit_error.rber = rber;
    cfg.faults.link.ber = link_ber;
    cfg
}

fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "0".to_string()
    } else {
        format!("{r:.0e}")
    }
}

/// Ext E4: flash RBER sweep (retry ladder), wire BER sweep (CRC recovery vs
/// silent corruption), and a mid-run chip fail-stop.
pub fn fault_sweep() -> Experiment {
    let requests = setup::requests_per_run() / 4;
    let cfg0 = setup::io_config(Architecture::BaseSsd);
    let trace =
        PaperWorkload::YcsbA.generate(requests, setup::io_footprint(&cfg0), setup::EXPERIMENT_SEED);

    let mut flash_t = Table::new(vec![
        "architecture".to_string(),
        "RBER".to_string(),
        "KIOPS".to_string(),
        "read mean".to_string(),
        "read p99".to_string(),
        "retries".to_string(),
        "soft decodes".to_string(),
        "uncorrectable".to_string(),
    ]);
    let flash_cells: Vec<_> = fault_architectures()
        .into_iter()
        .flat_map(|arch| [0.0, 1e-5, 1e-4, 1e-3].map(|rber| (arch, rber)))
        .collect();
    let jobs: Vec<_> = flash_cells
        .iter()
        .map(|&(arch, rber)| {
            let trace = &trace;
            move || run(faulty_config(arch, rber, 0.0), trace, Aging::Footprint).expect("rber run")
        })
        .collect();
    for (&(arch, rber), r) in flash_cells.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        let rel = r.reliability;
        flash_t.row(vec![
            arch.label().to_string(),
            fmt_rate(rber),
            format!("{:.1}", r.kiops()),
            fmt_us(r.read.mean.as_ns()),
            fmt_us(r.read.p99.as_ns()),
            rel.read_retries.to_string(),
            rel.soft_decodes.to_string(),
            rel.uncorrectable_reads.to_string(),
        ]);
    }

    let mut link_t = Table::new(vec![
        "architecture".to_string(),
        "link BER".to_string(),
        "KIOPS".to_string(),
        "retransmissions".to_string(),
        "unrecovered".to_string(),
        "silent corruptions".to_string(),
        "link efficiency".to_string(),
    ]);
    let link_cells: Vec<_> = fault_architectures()
        .into_iter()
        .flat_map(|arch| [1e-8, 1e-7, 1e-6].map(|ber| (arch, ber)))
        .collect();
    let jobs: Vec<_> = link_cells
        .iter()
        .map(|&(arch, ber)| {
            let trace = &trace;
            move || run(faulty_config(arch, 0.0, ber), trace, Aging::Footprint).expect("link run")
        })
        .collect();
    for (&(arch, ber), r) in link_cells.iter().zip(nssd_sim::scoped_map(jobs).iter()) {
        let rel = r.reliability;
        link_t.row(vec![
            arch.label().to_string(),
            fmt_rate(ber),
            format!("{:.1}", r.kiops()),
            rel.retransmissions.to_string(),
            rel.unrecovered_transfers.to_string(),
            rel.silent_corruptions.to_string(),
            format!("{:.4}", rel.link_efficiency()),
        ]);
    }

    let mut chip_t = Table::new(vec![
        "architecture".to_string(),
        "completed".to_string(),
        "pages lost".to_string(),
        "host I/O errors".to_string(),
        "all mean".to_string(),
    ]);
    let jobs: Vec<_> = fault_architectures()
        .into_iter()
        .map(|arch| {
            let trace = &trace;
            move || {
                let mut cfg = setup::io_config(arch);
                cfg.faults.chip_failure = Some(nssd_core::ChipFailureSpec {
                    channel: 1,
                    way: 0,
                    at: SimTime::from_ms(1),
                });
                run(cfg, trace, Aging::Footprint).expect("chip-fail run")
            }
        })
        .collect();
    for (arch, r) in fault_architectures()
        .into_iter()
        .zip(nssd_sim::scoped_map(jobs).iter())
    {
        chip_t.row(vec![
            arch.label().to_string(),
            r.completed.to_string(),
            r.reliability.pages_lost.to_string(),
            r.reliability.host_io_errors.to_string(),
            fmt_us(r.all.mean.as_ns()),
        ]);
    }

    Experiment {
        id: "Ext E4",
        title: "fault injection: RBER retry ladder, wire-BER recovery, chip fail-stop",
        tables: vec![
            ("flash bit errors".to_string(), flash_t),
            ("wire bit errors".to_string(), link_t),
            ("chip fail-stop at 1 ms".to_string(), chip_t),
        ],
        notes: vec![
            "read retries re-sense the array (one full tR each) and soft decodes add \
             decoder latency, so read latency and throughput degrade monotonically \
             with RBER; the array pays, so the effect is architecture-independent"
                .into(),
            "packetized links (pSSD/pnSSD) detect wire corruption by CRC and repair \
             it with NAK + retransmission — visible as retransmissions and link \
             efficiency < 1; the dedicated-signal baseline has no frame check, so \
             the same corruption lands as silent corruptions: zero time cost, wrong \
             data"
                .into(),
            "a fail-stopped array cannot be read, and without parity nothing else \
             holds its data: every live page of the chip is lost, host reads of those \
             pages complete as I/O errors, and the device continues degraded on the \
             survivors (the `rebuild` experiment runs a chip failure under parity, \
             where reconstruction serves those reads instead)"
                .into(),
        ],
    }
}

/// One run of a [`rebuild`] cell: YCSB-A with parity striped `stripe_width`
/// wide, and chip (0, 0) fail-stopping a third of the way in when `fail`.
fn rebuild_run(arch: Architecture, stripe_width: u32, requests: usize, fail: bool) -> SimReport {
    let seed = 0x2EB1;
    let mut cfg = SsdConfig::tiny(arch);
    // A geometry both swept stripe widths tile exactly: 4 channels host
    // width-2 and width-4 parity groups.
    cfg.geometry = Geometry {
        channels: 4,
        ways: 2,
        dies: 1,
        planes: 2,
        blocks_per_plane: 16,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    cfg.redundancy = RedundancyConfig::with_stripe(stripe_width);
    cfg.seed = seed;
    cfg.oracle = true;
    let trace = PaperWorkload::YcsbA.generate(requests, cfg.logical_bytes() / 2, seed);
    if fail {
        // Fail the chip when the trace is a third through its arrivals:
        // enough writes have landed on the victim for the failure to
        // strand real data, enough reads follow to sample the degraded
        // window.
        let fail_at = trace.records()[requests / 3].at + SimTime::from_ns(1);
        cfg.faults.chip_failure = Some(nssd_core::ChipFailureSpec {
            channel: 0,
            way: 0,
            at: fail_at,
        });
    }
    let (sim, drive) = prepare(cfg, trace, Aging::Footprint)
        .unwrap_or_else(|e| panic!("rebuild: {}: {e}", arch.label()));
    let r = sim.run(drive);
    assert!(
        r.oracle.violations.is_empty(),
        "rebuild: {}: oracle violations:\n{}",
        arch.label(),
        r.oracle.violations.join("\n")
    );
    r
}

/// Degraded-mode rebuild: parity under a fail-stop chip failure, swept over
/// architecture × stripe width. Each cell runs healthy (the control) and
/// with the failure, and reports the read-p99 penalty, the tail of reads
/// served by reconstruction, and how long the background rebuild takes to
/// re-protect the device. Networked fabrics reconstruct flash-to-flash
/// where the topology allows it; the dedicated-signal baseline bounces
/// every surviving page through the controller.
///
/// # Panics
///
/// Panics on a rejected configuration, an oracle violation, or a report
/// without a redundancy summary.
pub fn rebuild() -> Experiment {
    const REQUESTS: usize = 4_000;
    let archs = [
        Architecture::BaseSsd,
        Architecture::PSsd,
        Architecture::PnSsd,
        Architecture::NoSsdUnconstrained,
    ];
    let cells: Vec<_> = [2, 4]
        .into_iter()
        .flat_map(|width| archs.map(|arch| (arch, width)))
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .flat_map(|&(arch, width)| {
            [false, true].map(|fail| move || rebuild_run(arch, width, REQUESTS, fail))
        })
        .collect();
    let reports = nssd_sim::scoped_map(jobs);

    let mut t = Table::new(vec![
        "architecture",
        "stripe",
        "completed",
        "read p99",
        "healthy read p99",
        "p99 penalty",
        "degraded p99",
        "degraded reads",
        "reconstructed reads",
        "pages degraded",
        "rebuild pages",
        "rebuild time",
        "pages lost",
        "host I/O errors",
    ]);
    for (&(arch, width), pair) in cells.iter().zip(reports.chunks(2)) {
        let (control, r) = (&pair[0], &pair[1]);
        let red = r.redundancy.unwrap_or_else(|| {
            panic!("rebuild: {}: report lacks redundancy summary", arch.label())
        });
        let rel = r.reliability;
        t.row(vec![
            arch.label().to_string(),
            width.to_string(),
            r.completed.to_string(),
            fmt_us(r.read.p99.as_ns()),
            fmt_us(control.read.p99.as_ns()),
            fmt_ratio(r.read.p99.as_ns() as f64 / control.read.p99.as_ns() as f64),
            fmt_opt_us((red.degraded.count > 0).then(|| red.degraded.p99.as_ns())),
            red.degraded.count.to_string(),
            rel.reconstructed_reads.to_string(),
            rel.pages_degraded.to_string(),
            red.rebuild_pages.to_string(),
            fmt_opt_us(red.rebuild_time().map(SimTime::as_ns)),
            rel.pages_lost.to_string(),
            rel.host_io_errors.to_string(),
        ]);
    }
    Experiment {
        id: "Rebuild",
        title: "degraded-mode rebuild: parity under a chip fail-stop, architecture × stripe width",
        tables: vec![(
            format!(
                "{REQUESTS} YCSB-A requests on a 4-channel × 2-way tiny device, chip (0, 0) \
                 fail-stops a third of the way in; healthy = the same run without the failure"
            ),
            t,
        )],
        notes: vec![
            "p99 penalty = read p99 with the failure / healthy read p99: it normalizes \
             away each fabric's healthy baseline, which differs by design"
                .into(),
            "degraded p99 is the tail of host requests that needed at least one \
             reconstruction; rebuild time runs from the failure until the last degraded \
             page is re-placed and the dead chip retired; - = never happened"
                .into(),
        ],
    }
}
