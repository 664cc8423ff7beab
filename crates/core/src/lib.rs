//! Full-system simulator for *Networked SSD: Flash Memory Interconnection
//! Network for High-Bandwidth SSD* (MICRO 2022).
//!
//! This crate assembles the paper's contribution from the workspace
//! substrates: the six evaluated [`Architecture`]s (conventional baseSSD,
//! NoSSD meshes, packetized pSSD, and Omnibus pnSSD with and without page
//! *split*), the three garbage collectors (PaGC, semi-preemptive, and the
//! paper's spatial GC, as `nssd_ftl::GcPlanSpec` plans), and the reports every experiment in
//! `nssd-bench` is built on.
//!
//! Every run is a [`Drive`] (open loop, closed loop or tenants) on a device
//! in one [`Aging`] state (footprint-mapped or aged), set up by [`prepare`]
//! or run to completion by [`run`].
//!
//! # Quick start
//!
//! ```
//! use nssd_core::{run, Aging, Architecture, SsdConfig};
//! use nssd_workloads::PaperWorkload;
//!
//! let cfg = SsdConfig::tiny(Architecture::PSsd);
//! let trace = PaperWorkload::YcsbA.generate(50, cfg.logical_bytes() / 2, 7);
//! let report = run(cfg, &trace, Aging::Footprint)?;
//! assert_eq!(report.completed, 50);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod config;
mod engine;
pub mod golden;
mod report;
mod runner;

pub use ckpt::{config_fingerprint, Checkpoint};
pub use config::{Architecture, EccMode, SsdConfig, Traffic};
pub use engine::{Drive, SsdSim};
pub use golden::{GoldenCase, GoldenDrive};
pub use nssd_faults::{
    BadBlockConfig, ChipFailureSpec, FaultConfig, LinkFaultConfig, ReliabilityStats,
};
pub use nssd_host::{SchedulerKind, SloClass, TenantConfig};
pub use nssd_oracle::{Oracle, OracleSummary};
pub use report::{
    ChannelUtilSummary, EnergySummary, EngineSummary, GcSummary, LatencySummary, RedundancySummary,
    SimReport, TenantSummary,
};
// A glob, so the benchmark-only forwarders in `runner` are exported without
// being named outside their definitions.
pub use runner::*;

#[cfg(test)]
mod tests {
    use super::*;
    use nssd_ftl::GcPlanSpec;
    use nssd_host::{IoOp, IoRequest};
    use nssd_sim::SimTime;
    use nssd_workloads::{PaperWorkload, SyntheticPattern, SyntheticSpec, Trace};

    fn small_trace(cfg: &SsdConfig, n: usize, seed: u64) -> Trace {
        PaperWorkload::YcsbA.generate(n, cfg.logical_bytes() / 2, seed)
    }

    /// Tiny config with GC disabled, for pure interconnect studies.
    fn io_cfg(arch: Architecture) -> SsdConfig {
        let mut cfg = SsdConfig::tiny(arch);
        cfg.gc.plan = None;
        cfg
    }

    #[test]
    fn every_architecture_completes_a_trace() {
        for arch in Architecture::all() {
            let cfg = io_cfg(arch);
            let trace = small_trace(&cfg, 100, 11);
            let report = run(cfg, &trace, Aging::Footprint).unwrap();
            assert_eq!(report.completed, 100, "{arch}");
            assert_eq!(report.unmapped_reads, 0, "{arch}");
            assert!(report.all.mean > SimTime::ZERO, "{arch}");
            assert!(report.last_completion > SimTime::ZERO, "{arch}");
        }
    }

    #[test]
    fn zero_request_run_reports_empty_windows() {
        // A run that completes nothing must not allocate utilization
        // windows (the old `+ 1` formula produced one per channel) and
        // must report zeroed engine-facing statistics.
        let cfg = io_cfg(Architecture::BaseSsd);
        let report = run(cfg, Trace::new("empty"), Aging::Footprint).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.first_arrival, SimTime::ZERO);
        assert_eq!(report.last_completion, SimTime::ZERO);
        assert_eq!(report.all.count, 0);
        for per_channel in [
            &report.channel_util.read,
            &report.channel_util.write,
            &report.channel_util.gc,
        ] {
            assert!(
                per_channel.iter().all(|w| w.is_empty()),
                "no completions must mean no utilization windows"
            );
        }
        assert_eq!(report.kiops(), 0.0);
    }

    #[test]
    fn single_read_latency_breakdown_base_ssd() {
        // One 16 KB read on an idle tiny baseSSD (4 KB pages):
        // cmd 7ns + tR 3us + data 4096ns + host pipes.
        let cfg = SsdConfig::tiny(Architecture::BaseSsd);
        let mut t = Trace::new("one");
        t.push(IoRequest::new(IoOp::Read, 0, 4096, SimTime::ZERO));
        let report = run(cfg, &t, Aging::Footprint).unwrap();
        let lat = report.all.mean.as_ns();
        let flash = 7 + 3000 + 4096;
        let host = 3 * (4096 / 8); // three 8 GB/s pipes
        assert_eq!(lat, flash + host, "latency {lat}");
    }

    #[test]
    fn pssd_beats_base_ssd_under_load() {
        // Read-heavy: the tiny geometry has too few planes to be
        // channel-bound for ULL writes, so the interconnect comparison is
        // made where the channel is the bottleneck.
        let base_cfg = io_cfg(Architecture::BaseSsd);
        let trace = PaperWorkload::WebSearch0.generate(400, base_cfg.logical_bytes() / 2, 3);
        let base = run(base_cfg, &trace, Aging::Footprint).unwrap();
        let pssd = run(io_cfg(Architecture::PSsd), &trace, Aging::Footprint).unwrap();
        assert!(
            pssd.speedup_vs(&base) > 1.1,
            "pSSD speedup only {:.2}",
            pssd.speedup_vs(&base)
        );
    }

    #[test]
    fn nossd_pin_constrained_is_slowest() {
        let cfg = io_cfg(Architecture::BaseSsd);
        let trace = small_trace(&cfg, 200, 5);
        let base = run(cfg, &trace, Aging::Footprint).unwrap();
        let nossd = run(
            io_cfg(Architecture::NoSsdPinConstrained),
            &trace,
            Aging::Footprint,
        )
        .unwrap();
        assert!(
            nossd.speedup_vs(&base) < 0.8,
            "pin-constrained NoSSD should degrade performance, got {:.2}",
            nossd.speedup_vs(&base)
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = io_cfg(Architecture::PnSsdSplit);
        let trace = small_trace(&cfg, 150, 9);
        let a = run(cfg, &trace, Aging::Footprint).unwrap();
        let b = run(cfg, &trace, Aging::Footprint).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn closed_loop_issues_all_requests() {
        let cfg = io_cfg(Architecture::PnSsd);
        let spec = SyntheticSpec {
            pattern: SyntheticPattern::RandomRead,
            request_bytes: 2 * 4096,
            requests: 64,
            footprint_bytes: cfg.logical_bytes() / 2,
            seed: 1,
        };
        let t = spec.generate();
        let report = run(cfg, Drive::closed_loop(&t, 8), Aging::Footprint).unwrap();
        assert_eq!(report.completed, 64);
        assert!(report.kiops() > 0.0);
    }

    #[test]
    fn deeper_queue_raises_latency() {
        let cfg = io_cfg(Architecture::BaseSsd);
        let spec = SyntheticSpec {
            pattern: SyntheticPattern::RandomRead,
            request_bytes: 4096,
            requests: 200,
            footprint_bytes: cfg.logical_bytes() / 2,
            seed: 2,
        };
        let t = spec.generate();
        let shallow = run(cfg, Drive::closed_loop(&t, 1), Aging::Footprint).unwrap();
        let deep = run(cfg, Drive::closed_loop(&t, 32), Aging::Footprint).unwrap();
        assert!(deep.all.mean > shallow.all.mean);
        assert!(deep.kiops() > shallow.kiops());
    }

    #[test]
    fn gc_triggers_under_write_pressure() {
        for plan in GcPlanSpec::PAPER {
            let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
            cfg.gc.plan = Some(plan);
            cfg.gc.victims_per_trigger = 2;
            let spec = SyntheticSpec {
                pattern: SyntheticPattern::RandomWrite,
                request_bytes: 4096,
                requests: 600,
                footprint_bytes: cfg.logical_bytes() * 3 / 4,
                seed: 3,
            };
            let t = spec.generate();
            let report = run(cfg, Drive::closed_loop(&t, 8), Aging::PAPER).unwrap();
            assert_eq!(report.completed, 600, "{plan}");
            assert!(report.gc.events > 0, "{plan}: GC never triggered");
            assert!(report.gc.pages_copied > 0, "{plan}");
            assert!(report.gc.blocks_erased > 0, "{plan}");
        }
    }

    #[test]
    fn spatial_gc_beats_parallel_gc_on_pnssd() {
        // The paper's headline: on pnSSD, spatial GC isolates reclamation
        // onto the GC group's v-channels while the I/O group serves the
        // host, so overall latency under GC must beat PaGC. This needs the
        // full 8×8 topology (the tiny 2-way geometry cannot split groups
        // meaningfully), so it uses the GC-scaled configuration.
        let mut cfg = SsdConfig::gc_scaled(Architecture::PnSsdSplit);
        let t = PaperWorkload::YcsbA.generate(800, cfg.logical_bytes() / 2, 4);
        let pagc = run(cfg, &t, Aging::PAPER).unwrap();
        cfg.gc.plan = Some(GcPlanSpec::spatial());
        let spgc = run(cfg, &t, Aging::PAPER).unwrap();
        assert!(pagc.gc.events > 0 && spgc.gc.events > 0);
        assert!(
            spgc.all.mean < pagc.all.mean,
            "SpGC mean {} should beat PaGC {}",
            spgc.all.mean,
            pagc.all.mean
        );
    }

    #[test]
    fn channel_sliced_sits_between_base_and_pssd() {
        // Fig 9(b): packetized protocol but only 8-bit controller
        // connectivity — roughly baseSSD-level I/O, clearly behind pSSD
        // (half the controller bandwidth), exactly the paper's argument
        // for moving to Omnibus.
        let trace = {
            let cfg = io_cfg(Architecture::BaseSsd);
            PaperWorkload::WebSearch0.generate(400, cfg.logical_bytes() / 2, 15)
        };
        let base = run(io_cfg(Architecture::BaseSsd), &trace, Aging::Footprint).unwrap();
        let sliced = run(
            io_cfg(Architecture::ChannelSliced),
            &trace,
            Aging::Footprint,
        )
        .unwrap();
        let pssd = run(io_cfg(Architecture::PSsd), &trace, Aging::Footprint).unwrap();
        // Same 8-bit controller attachment as baseSSD: I/O performance is a
        // wash (packet framing roughly offsets the saved command cycles) —
        // the strawman's only upside is chip-to-chip GC connectivity.
        let ratio = sliced.all.mean.as_ns() as f64 / base.all.mean.as_ns() as f64;
        assert!((0.9..1.1).contains(&ratio), "sliced/base ratio {ratio:.3}");
        assert!(
            pssd.all.mean < sliced.all.mean,
            "pSSD {} should beat channel-sliced {}",
            pssd.all.mean,
            sliced.all.mean
        );
    }

    #[test]
    fn channel_sliced_supports_spatial_gc_f2f() {
        let mut cfg = SsdConfig::tiny(Architecture::ChannelSliced);
        cfg.gc.plan = Some(GcPlanSpec::spatial());
        let trace = PaperWorkload::Build0.generate(300, cfg.logical_bytes() / 2, 16);
        let report = run(cfg, &trace, Aging::PAPER).unwrap();
        assert_eq!(report.completed, 300);
        assert!(report.gc.events > 0);
        assert!(report.gc.pages_copied > 0);
    }

    #[test]
    fn channel_utilization_recorded() {
        let cfg = io_cfg(Architecture::BaseSsd);
        let trace = small_trace(&cfg, 200, 6);
        let report = run(cfg, &trace, Aging::Footprint).unwrap();
        let total_read: f64 = report
            .channel_util
            .read
            .iter()
            .flat_map(|ch| ch.iter())
            .sum();
        let total_write: f64 = report
            .channel_util
            .write
            .iter()
            .flat_map(|ch| ch.iter())
            .sum();
        assert!(total_read > 0.0);
        assert!(total_write > 0.0);
        assert_eq!(
            report.channel_util.read.len(),
            cfg.geometry.channels as usize
        );
    }

    #[test]
    fn interconnect_energy_accounted_and_mesh_costs_more() {
        let trace = {
            let cfg = io_cfg(Architecture::BaseSsd);
            PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 18)
        };
        let base = run(io_cfg(Architecture::BaseSsd), &trace, Aging::Footprint).unwrap();
        let mesh = run(
            io_cfg(Architecture::NoSsdUnconstrained),
            &trace,
            Aging::Footprint,
        )
        .unwrap();
        assert!(base.energy.h_channel_mj > 0.0);
        assert_eq!(base.energy.mesh_mj, 0.0);
        assert_eq!(mesh.energy.h_channel_mj, 0.0);
        assert!(mesh.energy.mesh_mj > 0.0);
        assert_eq!(base.energy.host_bytes, mesh.energy.host_bytes);
        // Multi-hop charging: the mesh pays per link traversed, so its
        // energy per host byte must exceed the single-traversal bus.
        assert!(
            mesh.energy.pj_per_host_byte() > base.energy.pj_per_host_byte(),
            "mesh {} pJ/B vs bus {} pJ/B",
            mesh.energy.pj_per_host_byte(),
            base.energy.pj_per_host_byte()
        );
    }

    #[test]
    fn hybrid_ecc_adds_read_latency() {
        let trace = {
            let cfg = io_cfg(Architecture::PSsd);
            PaperWorkload::WebSearch0.generate(150, cfg.logical_bytes() / 2, 19)
        };
        let ideal = run(io_cfg(Architecture::PSsd), &trace, Aging::Footprint).unwrap();
        let mut cfg = io_cfg(Architecture::PSsd);
        cfg.ecc = EccMode::Hybrid;
        let hybrid = run(cfg, &trace, Aging::Footprint).unwrap();
        let added = hybrid.read.mean.saturating_sub(ideal.read.mean);
        // Roughly one controller decode per page read (2us), allowing for
        // queueing interactions.
        assert!(
            added >= SimTime::from_us(1),
            "hybrid ECC added only {added}"
        );
    }

    #[test]
    fn strict_ecc_disables_f2f_and_slows_spatial_gc() {
        let mk = |ecc: EccMode| {
            let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
            cfg.gc.plan = Some(GcPlanSpec::spatial());
            cfg.ecc = ecc;
            cfg
        };
        let trace = {
            let cfg = mk(EccMode::Ideal);
            PaperWorkload::Build0.generate(300, cfg.logical_bytes() / 2, 20)
        };
        let hybrid = run(mk(EccMode::Hybrid), &trace, Aging::PAPER).unwrap();
        let strict = run(mk(EccMode::ControllerStrict), &trace, Aging::PAPER).unwrap();
        assert!(hybrid.gc.events > 0 && strict.gc.events > 0);
        // Strict mode stages every copy through the controller, putting GC
        // traffic back onto the h-channels; hybrid keeps GC on the
        // v-channels (only its command flits touch h-channels).
        let h_gc_busy = |r: &SimReport| -> f64 { r.channel_util.gc.iter().flatten().sum() };
        let strict_busy = h_gc_busy(&strict);
        let hybrid_busy = h_gc_busy(&hybrid);
        assert!(
            strict_busy > 10.0 * hybrid_busy.max(1e-9),
            "strict h-channel GC busy {strict_busy:.4} should dwarf hybrid's {hybrid_busy:.4}"
        );
    }

    #[test]
    fn ftl_compute_latency_slows_io_when_enabled() {
        let trace = {
            let cfg = io_cfg(Architecture::PSsd);
            PaperWorkload::YcsbA.generate(200, cfg.logical_bytes() / 2, 27)
        };
        let fast = run(io_cfg(Architecture::PSsd), &trace, Aging::Footprint).unwrap();
        let mut cfg = io_cfg(Architecture::PSsd);
        cfg.ftl_page_latency = SimTime::from_us(5);
        let slow = run(cfg, &trace, Aging::Footprint).unwrap();
        assert!(
            slow.all.mean > fast.all.mean + SimTime::from_us(4),
            "FTL compute should add latency: {} vs {}",
            slow.all.mean,
            fast.all.mean
        );
    }
}

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    192
} else {
    12
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_ftl::GcPlanSpec;
    use nssd_host::{IoOp, IoRequest};
    use nssd_sim::{DetRng, Rng, SimTime};
    use nssd_workloads::Trace;

    // Every random workload completes on every architecture, with
    // monotone percentiles and consistent counters — the engine-level
    // conservation property.
    #[test]
    fn random_workloads_complete_everywhere() {
        let mut rng = DetRng::seed_from_u64(0xC04E);
        for _ in 0..CASES {
            let arch_idx = rng.gen_range(0..7usize);
            let arch = Architecture::with_strawmen()[arch_idx];
            let mut cfg = SsdConfig::tiny(arch);
            cfg.gc.plan = None;
            let page = cfg.geometry.page_bytes as u64;
            let logical_pages = cfg.logical_bytes() / page;
            let mut t = Trace::new("prop");
            let mut now = 0u64;
            let reqs = rng.gen_range(1..40usize);
            for _ in 0..reqs {
                // (op, offset-slot, pages 1..=4, gap ns)
                let op = rng.gen_range(0..2u64) as u8;
                let slot = rng.gen_range(0..64u64);
                let pages = rng.gen_range(1..5u64);
                now += rng.gen_range(0..50_000u64);
                let first = slot % logical_pages.saturating_sub(pages).max(1);
                t.push(IoRequest::new(
                    if op == 0 { IoOp::Read } else { IoOp::Write },
                    first * page,
                    (pages * page) as u32,
                    SimTime::from_ns(now),
                ));
            }
            let n = t.len() as u64;
            let report = run(cfg, &t, Aging::Footprint).unwrap();
            assert_eq!(report.completed, n);
            assert_eq!(report.read.count + report.write.count, n);
            assert_eq!(report.unmapped_reads, 0);
            assert!(report.all.p50 <= report.all.p99);
            assert!(report.all.p99 <= report.all.max);
            assert!(report.all.mean <= report.all.max);
            assert!(report.last_completion >= report.first_arrival);
        }
    }

    // Under GC, data is conserved and GC counters are coherent.
    #[test]
    fn random_write_pressure_with_gc_is_coherent() {
        let mut rng = DetRng::seed_from_u64(0x6C);
        for _ in 0..CASES {
            let seed = rng.gen_range(0..64u64);
            let mut cfg = SsdConfig::tiny(Architecture::PnSsd);
            cfg.gc.plan = Some(GcPlanSpec::spatial());
            cfg.seed = seed;
            let trace =
                nssd_workloads::PaperWorkload::Build0.generate(150, cfg.logical_bytes() / 2, seed);
            let report = run(cfg, &trace, Aging::PAPER).unwrap();
            assert_eq!(report.completed, 150);
            assert!(
                report.gc.pages_copied >= report.ftl.gc_relocations.min(report.gc.pages_copied)
            );
            assert_eq!(report.gc.blocks_erased, report.ftl.erases);
            assert!(report.ftl.write_amplification() >= 1.0);
        }
    }
}
