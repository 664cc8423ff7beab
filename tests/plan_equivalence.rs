//! Plan equivalence: every GC plan ages a device the same way, and the
//! plans beyond the paper's three keep device semantics.
//!
//! Aging is a property of the device, not of the plan under test: the
//! FTL's untimed collector, which ages the device, always takes greedy
//! victims, so every plan starts its run from the same FTL state. The two
//! plans beyond the paper's three (hot/cold placement, wear-aware victims)
//! are validated functionally: the shadow oracle stays clean and the
//! functional digest matches PaGC's on the same trace — placement and
//! victim order are timing/wear choices that must cancel out of device
//! semantics.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::core::SsdSim;
use networked_ssd::ftl::Lpn;
use networked_ssd::sim::CkptWriter;
use networked_ssd::{
    prepare, run, Aging, Architecture, GcPlanSpec, PaperWorkload, SsdConfig, VictimSpec,
};

fn cfg_with(arch: Architecture, plan: GcPlanSpec) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.plan = Some(plan);
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    cfg
}

#[test]
fn every_plan_ages_the_device_to_the_same_state() {
    let aged = |plan| {
        let cfg = cfg_with(Architecture::PnSsd, plan);
        let trace = PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 13);
        prepare(cfg, &trace, Aging::PAPER).unwrap().0
    };
    let ftl_bytes = |sim: &SsdSim| {
        let mut w = CkptWriter::new();
        sim.ftl().ckpt_save(&mut w);
        w.into_bytes()
    };
    let block_bytes = |sim: &SsdSim| {
        let mut w = CkptWriter::new();
        sim.ftl().blocks().ckpt_save(&mut w);
        w.into_bytes()
    };
    let pagc = aged(GcPlanSpec::pagc());
    let erased = |sim: &SsdSim| sim.ftl().blocks().iter().any(|(_, m)| m.erase_count() > 0);
    assert!(erased(&pagc), "aging never collected garbage");
    let random = GcPlanSpec {
        victim: VictimSpec::Random,
        ..GcPlanSpec::pagc()
    };
    for plan in [
        GcPlanSpec::preemptive(),
        GcPlanSpec::spatial(),
        GcPlanSpec::wear_aware(),
        random,
    ] {
        assert!(ftl_bytes(&aged(plan)) == ftl_bytes(&pagc), "{plan}");
    }
    // Hot/cold also saves the relocation generation of every page, which
    // no other plan keeps: compare its mapping and block table.
    let hot_cold = aged(GcPlanSpec::hot_cold());
    assert!(block_bytes(&hot_cold) == block_bytes(&pagc));
    for l in 0..pagc.ftl().logical_pages() {
        let lpn = Lpn::new(l);
        assert_eq!(hot_cold.ftl().lookup(lpn), pagc.ftl().lookup(lpn), "{lpn}");
    }
}

#[test]
fn new_plans_preserve_functional_digest_and_oracle_cleanliness() {
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, GcPlanSpec::pagc());
        PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23)
    };
    let baseline = run(
        cfg_with(Architecture::PnSsd, GcPlanSpec::pagc()),
        &trace,
        Aging::PAPER,
    )
    .unwrap();
    assert!(baseline.gc.events > 0, "PaGC baseline: GC never ran");
    for spec in [GcPlanSpec::hot_cold(), GcPlanSpec::wear_aware()] {
        let report = run(cfg_with(Architecture::PnSsd, spec), &trace, Aging::PAPER).unwrap();
        assert!(report.gc.events > 0, "{spec}: GC never ran");
        assert!(
            report.oracle.violations.is_empty(),
            "{spec}: {:?}",
            report.oracle.violations
        );
        assert_eq!(
            report.oracle.functional_digest, baseline.oracle.functional_digest,
            "{spec}: functional digest diverged from PaGC"
        );
    }
}

#[test]
fn new_plans_report_wear_detail_and_paper_plans_do_not() {
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, GcPlanSpec::pagc());
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 13)
    };
    for plan in GcPlanSpec::PAPER {
        let report = run(cfg_with(Architecture::PnSsd, plan), &trace, Aging::PAPER).unwrap();
        assert!(!report.wear_tracked, "{plan} must not track wear");
        assert!(!canonical_json(&report).contains("wear_detail"), "{plan}");
    }
    let wear = run(
        cfg_with(Architecture::PnSsd, GcPlanSpec::wear_aware()),
        &trace,
        Aging::PAPER,
    )
    .unwrap();
    assert!(wear.wear_tracked && wear.gc.events > 0);
    assert!(canonical_json(&wear).contains("\"wear_detail\""));
}
