//! Plan equivalence: running a GC plan spec must be indistinguishable
//! from running the legacy policy it decomposes into.
//!
//! Every legacy [`GcPolicy`] resolves to a [`GcPlanSpec`] tuple, which the
//! engine runs directly; these tests pin the *config plumbing* on top of
//! that — running with an explicit `gc.plan` override must produce a
//! byte-identical canonical report to running with the policy field alone,
//! across architectures. The two plans with no legacy equivalent
//! (hot/cold placement, wear-aware victims) are validated functionally: the
//! shadow oracle stays clean and the functional digest matches PaGC's on
//! the same trace — placement and victim order are timing/wear choices that
//! must cancel out of device semantics.

use networked_ssd::core::golden::canonical_json;
use networked_ssd::{run, Aging, Architecture, GcPlanSpec, GcPolicy, PaperWorkload, SsdConfig};

fn cfg_with(arch: Architecture, policy: GcPolicy, plan: Option<GcPlanSpec>) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(arch);
    cfg.gc.policy = policy;
    cfg.gc.plan = plan;
    cfg.gc.victims_per_trigger = 2;
    cfg.oracle = true;
    cfg
}

#[test]
fn explicit_plan_matches_legacy_policy_byte_for_byte() {
    for arch in [Architecture::BaseSsd, Architecture::PnSsd] {
        for policy in [GcPolicy::Parallel, GcPolicy::Preemptive, GcPolicy::Spatial] {
            let trace = {
                let cfg = cfg_with(arch, policy, None);
                PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 13)
            };
            let spec =
                GcPlanSpec::from_policy(policy, cfg_with(arch, policy, None).gc.victim_policy)
                    .expect("enabled policies decompose");
            let legacy = run(cfg_with(arch, policy, None), &trace, Aging::PAPER).unwrap();
            let composed = run(cfg_with(arch, policy, Some(spec)), &trace, Aging::PAPER).unwrap();
            assert!(legacy.gc.events > 0, "{arch}/{policy}: GC never ran");
            assert_eq!(
                canonical_json(&legacy),
                canonical_json(&composed),
                "{arch}/{policy}: composed plan {spec} diverged from legacy policy"
            );
        }
    }
}

#[test]
fn new_plans_preserve_functional_digest_and_oracle_cleanliness() {
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, GcPolicy::Parallel, None);
        PaperWorkload::YcsbA.generate(150, cfg.logical_bytes() / 2, 23)
    };
    let baseline = run(
        cfg_with(Architecture::PnSsd, GcPolicy::Parallel, None),
        &trace,
        Aging::PAPER,
    )
    .unwrap();
    assert!(baseline.gc.events > 0, "PaGC baseline: GC never ran");
    for spec in [GcPlanSpec::hot_cold(), GcPlanSpec::wear_aware()] {
        let report = run(
            cfg_with(Architecture::PnSsd, GcPolicy::Parallel, Some(spec)),
            &trace,
            Aging::PAPER,
        )
        .unwrap();
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
fn new_plans_report_wear_detail_and_legacy_plans_do_not() {
    let trace = {
        let cfg = cfg_with(Architecture::PnSsd, GcPolicy::Parallel, None);
        PaperWorkload::YcsbA.generate(120, cfg.logical_bytes() / 2, 13)
    };
    let legacy = run(
        cfg_with(Architecture::PnSsd, GcPolicy::Parallel, None),
        &trace,
        Aging::PAPER,
    )
    .unwrap();
    assert!(!legacy.wear_tracked, "legacy PaGC must not track wear");
    assert!(!canonical_json(&legacy).contains("wear_detail"));
    let wear = run(
        cfg_with(
            Architecture::PnSsd,
            GcPolicy::Parallel,
            Some(GcPlanSpec::wear_aware()),
        ),
        &trace,
        Aging::PAPER,
    )
    .unwrap();
    assert!(wear.wear_tracked && wear.gc.events > 0);
    assert!(canonical_json(&wear).contains("\"wear_detail\""));
}
