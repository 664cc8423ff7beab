//! Garbage-collection plans as data.
//!
//! A collector is one setting on each of four orthogonal axes, in the
//! style of MMTk's plan/policy decomposition. A [`GcPlanSpec`] is that
//! tuple and the only description of GC: [`GcConfig::plan`] holds one (or
//! `None` for GC off), and the engine runs it (`nssd-core`'s
//! `engine::gcrun` matches on its fields):
//!
//! * **victim** ([`VictimSpec`]) — which full blocks to reclaim;
//! * **trigger** ([`TriggerSpec`]) — when to start, keep chaining, and
//!   force GC;
//! * **placement** ([`PlacementSpec`]) — where user writes and GC copies
//!   may land while an event runs;
//! * **preemption** ([`PreemptionSpec`]) — how the copy backlog is
//!   dispatched against foreground I/O.
//!
//! The paper's three collectors (§VI, §VII-C) are three constructors, all
//! with greedy victims and the watermark trigger:
//!
//! * [`GcPlanSpec::pagc`] — PaGC, the baseline and the default;
//! * [`GcPlanSpec::preemptive`] — semi-preemptive GC (copies yield to I/O);
//! * [`GcPlanSpec::spatial`] — the paper's SpGC (spatial placement).
//!
//! [`GcPlanSpec::wear_aware`] and [`GcPlanSpec::hot_cold`] each change one
//! axis of PaGC: victim scoring that folds per-block erase counts into the
//! greedy cost, and generational placement (pages that keep surviving GC
//! relocate through a dedicated cold stream).
//!
//! The victim axis governs the engine's timed collector only. Aging
//! ([`Ftl::precondition`]) and the watermark reclaim of GC-off runs use the
//! FTL's untimed collector ([`Ftl::instant_gc`]), which always takes greedy
//! victims, so a device ages the same way under every plan.
//!
//! [`GcConfig::plan`]: crate::GcConfig::plan
//! [`Ftl::precondition`]: crate::Ftl::precondition
//! [`Ftl::instant_gc`]: crate::Ftl::instant_gc

use core::fmt;

/// Declarative victim-selection choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimSpec {
    /// Minimum-valid-count ("greedy"), the paper's baseline.
    Greedy,
    /// Uniform random over eligible blocks (ablation).
    Random,
    /// Cost-benefit (Rosenblum & Ousterhout): maximize
    /// `(1 - u) / (2u) × age`, preferring cold, mostly-invalid blocks.
    CostBenefit,
    /// Greedy extended with a wear term over per-block erase counts:
    /// score `valid_count × VALID_PAGE_WEIGHT + erase_count × wear_weight`,
    /// lowest first, ties broken by block number.
    WearAware {
        /// Weight of one erase cycle relative to
        /// [`VALID_PAGE_WEIGHT`](crate::VALID_PAGE_WEIGHT) units of copy
        /// cost.
        wear_weight: u32,
    },
}

impl VictimSpec {
    fn slug(&self) -> &'static str {
        match self {
            VictimSpec::Greedy => "greedy",
            VictimSpec::Random => "random",
            VictimSpec::CostBenefit => "costbenefit",
            VictimSpec::WearAware { .. } => "wearaware",
        }
    }
}

/// Declarative trigger choice. Watermarks are the only trigger; the field
/// stays so a plan names all four axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerSpec {
    /// Trigger/stop/hard free-ratio watermarks from
    /// [`GcConfig`](crate::GcConfig).
    Watermark,
}

/// Declarative placement choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementSpec {
    /// User writes and GC copies roam all ways.
    Unconstrained,
    /// SpGC way groups: user writes confined to the I/O group, victims and
    /// copies to the GC group, groups swapping every epoch.
    Spatial,
    /// Generational separation: unconstrained masks, but pages that have
    /// already survived a GC copy relocate through a separate cold stream.
    HotCold,
}

/// Declarative preemption choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreemptionSpec {
    /// Copies pipeline per victim until the event completes.
    RunToCompletion,
    /// Copies launch only into foreground-idle gaps (semi-preemptive).
    YieldToIo,
}

/// A full GC plan as data: one spec per component axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GcPlanSpec {
    /// Victim selection.
    pub victim: VictimSpec,
    /// Trigger policy.
    pub trigger: TriggerSpec,
    /// Placement policy.
    pub placement: PlacementSpec,
    /// Preemption policy.
    pub preemption: PreemptionSpec,
}

impl GcPlanSpec {
    /// PaGC (Shahidi et al., SC'16), the paper's baseline and the default:
    /// greedy victims, all chips reclaim concurrently, and foreground I/O
    /// queues behind GC traffic.
    pub const fn pagc() -> Self {
        GcPlanSpec {
            victim: VictimSpec::Greedy,
            trigger: TriggerSpec::Watermark,
            placement: PlacementSpec::Unconstrained,
            preemption: PreemptionSpec::RunToCompletion,
        }
    }

    /// Semi-preemptive GC (Lee et al., ISPASS'11): PaGC whose page copies
    /// yield to pending I/O until the hard free-space watermark forces
    /// progress.
    pub const fn preemptive() -> Self {
        GcPlanSpec {
            preemption: PreemptionSpec::YieldToIo,
            ..Self::pagc()
        }
    }

    /// Spatial GC, the paper's SpGC (§VI): the ways split into an I/O group
    /// and a GC group; user writes stay in the I/O group, victims and copy
    /// destinations in the GC group, and the groups swap every epoch to
    /// level wear.
    pub const fn spatial() -> Self {
        GcPlanSpec {
            placement: PlacementSpec::Spatial,
            ..Self::pagc()
        }
    }

    /// The hot/cold (generational) separation plan.
    pub const fn hot_cold() -> Self {
        GcPlanSpec {
            placement: PlacementSpec::HotCold,
            ..Self::pagc()
        }
    }

    /// The wear-aware victim-scoring plan with the default wear weight.
    pub const fn wear_aware() -> Self {
        GcPlanSpec {
            victim: VictimSpec::WearAware {
                wear_weight: DEFAULT_WEAR_WEIGHT,
            },
            ..Self::pagc()
        }
    }

    /// The paper's three collectors, in the order its figures list them.
    pub const PAPER: [GcPlanSpec; 3] = [Self::pagc(), Self::preemptive(), Self::spatial()];

    /// Whether this plan observes per-block wear (its results are judged by
    /// the wear-detail report block).
    pub fn tracks_wear(&self) -> bool {
        matches!(self.victim, VictimSpec::WearAware { .. })
            || self.placement == PlacementSpec::HotCold
    }

    /// A short, filesystem-safe identifier (used in golden-case file names
    /// and bench tables).
    pub fn slug(&self) -> String {
        let placement = match self.placement {
            PlacementSpec::Unconstrained => "free",
            PlacementSpec::Spatial => "spatial",
            PlacementSpec::HotCold => "hotcold",
        };
        let preemption = match self.preemption {
            PreemptionSpec::RunToCompletion => "run",
            PreemptionSpec::YieldToIo => "yield",
        };
        format!("{}-{placement}-{preemption}", self.victim.slug())
    }
}

impl fmt::Display for GcPlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

/// Default `wear_weight` for [`GcPlanSpec::wear_aware`]: one erase cycle
/// costs a quarter of a live-page copy, enough to steer selection off
/// hot-worn blocks without drowning the reclamation yield.
pub const DEFAULT_WEAR_WEIGHT: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_slugs_are_distinct_and_stable() {
        assert_eq!(GcPlanSpec::hot_cold().slug(), "greedy-hotcold-run");
        assert_eq!(GcPlanSpec::wear_aware().slug(), "wearaware-free-run");
        let slugs = GcPlanSpec::PAPER.map(|p| p.slug());
        assert_eq!(
            slugs,
            ["greedy-free-run", "greedy-free-yield", "greedy-spatial-run"]
        );
        assert!(GcPlanSpec::hot_cold().tracks_wear());
        assert!(GcPlanSpec::wear_aware().tracks_wear());
        assert!(!GcPlanSpec::pagc().tracks_wear());
    }
}
