//! Garbage-collection plans as data.
//!
//! The three evaluated policies (PaGC, semi-preemptive, SpGC) are not
//! monoliths: each is one setting on each of four orthogonal axes, in the
//! style of MMTk's plan/policy decomposition. A [`GcPlanSpec`] is that
//! tuple, and it is the plan the engine runs (`nssd-core`'s
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
//! The legacy [`GcPolicy`](crate::GcPolicy) values map onto tuples via
//! [`GcPlanSpec::from_policy`]:
//!
//! | policy | victim | trigger | placement | preemption |
//! |---|---|---|---|---|
//! | PaGC | configured | watermark | unconstrained | run-to-completion |
//! | preemptive | configured | watermark | unconstrained | yield-to-I/O |
//! | SpGC | configured | watermark | spatial | run-to-completion |
//!
//! Two settings have no legacy policy: [`VictimSpec::WearAware`] (victim
//! scoring that folds per-block erase counts into the greedy cost) and
//! [`PlacementSpec::HotCold`] (generational separation — pages that keep
//! surviving GC are routed to a dedicated cold relocation stream).

use core::fmt;

use crate::{GcPolicy, VictimPolicy};

/// Declarative victim-selection choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimSpec {
    /// Minimum-valid-count ("greedy"), the paper's baseline.
    Greedy,
    /// Uniform random over eligible blocks (ablation).
    Random,
    /// Cost-benefit (Rosenblum & Ousterhout).
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
    /// Maps a legacy [`VictimPolicy`] onto its spec.
    pub fn from_policy(policy: VictimPolicy) -> Self {
        match policy {
            VictimPolicy::Greedy => VictimSpec::Greedy,
            VictimPolicy::Random => VictimSpec::Random,
            VictimPolicy::CostBenefit => VictimSpec::CostBenefit,
        }
    }

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
    /// The component tuple a legacy [`GcPolicy`] decomposes into, or `None`
    /// for [`GcPolicy::None`] (GC disabled is the absence of a plan).
    pub fn from_policy(policy: GcPolicy, victim_policy: VictimPolicy) -> Option<Self> {
        let victim = VictimSpec::from_policy(victim_policy);
        let (placement, preemption) = match policy {
            GcPolicy::None => return None,
            GcPolicy::Parallel => (
                PlacementSpec::Unconstrained,
                PreemptionSpec::RunToCompletion,
            ),
            GcPolicy::Preemptive => (PlacementSpec::Unconstrained, PreemptionSpec::YieldToIo),
            GcPolicy::Spatial => (PlacementSpec::Spatial, PreemptionSpec::RunToCompletion),
        };
        Some(GcPlanSpec {
            victim,
            trigger: TriggerSpec::Watermark,
            placement,
            preemption,
        })
    }

    /// The hot/cold (generational) separation plan.
    pub fn hot_cold() -> Self {
        GcPlanSpec {
            victim: VictimSpec::Greedy,
            trigger: TriggerSpec::Watermark,
            placement: PlacementSpec::HotCold,
            preemption: PreemptionSpec::RunToCompletion,
        }
    }

    /// The wear-aware victim-scoring plan with the default wear weight.
    pub fn wear_aware() -> Self {
        GcPlanSpec {
            victim: VictimSpec::WearAware {
                wear_weight: DEFAULT_WEAR_WEIGHT,
            },
            trigger: TriggerSpec::Watermark,
            placement: PlacementSpec::Unconstrained,
            preemption: PreemptionSpec::RunToCompletion,
        }
    }

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
    fn legacy_policies_map_to_component_tuples() {
        let pagc = GcPlanSpec::from_policy(GcPolicy::Parallel, VictimPolicy::Greedy).unwrap();
        assert_eq!(pagc.placement, PlacementSpec::Unconstrained);
        assert_eq!(pagc.preemption, PreemptionSpec::RunToCompletion);
        let pre = GcPlanSpec::from_policy(GcPolicy::Preemptive, VictimPolicy::Random).unwrap();
        assert_eq!(pre.victim, VictimSpec::Random);
        assert_eq!(pre.preemption, PreemptionSpec::YieldToIo);
        let sp = GcPlanSpec::from_policy(GcPolicy::Spatial, VictimPolicy::Greedy).unwrap();
        assert_eq!(sp.placement, PlacementSpec::Spatial);
        assert_eq!(
            GcPlanSpec::from_policy(GcPolicy::None, VictimPolicy::Greedy),
            None
        );
    }

    #[test]
    fn spec_slugs_are_distinct_and_stable() {
        assert_eq!(GcPlanSpec::hot_cold().slug(), "greedy-hotcold-run");
        assert_eq!(GcPlanSpec::wear_aware().slug(), "wearaware-free-run");
        let pagc = GcPlanSpec::from_policy(GcPolicy::Parallel, VictimPolicy::Greedy).unwrap();
        assert_eq!(pagc.slug(), "greedy-free-run");
        assert!(GcPlanSpec::hot_cold().tracks_wear());
        assert!(GcPlanSpec::wear_aware().tracks_wear());
        assert!(!pagc.tracks_wear());
    }
}
