//! Garbage-collection configuration and spatial-GC way groups.
//!
//! [`GcConfig`] holds the collector as one [`GcPlanSpec`] (`None` turns GC
//! off) next to the watermarks and sizes every plan shares. The paper's
//! collectors (§VII-C) are [`GcPlanSpec::pagc`] (the default),
//! [`GcPlanSpec::preemptive`] and [`GcPlanSpec::spatial`];
//! [`SpatialGroups`] is the I/O-group / GC-group bookkeeping of the last.

use nssd_sim::{CkptError, CkptReader, CkptWriter};

use crate::{GcPlanSpec, WayMask};

/// Below this free-block ratio, preemptive GC stops yielding to I/O
/// ([`crate::Ftl::critically_low`]). [`GcConfig::validate`] refuses a
/// trigger watermark below it.
pub const HARD_FREE_RATIO: f64 = 0.025;

/// Garbage-collection tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// The collector, or `None` with GC disabled (the no-GC I/O
    /// experiments, Figs 14–17). Defaults to [`GcPlanSpec::pagc`].
    pub plan: Option<GcPlanSpec>,
    /// Start GC when the free-block ratio drops to this value.
    pub trigger_free_ratio: f64,
    /// Keep chaining GC events until the free-block ratio recovers to this
    /// value (hysteresis: the gap between trigger and stop sets the GC duty
    /// cycle under sustained writes).
    pub stop_free_ratio: f64,
    /// Victim blocks reclaimed per GC event (total across the device; the
    /// same total is used for every plan, per §VII-A).
    pub victims_per_trigger: u32,
    /// Fraction of ways assigned to the GC group under spatial GC.
    pub gc_group_fraction: f64,
    /// A second GC-off switch that only the `benchmark/` package sets; the
    /// FTL folds it into `plan` once, in `Ftl::new`. The next change to
    /// the benchmark turns GC off through `plan` and deletes this field.
    #[doc(hidden)]
    pub policy: GcPolicy,
}

/// The value type of the benchmark-only GC-off switch
/// (`GcConfig::policy`); the next change to the benchmark deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcPolicy {
    /// GC runs `GcConfig::plan`.
    Plan,
    /// GC is off whatever `GcConfig::plan` holds.
    None,
}

impl GcConfig {
    /// The evaluation defaults: PaGC, trigger at 10% free blocks, 8 victims
    /// per event, half/half spatial groups.
    pub fn evaluation_defaults() -> Self {
        GcConfig {
            plan: Some(GcPlanSpec::pagc()),
            trigger_free_ratio: 0.10,
            stop_free_ratio: 0.105,
            victims_per_trigger: 8,
            gc_group_fraction: 0.5,
            policy: GcPolicy::Plan,
        }
    }

    /// Validates ratios are sane.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.trigger_free_ratio) {
            return Err("trigger_free_ratio must be in [0, 1)".into());
        }
        // The gap must be strictly positive: an equal pair validates a
        // zero-duty-cycle hysteresis where every finished event immediately
        // re-arms the trigger.
        if !(self.stop_free_ratio > self.trigger_free_ratio && self.stop_free_ratio < 1.0) {
            return Err("stop_free_ratio must be in (trigger_free_ratio, 1)".into());
        }
        if HARD_FREE_RATIO > self.trigger_free_ratio {
            return Err(format!(
                "trigger_free_ratio must not be below the hard watermark {HARD_FREE_RATIO}"
            ));
        }
        if !(0.0 < self.gc_group_fraction && self.gc_group_fraction < 1.0) {
            return Err("gc_group_fraction must be in (0, 1)".into());
        }
        if self.victims_per_trigger == 0 {
            return Err("victims_per_trigger must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig::evaluation_defaults()
    }
}

/// The I/O-group / GC-group split of spatial GC (Fig 12), swapping each
/// epoch so both halves age evenly.
///
/// # Examples
///
/// ```
/// use nssd_ftl::SpatialGroups;
///
/// let mut groups = SpatialGroups::new(8, 0.5);
/// // First epoch: GC group is the upper half (Fig 12a).
/// assert_eq!(groups.gc_ways().ways(), vec![4, 5, 6, 7]);
/// assert_eq!(groups.io_ways().ways(), vec![0, 1, 2, 3]);
/// groups.swap();
/// assert_eq!(groups.gc_ways().ways(), vec![0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialGroups {
    total_ways: u32,
    gc_ways_count: u32,
    gc_is_upper: bool,
    epochs: u64,
}

impl SpatialGroups {
    /// Creates the group split for `total_ways` ways with `gc_fraction` of
    /// them in the GC group.
    ///
    /// # Panics
    ///
    /// Panics unless `total_ways >= 2` and the fraction leaves at least one
    /// way on each side.
    pub fn new(total_ways: u32, gc_fraction: f64) -> Self {
        assert!(total_ways >= 2, "spatial GC needs at least two ways");
        let gc_ways_count =
            ((total_ways as f64 * gc_fraction).round() as u32).clamp(1, total_ways - 1);
        SpatialGroups {
            total_ways,
            gc_ways_count,
            gc_is_upper: true,
            epochs: 0,
        }
    }

    /// Ways currently assigned to garbage collection.
    pub fn gc_ways(&self) -> WayMask {
        if self.gc_is_upper {
            WayMask::from_ways(self.total_ways - self.gc_ways_count..self.total_ways)
        } else {
            WayMask::from_ways(0..self.gc_ways_count)
        }
    }

    /// Ways currently assigned to foreground I/O writes.
    pub fn io_ways(&self) -> WayMask {
        self.gc_ways().complement(self.total_ways)
    }

    /// Swaps the groups (end of a GC epoch, Fig 12c).
    pub fn swap(&mut self) {
        self.gc_is_upper = !self.gc_is_upper;
        self.epochs += 1;
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Serializes the group split (the way counts double as a config check
    /// on restore).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u32(self.total_ways);
        w.put_u32(self.gc_ways_count);
        w.put_bool(self.gc_is_upper);
        w.put_u64(self.epochs);
    }

    /// Restores state saved by [`SpatialGroups::ckpt_save`] into groups
    /// built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a way-count mismatch.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let total_ways = r.take_u32()?;
        let gc_ways_count = r.take_u32()?;
        if total_ways != self.total_ways || gc_ways_count != self.gc_ways_count {
            return Err(CkptError::Invalid(format!(
                "spatial groups {gc_ways_count}/{total_ways} differ from configured {}/{}",
                self.gc_ways_count, self.total_ways
            )));
        }
        self.gc_is_upper = r.take_bool()?;
        self.epochs = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let mut c = GcConfig::evaluation_defaults();
        c.validate().unwrap();
        c.plan = Some(GcPlanSpec::spatial());
        c.validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = GcConfig::evaluation_defaults();
        c.trigger_free_ratio = 1.5;
        assert!(c.validate().is_err());
        let mut c = GcConfig::evaluation_defaults();
        c.trigger_free_ratio = HARD_FREE_RATIO / 2.0;
        assert!(c.validate().is_err());
        let mut c = GcConfig::evaluation_defaults();
        c.gc_group_fraction = 1.0;
        assert!(c.validate().is_err());
        let mut c = GcConfig::evaluation_defaults();
        c.victims_per_trigger = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn hysteresis_gap_must_be_strictly_positive() {
        // An equal trigger/stop pair is a zero-duty-cycle config: every
        // finished GC event instantly re-arms the trigger. Reject it.
        let mut c = GcConfig::evaluation_defaults();
        c.stop_free_ratio = c.trigger_free_ratio;
        assert!(c.validate().is_err());
        c.stop_free_ratio = c.trigger_free_ratio - 0.01;
        assert!(c.validate().is_err());
        c.stop_free_ratio = c.trigger_free_ratio + 0.001;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn groups_partition_the_ways() {
        let groups = SpatialGroups::new(8, 0.5);
        let gc = groups.gc_ways();
        let io = groups.io_ways();
        assert_eq!(gc.count() + io.count(), 8);
        for w in 0..8 {
            assert!(gc.contains(w) != io.contains(w));
        }
    }

    #[test]
    fn swap_alternates_and_counts_epochs() {
        let mut groups = SpatialGroups::new(4, 0.5);
        let first = groups.gc_ways();
        groups.swap();
        assert_ne!(groups.gc_ways(), first);
        groups.swap();
        assert_eq!(groups.gc_ways(), first);
        assert_eq!(groups.epochs(), 2);
    }

    #[test]
    fn quarter_fraction_supported() {
        // §VI-A: the GC group can be smaller, e.g. 1/4 of the ways.
        let groups = SpatialGroups::new(8, 0.25);
        assert_eq!(groups.gc_ways().count(), 2);
        assert_eq!(groups.io_ways().count(), 6);
    }

    #[test]
    fn extreme_fractions_clamped() {
        let g = SpatialGroups::new(4, 0.01);
        assert_eq!(g.gc_ways().count(), 1);
        let g = SpatialGroups::new(4, 0.99);
        assert_eq!(g.gc_ways().count(), 3);
    }
}
