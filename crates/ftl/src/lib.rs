//! Flash translation layer for the Networked SSD reproduction.
//!
//! The FTL is the substrate the paper's spatial garbage collection plugs
//! into:
//!
//! * [`MappingTable`] — page-level L2P/P2L mapping that holds memory only
//!   for the chunks a run maps into.
//! * [`BlockTable`] — valid bitmaps, write pointers, wear counters, and
//!   per-plane free lists.
//! * [`PageAllocator`] — striping write allocation with the paper's
//!   [`AllocPolicy::Pcwd`]/[`AllocPolicy::Pwcd`] schemes and the
//!   [`WayMask`] restriction spatial GC uses to confine user writes.
//! * [`select_victims`] — greedy, random, cost-benefit and wear-aware
//!   victim selection.
//! * [`GcPlanSpec`] — the one description of a collector: a (victim,
//!   trigger, placement, preemption) tuple. The paper's PaGC,
//!   semi-preemptive and spatial GC are [`GcPlanSpec::pagc`],
//!   [`GcPlanSpec::preemptive`] and [`GcPlanSpec::spatial`], and a new
//!   collector is a different setting on one axis.
//! * [`GcConfig`]/[`SpatialGroups`] — the plan with its watermarks, and the
//!   I/O-vs-GC group bookkeeping of Fig 12.
//! * [`Ftl`] — the facade combining all of the above, plus instant-GC
//!   preconditioning for experiments.
//!
//! ```
//! use nssd_ftl::{Ftl, FtlConfig, GcPlanSpec, Lpn, SpatialGroups};
//!
//! let mut cfg = FtlConfig::evaluation_defaults();
//! cfg.gc.plan = Some(GcPlanSpec::spatial());
//!
//! // While an SpGC event runs, user writes are confined to the I/O group
//! // and the GC group is left to the collector.
//! let mut ftl = Ftl::new(cfg)?;
//! let groups = SpatialGroups::new(cfg.geometry.ways, cfg.gc.gc_group_fraction);
//! ftl.set_write_mask(groups.io_ways());
//! let out = ftl.write(Lpn::new(0))?;
//! let way = ftl.geometry().page_addr(out.ppn).way;
//! assert!(groups.io_ways().contains(way) && !groups.gc_ways().contains(way));
//! ftl.reset_write_mask();
//! # Ok::<(), nssd_ftl::FtlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod block;
mod ftl;
mod gc;
mod mapping;
mod plan;
mod redundancy;
mod victim;

pub use allocator::{AllocPolicy, OutOfSpace, PageAllocator, WayMask};
pub use block::{BlockMeta, BlockState, BlockTable, PlaneAccounting, WearSummary};
pub use ftl::{
    ChipFailureOutcome, Ftl, FtlConfig, FtlError, FtlStats, GcStream, Relocation, WriteOutcome,
};
pub use gc::{GcConfig, GcPolicy, SpatialGroups, HARD_FREE_RATIO};
pub use mapping::{Lpn, MappingTable};
pub use plan::{
    GcPlanSpec, PlacementSpec, PreemptionSpec, TriggerSpec, VictimSpec, DEFAULT_WEAR_WEIGHT,
};
pub use redundancy::RedundancyConfig;
pub use victim::{select_victims, VictimPolicy, VALID_PAGE_WEIGHT};

#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    2048
} else {
    64
};

#[cfg(test)]
mod proptests {
    use super::*;
    use nssd_flash::Geometry;
    use nssd_sim::{DetRng, Rng};

    // A random sequence of writes/overwrites/trims keeps every invariant.
    #[test]
    fn random_ops_keep_ftl_consistent() {
        let mut gen = DetRng::seed_from_u64(0xF71);
        for _ in 0..CASES {
            let mut cfg = FtlConfig::evaluation_defaults();
            cfg.geometry = Geometry::tiny();
            cfg.gc.victims_per_trigger = 2;
            let mut ftl = Ftl::new(cfg).unwrap();
            let mut rng = DetRng::seed_from_u64(3);
            let logical = ftl.logical_pages();
            let mut shadow = std::collections::HashMap::new();
            let ops = gen.gen_range(1..300usize);
            for _ in 0..ops {
                let op = gen.gen_range(0..3u64) as u8;
                let l = gen.gen_range(0..100u64);
                let lpn = Lpn::new(l % logical);
                match op {
                    0 | 1 => {
                        if ftl.needs_gc() {
                            ftl.instant_gc(&mut rng).unwrap();
                        }
                        let out = ftl.write(lpn).unwrap();
                        shadow.insert(lpn, out.ppn);
                    }
                    _ => {
                        ftl.trim(lpn).unwrap();
                        shadow.remove(&lpn);
                    }
                }
            }
            let problems = ftl.check_invariants();
            assert!(problems.is_empty(), "{problems:?}");
            for (lpn, ppn) in shadow {
                assert_eq!(ftl.lookup(lpn), Some(ppn));
                assert!(ftl.is_valid(ppn));
            }
        }
    }

    #[test]
    fn allocator_never_hands_out_same_page_twice() {
        let mut gen = DetRng::seed_from_u64(0xA110C);
        let policies = [AllocPolicy::Pcwd, AllocPolicy::Pwcd, AllocPolicy::Cwdp];
        for _ in 0..CASES {
            let g = Geometry::tiny();
            let n = gen.gen_range(1..200u64) % g.page_count();
            let policy = policies[gen.gen_range(0..policies.len())];
            let mut blocks = BlockTable::new(&g);
            let mut alloc = PageAllocator::new(&g, policy);
            let mask = WayMask::all(g.ways);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let ppn = alloc.allocate(&mut blocks, mask).unwrap();
                assert!(seen.insert(ppn), "page {} allocated twice", ppn);
            }
        }
    }

    #[test]
    fn gc_conserves_logical_data() {
        let mut gen = DetRng::seed_from_u64(0x6CDA);
        // GC preconditioning is the slow path; cap the case count.
        for _ in 0..(CASES / 4).max(8) {
            let seed = gen.gen_range(0..1000u64);
            let mut cfg = FtlConfig::evaluation_defaults();
            cfg.geometry = Geometry::tiny();
            cfg.gc.victims_per_trigger = 2;
            let mut ftl = Ftl::new(cfg).unwrap();
            let mut rng = DetRng::seed_from_u64(seed);
            ftl.precondition(0.9, 0.5, &mut rng).unwrap();
            let filled = (ftl.logical_pages() as f64 * 0.9) as u64;
            // After arbitrary GC churn every written LPN still resolves.
            let mut mapped = 0;
            for l in 0..filled {
                if ftl.lookup(Lpn::new(l)).is_some() {
                    mapped += 1;
                }
            }
            assert_eq!(mapped, filled);
            let problems = ftl.check_invariants();
            assert!(problems.is_empty(), "{problems:?}");
        }
    }
}
