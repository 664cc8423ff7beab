//! Reference-model test for instant garbage collection.
//!
//! `Ftl::instant_gc` finds greedy victims, whatever the plan's victim axis,
//! through the block table's victim index and relocates each victim's live pages in stripe runs through the
//! open GC frontiers, sending only the pages that open a block through the
//! per-page path. The reference collects with public calls one page at a
//! time: a greedy scan over `blocks().iter()`, `note_gc_trigger`,
//! `live_pages`, `relocate_to` and `erase_block`. Seeded cases age devices
//! with `precondition` up to twice their logical capacity of overwrites,
//! and run `instant_gc` on its own on a pressurized device, over every
//! allocation policy, odd geometries, factory-bad blocks, parity, the
//! hot/cold plan, random and cost-benefit victim plans, a narrowed write
//! mask, an endurance limit that retires
//! blocks during aging and a dead chip. Both sides must give equal
//! results, equal checkpoint bytes, equal random-number streams, and (for
//! `instant_gc` on its own) the same relocation and erase hooks in the
//! same order.

use nssd_flash::{Geometry, Pbn};
use nssd_ftl::{
    AllocPolicy, BlockState, Ftl, FtlConfig, FtlError, GcPlanSpec, GcStream, Lpn, RedundancyConfig,
    Relocation, VictimSpec, WayMask,
};
use nssd_sim::{CkptWriter, DetRng, Rng};

/// Seeded cases; deep under `heavy-tests`.
const CASES: usize = if cfg!(feature = "heavy-tests") {
    1536
} else {
    96
};

/// One hook call of a collection, in the order it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Relocate(Relocation),
    Erase(Pbn),
}

/// Greedy victims by scanning every block: the `n` smallest
/// `(valid_count, pbn)` among the full blocks holding an invalid page.
fn scan_greedy(ftl: &Ftl, n: usize) -> Vec<Pbn> {
    let pages = ftl.geometry().pages_per_block;
    let mut keys: Vec<(u32, Pbn)> = ftl
        .blocks()
        .iter()
        .filter(|(_, m)| m.state() == BlockState::Full && m.valid_count() < pages)
        .map(|(pbn, m)| (m.valid_count(), pbn))
        .collect();
    keys.sort_unstable();
    keys.into_iter().take(n).map(|(_, pbn)| pbn).collect()
}

/// `Ftl::instant_gc_with` one page at a time, from public calls only.
fn reference_gc(ftl: &mut Ftl, hooks: &mut Vec<Hook>) -> Result<(), FtlError> {
    let all = WayMask::all(ftl.geometry().ways);
    let n = ftl.config().gc.victims_per_trigger as usize;
    while ftl.needs_gc() {
        ftl.note_gc_trigger();
        let mut victims = scan_greedy(ftl, n);
        ftl.drop_dead_chip_victims(&mut victims);
        if victims.is_empty() {
            return Ok(());
        }
        for pbn in victims {
            for (lpn, src) in ftl.live_pages(pbn) {
                if let Some(rel) = ftl.relocate_to(lpn, src, all, GcStream::Gc)? {
                    hooks.push(Hook::Relocate(rel));
                }
            }
            ftl.erase_block(pbn);
            hooks.push(Hook::Erase(pbn));
        }
    }
    Ok(())
}

/// One page written with collection around it, as `precondition` does.
fn write_collecting(ftl: &mut Ftl, lpn: Lpn) -> Result<(), FtlError> {
    if ftl.needs_gc() {
        reference_gc(ftl, &mut Vec::new())?;
    }
    match ftl.write(lpn) {
        Ok(_) => Ok(()),
        Err(FtlError::OutOfSpace) => {
            reference_gc(ftl, &mut Vec::new())?;
            ftl.write(lpn).map(|_| ())
        }
        Err(e) => Err(e),
    }
}

/// `Ftl::precondition` one page at a time with the reference collector.
fn reference_precondition(
    ftl: &mut Ftl,
    fill: f64,
    overwrite: f64,
    rng: &mut DetRng,
) -> Result<(), FtlError> {
    let filled = (ftl.logical_pages() as f64 * fill) as u64;
    for l in 0..filled {
        write_collecting(ftl, Lpn::new(l))?;
    }
    let overwrites = (ftl.logical_pages() as f64 * overwrite) as u64;
    for _ in 0..overwrites {
        let l = rng.gen_range(0..filled.max(1));
        write_collecting(ftl, Lpn::new(l))?;
    }
    // A precondition of nothing writes nothing and draws nothing: it only
    // clears the counters, as the full one ends.
    ftl.precondition(0.0, 0.0, rng)
}

fn saved(ftl: &Ftl) -> Vec<u8> {
    let mut w = CkptWriter::new();
    ftl.ckpt_save(&mut w);
    w.into_bytes()
}

#[test]
fn instant_gc_matches_the_per_page_reference() {
    let mut gen = DetRng::seed_from_u64(0x6C_2EF);
    let odd = Geometry {
        channels: 3,
        ways: 5,
        dies: 2,
        planes: 2,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_bytes: 4096,
    };
    let geometries = [Geometry::tiny(), odd];
    let policies = [AllocPolicy::Pcwd, AllocPolicy::Pwcd, AllocPolicy::Cwdp];
    let mut collected = 0;
    for case in 0..CASES {
        let g = geometries[case % geometries.len()];
        let policy = policies[case % policies.len()];
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = g;
        cfg.alloc_policy = policy;
        cfg.op_ratio = [0.07, 0.125, 0.25][gen.gen_range(0..3usize)];
        // The tiny device's 64 blocks hold a GC reserve of 3 below its
        // trigger watermark, not the default 9.
        cfg.gc.victims_per_trigger = if g == odd { 8 } else { 2 };
        if (case / 6) % 2 == 1 {
            // Hot/cold placement keeps a relocation generation per page,
            // which every relocation raises.
            cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        }
        if gen.gen_bool(0.15) {
            // A plan's victim axis is the timed collector's; instant GC
            // stays greedy under it.
            let plan = cfg.gc.plan.as_mut().expect("GC on");
            plan.victim = [VictimSpec::Random, VictimSpec::CostBenefit][gen.gen_range(0..2usize)];
        }
        let dead_chip = gen.gen_bool(0.2);
        if dead_chip || gen.gen_bool(0.2) {
            // Parity groups tile the channels: stripe 2 on the tiny device's
            // two, stripe 3 on the odd device's three.
            cfg.redundancy = RedundancyConfig::with_stripe(g.channels);
        }
        if gen.gen_bool(0.2) {
            // Few enough cycles that aging retires blocks.
            cfg.endurance_limit = Some(gen.gen_range(3..8u64) as u32);
        }
        let mut ftl = Ftl::new(cfg).unwrap();
        let mut rng = DetRng::seed_from_u64(gen.next_u64());
        if gen.gen_bool(0.3) {
            ftl.mark_manufacture_bad(0.05, &mut rng);
        }
        if gen.gen_bool(0.2) {
            let bits = gen.gen_range(1..(1u64 << g.ways) - 1);
            ftl.set_write_mask(WayMask::from_bits(bits, g.ways).unwrap());
        }
        let fill = [0.3, 0.7, 0.85, 1.0][gen.gen_range(0..4usize)];
        let overwrite = [0.0, 0.3, 1.0, 2.0][gen.gen_range(0..4usize)];
        let label = format!(
            "case {case}: {policy} {g:?} {:?} endurance {:?} redundancy {} dead chip {dead_chip} \
             fill {fill} overwrite {overwrite}",
            cfg.gc.plan, cfg.endurance_limit, cfg.redundancy.enabled
        );

        let mut model = ftl.clone();
        let mut model_rng = rng.clone();
        let check = |ftl: &Ftl, model: &Ftl, rng: &mut DetRng, model_rng: &mut DetRng, at| {
            assert!(
                saved(ftl) == saved(model),
                "{label} {at}: checkpoints differ"
            );
            assert_eq!(rng.next_u64(), model_rng.next_u64(), "{label} {at}");
            let problems = ftl.check_invariants();
            assert!(problems.is_empty(), "{label} {at}: {problems:?}");
        };

        // Age, fail a chip, then age again over the failure.
        let mut rounds = vec![(fill, overwrite)];
        if dead_chip {
            rounds.push((fill, gen.gen_range(0..=4u64) as f64 * 0.25));
        }
        let mut aged = true;
        for (round, &(fill, overwrite)) in rounds.iter().enumerate() {
            if round == 1 {
                let c = gen.gen_range(0..g.channels as u64) as u32;
                let w = gen.gen_range(0..g.ways as u64) as u32;
                assert_eq!(ftl.fail_chip(c, w), model.fail_chip(c, w), "{label}");
            }
            let got = ftl.precondition(fill, overwrite, &mut rng);
            let want = reference_precondition(&mut model, fill, overwrite, &mut model_rng);
            assert_eq!(got, want, "{label} round {round}");
            check(&ftl, &model, &mut rng, &mut model_rng, "after aging");
            if got.is_err() {
                aged = false;
                break;
            }
        }
        if !aged {
            continue;
        }

        // Collect on its own from the trigger watermark, with the hooks.
        let max_lpn = (ftl.logical_pages() as f64 * fill) as u64;
        let pushed = ftl.pressurize(max_lpn.max(1), &mut rng);
        assert_eq!(
            pushed,
            model.pressurize(max_lpn.max(1), &mut model_rng),
            "{label}"
        );
        if pushed.is_err() {
            continue;
        }
        let mut hooks = Vec::new();
        let got = {
            let hooks = std::cell::RefCell::new(&mut hooks);
            ftl.instant_gc_with(
                &mut rng,
                &mut |rel| hooks.borrow_mut().push(Hook::Relocate(rel)),
                &mut |pbn| hooks.borrow_mut().push(Hook::Erase(pbn)),
            )
        };
        let mut model_hooks = Vec::new();
        let want = reference_gc(&mut model, &mut model_hooks);
        assert_eq!(got, want, "{label}: instant_gc");
        assert_eq!(hooks, model_hooks, "{label}: hooks");
        assert_eq!(ftl.stats(), model.stats(), "{label}: counters");
        check(&ftl, &model, &mut rng, &mut model_rng, "after instant_gc");
        collected += hooks.len();
    }
    assert!(collected > 10 * CASES, "only {collected} hooks fired");
}
