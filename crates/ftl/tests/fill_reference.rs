//! Reference-model test for `Ftl::precondition`'s fill.
//!
//! `precondition` maps its fill range in stripe runs through the open
//! frontiers and only sends the pages that open a block, or that land at
//! the GC watermark, through the per-page path. The reference fills the
//! same range one page at a time with public calls in the order the
//! per-page fill used: collect at the watermark, write, and on
//! `OutOfSpace` collect once more and retry. Seeded cases over every
//! allocation policy, odd geometries, fills from nothing to the whole
//! device, overwrites, factory-bad blocks, parity, a narrowed write mask
//! and a second precondition over a filled device must give equal results,
//! equal checkpoint bytes and equal random-number streams.

use nssd_flash::Geometry;
use nssd_ftl::{AllocPolicy, Ftl, FtlConfig, FtlError, GcPlanSpec, Lpn, RedundancyConfig, WayMask};
use nssd_sim::{CkptWriter, DetRng, Rng};

/// Seeded cases; deep under `heavy-tests`.
const CASES: usize = if cfg!(feature = "heavy-tests") {
    1536
} else {
    96
};

/// One page written with collection around it, as the per-page fill did.
fn write_collecting(ftl: &mut Ftl, lpn: Lpn, rng: &mut DetRng) -> Result<(), FtlError> {
    if ftl.needs_gc() {
        ftl.instant_gc(rng)?;
    }
    match ftl.write(lpn) {
        Ok(_) => Ok(()),
        Err(FtlError::OutOfSpace) => {
            ftl.instant_gc(rng)?;
            ftl.write(lpn).map(|_| ())
        }
        Err(e) => Err(e),
    }
}

/// `Ftl::precondition` one page at a time, from public calls only.
fn reference_precondition(
    ftl: &mut Ftl,
    fill: f64,
    overwrite: f64,
    rng: &mut DetRng,
) -> Result<(), FtlError> {
    let filled = (ftl.logical_pages() as f64 * fill) as u64;
    for l in 0..filled {
        write_collecting(ftl, Lpn::new(l), rng)?;
    }
    let overwrites = (ftl.logical_pages() as f64 * overwrite) as u64;
    for _ in 0..overwrites {
        let l = rng.gen_range(0..filled.max(1));
        write_collecting(ftl, Lpn::new(l), rng)?;
    }
    // A precondition of nothing writes nothing and draws nothing: it only
    // clears the counters, the per-page fill's last step.
    ftl.precondition(0.0, 0.0, rng)
}

fn saved(ftl: &Ftl) -> Vec<u8> {
    let mut w = CkptWriter::new();
    ftl.ckpt_save(&mut w);
    w.into_bytes()
}

/// The fill fraction that writes exactly `pages` pages.
fn pages(ftl: &Ftl, pages: u64) -> f64 {
    (pages as f64 + 0.5) / ftl.logical_pages() as f64
}

#[test]
fn stripe_fill_matches_the_per_page_reference() {
    let mut gen = DetRng::seed_from_u64(0xF111);
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
        if (case / 18) % 2 == 1 {
            // Hot/cold placement keeps a relocation generation per page,
            // which a host write resets: every geometry, policy and first
            // fill runs both with and without it.
            cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        }
        if gen.gen_bool(0.25) {
            // Parity groups tile the channels: stripe 2 on the tiny device's
            // two, stripe 3 on the odd device's three.
            cfg.redundancy = RedundancyConfig::with_stripe(g.channels);
        }
        let mut ftl = Ftl::new(cfg).unwrap();
        let mut rng = DetRng::seed_from_u64(gen.next_u64());
        if gen.gen_bool(0.3) {
            ftl.mark_manufacture_bad(0.05, &mut rng);
        }
        if gen.gen_bool(0.25) {
            let bits = gen.gen_range(1..(1u64 << g.ways) - 1);
            ftl.set_write_mask(WayMask::from_bits(bits, g.ways).unwrap());
        }
        let units = (g.channels * g.ways * g.dies * g.planes) as u64;
        let fill = |ftl: &Ftl, pick: usize| match pick {
            0 => 0.0,
            1 => pages(ftl, 1),
            2 => pages(ftl, units / 2 + 1),
            3 => 0.5,
            4 => 0.85,
            _ => 1.0,
        };
        let first = fill(&ftl, (case / policies.len()) % 6);
        let second = fill(&ftl, gen.gen_range(0..6usize));
        let overwrite = [0.0, 0.05, 0.3][gen.gen_range(0..3usize)];
        let twice = gen.gen_bool(0.5);

        let mut model = ftl.clone();
        let mut model_rng = rng.clone();
        let label = format!(
            "case {case}: {policy} {g:?} fill {first} then {second:?} overwrite {overwrite}",
            second = twice.then_some(second)
        );
        let mut rounds = vec![(first, overwrite)];
        if twice {
            rounds.push((second, 0.0));
        }
        for (fill, overwrite) in rounds {
            let got = ftl.precondition(fill, overwrite, &mut rng);
            let want = reference_precondition(&mut model, fill, overwrite, &mut model_rng);
            assert_eq!(got, want, "{label}");
            assert!(saved(&ftl) == saved(&model), "{label}: checkpoints differ");
            assert_eq!(rng.next_u64(), model_rng.next_u64(), "{label}");
            if got.is_err() {
                break;
            }
            let problems = ftl.check_invariants();
            assert!(problems.is_empty(), "{label}: {problems:?}");
        }
    }
}
