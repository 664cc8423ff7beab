//! Garbage-collection victim selection.
//!
//! The paper's baseline uses greedy selection — the full block with the
//! fewest valid pages (§VII-A). Uniform-random and cost-benefit selection
//! are ablation points, and wear-aware scoring folds erase counts into the
//! greedy cost. [`select_victims`] runs any [`VictimSpec`].

use nssd_flash::Pbn;
use nssd_sim::Rng;

use crate::{BlockState, BlockTable, VictimSpec, WayMask};

/// Copy cost of one live page in victim-score units; the wear term of
/// [`VictimSpec::WearAware`] is weighed against this.
pub const VALID_PAGE_WEIGHT: u64 = 8;

/// The old name of [`VictimSpec`], kept only because `benchmark/` still
/// imports it; the next change to the benchmark deletes it.
#[doc(hidden)]
pub type VictimPolicy = VictimSpec;

/// Whether a block may be reclaimed: it must be fully written (never steal
/// an open block from the allocator) and have at least one invalid page.
pub(crate) fn eligible(blocks: &BlockTable, pbn: Pbn, mask: WayMask) -> bool {
    let g = blocks.geometry();
    let meta = blocks.meta(pbn);
    meta.state() == BlockState::Full
        && meta.valid_count() < g.pages_per_block
        && mask.contains(g.block_addr(pbn).way)
}

/// Selects up to `n` victim blocks within `mask`'s ways by `victim`.
///
/// Greedy selection orders by `(valid_count, pbn)` so results are
/// deterministic, and reads the block table's victim index, so it costs
/// the blocks it visits rather than the device. The other specs scan the
/// eligible blocks. For a given block-table state and RNG state the result
/// is fixed; only [`VictimSpec::Random`] draws from `rng`.
///
/// # Examples
///
/// ```
/// use nssd_flash::Geometry;
/// use nssd_ftl::{select_victims, BlockTable, VictimSpec, WayMask};
/// use nssd_sim::DetRng;
///
/// let g = Geometry::tiny();
/// let blocks = BlockTable::new(&g);
/// let mut rng = DetRng::seed_from_u64(7);
/// // A fresh device has no full blocks, hence no victims.
/// let v = select_victims(&blocks, 4, WayMask::all(g.ways), VictimSpec::Greedy, &mut rng);
/// assert!(v.is_empty());
/// ```
pub fn select_victims<R: Rng>(
    blocks: &BlockTable,
    n: usize,
    mask: WayMask,
    victim: VictimSpec,
    rng: &mut R,
) -> Vec<Pbn> {
    if n == 0 {
        return Vec::new();
    }
    if victim == VictimSpec::Greedy {
        // The index holds exactly the Full blocks with an invalid page, in
        // `(valid_count, pbn)` order: the first `n` inside the mask are the
        // greedy victims.
        let g = blocks.geometry();
        let mut out = Vec::with_capacity(n);
        blocks.walk_victims(|pbn| {
            if mask.contains(g.block_addr(pbn).way) {
                out.push(pbn);
            }
            out.len() < n
        });
        return out;
    }
    let mut candidates: Vec<Pbn> = blocks
        .iter()
        .filter(|(pbn, _)| eligible(blocks, *pbn, mask))
        .map(|(pbn, _)| pbn)
        .collect();
    match victim {
        VictimSpec::Greedy => unreachable!("handled above"),
        VictimSpec::Random => {
            let mut out = Vec::with_capacity(n.min(candidates.len()));
            for _ in 0..n.min(candidates.len()) {
                let i = rng.gen_range(0..candidates.len());
                out.push(candidates.swap_remove(i));
            }
            out
        }
        VictimSpec::CostBenefit => {
            let g = blocks.geometry();
            let now = blocks.op_clock();
            let score = |pbn: Pbn| -> f64 {
                let meta = blocks.meta(pbn);
                let u = meta.valid_count() as f64 / g.pages_per_block as f64;
                let age = now.saturating_sub(meta.last_program()) as f64 + 1.0;
                if u <= f64::EPSILON {
                    f64::INFINITY
                } else {
                    (1.0 - u) / (2.0 * u) * age
                }
            };
            candidates.sort_by(|&a, &b| {
                score(b)
                    .partial_cmp(&score(a))
                    .expect("scores are never NaN")
                    .then(a.cmp(&b))
            });
            candidates.truncate(n);
            candidates
        }
        VictimSpec::WearAware { wear_weight } => {
            candidates.sort_by_key(|&pbn| (wear_score(blocks, pbn, wear_weight), pbn));
            candidates.truncate(n);
            candidates
        }
    }
}

/// The wear-aware score of one candidate block (lower reclaims first):
/// greedy copy cost plus a wear term, so selection steers away from
/// already-worn blocks and levels P/E cycles. With `wear_weight = 0` it
/// orders exactly as greedy.
fn wear_score(blocks: &BlockTable, pbn: Pbn, wear_weight: u32) -> u64 {
    let meta = blocks.meta(pbn);
    meta.valid_count() as u64 * VALID_PAGE_WEIGHT + meta.erase_count() as u64 * wear_weight as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocPolicy, PageAllocator};
    use nssd_flash::Geometry;
    use nssd_sim::{CkptReader, CkptWriter, DetRng};

    /// Greedy selection as a scan of the whole block table, the reference
    /// for the index: the `n` smallest `(valid_count, pbn)` keys among
    /// the eligible blocks.
    fn scan_greedy(blocks: &BlockTable, n: usize, mask: WayMask) -> Vec<Pbn> {
        let mut keys: Vec<(u32, Pbn)> = blocks
            .iter()
            .filter(|(pbn, _)| eligible(blocks, *pbn, mask))
            .map(|(pbn, meta)| (meta.valid_count(), pbn))
            .collect();
        keys.sort_unstable();
        keys.into_iter().take(n).map(|(_, pbn)| pbn).collect()
    }

    /// A random nonempty subset of `ways` ways.
    fn random_mask(rng: &mut DetRng, ways: u32) -> WayMask {
        WayMask::from_bits(rng.gen_range(1..1u64 << ways), ways).unwrap()
    }

    /// A random block in `state`, if any.
    fn pick(rng: &mut DetRng, blocks: &BlockTable, state: BlockState) -> Option<Pbn> {
        let n = blocks.geometry().block_count();
        let start = rng.gen_range(0..n);
        (0..n)
            .map(|i| Pbn::new((start + i) % n))
            .find(|&pbn| blocks.meta(pbn).state() == state)
    }

    /// The index-backed greedy selection returns what the scan returns,
    /// for random `n` and masks, on block tables driven through random
    /// programs, invalidations, erases (some at an endurance limit),
    /// retirements and checkpoint round trips; and the index recount in
    /// `check_invariants` stays clean throughout.
    #[test]
    fn index_greedy_matches_the_reference_scan() {
        let mut rng = DetRng::seed_from_u64(0x61DE);
        let odd = Geometry {
            channels: 3,
            ways: 5,
            dies: 2,
            planes: 2,
            blocks_per_plane: 4,
            pages_per_block: 4,
            page_bytes: 4096,
        };
        let geometries = [Geometry::tiny(), odd];
        let mut selected = 0;
        for case in 0..crate::CASES {
            let g = geometries[case % geometries.len()];
            let mut blocks = BlockTable::new(&g);
            let mut alloc = PageAllocator::new(&g, AllocPolicy::Pcwd);
            let steps = rng.gen_range(1..2 * g.page_count() as usize);
            for step in 0..steps {
                match rng.gen_range(0..16u64) {
                    0..=6 => {
                        let mask = random_mask(&mut rng, g.ways);
                        let _ = alloc.allocate(&mut blocks, mask);
                    }
                    7..=11 => {
                        let live: Vec<Pbn> = blocks
                            .iter()
                            .filter(|(_, m)| m.valid_count() > 0)
                            .map(|(pbn, _)| pbn)
                            .collect();
                        if !live.is_empty() {
                            let pages = blocks.valid_pages(live[rng.gen_range(0..live.len())]);
                            blocks.invalidate(pages[rng.gen_range(0..pages.len())]);
                        }
                    }
                    12 => {
                        if let Some(pbn) = pick(&mut rng, &blocks, BlockState::Full) {
                            for ppn in blocks.valid_pages(pbn) {
                                blocks.invalidate(ppn);
                            }
                            let limit = rng.gen_bool(0.3).then_some(2);
                            blocks.erase_with_endurance(pbn, limit);
                        }
                    }
                    13 => {
                        let state = [BlockState::Free, BlockState::Open, BlockState::Full]
                            [rng.gen_range(0..3usize)];
                        if let Some(pbn) = pick(&mut rng, &blocks, state) {
                            alloc.close_open_blocks(|b| b == pbn);
                            blocks.force_retire(pbn);
                        }
                    }
                    14 => {
                        if let Some(pbn) = pick(&mut rng, &blocks, BlockState::Free) {
                            blocks.mark_bad(pbn);
                        }
                    }
                    _ => {
                        let mut w = CkptWriter::new();
                        blocks.ckpt_save(&mut w);
                        let bytes = w.into_bytes();
                        blocks = BlockTable::new(&g);
                        let mut r = CkptReader::new(&bytes);
                        blocks.ckpt_load(&mut r).unwrap();
                        r.finish().unwrap();
                    }
                }
                let n = rng.gen_range(0..2 * g.plane_count() as usize);
                let mask = if rng.gen_bool(0.5) {
                    WayMask::all(g.ways)
                } else {
                    random_mask(&mut rng, g.ways)
                };
                let got = select_victims(&blocks, n, mask, VictimSpec::Greedy, &mut rng);
                selected += got.len();
                assert_eq!(
                    got,
                    scan_greedy(&blocks, n, mask),
                    "case {case} step {step}: n {n} {mask}"
                );
                let problems = blocks.check_invariants();
                assert!(problems.is_empty(), "case {case} step {step}: {problems:?}");
            }
        }
        assert!(selected > 10 * crate::CASES, "{selected} victims selected");
    }

    /// Fills some blocks and invalidates varying page counts.
    fn build_fragmented() -> (Geometry, BlockTable) {
        let g = Geometry::tiny();
        let mut blocks = BlockTable::new(&g);
        let mut alloc = PageAllocator::new(&g, AllocPolicy::Cwdp);
        let mask = WayMask::all(g.ways);
        let mut written = Vec::new();
        // Fill half the device.
        for _ in 0..g.page_count() / 2 {
            written.push(alloc.allocate(&mut blocks, mask).unwrap());
        }
        // Invalidate every third page.
        for (i, &ppn) in written.iter().enumerate() {
            if i % 3 == 0 {
                blocks.invalidate(ppn);
            }
        }
        (g, blocks)
    }

    #[test]
    fn greedy_picks_lowest_valid_counts() {
        let (g, blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut rng = DetRng::seed_from_u64(1);
        let victims = select_victims(&blocks, 3, all, VictimSpec::Greedy, &mut rng);
        assert!(!victims.is_empty());
        let worst_chosen = victims
            .iter()
            .map(|&v| blocks.meta(v).valid_count())
            .max()
            .unwrap();
        // Every non-chosen eligible block must have >= the max chosen count.
        for (pbn, meta) in blocks.iter() {
            if meta.state() == BlockState::Full
                && meta.valid_count() < g.pages_per_block
                && !victims.contains(&pbn)
            {
                assert!(meta.valid_count() >= worst_chosen);
            }
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let (g, blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut r1 = DetRng::seed_from_u64(1);
        let mut r2 = DetRng::seed_from_u64(999);
        let a = select_victims(&blocks, 4, all, VictimSpec::Greedy, &mut r1);
        let b = select_victims(&blocks, 4, all, VictimSpec::Greedy, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn mask_restricts_victims_to_group() {
        let (g, blocks) = build_fragmented();
        let mut rng = DetRng::seed_from_u64(1);
        let mask = WayMask::from_ways([1u32]);
        let victims = select_victims(&blocks, 10, mask, VictimSpec::Greedy, &mut rng);
        for v in victims {
            assert_eq!(g.block_addr(v).way, 1);
        }
    }

    #[test]
    fn random_policy_is_seed_deterministic() {
        let (g, blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut r1 = DetRng::seed_from_u64(5);
        let mut r2 = DetRng::seed_from_u64(5);
        let a = select_victims(&blocks, 3, all, VictimSpec::Random, &mut r1);
        let b = select_victims(&blocks, 3, all, VictimSpec::Random, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_benefit_prefers_cold_sparse_blocks() {
        let (g, mut blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut rng = DetRng::seed_from_u64(4);
        // Age a fresh block by writing after the fragmented fill: newly
        // programmed blocks are "hot" and should rank below old sparse ones.
        let mut alloc = PageAllocator::new(&g, AllocPolicy::Cwdp);
        for _ in 0..g.pages_per_block {
            alloc.allocate(&mut blocks, WayMask::all(g.ways)).unwrap();
        }
        let cb = select_victims(&blocks, 3, all, VictimSpec::CostBenefit, &mut rng);
        assert!(!cb.is_empty());
        let now = blocks.op_clock();
        for v in &cb {
            // Every selected block is strictly older than the hottest one.
            assert!(now - blocks.meta(*v).last_program() > 0);
        }
        // Deterministic for a fixed state.
        let cb2 = select_victims(&blocks, 3, all, VictimSpec::CostBenefit, &mut rng);
        assert_eq!(cb, cb2);
    }

    #[test]
    fn never_selects_open_or_fully_valid_blocks() {
        let (g, blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut rng = DetRng::seed_from_u64(2);
        let victims = select_victims(&blocks, 64, all, VictimSpec::Greedy, &mut rng);
        for v in &victims {
            let meta = blocks.meta(*v);
            assert_eq!(meta.state(), BlockState::Full);
            assert!(meta.valid_count() < g.pages_per_block);
        }
    }

    #[test]
    fn wear_aware_orders_by_valid_count_then_wear() {
        let (g, mut blocks) = build_fragmented();
        let all = WayMask::all(g.ways);
        let mut rng = DetRng::seed_from_u64(3);
        // With zero wear everywhere, wear-aware degenerates to greedy.
        let wa = VictimSpec::WearAware { wear_weight: 2 };
        let greedy = select_victims(&blocks, 4, all, VictimSpec::Greedy, &mut rng);
        assert_eq!(select_victims(&blocks, 4, all, wa, &mut rng), greedy);
        // Now age the greedy favourite far past everyone else: cycle it
        // through erase/refill until its wear term outweighs any
        // valid-count advantage, so the wear term must demote it.
        let favourite = greedy[0];
        let unit = (favourite.raw() / g.blocks_per_plane as u64) as usize;
        let cycles = g.pages_per_block as u64 * VALID_PAGE_WEIGHT / 2 + 1;
        for _ in 0..cycles {
            for p in blocks.valid_pages(favourite) {
                blocks.invalidate(p);
            }
            blocks.erase(favourite);
            let taken = blocks.take_free_block(unit).unwrap();
            assert_eq!(taken, favourite, "free list is LIFO over the erase");
            while blocks.program_next_page(favourite).is_some() {}
        }
        // Leave it some garbage so it stays eligible.
        let one = blocks.valid_pages(favourite)[0];
        blocks.invalidate(one);
        let again = select_victims(&blocks, 4, all, wa, &mut rng);
        assert!(
            !again.contains(&favourite),
            "worn block {favourite} must rank below fresher candidates"
        );
        // And the scoring itself is monotone in wear.
        assert!(wear_score(&blocks, favourite, 5) > wear_score(&blocks, again[0], 5));
    }
}
