//! Reference-model test for the FTL's compact tables.
//!
//! `MappingTable` stores 32-bit entries with a `u32::MAX` sentinel and
//! `BlockTable` keeps one device-wide valid bitmap. Seeded random maps,
//! unmaps, invalidations, erases (with and without wear-out), retirements
//! and checkpoint round trips drive both tables beside a naive model built
//! from `u64` page numbers and a `Vec<bool>` per page. After every operation
//! every lookup, reverse lookup, valid bit and block record must agree, and
//! both tables' own invariant checks must pass.

use nssd_flash::{Geometry, Pbn, Ppn};
use nssd_ftl::{BlockState, BlockTable, Lpn, MappingTable};
use nssd_sim::{put_u32_slice, CkptReader, CkptWriter, DetRng, Rng};

/// Random operation sequences; deep under `heavy-tests`.
const CASES: usize = if cfg!(feature = "heavy-tests") {
    512
} else {
    24
};
const OPS: usize = 600;
/// Erase count at which a block wears out, low enough to retire blocks.
const ENDURANCE: u32 = 6;
const NONE: u64 = u64::MAX;

/// The naive model: `u64` maps with a `u64::MAX` sentinel, one `bool` per
/// page, and a plain record per block.
struct Model {
    l2p: Vec<u64>,
    p2l: Vec<u64>,
    valid: Vec<bool>,
    write_ptr: Vec<u32>,
    erases: Vec<u32>,
    state: Vec<BlockState>,
}

/// The tables under test, the model, and the block user writes fill.
struct Harness {
    g: Geometry,
    map: MappingTable,
    blocks: BlockTable,
    model: Model,
    open: Option<Pbn>,
}

impl Harness {
    fn new(g: Geometry, logical: u64) -> Self {
        let pages = g.page_count();
        Harness {
            g,
            map: MappingTable::new(logical, pages),
            blocks: BlockTable::new(&g),
            model: Model {
                l2p: vec![NONE; logical as usize],
                p2l: vec![NONE; pages as usize],
                valid: vec![false; pages as usize],
                write_ptr: vec![0; g.block_count() as usize],
                erases: vec![0; g.block_count() as usize],
                state: vec![BlockState::Free; g.block_count() as usize],
            },
            open: None,
        }
    }

    /// Programs the next page of the open block, taking a free block from a
    /// random plane when needed; `None` when no plane has one.
    fn program(&mut self, rng: &mut DetRng) -> Option<Ppn> {
        if self.open.is_none() {
            let planes: Vec<usize> = (0..self.g.plane_count() as usize)
                .filter(|&u| self.blocks.free_blocks_in_plane(u) > 0)
                .collect();
            if planes.is_empty() {
                return None;
            }
            let pbn = self
                .blocks
                .take_free_block(planes[rng.gen_range(0..planes.len())])
                .expect("plane has a free block");
            assert_eq!(self.model.state[pbn.raw() as usize], BlockState::Free);
            self.model.state[pbn.raw() as usize] = BlockState::Open;
            self.open = Some(pbn);
        }
        let pbn = self.open.expect("an open block");
        let b = pbn.raw() as usize;
        let ppn = self
            .blocks
            .program_next_page(pbn)
            .expect("open block has room");
        assert_eq!(ppn, self.g.ppn_in_block(pbn, self.model.write_ptr[b]));
        self.model.valid[ppn.raw() as usize] = true;
        self.model.write_ptr[b] += 1;
        if self.model.write_ptr[b] == self.g.pages_per_block {
            self.model.state[b] = BlockState::Full;
            self.open = None;
        }
        Some(ppn)
    }

    /// Writes `lpn` to a fresh page: map, then invalidate the old page.
    fn write(&mut self, lpn: u64, rng: &mut DetRng) -> bool {
        let Some(ppn) = self.program(rng) else {
            return false;
        };
        let old = self.map.map(Lpn::new(lpn), ppn);
        let expect = self.model.l2p[lpn as usize];
        assert_eq!(old.map_or(NONE, Ppn::raw), expect, "map of lpn{lpn}");
        if let Some(old) = old {
            self.blocks.invalidate(old);
            self.model.valid[old.raw() as usize] = false;
            self.model.p2l[old.raw() as usize] = NONE;
        }
        self.model.l2p[lpn as usize] = ppn.raw();
        self.model.p2l[ppn.raw() as usize] = lpn;
        true
    }

    fn trim(&mut self, lpn: u64) {
        let old = self.map.unmap(Lpn::new(lpn));
        let expect = self.model.l2p[lpn as usize];
        assert_eq!(old.map_or(NONE, Ppn::raw), expect, "unmap of lpn{lpn}");
        if let Some(old) = old {
            self.blocks.invalidate(old);
            self.model.valid[old.raw() as usize] = false;
            self.model.p2l[old.raw() as usize] = NONE;
            self.model.l2p[lpn as usize] = NONE;
        }
    }

    /// Live pages of `pbn` by the model: `(lpn, ppn)`.
    fn live(&self, pbn: Pbn) -> Vec<(u64, u64)> {
        self.g
            .block_ppns(pbn)
            .filter(|p| self.model.valid[p.raw() as usize])
            .map(|p| (self.model.p2l[p.raw() as usize], p.raw()))
            .collect()
    }

    /// Collects a random Full block: relocates its live pages, then erases
    /// it, retiring it at the endurance limit when `wear` is set.
    fn collect(&mut self, rng: &mut DetRng, wear: bool) {
        let full: Vec<usize> = (0..self.model.state.len())
            .filter(|&b| self.model.state[b] == BlockState::Full)
            .collect();
        if full.is_empty() {
            return;
        }
        let pbn = Pbn::new(full[rng.gen_range(0..full.len())] as u64);
        for (lpn, _) in self.live(pbn) {
            if !self.write(lpn, rng) {
                return;
            }
        }
        let b = pbn.raw() as usize;
        let limit = wear.then_some(ENDURANCE);
        let survived = self.blocks.erase_with_endurance(pbn, limit);
        self.model.erases[b] += 1;
        let worn = limit.is_some_and(|l| self.model.erases[b] >= l);
        assert_eq!(survived, !worn, "erase of {pbn}");
        self.model.state[b] = if worn {
            BlockState::Bad
        } else {
            BlockState::Free
        };
        self.model.write_ptr[b] = 0;
    }

    /// Retires a random block outright, as a chip failure does: its live
    /// LPNs are unmapped (the map only — `force_retire` must clear the valid
    /// bits itself). Retiring a Bad block again changes nothing.
    fn retire(&mut self, rng: &mut DetRng) {
        let bad = self.blocks.retired_blocks();
        if bad >= self.g.block_count() / 4 {
            return;
        }
        let b = rng.gen_range(0..self.g.block_count()) as usize;
        let pbn = Pbn::new(b as u64);
        if self.model.state[b] == BlockState::Bad {
            self.blocks.force_retire(pbn);
            assert_eq!(self.blocks.retired_blocks(), bad, "retiring a Bad block");
            return;
        }
        for (lpn, ppn) in self.live(pbn) {
            assert_eq!(self.map.unmap(Lpn::new(lpn)), Some(Ppn::new(ppn)));
            self.model.l2p[lpn as usize] = NONE;
            self.model.p2l[ppn as usize] = NONE;
            self.model.valid[ppn as usize] = false;
        }
        self.blocks.force_retire(pbn);
        self.model.state[b] = BlockState::Bad;
        if self.open == Some(pbn) {
            self.open = None;
        }
    }

    /// Saves both tables, restores them into fresh ones, checks the restored
    /// tables re-save to the same bytes, and carries on with them.
    fn round_trip(&mut self) {
        let mut w = CkptWriter::new();
        self.map.ckpt_save(&mut w);
        let map_bytes = w.len();
        self.blocks.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        // The model's two maps as 32-bit entries in the slice codec, plus
        // the mapped count.
        let narrow = |t: &[u64]| -> Vec<u32> {
            t.iter()
                .map(|&v| if v == NONE { u32::MAX } else { v as u32 })
                .collect()
        };
        let mut model = CkptWriter::new();
        put_u32_slice(&mut model, &narrow(&self.model.l2p));
        put_u32_slice(&mut model, &narrow(&self.model.p2l));
        model.put_u64(self.model.l2p.iter().filter(|&&p| p != NONE).count() as u64);
        assert_eq!(bytes[..map_bytes], model.into_bytes()[..], "map bytes");
        let mut map = MappingTable::new(self.map.logical_pages(), self.map.physical_pages());
        let mut blocks = BlockTable::new(&self.g);
        let mut r = CkptReader::new(&bytes);
        map.ckpt_load(&mut r).expect("map restores");
        blocks.ckpt_load(&mut r).expect("blocks restore");
        r.finish().expect("no trailing bytes");
        let mut again = CkptWriter::new();
        map.ckpt_save(&mut again);
        blocks.ckpt_save(&mut again);
        assert_eq!(again.into_bytes(), bytes, "save∘load ≠ identity");
        self.map = map;
        self.blocks = blocks;
    }

    /// Every observable of both tables against the model.
    fn compare(&self) {
        for (l, &p) in self.model.l2p.iter().enumerate() {
            let got = self.map.lookup(Lpn::new(l as u64));
            assert_eq!(got.map_or(NONE, Ppn::raw), p, "lookup of lpn{l}");
        }
        for (p, &l) in self.model.p2l.iter().enumerate() {
            let got = self.map.reverse(Ppn::new(p as u64));
            assert_eq!(got.map_or(NONE, Lpn::raw), l, "reverse of ppn{p}");
            assert_eq!(
                self.blocks.is_valid(Ppn::new(p as u64)),
                self.model.valid[p],
                "valid bit of ppn{p}"
            );
        }
        let mapped = self.model.l2p.iter().filter(|&&p| p != NONE).count() as u64;
        assert_eq!(self.map.mapped_pages(), mapped);
        assert_eq!(self.blocks.total_valid_pages(), mapped);
        for (pbn, meta) in self.blocks.iter() {
            let b = pbn.raw() as usize;
            let live = self.live(pbn).len() as u32;
            assert_eq!(meta.valid_count(), live, "valid count of {pbn}");
            assert_eq!(meta.write_ptr(), self.model.write_ptr[b], "{pbn}");
            assert_eq!(meta.erase_count(), self.model.erases[b], "{pbn}");
            assert_eq!(meta.state(), self.model.state[b], "{pbn}");
            let listed: Vec<u64> = self
                .blocks
                .valid_pages(pbn)
                .iter()
                .map(|p| p.raw())
                .collect();
            let expect: Vec<u64> = self.live(pbn).iter().map(|&(_, p)| p).collect();
            assert_eq!(listed, expect, "valid pages of {pbn}");
        }
        assert!(self.map.check_consistency(), "mapping tables disagree");
        let problems = self.blocks.check_invariants();
        assert!(problems.is_empty(), "block table: {problems:?}");
    }
}

#[test]
fn compact_tables_match_a_naive_model() {
    let g = Geometry::tiny();
    let logical = g.page_count() / 2;
    let mut gen = DetRng::seed_from_u64(0xC0_3B_17);
    let (mut erases, mut retired, mut round_trips) = (0, 0, 0);
    for _ in 0..CASES {
        let mut rng = DetRng::seed_from_u64(gen.next_u64());
        let mut h = Harness::new(g, logical);
        for _ in 0..OPS {
            match rng.gen_range(0..100u64) {
                0..=54 => {
                    let lpn = rng.gen_range(0..logical);
                    h.write(lpn, &mut rng);
                }
                55..=69 => h.trim(rng.gen_range(0..logical)),
                70..=84 => h.collect(&mut rng, false),
                85..=91 => h.collect(&mut rng, true),
                92..=94 => h.retire(&mut rng),
                _ => {
                    h.round_trip();
                    round_trips += 1;
                }
            }
            h.compare();
        }
        erases += h.model.erases.iter().map(|&e| e as u64).sum::<u64>();
        retired += h.blocks.retired_blocks();
    }
    // The sequences reach every path: erases, retirements, round trips.
    assert!(erases > 0 && retired > 0 && round_trips > 0);
}

#[test]
#[should_panic(expected = "32-bit page maps")]
fn a_table_past_the_32_bit_limit_is_refused() {
    // Refused before allocating: a page number of u32::MAX would read as
    // the empty-entry sentinel.
    MappingTable::new(1, u32::MAX as u64);
}
