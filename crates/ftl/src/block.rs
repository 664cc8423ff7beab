//! Physical block metadata: valid bitmaps, write pointers, wear state.

use core::ops::Range;

use nssd_flash::{Geometry, Pbn, Ppn};
use nssd_sim::{ckpt, CkptError, CkptReader, CkptWriter};

/// Lifecycle state of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockState {
    /// Erased; no pages written.
    Free,
    /// Partially programmed (the write pointer is mid-block).
    Open,
    /// Every page programmed.
    Full,
    /// Retired: wore out (endurance limit) or was marked bad; never
    /// allocated again.
    Bad,
}

/// Metadata for one physical block. Its valid-page bits live in the
/// [`BlockTable`]'s device-wide bitmap, so the record holds no heap data.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    valid_count: u32,
    write_ptr: u32,
    erase_count: u32,
    state: BlockState,
    /// Logical timestamp (device-wide program counter) of the last program
    /// into this block; the age input to cost-benefit victim selection.
    last_program: u64,
}

impl BlockMeta {
    const FRESH: BlockMeta = BlockMeta {
        valid_count: 0,
        write_ptr: 0,
        erase_count: 0,
        state: BlockState::Free,
        last_program: 0,
    };

    /// Number of valid (live) pages.
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Next unwritten page index.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Program/erase cycle count.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Lifecycle state.
    pub fn state(&self) -> BlockState {
        self.state
    }

    /// Device-wide program-counter value of the last program into this
    /// block (0 if never programmed since the last erase).
    pub fn last_program(&self) -> u64 {
        self.last_program
    }

    fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u32(self.valid_count);
        w.put_u32(self.write_ptr);
        w.put_u32(self.erase_count);
        w.put_u8(match self.state {
            BlockState::Free => 0,
            BlockState::Open => 1,
            BlockState::Full => 2,
            BlockState::Bad => 3,
        });
        w.put_u64(self.last_program);
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let valid_count = r.take_u32()?;
        let write_ptr = r.take_u32()?;
        let erase_count = r.take_u32()?;
        let state = match r.take_u8()? {
            0 => BlockState::Free,
            1 => BlockState::Open,
            2 => BlockState::Full,
            3 => BlockState::Bad,
            t => return Err(CkptError::Invalid(format!("block state tag {t}"))),
        };
        let last_program = r.take_u64()?;
        self.valid_count = valid_count;
        self.write_ptr = write_ptr;
        self.erase_count = erase_count;
        self.state = state;
        self.last_program = last_program;
        Ok(())
    }
}

/// All block metadata for the device, with per-plane free lists.
///
/// # Examples
///
/// ```
/// use nssd_flash::Geometry;
/// use nssd_ftl::BlockTable;
///
/// let g = Geometry::tiny();
/// let t = BlockTable::new(&g);
/// assert_eq!(t.free_blocks(), g.block_count());
/// assert!((t.free_ratio() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BlockTable {
    geometry: Geometry,
    blocks: Vec<BlockMeta>,
    /// Device-wide valid-page bitmap: block `b`'s bits are the
    /// `words_per_block` words from `b * words_per_block`, page `p` at bit
    /// `p % 64` of its word. Erase and retire clear words in place.
    valid: Vec<u64>,
    words_per_block: usize,
    /// Free-block stacks, one per plane (indexed by plane-unit).
    free: Vec<Vec<u32>>,
    free_total: u64,
    /// Device-wide program counter (logical time for block ages).
    op_clock: u64,
    /// Blocks retired as bad.
    retired: u64,
    /// The greedy victim index: which Full blocks hold each valid count.
    victims: VictimIndex,
}

/// The Full blocks with an invalid page, bucketed by valid count: bucket
/// `v < pages_per_block` holds one bit per block, set while the block is
/// [`BlockState::Full`] with exactly `v` valid pages. Walking the buckets
/// upward and each bucket's bits in order visits the reclaimable blocks in
/// `(valid_count, pbn)` order, the greedy order. Derived from the block
/// records, so it is rebuilt on load and never serialized.
#[derive(Debug, Clone)]
struct VictimIndex {
    /// Bucket `v`'s bits are the `words_per_bucket` words from
    /// `v * words_per_bucket`, block `b` at bit `b % 64` of its word.
    bits: Vec<u64>,
    words_per_bucket: usize,
    /// Blocks in each bucket.
    len: Vec<u32>,
}

impl VictimIndex {
    fn new(geometry: &Geometry) -> Self {
        let words_per_bucket = geometry.block_count().div_ceil(64) as usize;
        let buckets = geometry.pages_per_block as usize;
        VictimIndex {
            bits: vec![0; buckets * words_per_bucket],
            words_per_bucket,
            len: vec![0; buckets],
        }
    }

    fn bit(&self, valid: u32, pbn: Pbn) -> (usize, u64) {
        let raw = pbn.raw() as usize;
        (
            valid as usize * self.words_per_bucket + raw / 64,
            1 << (raw % 64),
        )
    }

    /// Files `pbn` under `valid` unless it has no invalid page.
    fn insert(&mut self, valid: u32, pbn: Pbn) {
        if valid as usize >= self.len.len() {
            return;
        }
        let (word, bit) = self.bit(valid, pbn);
        debug_assert!(self.bits[word] & bit == 0, "{pbn} filed twice");
        self.bits[word] |= bit;
        self.len[valid as usize] += 1;
    }

    /// Unfiles `pbn` from `valid`, where [`VictimIndex::insert`] put it.
    fn remove(&mut self, valid: u32, pbn: Pbn) {
        if valid as usize >= self.len.len() {
            return;
        }
        let (word, bit) = self.bit(valid, pbn);
        debug_assert!(self.bits[word] & bit != 0, "{pbn} not filed");
        self.bits[word] &= !bit;
        self.len[valid as usize] -= 1;
    }

    /// Refiles every block from its record.
    fn rebuild(&mut self, blocks: &[BlockMeta]) {
        self.bits.fill(0);
        self.len.fill(0);
        for (raw, meta) in blocks.iter().enumerate() {
            if meta.state == BlockState::Full {
                self.insert(meta.valid_count, Pbn::new(raw as u64));
            }
        }
    }

    /// Recounts the index against the block records, reporting every
    /// block filed in the wrong bucket or missing, every stray bit and
    /// every bucket count that drifted.
    fn check(&self, blocks: &[BlockMeta], problems: &mut Vec<String>) {
        let mut expected = vec![0u32; self.len.len()];
        for (raw, meta) in blocks.iter().enumerate() {
            let pbn = Pbn::new(raw as u64);
            let filed =
                meta.state == BlockState::Full && (meta.valid_count as usize) < self.len.len();
            if filed {
                expected[meta.valid_count as usize] += 1;
                let (word, bit) = self.bit(meta.valid_count, pbn);
                if self.bits[word] & bit == 0 {
                    problems.push(format!(
                        "block {pbn}: Full with {} valid pages but not in that victim bucket",
                        meta.valid_count
                    ));
                }
            }
        }
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        let members: u64 = expected.iter().map(|&n| n as u64).sum();
        if set != members {
            problems.push(format!(
                "victim index holds {set} blocks, {members} are reclaimable"
            ));
        }
        for (valid, (&len, &want)) in self.len.iter().zip(&expected).enumerate() {
            if len != want {
                problems.push(format!(
                    "victim bucket {valid} counts {len} blocks, holds {want}"
                ));
            }
        }
    }

    /// Visits the filed blocks in `(valid_count, pbn)` order until `f`
    /// returns `false`.
    fn walk(&self, mut f: impl FnMut(Pbn) -> bool) {
        for (valid, &len) in self.len.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let start = valid * self.words_per_bucket;
            let words = &self.bits[start..start + self.words_per_bucket];
            let mut left = len;
            for (i, &word) in words.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    if !f(Pbn::new((i * 64 + w.trailing_zeros() as usize) as u64)) {
                        return;
                    }
                    w &= w - 1;
                    left -= 1;
                }
                if left == 0 {
                    break;
                }
            }
        }
    }
}

impl BlockTable {
    /// Creates an all-free block table for `geometry`.
    pub fn new(geometry: &Geometry) -> Self {
        let blocks = vec![BlockMeta::FRESH; geometry.block_count() as usize];
        let words_per_block = geometry.pages_per_block.div_ceil(64) as usize;
        let planes = geometry.plane_count() as usize;
        let bpp = geometry.blocks_per_plane;
        // Stack with block 0 on top so allocation order is deterministic.
        let free = (0..planes).map(|_| (0..bpp).rev().collect()).collect();
        BlockTable {
            geometry: *geometry,
            blocks,
            valid: vec![0; geometry.block_count() as usize * words_per_block],
            words_per_block,
            free,
            free_total: geometry.block_count(),
            op_clock: 0,
            retired: 0,
            victims: VictimIndex::new(geometry),
        }
    }

    /// The geometry this table describes.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Global plane-unit index of a block: which per-plane free list it
    /// belongs to.
    fn plane_unit_of(&self, pbn: Pbn) -> usize {
        (pbn.raw() / self.geometry.blocks_per_plane as u64) as usize
    }

    /// The words of `pbn`'s valid bits in the device-wide bitmap.
    fn words(&self, pbn: Pbn) -> Range<usize> {
        let start = pbn.raw() as usize * self.words_per_block;
        start..start + self.words_per_block
    }

    /// The bitmap word and bit of page `page` of `pbn`.
    fn bit(&self, pbn: Pbn, page: u32) -> (usize, u64) {
        let word = pbn.raw() as usize * self.words_per_block + (page / 64) as usize;
        (word, 1 << (page % 64))
    }

    fn page_valid(&self, pbn: Pbn, page: u32) -> bool {
        let (word, bit) = self.bit(pbn, page);
        self.valid[word] & bit != 0
    }

    fn set_valid(&mut self, pbn: Pbn, page: u32, v: bool) {
        let (word, bit) = self.bit(pbn, page);
        let w = &mut self.valid[word];
        let meta = &mut self.blocks[pbn.raw() as usize];
        if v {
            debug_assert!(*w & bit == 0);
            *w |= bit;
            meta.valid_count += 1;
        } else {
            debug_assert!(*w & bit != 0);
            *w &= !bit;
            meta.valid_count -= 1;
            if meta.state == BlockState::Full {
                self.victims.remove(meta.valid_count + 1, pbn);
                self.victims.insert(meta.valid_count, pbn);
            }
        }
    }

    /// Metadata for `pbn`.
    pub fn meta(&self, pbn: Pbn) -> &BlockMeta {
        &self.blocks[pbn.raw() as usize]
    }

    /// Total free (erased, unallocated) blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free_total
    }

    /// Free blocks as a fraction of all blocks.
    pub fn free_ratio(&self) -> f64 {
        self.free_total as f64 / self.geometry.block_count() as f64
    }

    /// Free blocks available in one plane unit.
    pub fn free_blocks_in_plane(&self, plane_unit: usize) -> usize {
        self.free[plane_unit].len()
    }

    /// Pops a free block from `plane_unit`, marking it [`BlockState::Open`].
    /// Returns `None` if the plane has no free blocks.
    pub fn take_free_block(&mut self, plane_unit: usize) -> Option<Pbn> {
        let local = self.free[plane_unit].pop()?;
        self.free_total -= 1;
        let pbn =
            Pbn::new(plane_unit as u64 * self.geometry.blocks_per_plane as u64 + local as u64);
        let meta = &mut self.blocks[pbn.raw() as usize];
        debug_assert_eq!(meta.state, BlockState::Free);
        meta.state = BlockState::Open;
        Some(pbn)
    }

    /// Programs the next page of open block `pbn`, marking it valid.
    /// Returns the programmed PPN, or `None` if the block is full.
    ///
    /// # Panics
    ///
    /// Panics if the block is [`BlockState::Free`] (not taken first).
    pub fn program_next_page(&mut self, pbn: Pbn) -> Option<Ppn> {
        let pages = self.geometry.pages_per_block;
        let meta = &mut self.blocks[pbn.raw() as usize];
        assert!(
            meta.state != BlockState::Free,
            "programming a free block {pbn} without taking it"
        );
        if meta.write_ptr >= pages {
            return None;
        }
        let page = meta.write_ptr;
        meta.write_ptr += 1;
        self.set_valid(pbn, page, true);
        self.op_clock += 1;
        let clock = self.op_clock;
        let meta = &mut self.blocks[pbn.raw() as usize];
        meta.last_program = clock;
        if meta.write_ptr == pages {
            meta.state = BlockState::Full;
            self.victims.insert(meta.valid_count, pbn);
        }
        Some(self.geometry.ppn_in_block(pbn, page))
    }

    /// Marks `ppn` invalid (its LPN was overwritten or trimmed).
    ///
    /// # Panics
    ///
    /// Debug-panics if the page was not valid.
    pub fn invalidate(&mut self, ppn: Ppn) {
        let (pbn, page) = self.block_and_page(ppn);
        self.set_valid(pbn, page, false);
    }

    /// Whether `ppn` holds live data.
    pub fn is_valid(&self, ppn: Ppn) -> bool {
        let (pbn, page) = self.block_and_page(ppn);
        self.page_valid(pbn, page)
    }

    /// The block of `ppn` and the page's index within it: the page is the
    /// lowest digit of a PPN, so one division finds both.
    fn block_and_page(&self, ppn: Ppn) -> (Pbn, u32) {
        let pages = self.geometry.pages_per_block as u64;
        (Pbn::new(ppn.raw() / pages), (ppn.raw() % pages) as u32)
    }

    /// The PPNs of all valid pages in `pbn`, in page order.
    pub fn valid_pages(&self, pbn: Pbn) -> Vec<Ppn> {
        let mut out = Vec::with_capacity(self.blocks[pbn.raw() as usize].valid_count as usize);
        self.for_each_valid_page(pbn, |ppn| out.push(ppn));
        out
    }

    /// Visits the valid pages of `pbn` in page order without materializing
    /// them — the GC hot path streams these straight into its reusable
    /// packet backlog.
    pub fn for_each_valid_page(&self, pbn: Pbn, mut f: impl FnMut(Ppn)) {
        for p in 0..self.blocks[pbn.raw() as usize].write_ptr {
            if self.page_valid(pbn, p) {
                f(self.geometry.ppn_in_block(pbn, p));
            }
        }
    }

    /// Erases `pbn`, returning it to its plane's free list — unless its
    /// erase count reaches `endurance_limit`, in which case the block is
    /// retired ([`BlockState::Bad`]) and never allocated again. Returns
    /// whether the block survived.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages, is already free, or is
    /// retired.
    pub fn erase(&mut self, pbn: Pbn) -> bool {
        self.erase_with_endurance(pbn, None)
    }

    /// See [`BlockTable::erase`]; `endurance_limit` of `None` never retires.
    pub fn erase_with_endurance(&mut self, pbn: Pbn, endurance_limit: Option<u32>) -> bool {
        let unit = self.plane_unit_of(pbn);
        let words = self.words(pbn);
        let meta = &mut self.blocks[pbn.raw() as usize];
        assert_eq!(
            meta.valid_count, 0,
            "erasing block {pbn} with {} valid pages",
            meta.valid_count
        );
        assert!(meta.state != BlockState::Free, "erasing free block {pbn}");
        assert!(meta.state != BlockState::Bad, "erasing retired block {pbn}");
        if meta.state == BlockState::Full {
            self.victims.remove(0, pbn);
        }
        meta.write_ptr = 0;
        meta.erase_count += 1;
        meta.last_program = 0;
        self.valid[words].fill(0);
        if endurance_limit.is_some_and(|limit| meta.erase_count >= limit) {
            meta.state = BlockState::Bad;
            self.retired += 1;
            return false;
        }
        meta.state = BlockState::Free;
        let local = (pbn.raw() % self.geometry.blocks_per_plane as u64) as u32;
        self.free[unit].push(local);
        self.free_total += 1;
        true
    }

    /// Marks an unallocated (Free) block bad immediately — factory bad
    /// blocks or grown defects discovered outside GC.
    ///
    /// # Panics
    ///
    /// Panics unless the block is currently [`BlockState::Free`] and still
    /// in its plane's free list.
    pub fn mark_bad(&mut self, pbn: Pbn) {
        let unit = self.plane_unit_of(pbn);
        let meta = &mut self.blocks[pbn.raw() as usize];
        assert_eq!(meta.state, BlockState::Free, "can only retire free blocks");
        meta.state = BlockState::Bad;
        let local = (pbn.raw() % self.geometry.blocks_per_plane as u64) as u32;
        let pos = self.free[unit]
            .iter()
            .position(|&b| b == local)
            .expect("free block must be in its plane's free list");
        self.free[unit].swap_remove(pos);
        self.free_total -= 1;
        self.retired += 1;
    }

    /// Retires `pbn` regardless of state — the fail-stop path for chip
    /// failures, where Open and Full blocks must also be pulled out of
    /// service. Valid pages are expected to have been relocated (or
    /// written off) by the caller; the bitmap is cleared here. No-op for
    /// already-Bad blocks.
    pub fn force_retire(&mut self, pbn: Pbn) {
        let unit = self.plane_unit_of(pbn);
        let words = self.words(pbn);
        let meta = &mut self.blocks[pbn.raw() as usize];
        if meta.state == BlockState::Bad {
            return;
        }
        if meta.state == BlockState::Free {
            let local = (pbn.raw() % self.geometry.blocks_per_plane as u64) as u32;
            let pos = self.free[unit]
                .iter()
                .position(|&b| b == local)
                .expect("free block must be in its plane's free list");
            self.free[unit].swap_remove(pos);
            self.free_total -= 1;
        }
        if meta.state == BlockState::Full {
            self.victims.remove(meta.valid_count, pbn);
        }
        meta.valid_count = 0;
        meta.state = BlockState::Bad;
        self.valid[words].fill(0);
        self.retired += 1;
    }

    /// Number of retired (bad) blocks.
    pub fn retired_blocks(&self) -> u64 {
        self.retired
    }

    /// Visits the Full blocks holding an invalid page — every block
    /// garbage collection may reclaim — in `(valid_count, pbn)` order, the
    /// greedy order, until `f` returns `false`. Costs the blocks visited
    /// plus one word per 64 blocks of each nonempty valid count passed.
    pub(crate) fn walk_victims(&self, f: impl FnMut(Pbn) -> bool) {
        self.victims.walk(f);
    }

    /// Iterates `(Pbn, &BlockMeta)` over all blocks.
    pub fn iter(&self) -> impl Iterator<Item = (Pbn, &BlockMeta)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, m)| (Pbn::new(i as u64), m))
    }

    /// Sum of valid pages across the device.
    pub fn total_valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid_count as u64).sum()
    }

    /// The current device-wide program counter.
    pub fn op_clock(&self) -> u64 {
        self.op_clock
    }

    /// Per-plane page conservation accounting: how every physical page of
    /// `plane_unit` is classified right now. The oracle's conservation
    /// invariant checks that the four categories always sum to the plane's
    /// geometric capacity.
    pub fn plane_accounting(&self, plane_unit: usize) -> PlaneAccounting {
        let bpp = self.geometry.blocks_per_plane as u64;
        let pages = self.geometry.pages_per_block as u64;
        let mut acc = PlaneAccounting::default();
        for raw in plane_unit as u64 * bpp..(plane_unit as u64 + 1) * bpp {
            let meta = &self.blocks[raw as usize];
            acc.blocks += 1;
            match meta.state {
                BlockState::Bad => {
                    acc.bad_blocks += 1;
                    acc.bad_pages += pages;
                }
                state => {
                    if state == BlockState::Free {
                        acc.free_blocks += 1;
                    }
                    acc.valid_pages += meta.valid_count as u64;
                    acc.invalid_pages += (meta.write_ptr - meta.valid_count) as u64;
                    acc.unwritten_pages += pages - meta.write_ptr as u64;
                }
            }
        }
        acc
    }

    /// Snapshot of every block's erase count, indexed by raw PBN — the
    /// oracle compares consecutive snapshots to enforce monotonicity.
    pub fn erase_counts(&self) -> Vec<u32> {
        self.blocks.iter().map(|b| b.erase_count).collect()
    }

    /// Structural self-check of every block and free list. Returns one
    /// message per violated invariant (empty = clean): bitmap popcounts
    /// match cached valid counts, no valid bit sits at or above the write
    /// pointer, lifecycle states agree with the counters, the victim index
    /// files exactly the reclaimable blocks under their valid counts, free
    /// lists hold exactly the Free blocks, and each plane conserves its
    /// page capacity.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let pages = self.geometry.pages_per_block;
        let mut free_state_total = 0u64;
        let mut bad_total = 0u64;
        for (pbn, meta) in self.iter() {
            let popcount: u32 = self.valid[self.words(pbn)]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            if popcount != meta.valid_count {
                problems.push(format!(
                    "block {pbn}: bitmap popcount {popcount} != valid_count {}",
                    meta.valid_count
                ));
            }
            if meta.write_ptr > pages {
                problems.push(format!(
                    "block {pbn}: write_ptr {} beyond {pages} pages",
                    meta.write_ptr
                ));
            }
            if (meta.write_ptr..pages).any(|p| self.page_valid(pbn, p)) {
                problems.push(format!(
                    "block {pbn}: valid bit at or above write_ptr {}",
                    meta.write_ptr
                ));
            }
            match meta.state {
                BlockState::Free => {
                    free_state_total += 1;
                    if meta.write_ptr != 0 || meta.valid_count != 0 {
                        problems.push(format!(
                            "block {pbn}: Free but write_ptr {} / valid {}",
                            meta.write_ptr, meta.valid_count
                        ));
                    }
                }
                BlockState::Open => {
                    if meta.write_ptr >= pages {
                        problems.push(format!("block {pbn}: Open at write_ptr {}", meta.write_ptr));
                    }
                }
                BlockState::Full => {
                    if meta.write_ptr != pages {
                        problems.push(format!(
                            "block {pbn}: Full at write_ptr {} of {pages}",
                            meta.write_ptr
                        ));
                    }
                }
                BlockState::Bad => {
                    bad_total += 1;
                    if meta.valid_count != 0 {
                        problems.push(format!(
                            "block {pbn}: Bad with {} valid pages",
                            meta.valid_count
                        ));
                    }
                }
            }
        }
        let listed: u64 = self.free.iter().map(|f| f.len() as u64).sum();
        if listed != self.free_total {
            problems.push(format!(
                "free lists hold {listed} blocks but free_total is {}",
                self.free_total
            ));
        }
        if free_state_total != self.free_total {
            problems.push(format!(
                "{free_state_total} blocks in Free state but free_total is {}",
                self.free_total
            ));
        }
        if bad_total != self.retired {
            problems.push(format!(
                "{bad_total} blocks in Bad state but retired counter is {}",
                self.retired
            ));
        }
        self.victims.check(&self.blocks, &mut problems);
        for (unit, list) in self.free.iter().enumerate() {
            for &local in list {
                let raw = unit as u64 * self.geometry.blocks_per_plane as u64 + local as u64;
                if self.blocks[raw as usize].state != BlockState::Free {
                    problems.push(format!(
                        "free list of plane {unit} lists non-Free block {}",
                        Pbn::new(raw)
                    ));
                }
            }
        }
        let per_plane = self.geometry.blocks_per_plane as u64 * pages as u64;
        for unit in 0..self.geometry.plane_count() as usize {
            let acc = self.plane_accounting(unit);
            if acc.page_total() != per_plane {
                problems.push(format!(
                    "plane {unit} accounts for {} of {per_plane} pages",
                    acc.page_total()
                ));
            }
        }
        problems
    }

    /// Serializes every block's metadata, the device-wide valid bitmap,
    /// the per-plane free-list stacks (order matters: allocation pops from
    /// the top), and the device-wide counters. Geometry is configuration
    /// and is not written.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.blocks.len());
        for b in &self.blocks {
            b.ckpt_save(w);
        }
        ckpt::put_u64_slice(w, &self.valid);
        w.put_usize(self.free.len());
        for list in &self.free {
            w.put_usize(list.len());
            for &local in list {
                w.put_u32(local);
            }
        }
        w.put_u64(self.free_total);
        w.put_u64(self.op_clock);
        w.put_u64(self.retired);
    }

    /// Restores state saved by [`BlockTable::ckpt_save`] into a table built
    /// for the same geometry, then re-runs the full structural self-check.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, any shape mismatch against the
    /// geometry, or a decoded table that fails
    /// [`BlockTable::check_invariants`].
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.take_usize()?;
        if n != self.blocks.len() {
            return Err(CkptError::Invalid(format!(
                "checkpoint has {n} blocks, geometry has {}",
                self.blocks.len()
            )));
        }
        let pages = self.geometry.pages_per_block;
        for b in &mut self.blocks {
            b.ckpt_load(r)?;
            // Pre-validate the counter ordering the accounting arithmetic
            // relies on, so check_invariants below cannot underflow.
            if b.write_ptr > pages || b.valid_count > b.write_ptr {
                return Err(CkptError::Invalid(format!(
                    "block counters out of order: write_ptr {} valid {} of {pages} pages",
                    b.write_ptr, b.valid_count
                )));
            }
        }
        ckpt::take_u64_slice(r, &mut self.valid, "valid bitmap")?;
        let planes = r.take_usize()?;
        if planes != self.free.len() {
            return Err(CkptError::Invalid(format!(
                "checkpoint has {planes} planes, geometry has {}",
                self.free.len()
            )));
        }
        let bpp = self.geometry.blocks_per_plane;
        for list in &mut self.free {
            let len = r.take_count(4)?;
            if len > bpp as usize {
                return Err(CkptError::Invalid(format!(
                    "free list of {len} blocks exceeds plane capacity {bpp}"
                )));
            }
            list.clear();
            for _ in 0..len {
                let local = r.take_u32()?;
                if local >= bpp {
                    return Err(CkptError::Invalid(format!(
                        "free-list block {local} out of plane range {bpp}"
                    )));
                }
                list.push(local);
            }
        }
        self.free_total = r.take_u64()?;
        self.op_clock = r.take_u64()?;
        self.retired = r.take_u64()?;
        self.victims.rebuild(&self.blocks);
        let problems = self.check_invariants();
        if !problems.is_empty() {
            return Err(CkptError::Invalid(format!(
                "restored block table fails invariants: {}",
                problems.join("; ")
            )));
        }
        Ok(())
    }

    /// Summarizes wear (erase counts) across the device, including per-way
    /// means — the quantity spatial GC's epoch swap is designed to level
    /// (§VI-A: "uniformly increase the age of the flash memory").
    pub fn wear_summary(&self) -> WearSummary {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut sum_sq = 0u64;
        let mut per_way = vec![(0u64, 0u64); self.geometry.ways as usize];
        for (pbn, meta) in self.iter() {
            let e = meta.erase_count();
            min = min.min(e);
            max = max.max(e);
            sum += e as u64;
            sum_sq += (e as u64) * (e as u64);
            let way = self.geometry.block_addr(pbn).way as usize;
            per_way[way].0 += e as u64;
            per_way[way].1 += 1;
        }
        let n = self.blocks.len() as f64;
        let mean = sum as f64 / n;
        let var = (sum_sq as f64 / n - mean * mean).max(0.0);
        WearSummary {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
            per_way_mean: per_way
                .into_iter()
                .map(|(s, c)| if c == 0 { 0.0 } else { s as f64 / c as f64 })
                .collect(),
        }
    }
}

/// How every physical page of one plane is classified at an instant.
///
/// Conservation invariant: `valid + invalid + unwritten + bad` pages equal
/// the plane's geometric capacity (`blocks × pages_per_block`), always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneAccounting {
    /// Pages holding live data.
    pub valid_pages: u64,
    /// Pages written and since invalidated (garbage).
    pub invalid_pages: u64,
    /// Pages above the write pointer of non-Bad blocks (erased capacity).
    pub unwritten_pages: u64,
    /// Capacity lost to retired (Bad) blocks.
    pub bad_pages: u64,
    /// Blocks currently Free.
    pub free_blocks: u64,
    /// Blocks currently Bad.
    pub bad_blocks: u64,
    /// Total blocks in the plane.
    pub blocks: u64,
}

impl PlaneAccounting {
    /// Sum over every page category; must equal the plane's capacity.
    pub fn page_total(&self) -> u64 {
        self.valid_pages + self.invalid_pages + self.unwritten_pages + self.bad_pages
    }
}

/// Erase-count (wear) statistics for the device.
#[derive(Debug, Clone, PartialEq)]
pub struct WearSummary {
    /// Lowest erase count of any block.
    pub min: u32,
    /// Highest erase count of any block.
    pub max: u32,
    /// Mean erase count.
    pub mean: f64,
    /// Population standard deviation of erase counts.
    pub std_dev: f64,
    /// Mean erase count per way (column) — spatial GC's leveling target.
    pub per_way_mean: Vec<f64>,
}

impl WearSummary {
    /// Max/min ratio of per-way mean wear (1.0 = perfectly leveled).
    ///
    /// Wear spread: the gap between the most- and least-erased block. The
    /// headline leveling observable for wear-aware victim selection.
    pub fn spread(&self) -> u32 {
        self.max - self.min
    }

    /// Ways that have never been erased are ignored; returns 1.0 if fewer
    /// than two ways have wear.
    pub fn way_imbalance(&self) -> f64 {
        let worn: Vec<f64> = self
            .per_way_mean
            .iter()
            .copied()
            .filter(|&m| m > 0.0)
            .collect();
        if worn.len() < 2 {
            return 1.0;
        }
        let max = worn.iter().cloned().fold(f64::MIN, f64::max);
        let min = worn.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> BlockTable {
        BlockTable::new(&Geometry::tiny())
    }

    #[test]
    fn fresh_table_all_free() {
        let t = table();
        let g = Geometry::tiny();
        assert_eq!(t.free_blocks(), g.block_count());
        assert_eq!(t.total_valid_pages(), 0);
    }

    #[test]
    fn take_program_fill_lifecycle() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        assert_eq!(t.meta(pbn).state(), BlockState::Open);
        let pages = t.geometry().pages_per_block;
        for i in 0..pages {
            let ppn = t.program_next_page(pbn).unwrap();
            assert_eq!(t.geometry().page_addr(ppn).page, i);
            assert!(t.is_valid(ppn));
        }
        assert_eq!(t.meta(pbn).state(), BlockState::Full);
        assert!(t.program_next_page(pbn).is_none());
        assert_eq!(t.meta(pbn).valid_count(), pages);
    }

    #[test]
    fn invalidate_then_erase_returns_to_free_list() {
        let mut t = table();
        let before = t.free_blocks();
        let pbn = t.take_free_block(3).unwrap();
        let ppn = t.program_next_page(pbn).unwrap();
        t.invalidate(ppn);
        assert_eq!(t.meta(pbn).valid_count(), 0);
        t.erase(pbn);
        assert_eq!(t.meta(pbn).state(), BlockState::Free);
        assert_eq!(t.meta(pbn).erase_count(), 1);
        assert_eq!(t.free_blocks(), before);
        // The block can be taken again from the same plane.
        let again = t.take_free_block(3).unwrap();
        assert_eq!(again, pbn);
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_pages_panics() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        t.program_next_page(pbn).unwrap();
        t.erase(pbn);
    }

    #[test]
    fn valid_pages_listing_skips_invalidated() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        let a = t.program_next_page(pbn).unwrap();
        let b = t.program_next_page(pbn).unwrap();
        let c = t.program_next_page(pbn).unwrap();
        t.invalidate(b);
        assert_eq!(t.valid_pages(pbn), vec![a, c]);
    }

    #[test]
    fn erase_at_endurance_limit_retires() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        let ppn = t.program_next_page(pbn).unwrap();
        t.invalidate(ppn);
        // Limit 1: the first erase retires the block.
        assert!(!t.erase_with_endurance(pbn, Some(1)));
        assert_eq!(t.meta(pbn).state(), BlockState::Bad);
        assert_eq!(t.retired_blocks(), 1);
        // The block never returns to its plane's free list.
        let g = *t.geometry();
        for _ in 0..g.blocks_per_plane - 1 {
            let b = t.take_free_block(0).unwrap();
            assert_ne!(b, pbn);
        }
        assert!(t.take_free_block(0).is_none());
    }

    #[test]
    fn mark_bad_removes_free_block() {
        let mut t = table();
        let before = t.free_blocks();
        t.mark_bad(Pbn::new(3));
        assert_eq!(t.free_blocks(), before - 1);
        assert_eq!(t.meta(Pbn::new(3)).state(), BlockState::Bad);
        assert_eq!(t.retired_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "only retire free blocks")]
    fn mark_bad_rejects_open_blocks() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        t.mark_bad(pbn);
    }

    #[test]
    fn force_retire_handles_every_state() {
        let mut t = table();
        let before = t.free_blocks();
        // Free block: leaves the free list.
        t.force_retire(Pbn::new(5));
        assert_eq!(t.meta(Pbn::new(5)).state(), BlockState::Bad);
        assert_eq!(t.free_blocks(), before - 1);
        // Open block with a live page: bitmap is cleared on retire.
        let pbn = t.take_free_block(0).unwrap();
        t.program_next_page(pbn).unwrap();
        t.force_retire(pbn);
        assert_eq!(t.meta(pbn).state(), BlockState::Bad);
        assert_eq!(t.meta(pbn).valid_count(), 0);
        // Already-Bad block: idempotent.
        let retired = t.retired_blocks();
        t.force_retire(pbn);
        assert_eq!(t.retired_blocks(), retired);
    }

    #[test]
    fn free_lists_are_per_plane() {
        let mut t = table();
        let g = *t.geometry();
        let unit0_blocks = g.blocks_per_plane as usize;
        for _ in 0..unit0_blocks {
            assert!(t.take_free_block(0).is_some());
        }
        assert!(t.take_free_block(0).is_none());
        assert!(t.take_free_block(1).is_some());
    }

    #[test]
    fn plane_accounting_conserves_capacity() {
        let mut t = table();
        let g = *t.geometry();
        let per_plane = g.blocks_per_plane as u64 * g.pages_per_block as u64;
        // Fresh plane: everything unwritten.
        let fresh = t.plane_accounting(0);
        assert_eq!(fresh.unwritten_pages, per_plane);
        assert_eq!(fresh.free_blocks, g.blocks_per_plane as u64);
        // Mix every category into plane 0: writes, garbage, a bad block.
        let pbn = t.take_free_block(0).unwrap();
        let a = t.program_next_page(pbn).unwrap();
        t.program_next_page(pbn).unwrap();
        t.invalidate(a);
        t.mark_bad(Pbn::new(1));
        let acc = t.plane_accounting(0);
        assert_eq!(acc.valid_pages, 1);
        assert_eq!(acc.invalid_pages, 1);
        assert_eq!(acc.bad_blocks, 1);
        assert_eq!(acc.bad_pages, g.pages_per_block as u64);
        assert_eq!(acc.page_total(), per_plane);
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn erase_counts_snapshot_tracks_erases() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        let ppn = t.program_next_page(pbn).unwrap();
        t.invalidate(ppn);
        t.erase(pbn);
        let counts = t.erase_counts();
        assert_eq!(counts[pbn.raw() as usize], 1);
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 1);
    }

    #[test]
    fn check_invariants_accepts_all_lifecycle_states() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        let pages = t.geometry().pages_per_block;
        for _ in 0..pages {
            t.program_next_page(pbn).unwrap();
        }
        let open = t.take_free_block(1).unwrap();
        t.program_next_page(open).unwrap();
        t.mark_bad(Pbn::new(2));
        assert!(t.check_invariants().is_empty());
    }

    /// The invariant sweep recounts the victim index: a block filed under
    /// the wrong valid count, a stray bit and a drifted bucket count are
    /// each reported, and a checkpoint taken of a drifted table loads
    /// clean, because loading rebuilds the index from the records.
    #[test]
    fn check_invariants_catches_a_drifted_victim_index() {
        let mut t = table();
        let pbn = t.take_free_block(0).unwrap();
        let first = t.program_next_page(pbn).unwrap();
        while t.program_next_page(pbn).is_some() {}
        t.invalidate(first);
        let valid = t.meta(pbn).valid_count();
        assert!(t.check_invariants().is_empty());

        let mut moved = t.clone();
        moved.victims.remove(valid, pbn);
        moved.victims.insert(valid - 1, pbn);
        let problems = moved.check_invariants();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("not in that victim bucket")),
            "{problems:?}"
        );
        let mut stray = t.clone();
        stray.victims.insert(0, Pbn::new(pbn.raw() + 1));
        let problems = stray.check_invariants();
        assert!(
            problems
                .iter()
                .any(|p| p.contains("victim index holds 2 blocks")),
            "{problems:?}"
        );
        let mut miscounted = t.clone();
        miscounted.victims.len[valid as usize] += 1;
        let problems = miscounted.check_invariants();
        assert!(
            problems.iter().any(|p| p.contains("victim bucket")),
            "{problems:?}"
        );

        let mut w = CkptWriter::new();
        moved.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = table();
        restored.ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
        assert!(restored.check_invariants().is_empty());
        let mut walked = Vec::new();
        restored.walk_victims(|b| {
            walked.push(b);
            true
        });
        assert_eq!(walked, vec![pbn]);
    }

    #[test]
    fn plane_unit_mapping_matches_geometry() {
        let t = table();
        let g = *t.geometry();
        for raw in 0..g.block_count() {
            let pbn = Pbn::new(raw);
            let addr = g.block_addr(pbn);
            let expect = ((g.chip_index(addr.channel, addr.way) as u64 * g.dies as u64
                + addr.die as u64)
                * g.planes as u64
                + addr.plane as u64) as usize;
            assert_eq!(t.plane_unit_of(pbn), expect);
        }
    }
}
