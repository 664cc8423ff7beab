//! The flash translation layer facade.
//!
//! [`Ftl`] combines the mapping table, block metadata, the user and GC write
//! allocators (separate streams, so GC relocations do not pollute user open
//! blocks) and the spatial-GC group state. It is purely *functional* — it
//! decides placement and bookkeeping; the engine in `nssd-core` attaches
//! timing to each operation.

use core::fmt;

use nssd_flash::{Geometry, GeometryError, Pbn, Ppn};
use nssd_sim::{CkptError, CkptReader, CkptWriter, Rng};

use crate::{
    select_victims, AllocPolicy, BlockState, BlockTable, GcConfig, Lpn, MappingTable, OutOfSpace,
    PageAllocator, PlacementSpec, RedundancyConfig, VictimSpec, WayMask,
};

/// FTL configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlConfig {
    /// Flash geometry.
    pub geometry: Geometry,
    /// User-write striping policy.
    pub alloc_policy: AllocPolicy,
    /// Overprovisioning: fraction of physical pages hidden from the host.
    pub op_ratio: f64,
    /// P/E-cycle endurance limit; blocks reaching it are retired as bad.
    /// `None` (the default) disables wear-out, matching the paper's
    /// evaluation horizon.
    pub endurance_limit: Option<u32>,
    /// Garbage-collection configuration.
    pub gc: GcConfig,
    /// Intra-SSD parity redundancy (off by default). When enabled, the
    /// logical capacity shrinks by `1/stripe_width` to reserve parity
    /// space, and a chip fail-stop leaves mappings in place for degraded
    /// reads and rebuild instead of losing the chip's pages.
    pub redundancy: RedundancyConfig,
}

impl FtlConfig {
    /// Evaluation defaults on the scaled geometry with 12.5% OP.
    pub fn evaluation_defaults() -> Self {
        FtlConfig {
            geometry: Geometry::scaled(),
            alloc_policy: AllocPolicy::Pcwd,
            op_ratio: 0.125,
            endurance_limit: None,
            gc: GcConfig::evaluation_defaults(),
            redundancy: RedundancyConfig::off(),
        }
    }

    /// Validates geometry and ratios.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError`] describing the problem.
    pub fn validate(&self) -> Result<(), FtlError> {
        self.geometry.validate().map_err(FtlError::Geometry)?;
        if !(0.0..0.9).contains(&self.op_ratio) {
            return Err(FtlError::Config("op_ratio must be in [0, 0.9)".into()));
        }
        self.gc.validate().map_err(FtlError::Config)?;
        let spatial = self
            .gc
            .plan
            .is_some_and(|p| p.placement == PlacementSpec::Spatial);
        if spatial && self.geometry.ways < 2 {
            return Err(FtlError::Config(format!(
                "spatial GC splits the ways into an I/O group and a GC group, \
                 so it needs at least 2 ways; the geometry has {}",
                self.geometry.ways
            )));
        }
        self.redundancy
            .validate(&self.geometry)
            .map_err(FtlError::Config)?;
        // The GC reserve must sit below the trigger watermark, or writes
        // would stall before reclamation ever starts.
        let reserve = self.gc.victims_per_trigger as u64 + 1;
        let trigger_blocks =
            (self.geometry.block_count() as f64 * self.gc.trigger_free_ratio) as u64;
        if reserve >= trigger_blocks.max(1) {
            return Err(FtlError::Config(format!(
                "victims_per_trigger ({}) too large: the GC reserve ({reserve} blocks) \
                 reaches the trigger watermark ({trigger_blocks} blocks)",
                self.gc.victims_per_trigger
            )));
        }
        Ok(())
    }
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig::evaluation_defaults()
    }
}

/// Errors from FTL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// Invalid geometry.
    Geometry(GeometryError),
    /// Invalid configuration value.
    Config(String),
    /// The LPN exceeds the logical capacity.
    LpnOutOfRange(u64),
    /// No free block is available within the permitted ways.
    OutOfSpace,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::Geometry(e) => write!(f, "invalid geometry: {e}"),
            FtlError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            FtlError::LpnOutOfRange(l) => write!(f, "lpn{l} exceeds logical capacity"),
            FtlError::OutOfSpace => f.write_str("no free block in any permitted plane"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfSpace> for FtlError {
    fn from(_: OutOfSpace) -> Self {
        FtlError::OutOfSpace
    }
}

/// The result of a user write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Newly programmed physical page.
    pub ppn: Ppn,
    /// Previous physical page of the LPN, now invalid (the engine does not
    /// time invalidations — they are mapping-table updates).
    pub invalidated: Option<Ppn>,
}

/// Which write stream a GC relocation is placed through. Streams keep
/// separate open blocks, so pages of different streams never share a
/// destination block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GcStream {
    /// The default GC relocation stream.
    Gc,
    /// The cold-data stream of generational (hot/cold) plans: pages that
    /// keep surviving GC are segregated here.
    Cold,
}

/// The result of a GC relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation {
    /// The logical page moved.
    pub lpn: Lpn,
    /// Source physical page (now invalid).
    pub src: Ppn,
    /// Destination physical page.
    pub dst: Ppn,
}

/// Cumulative FTL activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host-issued page writes.
    pub host_writes: u64,
    /// GC page relocations.
    pub gc_relocations: u64,
    /// Block erases.
    pub erases: u64,
    /// Blocks retired at the endurance limit.
    pub blocks_retired: u64,
    /// GC trigger events.
    pub gc_triggers: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + GC writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_relocations) as f64 / self.host_writes as f64
        }
    }
}

/// The accounting result of handling a fail-stop chip failure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChipFailureOutcome {
    /// LPNs whose only copy died with the chip (no parity), sorted: they
    /// are unmapped, and a read of one is a host-visible I/O error.
    pub lost: Vec<Lpn>,
    /// Blocks of the failed chip pulled out of service.
    pub blocks_retired: u64,
    /// Live pages left mapped on the dead chip (parity enabled): readable
    /// only by reconstruction until rebuild re-places them.
    pub pages_degraded: u64,
}

/// The flash translation layer.
///
/// # Examples
///
/// ```
/// use nssd_ftl::{Ftl, FtlConfig, Lpn};
///
/// let mut ftl = Ftl::new(FtlConfig::evaluation_defaults())?;
/// let out = ftl.write(Lpn::new(0))?;
/// assert_eq!(ftl.lookup(Lpn::new(0)), Some(out.ppn));
/// assert_eq!(out.invalidated, None);
/// # Ok::<(), nssd_ftl::FtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    config: FtlConfig,
    geometry: Geometry,
    logical_pages: u64,
    mapping: MappingTable,
    blocks: BlockTable,
    user_alloc: PageAllocator,
    gc_alloc: PageAllocator,
    /// Second GC stream for generational plans: cold relocations keep
    /// their own open blocks so stable data never shares a block with
    /// write-hot churn.
    cold_alloc: PageAllocator,
    /// Mask user writes must respect (narrowed by a placement policy while
    /// a GC event is active).
    write_mask: WayMask,
    /// Per-LPN count of GC relocations survived since the last host write
    /// (saturating). Sized only when the configured plan separates hot
    /// from cold data; empty otherwise, so non-generational configs pay
    /// nothing.
    reloc_gen: Vec<u8>,
    /// The fail-stopped chip whose live pages are still mapped (parity
    /// enabled); cleared when rebuild drains it.
    dead_chip: Option<(u32, u32)>,
    stats: FtlStats,
    /// The live pages of the victim instant GC is relocating; kept between
    /// victims so collection reuses one buffer.
    gc_pages: Vec<(Lpn, Ppn)>,
}

impl Ftl {
    /// Creates an FTL over an erased device.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError`] if the configuration is invalid.
    pub fn new(mut config: FtlConfig) -> Result<Self, FtlError> {
        // The benchmark's GC-off switch, read here and nowhere else.
        if config.gc.policy == crate::GcPolicy::None {
            config.gc.plan = None;
        }
        config.validate()?;
        let geometry = config.geometry;
        let mut logical_pages =
            (geometry.page_count() as f64 * (1.0 - config.op_ratio)).floor() as u64;
        if config.redundancy.enabled {
            // One page per stripe holds parity, not user data.
            let sw = config.redundancy.stripe_width as u64;
            logical_pages = logical_pages * (sw - 1) / sw;
        }
        let mapping = MappingTable::new(logical_pages, geometry.page_count());
        let blocks = BlockTable::new(&geometry);
        let user_alloc = PageAllocator::new(&geometry, config.alloc_policy);
        // GC relocations stripe channel-first: they are not subject to the
        // user allocation study and should spread evenly.
        let gc_alloc = PageAllocator::new(&geometry, AllocPolicy::Cwdp);
        let cold_alloc = PageAllocator::new(&geometry, AllocPolicy::Cwdp);
        let generational = config
            .gc
            .plan
            .is_some_and(|p| p.placement == PlacementSpec::HotCold);
        let reloc_gen = if generational {
            vec![0u8; logical_pages as usize]
        } else {
            Vec::new()
        };
        Ok(Ftl {
            config,
            geometry,
            logical_pages,
            mapping,
            blocks,
            user_alloc,
            gc_alloc,
            cold_alloc,
            write_mask: WayMask::all(geometry.ways),
            reloc_gen,
            dead_chip: None,
            stats: FtlStats::default(),
            gc_pages: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Host-visible capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Read-only block metadata access.
    pub fn blocks(&self) -> &BlockTable {
        &self.blocks
    }

    /// Activity counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Current free-block ratio.
    pub fn free_ratio(&self) -> f64 {
        self.blocks.free_ratio()
    }

    /// Free blocks held back for GC relocations: enough to absorb a full
    /// victim batch even if every victim page were still live.
    pub fn gc_reserve_blocks(&self) -> u64 {
        self.config.gc.victims_per_trigger as u64 + 1
    }

    /// Whether the GC trigger watermark has been reached.
    pub fn needs_gc(&self) -> bool {
        self.free_ratio() <= self.config.gc.trigger_free_ratio
    }

    /// Whether free space is critically low (preemptive GC must stop
    /// yielding): either the hard watermark ([`crate::HARD_FREE_RATIO`]) is
    /// breached or user writes are already blocked on the GC reserve.
    pub fn critically_low(&self) -> bool {
        self.free_ratio() <= crate::HARD_FREE_RATIO
            || self.blocks.free_blocks() <= self.gc_reserve_blocks() + 1
    }

    /// The logical→physical translation for `lpn`, if mapped.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of logical range, as
    /// [`MappingTable::lookup`] does.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.mapping.lookup(lpn)
    }

    /// The page mapping table.
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapping.mapped_pages()
    }

    /// Whether `ppn` currently holds live data.
    pub fn is_valid(&self, ppn: Ppn) -> bool {
        self.blocks.is_valid(ppn)
    }

    /// Writes `lpn`: allocates a fresh physical page within the current
    /// write mask, updates the mapping and invalidates the old page.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] or [`FtlError::OutOfSpace`].
    pub fn write(&mut self, lpn: Lpn) -> Result<WriteOutcome, FtlError> {
        if lpn.raw() >= self.logical_pages {
            return Err(FtlError::LpnOutOfRange(lpn.raw()));
        }
        // User writes may not open blocks from the GC reserve; without it,
        // a saturating write stream steals every block an erase frees
        // before the collector can place its own copies, and reclamation
        // deadlocks. Open blocks keep accepting pages regardless.
        let reserve = self.gc_reserve_blocks();
        let ppn =
            self.user_alloc
                .allocate_with_reserve(&mut self.blocks, self.write_mask, reserve)?;
        let invalidated = self.mapping.map(lpn, ppn);
        if let Some(old) = invalidated {
            self.blocks.invalidate(old);
        }
        // A host write makes the page hot again.
        if let Some(gen) = self.reloc_gen.get_mut(lpn.raw() as usize) {
            *gen = 0;
        }
        self.stats.host_writes += 1;
        Ok(WriteOutcome { ppn, invalidated })
    }

    /// Trims `lpn`, invalidating its physical page if mapped.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`].
    pub fn trim(&mut self, lpn: Lpn) -> Result<Option<Ppn>, FtlError> {
        if lpn.raw() >= self.logical_pages {
            return Err(FtlError::LpnOutOfRange(lpn.raw()));
        }
        let old = self.mapping.unmap(lpn);
        if let Some(ppn) = old {
            self.blocks.invalidate(ppn);
        }
        if let Some(gen) = self.reloc_gen.get_mut(lpn.raw() as usize) {
            *gen = 0;
        }
        Ok(old)
    }

    /// The current user-write way mask.
    pub fn write_mask(&self) -> WayMask {
        self.write_mask
    }

    /// Narrows the user-write way mask (a placement policy confining user
    /// writes while a GC event is active).
    pub fn set_write_mask(&mut self, mask: WayMask) {
        self.write_mask = mask;
    }

    /// Lifts any user-write restriction back to all ways.
    pub fn reset_write_mask(&mut self) {
        self.write_mask = WayMask::all(self.geometry.ways);
    }

    /// The parity-redundancy configuration in use.
    pub fn redundancy(&self) -> RedundancyConfig {
        self.config.redundancy
    }

    /// The fail-stopped chip (channel, way) whose live pages are still
    /// mapped and awaiting rebuild, if any.
    pub fn dead_chip(&self) -> Option<(u32, u32)> {
        self.dead_chip
    }

    /// Whether `ppn` sits on the dead chip — i.e. a read of it must be
    /// served by parity reconstruction.
    pub fn is_degraded_page(&self, ppn: Ppn) -> bool {
        match self.dead_chip {
            Some((c, w)) => {
                let a = self.geometry.page_addr(ppn);
                a.channel == c && a.way == w
            }
            None => false,
        }
    }

    /// The live pages still mapped on the dead chip, in block/page order —
    /// the backlog a rebuild must re-place. Empty when no chip is dead.
    pub fn degraded_pages(&self) -> Vec<(Lpn, Ppn)> {
        let Some((channel, way)) = self.dead_chip else {
            return Vec::new();
        };
        let g = self.geometry;
        let mut out = Vec::new();
        for raw in 0..g.block_count() {
            let pbn = Pbn::new(raw);
            let a = g.block_addr(pbn);
            if a.channel == channel && a.way == way {
                self.for_each_live_page(pbn, |lpn, ppn| out.push((lpn, ppn)));
            }
        }
        out
    }

    /// Retires a drained dead-chip block during rebuild: the block holds no
    /// valid pages anymore and never returns to the free pool (nothing is
    /// erased — the chip is gone).
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages.
    pub fn retire_dead_block(&mut self, pbn: Pbn) {
        assert_eq!(
            self.blocks.meta(pbn).valid_count(),
            0,
            "retiring dead-chip block {pbn} with live pages"
        );
        self.blocks.force_retire(pbn);
        self.stats.blocks_retired += 1;
    }

    /// Marks rebuild complete: the dead chip holds no live pages anymore,
    /// every remaining block of it is retired, and degraded-read dispatch
    /// stops.
    ///
    /// # Panics
    ///
    /// Panics if no chip is dead or live pages remain on it.
    pub fn clear_dead_chip(&mut self) {
        let (channel, way) = self.dead_chip.expect("no dead chip to clear");
        let g = self.geometry;
        for raw in 0..g.block_count() {
            let pbn = Pbn::new(raw);
            let a = g.block_addr(pbn);
            if a.channel != channel || a.way != way {
                continue;
            }
            let meta = self.blocks.meta(pbn);
            assert_eq!(
                meta.valid_count(),
                0,
                "clearing dead chip with live pages in {pbn}"
            );
            if meta.state() != BlockState::Bad {
                self.blocks.force_retire(pbn);
                self.stats.blocks_retired += 1;
            }
        }
        self.dead_chip = None;
    }

    /// The relocation stream GC copies `lpn` through: [`GcStream::Cold`]
    /// once the page has survived a GC relocation since its last host
    /// write, [`GcStream::Gc`] otherwise. Survivors are only tracked when
    /// the configured plan's placement is [`PlacementSpec::HotCold`], so
    /// every other plan always gets [`GcStream::Gc`].
    pub fn gc_stream(&self, lpn: Lpn) -> GcStream {
        match self.reloc_gen.get(lpn.raw() as usize) {
            Some(&gen) if gen >= 1 => GcStream::Cold,
            _ => GcStream::Gc,
        }
    }

    /// Counts one GC trigger event (the engine's plan performs its own
    /// victim selection).
    pub fn note_gc_trigger(&mut self) {
        self.stats.gc_triggers += 1;
    }

    /// Removes blocks of the dead chip from a GC victim list. They look
    /// like attractive victims (lots of garbage) but their array is
    /// unreadable, and erasing one would return it to the free pool on a
    /// chip that can no longer be written. The rebuild, not GC, drains and
    /// retires them.
    pub fn drop_dead_chip_victims(&self, victims: &mut Vec<Pbn>) {
        victims.retain(|&pbn| !self.on_dead_chip(pbn));
    }

    /// Whether collecting some block would free at least one page: a full
    /// block, off the dead chip, holding an invalid page. When none is
    /// left, garbage collection can never give a stalled write room again.
    pub fn has_reclaimable_block(&self) -> bool {
        let mut found = false;
        self.blocks.walk_victims(|pbn| {
            found = !self.on_dead_chip(pbn);
            !found
        });
        found
    }

    /// Whether `pbn` sits on the dead chip (see [`Ftl::dead_chip`]).
    pub fn on_dead_chip(&self, pbn: Pbn) -> bool {
        self.dead_chip.is_some_and(|(c, w)| {
            let a = self.geometry.block_addr(pbn);
            a.channel == c && a.way == w
        })
    }

    /// The live pages of `pbn` with their logical owners, in page order.
    pub fn live_pages(&self, pbn: Pbn) -> Vec<(Lpn, Ppn)> {
        let mut out = Vec::new();
        self.for_each_live_page(pbn, |lpn, ppn| out.push((lpn, ppn)));
        out
    }

    /// Visits the live pages of `pbn` with their logical owners, in page
    /// order, without materializing them (keeps steady-state GC
    /// allocation-free).
    pub fn for_each_live_page(&self, pbn: Pbn, mut f: impl FnMut(Lpn, Ppn)) {
        self.blocks.for_each_valid_page(pbn, |ppn| {
            let lpn = self
                .mapping
                .reverse(ppn)
                .expect("valid page must have a logical owner");
            f(lpn, ppn);
        });
    }

    /// Relocates one live page during GC: allocates a destination within
    /// `mask` from `stream`, remaps, and invalidates the source.
    /// Generational placements route pages that keep surviving GC through
    /// [`GcStream::Cold`], whose separate open blocks keep stable data out
    /// of write-hot blocks; every other relocation uses [`GcStream::Gc`].
    ///
    /// Returns `None` (not an error) if `lpn` no longer maps to `src` — the
    /// host overwrote it after victim selection, so there is nothing to
    /// move.
    ///
    /// # Errors
    ///
    /// [`OutOfSpace`] if the permitted ways are exhausted; nothing else can
    /// fail, because `lpn` is checked against the mapping first.
    pub fn relocate_to(
        &mut self,
        lpn: Lpn,
        src: Ppn,
        mask: WayMask,
        stream: GcStream,
    ) -> Result<Option<Relocation>, OutOfSpace> {
        if self.mapping.lookup(lpn) != Some(src) {
            return Ok(None);
        }
        let alloc = match stream {
            GcStream::Gc => &mut self.gc_alloc,
            GcStream::Cold => &mut self.cold_alloc,
        };
        let dst = alloc.allocate(&mut self.blocks, mask)?;
        self.mapping.map(lpn, dst);
        self.blocks.invalidate(src);
        if let Some(gen) = self.reloc_gen.get_mut(lpn.raw() as usize) {
            *gen = gen.saturating_add(1);
        }
        self.stats.gc_relocations += 1;
        Ok(Some(Relocation { lpn, src, dst }))
    }

    /// Erases a fully-invalidated block; returns `false` if the block hit
    /// the endurance limit and was retired instead of freed.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages (a GC logic error).
    pub fn erase_block(&mut self, pbn: Pbn) -> bool {
        assert!(
            !self.on_dead_chip(pbn),
            "erasing {pbn} on the dead chip would return it to the free pool"
        );
        let survived = self
            .blocks
            .erase_with_endurance(pbn, self.config.endurance_limit);
        self.stats.erases += 1;
        if !survived {
            self.stats.blocks_retired += 1;
        }
        survived
    }

    /// Runs GC to completion instantly (no timing), reclaiming until the
    /// free ratio exceeds the trigger watermark or no block has any garbage
    /// left to collect. Used for preconditioning, for the watermark reclaim
    /// of GC-off runs, and by tests; the timed engine runs the configured
    /// plan step by step instead. Victims are always greedy, whatever the
    /// plan's victim axis, so aging is a property of the device: a device
    /// ages to the same state under every plan, and `rng` is never drawn
    /// from.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if relocation destinations run out.
    pub fn instant_gc<R: Rng>(&mut self, rng: &mut R) -> Result<(), FtlError> {
        self.instant_gc_with(rng, &mut |_| {}, &mut |_| {})
    }

    /// [`Ftl::instant_gc`] with observation hooks: `on_relocate` fires for
    /// every page copy and `on_erase` after every block erase, so a lockstep
    /// shadow model (the oracle) can track untimed GC the engine performs
    /// outside its event loop.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if relocation destinations run out.
    pub fn instant_gc_with<R: Rng>(
        &mut self,
        rng: &mut R,
        on_relocate: &mut dyn FnMut(Relocation),
        on_erase: &mut dyn FnMut(Pbn),
    ) -> Result<(), FtlError> {
        let all = WayMask::all(self.geometry.ways);
        // A failed relocation drops the buffer; the next collection
        // starts a new one.
        let mut pages = std::mem::take(&mut self.gc_pages);
        let n = self.config.gc.victims_per_trigger as usize;
        while self.needs_gc() {
            self.note_gc_trigger();
            let mut victims = select_victims(&self.blocks, n, all, VictimSpec::Greedy, rng);
            self.drop_dead_chip_victims(&mut victims);
            if victims.is_empty() {
                // Nothing reclaimable: every full block is fully valid.
                // Yield rather than fail — open blocks may still have room.
                break;
            }
            for pbn in victims {
                pages.clear();
                self.for_each_live_page(pbn, |lpn, ppn| pages.push((lpn, ppn)));
                self.relocate_all(&pages, on_relocate)?;
                self.erase_block(pbn);
                on_erase(pbn);
            }
        }
        self.gc_pages = pages;
        Ok(())
    }

    /// Relocates live `pages` through the GC stream in order, exactly as
    /// one [`Ftl::relocate_to`] each would: the pages that land in open
    /// frontiers go in stripe runs, and each page where a run stops (one
    /// that opens a block, or finds no room) takes the per-page path.
    fn relocate_all(
        &mut self,
        pages: &[(Lpn, Ppn)],
        on_relocate: &mut dyn FnMut(Relocation),
    ) -> Result<(), OutOfSpace> {
        let all = WayMask::all(self.geometry.ways);
        let mut i = 0;
        while i < pages.len() {
            let (mapping, reloc_gen) = (&mut self.mapping, &mut self.reloc_gen);
            let mut next = pages[i..].iter();
            let run = self.gc_alloc.allocate_run(
                &mut self.blocks,
                all,
                (pages.len() - i) as u64,
                |dst| {
                    let &(lpn, src) = next.next().expect("a run stops at its length");
                    let old = mapping.map(lpn, dst);
                    debug_assert_eq!(old, Some(src), "a victim's page moved before its copy");
                    if let Some(gen) = reloc_gen.get_mut(lpn.raw() as usize) {
                        *gen = gen.saturating_add(1);
                    }
                    on_relocate(Relocation { lpn, src, dst });
                    old
                },
            );
            self.stats.gc_relocations += run;
            i += run as usize;
            if let Some(&(lpn, src)) = pages.get(i) {
                if let Some(rel) = self.relocate_to(lpn, src, all, GcStream::Gc)? {
                    on_relocate(rel);
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// Preconditions the device: sequentially fills `fill_fraction` of the
    /// logical space, then performs `overwrite_fraction × logical` random
    /// overwrites to fragment the blocks, running instant GC as needed.
    /// Counters are reset afterwards so experiments start clean.
    ///
    /// # Errors
    ///
    /// [`FtlError::Config`] naming the argument if `fill_fraction` is
    /// outside [0, 1] or `overwrite_fraction` outside [0, 2] (NaN
    /// included); otherwise propagates allocation failures (which indicate
    /// an infeasible fill/OP combination).
    pub fn precondition<R: Rng>(
        &mut self,
        fill_fraction: f64,
        overwrite_fraction: f64,
        rng: &mut R,
    ) -> Result<(), FtlError> {
        if !(0.0..=1.0).contains(&fill_fraction) {
            return Err(FtlError::Config(format!(
                "fill fraction {fill_fraction} is outside [0, 1]"
            )));
        }
        if !(0.0..=2.0).contains(&overwrite_fraction) {
            return Err(FtlError::Config(format!(
                "overwrite fraction {overwrite_fraction} is outside [0, 2]"
            )));
        }
        let filled = (self.logical_pages as f64 * fill_fraction) as u64;
        // Above the GC watermark, a write into an open frontier only maps
        // the page, so the fill runs through the frontiers in stripe order.
        // A page that would open a block, or one written at the watermark,
        // goes through the per-page path, which takes blocks and collects.
        let mut l = 0;
        while l < filled {
            if !self.needs_gc() {
                let (mapping, reloc_gen) = (&mut self.mapping, &mut self.reloc_gen);
                let mut lpn = l;
                let run = self.user_alloc.allocate_run(
                    &mut self.blocks,
                    self.write_mask,
                    filled - l,
                    |ppn| {
                        let old = mapping.map(Lpn::new(lpn), ppn);
                        // A host write makes the page hot again.
                        if let Some(gen) = reloc_gen.get_mut(lpn as usize) {
                            *gen = 0;
                        }
                        lpn += 1;
                        old
                    },
                );
                self.stats.host_writes += run;
                l += run;
                if l == filled {
                    break;
                }
            }
            self.write_with_instant_gc(Lpn::new(l), rng)?;
            l += 1;
        }
        let overwrites = (self.logical_pages as f64 * overwrite_fraction) as u64;
        for _ in 0..overwrites {
            let l = rng.gen_range(0..filled.max(1));
            self.write_with_instant_gc(Lpn::new(l), rng)?;
        }
        self.stats = FtlStats::default();
        Ok(())
    }

    /// Pushes the device to the GC trigger watermark with random
    /// overwrites over `0..max_lpn` (no reclamation), so a timed run
    /// experiences garbage collection from its very first writes. Call
    /// after [`Ftl::precondition`]; `max_lpn` should be the preconditioned
    /// range.
    ///
    /// # Errors
    ///
    /// [`FtlError::Config`] if `max_lpn` is 0 (no range to overwrite), or
    /// [`FtlError::OutOfSpace`] if the reserve is reached before the
    /// trigger (mis-tuned watermarks).
    pub fn pressurize<R: Rng>(&mut self, max_lpn: u64, rng: &mut R) -> Result<(), FtlError> {
        if max_lpn == 0 {
            return Err(FtlError::Config(
                "pressurize needs a nonempty LPN range".into(),
            ));
        }
        while !self.needs_gc() {
            let l = rng.gen_range(0..max_lpn);
            self.write(Lpn::new(l))?;
        }
        self.stats = FtlStats::default();
        Ok(())
    }

    fn write_with_instant_gc<R: Rng>(&mut self, lpn: Lpn, rng: &mut R) -> Result<(), FtlError> {
        if self.needs_gc() {
            self.instant_gc(rng)?;
        }
        match self.write(lpn) {
            Ok(_) => Ok(()),
            Err(FtlError::OutOfSpace) => {
                self.instant_gc(rng)?;
                self.write(lpn).map(|_| ())
            }
            Err(e) => Err(e),
        }
    }

    /// Marks each block factory-bad with probability `rate`, skipping any
    /// plane already down to its last two spares (real devices likewise
    /// guarantee a minimum usable count per plane). Returns how many blocks
    /// were retired. Call on a fresh (all-free) device before any writes.
    pub fn mark_manufacture_bad<R: Rng>(&mut self, rate: f64, rng: &mut R) -> u32 {
        if rate <= 0.0 {
            return 0;
        }
        let bpp = self.geometry.blocks_per_plane as u64;
        let mut marked = 0;
        for raw in 0..self.geometry.block_count() {
            if !rng.gen_bool(rate) {
                continue;
            }
            let unit = (raw / bpp) as usize;
            if self.blocks.free_blocks_in_plane(unit) <= 2 {
                continue;
            }
            self.blocks.mark_bad(Pbn::new(raw));
            self.stats.blocks_retired += 1;
            marked += 1;
        }
        marked
    }

    /// Retires `pbn` after a failed (grown-bad) erase: the erase attempt is
    /// counted, the block never returns to the free pool. The block must
    /// already be fully invalidated, as for [`Ftl::erase_block`].
    pub fn retire_block(&mut self, pbn: Pbn) {
        assert_eq!(
            self.blocks.meta(pbn).valid_count(),
            0,
            "retiring block {pbn} with live pages"
        );
        self.blocks.force_retire(pbn);
        self.stats.erases += 1;
        self.stats.blocks_retired += 1;
    }

    /// Handles a fail-stop failure of the chip at (`channel`, `way`). A
    /// fail-stopped array cannot be read, so what happens to its live pages
    /// depends only on whether parity is configured:
    ///
    /// * **With parity** ([`RedundancyConfig::enabled`]) the mappings stay
    ///   in place: the pages are served by reconstruction from surviving
    ///   stripe members until a background rebuild re-places them
    ///   ([`ChipFailureOutcome::pages_degraded`], [`Ftl::dead_chip`]).
    /// * **Without parity** every live page on the chip is lost: its LPN is
    ///   unmapped and returned in [`ChipFailureOutcome::lost`].
    ///
    /// Either way the allocators are fenced off the dead chip (open
    /// frontiers closed, free blocks retired) so no future write lands
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the geometry or if a chip is
    /// already dead.
    pub fn fail_chip(&mut self, channel: u32, way: u32) -> ChipFailureOutcome {
        let g = self.geometry;
        assert!(
            channel < g.channels && way < g.ways,
            "chip ({channel},{way}) outside geometry"
        );
        assert!(
            self.dead_chip.is_none(),
            "a chip is already dead; the model handles one failure"
        );
        let on_chip = |pbn: Pbn| {
            let a = g.block_addr(pbn);
            a.channel == channel && a.way == way
        };
        // Close open-block frontiers into the dead chip first: the
        // allocators program open blocks without consulting free lists.
        self.user_alloc.close_open_blocks(on_chip);
        self.gc_alloc.close_open_blocks(on_chip);
        self.cold_alloc.close_open_blocks(on_chip);
        let chip_pbns: Vec<Pbn> = (0..g.block_count())
            .map(Pbn::new)
            .filter(|&p| on_chip(p))
            .collect();
        let mut out = ChipFailureOutcome::default();
        for &pbn in &chip_pbns {
            if self.blocks.meta(pbn).state() == BlockState::Free {
                self.blocks.force_retire(pbn);
                out.blocks_retired += 1;
            }
        }
        if self.config.redundancy.enabled {
            // Mappings stay: pages on the dead chip are served by
            // reconstruction until rebuild re-places them. Only blocks with
            // no live data retire now; the rest retire as the rebuild
            // drains them.
            for &pbn in &chip_pbns {
                let meta = self.blocks.meta(pbn);
                if matches!(meta.state(), BlockState::Bad | BlockState::Free) {
                    continue;
                }
                if meta.valid_count() == 0 {
                    self.blocks.force_retire(pbn);
                    out.blocks_retired += 1;
                } else {
                    out.pages_degraded += meta.valid_count() as u64;
                }
            }
            self.dead_chip = Some((channel, way));
        } else {
            // The array is unreadable and nothing else holds the data:
            // every live page is gone.
            for &pbn in &chip_pbns {
                if self.blocks.meta(pbn).state() == BlockState::Bad {
                    continue;
                }
                for (lpn, src) in self.live_pages(pbn) {
                    self.mapping.unmap(lpn);
                    self.blocks.invalidate(src);
                    if let Some(gen) = self.reloc_gen.get_mut(lpn.raw() as usize) {
                        *gen = 0;
                    }
                    out.lost.push(lpn);
                }
                self.blocks.force_retire(pbn);
                out.blocks_retired += 1;
            }
            out.lost.sort_unstable();
        }
        out
    }

    /// Full structural self-check: block-table invariants plus the
    /// mapping/valid-count agreement. Returns one message per violated
    /// invariant (empty = clean); the oracle funnels these into its
    /// violation log.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = self.blocks.check_invariants();
        if !self.mapping.check_consistency() {
            problems.push("mapping forward/reverse tables disagree".into());
        }
        let mapped = self.mapping.mapped_pages();
        let valid = self.blocks.total_valid_pages();
        if mapped != valid {
            problems.push(format!("{mapped} mapped pages but {valid} valid pages"));
        }
        problems
    }

    /// Serializes all mutable FTL state: mapping, block table, the three
    /// allocator streams, the write mask, relocation generations, and
    /// activity counters. Configuration (geometry, policies, watermarks)
    /// is not written — a checkpoint restores into an [`Ftl::new`]-built
    /// instance of the same configuration.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.mapping.ckpt_save(w);
        self.blocks.ckpt_save(w);
        self.user_alloc.ckpt_save(w);
        self.gc_alloc.ckpt_save(w);
        self.cold_alloc.ckpt_save(w);
        w.put_u64(self.write_mask.bits());
        w.put_usize(self.reloc_gen.len());
        w.put_bytes(&self.reloc_gen);
        w.put_u64(self.stats.host_writes);
        w.put_u64(self.stats.gc_relocations);
        w.put_u64(self.stats.erases);
        w.put_u64(self.stats.blocks_retired);
        w.put_u64(self.stats.gc_triggers);
        w.put_bool(self.dead_chip.is_some());
        if let Some((c, wy)) = self.dead_chip {
            w.put_u32(c);
            w.put_u32(wy);
        }
    }

    /// Restores state saved by [`Ftl::ckpt_save`], then re-runs the full
    /// structural self-check.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, any shape mismatch against this
    /// FTL's configuration, or restored state failing
    /// [`Ftl::check_invariants`].
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.mapping.ckpt_load(r)?;
        self.blocks.ckpt_load(r)?;
        let block_count = self.geometry.block_count();
        self.user_alloc.ckpt_load(r, block_count)?;
        self.gc_alloc.ckpt_load(r, block_count)?;
        self.cold_alloc.ckpt_load(r, block_count)?;
        self.write_mask = WayMask::from_bits(r.take_u64()?, self.geometry.ways)?;
        let gen_len = r.take_usize()?;
        if gen_len != self.reloc_gen.len() {
            return Err(CkptError::Invalid(format!(
                "relocation-generation table holds {gen_len} entries, this \
                 configuration expects {}",
                self.reloc_gen.len()
            )));
        }
        self.reloc_gen = r.take_bytes(gen_len)?.to_vec();
        self.stats.host_writes = r.take_u64()?;
        self.stats.gc_relocations = r.take_u64()?;
        self.stats.erases = r.take_u64()?;
        self.stats.blocks_retired = r.take_u64()?;
        self.stats.gc_triggers = r.take_u64()?;
        self.dead_chip = if r.take_bool()? {
            let c = r.take_u32()?;
            let wy = r.take_u32()?;
            if c >= self.geometry.channels || wy >= self.geometry.ways {
                return Err(CkptError::Invalid(format!(
                    "dead chip ({c},{wy}) outside geometry"
                )));
            }
            Some((c, wy))
        } else {
            None
        };
        let problems = self.check_invariants();
        if !problems.is_empty() {
            return Err(CkptError::Invalid(format!(
                "restored FTL fails invariants: {}",
                problems.join("; ")
            )));
        }
        Ok(())
    }

    /// Silently swaps the physical pages of two mapped LPNs — a deliberate
    /// mapping corruption that stays invisible to every structural check
    /// (see [`MappingTable::debug_swap`]). Mutation hook for oracle
    /// self-tests only.
    ///
    /// # Panics
    ///
    /// Panics if either LPN is unmapped or out of range.
    pub fn debug_swap_mapping(&mut self, a: Lpn, b: Lpn) {
        self.mapping.debug_swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GcPlanSpec;
    use nssd_flash::Geometry;
    use nssd_sim::DetRng;

    fn tiny_ftl() -> Ftl {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        Ftl::new(cfg).unwrap()
    }

    #[test]
    fn write_then_lookup() {
        let mut ftl = tiny_ftl();
        let out = ftl.write(Lpn::new(7)).unwrap();
        assert_eq!(ftl.lookup(Lpn::new(7)), Some(out.ppn));
        assert!(ftl.is_valid(out.ppn));
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut ftl = tiny_ftl();
        let first = ftl.write(Lpn::new(3)).unwrap();
        let second = ftl.write(Lpn::new(3)).unwrap();
        assert_eq!(second.invalidated, Some(first.ppn));
        assert!(!ftl.is_valid(first.ppn));
        assert!(ftl.is_valid(second.ppn));
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn trim_unmaps() {
        let mut ftl = tiny_ftl();
        let out = ftl.write(Lpn::new(1)).unwrap();
        assert_eq!(ftl.trim(Lpn::new(1)).unwrap(), Some(out.ppn));
        assert_eq!(ftl.lookup(Lpn::new(1)), None);
        assert_eq!(ftl.trim(Lpn::new(1)).unwrap(), None);
    }

    #[test]
    fn lpn_range_enforced() {
        let mut ftl = tiny_ftl();
        let bad = Lpn::new(ftl.logical_pages());
        assert!(matches!(ftl.write(bad), Err(FtlError::LpnOutOfRange(_))));
    }

    #[test]
    fn overprovisioning_hides_capacity() {
        let ftl = tiny_ftl();
        assert!(ftl.logical_pages() < ftl.geometry().page_count());
        let expect = (ftl.geometry().page_count() as f64 * 0.875).floor() as u64;
        assert_eq!(ftl.logical_pages(), expect);
    }

    #[test]
    fn gc_reclaims_space() {
        let mut ftl = tiny_ftl();
        let mut rng = DetRng::seed_from_u64(42);
        // Fill the whole logical space, then overwrite to force garbage.
        ftl.precondition(1.0, 0.5, &mut rng).unwrap();
        assert!(ftl.free_ratio() > 0.0);
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // Every logical page is still readable after GC churn.
        for l in 0..ftl.logical_pages() {
            assert!(ftl.lookup(Lpn::new(l)).is_some(), "lost lpn{l}");
        }
    }

    #[test]
    fn spatial_gc_rejects_a_one_way_geometry() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.geometry.ways = 1;
        cfg.gc.victims_per_trigger = 1;
        Ftl::new(cfg).expect("PaGC runs on one way");
        cfg.gc.plan = Some(GcPlanSpec::spatial());
        let err = Ftl::new(cfg).unwrap_err().to_string();
        assert!(err.contains("at least 2 ways; the geometry has 1"), "{err}");
    }

    #[test]
    fn hot_cold_routes_survivors_to_the_cold_stream() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        let mut ftl = Ftl::new(cfg).unwrap();
        let all = WayMask::all(ftl.geometry().ways);
        let hot = Lpn::new(0);
        let cold = Lpn::new(1);
        let h = ftl.write(hot).unwrap();
        let c = ftl.write(cold).unwrap();
        // Fresh host writes are generation 0: both take the Gc stream.
        assert_eq!(ftl.gc_stream(hot), GcStream::Gc);
        assert_eq!(ftl.gc_stream(cold), GcStream::Gc);
        // One survived relocation promotes a page to the cold stream.
        ftl.relocate_to(cold, c.ppn, all, GcStream::Gc).unwrap();
        assert_eq!(ftl.gc_stream(cold), GcStream::Cold);
        assert_eq!(ftl.gc_stream(hot), GcStream::Gc);
        // A host overwrite resets the generation: hot again.
        ftl.relocate_to(hot, h.ppn, all, GcStream::Gc).unwrap();
        assert_eq!(ftl.gc_stream(hot), GcStream::Cold);
        ftl.write(hot).unwrap();
        assert_eq!(ftl.gc_stream(hot), GcStream::Gc);
        // Without a hot/cold plan no survivor is tracked.
        let mut plain = tiny_ftl();
        let p = plain.write(cold).unwrap();
        plain.relocate_to(cold, p.ppn, all, GcStream::Gc).unwrap();
        assert_eq!(plain.gc_stream(cold), GcStream::Gc);
    }

    #[test]
    fn hot_cold_segregates_destination_blocks() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.gc.plan = Some(GcPlanSpec::hot_cold());
        let mut ftl = Ftl::new(cfg).unwrap();
        let all = WayMask::all(ftl.geometry().ways);
        let a = ftl.write(Lpn::new(0)).unwrap();
        let b = ftl.write(Lpn::new(1)).unwrap();
        let ra = ftl
            .relocate_to(Lpn::new(0), a.ppn, all, GcStream::Cold)
            .unwrap()
            .unwrap();
        let rb = ftl
            .relocate_to(Lpn::new(1), b.ppn, all, GcStream::Gc)
            .unwrap()
            .unwrap();
        // Cold and hot survivors land in different open blocks: the
        // streams never share a destination block.
        let g = ftl.geometry();
        assert_ne!(g.pbn_of(ra.dst), g.pbn_of(rb.dst));
    }

    #[test]
    fn write_mask_restricts_user_writes() {
        let mut ftl = tiny_ftl();
        let io_mask = WayMask::from_ways([0u32]);
        ftl.set_write_mask(io_mask);
        assert_eq!(ftl.write_mask(), io_mask);
        // All writes under the narrowed mask land in the permitted ways.
        for l in 0..8 {
            let out = ftl.write(Lpn::new(l)).unwrap();
            let way = ftl.geometry().page_addr(out.ppn).way;
            assert!(io_mask.contains(way));
        }
        ftl.reset_write_mask();
        assert_eq!(ftl.write_mask(), WayMask::all(ftl.geometry().ways));
    }

    #[test]
    fn relocate_skips_stale_pages() {
        let mut ftl = tiny_ftl();
        let all = WayMask::all(ftl.geometry().ways);
        let out = ftl.write(Lpn::new(0)).unwrap();
        // Host overwrites before GC gets to the page.
        ftl.write(Lpn::new(0)).unwrap();
        let moved = ftl
            .relocate_to(Lpn::new(0), out.ppn, all, GcStream::Gc)
            .unwrap();
        assert_eq!(moved, None);
    }

    #[test]
    fn relocate_moves_live_page() {
        let mut ftl = tiny_ftl();
        let all = WayMask::all(ftl.geometry().ways);
        let out = ftl.write(Lpn::new(5)).unwrap();
        let moved = ftl
            .relocate_to(Lpn::new(5), out.ppn, all, GcStream::Gc)
            .unwrap()
            .unwrap();
        assert_eq!(moved.src, out.ppn);
        assert_eq!(ftl.lookup(Lpn::new(5)), Some(moved.dst));
        assert!(!ftl.is_valid(out.ppn));
        assert_eq!(ftl.stats().gc_relocations, 1);
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn write_amplification_tracked() {
        let mut ftl = tiny_ftl();
        let mut rng = DetRng::seed_from_u64(7);
        ftl.precondition(1.0, 0.2, &mut rng).unwrap();
        // Post-precondition counters are reset.
        assert_eq!(ftl.stats().host_writes, 0);
        for l in 0..200 {
            ftl.write_with_instant_gc(Lpn::new(l % ftl.logical_pages()), &mut rng)
                .unwrap();
        }
        assert!(ftl.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn precondition_refuses_out_of_range_fractions() {
        let mut ftl = tiny_ftl();
        let mut rng = DetRng::seed_from_u64(1);
        for (fill, overwrite, named) in [
            (1.5, 0.0, "fill fraction"),
            (f64::NAN, 0.0, "fill fraction"),
            (0.5, 2.5, "overwrite fraction"),
            (0.5, f64::NAN, "overwrite fraction"),
        ] {
            match ftl.precondition(fill, overwrite, &mut rng) {
                Err(FtlError::Config(msg)) => assert!(msg.contains(named), "{msg}"),
                other => panic!("fill {fill}, overwrite {overwrite}: {other:?}"),
            }
        }
        assert_eq!(ftl.stats().host_writes, 0, "a refused call wrote nothing");
    }

    #[test]
    fn pressurize_refuses_an_empty_range() {
        let mut ftl = tiny_ftl();
        let mut rng = DetRng::seed_from_u64(1);
        ftl.precondition(0.5, 0.0, &mut rng).unwrap();
        let saved = |ftl: &Ftl| {
            let mut w = CkptWriter::new();
            ftl.ckpt_save(&mut w);
            w.into_bytes()
        };
        let before = saved(&ftl);
        match ftl.pressurize(0, &mut rng) {
            Err(FtlError::Config(msg)) => assert!(msg.contains("nonempty"), "{msg}"),
            other => panic!("pressurize(0): {other:?}"),
        }
        assert!(saved(&ftl) == before, "a refused call changed the FTL");
    }

    #[test]
    fn endurance_limit_retires_blocks_until_device_eol() {
        use nssd_sim::Rng;
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.endurance_limit = Some(2);
        let mut ftl = Ftl::new(cfg).unwrap();
        let mut rng = DetRng::seed_from_u64(9);
        ftl.precondition(0.7, 0.0, &mut rng).unwrap();
        let hot = (ftl.logical_pages() * 7 / 10).max(1);
        // Churn overwrites; at 2 P/E cycles the device retires blocks and
        // eventually reaches end-of-life (OutOfSpace) — both are correct.
        let mut eol = false;
        for _ in 0..200_000 {
            if ftl.needs_gc() && ftl.instant_gc(&mut rng).is_err() {
                eol = true;
                break;
            }
            let lpn = Lpn::new(rng.gen_range(0..hot));
            match ftl.write(lpn) {
                Ok(_) => {}
                Err(FtlError::OutOfSpace) => {
                    eol = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            ftl.blocks().retired_blocks() > 0,
            "sustained churn at a 2-cycle endurance limit must retire blocks (eol={eol})"
        );
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        for (pbn, meta) in ftl.blocks().iter() {
            if meta.state() == crate::BlockState::Bad {
                assert!(meta.erase_count() >= 2, "block {pbn} retired early");
            }
        }
    }

    #[test]
    fn manufacture_bad_blocks_spare_plane_minimum() {
        let mut ftl = tiny_ftl();
        let mut rng = DetRng::seed_from_u64(11);
        // Rate 1.0 would retire everything; the per-plane floor must hold.
        let marked = ftl.mark_manufacture_bad(1.0, &mut rng);
        assert!(marked > 0);
        let g = *ftl.geometry();
        for unit in 0..g.plane_count() as usize {
            assert!(ftl.blocks().free_blocks_in_plane(unit) >= 2);
        }
        // The device still takes writes.
        ftl.write(Lpn::new(0)).unwrap();
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn retire_block_counts_failed_erase() {
        let mut ftl = tiny_ftl();
        let out = ftl.write(Lpn::new(0)).unwrap();
        ftl.trim(Lpn::new(0)).unwrap();
        let pbn = ftl.geometry().pbn_of(out.ppn);
        ftl.retire_block(pbn);
        assert_eq!(ftl.blocks().meta(pbn).state(), crate::BlockState::Bad);
        assert_eq!(ftl.stats().erases, 1);
        assert_eq!(ftl.stats().blocks_retired, 1);
    }

    #[test]
    fn fail_chip_without_parity_loses_every_live_page_on_chip() {
        let mut ftl = tiny_ftl();
        let filled = ftl.logical_pages() / 2;
        for l in 0..filled {
            ftl.write(Lpn::new(l)).unwrap();
        }
        let g = *ftl.geometry();
        let on_dead_chip: Vec<Lpn> = (0..filled)
            .map(Lpn::new)
            .filter(|&l| {
                let a = g.page_addr(ftl.lookup(l).unwrap());
                a.channel == 0 && a.way == 1
            })
            .collect();
        assert!(!on_dead_chip.is_empty(), "fill pattern must touch the chip");
        let out = ftl.fail_chip(0, 1);
        // Fail-stop without parity: everything on the chip is gone, and
        // the outcome names exactly those LPNs.
        assert_eq!(out.lost, on_dead_chip);
        assert_eq!(out.pages_degraded, 0);
        assert_eq!(ftl.dead_chip(), None);
        assert_eq!(
            out.blocks_retired,
            g.block_count() / (g.channels as u64 * g.ways as u64)
        );
        for &l in &on_dead_chip {
            assert_eq!(ftl.lookup(l), None);
        }
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
        // The device still takes writes, and never onto the dead chip.
        let mut rng = DetRng::seed_from_u64(17);
        for l in 0..filled {
            if ftl.needs_gc() {
                ftl.instant_gc(&mut rng).unwrap();
            }
            let w = match ftl.write(Lpn::new(l)) {
                Ok(w) => w,
                Err(FtlError::OutOfSpace) => {
                    ftl.instant_gc(&mut rng).unwrap();
                    ftl.write(Lpn::new(l)).unwrap()
                }
                Err(e) => panic!("unexpected error: {e}"),
            };
            let a = g.page_addr(w.ppn);
            assert!(!(a.channel == 0 && a.way == 1));
        }
    }

    #[test]
    fn fail_chip_redundant_keeps_mappings_for_reconstruction() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.redundancy = RedundancyConfig::with_stripe(2);
        let mut ftl = Ftl::new(cfg).unwrap();
        // Parity reserves 1/stripe_width of the logical space.
        let expect = (Geometry::tiny().page_count() as f64 * 0.875).floor() as u64 / 2;
        assert_eq!(ftl.logical_pages(), expect);
        let filled = ftl.logical_pages();
        for l in 0..filled {
            ftl.write(Lpn::new(l)).unwrap();
        }
        let g = *ftl.geometry();
        let out = ftl.fail_chip(0, 1);
        assert!(out.lost.is_empty());
        assert!(out.pages_degraded > 0);
        assert_eq!(ftl.dead_chip(), Some((0, 1)));
        // Every page stays mapped; the ones on the dead chip are flagged
        // degraded and enumerate as the rebuild backlog.
        let mut degraded = 0u64;
        for l in 0..filled {
            let ppn = ftl.lookup(Lpn::new(l)).expect("mapping must survive");
            if ftl.is_degraded_page(ppn) {
                degraded += 1;
            }
        }
        assert_eq!(degraded, out.pages_degraded);
        let backlog = ftl.degraded_pages();
        assert_eq!(backlog.len() as u64, out.pages_degraded);
        for &(_, ppn) in &backlog {
            assert!(ftl.is_degraded_page(ppn));
        }
        // Survivor addressing finds one peer per degraded page in a
        // width-2 stripe, on the other channel of the group.
        let r = ftl.redundancy();
        for &(_, ppn) in &backlog {
            let s: Vec<_> = r.survivors(g.page_addr(ppn)).collect();
            assert_eq!(s.len(), 1);
            assert_ne!(s[0].channel, 0);
        }
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");

        // Simulate a rebuild: re-place every backlog page, retire drained
        // blocks, then clear the dead chip.
        let all = WayMask::all(g.ways);
        for (lpn, src) in backlog {
            let rel = ftl.relocate_to(lpn, src, all, GcStream::Gc).unwrap();
            assert!(rel.is_some(), "backlog page must still be live");
        }
        ftl.clear_dead_chip();
        assert_eq!(ftl.dead_chip(), None);
        assert_eq!(ftl.degraded_pages().len(), 0);
        for l in 0..filled {
            let ppn = ftl.lookup(Lpn::new(l)).expect("page lost in rebuild");
            let a = g.page_addr(ppn);
            assert!(!(a.channel == 0 && a.way == 1));
        }
        let problems = ftl.check_invariants();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn dead_chip_roundtrips_through_checkpoint() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.gc.victims_per_trigger = 2;
        cfg.redundancy = RedundancyConfig::with_stripe(2);
        let mut ftl = Ftl::new(cfg).unwrap();
        for l in 0..ftl.logical_pages() {
            ftl.write(Lpn::new(l)).unwrap();
        }
        ftl.fail_chip(1, 0);
        let mut w = CkptWriter::new();
        ftl.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Ftl::new(cfg).unwrap();
        let mut r = CkptReader::new(&bytes);
        restored.ckpt_load(&mut r).unwrap();
        assert_eq!(restored.dead_chip(), Some((1, 0)));
        assert_eq!(restored.degraded_pages(), ftl.degraded_pages());
    }

    #[test]
    fn redundancy_config_rejected_by_ftl_validate() {
        let mut cfg = FtlConfig::evaluation_defaults();
        cfg.geometry = Geometry::tiny();
        cfg.redundancy = RedundancyConfig::with_stripe(4);
        match Ftl::new(cfg) {
            Err(FtlError::Config(msg)) => assert!(msg.contains("stripe"), "{msg}"),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    /// The index-backed `has_reclaimable_block` agrees with its definition
    /// (some Full block off the dead chip holds an invalid page) on random
    /// states, with and without a dead chip, including states where the
    /// only garbage sits on the dead chip.
    #[test]
    fn has_reclaimable_block_agrees_with_the_scan() {
        use crate::victim::eligible;
        use nssd_sim::Rng;
        let mut gen = DetRng::seed_from_u64(0x2EC1);
        let mut seen = [[false; 2]; 2];
        for case in 0..crate::CASES {
            let mut cfg = FtlConfig::evaluation_defaults();
            cfg.geometry = Geometry::tiny();
            cfg.gc.victims_per_trigger = 2;
            cfg.redundancy = RedundancyConfig::with_stripe(2);
            let mut ftl = Ftl::new(cfg).unwrap();
            let g = *ftl.geometry();
            let logical = ftl.logical_pages();
            let dead = gen.gen_bool(0.5);
            // Garbage made only on chip (0, 1) is all on the dead chip once
            // it fails.
            let on_chip_only = gen.gen_bool(0.5);
            let writes = gen.gen_range(0..=logical);
            for l in 0..writes {
                ftl.write(Lpn::new(l)).unwrap();
            }
            let trims = gen.gen_range(0..logical / 2);
            for _ in 0..trims {
                let lpn = Lpn::new(gen.gen_range(0..logical));
                let on_chip = ftl.lookup(lpn).is_some_and(|ppn| {
                    let a = g.page_addr(ppn);
                    (a.channel, a.way) == (0, 1)
                });
                if on_chip || !on_chip_only {
                    ftl.trim(lpn).unwrap();
                }
            }
            if dead {
                ftl.fail_chip(0, 1);
            }
            let all = WayMask::all(g.ways);
            let want = ftl
                .blocks()
                .iter()
                .any(|(pbn, _)| eligible(ftl.blocks(), pbn, all) && !ftl.on_dead_chip(pbn));
            assert_eq!(ftl.has_reclaimable_block(), want, "case {case}");
            seen[dead as usize][want as usize] = true;
        }
        assert_eq!(
            seen, [[true; 2]; 2],
            "both answers, with and without a dead chip"
        );
    }

    #[test]
    fn live_pages_reports_owners() {
        let mut ftl = tiny_ftl();
        let out = ftl.write(Lpn::new(9)).unwrap();
        let pbn = ftl.geometry().pbn_of(out.ppn);
        let live = ftl.live_pages(pbn);
        assert_eq!(live, vec![(Lpn::new(9), out.ppn)]);
    }
}
