//! Write-page allocation with configurable striping policies.
//!
//! The paper's synthetic studies (Figs 16/17) hinge on the FTL's *page
//! allocation scheme*: the order in which consecutive writes stripe across
//! the parallelism dimensions. PCWD spreads consecutive pages over planes
//! then channels (balanced channel load); PWCD spreads planes then ways,
//! concentrating consecutive pages on one channel (imbalanced load that
//! pnSSD's path diversity absorbs).

use core::fmt;

use nssd_flash::{Geometry, Ppn};
use nssd_sim::{CkptError, CkptReader, CkptWriter};

use crate::BlockTable;

/// A set of permitted ways (columns), used by spatial GC to confine user
/// writes to the I/O group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// Permits all `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64.
    pub fn all(ways: u32) -> Self {
        assert!(ways > 0 && ways <= 64, "way count must be in 1..=64");
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Permits exactly the listed ways.
    pub fn from_ways<I: IntoIterator<Item = u32>>(ways: I) -> Self {
        let mut bits = 0u64;
        for w in ways {
            assert!(w < 64, "way index {w} out of range");
            bits |= 1 << w;
        }
        assert!(bits != 0, "way mask must permit at least one way");
        WayMask(bits)
    }

    /// Whether `way` is permitted.
    pub fn contains(&self, way: u32) -> bool {
        way < 64 && self.0 & (1 << way) != 0
    }

    /// Number of permitted ways.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// The permitted way indices, ascending.
    pub fn ways(&self) -> Vec<u32> {
        (0..64).filter(|&w| self.contains(w)).collect()
    }

    /// The complementary mask within a device of `total` ways.
    ///
    /// # Panics
    ///
    /// Panics if the complement would be empty.
    pub fn complement(&self, total: u32) -> WayMask {
        let all = WayMask::all(total);
        let bits = all.0 & !self.0;
        assert!(bits != 0, "complement mask is empty");
        WayMask(bits)
    }

    /// The raw permitted-way bits, for checkpointing.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuilds a mask from bits captured by [`WayMask::bits`].
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] if the bits are empty or permit a way at or
    /// beyond `total_ways`.
    pub fn from_bits(bits: u64, total_ways: u32) -> Result<WayMask, CkptError> {
        if bits == 0 {
            return Err(CkptError::Invalid("way mask permits no ways".into()));
        }
        let all = WayMask::all(total_ways);
        if bits & !all.0 != 0 {
            return Err(CkptError::Invalid(format!(
                "way mask {bits:#x} permits ways beyond {total_ways}"
            )));
        }
        Ok(WayMask(bits))
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways{:?}", self.ways())
    }
}

/// Page allocation striping order (SimpleSSD-style letter notation: listed
/// dimensions vary fastest-first for consecutive pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// Plane → Channel → Way → Die: channel parallelism prioritized
    /// (the balanced scheme of Fig 16).
    Pcwd,
    /// Plane → Way → Channel → Die: way parallelism prioritized, creating
    /// channel imbalance (Fig 17).
    Pwcd,
    /// Channel → Way → Die → Plane: pure channel-first striping, an ablation
    /// point without plane grouping.
    Cwdp,
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AllocPolicy::Pcwd => "PCWD",
            AllocPolicy::Pwcd => "PWCD",
            AllocPolicy::Cwdp => "CWDP",
        };
        f.write_str(s)
    }
}

/// Error returned when no permitted plane has a free block left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSpace;

impl fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no free block available in any permitted plane")
    }
}

impl std::error::Error for OutOfSpace {}

/// A striping write allocator with one open block per plane.
///
/// # Examples
///
/// ```
/// use nssd_flash::Geometry;
/// use nssd_ftl::{AllocPolicy, BlockTable, PageAllocator, WayMask};
///
/// let g = Geometry::tiny();
/// let mut blocks = BlockTable::new(&g);
/// let mut alloc = PageAllocator::new(&g, AllocPolicy::Pcwd);
/// let mask = WayMask::all(g.ways);
///
/// let a = alloc.allocate(&mut blocks, mask).unwrap();
/// let b = alloc.allocate(&mut blocks, mask).unwrap();
/// // Consecutive pages land on different planes (plane varies fastest).
/// assert_ne!(g.page_addr(a).plane, g.page_addr(b).plane);
/// ```
#[derive(Debug, Clone)]
pub struct PageAllocator {
    policy: AllocPolicy,
    seq: u64,
    open: Vec<Option<nssd_flash::Pbn>>,
    /// Open frontiers per way, derived from `open` (never serialized): a
    /// starved allocation fails in constant time when its mask has none.
    open_per_way: Vec<u32>,
    /// Plane units per chip (`dies × planes`), to find a unit's way.
    chip_units: usize,
}

/// Stripe digit positions: `(channel, way_index, die, plane)`.
const CHANNEL: usize = 0;
const WAY: usize = 1;
const DIE: usize = 2;
const PLANE: usize = 3;

impl AllocPolicy {
    /// The stripe digits, fastest-varying first.
    fn digit_order(self) -> [usize; 4] {
        match self {
            AllocPolicy::Pcwd => [PLANE, CHANNEL, WAY, DIE],
            AllocPolicy::Pwcd => [PLANE, WAY, CHANNEL, DIE],
            AllocPolicy::Cwdp => [CHANNEL, WAY, DIE, PLANE],
        }
    }
}

/// A cursor over plane units in stripe order. It decodes a sequence
/// number once into digits, then steps them like an odometer: the digits
/// depend only on the sequence number modulo the unit count, so the top
/// digit wraps.
struct StripeWalk {
    order: [usize; 4],
    radix: [u32; 4],
    /// `(channel, way_index, die, plane)`, indexed by the digit constants.
    digit: [u32; 4],
    /// The permitted ways, ascending: the way digit selects from these.
    ways: [u8; 64],
    /// Ways, dies and planes of the geometry, to turn digits into a unit.
    shape: [u32; 3],
}

impl StripeWalk {
    /// Plane units in one stripe over the ways in `way_bits`.
    fn units(g: &Geometry, way_bits: u64) -> u64 {
        g.planes as u64 * g.channels as u64 * way_bits.count_ones() as u64 * g.dies as u64
    }

    /// The walk from `seq` over the (nonempty) ways in `way_bits`.
    fn new(policy: AllocPolicy, g: &Geometry, way_bits: u64, seq: u64) -> Self {
        let way_count = way_bits.count_ones();
        let order = policy.digit_order();
        let radix = [g.channels, way_count, g.dies, g.planes];
        let mut digit = [0u32; 4];
        let mut s = seq;
        for i in order {
            let r = radix[i] as u64;
            digit[i] = (s % r) as u32;
            s /= r;
        }
        let mut ways = [0u8; 64];
        let mut bits = way_bits;
        for slot in &mut ways[..way_count as usize] {
            *slot = bits.trailing_zeros() as u8;
            bits &= bits - 1;
        }
        StripeWalk {
            order,
            radix,
            digit,
            ways,
            shape: [g.ways, g.dies, g.planes],
        }
    }

    /// The current plane unit (units are chip-major, chips channel-major)
    /// and its way.
    fn unit(&self) -> (usize, usize) {
        let [ways, dies, planes] = self.shape.map(|n| n as usize);
        let way = self.ways[self.digit[WAY] as usize] as usize;
        let chip = self.digit[CHANNEL] as usize * ways + way;
        let unit = (chip * dies + self.digit[DIE] as usize) * planes + self.digit[PLANE] as usize;
        (unit, way)
    }

    /// Advances to the next unit in stripe order.
    fn step(&mut self) {
        for i in self.order {
            self.digit[i] += 1;
            if self.digit[i] < self.radix[i] {
                return;
            }
            self.digit[i] = 0;
        }
    }
}

impl PageAllocator {
    /// Creates an allocator for `geometry` with the given striping policy.
    pub fn new(geometry: &Geometry, policy: AllocPolicy) -> Self {
        PageAllocator {
            policy,
            seq: 0,
            open: vec![None; geometry.plane_count() as usize],
            open_per_way: vec![0; geometry.ways as usize],
            chip_units: (geometry.dies * geometry.planes) as usize,
        }
    }

    /// The striping policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// The way a plane unit belongs to (units are chip-major, chips
    /// channel-major).
    fn way_of(&self, unit: usize) -> usize {
        (unit / self.chip_units) % self.open_per_way.len()
    }

    /// Sets `unit`'s frontier, keeping the per-way count in step.
    fn set_open(&mut self, unit: usize, way: usize, slot: Option<nssd_flash::Pbn>) {
        match (self.open[unit].is_some(), slot.is_some()) {
            (false, true) => self.open_per_way[way] += 1,
            (true, false) => self.open_per_way[way] -= 1,
            _ => {}
        }
        self.open[unit] = slot;
    }

    /// Allocates (programs) the next physical page, striping per policy and
    /// confined to `mask`'s ways.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSpace`] if every permitted plane is exhausted.
    pub fn allocate(&mut self, blocks: &mut BlockTable, mask: WayMask) -> Result<Ppn, OutOfSpace> {
        self.allocate_with_reserve(blocks, mask, 0)
    }

    /// Like [`PageAllocator::allocate`], but refuses to *open a new block*
    /// while the device-wide free-block count is at or below `reserve`.
    /// Already-open blocks keep accepting pages, so the reserve throttles
    /// block consumption without stranding open-page capacity. The FTL uses
    /// this to keep free blocks back for GC relocations.
    ///
    /// A call tries plane units in stripe order from the sequence number,
    /// which advances by one per unit tried. A failed call advances it by
    /// the full unit count however the failure was found, so the placement
    /// of later pages does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSpace`] when no open block has room and no block can
    /// be taken without dipping into the reserve.
    pub fn allocate_with_reserve(
        &mut self,
        blocks: &mut BlockTable,
        mask: WayMask,
        reserve: u64,
    ) -> Result<Ppn, OutOfSpace> {
        let g = *blocks.geometry();
        let way_bits = mask.bits() & WayMask::all(g.ways).bits();
        if way_bits == 0 {
            return Err(OutOfSpace);
        }
        let units = StripeWalk::units(&g, way_bits);
        // At or below the reserve only an open frontier can take a page; with
        // none in the mask, the scan below would visit every unit in vain.
        let starved = blocks.free_blocks() <= reserve;
        if starved && !self.has_open_frontier(way_bits) {
            self.seq += units;
            return Err(OutOfSpace);
        }
        let mut walk = StripeWalk::new(self.policy, &g, way_bits, self.seq);
        for _ in 0..units {
            self.seq += 1;
            let (unit, way) = walk.unit();
            // Program into the open block, replacing it when exhausted. A
            // block is released from `open` the moment it fills, so garbage
            // collection (which only reclaims Full blocks) can never erase a
            // block the allocator still points at.
            if let Some(pbn) = self.open[unit] {
                if let Some(ppn) = blocks.program_next_page(pbn) {
                    if blocks.meta(pbn).state() == crate::BlockState::Full {
                        self.set_open(unit, way, None);
                    }
                    return Ok(ppn);
                }
                self.set_open(unit, way, None);
            }
            if !starved {
                if let Some(pbn) = blocks.take_free_block(unit) {
                    let ppn = blocks
                        .program_next_page(pbn)
                        .expect("fresh block must accept a page");
                    let open = (blocks.meta(pbn).state() != crate::BlockState::Full).then_some(pbn);
                    self.set_open(unit, way, open);
                    return Ok(ppn);
                }
            }
            // This plane is exhausted; try the next unit in stripe order.
            walk.step();
        }
        Err(OutOfSpace)
    }

    /// Programs up to `max` consecutive pages into the open frontiers, in
    /// the stripe order and with the sequence numbers that as many
    /// [`PageAllocator::allocate_with_reserve`] calls would give them, and
    /// returns how many it programmed. Each page goes to `place`, which
    /// returns the page it supersedes, if any, for the run to invalidate.
    ///
    /// The run stops at the first unit in stripe order without an open
    /// frontier that has room: a call there would take a free block or
    /// skip the unit, so it is left to `allocate_with_reserve`. A run
    /// therefore takes no block and leaves the free-block count, and with
    /// it any reserve decision, as it found them.
    pub(crate) fn allocate_run(
        &mut self,
        blocks: &mut BlockTable,
        mask: WayMask,
        max: u64,
        mut place: impl FnMut(Ppn) -> Option<Ppn>,
    ) -> u64 {
        let g = *blocks.geometry();
        let way_bits = mask.bits() & WayMask::all(g.ways).bits();
        if way_bits == 0 {
            return 0;
        }
        let mut walk = StripeWalk::new(self.policy, &g, way_bits, self.seq);
        let mut done = 0;
        while done < max {
            let (unit, way) = walk.unit();
            let Some(pbn) = self.open[unit] else { break };
            let Some(ppn) = blocks.program_next_page(pbn) else {
                break;
            };
            if blocks.meta(pbn).state() == crate::BlockState::Full {
                self.set_open(unit, way, None);
            }
            self.seq += 1;
            done += 1;
            if let Some(old) = place(ppn) {
                blocks.invalidate(old);
            }
            walk.step();
        }
        done
    }

    /// Whether any way in `way_bits` has an open frontier.
    fn has_open_frontier(&self, way_bits: u64) -> bool {
        let mut bits = way_bits;
        while bits != 0 {
            if self.open_per_way[bits.trailing_zeros() as usize] != 0 {
                return true;
            }
            bits &= bits - 1;
        }
        false
    }

    /// Serializes the stripe sequence counter and the per-plane open-block
    /// frontier (the policy is configuration).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_u64(self.seq);
        w.put_usize(self.open.len());
        for slot in &self.open {
            match slot {
                Some(pbn) => {
                    w.put_bool(true);
                    w.put_u64(pbn.raw());
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Restores state saved by [`PageAllocator::ckpt_save`] into an
    /// allocator built for the same geometry and policy.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a plane-count mismatch, or an open
    /// block outside the device.
    pub fn ckpt_load(&mut self, r: &mut CkptReader, block_count: u64) -> Result<(), CkptError> {
        let seq = r.take_u64()?;
        let n = r.take_usize()?;
        if n != self.open.len() {
            return Err(CkptError::Invalid(format!(
                "allocator has {n} planes in checkpoint, {} configured",
                self.open.len()
            )));
        }
        let mut open = Vec::with_capacity(n);
        for _ in 0..n {
            if r.take_bool()? {
                let raw = r.take_u64()?;
                if raw >= block_count {
                    return Err(CkptError::Invalid(format!(
                        "open block {raw} outside device of {block_count} blocks"
                    )));
                }
                open.push(Some(nssd_flash::Pbn::new(raw)));
            } else {
                open.push(None);
            }
        }
        self.open_per_way.fill(0);
        for (unit, slot) in open.iter().enumerate() {
            if slot.is_some() {
                let way = self.way_of(unit);
                self.open_per_way[way] += 1;
            }
        }
        self.seq = seq;
        self.open = open;
        Ok(())
    }

    /// Drops every open-block frontier whose block satisfies `retire`.
    /// Open blocks accept programs regardless of free-list state, so a
    /// fail-stop chip removal must close its frontiers or the allocator
    /// would keep writing into the dead chip.
    pub fn close_open_blocks(&mut self, retire: impl Fn(nssd_flash::Pbn) -> bool) {
        for unit in 0..self.open.len() {
            if self.open[unit].is_some_and(&retire) {
                let way = self.way_of(unit);
                self.set_open(unit, way, None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nssd_sim::{DetRng, Rng};
    use std::collections::HashSet;

    fn setup(policy: AllocPolicy) -> (Geometry, BlockTable, PageAllocator) {
        let g = Geometry::tiny();
        let blocks = BlockTable::new(&g);
        let alloc = PageAllocator::new(&g, policy);
        (g, blocks, alloc)
    }

    /// The stripe walk as first written, kept as the reference model for
    /// [`PageAllocator::allocate_with_reserve`]: every unit's sequence
    /// number is decoded anew with divisions, and a failure is only
    /// known after every permitted unit has been visited.
    struct ScanAllocator {
        policy: AllocPolicy,
        seq: u64,
        open: Vec<Option<nssd_flash::Pbn>>,
    }

    impl ScanAllocator {
        fn new(geometry: &Geometry, policy: AllocPolicy) -> Self {
            ScanAllocator {
                policy,
                seq: 0,
                open: vec![None; geometry.plane_count() as usize],
            }
        }

        /// Decodes a sequence number into `(channel, way_index, die, plane)`.
        fn decode(&self, mut s: u64, g: &Geometry, permitted_ways: u32) -> (u32, u32, u32, u32) {
            let p = g.planes as u64;
            let c = g.channels as u64;
            let w = permitted_ways as u64;
            let d = g.dies as u64;
            match self.policy {
                AllocPolicy::Pcwd => {
                    let plane = (s % p) as u32;
                    s /= p;
                    let channel = (s % c) as u32;
                    s /= c;
                    let way_i = (s % w) as u32;
                    s /= w;
                    let die = (s % d) as u32;
                    (channel, way_i, die, plane)
                }
                AllocPolicy::Pwcd => {
                    let plane = (s % p) as u32;
                    s /= p;
                    let way_i = (s % w) as u32;
                    s /= w;
                    let channel = (s % c) as u32;
                    s /= c;
                    let die = (s % d) as u32;
                    (channel, way_i, die, plane)
                }
                AllocPolicy::Cwdp => {
                    let channel = (s % c) as u32;
                    s /= c;
                    let way_i = (s % w) as u32;
                    s /= w;
                    let die = (s % d) as u32;
                    s /= d;
                    let plane = (s % p) as u32;
                    (channel, way_i, die, plane)
                }
            }
        }

        /// The plane unit the next call under `mask` tries first, if the
        /// mask permits any way of `g`.
        fn next_unit(&self, g: &Geometry, mask: WayMask) -> Option<usize> {
            let way_bits = mask.bits() & WayMask::all(g.ways).bits();
            if way_bits == 0 {
                return None;
            }
            let (channel, way_i, die, plane) = self.decode(self.seq, g, way_bits.count_ones());
            let mut bits = way_bits;
            for _ in 0..way_i {
                bits &= bits - 1;
            }
            let way = bits.trailing_zeros();
            Some(
                ((g.chip_index(channel, way) as u64 * g.dies as u64 + die as u64) * g.planes as u64
                    + plane as u64) as usize,
            )
        }

        fn allocate_with_reserve(
            &mut self,
            blocks: &mut BlockTable,
            mask: WayMask,
            reserve: u64,
        ) -> Result<Ppn, OutOfSpace> {
            let g = *blocks.geometry();
            let way_bits = mask.bits() & WayMask::all(g.ways).bits();
            let way_count = way_bits.count_ones();
            if way_count == 0 {
                return Err(OutOfSpace);
            }
            let units = g.planes as u64 * g.channels as u64 * way_count as u64 * g.dies as u64;
            for _ in 0..units {
                let (channel, way_i, die, plane) = self.decode(self.seq, &g, way_count);
                self.seq += 1;
                let way = {
                    let mut bits = way_bits;
                    for _ in 0..way_i {
                        bits &= bits - 1;
                    }
                    bits.trailing_zeros()
                };
                let unit = ((g.chip_index(channel, way) as u64 * g.dies as u64 + die as u64)
                    * g.planes as u64
                    + plane as u64) as usize;
                if let Some(pbn) = self.open[unit] {
                    if let Some(ppn) = blocks.program_next_page(pbn) {
                        if blocks.meta(pbn).state() == crate::BlockState::Full {
                            self.open[unit] = None;
                        }
                        return Ok(ppn);
                    }
                    self.open[unit] = None;
                }
                if blocks.free_blocks() > reserve {
                    if let Some(pbn) = blocks.take_free_block(unit) {
                        let ppn = blocks
                            .program_next_page(pbn)
                            .expect("fresh block must accept a page");
                        self.open[unit] =
                            (blocks.meta(pbn).state() != crate::BlockState::Full).then_some(pbn);
                        return Ok(ppn);
                    }
                }
            }
            Err(OutOfSpace)
        }

        fn close_open_blocks(&mut self, retire: impl Fn(nssd_flash::Pbn) -> bool) {
            for slot in &mut self.open {
                if slot.is_some_and(&retire) {
                    *slot = None;
                }
            }
        }

        /// The same wire format as [`PageAllocator::ckpt_save`].
        fn ckpt_save(&self, w: &mut CkptWriter) {
            w.put_u64(self.seq);
            w.put_usize(self.open.len());
            for slot in &self.open {
                match slot {
                    Some(pbn) => {
                        w.put_bool(true);
                        w.put_u64(pbn.raw());
                    }
                    None => w.put_bool(false),
                }
            }
        }
    }

    fn saved(save: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
        let mut w = CkptWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    /// A random way mask: usually a subset of the device's ways, sometimes
    /// one naming only a way beyond the geometry (clipped to nothing).
    fn random_mask(rng: &mut DetRng, ways: u32) -> WayMask {
        if rng.gen_bool(0.02) {
            return WayMask::from_ways([ways]);
        }
        WayMask::from_bits(rng.gen_range(1..1u64 << ways), ways).unwrap()
    }

    /// Invalidates every page of a random full block and erases it, on
    /// both tables alike.
    fn free_a_block(rng: &mut DetRng, tables: [&mut BlockTable; 2]) {
        let n = tables[0].geometry().block_count();
        let start = rng.gen_range(0..n);
        let Some(pbn) = (0..n)
            .map(|i| nssd_flash::Pbn::new((start + i) % n))
            .find(|&b| tables[0].meta(b).state() == crate::BlockState::Full)
        else {
            return;
        };
        for t in tables {
            for ppn in t.valid_pages(pbn) {
                t.invalidate(ppn);
            }
            assert!(t.erase(pbn));
        }
    }

    /// The odometer walk with its constant-time failure answers every call
    /// exactly as the reference scan does: same page or error, same
    /// sequence number, same checkpoint bytes — across every policy,
    /// changing masks, reserves on both sides of the free count, blocks
    /// freed and frontiers closed mid-sequence, and a checkpoint round trip.
    /// A run of k pages equals as many reference calls, up to the first
    /// unit without an open frontier, with every other page of the run
    /// superseding the one before it.
    #[test]
    fn stripe_walk_matches_the_reference_scan() {
        let mut rng = DetRng::seed_from_u64(0x0D0_3E7E);
        let geometries = [
            Geometry::tiny(),
            Geometry {
                channels: 3,
                ways: 5,
                dies: 2,
                planes: 2,
                blocks_per_plane: 4,
                pages_per_block: 4,
                page_bytes: 4096,
            },
        ];
        let policies = [AllocPolicy::Pcwd, AllocPolicy::Pwcd, AllocPolicy::Cwdp];
        for case in 0..crate::CASES {
            let g = geometries[case % geometries.len()];
            let policy = policies[rng.gen_range(0..policies.len())];
            let mut blocks = BlockTable::new(&g);
            let mut model_blocks = blocks.clone();
            let mut alloc = PageAllocator::new(&g, policy);
            let mut model = ScanAllocator::new(&g, policy);
            let fixed_mask = random_mask(&mut rng, g.ways);
            let mask_per_call = rng.gen_bool(0.5);
            let steps = rng.gen_range(1..3 * g.page_count() as usize);
            let ckpt_at = rng.gen_range(0..steps);
            for step in 0..steps {
                if step == ckpt_at {
                    let bytes = saved(|w| alloc.ckpt_save(w));
                    alloc = PageAllocator::new(&g, policy);
                    let mut r = CkptReader::new(&bytes);
                    alloc.ckpt_load(&mut r, g.block_count()).unwrap();
                    r.finish().unwrap();
                }
                let mask = if mask_per_call {
                    random_mask(&mut rng, g.ways)
                } else {
                    fixed_mask
                };
                match rng.gen_range(0..20u64) {
                    0 | 1 => free_a_block(&mut rng, [&mut blocks, &mut model_blocks]),
                    2 => {
                        let (m, r) = (rng.gen_range(2..5u64), rng.gen_range(0..2u64));
                        alloc.close_open_blocks(|pbn| pbn.raw() % m == r);
                        model.close_open_blocks(|pbn| pbn.raw() % m == r);
                    }
                    3 => {
                        let k = rng.gen_range(1..=2 * g.plane_count());
                        let mut got = Vec::new();
                        let ran = alloc.allocate_run(&mut blocks, mask, k, |ppn| {
                            got.push(ppn);
                            (got.len() % 2 == 0).then(|| got[got.len() - 2])
                        });
                        assert_eq!(ran, got.len() as u64, "case {case} step {step}");
                        let mut want = Vec::new();
                        while (want.len() as u64) < k {
                            let Some(unit) = model.next_unit(&g, mask) else {
                                break;
                            };
                            if model.open[unit].is_none() {
                                break;
                            }
                            // An unbounded reserve lets the reference only
                            // program open frontiers, as a run does.
                            let ppn = model
                                .allocate_with_reserve(&mut model_blocks, mask, u64::MAX)
                                .unwrap();
                            want.push(ppn);
                            if want.len() % 2 == 0 {
                                model_blocks.invalidate(want[want.len() - 2]);
                            }
                        }
                        assert_eq!(
                            got, want,
                            "case {case} step {step}: run of {k} {policy} {mask}"
                        );
                    }
                    _ => {
                        let free = blocks.free_blocks();
                        let reserve = match rng.gen_range(0..3u64) {
                            0 => 0,
                            1 => free.saturating_sub(rng.gen_range(0..3u64)),
                            _ => free + rng.gen_range(0..3u64),
                        };
                        let got = alloc.allocate_with_reserve(&mut blocks, mask, reserve);
                        let want = model.allocate_with_reserve(&mut model_blocks, mask, reserve);
                        assert_eq!(got, want, "case {case} step {step}: {policy} {mask}");
                    }
                }
                assert_eq!(alloc.seq, model.seq, "case {case} step {step}");
                assert_eq!(
                    saved(|w| alloc.ckpt_save(w)),
                    saved(|w| model.ckpt_save(w)),
                    "case {case} step {step}"
                );
                let mut recount = vec![0; g.ways as usize];
                for pbn in alloc.open.iter().flatten() {
                    recount[g.block_addr(*pbn).way as usize] += 1;
                }
                assert_eq!(alloc.open_per_way, recount, "case {case} step {step}");
            }
            assert_eq!(
                saved(|w| blocks.ckpt_save(w)),
                saved(|w| model_blocks.ckpt_save(w)),
                "case {case}"
            );
        }
    }

    #[test]
    fn pcwd_varies_plane_then_channel() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        let addrs: Vec<_> = (0..4)
            .map(|_| g.page_addr(alloc.allocate(&mut blocks, mask).unwrap()))
            .collect();
        // First 2 allocations: planes 0,1 on channel 0; then channel 1.
        assert_eq!((addrs[0].plane, addrs[0].channel), (0, 0));
        assert_eq!((addrs[1].plane, addrs[1].channel), (1, 0));
        assert_eq!((addrs[2].plane, addrs[2].channel), (0, 1));
        assert_eq!((addrs[3].plane, addrs[3].channel), (1, 1));
        // Way stays put until planes × channels are exhausted.
        assert!(addrs.iter().all(|a| a.way == 0));
    }

    #[test]
    fn pwcd_piles_onto_one_channel_first() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pwcd);
        let mask = WayMask::all(g.ways);
        // planes(2) × ways(2) = 4 consecutive pages all on channel 0.
        let addrs: Vec<_> = (0..4)
            .map(|_| g.page_addr(alloc.allocate(&mut blocks, mask).unwrap()))
            .collect();
        assert!(addrs.iter().all(|a| a.channel == 0));
        let ways: HashSet<u32> = addrs.iter().map(|a| a.way).collect();
        assert_eq!(ways.len(), 2);
    }

    #[test]
    fn mask_confines_ways() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::from_ways([1u32]);
        for _ in 0..20 {
            let a = g.page_addr(alloc.allocate(&mut blocks, mask).unwrap());
            assert_eq!(a.way, 1);
        }
    }

    #[test]
    fn allocation_covers_all_planes_evenly() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        let n = g.plane_count() * 4;
        let mut per_plane = std::collections::HashMap::new();
        for _ in 0..n {
            let a = g.page_addr(alloc.allocate(&mut blocks, mask).unwrap());
            *per_plane
                .entry((a.channel, a.way, a.die, a.plane))
                .or_insert(0u64) += 1;
        }
        assert_eq!(per_plane.len(), g.plane_count() as usize);
        assert!(per_plane.values().all(|&v| v == 4));
    }

    #[test]
    fn exhaustion_yields_out_of_space() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let mask = WayMask::all(g.ways);
        for _ in 0..g.page_count() {
            alloc.allocate(&mut blocks, mask).unwrap();
        }
        assert_eq!(alloc.allocate(&mut blocks, mask), Err(OutOfSpace));
    }

    #[test]
    fn exhaustion_of_one_way_spills_to_others_only_with_mask_widened() {
        let (g, mut blocks, mut alloc) = setup(AllocPolicy::Pcwd);
        let narrow = WayMask::from_ways([0u32]);
        let per_way = g.page_count() / g.ways as u64;
        for _ in 0..per_way {
            alloc.allocate(&mut blocks, narrow).unwrap();
        }
        assert_eq!(alloc.allocate(&mut blocks, narrow), Err(OutOfSpace));
        // Widening the mask makes the rest of the device reachable.
        assert!(alloc.allocate(&mut blocks, WayMask::all(g.ways)).is_ok());
    }

    #[test]
    fn way_mask_basics() {
        let m = WayMask::all(8);
        assert_eq!(m.count(), 8);
        let lo = WayMask::from_ways(0..4);
        assert_eq!(lo.ways(), vec![0, 1, 2, 3]);
        let hi = lo.complement(8);
        assert_eq!(hi.ways(), vec![4, 5, 6, 7]);
        assert!(lo.contains(2) && !lo.contains(5));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_rejected() {
        let _ = WayMask::from_ways(std::iter::empty());
    }

    #[test]
    fn policies_display() {
        assert_eq!(AllocPolicy::Pcwd.to_string(), "PCWD");
        assert_eq!(AllocPolicy::Pwcd.to_string(), "PWCD");
    }
}
