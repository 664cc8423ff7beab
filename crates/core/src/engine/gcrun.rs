//! Garbage-collection execution: the configured [`GcPlanSpec`] driving a
//! backlog of schedulable copy packets.
//!
//! GC copies are timed pipelines: source command + tR, a data movement
//! delegated to the [`super::FabricBackend`] (staged twice through the
//! controller for bus architectures; once over a shared v-channel directly
//! chip-to-chip for pnSSD; a direct mesh route for NoSSD), then tPROG at
//! the destination, and finally the victim erase. The plan decides
//! everything policy-like, one field at a time:
//!
//! * **victim** — [`select_victims`](nssd_ftl::select_victims) picks the
//!   blocks;
//! * **trigger** — the FTL's watermarks arm ([`Ftl::needs_gc`]), chain
//!   (free ratio below `stop_free_ratio`) and force
//!   ([`Ftl::critically_low`]) events;
//! * **placement** — spatial placement owns the only placement state, the
//!   [`SpatialGroups`] rotation and the GC-group mask of the running
//!   event; the relocation stream comes from [`Ftl::gc_stream`];
//! * **preemption** — run-to-completion chains copies per victim, yielding
//!   launches them through the paced [`super::mover`], GC's batch into
//!   foreground-idle gaps.
//!
//! The fabric decides how bytes move.
//!
//! [`Ftl::needs_gc`]: nssd_ftl::Ftl::needs_gc
//! [`Ftl::critically_low`]: nssd_ftl::Ftl::critically_low
//! [`Ftl::gc_stream`]: nssd_ftl::Ftl::gc_stream

use nssd_flash::{Geometry, Pbn};
use nssd_ftl::{
    select_victims, BlockState, GcConfig, GcPlanSpec, OutOfSpace, PlacementSpec, PreemptionSpec,
    SpatialGroups, WayMask,
};
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::mover::{CopyBacklog, CopyPacket, Mover, MoverCopy};
use super::{Event, SsdSim};
use crate::Traffic;

#[derive(Debug)]
struct VictimState {
    pbn: Pbn,
    copies_left: u32,
    /// The victim's next packet for a run-to-completion chain, and the end
    /// of its slice of the backlog. The victims' slices tile the backlog in
    /// order, so a packet's victim is the block it is copied from.
    next: usize,
    range_end: usize,
}

/// Runtime state of the garbage collector.
#[derive(Debug, Default)]
pub(crate) struct GcRuntime {
    /// The plan being run, or `None` when GC is disabled.
    spec: Option<GcPlanSpec>,
    /// SpGC's way groups; `Some` exactly when the plan's placement is
    /// [`PlacementSpec::Spatial`].
    groups: Option<SpatialGroups>,
    /// The GC-group mask copy destinations are confined to while a spatial
    /// event runs.
    confinement: Option<WayMask>,
    active: bool,
    started_at: SimTime,
    /// Every live page of the event's victims, victim by victim. GC binds
    /// each destination mid-flight, once the copy's read completes.
    pub(crate) backlog: CopyBacklog,
    victims: Vec<VictimState>,
    victims_left: usize,
    /// Do not re-trigger before this time after a starved (victimless)
    /// trigger.
    starved_until: SimTime,
    /// Whether a `GcRetry` is queued for `starved_until` (dedup).
    retry_scheduled: bool,
    /// Copies whose read finished but which found no free page anywhere,
    /// oldest first; they resume when an erase frees space.
    pub(crate) parked: Vec<usize>,
    pub(crate) events_completed: u64,
    pub(crate) total_time: SimTime,
    pub(crate) pages_copied: u64,
    pub(crate) blocks_erased: u64,
    /// Relocations that had to fall back to a wider way mask.
    pub(crate) dest_fallbacks: u64,
}

impl GcRuntime {
    /// The collector for `cfg`'s plan. `total_ways` sizes the spatial
    /// groups; the FTL configuration check has already rejected spatial
    /// placement on fewer than two ways.
    pub(crate) fn new(cfg: &GcConfig, total_ways: u32) -> Self {
        let spec = cfg.plan;
        let groups = spec
            .is_some_and(|s| s.placement == PlacementSpec::Spatial)
            .then(|| SpatialGroups::new(total_ways, cfg.gc_group_fraction));
        GcRuntime {
            spec,
            groups,
            ..GcRuntime::default()
        }
    }

    /// Whether garbage collection is enabled at all.
    pub(crate) fn enabled(&self) -> bool {
        self.spec.is_some()
    }

    /// The running plan, if GC is enabled.
    pub(crate) fn spec(&self) -> Option<GcPlanSpec> {
        self.spec
    }

    /// Victims tracked by the current (or last) GC event.
    pub(crate) fn victim_count(&self) -> usize {
        self.victims.len()
    }

    /// Whether the plan yields its copies to foreground I/O.
    fn yields(&self) -> bool {
        self.spec
            .is_some_and(|s| s.preemption == PreemptionSpec::YieldToIo)
    }

    /// Whether an event is running under a yielding plan, its copies
    /// launched by the paced mover.
    pub(crate) fn paced(&self) -> bool {
        self.active && self.yields()
    }

    /// The victim copy `c` relocates from: the one whose slice holds it.
    fn victim_of(&self, c: usize) -> usize {
        self.victims.partition_point(|v| v.range_end <= c)
    }
}

impl SsdSim {
    /// Begins a GC event if the trigger watermark is reached.
    pub(crate) fn maybe_start_gc(&mut self) {
        if !self.gc.enabled()
            || self.gc.active
            || self.now < self.gc.starved_until
            || !self.ftl.needs_gc()
        {
            return;
        }
        self.start_gc();
    }

    /// Something waits for free space: start GC if its trigger allows, force
    /// preemptive GC ahead, and make sure a wake will come. Returns `false`
    /// when none can: the running GC event is stuck ([`SsdSim::gc_stuck`]),
    /// GC is idle and no block holds a page it could reclaim, or GC is off
    /// and no rebuild is advancing.
    ///
    /// Enabled GC idle after the trigger check means a trigger starved
    /// within the last millisecond: a failed allocation with every way open
    /// leaves the free blocks at or below the GC reserve, which the
    /// configuration keeps below the trigger watermark. One `GcRetry` at
    /// `starved_until` then stands in for every waiter. With GC off, writes
    /// collect instantly as they allocate (`try_allocate`), and only the
    /// rebuild retiring dead-chip blocks changes which victims that finds.
    pub(crate) fn await_space(&mut self) -> bool {
        self.maybe_start_gc();
        self.pump_if_wanted(Mover::Gc);
        if self.gc.active {
            return !self.gc_stuck();
        }
        if self.gc.retry_scheduled {
            return true;
        }
        if !self.ftl.has_reclaimable_block() {
            return false;
        }
        if !self.gc.enabled() {
            return self.rebuild.advancing();
        }
        self.gc.retry_scheduled = true;
        self.queue.schedule(self.gc.starved_until, Event::GcRetry);
        true
    }

    /// A starved GC trigger's retry: trigger again, then wake the waiters.
    pub(crate) fn gc_retry(&mut self) {
        self.gc.retry_scheduled = false;
        self.maybe_start_gc();
        self.wake_space_waiters();
    }

    fn start_gc(&mut self) {
        let spec = self.gc.spec.expect("GC enabled");
        let victim_mask = self.begin_gc_event();
        self.ftl.note_gc_trigger();
        let mut victims = select_victims(
            self.ftl.blocks(),
            self.cfg.gc.victims_per_trigger as usize,
            victim_mask,
            spec.victim,
            &mut self.rng,
        );
        self.ftl.drop_dead_chip_victims(&mut victims);
        if victims.is_empty() {
            self.end_gc_event();
            self.gc.starved_until = self.now + SimTime::from_ms(1);
            return;
        }
        self.gc.active = true;
        self.gc.started_at = self.now;
        self.gc.backlog.reset();
        self.gc.victims.clear();

        // Expand the victims into the packet backlog, streaming each
        // block's live pages straight into the reusable `copies` buffer.
        for pbn in victims {
            let range_start = self.gc.backlog.copies.len();
            let copies = &mut self.gc.backlog.copies;
            self.ftl
                .for_each_live_page(pbn, |lpn, src| copies.push(CopyPacket::new(lpn, src)));
            let range_end = self.gc.backlog.copies.len();
            self.gc.victims.push(VictimState {
                pbn,
                copies_left: (range_end - range_start) as u32,
                next: range_start,
                range_end,
            });
        }
        self.gc.victims_left = self.gc.victims.len();

        // Victims that are already fully invalid go straight to erase.
        for v in 0..self.gc.victims.len() {
            if self.gc.victims[v].copies_left == 0 {
                self.schedule_victim_erase(v);
            }
        }

        self.dispatch_backlog();
    }

    /// Opens a GC event and returns the mask victims are selected from.
    /// Spatial placement confines user writes to the I/O group and
    /// victims and copies to the GC group; every other placement leaves
    /// all ways open.
    fn begin_gc_event(&mut self) -> WayMask {
        let Some(groups) = self.gc.groups else {
            return WayMask::all(self.cfg.geometry.ways);
        };
        let gc = groups.gc_ways();
        self.ftl.set_write_mask(groups.io_ways());
        self.gc.confinement = Some(gc);
        gc
    }

    /// Closes a GC event (also when a trigger starved without victims):
    /// spatial placement lifts the write restriction and swaps the groups
    /// so both halves age evenly.
    fn end_gc_event(&mut self) {
        if let Some(groups) = self.gc.groups.as_mut() {
            self.ftl.reset_write_mask();
            groups.swap();
            self.gc.confinement = None;
        }
    }

    /// Hands the fresh packet backlog to the plan's preemption setting.
    fn dispatch_backlog(&mut self) {
        match self.gc.spec.expect("GC enabled").preemption {
            PreemptionSpec::RunToCompletion => {
                // Each victim pipelines its packets — one in flight at a
                // time per victim (a copyback chain) — so concurrency is
                // the victim count, spread across the device's dies.
                for v in 0..self.gc.victims.len() {
                    self.advance_victim(v);
                }
            }
            PreemptionSpec::YieldToIo => self.pump(Mover::Gc),
        }
    }

    /// Hands the next queued packet of `victim` to `launch_gc_copy`, if any.
    fn advance_victim(&mut self, victim: usize) {
        let v = &mut self.gc.victims[victim];
        let next = v.next;
        if next < v.range_end {
            v.next += 1;
            self.launch_gc_copy(next);
        }
    }

    /// Whether GC command/readout traffic rides the v-channels on the
    /// *source* side (spatial placement, on a topology that offers them).
    pub(crate) fn gc_uses_v_channel(&self) -> bool {
        self.gc.groups.is_some() && self.fabric.omnibus().is_some()
    }

    /// GC's source: the copy's command and read of its source page.
    pub(crate) fn launch_gc_copy(&mut self, c: usize) {
        let CopyPacket { lpn, src, .. } = self.gc.backlog.copies[c];
        self.gc.backlog.outstanding += 1;
        if self.ftl.lookup(lpn) != Some(src) || self.ftl.is_degraded_page(src) {
            // The host overwrote the page after victim selection, or its
            // chip fail-stopped since: the rebuild, not GC, re-places the
            // dead chip's pages.
            self.copy_finished(Mover::Gc, c);
            return;
        }
        let addr = self.cfg.geometry.page_addr(src);
        let tag = Traffic::Gc.tag();
        // Source read command: a few flits, routed by the fabric (spatial
        // pnSSD keeps even the command traffic on the v-channel to leave
        // h-channels to I/O).
        let use_v = self.gc_uses_v_channel();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let cmd_end = fabric.gc_read_command(&mut ctx, addr, use_v, now, tag);
        let chip = self.chip_index(addr);
        let fault = self.sample_read_fault();
        let read = self.chips[chip].reserve_read(addr.die, addr.plane, cmd_end);
        let ready = self.apply_read_fault(chip, addr, read.end, fault);
        self.queue.schedule(ready, Event::GcCopyReadDone(c));
    }

    /// Destination way mask for one copy. Spatial placement pins
    /// destinations to the source's column group where the topology routes
    /// per column (§VI-A); other placements roam freely.
    fn gc_dest_mask(&self, src_way: u32) -> WayMask {
        let Some(gc_mask) = self.gc.confinement else {
            return WayMask::all(self.cfg.geometry.ways);
        };
        if let Some(omni) = self.fabric.omnibus() {
            let group = omni.v_channel_of_way(src_way);
            let mut bits = 0u64;
            for w in 0..self.cfg.geometry.ways {
                if gc_mask.contains(w) && omni.v_channel_of_way(w) == group {
                    bits |= 1u64 << w;
                }
            }
            // An empty intersection widens back to the confinement mask.
            WayMask::from_bits(bits, self.cfg.geometry.ways).unwrap_or(gc_mask)
        } else {
            // Bus/mesh architectures: same column only.
            WayMask::from_ways([src_way])
        }
    }

    /// Copy `c`'s source read finished (or it was parked and space may have
    /// freed): allocate its destination and start the transfer, or park the
    /// copy until an erase frees space.
    pub(crate) fn gc_copy_read_done(&mut self, c: usize) {
        let CopyPacket { lpn, src, .. } = self.gc.backlog.copies[c];
        let src_addr = self.cfg.geometry.page_addr(src);
        // Allocate the destination now, with graceful mask widening.
        let primary = self.gc_dest_mask(src_addr.way);
        let masks = [
            Some(primary),
            self.gc.confinement,
            Some(WayMask::all(self.cfg.geometry.ways)),
        ];
        // Hot/cold placement sends GC survivors through the cold stream.
        let stream = self.ftl.gc_stream(lpn);
        let mut relocation = None;
        for (i, mask) in masks.iter().enumerate() {
            let Some(mask) = *mask else { continue };
            match self.ftl.relocate_to(lpn, src, mask, stream) {
                Ok(Some(rel)) => {
                    if i > 0 {
                        self.gc.dest_fallbacks += 1;
                    }
                    relocation = Some(rel);
                    break;
                }
                Ok(None) => {
                    // Host overwrote the page mid-copy; nothing to move.
                    self.copy_finished(Mover::Gc, c);
                    return;
                }
                Err(OutOfSpace) => continue,
            }
        }
        let Some(rel) = relocation else {
            // No free page on any way: wait for another victim's erase. A
            // yielding plan launches its next copies meanwhile (one may find
            // its page overwritten and finish a victim).
            self.gc.parked.push(c);
            self.pump_if_wanted(Mover::Gc);
            self.end_life_if_gc_stuck();
            return;
        };
        self.gc.backlog.copies[c].dst = Some(rel.dst);
        if let Some(oracle) = self.oracle.as_mut() {
            // The mapping commits at relocate_to() above, so the shadow map
            // must move now — not at program completion — to stay lockstep
            // with what reads will observe.
            oracle.note_relocation(rel, self.now);
        }
        let dst_addr = self.cfg.geometry.page_addr(rel.dst);
        let tag = Traffic::Gc.tag();
        let page = self.cfg.geometry.page_bytes;

        let ecc = self.gc_ecc();
        let now = self.now;
        let (fabric, mut ctx) = self.fabric_parts();
        let xfer_end = fabric.reserve_f2f_copy(&mut ctx, src_addr, dst_addr, page, ecc, now, tag);
        self.queue
            .schedule(xfer_end, Event::CopyXferDone(MoverCopy::new(Mover::Gc, c)));
    }

    /// GC's completion: a victim whose last copy is done is erased; a
    /// run-to-completion victim chains its next copy.
    pub(crate) fn gc_copy_finished(&mut self, c: usize) {
        let victim = self.gc.victim_of(c);
        let v = &mut self.gc.victims[victim];
        debug_assert!(v.copies_left > 0);
        v.copies_left -= 1;
        if v.copies_left == 0 {
            self.schedule_victim_erase(victim);
        } else if !self.gc.yields() {
            self.advance_victim(victim);
        }
        self.pump_if_wanted(Mover::Gc);
        self.end_life_if_gc_stuck();
    }

    /// Writes waiting on a GC event that can never finish never resume: the
    /// device is at end of life. Checked wherever a copy parks or finishes,
    /// the two ways the event can become stuck.
    fn end_life_if_gc_stuck(&mut self) {
        if self.parked_writes() > 0 && self.gc_stuck() {
            self.reach_end_of_life();
        }
    }

    /// Whether a chip fail-stop took `pbn` out of GC's hands after it was
    /// selected. With parity it sits on the dead chip, whose pages and
    /// retirement belong to the rebuild; without parity `fail_chip` has
    /// already retired it. Either way it must not be erased.
    fn victim_lost_to_failure(&self, pbn: Pbn) -> bool {
        self.ftl.on_dead_chip(pbn) || self.ftl.blocks().meta(pbn).state() == BlockState::Bad
    }

    fn schedule_victim_erase(&mut self, victim: usize) {
        let pbn = self.gc.victims[victim].pbn;
        if self.victim_lost_to_failure(pbn) {
            self.queue.schedule(self.now, Event::GcEraseDone(victim));
            return;
        }
        let addr = self.cfg.geometry.block_addr(pbn);
        // The erase command is a handful of flits; its wire time is
        // negligible next to the 1 ms array erase, so only the plane is
        // reserved.
        let chip = self.cfg.geometry.chip_index(addr.channel, addr.way);
        let erase = self.chips[chip].reserve_erase(addr.die, addr.plane, self.now);
        self.queue.schedule(erase.end, Event::GcEraseDone(victim));
    }

    /// Whether the running event can never finish: every copy in flight
    /// waits for a free page, no victim erase is pending, and no further
    /// copy can launch. Only an erase would free a page for them.
    fn gc_stuck(&self) -> bool {
        let (gc, b) = (&self.gc, &self.gc.backlog);
        // Victims with no copy left are erased or erasing; the erased ones
        // no longer count in `victims_left`.
        gc.active
            && gc.parked.len() == b.outstanding
            && (!gc.yields() || b.outstanding >= Mover::Gc.batch() || b.next_copy == b.copies.len())
            && gc.victims.iter().filter(|v| v.copies_left == 0).count()
                == gc.victims.len() - gc.victims_left
    }

    /// Resumes the copies parked for lack of a destination, in order.
    pub(crate) fn wake_gc_copies(&mut self) {
        if self.gc.parked.is_empty() {
            return;
        }
        for c in std::mem::take(&mut self.gc.parked) {
            self.gc_copy_read_done(c);
        }
    }

    pub(crate) fn gc_erase_done(&mut self, victim: usize) {
        let pbn = self.gc.victims[victim].pbn;
        if self.victim_lost_to_failure(pbn) {
            // Nothing to erase: the victim counts as finished.
        } else if self.faults.grown_bad_on_erase() {
            // The erase failed: the block grows bad and is retired instead
            // of rejoining the free pool (spare capacity absorbs the loss).
            self.ftl.retire_block(pbn);
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_retire(pbn, self.now);
            }
        } else {
            self.ftl.erase_block(pbn);
            self.gc.blocks_erased += 1;
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_erase(pbn, self.now);
            }
        }
        if let Some(oracle) = self.oracle.as_mut() {
            // Every erase/retire is a conservation checkpoint: page counts
            // and erase-count monotonicity are cheapest to audit here.
            oracle.check_invariants(&self.ftl, self.now);
        }
        debug_assert!(self.gc.victims_left > 0);
        self.gc.victims_left -= 1;
        if self.gc.victims_left == 0 {
            self.finish_gc();
        }
        // The erase (or retirement) may have freed space; the event's end
        // lifted spatial placement's write mask. Either may un-stall a
        // waiter.
        self.wake_space_waiters();
    }

    fn finish_gc(&mut self) {
        self.gc.active = false;
        self.gc.total_time += self.now - self.gc.started_at;
        self.gc.events_completed += 1;
        self.end_gc_event();
        // Hysteresis: chain events until the stop watermark recovers, so GC
        // runs in bounded phases with quiet periods in between.
        if self.now >= self.gc.starved_until && self.ftl.free_ratio() < self.cfg.gc.stop_free_ratio
        {
            self.start_gc();
        }
    }
}

impl GcRuntime {
    /// Serialized floor of one victim record, for count caps.
    const VICTIM_MIN_BYTES: usize = 8 + 4 + 8 + 8;

    /// Serializes the collector's runtime state, including spatial
    /// placement's (group rotation, then the GC-group mask of the running
    /// event). The plan itself and the pacing constants are configuration,
    /// not state, and are not written.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_bool(self.active);
        w.put_time(self.started_at);
        self.backlog.ckpt_save(w);
        w.put_usize(self.victims.len());
        for v in &self.victims {
            w.put_u64(v.pbn.raw());
            w.put_u32(v.copies_left);
            w.put_usize(v.next);
            w.put_usize(v.range_end);
        }
        w.put_usize(self.victims_left);
        if let Some(groups) = &self.groups {
            groups.ckpt_save(w);
            w.put_opt_u64(self.confinement.map(|m| m.bits()));
        }
        w.put_time(self.starved_until);
        w.put_bool(self.retry_scheduled);
        w.put_usize(self.parked.len());
        for &c in &self.parked {
            w.put_usize(c);
        }
        w.put_u64(self.events_completed);
        w.put_time(self.total_time);
        w.put_u64(self.pages_copied);
        w.put_u64(self.blocks_erased);
        w.put_u64(self.dest_fallbacks);
    }

    /// Restores state saved by [`GcRuntime::ckpt_save`] into a collector
    /// running the same plan; the geometry bounds validate every index.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or any out-of-range page, block, or
    /// slice index.
    pub(crate) fn ckpt_load(
        &mut self,
        r: &mut CkptReader,
        g: &Geometry,
        logical_pages: u64,
    ) -> Result<(), CkptError> {
        let active = r.take_bool()?;
        let started_at = r.take_time()?;
        let backlog = CopyBacklog::ckpt_load(r, Mover::Gc, g.page_count(), logical_pages)?;
        let copies = backlog.copies.len();
        let victim_count = r.take_count(Self::VICTIM_MIN_BYTES)?;
        let mut victims = Vec::with_capacity(victim_count);
        for _ in 0..victim_count {
            let pbn = r.take_u64()?;
            if pbn >= g.block_count() {
                return Err(CkptError::Invalid(format!(
                    "gc victim pbn {pbn} out of range"
                )));
            }
            let copies_left = r.take_u32()?;
            let next = r.take_usize()?;
            let range_end = r.take_usize()?;
            // The victims' slices tile the backlog in order.
            let start = victims.last().map_or(0, |v: &VictimState| v.range_end);
            if next < start
                || next > range_end
                || range_end > copies
                || copies_left as usize > range_end - start
            {
                return Err(CkptError::Invalid("gc victim range inconsistent".into()));
            }
            victims.push(VictimState {
                pbn: Pbn::new(pbn),
                copies_left,
                next,
                range_end,
            });
        }
        if victims.last().map_or(0, |v| v.range_end) != copies {
            return Err(CkptError::Invalid(
                "gc victim ranges do not cover the copy list".into(),
            ));
        }
        let victims_left = r.take_usize()?;
        if victims_left > victims.len() {
            return Err(CkptError::Invalid(
                "gc victims_left exceeds the victim list".into(),
            ));
        }
        if let Some(groups) = self.groups.as_mut() {
            groups.ckpt_load(r)?;
            self.confinement = match r.take_opt_u64()? {
                Some(bits) => Some(WayMask::from_bits(bits, g.ways)?),
                None => None,
            };
        }
        let starved_until = r.take_time()?;
        let retry_scheduled = r.take_bool()?;
        let n = r.take_count(8)?;
        let mut parked = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.take_usize()?;
            if c >= copies {
                return Err(CkptError::Invalid(format!(
                    "parked gc copy {c} out of range"
                )));
            }
            parked.push(c);
        }
        self.active = active;
        self.started_at = started_at;
        self.backlog = backlog;
        self.victims = victims;
        self.victims_left = victims_left;
        self.starved_until = starved_until;
        self.retry_scheduled = retry_scheduled;
        self.parked = parked;
        self.events_completed = r.take_u64()?;
        self.total_time = r.take_time()?;
        self.pages_copied = r.take_u64()?;
        self.blocks_erased = r.take_u64()?;
        self.dest_fallbacks = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use nssd_ftl::{GcPlanSpec, Lpn, WayMask};

    use crate::{Architecture, SsdConfig, SsdSim};

    /// An SpGC event confines user writes to the I/O group and copies to
    /// the GC group; closing it lifts the confinement and swaps the groups.
    /// Other placements never narrow anything.
    #[test]
    fn spatial_event_confines_writes_and_swaps_groups() {
        let mut cfg = SsdConfig::tiny(Architecture::BaseSsd);
        cfg.gc.plan = Some(GcPlanSpec::spatial());
        let ways = cfg.geometry.ways;
        let mut sim = SsdSim::new(cfg).unwrap();
        let gc_mask = sim.begin_gc_event();
        assert_eq!(sim.gc.confinement, Some(gc_mask));
        let io_mask = sim.ftl.write_mask();
        assert_eq!(gc_mask.count() + io_mask.count(), ways);
        for l in 0..8 {
            let out = sim.ftl.write(Lpn::new(l)).unwrap();
            let way = sim.cfg.geometry.page_addr(out.ppn).way;
            assert!(io_mask.contains(way) && !gc_mask.contains(way));
        }
        sim.end_gc_event();
        assert_eq!(sim.gc.confinement, None);
        assert_eq!(sim.ftl.write_mask(), WayMask::all(ways));
        let groups = sim.gc.groups.expect("spatial groups");
        assert_eq!(groups.epochs(), 1);
        assert_eq!(groups.gc_ways(), io_mask, "the groups swap");

        cfg.gc.plan = Some(GcPlanSpec::pagc());
        let mut sim = SsdSim::new(cfg).unwrap();
        assert_eq!(sim.begin_gc_event(), WayMask::all(ways));
        assert_eq!(sim.gc.confinement, None);
        assert_eq!(sim.ftl.write_mask(), WayMask::all(ways));
        sim.end_gc_event();
        assert!(sim.gc.groups.is_none());
    }
}
