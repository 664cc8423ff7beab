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
//!   launches a small batch into foreground-idle gaps.
//!
//! The fabric decides how bytes move.
//!
//! [`Ftl::needs_gc`]: nssd_ftl::Ftl::needs_gc
//! [`Ftl::critically_low`]: nssd_ftl::Ftl::critically_low
//! [`Ftl::gc_stream`]: nssd_ftl::Ftl::gc_stream

use nssd_flash::{Geometry, Pbn, Ppn};
use nssd_ftl::{
    select_victims, BlockState, GcConfig, GcPlanSpec, Lpn, OutOfSpace, PlacementSpec,
    PreemptionSpec, SpatialGroups, WayMask,
};
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::{Event, SsdSim};
use crate::Traffic;

/// Copies a yielding plan keeps in flight at most.
const YIELD_BATCH: usize = 4;
/// Re-poll interval while foreground traffic blocks a yielding plan's next
/// copy.
const YIELD_POLL: SimTime = SimTime::from_us(20);

/// One schedulable unit of GC work: relocate `lpn` away from `src`. The
/// destination is bound mid-flight, once the copy's read completes.
#[derive(Debug)]
struct CopyPacket {
    victim: usize,
    lpn: Lpn,
    src: Ppn,
    dst: Option<Ppn>,
}

#[derive(Debug)]
struct VictimState {
    pbn: Pbn,
    copies_left: u32,
    /// This victim's slice of the global packet backlog.
    range_start: usize,
    range_end: usize,
    /// Packets of this victim already handed to `launch_copy`.
    launched: usize,
}

/// Runtime state of the garbage collector.
#[derive(Debug)]
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
    copies: Vec<CopyPacket>,
    next_copy: usize,
    outstanding: usize,
    victims: Vec<VictimState>,
    victims_left: usize,
    /// Do not re-trigger before this time after a starved (victimless)
    /// trigger.
    starved_until: SimTime,
    /// Whether a poll-for-gap pump is already queued (dedup).
    pump_scheduled: bool,
    /// Whether a `GcRetry` is queued for `starved_until` (dedup).
    retry_scheduled: bool,
    /// Copies whose read finished but which found no free page anywhere,
    /// oldest first; they resume when an erase frees space.
    parked: Vec<usize>,
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
            confinement: None,
            active: false,
            started_at: SimTime::ZERO,
            copies: Vec::new(),
            next_copy: 0,
            outstanding: 0,
            victims: Vec::new(),
            victims_left: 0,
            starved_until: SimTime::ZERO,
            pump_scheduled: false,
            retry_scheduled: false,
            parked: Vec::new(),
            events_completed: 0,
            total_time: SimTime::ZERO,
            pages_copied: 0,
            blocks_erased: 0,
            dest_fallbacks: 0,
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

    /// Copies tracked by the current (or last) GC event, for checkpoint
    /// event-index validation.
    pub(crate) fn copy_count(&self) -> usize {
        self.copies.len()
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

    /// Whether a pump event would make progress (paced launching).
    pub(crate) fn wants_pump(&self) -> bool {
        self.active && self.yields() && self.next_copy < self.copies.len()
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
        if self.gc.wants_pump() {
            self.queue.schedule(self.now, Event::GcPump);
        }
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
        self.gc.copies.clear();
        self.gc.victims.clear();
        self.gc.next_copy = 0;
        self.gc.outstanding = 0;

        // Expand the victims into the packet backlog, streaming each
        // block's live pages straight into the reusable `copies` buffer.
        for pbn in victims {
            let victim_idx = self.gc.victims.len();
            let range_start = self.gc.copies.len();
            let copies = &mut self.gc.copies;
            self.ftl.for_each_live_page(pbn, |lpn, src| {
                copies.push(CopyPacket {
                    victim: victim_idx,
                    lpn,
                    src,
                    dst: None,
                });
            });
            let range_end = self.gc.copies.len();
            self.gc.victims.push(VictimState {
                pbn,
                copies_left: (range_end - range_start) as u32,
                range_start,
                range_end,
                launched: 0,
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
            PreemptionSpec::YieldToIo => self.gc_pump(),
        }
    }

    /// Hands the next queued packet of `victim` to `launch_copy`, if any.
    fn advance_victim(&mut self, victim: usize) {
        let v = &mut self.gc.victims[victim];
        let next = v.range_start + v.launched;
        if next < v.range_end {
            v.launched += 1;
            self.launch_copy(next);
        }
    }

    /// Paced dispatch (Lee et al., ISPASS'11): once triggered, GC makes
    /// progress in the *gaps* — a packet launches only when its source
    /// channel is idle right now, so foreground I/O keeps bus priority at
    /// page-copy granularity. When free space is critically low the yield
    /// is suspended and GC proceeds unconditionally.
    pub(crate) fn gc_pump(&mut self) {
        self.gc.pump_scheduled = false;
        if !(self.gc.active && self.gc.yields()) {
            // A pump can also race a finished event; re-check the trigger.
            self.maybe_start_gc();
            return;
        }
        let forced = self.ftl.critically_low();
        while self.gc.next_copy < self.gc.copies.len() && self.gc.outstanding < YIELD_BATCH {
            let c = self.gc.next_copy;
            if forced || self.gc_source_idle(c) {
                self.gc.next_copy += 1;
                self.launch_copy(c);
            } else {
                // Busy right now: poll for the next gap.
                if !self.gc.pump_scheduled {
                    self.gc.pump_scheduled = true;
                    self.queue
                        .schedule_after(self.now, YIELD_POLL, Event::GcPump);
                }
                break;
            }
        }
    }

    /// Whether the resources a packet's *source read* needs are free right
    /// now (the preemption check): the source plane, plus whatever channel
    /// the fabric would route the readout over.
    fn gc_source_idle(&mut self, c: usize) -> bool {
        let src = self.gc.copies[c].src;
        let addr = self.cfg.geometry.page_addr(src);
        let chip = self.cfg.geometry.chip_index(addr.channel, addr.way);
        if !self.chips[chip].plane_idle_at(addr.die, addr.plane, self.now) {
            return false;
        }
        let use_v = self.gc_uses_v_channel();
        let now = self.now;
        let (fabric, ctx) = self.fabric_parts();
        fabric.source_idle(&ctx, addr, use_v, now)
    }

    /// Whether GC command/readout traffic rides the v-channels on the
    /// *source* side (spatial placement, on a topology that offers them).
    fn gc_uses_v_channel(&self) -> bool {
        self.gc.groups.is_some() && self.fabric.gc_can_use_v()
    }

    fn launch_copy(&mut self, c: usize) {
        let (lpn, src) = (self.gc.copies[c].lpn, self.gc.copies[c].src);
        self.gc.outstanding += 1;
        if self.ftl.lookup(lpn) != Some(src) || self.ftl.is_degraded_page(src) {
            // The host overwrote the page after victim selection, or its
            // chip fail-stopped since: the rebuild, not GC, re-places the
            // dead chip's pages.
            self.copy_finished(c);
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
        let fault = self.sample_read_fault(addr);
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
        let (lpn, src) = (self.gc.copies[c].lpn, self.gc.copies[c].src);
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
                    self.copy_finished(c);
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
            if self.gc.wants_pump() {
                self.queue.schedule(self.now, Event::GcPump);
            }
            self.end_life_if_gc_stuck();
            return;
        };
        self.gc.copies[c].dst = Some(rel.dst);
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
        self.queue.schedule(xfer_end, Event::GcCopyXferDone(c));
    }

    pub(crate) fn gc_copy_xfer_done(&mut self, c: usize) {
        let dst = self.gc.copies[c].dst.expect("destination allocated");
        let addr = self.cfg.geometry.page_addr(dst);
        let chip = self.chip_index(addr);
        let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
        self.queue.schedule(prog.end, Event::GcCopyProgDone(c));
    }

    pub(crate) fn gc_copy_prog_done(&mut self, c: usize) {
        let dst = self.gc.copies[c].dst.expect("destination allocated");
        let pbn = self.cfg.geometry.pbn_of(dst);
        self.note_programmed(pbn, self.now);
        self.gc.pages_copied += 1;
        self.copy_finished(c);
    }

    fn copy_finished(&mut self, c: usize) {
        self.gc.outstanding -= 1;
        let victim = self.gc.copies[c].victim;
        let v = &mut self.gc.victims[victim];
        debug_assert!(v.copies_left > 0);
        v.copies_left -= 1;
        if v.copies_left == 0 {
            self.schedule_victim_erase(victim);
        } else if !self.gc.yields() {
            self.advance_victim(victim);
        }
        if self.gc.wants_pump() {
            self.queue.schedule(self.now, Event::GcPump);
        }
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
        let gc = &self.gc;
        // Victims with no copy left are erased or erasing; the erased ones
        // no longer count in `victims_left`.
        gc.active
            && gc.parked.len() == gc.outstanding
            && (!gc.yields() || gc.outstanding >= YIELD_BATCH || gc.next_copy == gc.copies.len())
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
    /// Serialized floor of one copy / one victim record, for count caps.
    const COPY_MIN_BYTES: usize = 8 + 8 + 8 + 1;
    const VICTIM_MIN_BYTES: usize = 8 + 4 + 8 + 8 + 8;

    /// Serializes the collector's runtime state, including spatial
    /// placement's (group rotation, then the GC-group mask of the running
    /// event). The plan itself and the pacing constants are configuration,
    /// not state, and are not written.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_bool(self.active);
        w.put_time(self.started_at);
        w.put_usize(self.copies.len());
        for c in &self.copies {
            w.put_usize(c.victim);
            w.put_u64(c.lpn.raw());
            w.put_u64(c.src.raw());
            w.put_opt_u64(c.dst.map(Ppn::raw));
        }
        w.put_usize(self.next_copy);
        w.put_usize(self.outstanding);
        w.put_usize(self.victims.len());
        for v in &self.victims {
            w.put_u64(v.pbn.raw());
            w.put_u32(v.copies_left);
            w.put_usize(v.range_start);
            w.put_usize(v.range_end);
            w.put_usize(v.launched);
        }
        w.put_usize(self.victims_left);
        if let Some(groups) = &self.groups {
            groups.ckpt_save(w);
            w.put_opt_u64(self.confinement.map(|m| m.bits()));
        }
        w.put_time(self.starved_until);
        w.put_bool(self.pump_scheduled);
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
        let (page_count, block_count) = (g.page_count(), g.block_count());
        let active = r.take_bool()?;
        let started_at = r.take_time()?;
        let copy_count = r.take_count(Self::COPY_MIN_BYTES)?;
        let mut copies = Vec::with_capacity(copy_count);
        for _ in 0..copy_count {
            let victim = r.take_usize()?;
            let lpn = r.take_u64()?;
            if lpn >= logical_pages {
                return Err(CkptError::Invalid(format!(
                    "gc copy lpn {lpn} out of range"
                )));
            }
            let src = r.take_u64()?;
            if src >= page_count {
                return Err(CkptError::Invalid(format!(
                    "gc copy src {src} out of range"
                )));
            }
            let dst = r.take_opt_u64()?;
            if let Some(d) = dst.filter(|&d| d >= page_count) {
                return Err(CkptError::Invalid(format!("gc copy dst {d} out of range")));
            }
            copies.push(CopyPacket {
                victim,
                lpn: Lpn::new(lpn),
                src: Ppn::new(src),
                dst: dst.map(Ppn::new),
            });
        }
        let next_copy = r.take_usize()?;
        let outstanding = r.take_usize()?;
        if next_copy > copies.len() || outstanding > copies.len() {
            return Err(CkptError::Invalid(
                "gc copy cursor exceeds the copy list".into(),
            ));
        }
        let victim_count = r.take_count(Self::VICTIM_MIN_BYTES)?;
        let mut victims = Vec::with_capacity(victim_count);
        for _ in 0..victim_count {
            let pbn = r.take_u64()?;
            if pbn >= block_count {
                return Err(CkptError::Invalid(format!(
                    "gc victim pbn {pbn} out of range"
                )));
            }
            let copies_left = r.take_u32()?;
            let range_start = r.take_usize()?;
            let range_end = r.take_usize()?;
            let launched = r.take_usize()?;
            if range_start > range_end
                || range_end > copies.len()
                || launched > range_end - range_start
                || copies_left as usize > range_end - range_start
            {
                return Err(CkptError::Invalid("gc victim range inconsistent".into()));
            }
            victims.push(VictimState {
                pbn: Pbn::new(pbn),
                copies_left,
                range_start,
                range_end,
                launched,
            });
        }
        if copies.iter().any(|c| c.victim >= victims.len()) {
            return Err(CkptError::Invalid(
                "gc copy references a victim out of range".into(),
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
        let pump_scheduled = r.take_bool()?;
        let retry_scheduled = r.take_bool()?;
        let n = r.take_count(8)?;
        let mut parked = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.take_usize()?;
            if c >= copies.len() {
                return Err(CkptError::Invalid(format!(
                    "parked gc copy {c} out of range"
                )));
            }
            parked.push(c);
        }
        self.active = active;
        self.started_at = started_at;
        self.copies = copies;
        self.next_copy = next_copy;
        self.outstanding = outstanding;
        self.victims = victims;
        self.victims_left = victims_left;
        self.starved_until = starved_until;
        self.pump_scheduled = pump_scheduled;
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
