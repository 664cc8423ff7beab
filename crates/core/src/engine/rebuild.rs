//! Background parity rebuild after a fail-stop chip failure.
//!
//! When a chip dies with redundancy enabled, its live pages stay mapped and
//! readable by reconstruction ([`super::iopath`]); this module re-places
//! them onto the survivors so the degraded window actually closes. Each
//! rebuild copy is a timed pipeline: every surviving stripe member is read
//! (command handshake + tR), the fabric gathers and XOR-combines the
//! survivors en route to the destination chip
//! ([`super::FabricBackend::reserve_reconstruct`] — networked fabrics do
//! this flash-to-flash, the dedicated bus bounces every survivor through
//! the controller), then tPROG lands the page. Dispatch is paced like
//! yielding GC: copies launch in the gaps between foreground I/O so the
//! degraded-read tail is not made worse by the repair itself. Drained
//! source blocks retire immediately (the chip cannot be erased); when the
//! backlog empties the dead chip is cleared and degraded dispatch stops.

use nssd_flash::Ppn;
use nssd_ftl::{BlockState, GcStream, Lpn, OutOfSpace, WayMask};
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::{Event, SsdSim};

/// One page awaiting re-placement: reconstruct `lpn` (last at `src`, on the
/// dead chip) onto a fresh destination. `dst` binds at launch.
#[derive(Debug)]
struct RebuildCopy {
    lpn: Lpn,
    src: Ppn,
    dst: Option<Ppn>,
}

/// Runtime state of the background rebuild. Idle (and empty) until a chip
/// failure fires with redundancy enabled.
#[derive(Debug)]
pub(crate) struct RebuildRuntime {
    active: bool,
    copies: Vec<RebuildCopy>,
    next_copy: usize,
    outstanding: usize,
    copies_left: usize,
    /// Whether a poll-for-gap pump is already queued (dedup).
    pump_scheduled: bool,
    /// Whether the next copy found no free page and waits for an erase.
    awaiting_space: bool,
    /// When the rebuild began (the failure instant).
    pub(crate) started_at: Option<SimTime>,
    /// When the last page landed and the dead chip was cleared.
    pub(crate) finished_at: Option<SimTime>,
    /// Pages re-placed by reconstruction.
    pub(crate) pages_rebuilt: u64,
}

impl RebuildRuntime {
    /// Copies launched concurrently at most (paced dispatch).
    const BATCH: usize = 2;
    /// Poll interval while the survivors' resources are busy.
    const POLL: SimTime = SimTime::from_us(5);

    pub(crate) fn new() -> Self {
        RebuildRuntime {
            active: false,
            copies: Vec::new(),
            next_copy: 0,
            outstanding: 0,
            copies_left: 0,
            pump_scheduled: false,
            awaiting_space: false,
            started_at: None,
            finished_at: None,
            pages_rebuilt: 0,
        }
    }

    /// Copies tracked by the rebuild, for checkpoint event-index
    /// validation.
    pub(crate) fn copy_count(&self) -> usize {
        self.copies.len()
    }

    /// Whether a rebuild is in progress and not itself waiting for space.
    pub(crate) fn advancing(&self) -> bool {
        self.active && !self.awaiting_space
    }

    /// Whether a pump event would make progress.
    pub(crate) fn wants_pump(&self) -> bool {
        self.active
            && !self.awaiting_space
            && self.next_copy < self.copies.len()
            && self.outstanding < Self::BATCH
    }
}

impl SsdSim {
    /// Opens the rebuild over the dead chip's live pages. Called from the
    /// chip-failure event, after the FTL has marked the chip dead.
    pub(crate) fn start_rebuild(&mut self) {
        debug_assert!(!self.rebuild.active, "one failure per run");
        self.rebuild.started_at = Some(self.now);
        self.rebuild.copies = self
            .ftl
            .degraded_pages()
            .into_iter()
            .map(|(lpn, src)| RebuildCopy {
                lpn,
                src,
                dst: None,
            })
            .collect();
        self.rebuild.copies_left = self.rebuild.copies.len();
        self.rebuild.next_copy = 0;
        self.rebuild.outstanding = 0;
        self.rebuild.active = true;
        if self.rebuild.copies_left == 0 {
            self.finish_rebuild();
            return;
        }
        self.queue.schedule(self.now, Event::RebuildPump);
    }

    /// Paced dispatch: launch up to the batch limit, but only while the
    /// survivors' resources are idle *right now* — foreground I/O keeps
    /// priority at copy granularity, exactly the yielding-GC discipline.
    pub(crate) fn rebuild_pump(&mut self) {
        self.rebuild.pump_scheduled = false;
        if !self.rebuild.active {
            return;
        }
        while self.rebuild.next_copy < self.rebuild.copies.len()
            && self.rebuild.outstanding < RebuildRuntime::BATCH
        {
            let c = self.rebuild.next_copy;
            if !self.rebuild_source_idle(c) {
                self.schedule_rebuild_poll();
                return;
            }
            if !self.launch_rebuild_copy(c) {
                // No destination block free anywhere: GC has to reclaim
                // space, and its next erase wakes the rebuild. If GC never
                // can, the rebuild stays unfinished.
                self.rebuild.awaiting_space = true;
                self.await_space();
                return;
            }
            self.rebuild.next_copy += 1;
        }
    }

    /// Resumes a rebuild that was waiting for a free page.
    pub(crate) fn wake_rebuild(&mut self) {
        if self.rebuild.awaiting_space {
            self.rebuild.awaiting_space = false;
            self.queue.schedule(self.now, Event::RebuildPump);
        }
    }

    fn schedule_rebuild_poll(&mut self) {
        if !self.rebuild.pump_scheduled {
            self.rebuild.pump_scheduled = true;
            self.queue
                .schedule_after(self.now, RebuildRuntime::POLL, Event::RebuildPump);
        }
    }

    /// Whether the next copy's survivor reads could start without stealing
    /// a busy resource: every survivor's plane is free and the fabric path
    /// of the first survivor is quiet.
    fn rebuild_source_idle(&mut self, c: usize) -> bool {
        let src = self.rebuild.copies[c].src;
        let addr = self.cfg.geometry.page_addr(src);
        let busy = self.ftl.redundancy().survivors(addr).any(|s| {
            let chip = self.cfg.geometry.chip_index(s.channel, s.way);
            !self.chips[chip].plane_idle_at(s.die, s.plane, self.now)
        });
        if busy {
            return false;
        }
        let Some(first) = self.ftl.redundancy().survivors(addr).next() else {
            return true;
        };
        let now = self.now;
        let (fabric, ctx) = self.fabric_parts();
        fabric.source_idle(&ctx, first, false, now)
    }

    /// Launches one copy: binds the destination, commits the remap, and
    /// times the survivor reads plus the fabric-routed reconstruction into
    /// the destination chip. Returns `false` if no destination could be
    /// allocated (retry after GC frees space).
    fn launch_rebuild_copy(&mut self, c: usize) -> bool {
        let (lpn, src) = (self.rebuild.copies[c].lpn, self.rebuild.copies[c].src);
        if self.ftl.lookup(lpn) != Some(src) {
            // The host overwrote the page after the failure: it already
            // lives elsewhere, nothing to reconstruct.
            self.rebuild.outstanding += 1;
            self.rebuild_copy_finished(c);
            return true;
        }
        let mask = WayMask::all(self.cfg.geometry.ways);
        let rel = match self.ftl.relocate_to(lpn, src, mask, GcStream::Gc) {
            Ok(Some(rel)) => rel,
            Ok(None) => unreachable!("lookup checked above"),
            Err(OutOfSpace) => return false,
        };
        self.rebuild.outstanding += 1;
        self.rebuild.copies[c].dst = Some(rel.dst);
        if let Some(oracle) = self.oracle.as_mut() {
            // The mapping commits at relocate_to() above; the shadow map
            // moves now to stay lockstep with what reads observe.
            oracle.note_relocation(rel, self.now);
        }
        let src_addr = self.cfg.geometry.page_addr(src);
        let dst_addr = self.cfg.geometry.page_addr(rel.dst);
        let done = self.reconstruct(src_addr, Some(dst_addr));
        self.queue.schedule(done, Event::RebuildXferDone(c));
        true
    }

    /// The reconstructed page arrived at the destination chip: program it.
    pub(crate) fn rebuild_xfer_done(&mut self, c: usize) {
        let dst = self.rebuild.copies[c].dst.expect("destination bound");
        let addr = self.cfg.geometry.page_addr(dst);
        let chip = self.chip_index(addr);
        let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
        self.queue.schedule(prog.end, Event::RebuildProgDone(c));
    }

    /// The destination program finished: the page is durable again.
    pub(crate) fn rebuild_prog_done(&mut self, c: usize) {
        let dst = self.rebuild.copies[c].dst.expect("destination bound");
        let pbn = self.cfg.geometry.pbn_of(dst);
        self.note_programmed(pbn, self.now);
        self.rebuild.pages_rebuilt += 1;
        self.faults.note_rebuild_page();
        self.rebuild_copy_finished(c);
    }

    fn rebuild_copy_finished(&mut self, c: usize) {
        self.rebuild.outstanding -= 1;
        debug_assert!(self.rebuild.copies_left > 0);
        self.rebuild.copies_left -= 1;
        // Drain-retire: the moment a dead-chip block holds no valid pages
        // it retires (no erase — the chip is gone, the block never returns
        // to the free pool).
        let src = self.rebuild.copies[c].src;
        let pbn = self.cfg.geometry.pbn_of(src);
        let meta = self.ftl.blocks().meta(pbn);
        let retire = meta.state() != BlockState::Bad && meta.valid_count() == 0;
        if retire {
            self.ftl.retire_dead_block(pbn);
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_retire(pbn, self.now);
            }
        }
        if self.rebuild.copies_left == 0 {
            self.finish_rebuild();
        } else if self.rebuild.wants_pump() {
            self.queue.schedule(self.now, Event::RebuildPump);
        }
        // A retired block frees no page, but it leaves the victim ranking,
        // so a collection run for a parked write may now pick a block that
        // does.
        if retire || !self.rebuild.active {
            self.wake_parked();
        }
    }

    fn finish_rebuild(&mut self) {
        self.rebuild.active = false;
        self.rebuild.finished_at = Some(self.now);
        // Every degraded page has been re-placed (or host-overwritten);
        // retire whatever remains of the chip and stop degraded dispatch.
        self.ftl.clear_dead_chip();
    }
}

impl RebuildRuntime {
    /// Serialized floor of one copy record, for count caps.
    const COPY_MIN_BYTES: usize = 8 + 8 + 1;

    /// Serializes the rebuild's runtime state (the backlog, cursors, and
    /// lifetime counters). Pacing parameters are constants, not state.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_bool(self.active);
        w.put_usize(self.copies.len());
        for c in &self.copies {
            w.put_u64(c.lpn.raw());
            w.put_u64(c.src.raw());
            w.put_opt_u64(c.dst.map(Ppn::raw));
        }
        w.put_usize(self.next_copy);
        w.put_usize(self.outstanding);
        w.put_usize(self.copies_left);
        w.put_bool(self.pump_scheduled);
        w.put_bool(self.awaiting_space);
        for t in [self.started_at, self.finished_at] {
            w.put_opt_u64(t.map(SimTime::as_ns));
        }
        w.put_u64(self.pages_rebuilt);
    }

    /// Restores state saved by [`RebuildRuntime::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or any out-of-range page or cursor.
    pub(crate) fn ckpt_load(
        &mut self,
        r: &mut CkptReader,
        page_count: u64,
        logical_pages: u64,
    ) -> Result<(), CkptError> {
        let active = r.take_bool()?;
        let copy_count = r.take_count(Self::COPY_MIN_BYTES)?;
        let mut copies = Vec::with_capacity(copy_count);
        for _ in 0..copy_count {
            let lpn = r.take_u64()?;
            if lpn >= logical_pages {
                return Err(CkptError::Invalid(format!(
                    "rebuild copy lpn {lpn} out of range"
                )));
            }
            let src = r.take_u64()?;
            if src >= page_count {
                return Err(CkptError::Invalid(format!(
                    "rebuild copy src {src} out of range"
                )));
            }
            let dst = r.take_opt_u64()?;
            if let Some(d) = dst.filter(|&d| d >= page_count) {
                return Err(CkptError::Invalid(format!(
                    "rebuild copy dst {d} out of range"
                )));
            }
            copies.push(RebuildCopy {
                lpn: Lpn::new(lpn),
                src: Ppn::new(src),
                dst: dst.map(Ppn::new),
            });
        }
        let next_copy = r.take_usize()?;
        let outstanding = r.take_usize()?;
        let copies_left = r.take_usize()?;
        if next_copy > copies.len() || outstanding > copies.len() || copies_left > copies.len() {
            return Err(CkptError::Invalid(
                "rebuild cursor exceeds the copy list".into(),
            ));
        }
        let pump_scheduled = r.take_bool()?;
        let awaiting_space = r.take_bool()?;
        let started_at = r.take_opt_u64()?.map(SimTime::from_ns);
        let finished_at = r.take_opt_u64()?.map(SimTime::from_ns);
        self.active = active;
        self.copies = copies;
        self.next_copy = next_copy;
        self.outstanding = outstanding;
        self.copies_left = copies_left;
        self.pump_scheduled = pump_scheduled;
        self.awaiting_space = awaiting_space;
        self.started_at = started_at;
        self.finished_at = finished_at;
        self.pages_rebuilt = r.take_u64()?;
        Ok(())
    }
}
