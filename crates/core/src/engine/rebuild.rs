//! Background parity rebuild after a fail-stop chip failure: the rebuild's
//! source and completion on the shared paced mover ([`super::mover`]).
//!
//! When a chip dies with redundancy enabled, its live pages stay mapped and
//! readable by reconstruction ([`super::iopath`]); the rebuild re-places
//! them onto the survivors so the degraded window actually closes. Each
//! copy reads every surviving stripe member (command handshake + tR), and
//! the fabric gathers and XOR-combines the survivors en route to the
//! destination chip ([`super::FabricBackend::reserve_reconstruct`] —
//! networked fabrics do this flash-to-flash, the dedicated bus bounces every
//! survivor through the controller); the mover's copy tail then lands the
//! page. Drained source blocks retire immediately (the chip cannot be
//! erased); when the backlog empties the dead chip is cleared and degraded
//! dispatch stops.

use nssd_ftl::{BlockState, GcStream, WayMask};
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::mover::{CopyBacklog, CopyPacket, Mover, MoverCopy};
use super::{Event, SsdSim};

/// Runtime state of the background rebuild. Idle (and empty) until a chip
/// failure fires with redundancy enabled.
#[derive(Debug, Default)]
pub(crate) struct RebuildRuntime {
    pub(crate) active: bool,
    /// The dead chip's live pages. Each destination binds at launch.
    pub(crate) backlog: CopyBacklog,
    /// Whether the next copy found no free page and waits for an erase.
    awaiting_space: bool,
    /// When the rebuild began (the failure instant).
    pub(crate) started_at: Option<SimTime>,
    /// When the last page landed and the dead chip was cleared. The pages
    /// re-placed are the fault engine's `rebuild_pages`.
    pub(crate) finished_at: Option<SimTime>,
}

impl RebuildRuntime {
    /// Whether a rebuild is in progress and not itself waiting for space.
    pub(crate) fn advancing(&self) -> bool {
        self.active && !self.awaiting_space
    }

    /// Copies not yet finished: those not yet handed out, and those in
    /// flight.
    fn copies_left(&self) -> usize {
        let b = &self.backlog;
        b.copies.len() - b.next_copy + b.outstanding
    }
}

impl SsdSim {
    /// Opens the rebuild over the dead chip's live pages. Called from the
    /// chip-failure event, after the FTL has marked the chip dead.
    pub(crate) fn start_rebuild(&mut self) {
        debug_assert!(!self.rebuild.active, "one failure per run");
        self.rebuild.started_at = Some(self.now);
        let b = &mut self.rebuild.backlog;
        b.reset();
        let pages = self.ftl.degraded_pages().into_iter();
        b.copies
            .extend(pages.map(|(lpn, src)| CopyPacket::new(lpn, src)));
        self.rebuild.active = true;
        if self.rebuild.copies_left() == 0 {
            self.finish_rebuild();
            return;
        }
        self.queue.schedule(self.now, Event::Pump(Mover::Rebuild));
    }

    /// Resumes a rebuild that was waiting for a free page.
    pub(crate) fn wake_rebuild(&mut self) {
        if self.rebuild.awaiting_space {
            self.rebuild.awaiting_space = false;
            self.queue.schedule(self.now, Event::Pump(Mover::Rebuild));
        }
    }

    /// The rebuild's source: binds the destination, commits the remap, and
    /// times the survivor reads plus the fabric-routed reconstruction into
    /// the destination chip. Returns `false` if no destination could be
    /// allocated: the copy then waits, unlaunched, for GC to free space.
    pub(crate) fn launch_rebuild_copy(&mut self, c: usize) -> bool {
        let CopyPacket { lpn, src, .. } = self.rebuild.backlog.copies[c];
        let mask = WayMask::all(self.cfg.geometry.ways);
        let Ok(rel) = self.ftl.relocate_to(lpn, src, mask, GcStream::Gc) else {
            // No destination block free anywhere: the packet goes back. GC
            // has to reclaim space, and its next erase wakes the rebuild; if
            // GC never can, the rebuild stays unfinished.
            self.rebuild.backlog.next_copy = c;
            self.rebuild.awaiting_space = true;
            self.await_space();
            return false;
        };
        self.rebuild.backlog.outstanding += 1;
        let Some(rel) = rel else {
            // The host overwrote the page after the failure: it already
            // lives elsewhere, nothing to reconstruct.
            self.copy_finished(Mover::Rebuild, c);
            return true;
        };
        self.rebuild.backlog.copies[c].dst = Some(rel.dst);
        if let Some(oracle) = self.oracle.as_mut() {
            // The mapping commits at relocate_to() above; the shadow map
            // moves now to stay lockstep with what reads observe.
            oracle.note_relocation(rel, self.now);
        }
        let src_addr = self.cfg.geometry.page_addr(src);
        let dst_addr = self.cfg.geometry.page_addr(rel.dst);
        let done = self.reconstruct(src_addr, Some(dst_addr));
        self.queue
            .schedule(done, Event::CopyXferDone(MoverCopy::new(Mover::Rebuild, c)));
        true
    }

    /// The rebuild's completion: drain-retire the source block, and finish
    /// once the backlog is empty.
    pub(crate) fn rebuild_copy_finished(&mut self, c: usize) {
        // Drain-retire: the moment a dead-chip block holds no valid pages
        // it retires (no erase — the chip is gone, the block never returns
        // to the free pool).
        let src = self.rebuild.backlog.copies[c].src;
        let pbn = self.cfg.geometry.pbn_of(src);
        let meta = self.ftl.blocks().meta(pbn);
        let retire = meta.state() != BlockState::Bad && meta.valid_count() == 0;
        if retire {
            self.ftl.retire_dead_block(pbn);
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_retire(pbn, self.now);
            }
        }
        if self.rebuild.copies_left() == 0 {
            self.finish_rebuild();
        } else {
            self.pump_if_wanted(Mover::Rebuild);
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
    /// Serializes the rebuild's runtime state: the backlog, the wait for
    /// space, and when it started and finished.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_bool(self.active);
        self.backlog.ckpt_save(w);
        w.put_bool(self.awaiting_space);
        for t in [self.started_at, self.finished_at] {
            w.put_opt_u64(t.map(SimTime::as_ns));
        }
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
        self.active = r.take_bool()?;
        self.backlog = CopyBacklog::ckpt_load(r, Mover::Rebuild, page_count, logical_pages)?;
        self.awaiting_space = r.take_bool()?;
        self.started_at = r.take_opt_u64()?.map(SimTime::from_ns);
        self.finished_at = r.take_opt_u64()?.map(SimTime::from_ns);
        Ok(())
    }
}
