//! Writes waiting for free space, and the device's end of life.
//!
//! A write that cannot get a page parks in a FIFO and waits for space to
//! free; parked writes resume in arrival order. When nothing queued can
//! free space any more, the device reaches end of life: every parked write
//! fails host-visibly, later writes fail on arrival, and reads keep
//! working.

use super::SsdSim;

impl SsdSim {
    /// Parks a write that cannot get a page: no free block right now (GC in
    /// flight, or the spatial I/O group momentarily full) — real devices
    /// apply exactly this backpressure. It waits in arrival order until an
    /// erase, a retirement or a lifted spatial-GC mask frees space, and ends
    /// the device's life if nothing can free any.
    pub(crate) fn park(&mut self, req: usize) {
        self.parked.push_back(req);
        if !self.await_space() {
            self.reach_end_of_life();
        }
    }

    /// Issues parked writes in order at the current instant, stopping at the
    /// first that still cannot allocate (it stays at the head). Runs
    /// wherever `Ftl::write` may succeed again; see [`SsdSim::wake_space_waiters`].
    pub(crate) fn wake_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        while let Some(&req) = self.parked.front() {
            if !self.issue_span(req) {
                if !self.await_space() {
                    self.reach_end_of_life();
                }
                return;
            }
            self.parked.pop_front();
        }
        self.maybe_start_gc();
    }

    /// Space may have freed (an erase or retirement completed, or a spatial
    /// GC event ended and its write mask lifted): resume everything waiting
    /// for it, GC's own copies first, then host writes. A waiting rebuild
    /// resumes with a pump at this instant.
    pub(crate) fn wake_space_waiters(&mut self) {
        self.wake_gc_copies();
        self.wake_rebuild();
        self.wake_parked();
    }

    /// The device has reached end of life: record when, and fail every
    /// parked write. Later writes fail on arrival ([`SsdSim::on_issue_pages`]).
    pub(crate) fn reach_end_of_life(&mut self) {
        self.end_of_life.get_or_insert(self.now);
        while let Some(req) = self.parked.pop_front() {
            self.fail_span(req);
        }
    }

    /// Completes write `req`'s unissued pages as host-visible errors.
    pub(crate) fn fail_span(&mut self, req: usize) {
        let span = self.pending_write_spans[req]
            .take()
            .expect("write span recorded at arrival");
        self.pages_done(req, span.pages, true, false);
    }

    /// Called when nothing is queued and every arrival is issued. Writes
    /// still parked then wait for space nothing queued can free, so the
    /// device is at end of life: fails them and returns `true`. Returns
    /// `false` when there is nothing left to do. A backstop: the stall
    /// paths declare end of life as soon as they see no wake can come.
    pub(crate) fn resolve_deadlock(&mut self) -> bool {
        if self.parked.is_empty() {
            return false;
        }
        self.reach_end_of_life();
        true
    }
}
