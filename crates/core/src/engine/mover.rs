//! The paced background mover: one copy backlog, pump and copy tail shared
//! by garbage collection ([`super::gcrun`]) and the parity rebuild
//! ([`super::rebuild`]), which differ only in each copy's source and
//! completion. Paced copies launch into foreground-idle gaps, so host I/O
//! keeps priority at page-copy granularity (Lee et al., ISPASS'11).

use nssd_flash::Ppn;
use nssd_ftl::Lpn;
use nssd_sim::{CkptError, CkptReader, CkptWriter, SimTime};

use super::{Event, SsdSim};

/// The two background movers; the discriminant indexes per-mover arrays. A
/// word wide, so `Event::Pump(Mover)` keeps the layout [`MoverCopy`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub(crate) enum Mover {
    Gc,
    Rebuild,
}

impl Mover {
    /// Both movers, in the order their pumps are scheduled.
    pub(crate) const ALL: [Mover; 2] = [Mover::Gc, Mover::Rebuild];

    /// Copies a paced mover keeps in flight at most.
    pub(crate) const fn batch(self) -> usize {
        match self {
            Mover::Gc => 4,
            Mover::Rebuild => 2,
        }
    }

    /// Re-poll interval while the next copy's source is busy.
    const fn poll(self) -> SimTime {
        match self {
            Mover::Gc => SimTime::from_us(20),
            Mover::Rebuild => SimTime::from_us(5),
        }
    }

    /// What checkpoint error messages call one of the mover's copies.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Mover::Gc => "gc copy",
            Mover::Rebuild => "rebuild copy",
        }
    }
}

/// One copy of one mover's backlog, as the payload of its copy events: the
/// backlog index, with the mover in the top bit. Every [`Event`] is then a
/// tag and one word, which the compiler passes and moves in two registers.
/// A `(Mover, usize)` payload makes the whole enum an in-memory aggregate,
/// and the event loop ran 10–13% slower with one on every benchmark
/// workload, GC-off included (shared 2-vCPU x86-64 host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MoverCopy(usize);

impl MoverCopy {
    const REBUILD: usize = 1 << (usize::BITS - 1);

    /// Copy `c` of `m`'s backlog; `c` is below the backlog's length, so its
    /// top bit is clear.
    pub(crate) fn new(m: Mover, c: usize) -> Self {
        debug_assert!(c < Self::REBUILD);
        MoverCopy(c | (m as usize) << (usize::BITS - 1))
    }

    pub(crate) fn mover(self) -> Mover {
        if self.0 < Self::REBUILD {
            Mover::Gc
        } else {
            Mover::Rebuild
        }
    }

    pub(crate) fn index(self) -> usize {
        self.0 & !Self::REBUILD
    }
}

/// One page to relocate: `lpn`, last at `src`, onto `dst` once bound.
#[derive(Debug)]
pub(crate) struct CopyPacket {
    pub(crate) lpn: Lpn,
    pub(crate) src: Ppn,
    pub(crate) dst: Option<Ppn>,
}

impl CopyPacket {
    /// A packet whose destination is not bound yet.
    pub(crate) fn new(lpn: Lpn, src: Ppn) -> Self {
        CopyPacket {
            lpn,
            src,
            dst: None,
        }
    }
}

/// A mover's packets and the cursors of their paced launch.
#[derive(Debug, Default)]
pub(crate) struct CopyBacklog {
    pub(crate) copies: Vec<CopyPacket>,
    /// The next packet a paced launch hands out.
    pub(crate) next_copy: usize,
    /// Copies launched and not yet finished.
    pub(crate) outstanding: usize,
    /// When the queued poll-for-gap pump fires, if one is queued: a mover
    /// keeps at most one poll chain however many pumps find its source
    /// busy.
    pub(crate) poll_at: Option<SimTime>,
}

impl CopyBacklog {
    /// Serialized floor of one copy record, for count caps.
    const COPY_MIN_BYTES: usize = 8 + 8 + 1;

    /// Empties the backlog for a new batch of work. A queued poll stays
    /// queued, and `poll_at` with it.
    pub(crate) fn reset(&mut self) {
        self.copies.clear();
        self.next_copy = 0;
        self.outstanding = 0;
    }

    /// Serializes the packets and cursors. Pacing parameters are constants
    /// of the mover, not state.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.copies.len());
        for c in &self.copies {
            w.put_u64(c.lpn.raw());
            w.put_u64(c.src.raw());
            w.put_opt_u64(c.dst.map(Ppn::raw));
        }
        w.put_usize(self.next_copy);
        w.put_usize(self.outstanding);
        w.put_opt_u64(self.poll_at.map(SimTime::as_ns));
    }

    /// Restores a backlog saved by [`CopyBacklog::ckpt_save`].
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, or any page or cursor out of range.
    pub(crate) fn ckpt_load(
        r: &mut CkptReader,
        m: Mover,
        page_count: u64,
        logical_pages: u64,
    ) -> Result<CopyBacklog, CkptError> {
        let what = m.name();
        let n = r.take_count(Self::COPY_MIN_BYTES)?;
        let mut copies = Vec::with_capacity(n);
        for _ in 0..n {
            let (lpn, src, dst) = (r.take_u64()?, r.take_u64()?, r.take_opt_u64()?);
            if lpn >= logical_pages || src >= page_count || dst.is_some_and(|d| d >= page_count) {
                return Err(CkptError::Invalid(format!(
                    "{what} of lpn {lpn} from {src} to {dst:?} out of range"
                )));
            }
            let mut packet = CopyPacket::new(Lpn::new(lpn), Ppn::new(src));
            packet.dst = dst.map(Ppn::new);
            copies.push(packet);
        }
        let next_copy = r.take_usize()?;
        let outstanding = r.take_usize()?;
        if next_copy > copies.len() || outstanding > copies.len() {
            return Err(CkptError::Invalid(format!(
                "{what} cursor exceeds the copy list"
            )));
        }
        Ok(CopyBacklog {
            copies,
            next_copy,
            outstanding,
            poll_at: r.take_opt_u64()?.map(SimTime::from_ns),
        })
    }
}

impl SsdSim {
    pub(crate) fn backlog(&self, m: Mover) -> &CopyBacklog {
        match m {
            Mover::Gc => &self.gc.backlog,
            Mover::Rebuild => &self.rebuild.backlog,
        }
    }

    pub(crate) fn backlog_mut(&mut self, m: Mover) -> &mut CopyBacklog {
        match m {
            Mover::Gc => &mut self.gc.backlog,
            Mover::Rebuild => &mut self.rebuild.backlog,
        }
    }

    /// Whether a pump event would make progress: the mover runs paced, a
    /// packet waits, and the batch has room.
    pub(crate) fn wants_pump(&self, m: Mover) -> bool {
        let paced = match m {
            Mover::Gc => self.gc.paced(),
            Mover::Rebuild => self.rebuild.advancing(),
        };
        let b = self.backlog(m);
        paced && b.next_copy < b.copies.len() && b.outstanding < m.batch()
    }

    /// Queues a pump of `m` at this instant if it would make progress.
    pub(crate) fn pump_if_wanted(&mut self, m: Mover) {
        if self.wants_pump(m) {
            self.queue.schedule(self.now, Event::Pump(m));
        }
    }

    /// Paced dispatch: launch up to the batch, but only while the next
    /// copy's reads could start without stealing a busy resource. GC stops
    /// yielding when free space is critically low.
    pub(crate) fn pump(&mut self, m: Mover) {
        // The pump at the queued poll's instant ends that poll's chain.
        // Pumps queued at that instant run behind the poll; a direct call
        // that runs first leaves the poll a plain pump.
        let now = self.now;
        let b = self.backlog_mut(m);
        if b.poll_at == Some(now) {
            b.poll_at = None;
        }
        let forced = match m {
            Mover::Gc if !self.gc.paced() => {
                // A pump can also race a finished event; re-check the trigger.
                self.maybe_start_gc();
                return;
            }
            Mover::Gc => self.ftl.critically_low(),
            Mover::Rebuild if !self.rebuild.active => return,
            Mover::Rebuild => false,
        };
        loop {
            let b = self.backlog(m);
            if b.next_copy >= b.copies.len() || b.outstanding >= m.batch() {
                return;
            }
            let c = b.next_copy;
            if !forced && !self.source_idle(m, c) {
                // Busy right now: poll for the next gap, unless a poll is
                // already queued.
                let at = self.now.saturating_add(m.poll());
                let b = self.backlog_mut(m);
                if b.poll_at.is_none() {
                    b.poll_at = Some(at);
                    self.queue.schedule(at, Event::Pump(m));
                }
                return;
            }
            self.backlog_mut(m).next_copy += 1;
            match m {
                Mover::Gc => self.launch_gc_copy(c),
                Mover::Rebuild if !self.launch_rebuild_copy(c) => return,
                Mover::Rebuild => {}
            }
        }
    }

    /// Whether copy `c`'s reads could start without stealing a busy
    /// resource: every plane it reads is free and the fabric path of its
    /// first read is quiet. GC reads the source page, over a v-channel
    /// under spatial placement; the rebuild reads every survivor of it.
    fn source_idle(&mut self, m: Mover, c: usize) -> bool {
        let g = self.cfg.geometry;
        let now = self.now;
        let addr = g.page_addr(self.backlog(m).copies[c].src);
        let chips = &self.chips;
        let plane_idle = |a: nssd_flash::PageAddr| {
            chips[g.chip_index(a.channel, a.way)].plane_idle_at(a.die, a.plane, now)
        };
        let (first, use_v) = match m {
            Mover::Gc => {
                if !plane_idle(addr) {
                    return false;
                }
                (addr, self.gc_uses_v_channel())
            }
            Mover::Rebuild => {
                let mut survivors = self.ftl.redundancy().survivors(addr);
                let Some(first) = survivors.next() else {
                    return true;
                };
                if !plane_idle(first) || !survivors.all(plane_idle) {
                    return false;
                }
                (first, false)
            }
        };
        let (fabric, ctx) = self.fabric_parts();
        fabric.source_idle(&ctx, first, use_v, now)
    }

    /// Copy `c`'s data reached its destination chip: program it.
    pub(crate) fn copy_xfer_done(&mut self, m: Mover, c: usize) {
        let dst = self.backlog(m).copies[c].dst.expect("destination bound");
        let addr = self.cfg.geometry.page_addr(dst);
        let chip = self.chip_index(addr);
        let prog = self.chips[chip].reserve_program(addr.die, addr.plane, self.now);
        self.queue
            .schedule(prog.end, Event::CopyProgDone(MoverCopy::new(m, c)));
    }

    /// Copy `c`'s destination program finished: the page is durable at its
    /// new home.
    pub(crate) fn copy_prog_done(&mut self, m: Mover, c: usize) {
        let dst = self.backlog(m).copies[c].dst.expect("destination bound");
        self.note_programmed(self.cfg.geometry.pbn_of(dst), self.now);
        match m {
            Mover::Gc => self.gc.pages_copied += 1,
            Mover::Rebuild => self.faults.note_rebuild_page(),
        }
        self.copy_finished(m, c);
    }

    /// Copy `c` is done, landed or with nothing left to move: the mover's
    /// completion.
    pub(crate) fn copy_finished(&mut self, m: Mover, c: usize) {
        self.backlog_mut(m).outstanding -= 1;
        match m {
            Mover::Gc => self.gc_copy_finished(c),
            Mover::Rebuild => self.rebuild_copy_finished(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Mover, MoverCopy};

    #[test]
    fn mover_copy_round_trips_its_mover_and_index() {
        for m in Mover::ALL {
            for c in [0, 1, 4095, usize::MAX >> 1] {
                let mc = MoverCopy::new(m, c);
                assert_eq!((mc.mover(), mc.index()), (m, c));
            }
        }
    }
}
