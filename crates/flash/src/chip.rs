//! Flash chip timing state.
//!
//! A [`FlashChip`] is the collection of per-plane array resources for one
//! physical package on a channel, plus the pSSD on-die additions: the V-page
//! registers of the on-die data plane (Fig 7c) and wear/traffic counters.
//! Plane array operations are timed resources; page-register residency is
//! implied by the ordering of the staged transactions (the engine never
//! starts a data transfer before the array op that fills the register ends).

use nssd_sim::{CkptError, CkptReader, CkptWriter, Reservation, Resource, SimTime};

use crate::{FlashTiming, Geometry};

/// Timing state for one flash chip (all its dies and planes).
///
/// # Examples
///
/// ```
/// use nssd_flash::{FlashChip, FlashTiming, Geometry};
/// use nssd_sim::SimTime;
///
/// let g = Geometry::tiny();
/// let mut chip = FlashChip::new(&g, FlashTiming::ull());
/// let r = chip.reserve_read(0, 0, SimTime::ZERO);
/// assert_eq!(r.end, SimTime::from_us(3));
/// ```
#[derive(Debug)]
pub struct FlashChip {
    dies: u32,
    planes: u32,
    timing: FlashTiming,
    /// One timed resource per (die, plane).
    plane_res: Vec<Resource>,
    /// Array operations issued, by kind: [reads, programs, erases].
    op_counts: [u64; 3],
}

impl FlashChip {
    /// Creates an idle chip for the given geometry and timing.
    pub fn new(geometry: &Geometry, timing: FlashTiming) -> Self {
        let n = (geometry.dies * geometry.planes) as usize;
        FlashChip {
            dies: geometry.dies,
            planes: geometry.planes,
            timing,
            plane_res: (0..n).map(|_| Resource::new()).collect(),
            op_counts: [0; 3],
        }
    }

    fn plane_idx(&self, die: u32, plane: u32) -> usize {
        debug_assert!(die < self.dies && plane < self.planes);
        (die * self.planes + plane) as usize
    }

    /// The array timing in use.
    pub fn timing(&self) -> FlashTiming {
        self.timing
    }

    /// Reserves a page read (tR) on `(die, plane)` starting no earlier than
    /// `at`; the page register holds the data from `end` onward.
    pub fn reserve_read(&mut self, die: u32, plane: u32, at: SimTime) -> Reservation {
        self.op_counts[0] += 1;
        let dur = self.timing.read;
        let idx = self.plane_idx(die, plane);
        self.plane_res[idx].reserve(at, dur)
    }

    /// Reserves the retry senses of a faulty page read: `extra` further
    /// full-tR passes chained directly after the initial sense (the plane's
    /// FIFO timeline makes them contiguous when reserved back-to-back).
    /// Counts each sense as a read op. Returns the reservation of the final
    /// sense, or `None` when `extra` is 0.
    pub fn reserve_read_retries(
        &mut self,
        die: u32,
        plane: u32,
        at: SimTime,
        extra: u32,
    ) -> Option<Reservation> {
        let mut last = None;
        let mut at = at;
        for _ in 0..extra {
            let r = self.reserve_read(die, plane, at);
            at = r.end;
            last = Some(r);
        }
        last
    }

    /// Reserves a page program (tPROG) on `(die, plane)`.
    pub fn reserve_program(&mut self, die: u32, plane: u32, at: SimTime) -> Reservation {
        self.op_counts[1] += 1;
        let dur = self.timing.program;
        let idx = self.plane_idx(die, plane);
        self.plane_res[idx].reserve(at, dur)
    }

    /// Reserves a block erase (tBERS) on `(die, plane)`.
    pub fn reserve_erase(&mut self, die: u32, plane: u32, at: SimTime) -> Reservation {
        self.op_counts[2] += 1;
        let dur = self.timing.erase;
        let idx = self.plane_idx(die, plane);
        self.plane_res[idx].reserve(at, dur)
    }

    /// Whether the plane is idle at `t`.
    pub fn plane_idle_at(&self, die: u32, plane: u32, t: SimTime) -> bool {
        self.plane_res[self.plane_idx(die, plane)].is_idle_at(t)
    }

    /// Total array busy time across all planes.
    pub fn busy_total(&self) -> SimTime {
        self.plane_res.iter().map(|r| r.busy_total()).sum()
    }

    /// `(reads, programs, erases)` issued so far.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.op_counts[0], self.op_counts[1], self.op_counts[2])
    }

    /// Serializes per-plane timelines and op counters (geometry and timing
    /// are configuration, re-derived on construction).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_usize(self.plane_res.len());
        for r in &self.plane_res {
            r.ckpt_save(w);
        }
        for &c in &self.op_counts {
            w.put_u64(c);
        }
    }

    /// Restores state saved by [`FlashChip::ckpt_save`] into a chip built
    /// with the same geometry.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or a plane-count mismatch.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.take_usize()?;
        if n != self.plane_res.len() {
            return Err(CkptError::Invalid(format!(
                "chip has {n} planes in checkpoint, {} configured",
                self.plane_res.len()
            )));
        }
        for res in &mut self.plane_res {
            res.ckpt_load(r)?;
        }
        for c in &mut self.op_counts {
            *c = r.take_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> FlashChip {
        FlashChip::new(&Geometry::tiny(), FlashTiming::ull())
    }

    #[test]
    fn planes_are_independent() {
        let mut c = chip();
        let a = c.reserve_read(0, 0, SimTime::ZERO);
        let b = c.reserve_read(0, 1, SimTime::ZERO);
        // Different planes proceed concurrently.
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
    }

    #[test]
    fn same_plane_serializes() {
        let mut c = chip();
        let a = c.reserve_read(0, 0, SimTime::ZERO);
        let b = c.reserve_program(0, 0, SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end - b.start, SimTime::from_us(50));
    }

    #[test]
    fn erase_takes_a_millisecond() {
        let mut c = chip();
        let r = c.reserve_erase(0, 1, SimTime::ZERO);
        assert_eq!(r.end, SimTime::from_ms(1));
    }

    #[test]
    fn idle_checks() {
        let mut c = chip();
        assert!(c.plane_idle_at(0, 0, SimTime::ZERO));
        c.reserve_read(0, 0, SimTime::ZERO);
        assert!(!c.plane_idle_at(0, 0, SimTime::from_us(1)));
        assert!(c.plane_idle_at(0, 1, SimTime::from_us(1)));
        assert!(c.plane_idle_at(0, 0, SimTime::from_us(3)));
    }

    #[test]
    fn op_counts_accumulate() {
        let mut c = chip();
        c.reserve_read(0, 0, SimTime::ZERO);
        c.reserve_read(0, 1, SimTime::ZERO);
        c.reserve_program(0, 0, SimTime::ZERO);
        c.reserve_erase(0, 0, SimTime::ZERO);
        assert_eq!(c.op_counts(), (2, 1, 1));
    }

    #[test]
    fn busy_total_sums_planes() {
        let mut c = chip();
        c.reserve_read(0, 0, SimTime::ZERO);
        c.reserve_read(0, 1, SimTime::ZERO);
        assert_eq!(c.busy_total(), SimTime::from_us(6));
    }

    #[test]
    fn retry_senses_chain_contiguously() {
        let mut c = chip();
        let first = c.reserve_read(0, 0, SimTime::ZERO);
        let last = c.reserve_read_retries(0, 0, first.end, 3).unwrap();
        // 3 extra senses back-to-back: total array occupancy is 4 × tR.
        assert_eq!(last.end, SimTime::from_us(12));
        assert_eq!(c.op_counts().0, 4);
        assert!(c.reserve_read_retries(0, 0, last.end, 0).is_none());
        assert_eq!(
            FlashTiming::ull().read_with_retries(3),
            SimTime::from_us(12)
        );
    }
}
