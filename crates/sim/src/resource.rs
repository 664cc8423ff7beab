//! Contended-resource models.
//!
//! Every contended unit in the simulator — a flash channel, a mesh link, a
//! flash plane, a host-side DMA pipe — is a [`Resource`]: a FIFO
//! *timeline-reservation* server. `reserve(now, dur)` grants the interval
//! `[max(now, next_free), +dur)` and advances the resource's `next_free`
//! horizon. Because callers only reserve at the moment their data is actually
//! ready (the event-driven engine stages transactions), the grant order is
//! first-come-first-served by ready time, which is exactly how a flash bus
//! with controller-driven arbitration behaves.

use crate::{CkptError, CkptReader, CkptWriter, SimTime, UtilizationRecorder};

/// A granted interval on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reservation {
    /// When the resource actually starts serving this request.
    pub start: SimTime,
    /// When the resource becomes free again.
    pub end: SimTime,
}

impl Reservation {
    /// The service duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A FIFO timeline-reservation resource.
///
/// # Examples
///
/// ```
/// use nssd_sim::{Resource, SimTime};
///
/// let mut bus = Resource::new();
/// let a = bus.reserve(SimTime::ZERO, SimTime::from_ns(100));
/// assert_eq!(a.start, SimTime::ZERO);
/// // A second request arriving at t=30 queues behind the first.
/// let b = bus.reserve(SimTime::from_ns(30), SimTime::from_ns(50));
/// assert_eq!(b.start, SimTime::from_ns(100));
/// assert_eq!(b.end, SimTime::from_ns(150));
/// ```
#[derive(Debug, Default)]
pub struct Resource {
    next_free: SimTime,
    busy_total: SimTime,
    recorder: Option<UtilizationRecorder>,
}

impl Resource {
    /// Creates an initially idle resource.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Creates a resource that additionally records windowed, per-tag
    /// utilization (see [`UtilizationRecorder`]).
    pub fn with_recorder(window: SimTime, tags: usize) -> Self {
        Resource {
            recorder: Some(UtilizationRecorder::new(window, tags)),
            ..Resource::default()
        }
    }

    /// Reserves the resource for `dur`, starting no earlier than `now`.
    /// Equivalent to [`Resource::reserve_tagged`] with tag 0.
    pub fn reserve(&mut self, now: SimTime, dur: SimTime) -> Reservation {
        self.reserve_tagged(now, dur, 0)
    }

    /// Reserves the resource for `dur` starting no earlier than `now`,
    /// attributing the busy time to traffic class `tag` in the recorder.
    ///
    /// # Panics
    ///
    /// Panics if a recorder is attached and `tag` is out of range for it.
    pub fn reserve_tagged(&mut self, now: SimTime, dur: SimTime, tag: usize) -> Reservation {
        let start = now.max(self.next_free);
        let end = start + dur;
        self.next_free = end;
        self.busy_total += dur;
        if let Some(rec) = &mut self.recorder {
            rec.record(start, end, tag);
        }
        Reservation { start, end }
    }

    /// The earliest instant at which a reservation made at `now` would start.
    pub fn earliest_start(&self, now: SimTime) -> SimTime {
        now.max(self.next_free)
    }

    /// The time at which all current reservations have drained.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Whether the resource has no pending work at instant `t`.
    pub fn is_idle_at(&self, t: SimTime) -> bool {
        self.next_free <= t
    }

    /// Total busy time granted so far.
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }

    /// The attached utilization recorder, if any.
    pub fn recorder(&self) -> Option<&UtilizationRecorder> {
        self.recorder.as_ref()
    }

    /// Serializes the reservation horizon, the busy total, and (if
    /// attached) the recorder's accumulated bins.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_time(self.next_free);
        w.put_time(self.busy_total);
        w.put_bool(self.recorder.is_some());
        if let Some(rec) = &self.recorder {
            rec.ckpt_save(w);
        }
    }

    /// Restores state saved by [`Resource::ckpt_save`] into a resource
    /// constructed with the same recorder configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or if recorder presence/configuration
    /// differs from this resource's construction.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let next_free = r.take_time()?;
        let busy_total = r.take_time()?;
        let has_recorder = r.take_bool()?;
        if has_recorder != self.recorder.is_some() {
            return Err(CkptError::Invalid(
                "recorder presence differs from configuration".into(),
            ));
        }
        if let Some(rec) = &mut self.recorder {
            rec.ckpt_load(r)?;
        }
        self.next_free = next_free;
        self.busy_total = busy_total;
        Ok(())
    }
}

/// A resource with a byte bandwidth, converting transfer sizes to durations.
///
/// Used for the host-side PCIe link, the SoC system bus and the internal
/// DRAM, which the paper provisions as bandwidth pipes (Table II).
///
/// # Examples
///
/// ```
/// use nssd_sim::{BandwidthPipe, SimTime};
///
/// // An 8 GB/s pipe moves 64 KiB in 8192 ns.
/// let mut pipe = BandwidthPipe::new(8_000_000_000);
/// assert_eq!(pipe.transfer_time(65_536), SimTime::from_ns(8192));
/// let r = pipe.transfer(SimTime::ZERO, 65_536, 0);
/// assert_eq!(r.end, SimTime::from_ns(8192));
/// ```
#[derive(Debug)]
pub struct BandwidthPipe {
    resource: Resource,
    bytes_per_sec: u64,
}

impl BandwidthPipe {
    /// Creates a pipe with the given bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "pipe bandwidth must be nonzero");
        BandwidthPipe {
            resource: Resource::new(),
            bytes_per_sec,
        }
    }

    /// Serialization time for `bytes` at this pipe's bandwidth (rounded up).
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        // In u64 unless the product overflows it.
        let ns = match bytes.checked_mul(1_000_000_000) {
            Some(n) => n.div_ceil(self.bytes_per_sec),
            None => (bytes as u128 * 1_000_000_000).div_ceil(self.bytes_per_sec as u128) as u64,
        };
        SimTime::from_ns(ns)
    }

    /// Queues a transfer of `bytes` at `now` and returns its reservation.
    pub fn transfer(&mut self, now: SimTime, bytes: u64, tag: usize) -> Reservation {
        let dur = self.transfer_time(bytes);
        self.resource.reserve_tagged(now, dur, tag)
    }

    /// The configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// The underlying FIFO resource.
    pub fn resource(&self) -> &Resource {
        &self.resource
    }

    /// Serializes the underlying resource (bandwidth is configuration).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.resource.ckpt_save(w);
    }

    /// Restores the underlying resource state.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or configuration mismatch.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.resource.ckpt_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_transfer_math_matches_u128_across_the_overflow_edge() {
        let edge = u64::MAX / 1_000_000_000;
        let sizes = (0..2000)
            .chain(edge - 3..=edge + 3)
            .chain(u64::MAX - 2..=u64::MAX)
            .chain((0..64).map(|k| 1u64 << k))
            .chain((1..64).map(|k| (1u64 << k) - 1));
        for bytes in sizes {
            for rate in [1, 7, 1_000_000_000, 3_200_000_000, 16_000_000_000, u64::MAX] {
                let wide = (bytes as u128 * 1_000_000_000).div_ceil(rate as u128) as u64;
                assert_eq!(
                    BandwidthPipe::new(rate).transfer_time(bytes),
                    SimTime::from_ns(wide),
                    "{bytes} B at {rate} B/s"
                );
            }
        }
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        let g = r.reserve(SimTime::from_ns(7), SimTime::from_ns(3));
        assert_eq!(g.start, SimTime::from_ns(7));
        assert_eq!(g.end, SimTime::from_ns(10));
        assert_eq!(g.duration(), SimTime::from_ns(3));
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = Resource::new();
        r.reserve(SimTime::ZERO, SimTime::from_ns(100));
        let g = r.reserve(SimTime::from_ns(10), SimTime::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(100));
        assert_eq!(g.end, SimTime::from_ns(110));
    }

    #[test]
    fn gap_between_reservations_leaves_idle_time() {
        let mut r = Resource::new();
        r.reserve(SimTime::ZERO, SimTime::from_ns(10));
        let g = r.reserve(SimTime::from_ns(50), SimTime::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(50));
        assert_eq!(r.busy_total(), SimTime::from_ns(20));
    }

    #[test]
    fn busy_until_the_last_reservation_drains() {
        let mut r = Resource::new();
        r.reserve(SimTime::ZERO, SimTime::from_ns(100));
        assert!(!r.is_idle_at(SimTime::from_ns(50)));
        assert!(r.is_idle_at(SimTime::from_ns(100)));
    }

    #[test]
    fn recorder_receives_tagged_busy_time() {
        let mut r = Resource::with_recorder(SimTime::from_ns(100), 2);
        r.reserve_tagged(SimTime::ZERO, SimTime::from_ns(50), 1);
        let rec = r.recorder().unwrap();
        assert_eq!(rec.busy_in_window(0, 1), SimTime::from_ns(50));
        assert_eq!(rec.busy_in_window(0, 0), SimTime::ZERO);
    }

    #[test]
    fn pipe_times_round_up() {
        let pipe = BandwidthPipe::new(3);
        // 1 byte at 3 B/s = 333_333_333.33 ns, rounded up.
        assert_eq!(pipe.transfer_time(1), SimTime::from_ns(333_333_334));
    }

    #[test]
    fn pipe_serializes_transfers() {
        let mut pipe = BandwidthPipe::new(1_000_000_000); // 1 GB/s → 1 ns/B
        let a = pipe.transfer(SimTime::ZERO, 100, 0);
        let b = pipe.transfer(SimTime::ZERO, 100, 0);
        assert_eq!(a.end, SimTime::from_ns(100));
        assert_eq!(b.start, SimTime::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_bandwidth_pipe_panics() {
        let _ = BandwidthPipe::new(0);
    }
}
