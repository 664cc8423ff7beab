//! Windowed, traffic-tagged utilization recording.
//!
//! The paper's Fig 3 plots per-channel busy fraction over time, split by
//! traffic class (read vs write). [`UtilizationRecorder`] bins the busy
//! intervals granted by a [`crate::Resource`] into fixed-width time windows,
//! with a separate accumulator per traffic tag.
//!
//! A bin is a `u32` of busy nanoseconds. A FIFO resource never books two
//! intervals at once, so it books at most one window's width into a window,
//! and a window is at most `u32::MAX` ns (about 4.3 s) wide.

use crate::{CkptError, CkptReader, CkptWriter, SimTime};

/// Accumulates busy nanoseconds into `(window, tag)` bins.
///
/// # Examples
///
/// ```
/// use nssd_sim::{SimTime, UtilizationRecorder};
///
/// let mut rec = UtilizationRecorder::new(SimTime::from_ns(100), 2);
/// rec.record(SimTime::from_ns(50), SimTime::from_ns(150), 0);
/// assert_eq!(rec.busy_in_window(0, 0), SimTime::from_ns(50));
/// assert_eq!(rec.busy_in_window(1, 0), SimTime::from_ns(50));
/// assert!((rec.fraction(0, 0) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationRecorder {
    window: SimTime,
    tags: usize,
    /// Flattened `[window][tag]` busy-nanosecond bins, each at most
    /// `window`.
    bins: Vec<u32>,
    /// Index and base time of the most recently written window — a pure
    /// cache that lets the common case (an interval inside the window the
    /// last one hit) skip the division entirely. Not checkpointed.
    cached_win: usize,
    cached_base: u64,
}

impl UtilizationRecorder {
    /// Creates a recorder with the given window width and number of traffic
    /// tags.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or wider than `u32::MAX` ns, or `tags` is
    /// zero.
    pub fn new(window: SimTime, tags: usize) -> Self {
        assert!(!window.is_zero(), "window must be nonzero");
        assert!(
            window.as_ns() <= u32::MAX as u64,
            "window of {window} is wider than u32::MAX ns"
        );
        assert!(tags > 0, "at least one traffic tag is required");
        UtilizationRecorder {
            window,
            tags,
            bins: Vec::new(),
            cached_win: 0,
            cached_base: 0,
        }
    }

    /// Attributes the busy interval `[start, end)` to `tag`, spreading it
    /// across the windows it overlaps. The intervals given to one tag must
    /// not overlap, as those a FIFO [`crate::Resource`] grants never do.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is out of range, `end < start`, or a window's bin
    /// would pass the window's width (overlapping intervals).
    pub fn record(&mut self, start: SimTime, end: SimTime, tag: usize) {
        assert!(tag < self.tags, "tag {tag} out of range ({})", self.tags);
        assert!(end >= start, "interval end precedes start");
        if end == start {
            return;
        }
        let w = self.window.as_ns();
        let mut cur = start.as_ns();
        let end = end.as_ns();
        // Fast path: the interval lies inside the window the last record
        // hit (typical for a busy resource's monotone reservation stream),
        // so the window index is already known.
        let i = self.cached_win * self.tags + tag;
        if cur >= self.cached_base && end <= self.cached_base + w && i < self.bins.len() {
            self.add(i, end - cur);
            return;
        }
        let mut win = (cur / w) as usize;
        let mut win_end = (win as u64 + 1) * w;
        while cur < end {
            let span = end.min(win_end) - cur;
            self.ensure_windows(win + 1);
            self.add(win * self.tags + tag, span);
            cur += span;
            self.cached_win = win;
            self.cached_base = win_end - w;
            win += 1;
            win_end += w;
        }
    }

    #[inline]
    fn add(&mut self, i: usize, span: u64) {
        let busy = self.bins[i] as u64 + span;
        assert!(
            busy <= self.window.as_ns(),
            "{busy} ns booked into a {} window: overlapping intervals",
            self.window
        );
        self.bins[i] = busy as u32;
    }

    fn ensure_windows(&mut self, n: usize) {
        if self.bins.len() < n * self.tags {
            self.bins.resize(n * self.tags, 0);
        }
    }

    /// Number of windows that have received any recording.
    pub fn num_windows(&self) -> usize {
        self.bins.len() / self.tags
    }

    /// Busy time recorded for `tag` in window `w` (zero if out of range for
    /// the window, panicking only on an out-of-range tag).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not below the configured tag count.
    pub fn busy_in_window(&self, w: usize, tag: usize) -> SimTime {
        assert!(tag < self.tags, "tag {tag} out of range ({})", self.tags);
        let idx = w * self.tags + tag;
        SimTime::from_ns(self.bins.get(idx).map_or(0, |&b| b as u64))
    }

    /// Busy fraction (0..=1) for `tag` in window `w`.
    pub fn fraction(&self, w: usize, tag: usize) -> f64 {
        self.busy_in_window(w, tag).as_ns() as f64 / self.window.as_ns() as f64
    }

    /// Per-window busy fractions for `tag`, over the first `n` windows
    /// (padding with zeros past the recorded range).
    pub fn fractions(&self, tag: usize, n: usize) -> Vec<f64> {
        (0..n).map(|w| self.fraction(w, tag)).collect()
    }

    /// Serializes the window/tag configuration and accumulated bins, the
    /// bins as [`crate::put_u64_seq`] writes them.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.put_time(self.window);
        w.put_usize(self.tags);
        w.put_usize(self.bins.len());
        w.put_deltas(self.bins.iter().map(|&b| b as u64), false);
    }

    /// Restores bins saved by [`UtilizationRecorder::ckpt_save`] into a
    /// recorder with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a window/tag configuration mismatch,
    /// a bins array that is not a whole number of windows, or a bin larger
    /// than its window.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let window = r.take_time()?;
        let tags = r.take_usize()?;
        if window != self.window || tags != self.tags {
            return Err(CkptError::Invalid(format!(
                "recorder shape ({} ns × {tags} tags) differs from configuration \
                 ({} ns × {} tags)",
                window.as_ns(),
                self.window.as_ns(),
                self.tags
            )));
        }
        // The count is checked against the remaining input before the bins
        // are allocated, as `take_u64_seq` does.
        let n = r.take_count(1)?;
        if n % self.tags != 0 {
            return Err(CkptError::Invalid(format!(
                "recorder bins ({n}) not a multiple of tags ({})",
                self.tags
            )));
        }
        let mut bins = Vec::with_capacity(n);
        r.take_deltas(n, false, |i, busy| {
            if busy > window.as_ns() {
                return Err(CkptError::Invalid(format!(
                    "recorder bin {i} holds {busy} ns, more than its {window} window"
                )));
            }
            bins.push(busy as u32);
            Ok(())
        })?;
        self.bins = bins;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_split_across_windows() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        rec.record(SimTime::from_ns(5), SimTime::from_ns(27), 0);
        assert_eq!(rec.busy_in_window(0, 0), SimTime::from_ns(5));
        assert_eq!(rec.busy_in_window(1, 0), SimTime::from_ns(10));
        assert_eq!(rec.busy_in_window(2, 0), SimTime::from_ns(7));
        assert_eq!(rec.num_windows(), 3);
    }

    #[test]
    fn tags_accumulate_independently() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(100), 2);
        rec.record(SimTime::ZERO, SimTime::from_ns(30), 0);
        rec.record(SimTime::ZERO, SimTime::from_ns(70), 1);
        assert_eq!(rec.busy_in_window(0, 0), SimTime::from_ns(30));
        assert_eq!(rec.busy_in_window(0, 1), SimTime::from_ns(70));
    }

    #[test]
    fn empty_interval_is_noop() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        rec.record(SimTime::from_ns(5), SimTime::from_ns(5), 0);
        assert_eq!(rec.num_windows(), 0);
    }

    #[test]
    fn out_of_range_window_reads_zero() {
        let rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        assert_eq!(rec.busy_in_window(99, 0), SimTime::ZERO);
        assert_eq!(rec.fraction(99, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "tag")]
    fn invalid_tag_rejected() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        rec.record(SimTime::ZERO, SimTime::from_ns(1), 3);
    }

    fn saved(window: u64, bins: &[u64]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_time(SimTime::from_ns(window));
        w.put_usize(2);
        crate::put_u64_seq(&mut w, bins);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_round_trips_and_refuses_a_bin_wider_than_its_window() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 2);
        rec.record(SimTime::from_ns(5), SimTime::from_ns(25), 1);
        let mut w = CkptWriter::new();
        rec.ckpt_save(&mut w);
        let bytes = w.into_bytes();
        // The u32 bins save as the u64 sequence the format has always held.
        assert_eq!(bytes, saved(10, &[0, 5, 0, 10, 0, 5]));
        let mut back = UtilizationRecorder::new(SimTime::from_ns(10), 2);
        back.ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
        assert_eq!(back.bins, rec.bins);
        // A full window loads; one nanosecond more is refused by message.
        back.ckpt_load(&mut CkptReader::new(&saved(10, &[10, 0])))
            .unwrap();
        for bins in [[0, 11], [u32::MAX as u64 + 1, 0]] {
            let err = back
                .ckpt_load(&mut CkptReader::new(&saved(10, &bins)))
                .unwrap_err()
                .to_string();
            assert!(err.contains("more than its"), "{err}");
        }
        let err = back.ckpt_load(&mut CkptReader::new(&saved(10, &[1, 2, 3])));
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("not a multiple of tags"));
    }

    #[test]
    #[should_panic(expected = "overlapping intervals")]
    fn overlapping_intervals_on_one_tag_are_refused() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        rec.record(SimTime::ZERO, SimTime::from_ns(8), 0);
        rec.record(SimTime::from_ns(4), SimTime::from_ns(7), 0);
    }

    #[test]
    #[should_panic(expected = "wider than u32::MAX ns")]
    fn a_window_wider_than_a_bin_can_hold_is_refused() {
        UtilizationRecorder::new(SimTime::from_ns(u32::MAX as u64 + 1), 1);
    }

    #[test]
    fn fractions_pad_with_zeros() {
        let mut rec = UtilizationRecorder::new(SimTime::from_ns(10), 1);
        rec.record(SimTime::ZERO, SimTime::from_ns(10), 0);
        let f = rec.fractions(0, 3);
        assert_eq!(f, vec![1.0, 0.0, 0.0]);
    }
}
