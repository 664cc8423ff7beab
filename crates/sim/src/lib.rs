//! Discrete-event simulation kernel for the Networked SSD reproduction.
//!
//! This crate is the substrate beneath every timing result in the workspace:
//!
//! * [`SimTime`] — integer-nanosecond simulated time.
//! * [`EventQueue`] — a deterministic discrete-event priority queue with a
//!   strict FIFO tiebreak for simultaneous events, backed by a hierarchical
//!   timing wheel (O(1) amortized schedule/pop, allocation-free steady
//!   state, same-tick batch drain via [`EventQueue::pop_batch`]).
//! * [`Resource`] — a FIFO timeline-reservation server modeling any contended
//!   unit (flash channel, mesh link, flash plane, DMA pipe); and
//!   [`BandwidthPipe`], a resource parameterized by byte bandwidth.
//! * [`Histogram`] / [`RunningStats`] — latency and scalar statistics.
//! * [`UtilizationRecorder`] — windowed, per-traffic-class busy tracking used
//!   for the paper's channel-imbalance analysis (Fig 3).
//! * [`ChunkedTable`] — a dense per-page table that allocates memory only
//!   for the chunks a run writes (the FTL's page maps, the oracle's shadow).
//! * [`Pool`] — a scoped-thread job pool that fans independent simulation
//!   cells across cores and returns results in submission order, so parallel
//!   experiment matrices render byte-identically to serial runs.
//!
//! # Example: a two-stage pipeline
//!
//! ```
//! use nssd_sim::{EventQueue, Resource, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Start(u32),
//!     Done(u32),
//! }
//!
//! let mut q = EventQueue::new();
//! let mut bus = Resource::new();
//! let mut done = Vec::new();
//!
//! q.schedule(SimTime::ZERO, Ev::Start(0));
//! q.schedule(SimTime::ZERO, Ev::Start(1));
//!
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Start(id) => {
//!             let r = bus.reserve(now, SimTime::from_ns(100));
//!             q.schedule(r.end, Ev::Done(id));
//!         }
//!         Ev::Done(id) => done.push((id, now)),
//!     }
//! }
//!
//! // The second transfer queued behind the first on the shared bus.
//! assert_eq!(done[0], (0, SimTime::from_ns(100)));
//! assert_eq!(done[1], (1, SimTime::from_ns(200)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
pub mod ckpt;
mod event;
mod pool;
mod resource;
mod rng;
mod stats;
pub mod table;
mod time;
mod util;
mod wheel;

pub use check::{Violation, ViolationLog};
pub use ckpt::{
    put_u32_slice, put_u64_seq, put_u64_slice, take_u32_slice, take_u64_seq, take_u64_slice,
    CkptError, CkptReader, CkptWriter,
};
pub use event::EventQueue;
pub use pool::{env_count, jobs_from_env, scoped_map, Pool};
pub use resource::{BandwidthPipe, Reservation, Resource};
pub use rng::{DetRng, Rng, SampleRange};
pub use stats::{Histogram, RunningStats};
pub use table::ChunkedTable;
pub use time::SimTime;
pub use util::UtilizationRecorder;

/// Property-suite iteration count: the offline default keeps `cargo test`
/// fast; building with `--features heavy-tests` multiplies the search depth
/// (the role the proptest dependency played before the offline port).
#[cfg(test)]
const CASES: usize = if cfg!(feature = "heavy-tests") {
    4096
} else {
    128
};

#[cfg(test)]
mod proptests {
    use super::*;

    #[test]
    fn event_queue_pops_sorted() {
        let mut rng = DetRng::seed_from_u64(0xE0E0);
        for _ in 0..CASES {
            let n = rng.gen_range(1..200usize);
            let mut q = EventQueue::new();
            for _ in 0..n {
                let t = rng.gen_range(0..1_000_000u64);
                q.schedule(SimTime::from_ns(t), t);
            }
            let mut prev = 0u64;
            while let Some((at, _)) = q.pop() {
                assert!(at.as_ns() >= prev);
                prev = at.as_ns();
            }
        }
    }

    #[test]
    fn resource_reservations_never_overlap() {
        let mut rng = DetRng::seed_from_u64(0x5EED);
        for _ in 0..CASES {
            // Requests must be issued in nondecreasing `now` order, as the
            // engine does; sort to honor the API contract.
            let n = rng.gen_range(1..100usize);
            let mut reqs: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.gen_range(0..10_000u64), rng.gen_range(1..500u64)))
                .collect();
            reqs.sort();
            let mut r = Resource::new();
            let mut prev_end = SimTime::ZERO;
            for (now, dur) in reqs {
                let g = r.reserve(SimTime::from_ns(now), SimTime::from_ns(dur));
                assert!(g.start >= prev_end);
                assert!(g.start >= SimTime::from_ns(now));
                assert_eq!(g.end - g.start, SimTime::from_ns(dur));
                prev_end = g.end;
            }
        }
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut rng = DetRng::seed_from_u64(0x415);
        for _ in 0..CASES {
            let n = rng.gen_range(1..300usize);
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(SimTime::from_ns(rng.gen_range(1..10_000_000_000u64)));
            }
            let mut prev = SimTime::ZERO;
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = h.percentile(p);
                assert!(v >= prev, "p{} = {} < previous {}", p, v, prev);
                assert!(v >= h.min() && v <= h.max());
                prev = v;
            }
        }
    }

    #[test]
    fn recorder_conserves_busy_time() {
        let mut rng = DetRng::seed_from_u64(0xB1B);
        for _ in 0..CASES {
            let window = rng.gen_range(1..500u64);
            let n = rng.gen_range(1..50usize);
            let mut rec = UtilizationRecorder::new(SimTime::from_ns(window), 1);
            let mut expect = 0u64;
            // Intervals as a FIFO resource grants them: each starts at or
            // after the previous one's end (the recorder's contract).
            let mut free = 0u64;
            for _ in 0..n {
                let s = free + rng.gen_range(0..300u64);
                let d = rng.gen_range(0..1_000u64);
                rec.record(SimTime::from_ns(s), SimTime::from_ns(s + d), 0);
                expect += d;
                free = s + d;
            }
            let windows = rec.num_windows();
            let binned: u64 = (0..windows).map(|w| rec.busy_in_window(w, 0).as_ns()).sum();
            assert_eq!(binned, expect);
        }
    }

    #[test]
    fn histogram_mean_matches_exact() {
        let mut rng = DetRng::seed_from_u64(0x3AB);
        for _ in 0..CASES {
            let n = rng.gen_range(1..200usize);
            let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(SimTime::from_ns(s));
            }
            let exact = samples.iter().map(|&s| s as u128).sum::<u128>() / samples.len() as u128;
            assert_eq!(h.mean().as_ns() as u128, exact);
        }
    }
}
