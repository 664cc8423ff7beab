//! Deterministic scoped-thread job pool.
//!
//! The paper's evaluation is a matrix of *independent* simulations
//! (architectures × workloads × GC policies × queue depths); every cell is a
//! pure function of its configuration, so the matrix parallelizes trivially —
//! as long as the results come back in submission order, the rendered tables
//! and golden snapshots are byte-identical to a serial run.
//!
//! [`Pool`] provides exactly that contract on `std::thread::scope` alone (no
//! external dependencies, preserving the fully-offline build):
//!
//! * jobs run on up to `workers` OS threads, each pulling the next unstarted
//!   job from a shared queue (dynamic load balancing — cell costs vary by
//!   orders of magnitude between no-GC and preconditioned-GC runs);
//! * results are written into the slot of the job that produced them, so
//!   [`Pool::map`] returns them in submission order regardless of completion
//!   order;
//! * a panicking job propagates: `std::thread::scope` joins every worker and
//!   re-raises, so a failed cell can never be silently dropped from a table.
//!
//! The worker count comes from the `NSSD_JOBS` environment variable when
//! using [`Pool::from_env`] (default: the machine's available parallelism;
//! a value that is not a positive integer stops the process).
//! `NSSD_JOBS=1` degenerates to a plain in-thread loop — byte-identical
//! output is the *contract*, serial execution is just its cheapest witness.
//!
//! # Examples
//!
//! ```
//! use nssd_sim::Pool;
//!
//! let jobs: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! let out = Pool::with_workers(4).map(jobs);
//! assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

/// A scoped-thread job pool returning results in submission order.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` worker threads (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool sized from the environment: see [`jobs_from_env`].
    pub fn from_env() -> Self {
        Pool::with_workers(jobs_from_env())
    }

    /// The number of worker threads this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the results **in submission order**.
    ///
    /// With one worker (or ≤ 1 job) this is a plain in-thread loop; no
    /// threads are spawned, so single-job callers pay nothing.
    ///
    /// # Panics
    ///
    /// Propagates the panic of any job after all workers have been joined
    /// (the `std::thread::scope` contract).
    pub fn map<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let n = jobs.len();
        if self.workers == 1 || n <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let queue: Mutex<VecDeque<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| loop {
                    // Take the job *out* of the queue before running it, so
                    // the lock is never held across a simulation.
                    let job = queue.lock().expect("job queue poisoned").pop_front();
                    let Some((i, f)) = job else { break };
                    let out = f();
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job ran to completion")
            })
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// The configured parallelism: `NSSD_JOBS` if set, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown). A value that is
/// not a positive integer ends the process (see [`env_count`]).
pub fn jobs_from_env() -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    env_count("NSSD_JOBS", default)
}

/// Reads a count knob from the environment: `default` when `var` is unset.
/// A value that is not a positive integer ends the process with exit
/// status 2 and a message naming `var`, so a typo never silently runs at
/// the default.
pub fn env_count(var: &str, default: usize) -> usize {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_count(var, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parses a count knob's value: `default` when `value` is `None`, the
/// integer when it is positive (surrounding whitespace allowed), an error
/// naming `var` otherwise.
fn parse_count(var: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{var}={v:?} is not a positive integer")),
    }
}

/// Fans `jobs` out across the environment-configured worker count and
/// returns the results in submission order (see [`Pool::map`]).
pub fn scoped_map<T, F>(jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    Pool::from_env().map(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        // Make later jobs finish *first* (earlier jobs sleep longer) so the
        // order guarantee is exercised, not vacuous.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(16 - i));
                    i
                }
            })
            .collect();
        let out = Pool::with_workers(8).map(jobs);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree_with_serial() {
        let serial: Vec<u64> =
            Pool::with_workers(1).map((0..40u64).map(|i| move || i * 3).collect());
        for workers in [2, 4, 7] {
            let jobs: Vec<_> = (0..40u64).map(|i| move || i * 3).collect();
            assert_eq!(
                Pool::with_workers(workers).map(jobs),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = &counter;
                move || c.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let out = Pool::with_workers(4).map(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let mut seen: Vec<usize> = out;
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_a_job_propagates_to_the_caller() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("cell exploded")),
            Box::new(|| 3),
        ];
        let result = catch_unwind(AssertUnwindSafe(|| Pool::with_workers(2).map(jobs)));
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn serial_pool_panic_also_propagates() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(|| panic!("boom"))];
        let result = catch_unwind(AssertUnwindSafe(|| Pool::with_workers(1).map(jobs)));
        assert!(result.is_err());
    }

    #[test]
    fn empty_and_single_job_sets() {
        let none: Vec<u8> = Pool::with_workers(4).map(Vec::<fn() -> u8>::new());
        assert!(none.is_empty());
        let one = Pool::with_workers(4).map(vec![|| 42u8]);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn workers_clamped_to_at_least_one() {
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }

    #[test]
    fn count_knobs_default_when_unset_and_reject_bad_values() {
        assert_eq!(parse_count("NSSD_X", None, 7), Ok(7));
        assert_eq!(parse_count("NSSD_X", Some("2000"), 7), Ok(2000));
        assert_eq!(parse_count("NSSD_X", Some(" 12 "), 7), Ok(12));
        for bad in ["", "0", "-5", "2k", "1e4", "abc"] {
            let err = parse_count("NSSD_X", Some(bad), 7).unwrap_err();
            assert!(err.starts_with("NSSD_X="), "{err}");
        }
    }
}
