//! Host-cost benchmark of the networked-SSD simulator.
//!
//! Four pinned workloads ([`Workload`]) each run a few cells — one
//! architecture and configuration apiece — through the simulator's public
//! API only. A cell runs in its own single-threaded process, one process at
//! a time; the binary orchestrates the processes and aggregates what they
//! print. The model has no hardware reference results, so nothing here
//! scores accuracy: the benchmark scores the simulator's host cost and
//! checks that its outputs are correct and unchanged by tracing.
//!
//! The metric names and units the benchmark declares are [`END_TO_END`] and
//! [`PER_LAYER`]; `BENCHMARK.json` at the repository root lists the same.

#![warn(missing_docs)]

use std::collections::BTreeMap;

pub mod cell;
pub mod replay;
pub mod spans;
pub mod summary;
pub mod workload;

pub use cell::run_cell;
pub use summary::{CellResult, Summary};
pub use workload::{Cell, Workload, DEFAULT_SEED};

/// Named measurements of one cell or one workload.
pub type Metrics = BTreeMap<String, f64>;

/// End-to-end metrics: what a user running the simulator waits for and
/// pays. Timings sum over a workload's cells; `peak_rss_mb` is the maximum
/// over its cells; each is the median over the untraced repetitions.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("requests_per_host_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced repetition, the unit-cost replays and
/// the deterministic report counts. Every workload emits every name (a
/// layer a workload bypasses reads 0 in its counts and shares).
pub const PER_LAYER: [(&str, &str); 58] = [
    // nssd-sim event queue and `Resource`.
    ("sim.queue.ns_per_op", "ns"),
    ("sim.queue.est_share", "fraction"),
    ("sim.resource.ns_per_reserve", "ns"),
    ("engine.events", "count"),
    ("engine.events_per_request", "count"),
    ("engine.step_ns", "ns"),
    ("engine.loop_s", "s"),
    ("engine.traced_loop_s", "s"),
    // Fabric backends and nssd-interconnect.
    ("cell.base.run_s", "s"),
    ("cell.base.peak_rss_mb", "MiB"),
    ("cell.base.allocs_per_request", "count"),
    ("engine.allocs_per_request", "count"),
    ("channel.read_busy", "fraction"),
    ("channel.write_busy", "fraction"),
    ("channel.gc_busy", "fraction"),
    ("channel.imbalance_cv", "ratio"),
    ("energy.pj_per_host_byte", "pJ/B"),
    // nssd-ftl and the engine's GC runtime.
    ("ftl.replay.write_ns", "ns"),
    ("ftl.replay.lookup_ns", "ns"),
    ("ftl.replay.est_share", "fraction"),
    ("ftl.victim.select_us", "us"),
    ("ftl.host_writes", "count"),
    ("ftl.gc_relocations", "count"),
    ("ftl.erases", "count"),
    ("ftl.write_amp", "ratio"),
    ("gc.events", "count"),
    ("gc.pages_copied", "count"),
    ("gc.busy_share_sim", "fraction"),
    ("engine.step.gc_copy.count", "count"),
    ("engine.step.gc_copy.share", "fraction"),
    ("engine.step.gc_erase.count", "count"),
    ("engine.step.gc_erase.share", "fraction"),
    ("engine.step.other.count", "count"),
    ("engine.step.other.share", "fraction"),
    // nssd-host::qos.
    ("host.latency.slo_violations", "count"),
    ("host.writeburst.slo_violations", "count"),
    // nssd-oracle.
    ("oracle.checks", "count"),
    ("oracle.sync_ms", "ms"),
    ("oracle.sweep_us", "us"),
    // nssd-faults, ftl::redundancy, engine::rebuild.
    ("faults.pages_degraded", "count"),
    ("faults.reconstructed_reads", "count"),
    ("faults.rebuild_pages", "count"),
    ("faults.rebuild_share_sim", "fraction"),
    ("faults.degraded_p99_ratio", "ratio"),
    ("engine.step.rebuild.count", "count"),
    ("engine.step.rebuild.share", "fraction"),
    // Checkpoint codec.
    ("ckpt.save_s", "s"),
    ("ckpt.resume_s", "s"),
    ("ckpt.bytes", "B"),
    // nssd-workloads and core::runner.
    ("workloads.generate_s", "s"),
    ("runner.prepare_s", "s"),
    ("runner.sim_new_s", "s"),
    // core::report, golden, and the host itself.
    ("report.into_report_ms", "ms"),
    ("report.canonical_json_ms", "ms"),
    ("engine.step.complete.count", "count"),
    ("engine.step.complete.share", "fraction"),
    ("engine.trace_overhead", "ratio"),
    ("machine.calib_ms", "ms"),
];
