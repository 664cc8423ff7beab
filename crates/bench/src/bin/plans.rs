//! Composed-GC-plan ablation sweep: the full victim × placement ×
//! preemption grid on pnSSD(+split) over the YCSB-A trace, fanned across
//! the worker pool.
//!
//! Prints the ablation table to stdout and writes a machine-readable record
//! per plan (latency, GC accounting, write amplification, wear spread) to
//! `target/plans.json`.
//!
//! Usage: `plans [--smoke] [--out <path>]`

use std::fmt::Write as _;

use nssd_bench::artifact::ArtifactArgs;
use nssd_bench::gc_experiments::{plan_ablation_reports, plan_grid};

fn main() {
    let args = ArtifactArgs::from_env("target/plans.json");
    let requests = if args.smoke {
        1_500
    } else {
        nssd_bench::setup::gc_requests_per_run()
    };

    eprintln!(
        ">>> plan ablation: {} plans x {requests} requests",
        plan_grid().len()
    );
    let reports = plan_ablation_reports(requests);

    let base_mean = reports[0].1.all.mean.as_ns() as f64;
    let mut json = String::from("{\n  \"experiment\": \"plan_ablation\",\n  \"plans\": [\n");
    for (i, (spec, r)) in reports.iter().enumerate() {
        let mean = r.all.mean.as_ns() as f64;
        println!(
            "{:<22} mean {:>8.1} µs  p99 {:>8.1} µs  ({:.2}x vs PaGC tuple)  gc {:>3}  \
             copied {:>5}  wear spread {}",
            spec.to_string(),
            mean / 1e3,
            r.all.p99.as_ns() as f64 / 1e3,
            base_mean / mean.max(1.0),
            r.gc.events,
            r.gc.pages_copied,
            r.wear.spread(),
        );
        let _ = writeln!(
            json,
            "    {{\"plan\": \"{spec}\", \"mean_us\": {:.3}, \"p99_us\": {:.3}, \
             \"speedup_vs_pagc\": {:.4}, \"gc_events\": {}, \"pages_copied\": {}, \
             \"blocks_erased\": {}, \"write_amp\": {:.4}, \"wear_min\": {}, \"wear_max\": {}, \
             \"wear_spread\": {}}}{}",
            mean / 1e3,
            r.all.p99.as_ns() as f64 / 1e3,
            base_mean / mean.max(1.0),
            r.gc.events,
            r.gc.pages_copied,
            r.gc.blocks_erased,
            r.ftl.write_amplification(),
            r.wear.min,
            r.wear.max,
            r.wear.spread(),
            if i + 1 < reports.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    args.write(&json);
}
