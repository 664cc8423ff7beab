//! Spatial garbage collection in action: precondition a device until GC
//! must run, then compare the paper's three collectors on pnSSD.
//!
//! ```sh
//! cargo run --release --example spatial_gc
//! ```

use networked_ssd::{run, Aging, Architecture, GcPlanSpec, PaperWorkload, SsdConfig};

fn main() -> Result<(), String> {
    let plans = [
        ("PaGC", GcPlanSpec::pagc()),
        ("preemptive", GcPlanSpec::preemptive()),
        ("SpGC", GcPlanSpec::spatial()),
    ];
    println!("pnSSD(+split) under write pressure, rocksdb-0, preconditioned to the GC trigger:\n");

    let mut baseline_mean = None;
    for (name, plan) in plans {
        let mut cfg = SsdConfig::gc_scaled(Architecture::PnSsdSplit);
        cfg.gc.plan = Some(plan);
        let trace = PaperWorkload::RocksDb0.generate(8_000, cfg.logical_bytes() / 2, 7);
        // 85% full with 0.3×logical random overwrites, then pushed to the
        // trigger watermark so GC runs throughout the measurement.
        let report = run(cfg, &trace, Aging::PAPER)?;
        let mean = report.all.mean;
        let vs = baseline_mean
            .map(|b: networked_ssd::sim::SimTime| {
                format!("{:.2}x vs PaGC", b.as_ns() as f64 / mean.as_ns() as f64)
            })
            .unwrap_or_else(|| "baseline".into());
        if baseline_mean.is_none() {
            baseline_mean = Some(mean);
        }
        println!(
            "{name:<12} mean={mean}  p99={}  gc-events={}  pages-copied={}  ({vs})",
            report.all.p99, report.gc.events, report.gc.pages_copied
        );
    }
    println!(
        "\nSpatial GC (paper §VI) confines reclamation to the GC group's chips and\n\
         v-channels while the I/O group keeps serving the host — the interference\n\
         reduction above is the paper's Fig 19 effect."
    );
    Ok(())
}
