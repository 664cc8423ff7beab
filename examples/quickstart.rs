//! Quickstart: simulate one workload on the conventional SSD and on the
//! paper's packetized-network SSD, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use networked_ssd::{run, Aging, Architecture, PaperWorkload, SsdConfig};

fn main() -> Result<(), String> {
    // A capacity-scaled device with the paper's 8-channel × 8-way topology.
    let mut base_cfg = SsdConfig::new(Architecture::BaseSsd);
    base_cfg.gc.plan = None; // pure interconnect comparison

    // 20k requests of a mail-server-like trace over half the device.
    let trace = PaperWorkload::Exchange1.generate(20_000, base_cfg.logical_bytes() / 2, 42);
    println!(
        "workload: {} ({} requests, {:.0}% reads)",
        trace.name(),
        trace.len(),
        trace.read_fraction() * 100.0
    );

    let base = run(base_cfg, &trace, Aging::Footprint)?;
    println!("\nbaseSSD:\n{base}");

    let mut pn_cfg = SsdConfig::new(Architecture::PnSsdSplit);
    pn_cfg.gc.plan = None;
    let pnssd = run(pn_cfg, &trace, Aging::Footprint)?;
    println!("pnSSD (+split):\n{pnssd}");

    println!(
        "pnSSD(+split) speedup over baseSSD: {:.2}x (paper Fig 14: ~1.8x on average)",
        pnssd.speedup_vs(&base)
    );
    Ok(())
}
