//! Importing a real-world trace: parse MSR Cambridge CSV, characterize it,
//! wrap it into the device's logical space, and replay it on two
//! architectures.
//!
//! ```sh
//! cargo run --release --example msr_import            # embedded sample
//! cargo run --release --example msr_import -- my.csv  # your trace file
//! ```

use networked_ssd::workloads::{import_msr, MsrImportOptions, TraceStats};
use networked_ssd::{run, Aging, Architecture, SsdConfig};

/// A miniature MSR-format snippet (the real collection's `usr_0` volume
/// has millions of rows in exactly this shape).
const SAMPLE: &str = "\
128166372003061629,usr,0,Read,7014609920,24576,41286
128166372003106702,usr,0,Read,7014634496,8192,12651
128166372003231868,usr,0,Write,2517421568,4096,1052
128166372003413130,usr,0,Read,95764480,16384,11268
128166372003492381,usr,0,Write,2517425664,4096,998
128166372003693120,usr,0,Read,95780864,32768,24998
128166372004012447,usr,0,Write,4096,8192,1163
128166372004319984,usr,0,Read,7014642688,65536,50821
128166372004671472,usr,0,Write,2517429760,12288,2215
128166372005021109,usr,0,Read,95813632,16384,12020";

fn main() -> Result<(), String> {
    let mut cfg = SsdConfig::new(Architecture::BaseSsd);
    cfg.gc.plan = None;

    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?,
        None => SAMPLE.to_string(),
    };

    // Wrap raw volume offsets into the simulated device's logical space.
    let trace = import_msr(
        &text,
        "msr-usr-0",
        MsrImportOptions {
            disk: Some(0),
            wrap_bytes: Some(cfg.logical_bytes() / 2),
            max_records: Some(100_000),
        },
    )
    .map_err(|e| format!("import: {e}"))?;

    println!(
        "imported `{}`:\n{}\n",
        trace.name(),
        TraceStats::measure(&trace)
    );

    let base = run(cfg, &trace, Aging::Footprint)?;
    let mut pn_cfg = SsdConfig::new(Architecture::PnSsdSplit);
    pn_cfg.gc.plan = None;
    let pnssd = run(pn_cfg, &trace, Aging::Footprint)?;

    println!(
        "baseSSD:        mean {}  p99 {}",
        base.all.mean, base.all.p99
    );
    println!(
        "pnSSD (+split): mean {}  p99 {}",
        pnssd.all.mean, pnssd.all.p99
    );
    println!("speedup: {:.2}x", pnssd.speedup_vs(&base));
    Ok(())
}
