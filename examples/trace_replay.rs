//! Trace round-trip: generate a workload, save it in the plain-text trace
//! format, reload it, and replay it — the workflow for bringing your own
//! block traces to the simulator.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use networked_ssd::{run, Aging, Architecture, PaperWorkload, SsdConfig, Trace};

fn main() -> Result<(), String> {
    let mut cfg = SsdConfig::new(Architecture::PSsd);
    cfg.gc.plan = None;

    // 1. Generate (or bring your own `<ns> <R|W> <offset> <len>` file).
    let original = PaperWorkload::WebSearch0.generate(5_000, cfg.logical_bytes() / 4, 11);

    // 2. Serialize to the text format.
    let text = original.to_text();
    println!(
        "serialized {} records ({} bytes); first lines:",
        original.len(),
        text.len()
    );
    for line in text.lines().take(4) {
        println!("  {line}");
    }

    // 3. Reload and verify.
    let reloaded: Trace = text.parse().map_err(|e| format!("parse: {e}"))?;
    assert_eq!(reloaded, original, "text round-trip must be lossless");

    // 4. Replay.
    let report = run(cfg, &reloaded, Aging::Footprint)?;
    println!("\nreplay on pSSD:\n{report}");
    Ok(())
}
