//! Experiment harness for the Networked SSD reproduction.
//!
//! Each figure/table of the paper's evaluation is a shared experiment
//! function registered in [`all`]; the design-choice sweeps and §VIII
//! extensions live in [`ablations::all_ablations`] and
//! [`extensions::all_extensions`]. The `figure` binary runs any of them by
//! id or a whole registry by group name (`figure -- fig14 fig19`,
//! `figure -- --md experiments_results.md paper`, `figure -- --list`),
//! printing tables to stdout, with `--md` for a Markdown digest and `--csv`
//! for one CSV file per table. Simulator performance is measured by the
//! separate `benchmark/` package, not here.
//!
//! Scale knobs (environment variables; a value that is not a positive
//! integer is an error):
//!
//! * `NSSD_REQUESTS` — requests per no-GC run (default 20000).
//! * `NSSD_GC_REQUESTS` — requests per preconditioned GC run (default 6000).
//! * `NSSD_TENANT_REQUESTS` — requests per tenant in the interference
//!   matrix (default 2000).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod extensions;
pub mod gc_experiments;
pub mod lifetime;
pub mod reliability;
pub mod setup;
mod table;
pub mod tenants;

pub use experiments::Experiment;
pub use table::{fmt_ratio, fmt_us, Table};

/// A named, lazily-evaluated experiment.
pub type NamedExperiment = (&'static str, fn() -> Experiment);

/// Every experiment in paper order, as thunks (GC experiments are costly —
/// only evaluate what you need).
pub fn all() -> Vec<NamedExperiment> {
    vec![
        ("fig01", experiments::fig01_bandwidth_trend),
        ("table1", experiments::table1_signals),
        ("table2", experiments::table2_parameters),
        ("fig03", experiments::fig03_channel_imbalance),
        ("fig04", experiments::fig04_bandwidth_sweep),
        ("fig08", experiments::fig08_packet_overhead),
        ("fig14", experiments::fig14_io_latency_no_gc),
        ("fig15", experiments::fig15_throughput),
        ("fig16", experiments::fig16_synthetic_pcwd),
        ("fig17", experiments::fig17_synthetic_pwcd),
        ("fig18", gc_experiments::fig18_gc_synthetic),
        ("fig19", gc_experiments::fig19_gc_traces),
        ("fig20a", gc_experiments::fig20a_tail_latency),
        ("fig20b", gc_experiments::fig20b_gc_time),
        ("plans", gc_experiments::plan_ablation),
        ("fault_sweep", reliability::fault_sweep),
        ("rebuild", reliability::rebuild),
        ("lifetime", lifetime::lifetime),
        ("tenants", tenants::tenant_interference),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        for exp in [
            experiments::fig01_bandwidth_trend(),
            experiments::table1_signals(),
            experiments::table2_parameters(),
            experiments::fig08_packet_overhead(),
        ] {
            assert!(!exp.tables.is_empty(), "{} has no tables", exp.id);
            let md = exp.to_markdown();
            assert!(md.contains(exp.id));
            for (_, t) in &exp.tables {
                assert!(!t.is_empty(), "{} has an empty table", exp.id);
            }
        }
    }

    #[test]
    fn experiment_registry_is_complete() {
        let ids: Vec<&str> = all().iter().map(|(id, _)| *id).collect();
        for want in [
            "fig01",
            "table1",
            "table2",
            "fig03",
            "fig04",
            "fig08",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20a",
            "fig20b",
            "plans",
            "fault_sweep",
            "rebuild",
            "lifetime",
            "tenants",
        ] {
            assert!(ids.contains(&want), "missing experiment {want}");
        }
    }

    #[test]
    fn experiment_ids_are_unique_and_shadow_no_name() {
        // `figure` resolves a name to its first match and `--csv` names
        // files by id, so a repeated id, or one equal to a group name or
        // `fig06`, would be silently shadowed or overwritten.
        let registries = [
            all(),
            ablations::all_ablations(),
            extensions::all_extensions(),
        ];
        let mut seen = std::collections::HashSet::new();
        for (id, _) in registries.iter().flatten() {
            assert!(seen.insert(*id), "experiment id {id} registered twice");
            assert!(
                !["paper", "ablations", "extensions", "fig06"].contains(id),
                "experiment id {id} shadows a figure name"
            );
        }
    }

    #[test]
    fn fig8_shows_2x_ratio_for_16k_pages() {
        let exp = experiments::fig08_packet_overhead();
        let table = &exp.tables[0].1;
        let row16 = table
            .rows()
            .iter()
            .find(|r| r[0] == "16KB")
            .expect("16KB row");
        let ratio: f64 = row16[4].trim_end_matches('x').parse().unwrap();
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }
}
