//! The one runner for every experiment table:
//!
//! ```text
//! cargo run --release -p nssd-bench --bin figure -- fig14
//! cargo run --release -p nssd-bench --bin figure -- fig19 abl_a3 ext_e1
//! cargo run --release -p nssd-bench --bin figure -- --md experiments_results.md paper
//! cargo run --release -p nssd-bench --bin figure -- --csv results_csv paper
//! cargo run --release -p nssd-bench --bin figure -- --list
//! ```
//!
//! A name is an experiment id from any registry ([`nssd_bench::all`],
//! [`nssd_bench::ablations::all_ablations`],
//! [`nssd_bench::extensions::all_extensions`]), a group that expands to a
//! whole registry (`paper`, `ablations`, `extensions`), or `fig06` (the
//! ASCII timing diagrams, which print directly and produce no table).
//! Every selected experiment prints to stdout. `--md <path>` also writes
//! their Markdown digest; its `# …` header names the group when the only
//! name given is a group. `--csv <dir>` also writes one CSV file per table,
//! `<id>.csv` or `<id>_<n>.csv` when an experiment has several tables.

use std::fs;
use std::process::ExitCode;

use nssd_bench::{ablations::all_ablations, all, extensions::all_extensions, NamedExperiment};
use nssd_flash::FlashTiming;
use nssd_interconnect::{BusParams, DedicatedBus, PacketBus, TimingDiagram};

/// `(group name, Markdown digest header, registry)`.
type Group = (&'static str, &'static str, fn() -> Vec<NamedExperiment>);

const GROUPS: [Group; 3] = [
    ("paper", "Measured results (all experiments)", all),
    ("ablations", "Ablation results", all_ablations),
    ("extensions", "Extension results", all_extensions),
];

const USAGE: &str = "usage: figure [--md <path>] [--csv <dir>] <name>... | --list";

fn print_available() {
    eprintln!("groups: paper, ablations, extensions");
    eprintln!("available figures/tables:");
    eprintln!("  fig06 (ASCII timing diagrams)");
    for (_, _, registry) in GROUPS {
        for (id, _) in registry() {
            eprintln!("  {id}");
        }
    }
}

/// Fig 6: read-transaction timing on the conventional vs packetized
/// interface, as ASCII timing diagrams (prints directly — no table).
fn fig06_timing_diagram() {
    let base = DedicatedBus::new(BusParams::table2_baseline());
    let pssd = PacketBus::new(BusParams::table2_pssd());
    println!("==== Fig 6 — 16KB page read transaction ====");
    println!("legend: '>' controller drives DQ, '<' chip drives DQ, '.' bus idle (array busy)\n");
    print!(
        "{}",
        TimingDiagram::conventional_read(&base, FlashTiming::ull(), 16 * 1024).render()
    );
    println!();
    print!(
        "{}",
        TimingDiagram::packetized_read(&pssd, FlashTiming::ull(), 16 * 1024).render()
    );
}

/// Resolves names to experiments in argument order; `None` stands for
/// `fig06`.
fn resolve(names: &[String]) -> Result<Vec<Option<NamedExperiment>>, String> {
    let mut selected = Vec::new();
    for name in names {
        if name == "fig06" {
            selected.push(None);
        } else if let Some((_, _, registry)) = GROUPS.iter().find(|(g, _, _)| g == name) {
            selected.extend(registry().into_iter().map(Some));
        } else {
            let exp = GROUPS
                .iter()
                .flat_map(|(_, _, registry)| registry())
                .find(|(id, _)| id == name)
                .ok_or_else(|| format!("unknown figure '{name}'"))?;
            selected.push(Some(exp));
        }
    }
    Ok(selected)
}

fn write(path: &str, body: String) {
    fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Runs `selected` in order, printing each experiment and writing the
/// requested digest and CSV files.
fn run(selected: Vec<Option<NamedExperiment>>, header: &str, md: Option<&str>, csv: Option<&str>) {
    if let Some(dir) = csv {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    }
    let mut digest = format!("# {header}\n\n");
    eprintln!(
        ">>> fanning independent cells across {} worker(s) (override with NSSD_JOBS)",
        nssd_sim::Pool::from_env().workers()
    );
    for entry in selected {
        let Some((id, thunk)) = entry else {
            fig06_timing_diagram();
            continue;
        };
        eprintln!(">>> running {id}");
        let exp = thunk();
        exp.print();
        digest.push_str(&exp.to_markdown());
        let Some(dir) = csv else { continue };
        for (i, (caption, table)) in exp.tables.iter().enumerate() {
            let suffix = if exp.tables.len() > 1 {
                format!("_{}", i + 1)
            } else {
                String::new()
            };
            let path = format!("{dir}/{id}{suffix}.csv");
            let mut body = if caption.is_empty() {
                String::new()
            } else {
                format!("# {caption}\n")
            };
            body.push_str(&table.to_csv());
            write(&path, body);
        }
    }
    if let Some(path) = md {
        write(path, digest);
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    print_available();
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut md, mut csv, mut names) = (None, None, Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" | "-l" => {
                print_available();
                return ExitCode::SUCCESS;
            }
            "--md" | "--csv" => {
                let Some(value) = args.next() else {
                    return usage_error(&format!("{arg} needs a value"));
                };
                if arg == "--md" {
                    md = Some(value);
                } else {
                    csv = Some(value);
                }
            }
            a if a.starts_with('-') => return usage_error(&format!("unknown option '{a}'")),
            _ => names.push(arg),
        }
    }
    if names.is_empty() {
        return usage_error("no figure named");
    }
    let selected = match resolve(&names) {
        Ok(selected) => selected,
        Err(e) => return usage_error(&e),
    };
    let header = match GROUPS.iter().find(|(g, _, _)| names == [*g]) {
        Some((_, header, _)) => header,
        None => "Measured results",
    };
    run(selected, header, md.as_deref(), csv.as_deref());
    ExitCode::SUCCESS
}
