//! Every cell of every workload, in-process at 1/100 scale: the outputs
//! pass their checks, tracing leaves the report digest unchanged, and the
//! run emits every metric `BENCHMARK.json` declares, under the declared
//! unit.

use nssd_benchmark::{run_cell, CellResult, Summary, Workload, END_TO_END, PER_LAYER};

const SCALE_DIV: usize = 100;

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`. The
/// file is written one metric object per line, with `name` before `unit`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..start + text[start..].find(']').expect("array closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn as_owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_code() {
    assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(&PER_LAYER));
}

#[test]
fn every_cell_is_correct_traced_or_not_and_emits_every_metric() {
    for workload in Workload::ALL {
        let run = |traced| -> Vec<CellResult> {
            workload
                .cells()
                .iter()
                .map(|&cell| {
                    let (mut r, _) = run_cell(workload, cell, 7, SCALE_DIV, traced, &|| 0);
                    // Measured by the cell process, which this test is not.
                    r.metrics.insert("peak_rss_mb".into(), 1.0);
                    r
                })
                .collect()
        };
        let untraced = run(false);
        let traced = run(true);
        let s = Summary::new(workload, &[untraced], Some(&traced), 1.0);
        assert!(s.correct(), "{}: {:?}", workload.name(), s.failures);
        assert_eq!(s.failed, 0, "{}: error rate must be 0", workload.name());
        for (name, unit, q) in &s.end_to_end {
            assert!(q.median > 0.0, "{}: {name} {unit} is 0", workload.name());
        }
        for (name, unit) in PER_LAYER {
            assert!(
                s.per_layer.iter().any(|(n, u, _)| n == name && *u == unit),
                "{}: per-layer {name} ({unit}) not emitted",
                workload.name()
            );
        }
    }
}
