//! Golden-report regression gate.
//!
//! The pinned matrix of (topology × GC policy × workload × seed) runs must
//! serialize byte-for-byte to the snapshots committed under `tests/golden/`.
//! Any behavioural drift — timing, GC accounting, wear, energy, the
//! oracle's functional digest — fails this test with the offending file
//! names; re-bless deliberate changes with
//! `NSSD_BLESS=1 cargo test --test golden_report` (or the
//! `bless_goldens` bin) and commit the reviewed diff.

use std::fs;
use std::path::PathBuf;

use networked_ssd::core::golden::{canonical_json, matrix};
use networked_ssd::core::GoldenDrive;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn golden_matrix_matches_committed_snapshots() {
    let bless = std::env::var("NSSD_BLESS").is_ok();
    if bless {
        fs::create_dir_all(golden_dir()).unwrap();
    }
    let cases = matrix();
    assert!(cases.len() >= 16, "matrix shrank to {}", cases.len());
    // Every case is an independent simulation — fan them across the pool
    // (`NSSD_JOBS`); results come back in submission order, so the assertion
    // order (and any failure message) is identical to the serial loop.
    let jobs: Vec<_> = cases
        .iter()
        .map(|case| {
            move || {
                let name = case.file_name();
                (
                    name.clone(),
                    case.run().unwrap_or_else(|e| panic!("{name}: {e}")),
                )
            }
        })
        .collect();
    let mut drifted = Vec::new();
    for (name, report) in networked_ssd::sim::scoped_map(jobs) {
        // Every golden run is also an oracle run: the snapshot gate and the
        // invariant gate share the same executions.
        assert!(report.oracle.enabled, "{name}: oracle not enabled");
        assert!(
            report.oracle.violations.is_empty(),
            "{name}: oracle violations:\n{}",
            report.oracle.violations.join("\n")
        );
        assert!(report.oracle.checks > 0, "{name}: oracle never checked");
        let rendered = canonical_json(&report);
        let path = golden_dir().join(&name);
        if bless {
            fs::write(&path, &rendered).unwrap();
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(expected) if expected == rendered => {}
            Ok(_) => drifted.push(name),
            Err(e) => drifted.push(format!("{name} (unreadable: {e})")),
        }
    }
    assert!(
        drifted.is_empty(),
        "golden snapshots out of date: {}\nif the change is deliberate, \
         re-bless with `NSSD_BLESS=1 cargo test --test golden_report` and \
         commit the diff",
        drifted.join(", ")
    );
}

#[test]
fn golden_serialization_is_byte_stable_across_consecutive_runs() {
    // The strongest determinism statement the harness rests on: running the
    // same case twice — fresh simulator, fresh FTL, fresh oracle each time —
    // yields byte-identical canonical JSON, GC case included.
    let case = matrix()
        .into_iter()
        .find(|c| c.plan.is_some())
        .expect("matrix contains GC cases");
    let a = canonical_json(&case.run().unwrap());
    let b = canonical_json(&case.run().unwrap());
    assert_eq!(a, b, "{} not byte-stable", case.file_name());
}

#[test]
fn closed_loop_cases_collect_garbage() {
    // The aged closed-loop cases pin the queue-depth drive under GC; they
    // are only worth their bytes while GC actually runs inside them.
    let cases: Vec<_> = matrix()
        .into_iter()
        .filter(|c| matches!(c.drive, GoldenDrive::ClosedLoop { .. }))
        .filter(|c| c.plan.is_some())
        .collect();
    assert!(
        cases.len() >= 2,
        "closed-loop cases dropped from the matrix"
    );
    for case in cases {
        let report = case.run().unwrap();
        assert!(report.gc.events > 0, "{}: no GC event", case.file_name());
    }
}

#[test]
fn rebuild_cases_under_gc_collect_and_finish() {
    // The rebuild × GC cases pin the instant where GC's and the rebuild's
    // paced copies meet; they are only worth their bytes while both movers
    // actually run, and the rebuild closes its degraded window.
    let cases: Vec<_> = matrix()
        .into_iter()
        .filter(|c| c.redundancy.is_some() && c.plan.is_some())
        .collect();
    assert!(
        cases.len() >= 3,
        "rebuild × GC cases dropped from the matrix"
    );
    for case in cases {
        let name = case.file_name();
        let report = case.run().unwrap();
        assert!(report.gc.events > 0, "{name}: no GC event");
        let red = report.redundancy.expect("redundancy summary");
        assert!(red.rebuild_pages > 0, "{name}: nothing rebuilt");
        assert!(red.rebuild_time().is_some(), "{name}: rebuild unfinished");
    }
}

#[test]
fn golden_file_set_matches_matrix_exactly() {
    // No stale snapshots: every committed file corresponds to a live case
    // (renames and matrix edits must prune their leftovers).
    if std::env::var("NSSD_BLESS").is_ok() {
        return; // the bless pass rewrites the set anyway
    }
    let expected: std::collections::BTreeSet<String> =
        matrix().iter().map(|c| c.file_name()).collect();
    let committed: std::collections::BTreeSet<String> = fs::read_dir(golden_dir())
        .expect("tests/golden missing — run NSSD_BLESS=1 cargo test --test golden_report")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    assert_eq!(expected, committed);
}
