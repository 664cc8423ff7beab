//! Parallel-execution equivalence gate for the scoped-thread job pool.
//!
//! The experiment harness fans independent simulation cells across
//! `NSSD_JOBS` workers ([`networked_ssd::sim::Pool`]); the whole design
//! rests on one claim — the worker count is invisible in the output. This
//! test states it directly: the pinned golden matrix, executed through a
//! 1-worker pool and again through a 4-worker pool, yields byte-identical
//! canonical JSON for every case.
//!
//! The golden snapshot gate (`tests/golden_report.rs`) then anchors both to
//! the committed bytes; this gate pins serial ≡ parallel even for cases a
//! future matrix edit might add before re-blessing.

use networked_ssd::core::golden::{canonical_json, matrix};
use networked_ssd::core::GoldenDrive;
use networked_ssd::sim::Pool;

fn render_matrix(pool: Pool) -> Vec<(String, String)> {
    let cases = matrix();
    let jobs: Vec<_> = cases
        .iter()
        .map(|case| {
            move || {
                let name = case.file_name();
                let report = case.run().unwrap_or_else(|e| panic!("{name}: {e}"));
                (name, canonical_json(&report))
            }
        })
        .collect();
    pool.map(jobs)
}

#[test]
fn matrix_exercises_the_multi_tenant_engine_path() {
    // The equivalence gate above only pins what the matrix contains; make it
    // impossible to silently drop the multi-tenant cases (the one engine
    // path where a worker-count-dependent bug would hide in per-tenant
    // bookkeeping rather than aggregate latency).
    let tenant_cases = matrix()
        .iter()
        .filter(|c| matches!(c.drive, GoldenDrive::Tenants))
        .count();
    assert!(
        tenant_cases >= 3,
        "expected at least one tenant-interference case per architecture, got {tenant_cases}"
    );
}

#[test]
fn golden_matrix_is_byte_identical_at_one_and_four_workers() {
    let serial = render_matrix(Pool::with_workers(1));
    let parallel = render_matrix(Pool::with_workers(4));
    assert_eq!(serial.len(), parallel.len());
    for ((s_name, s_json), (p_name, p_json)) in serial.iter().zip(&parallel) {
        // Submission order must survive the pool: case i of the parallel run
        // is case i of the serial run, not merely *some* case.
        assert_eq!(s_name, p_name, "pool reordered results");
        assert_eq!(
            s_json, p_json,
            "{s_name}: parallel execution changed the canonical report"
        );
    }
}
