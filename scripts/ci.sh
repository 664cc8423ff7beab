#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
# Mirrors .github/workflows/ci.yml so a green run here is a green PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (-D warnings)"
# Intra-doc links only break under rustdoc: a deleted or private item a doc
# comment still names fails here, not in the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --release -q

echo "==> allocator equivalence, deep"
# The stripe walk against its reference scan at the heavy-tests iteration
# count: every call must give the same page, sequence number and checkpoint.
cargo test --release -q -p nssd-ftl --features heavy-tests

echo "==> golden snapshot gate"
# The golden_report suite re-runs the pinned matrix and compares byte-for-byte
# against tests/golden/; the git check catches a bless that was never committed.
cargo test --release -q --test golden_report
git diff --exit-code -- tests/golden

echo "==> benchmark smoke test"
# The benchmark package (outside the workspace) measures the simulator's
# cost; its smoke test runs every cell at 1/100 scale, traced and untraced,
# and checks every metric is produced. This gates the perf path.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> tenant interference smoke"
# A small run of the multi-tenant matrix: exercises the NVMe-style frontend,
# all three schedulers, and the per-tenant report path end-to-end.
NSSD_TENANT_REQUESTS=200 cargo run --release -q -p nssd-bench --bin figure -- tenants

echo "==> fault sweep smoke"
# A small run of E4: the RBER retry ladder, wire-BER recovery, and the only
# end-to-end chip failure without parity (its pages are lost, reads of them
# fail as host I/O errors).
NSSD_REQUESTS=2000 cargo run --release -q -p nssd-bench --bin figure -- fault_sweep

echo "==> endurance lifetime smoke"
# A short segmented endurance run per architecture: exercises checkpoint
# save/resume at every segment boundary (the bin asserts save∘resume is
# byte-identical), wear accounting, and the windowed tail estimator, and
# leaves target/lifetime.json as a build artifact.
cargo run --release -q -p nssd-bench --bin lifetime -- --smoke
python3 - <<'EOF'
import json
d = json.load(open('target/lifetime.json'))
assert d['experiment'] == 'lifetime', d
assert len(d['architectures']) == 4, d
for arch in d['architectures']:
    assert arch['segments'], arch['architecture']
    for seg in arch['segments']:
        assert seg['ckpt_bytes'] > 0 and seg['completed'] > 0, seg
EOF

echo "==> GC plan ablation smoke"
# A small run of the composed-plan grid (victim x placement x preemption on
# pnSSD+split): exercises every component combination end-to-end, including
# the cross-compositions no legacy policy covers, and leaves
# target/plans.json as a build artifact.
cargo run --release -q -p nssd-bench --bin plans -- --smoke
python3 - <<'EOF'
import json
d = json.load(open('target/plans.json'))
assert d['experiment'] == 'plan_ablation', d
assert len(d['plans']) == 12, d
names = {p['plan'] for p in d['plans']}
assert len(names) == 12, names
for p in d['plans']:
    assert p['gc_events'] > 0 and p['mean_us'] > 0, p
EOF

echo "==> degraded-mode rebuild smoke"
# Parity redundancy under a fail-stop chip failure on every fabric family:
# exercises the degraded-read reconstruction path, the fabric-routed
# background rebuild, and the zero-data-loss accounting end-to-end, and
# leaves target/rebuild.json as a build artifact.
cargo run --release -q -p nssd-bench --bin rebuild -- --smoke
python3 - <<'EOF'
import json
d = json.load(open('target/rebuild.json'))
assert d['experiment'] == 'rebuild', d
assert len(d['runs']) == 4, d
for r in d['runs']:
    # The failure stranded live data and reconstruction served it.
    assert r['pages_degraded'] > 0 and r['reconstructed_reads'] > 0, r
    assert r['degraded_p99_us'] is not None and r['degraded_p99_us'] > 0, r
    # The rebuild re-protected the device within the run: every cell
    # reports a completed rebuild and zero lost pages.
    assert r['rebuild_pages'] > 0 and r['rebuild_time_us'] is not None, r
    assert r['pages_lost'] == 0 and r['host_io_errors'] == 0, r
EOF

echo "==> oracle mutation self-test"
# Plants a corrupted mapping entry and a dropped GC copy; the shadow oracle
# must flag both, or the invariant layer has gone blind.
cargo test --release -q --test oracle

echo "CI gate passed."
