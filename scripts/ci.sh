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

echo "==> benchmark-only runner forwarders and GC shim"
# `prepare_trace`, `prepare_closed_loop_preconditioned` and
# `prepare_tenants_preconditioned` are kept only because benchmark/src/
# workload.rs calls them; every other caller prepares a run with `prepare`.
# Fails if any of the three is named outside its definition in
# crates/core/src/runner.rs, so the old runner surface cannot grow back.
if grep -rnwE 'prepare_trace|prepare_closed_loop_preconditioned|prepare_tenants_preconditioned' \
    crates src tests examples | grep -vE '^crates/core/src/runner\.rs:[0-9]+:pub fn '; then
    echo "benchmark-only runner forwarders named outside their definitions (above)" >&2
    exit 1
fi
# The same holds for the GC shim: `GcPolicy` (the GC-off switch) and
# `VictimPolicy` (the old name of `VictimSpec`) stay only because benchmark/
# names them; GC is described by `GcPlanSpec` alone. Fails if either is
# named under crates/ src/ tests/ examples/ outside the shim's definitions
# in crates/ftl/src (the enum and its field in gc.rs, the alias in
# victim.rs, the re-exports in lib.rs, and the one read, in `Ftl::new`), or
# if the retired `victim_policy`, `effective_plan` or `from_policy` is
# named anywhere there.
if grep -rnwE 'GcPolicy|VictimPolicy|victim_policy|effective_plan|from_policy' \
    crates src tests examples | grep -vE \
    -e '^crates/ftl/src/gc\.rs:[0-9]+:(pub enum GcPolicy \{|    pub policy: GcPolicy,|            policy: GcPolicy::Plan,)$' \
    -e '^crates/ftl/src/victim\.rs:[0-9]+:pub type VictimPolicy = VictimSpec;$' \
    -e '^crates/ftl/src/lib\.rs:[0-9]+:pub use (gc|victim)::\{[A-Za-z_, ]+\};$' \
    -e '^crates/ftl/src/ftl\.rs:[0-9]+:        if config\.gc\.policy == crate::GcPolicy::None \{$'; then
    echo "benchmark-only GC shim named outside its definitions (above)" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --release -q

echo "==> allocator, oracle and kernel equivalence, deep"
# The stripe walk against its reference scan at the heavy-tests iteration
# count: every call must give the same page, sequence number and checkpoint.
# The same run drives the compact mapping and block tables against their
# naive model (crates/ftl/tests/compact_tables.rs), the stripe-run fill
# of `Ftl::precondition` against the per-page fill it replaced
# (crates/ftl/tests/fill_reference.rs), and instant GC (victim index and
# stripe-run relocation) against a per-page collector built on a greedy
# scan (crates/ftl/tests/gc_reference.rs). The oracle's dense owner array
# runs call for call against the hash-map and content-token model it
# replaced, with planted faults, and must give equal summaries
# (crates/oracle/tests/shadow_reference.rs).
cargo test --release -q -p nssd-ftl --features heavy-tests
cargo test --release -q -p nssd-oracle --features heavy-tests
# The simulation kernel's property suites at the same depth: the event
# queue's bounded pops against a sorted reference, and the chunked page
# table against a plain `Vec`, call for call, checkpoint bytes included
# (crates/sim/src/table.rs).
cargo test --release -q -p nssd-sim --features heavy-tests

echo "==> golden snapshot gate"
# The golden_report suite re-runs the pinned matrix and compares byte-for-byte
# against tests/golden/; the git check catches a bless that was never committed,
# a modified snapshot and a new, untracked one alike (`git diff` would miss the
# latter).
cargo test --release -q --test golden_report
golden_status=$(git status --porcelain -- tests/golden)
if [ -n "$golden_status" ]; then
    echo "uncommitted golden snapshots:" >&2
    echo "$golden_status" >&2
    exit 1
fi

echo "==> benchmark smoke test"
# The benchmark package (outside the workspace) measures the simulator's
# cost; its smoke test runs every cell at 1/100 scale, traced and untraced,
# and checks every metric is produced. This gates the perf path.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> experiment smoke"
# One figure run, one CSV per table in target/experiments/ (the artifact):
# tenants (NVMe-style frontend, all three schedulers; every request
# completes, and strict priority queues the latency tenant least),
# fault_sweep (RBER retry ladder, wire-BER recovery, chip failure without
# parity), plans (every composed GC plan), rebuild (parity rebuild on every
# fabric family; fails on any oracle violation) and lifetime (checkpointed
# segments to end of life; fails unless save∘resume is byte-identical at
# every boundary).
NSSD_REQUESTS=2000 NSSD_TENANT_REQUESTS=200 cargo run --release -q -p nssd-bench --bin figure -- \
    --csv target/experiments tenants fault_sweep plans rebuild lifetime
# ext_e1 (interconnect energy per host byte) and ext_e2 (the three ECC modes
# under spatial GC), the tables whose energy and ECC latencies are constants
# of the model, run on their own so that their GC scale leaves plans' alone.
NSSD_REQUESTS=2000 NSSD_GC_REQUESTS=1000 cargo run --release -q -p nssd-bench --bin figure -- \
    --csv target/experiments ext_e1 ext_e2
python3 - <<'EOF'
import csv
def table(name):  # skips the `# caption` line above the header row
    return list(csv.DictReader(l for l in open(f'target/experiments/{name}.csv') if l[0] != '#'))
ends, segments = table('lifetime_1'), table('lifetime_2')
assert len(ends) == 4, ends
for end in ends:
    rows = [s for s in segments if s['architecture'] == end['architecture']]
    assert rows, end
    # End of life is a device state, not a crash: absent, or when it began.
    eol = end['end of life (ms)']
    assert eol == '-' or float(eol) > 0, end
    for seg in rows:
        assert int(seg['checkpoint bytes']) > 0 and int(seg['completed']) > 0, seg
        # A drained drive carries no requests, and the delta codec writes
        # the small device's maps, bitmap and bins in 21-25 kB, under the
        # 37-45 kB those took at full width.
        assert int(seg['checkpoint bytes']) < 32_000, seg
    # Segment 1's window holds exactly that segment, so its window tails
    # are the segment's own.
    first = next(s for s in rows if s['segment'] == '1')
    for p in ('p50', 'p99'):
        assert first[f'window {p}'] == first[f'seg {p}'], first
# Every mesh hop pays the per-byte energy again, so NoSSD spends more per
# host byte than any bus architecture.
pj = {r['architecture']: float(r['pJ per host byte']) for r in table('ext_e1')}
assert len(pj) == 7, pj
mesh = [v for arch, v in pj.items() if arch.startswith('NoSSD')]
bus = [v for arch, v in pj.items() if not arch.startswith('NoSSD')]
assert len(mesh) == 2 and min(mesh) > max(bus), pj
# Controller-strict ECC stages every GC copy through the controller, onto
# the h-channels that hybrid ECC's flash-to-flash copies keep GC off.
busy = {r['ecc mode']: float(r['h-channel GC busy'].split()[0]) for r in table('ext_e2')}
assert busy['controller-strict'] > busy['hybrid'], busy
EOF
python3 - <<'EOF'
import csv
plans = list(csv.DictReader(l for l in open('target/experiments/plans.csv') if l[0] != '#'))
assert len(plans) == 12, plans
names = {p['plan'] for p in plans}
assert len(names) == 12, names
for p in plans:
    assert int(p['gc events']) > 0 and float(p['mean latency'].removesuffix('us')) > 0, p
EOF
python3 - <<'EOF'
import csv
runs = list(csv.DictReader(l for l in open('target/experiments/rebuild.csv') if l[0] != '#'))
assert len(runs) == 8, runs  # 4 fabrics x stripe widths {2, 4}
for r in runs:
    # The failure stranded live data and reconstruction served it.
    assert int(r['pages degraded']) > 0 and int(r['reconstructed reads']) > 0, r
    assert r['degraded p99'] != '-' and float(r['degraded p99'].removesuffix('us')) > 0, r
    # The rebuild re-protected the device within the run: every cell
    # reports a completed rebuild and zero lost pages.
    assert int(r['rebuild pages']) > 0 and r['rebuild time'] != '-', r
    assert int(r['pages lost']) == 0 and int(r['host I/O errors']) == 0, r
EOF
python3 - <<'EOF'
import csv
rows = list(csv.DictReader(l for l in open('target/experiments/tenants.csv') if l[0] != '#'))
assert len(rows) == 18, rows  # 3 architectures x 3 schedulers x 2 tenants
for r in rows:
    assert int(r['done']) == 200, r  # NSSD_TENANT_REQUESTS: every request completes
for arch in {r['arch'] for r in rows}:
    delay = {r['tenant']: float(r['queue delay'].removesuffix('us'))
             for r in rows if r['arch'] == arch and r['scheduler'] == 'strict-priority'}
    # Strict priority serves the weight-3 latency tenant ahead of the
    # weight-1 write bursts, so it waits less in its submission queue.
    assert delay['latency'] < delay['writeburst'], (arch, delay)
EOF

echo "==> oracle mutation self-test"
# Plants a corrupted mapping entry and a dropped GC copy; the shadow oracle
# must flag both, or the invariant layer has gone blind.
cargo test --release -q --test oracle

echo "CI gate passed."
