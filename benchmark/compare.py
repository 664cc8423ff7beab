#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit's and a change's.

    python3 benchmark/compare.py --parent p1.json [p2.json ...] \
                                 --change c1.json [c2.json ...]

Each file is a `results.json` written by a full run of the benchmark
(`cargo run --release --manifest-path benchmark/Cargo.toml`). Run parent and
change alternately, so that repetition i of one side ran beside repetition i
of the other; list the files of each side in the order they ran.

The script refuses to compare result sets whose schema, seed or scale
differ. For every workload and end-to-end metric it prints each side's
median and quartiles, the change in the median, and a verdict:

  better        the change wins at least 9 in 10 repetition pairs (ties
                count for neither) and the medians differ by more than the
                parent's own spread (the distance between its quartiles);
  worse         the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json;
  unresolved    the parent's spread is wider than the bound, so a
                regression within it cannot be ruled out, and not every
                change run beats every parent run;
  within-bound  none of the above.

It also flags a changed report digest (the simulated output differs) and
host drift (the `machine.calib_ms` medians of the two sides differ by more
than 5%). The exit code is 1 when any verdict is `worse`, 2 when the sets
cannot be compared, and 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

DRIFT = 0.05


def load(paths):
    return [json.load(open(p)) for p in paths]


def comparable(sets):
    """Returns a reason the result sets cannot be compared, or None."""
    first = sets[0]
    for s in sets[1:]:
        for key in ("schema", "seed"):
            if s[key] != first[key]:
                return f"{key} differs: {first[key]!r} vs {s[key]!r}"
        if set(s["workloads"]) != set(first["workloads"]):
            return "the result sets cover different workloads"
        for name, w in s["workloads"].items():
            scale = first["workloads"][name]["requests_per_cell"]
            if w["requests_per_cell"] != scale:
                return f"{name}: scale differs: {scale} vs {w['requests_per_cell']} requests per cell"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    if pm and sign * (cm - pm) / abs(pm) < -bound:
        return "worse"
    return "within-bound"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="parent results.json files")
    ap.add_argument("--change", nargs="+", required=True, help="change results.json files")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"),
                    help="BENCHMARK.json holding the bounds")
    args = ap.parse_args()
    parent, change = load(args.parent), load(args.change)
    why = comparable(parent + change)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    metrics = json.load(open(args.benchmark))["end_to_end"]

    worse = False
    print(f"{'workload':16} {'metric':22} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    for name in parent[0]["workloads"]:
        for m in metrics:
            pv = [r[m["name"]] for s in parent for r in s["workloads"][name]["reps"]]
            cv = [r[m["name"]] for s in change for r in s["workloads"][name]["reps"]]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            v = verdict(pv, cv, m["better"], m["bound"])
            worse |= v == "worse"
            delta = (cm - pm) / pm * 100 if pm else 0.0
            print(f"{name:16} {m['name']:22} {pm:>14.6g} [{p1:.6g}, {p3:.6g}] "
                  f"{cm:>14.6g} [{c1:.6g}, {c3:.6g}] {delta:>+7.2f}%  {v}")
        digests = lambda sets: {json.dumps(s["workloads"][name]["digests"], sort_keys=True) for s in sets}
        if digests(parent) != digests(change):
            print(f"{name}: report digest changed, so the simulated output differs")

    calib = lambda sets: statistics.median(v for s in sets for v in s["host"]["calib_ms"])
    pc, cc = calib(parent), calib(change)
    if abs(cc - pc) / pc > DRIFT:
        print(f"host drift: machine.calib_ms median {pc:.1f} ms (parent) vs {cc:.1f} ms (change)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
