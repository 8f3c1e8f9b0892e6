#!/usr/bin/env python3
"""Compare two result sets of the update-interval benchmark.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one {"meta": ..., "result": ...} object per line, as written
by `perfbench/run.py --record FILE`. Runs are grouped by workload and by
traced/untraced. For every workload x metric the medians and quartiles of
both sides are printed, and each end-to-end metric gets a verdict against
its bound in BENCHMARK.json (the share of the base median by which it may
get worse):

    unresolved  the run-to-run spread (quartile distance over median) of
                either side is wider than the bound, so the data cannot
                tell a change of that size from noise
    worse       the change's median is worse than the base's by more than
                the bound
    better      the change's median is better by more than the bound
    same        otherwise

Per-layer metrics (traced runs) have no bound and get no verdict. The exit
status is 1 when any end-to-end metric reads "worse", 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} plus the failed shares."""
    groups, failed = {}, {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            meta, result = record["meta"], record["result"]
            key = (meta["workload"], int(meta["trace"]))
            metrics = groups.setdefault(key, {})
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
            failed.setdefault(key, []).append(
                (result["failed"], result["attempted"]))
    return groups, failed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, change, bound, better):
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    b, c = statistics.median(base), statistics.median(change)
    if b == 0:
        return "same" if c == 0 else "unresolved"
    worse_by = (c - b) / abs(b) if better == "lower" else (b - c) / abs(b)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, base_failed = load(argv[1])
    change, change_failed = load(argv[2])
    regressions = 0
    row = "%-18s %-28s %6s %32s %32s  %s"
    print(row % ("workload", "metric", "bound", "base median [q1, q3] (n)",
                 "change median [q1, q3] (n)", "verdict"))
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        for name in base[key]:
            if name not in change[key]:
                continue
            b, c = base[key][name], change[key][name]
            cells = []
            for values in (b, c):
                q1, q2, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g] (%d)" % (q2, q1, q3, len(values)))
            if trace == 0 and name in bounds:
                spec_row = bounds[name]
                result = verdict(b, c, spec_row["bound"], spec_row["better"])
                regressions += result == "worse"
                print(row % (workload, name, "%.2f" % spec_row["bound"],
                             cells[0], cells[1], result))
            else:
                print(row % (workload, name, "-", cells[0], cells[1], "-"))
        shares = []
        for runs in (base_failed[key], change_failed[key]):
            shares.append(sum(f for f, _ in runs) / max(1, sum(a for _, a in runs)))
        if shares[0] != shares[1]:
            print("%-18s failed share differs: base %.6f, change %.6f"
                  % (workload, shares[0], shares[1]))
    for key in sorted(set(base) ^ set(change)):
        print("%-18s trace=%d only on one side" % key)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
