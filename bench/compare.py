#!/usr/bin/env python3
"""Compare parent and change result files of the benchmark, one row per workload.

Usage (from the repository root):

    python3 bench/compare.py --parent PARENT_RESULTS... --change CHANGE_RESULTS...

Each argument is a result file written by run.py (``.bench_work/results``) or
a directory of them; traced runs are ignored.  Runs of each side are paired in
start order, so make them as alternating pairs (parent, change, change,
parent, ...), at least ten per workload.  For every end-to-end metric of
BENCHMARK.json the verdict is:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for neither)
  and its median is better than the parent's by more than the distance
  between the parent's quartiles;
* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, unless every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more than
  the bound;
* ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(paths) -> dict[str, list[dict]]:
    """Untraced result records by workload, in start order."""
    files = []
    for path in paths:
        files.extend(sorted(glob.glob(os.path.join(path, "*.json")))
                     if os.path.isdir(path) else [path])
    out: dict[str, list[dict]] = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            record = json.load(fh)
        if record["trace"] == 0:
            out.setdefault(record["workload"], []).append(record)
    for records in out.values():
        records.sort(key=lambda r: r["started_at"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better: str, bound: float) -> tuple[str, dict]:
    """Verdict for one metric from paired parent and change values."""
    sign = 1 if better == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    spread = max((q3_p - q1_p) / abs(med_p), (q3_c - q1_c) / abs(med_c))
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse = -sign * (med_c - med_p) / abs(med_p)
    facts = {"parent_median": med_p, "change_median": med_c, "parent_iqr": q3_p - q1_p,
             "spread": spread, "wins": wins, "pairs": len(pairs), "worse_by": worse}
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_c - med_p) > q3_p - q1_p):
        return "gain", facts
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", facts
    if worse > bound:
        return "regressed", facts
    return "same", facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_results(args.parent), load_results(args.change)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload}: missing runs (parent {len(p_runs)}, change {len(c_runs)})")
            status = 1
            continue
        first = sum(1 for p, c in zip(p_runs, c_runs) if p["started_at"] < c["started_at"])
        cells = []
        for m in metrics:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs[:n]]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs[:n]]
            v, facts = verdict(pv, cv, m["better"], m["bound"])
            status |= v == "regressed"
            cells.append(f"{name} {v} ({facts['parent_median']:.4g} -> "
                         f"{facts['change_median']:.4g} {m['unit']}, "
                         f"wins {facts['wins']}/{facts['pairs']}, "
                         f"spread {facts['spread']:.3f}/{m['bound']})")
        fails = sum(r["result"]["failed"] for r in c_runs[:n])
        notes = []
        if n < MIN_PAIRS:
            notes.append(f"only {n} pairs")
        if abs(2 * first - n) > 1:
            notes.append(f"parent ran first in {first} of {n} pairs, not alternating")
        if fails:
            notes.append(f"change failed {fails} ops")
            status = 1
        print(f"{workload}: " + "; ".join(cells) + (" [" + "; ".join(notes) + "]" if notes else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
