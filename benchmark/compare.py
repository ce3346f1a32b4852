#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two.

    python3 benchmark/compare.py SET.jsonl
    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl

A set is a runs.jsonl file as benchmark/run.py appends it.  For each
workload and end-to-end metric the summary prints the run count, median,
quartiles and spread (interquartile distance over the median).  The
comparison pairs the two sets' runs by seed and prints, per workload and
metric, both medians and quartiles, the pairs the change won and lost, and
a verdict:

  improved     the change won at least nine tenths of all pairs (ties count
               for neither) and the medians differ, in the better direction,
               by more than the parent's interquartile distance
  worse        the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json
  unresolved   the parent's own spread is wider than the bound, so "no
               worse" cannot be told apart from noise, and the change does
               not read better than the parent on every run
  no worse     none of the above

Per-layer metrics from traced runs are listed as medians side by side; they
have no bound.  Exit status is 1 when any verdict is "worse".
"""
from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_seed(runs: list, workload: str, metric: str, trace: int) -> dict:
    """Median value per seed (a seed run more than once counts once)."""
    seen = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]:
            seen.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return {seed: statistics.median(v) for seed, v in seen.items()}


def failed_share(runs: list, workload: str) -> str:
    att = sum(r["attempted"] for r in runs if r["workload"] == workload and r["trace"] == 0)
    bad = sum(r["failed"] for r in runs if r["workload"] == workload and r["trace"] == 0)
    ok = all(r["correct"] for r in runs if r["workload"] == workload)
    return f"failed {bad}/{att}, all correct: {ok}"


def verdict(a: list, b: list, pairs: list, bound: float, lower_better: bool) -> tuple:
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = sign * (ma - mb)  # > 0 when the change is better
    worse_share = -gain / ma if ma else 0.0
    spread = (q3a - q1a) / ma if ma else 0.0
    every_better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
    if pairs and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        word = "improved"
    elif worse_share > bound:
        word = "worse"
    elif spread > bound and not every_better:
        word = "unresolved"
    else:
        word = "no worse"
    return word, wins, losses


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load_runs(p) for p in args]
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for w in workloads:
        if not any(r["workload"] == w for s in sets for r in s):
            continue
        print(f"== {w}: " + "; ".join(failed_share(s, w) for s in sets))
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [by_seed(s, w, name, 0) for s in sets]
            if not all(vals):
                continue
            a = list(vals[0].values())
            q1, med, q3 = quartiles(a)
            line = f"  {name:<12} [{m['unit']}] A: n={len(a)} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / med:.3f}"
            if len(sets) == 2:
                b = list(vals[1].values())
                q1b, medb, q3b = quartiles(b)
                pairs = [(vals[0][k], vals[1][k]) for k in sorted(vals[0]) if k in vals[1]]
                word, wins, losses = verdict(a, b, pairs, m["bound"], m["better"] == "lower")
                line += (f" | B: n={len(b)} median {medb:.6g} q1 {q1b:.6g} q3 {q3b:.6g}"
                         f" | change {(medb - med) / med:+.3f} | pairs won {wins}/{len(pairs)}"
                         f" lost {losses} | bound {m['bound']} | {word}")
                if word == "worse":
                    status = 1
            print(line)
        layer_lines = []
        for m in spec["per_layer"]:
            vals = [by_seed(s, w, m["name"], 1) for s in sets]
            if not all(vals):
                continue
            meds = [statistics.median(v.values()) for v in vals]
            layer_lines.append(f"  {m['name']:<28} [{m['unit']}] " + " | ".join(f"{x:.6g}" for x in meds))
        if layer_lines:
            print("  per layer (traced runs, median" + (" A | B)" if len(sets) == 2 else ")"))
            print("\n".join(layer_lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
