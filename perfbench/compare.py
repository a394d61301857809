#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--metrics e2e|layers|all]

Each file holds records written by `run.py --out`. Runs are paired by
(workload, run order): pair k is the k-th record of the workload in each
file, so record both sides with the same seeds in the same order and
alternate which side runs first.

For every workload and metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither), and a
verdict:
  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the base's own quartile spread;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  not improved, and either side's spread (IQR / median) is
              wider than the bound, unless every change run beats every
              base run;
  no worse    otherwise.
Per-layer metrics have no bound; they get improved / changed / same only.
Exits 1 when any end-to-end metric is worse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when a is better than b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound):
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if better(c, b, direction))
    enough_wins = pairs and won >= 0.9 * len(pairs)
    if enough_wins and abs(cm - bm) > (b3 - b1):
        return "improved", won, len(pairs)
    if bound is None:
        same = abs(cm - bm) <= (b3 - b1)
        return ("same" if same else "changed"), won, len(pairs)
    scale = abs(bm) if bm else 1.0
    worse_by = (cm - bm) / scale if direction == "lower" else (bm - cm) / scale
    if worse_by > bound:
        return "worse", won, len(pairs)
    spread = max((b3 - b1) / scale, (c3 - c1) / (abs(cm) if cm else 1.0))
    all_better = all(better(c, b, direction) for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", won, len(pairs)
    return "no worse", won, len(pairs)


def metric_values(runs, name, section):
    out = []
    for r in runs:
        if section == "e2e" and name in r.get("e2e", {}):
            out.append(r["e2e"][name]["value"])
        elif name in r.get("metrics", {}):
            out.append(r["metrics"][name]["value"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--metrics", choices=("e2e", "layers", "all"), default="e2e")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    metrics = []
    if args.metrics in ("e2e", "all"):
        metrics += [(m, "e2e", m["bound"]) for m in spec["end_to_end"]]
    if args.metrics in ("layers", "all"):
        metrics += [(m, "layers", None) for m in spec["per_layer"]]

    any_worse = False
    print("%-12s %-34s %-28s %-28s %-6s %s" % ("workload", "metric", "base q1/med/q3",
                                              "change q1/med/q3", "won", "verdict"))
    for w in sorted(set(base) | set(change)):
        for m, section, bound in metrics:
            bv = metric_values(base.get(w, []), m["name"], section)
            cv = metric_values(change.get(w, []), m["name"], section)
            if not bv or not cv:
                continue
            v, won, n = verdict(bv, cv, m["better"], bound)
            any_worse |= v == "worse"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-12s %-34s %-28s %-28s %-6s %s%s" % (
                w, m["name"] + " [" + m["unit"] + "]", fmt(quartiles(bv)), fmt(quartiles(cv)),
                "%d/%d" % (won, n), v, "" if bound is None else " (bound %g)" % bound))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
