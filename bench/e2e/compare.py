#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/e2e/compare.py --same FIRST_DIR SECOND_DIR

Each directory holds the results files of one set of runs (run.py --out),
one file per run; files are paired in name order, so alternate which side
runs first when making them. For every workload and end-to-end metric in
BENCHMARK.json the table gives each side's median and quartiles, the
spread (quartile distance over median), the change's win fraction over
the pairs, and a verdict:

  improved     the change wins >= 9/10 of the pairs and the medians differ,
               in its favour, by more than the parent's quartile distance
  unresolved   a side's spread exceeds the metric's bound, and not every
               change run is better than every parent run
  regressed    the change's median is worse than the parent's by more than
               the bound
  no worse     otherwise

With --same the two sets come from one commit, and each metric must agree:
both spreads and the difference of the medians within the bound.
setup_s is judged on its medians alone: a sub-millisecond set-up's
run-to-run spread is mostly the host's scheduling, and its bound gates
the median.
Exit status is 1 when a metric regressed, is unresolved, or (--same)
disagrees.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """workload -> metric -> [value per run], runs in file-name order."""
    values = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"compare.py: no results files in {directory}")
    for f in files:
        for wl, res in json.loads(f.read_text())["workloads"].items():
            for name, m in res["metrics"].items():
                values.setdefault(wl, {}).setdefault(name, []).append(m["value"])
    return values


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, q2, q3


def spread(vs):
    q1, q2, q3 = quartiles(vs)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, better, bound, same, judge_spread=True):
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    sp, sc = (spread(parent), spread(change)) if judge_spread else (0.0, 0.0)
    if same:
        diff = abs(mc - mp) / mp if mp else float("inf")
        ok = sp <= bound and sc <= bound and diff <= bound
        return "agree" if ok else "disagree"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, _, p3 = quartiles(parent)
    if wins >= 0.9 and sign * (mc - mp) > p3 - p1:
        return "improved"
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max(sp, sc) > bound and not all_better:
        return "unresolved"
    worse = sign * (mp - mc) / mp if mp else 0.0
    return "regressed" if worse > bound else "no worse"


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--same", action="store_true",
                    help="both sets come from one commit: check they agree")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    a, b = load_runs(args.parent), load_runs(args.change)
    bad = {"regressed", "unresolved", "disagree"}
    failures = 0
    print(f"{'workload':18s} {'metric':15s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'wins':>5s} verdict")
    for wl in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            pa = [v for v in a.get(wl, {}).get(m["name"], []) if v is not None]
            pb = [v for v in b.get(wl, {}).get(m["name"], []) if v is not None]
            if not pa or not pb:
                print(f"{wl:18s} {m['name']:15s} missing values")
                failures += 1
                continue
            v = verdict(pa, pb, m["better"], m["bound"], args.same,
                        judge_spread=m["name"] != "setup_s")
            failures += v in bad
            qa, qb = quartiles(pa), quartiles(pb)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(pa, pb) if sign * (y - x) > 0)
            print(f"{wl:18s} {m['name']:15s} "
                  f"{fmt(qa[1]) + ' [' + fmt(qa[0]) + ', ' + fmt(qa[2]) + ']':>30s} "
                  f"{fmt(qb[1]) + ' [' + fmt(qb[0]) + ', ' + fmt(qb[2]) + ']':>30s} "
                  f"{spread(pa):8.3f} {spread(pb):8.3f} "
                  f"{wins:>2d}/{min(len(pa), len(pb)):<2d} {v}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
