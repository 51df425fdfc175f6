#!/usr/bin/env python3
"""Perf-trajectory regression gate.

Compares the BENCH_*.json files produced by the current bench sweep
(scripts/run_benches.sh, or the CI smoke steps) against the committed
baselines under perf/, and fails on a significant throughput regression.

Matching: a baseline pairs with a current file by (1) identical
filename, else (2) the inner report's "bench" field (so the committed
perf/BENCH_INGEST.json matches both BENCH_ingest_smoke.json from the CI
smoke step and BENCH_bench_ingest_hotpath.json from a full sweep).

Metrics: numeric leaves of the inner report are compared by JSON path.
  * higher-is-better — keys ending in "_rate" / "rate" / "speedup" /
    "throughput", or naming a same-host ratio "<a>_over_<b>":
    regression when current < baseline * (1 - threshold).
  * lower-is-better  — keys containing "degradation" (a fraction):
    regression when current > baseline + threshold.
Wall-clock and workload-shape fields (seconds, sizes, counts) are
deliberately ignored: workloads differ between smoke and sweep scale,
while rates are per-entry and comparable.

Exit status: 1 if any regression (or, with --require-all, any baseline
without a current measurement), 0 otherwise. Baselines are refreshed by
copying the new BENCH_*.json over perf/ in the same PR that justifies
the change — see README "CI pipeline".
"""

import argparse
import json
import os
import sys
from pathlib import Path

# "_ratio" covers same-host relative metrics (rate_ratio, reuse_ratio):
# these stay comparable across machines, whereas absolute "_rate" values
# shift with the host — keep baselines minted on the same runner class
# the gate runs on (e.g. from a nightly artifact), or widen the
# threshold via PERF_REGRESSION_THRESHOLD.
HIGHER_SUFFIXES = ("_rate", "_ratio", "speedup", "throughput")
HIGHER_EXACT = {"rate"}
HIGHER_SUBSTR = ("_over_",)
LOWER_SUBSTR = ("degradation",)


def load_reports(directory: Path):
    """filename -> (file_json, inner_report_or_None)."""
    out = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: unreadable {path}: {e}", file=sys.stderr)
            continue
        report = data.get("report")
        if not isinstance(report, dict):
            report = None
        out[path.name] = (data, report)
    return out


def metric_kind(key: str):
    k = key.lower()
    if any(s in k for s in LOWER_SUBSTR):
        return "lower"
    if (k in HIGHER_EXACT or any(k.endswith(s) for s in HIGHER_SUFFIXES)
            or any(s in k for s in HIGHER_SUBSTR)):
        return "higher"
    return None


def walk_metrics(node, path=""):
    """Yield (json_path, kind, value) for every comparable numeric leaf."""
    if isinstance(node, dict):
        for key, val in node.items():
            sub = f"{path}.{key}" if path else key
            if isinstance(val, (dict, list)):
                yield from walk_metrics(val, sub)
            elif isinstance(val, (int, float)) and not isinstance(val, bool):
                kind = metric_kind(key)
                if kind:
                    yield sub, kind, float(val)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from walk_metrics(val, f"{path}[{i}]")


def pair_current(name, baseline_report, currents):
    """Find the current report for one baseline (filename, then bench id)."""
    if name in currents and currents[name][1] is not None:
        return name, currents[name][1]
    bench_id = (baseline_report or {}).get("bench")
    if bench_id is None:
        return None, None
    for cur_name, (_, cur_report) in currents.items():
        if cur_report is not None and cur_report.get("bench") == bench_id:
            return cur_name, cur_report
    return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="perf", type=Path,
                    help="directory with committed BENCH_*.json baselines")
    ap.add_argument("--current", default="build/bench_results", type=Path,
                    help="directory with this run's BENCH_*.json files")
    ap.add_argument("--threshold", type=float,
                    default=float(os.environ.get(
                        "PERF_REGRESSION_THRESHOLD", "0.30")),
                    help="relative regression tolerance (default 0.30; env "
                         "PERF_REGRESSION_THRESHOLD)")
    ap.add_argument("--require-all", action="store_true",
                    help="fail if any baseline has no current measurement "
                         "(nightly full-sweep mode)")
    args = ap.parse_args()

    if not args.baseline.is_dir():
        print(f"error: baseline dir {args.baseline} not found", file=sys.stderr)
        return 2
    if not args.current.is_dir():
        print(f"error: current dir {args.current} not found "
              "(run the bench sweep first)", file=sys.stderr)
        return 2

    baselines = load_reports(args.baseline)
    currents = load_reports(args.current)

    regressions = []
    missing = []
    compared = 0

    for name, (_, base_report) in baselines.items():
        if base_report is None:
            print(f"-- {name}: no machine-readable report in baseline, skipped")
            continue
        cur_name, cur_report = pair_current(name, base_report, currents)
        if cur_report is None:
            missing.append(name)
            print(f"-- {name}: no current measurement"
                  f"{' (REQUIRED)' if args.require_all else ''}")
            continue
        base_metrics = dict((p, (k, v)) for p, k, v in walk_metrics(base_report))
        cur_metrics = dict((p, (k, v)) for p, k, v in walk_metrics(cur_report))
        print(f"== {name} vs {cur_name}")
        for path, (kind, base_val) in sorted(base_metrics.items()):
            if path not in cur_metrics:
                continue
            cur_val = cur_metrics[path][1]
            compared += 1
            if kind == "higher":
                bad = base_val > 0 and cur_val < base_val * (1 - args.threshold)
                delta = (cur_val / base_val - 1) * 100 if base_val else 0.0
            else:  # lower-is-better fraction
                bad = cur_val > base_val + args.threshold
                delta = (cur_val - base_val) * 100
            mark = "REGRESSION" if bad else "ok"
            print(f"   {path}: base={base_val:.6g} cur={cur_val:.6g} "
                  f"({delta:+.1f}{'%' if kind == 'higher' else 'pp'}) {mark}")
            if bad:
                regressions.append((name, path, base_val, cur_val))

    for name in currents:
        if name not in baselines and not any(
                (b[1] or {}).get("bench") == (currents[name][1] or {}).get("bench")
                for b in baselines.values()):
            print(f"-- {name}: no committed baseline — consider adding it "
                  f"under {args.baseline}/")

    print(f"\ncompared {compared} metrics across {len(baselines)} baselines "
          f"(threshold {args.threshold:.0%})")
    if regressions:
        print("\nPERF REGRESSIONS:")
        for name, path, base_val, cur_val in regressions:
            print(f"  {name} {path}: {base_val:.6g} -> {cur_val:.6g}")
        print("If intentional (algorithm change, new gate), refresh the "
              "baseline JSON under perf/ in this PR and explain why.")
        return 1
    if args.require_all and missing:
        print(f"\nMISSING MEASUREMENTS for: {', '.join(missing)}")
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
