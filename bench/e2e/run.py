#!/usr/bin/env python3
"""End-to-end streaming benchmark: build the driver, run workloads, report.

    python3 bench/e2e/run.py                        # every workload, untraced
    python3 bench/e2e/run.py --workload steady_mix --seed 3 --seconds 25
    python3 bench/e2e/run.py --trace DIR            # traced run, per-layer metrics
    python3 bench/e2e/run.py --smoke                # self-check at tiny sizes

The driver (hhbench.cpp) is built in Release into build/e2e. A run of one
workload repeats fixed-work rounds, each in a fresh process with a fresh
stack, until --seconds have passed, then pools the rounds' samples into
the metrics BENCHMARK.json lists. Every metric is printed with its unit
and sample count; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full result, with
workload digests, goes to build/e2e/results.json (--out). Exit status is
non-zero when an exactness check fails or the driver cannot run.

--trace 1 (or --trace DIR) makes the run report the per-layer metrics
instead: rounds alternate untraced and traced, the traced ones write
spans to DIR/trace-<workload>.json (Chrome trace-event format), and the
ledger and router-versus-direct replays run after the workload.
"""

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
HHBENCH = BUILD / "hhbench"
SPEC = ROOT / "BENCHMARK.json"

ROUND_TIMEOUT_S = 150
MIN_ROUNDS = 3
# A run keeps adding rounds past --seconds (up to this factor) only while
# some percentile still lacks the samples it needs.
MAX_OVERRUN = 1.6

# name -> the system under test, keys, whether the analyst follows its
# marker probe with query_sum(), and the fixed work per writer per round.
WORKLOADS = {
    "steady_mix": dict(stack="server", keys="bounded", batches=240,
                       sum_query=True),
    "growing_ingest": dict(stack="server", keys="growing", batches=240,
                           sum_query=False),
    "cluster_mix": dict(stack="router", keys="bounded", batches=240,
                        sum_query=True),
    "replicated_ingest": dict(stack="replicated", keys="bounded", batches=200,
                              sum_query=False),
}
# Each writer's distinct batches: with bounded keys ~2.9M distinct
# coordinates in all, so a query_sum holds the event loop for about a
# third of the analyst's 200 ms period instead of saturating it.
POOL = 32
BATCH_SIZE = 50000
LEDGER_BATCHES = 200
SMOKE = dict(batches=6, pool=4, batch_size=2000, ledger_batches=8, setup_reps=2)
SETUP_REPS = 30


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ------------------------------------------------------------

MIN_BEYOND = 10  # a percentile needs this many samples above it


def percentile(samples, q):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples
    lie beyond it. Returns (value, n)."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None, n
    return sorted(samples)[max(rank, 1) - 1], n


def median(values):
    return (statistics.median(values), len(values)) if values else (None, 0)


def pooled(rounds, key):
    return [x for r in rounds for x in r[key]]


def ratio(a, b):
    return a / b if b else 0.0


# --- metrics ---------------------------------------------------------------

def end_to_end(rounds):
    """name -> (value, n) over the rounds of one workload."""
    m = {}
    m["ingest_rate"] = median([r["ingest_rate"] for r in rounds])
    m["ack_p50_ms"] = percentile(pooled(rounds, "ack_ms"), 0.50)
    m["visible_p99_ms"] = percentile(pooled(rounds, "visible_ms"), 0.99)
    m["setup_s"] = median(pooled(rounds, "setups_s"))
    m["peak_rss_mb"] = median(
        [r["peak_rss_mb"] + r.get("workers_peak_rss_mb", 0.0) for r in rounds])
    return m


def per_layer(plain, traced, ledger, direct):
    """Per-layer metrics of a traced run: `plain` and `traced` are its
    untraced and traced rounds, `ledger` and `direct` the replays."""
    rounds = plain + traced
    n = len(traced)

    def per_round(f):
        return median([f(r) for r in traced])

    def total(key):
        return sum(r.get(key, 0) for r in traced)

    work = sum(r["work_s"] for r in traced)
    batches = total("batches")
    entries = total("entries")
    plain_rate = median([r["ingest_rate"] for r in plain])[0]
    traced_rate = median([r["ingest_rate"] for r in traced])[0]
    fold = ledger["fold_rate"]
    m = {}
    m["ack_p99_ms"] = percentile(pooled(rounds, "ack_ms"), 0.99)
    m["visible_p50_ms"] = percentile(pooled(rounds, "visible_ms"), 0.50)
    m["query_p50_ms"] = percentile(pooled(rounds, "query_ms"), 0.50)
    m["query_p90_ms"] = percentile(pooled(rounds, "query_ms"), 0.90)
    m["gen.analyst_late_ms_p90"] = percentile(pooled(rounds, "late_ms"), 0.90)
    m["gbx.fold_rate"] = (fold, ledger["batches"])
    m["hier.update_rate"] = (ledger["update_rate"], ledger["batches"])
    m["hier.update_over_fold"] = (ratio(ledger["update_rate"], fold), 1)
    m["hier.stream_rate"] = (ledger["stream_rate"], ledger["batches"])
    m["hier.stream_over_fold"] = (ratio(ledger["stream_rate"], fold), 1)
    m["hier.lane_busy_frac"] = per_round(lambda r: r.get("lane_busy_frac", 0.0))
    m["hier.lane_apply_rate"] = per_round(lambda r: r.get("lane_apply_rate", 0.0))
    for k in range(3):
        key = f"fold_ratio_l{k}"
        m[f"hier.{key}"] = per_round(lambda r, key=key: r.get(key, 0.0))
    m["hier.freezes_per_s"] = (ratio(total("lane_freezes"), work), n)
    m["hier.governor_peak_pinned_mb"] = per_round(
        lambda r: r.get("governor_peak_pinned_mb", 0.0))
    m["net.insert_send_ms_p50"] = percentile(pooled(rounds, "send_ms"), 0.50)
    m["net.insert_send_ms_p99"] = percentile(pooled(rounds, "send_ms"), 0.99)
    m["net.flush_wait_ms_p50"] = percentile(pooled(rounds, "flush_ms"), 0.50)
    m["net.flush_wait_ms_p99"] = percentile(pooled(rounds, "flush_ms"), 0.99)
    m["net.marker_probe_ms_p50"] = percentile(pooled(rounds, "probe_ms"), 0.50)
    m["net.marker_probe_ms_p90"] = percentile(pooled(rounds, "probe_ms"), 0.90)
    m["net.query_idle_ms"] = per_round(lambda r: r["query_idle_ms"])
    m["net.parks_per_kbatch"] = (1000 * ratio(total("server_parks"), batches), n)
    m["net.out_throttles"] = (total("server_out_throttles"), n)
    m["net.e2e_over_fold"] = (ratio(plain_rate, fold), len(plain))
    m["cluster.subbatches_per_batch"] = (
        ratio(total("router_subbatches"), total("router_batches")), n)
    m["cluster.stitched_freezes_per_s"] = (
        ratio(total("router_stitched_freezes"), work), n)
    m["cluster.worker_failures"] = (total("router_worker_failures"), n)
    m["cluster.router_over_direct"] = (
        ratio(direct["router_rate"], direct["direct_rate"]), direct["batches"])
    m["repl.lag_batches_p50"] = percentile(pooled(rounds, "lag_batches"), 0.50)
    m["repl.lag_batches_p99"] = percentile(pooled(rounds, "lag_batches"), 0.99)
    m["repl.wal_bytes_per_entry"] = (ratio(total("repl_wal_bytes"), entries), n)
    cpu = total("cpu_s") + total("workers_cpu_s")
    m["proc.cpu_s_per_mentry"] = (ratio(cpu, entries / 1e6), n)
    ctx = total("ctx_switches") + total("workers_ctx_switches")
    m["proc.ctx_switches_per_batch"] = (ratio(ctx, batches), n)
    m["trace.overhead_frac"] = (1 - ratio(traced_rate, plain_rate), len(rounds))
    return m


# --- the driver ------------------------------------------------------------

def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def hhbench(args, timeout=ROUND_TIMEOUT_S):
    """Run the driver; return its JSON line. Exit 1 (exactness) still
    returns the line, with "exact": false. The driver runs in its own
    process group, killed afterwards, so forked workers cannot outlive it
    even when it is killed on timeout."""
    proc = subprocess.Popen([str(HHBENCH)] + [str(a) for a in args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {timeout} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"hhbench {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {stderr.strip()}")
    return json.loads(lines[-1])


def workload_args(name, seed, sizes):
    w = WORKLOADS[name]
    return ["--stack", w["stack"], "--keys", w["keys"],
            "--sum-query", int(w["sum_query"]), "--seed", seed,
            "--batches", sizes.get("batches", w["batches"]),
            "--pool", sizes.get("pool", POOL),
            "--batch-size", sizes.get("batch_size", BATCH_SIZE)]


def run_round(name, seed, sizes, trace_file=None):
    wal_dir = BUILD / "wal"
    wal_dir.mkdir(parents=True, exist_ok=True)
    args = ["--mode", "round"] + workload_args(name, seed, sizes)
    args += ["--wal-dir", wal_dir,
             "--setup-reps", sizes.get("setup_reps", SETUP_REPS)]
    if trace_file is not None:
        args += ["--trace", trace_file, "--query-idle", 1]
    return hhbench(args)


def enough_samples(rounds, traced):
    """Whether every percentile the run reports has its samples; a traced
    run also reports p90s of the analyst's ticks."""
    if traced:
        return percentile(pooled(rounds, "query_ms"), 0.90)[0] is not None
    return all(v is not None for v, _ in end_to_end(rounds).values())


def run_workload(name, seed, seconds, trace_dir=None, sizes=None):
    """Rounds of one workload, all on the input `seed` generates, until
    `seconds` have passed."""
    sizes = sizes or {}
    traced = trace_dir is not None
    plain, traced_rounds, parts = [], [], []
    start = time.monotonic()
    durations = []
    while True:
        r = len(plain) + len(traced_rounds)
        use_trace = traced and r % 2 == 1
        part = None
        if use_trace:
            part = Path(trace_dir) / f"trace-{name}.part{r}.json"
            parts.append(part)
        t0 = time.monotonic()
        out = run_round(name, seed, sizes, part)
        durations.append(time.monotonic() - t0)
        (traced_rounds if use_trace else plain).append(out)
        elapsed = time.monotonic() - start
        done = len(durations) >= (2 * MIN_ROUNDS if traced else MIN_ROUNDS)
        if sizes:  # smoke: fixed round count
            done = len(durations) >= (2 if traced else 1)
        elif done:
            # Another round if it would end nearer to `seconds` than not.
            fits = elapsed + statistics.median(durations) / 2 <= seconds
            starved = not enough_samples(plain + traced_rounds, traced)
            done = not fits and not (starved and elapsed < MAX_OVERRUN * seconds)
        if done:
            break
    result = {"rounds": plain + traced_rounds, "plain": plain,
              "traced": traced_rounds, "seconds": time.monotonic() - start}
    if traced:
        ledger_args = workload_args(name, seed, sizes) + [
            "--ledger-batches", sizes.get("ledger_batches", LEDGER_BATCHES)]
        lpart = Path(trace_dir) / f"trace-{name}.ledger.json"
        parts.append(lpart)
        result["ledger"] = hhbench(["--mode", "ledger", "--trace", lpart] + ledger_args)
        result["direct"] = hhbench(["--mode", "direct"] + ledger_args)
        merge_traces(parts, Path(trace_dir) / f"trace-{name}.json")
    return result


def merge_traces(parts, dest):
    """One Chrome trace per workload: every part becomes its own pid."""
    events = []
    for pid, part in enumerate(parts):
        for ev in json.loads(part.read_text())["traceEvents"]:
            ev["pid"] = pid
            events.append(ev)
        part.unlink()
    dest.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def digest_of(name, seed, sizes):
    return hhbench(["--mode", "digest"] + workload_args(name, seed, sizes))["digest"]


# --- reporting -------------------------------------------------------------

def load_spec():
    return json.loads(SPEC.read_text())


def summarize(name, seed, res, spec, traced):
    rounds = res["rounds"]
    digests = {r["digest"] for r in rounds}
    # One seed, one input: every round must have generated the same bytes.
    exact = all(r["exact"] for r in rounds) and len(digests) == 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if traced:
        exact = exact and res["ledger"]["exact"] and res["direct"]["exact"]
        values = per_layer(res["plain"], res["traced"], res["ledger"], res["direct"])
        listed = spec["per_layer"]
    else:
        values = end_to_end(rounds)
        listed = spec["end_to_end"]
    metrics = {}
    for m in listed:
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    return {"seed": seed, "rounds": len(rounds), "seconds": res["seconds"],
            "workload_digest": rounds[0]["digest"],
            "round_ingest_rates": [r["ingest_rate"] for r in rounds],
            "exact": exact, "attempted": attempted, "failed": failed,
            "errors": sorted({r["errors"] for r in rounds if r["errors"]}),
            "metrics": metrics}


def print_table(name, summary):
    print(f"{name}: {summary['rounds']} rounds in {summary['seconds']:.1f} s, "
          f"exact={summary['exact']}, failed {summary['failed']} of "
          f"{summary['attempted']} calls")
    for metric, m in summary["metrics"].items():
        v = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {metric:30s} {v:>14s} {m['unit']:10s} n={m['n']}")


def contract_line(summaries):
    """The last stdout line: one object; with several workloads the metric
    names are prefixed with the workload."""
    metrics = {}
    for name, s in summaries.items():
        for metric, m in s["metrics"].items():
            key = metric if len(summaries) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(s["exact"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": metrics}


# --- smoke -----------------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke():
    """Tiny sizes: every listed metric is emitted with its unit, names and
    limits hold, results are exact, and the seed alone fixes the input."""
    spec = load_spec()
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)

    e2e, layers, wls = spec["end_to_end"], spec["per_layer"], spec["workloads"]
    check(2 <= len(wls) <= 8, "2-8 workloads")
    check(1 <= len(e2e) <= 16, "1-16 end-to-end metrics")
    check(1 <= len(layers) <= 128, "1-128 per-layer metrics")
    names = [w["name"] for w in wls] + [m["name"] for m in e2e + layers]
    check(len(names) == len(set(names)), "names are used once")
    for n in names:
        check(NAME_RE.match(n) is not None, f"name {n!r} matches [A-Za-z0-9_.-]+")
    check(sorted(w["name"] for w in wls) == sorted(WORKLOADS),
          "BENCHMARK.json workloads are run.py's workloads")
    for w in wls:
        check(len(w["why"]) <= 200 and "\n" not in w["why"],
              f"{w['name']}: why is one line of at most 200 characters")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" for m in e2e),
          "setup_s is an end-to-end metric in s")
    for m in e2e:
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")

    smoke_dir = BUILD / "smoke"
    smoke_dir.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        for traced in (False, True):
            res = run_workload(name, 7, 0, smoke_dir if traced else None, SMOKE)
            s = summarize(name, 7, res, spec, traced)
            check(s["exact"], f"{name}: exact (traced={traced}) {s['errors']}")
            check(s["failed"] == 0, f"{name}: no failed calls (traced={traced})")
            listed = layers if traced else e2e
            for m in listed:
                got = s["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{name}: {m['name']} emitted in {m['unit']}")
            if traced:
                check((smoke_dir / f"trace-{name}.json").exists(),
                      f"{name}: trace file written")
        a, b = digest_of(name, 7, SMOKE), digest_of(name, 7, SMOKE)
        c = digest_of(name, 8, SMOKE)
        check(a == b, f"{name}: same seed, same workload_digest")
        check(a != c, f"{name}: different seed, different workload_digest")
    for p in problems:
        log("smoke: FAIL " + p)
    print(json.dumps({"smoke": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


# --- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: every workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25,
                    help="measuring time per workload")
    ap.add_argument("--trace", default="0",
                    help="0: end-to-end metrics; 1 or a directory: traced run "
                         "with per-layer metrics, traces in that directory "
                         "(default build/e2e/trace)")
    ap.add_argument("--out", default=str(BUILD / "results.json"),
                    help="full results file")
    ap.add_argument("--smoke", action="store_true", help="tiny self-check")
    args = ap.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        spec = load_spec()
        trace_dir = None
        if args.trace != "0":
            trace_dir = BUILD / "trace" if args.trace == "1" else Path(args.trace)
            trace_dir.mkdir(parents=True, exist_ok=True)
        names = [args.workload] if args.workload else list(WORKLOADS)
        summaries = {}
        for name in names:
            res = run_workload(name, args.seed, args.seconds, trace_dir)
            summaries[name] = summarize(name, args.seed, res, spec, trace_dir is not None)
            print_table(name, summaries[name])
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 2
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"host": {"nproc": os.cpu_count()},
                               "traced": trace_dir is not None,
                               "workloads": summaries}, indent=1))
    line = contract_line(summaries)
    print(json.dumps(line))
    missing = [k for k, m in line["metrics"].items() if m["value"] is None]
    if missing:
        log("run.py: too few samples for " + ", ".join(missing))
    return 0 if line["correct"] and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
