#!/usr/bin/env bash
# Run one benchmark per bench/bench_*.cpp source and emit one
# BENCH_<name>.json per bench for the perf trajectory. A source whose
# binary is missing from the build fails the sweep: every bench builds
# unconditionally, so a missing one is a build error, and a stale binary
# whose source is gone is never run. Each JSON records the exit code,
# wall seconds, the bench's own machine-readable "BENCH_JSON {...}" line
# when it prints one, and the path of the captured stdout.
#
# Gating benches in the sweep:
#   bench_parallel_stream — Fig. 2 shape (monotone aggregate rate).
#   bench_snapshot_query  — query-while-ingest insert-rate degradation
#                           (< SNAPQ_MAX_DEGRADATION with 4 readers,
#                           enforced only on hosts with enough hardware
#                           threads; see the bench for details).
#   bench_snapshot_delta  — incremental analytics on snapshot deltas:
#                           engine.refresh() must be ≥
#                           BENCH_DELTA_MIN_SPEEDUP times faster than a
#                           from-scratch pass at ≤1% churn AND match it
#                           exactly (bit-identical Σ Ai, exact triangle
#                           and summary counts, tolerance-exact warm
#                           PageRank). Exactness is enforced on every
#                           host; the bench exits non-zero on any miss.
#   bench_ingest_hotpath  — fused radix fold pipeline: Σ Ai must be
#                           bit-identical to direct accumulation and the
#                           measured runs must not grow the scratch
#                           arenas; fused_rate feeds the perf
#                           trajectory. INGEST_SETS / INGEST_SET_SIZE
#                           shrink the workload for CI.
#   bench_eviction        — memory-governed snapshot eviction: with a
#                           budget B and a reader lagging ≥8 epochs,
#                           peak identity-deduped pinned bytes must stay
#                           ≤ B + one-block-per-shard slack AND return
#                           under B after enforcement, every evicted-
#                           reader read must be bit-identical to the
#                           unevicted baseline, and governed ingest
#                           throughput must stay ≥ EVICT_MIN_RATE_RATIO
#                           (default 0.9) of the governor-off run.
#                           EVICT_SETS / EVICT_SET_SIZE shrink for CI.
#   bench_outofcore       — out-of-core tiering: a demoting HierMatrix
#                           streams >= 3x its resident budget through a
#                           file-backed BlockStore; every sweep point
#                           must be bit-identical to an in-memory twin,
#                           resident bytes must respect the budget, and
#                           the demoting ingest rate must stay ≥
#                           OUTOFCORE_MIN_RATE_RATIO (default 0.8) of
#                           the in-memory run. OOC_SETS / OOC_SET_SIZE
#                           shrink the workload for CI; OOC_DIR points
#                           the store at a specific filesystem (e.g.
#                           tmpfs).
#   bench_replication     — WAL shipping to a live replica: ingest rate
#                           with the replication chain armed vs off,
#                           with Σ Ai checked exactly on BOTH ends.
#                           rate_ratio must stay ≥ REPL_MIN_RATE_RATIO
#                           (default 0.85) on hosts with ≥ 4 hardware
#                           threads; below that the chain has nothing
#                           to pipeline on and the floor falls back to
#                           REPL_MIN_RATE_RATIO_SERIAL (default 0.30,
#                           still failing stalls and ack starvation).
#                           REPL_CLIENTS / REPL_SETS / REPL_SET_SIZE
#                           shrink the workload for CI.
#   bench_cluster_ingest  — multi-process sharding: P forked worker
#                           processes behind cluster::Router, P clients
#                           streaming through it. The epoch-stitched
#                           Σ Ai must equal the streamed entry count
#                           exactly at every P (exits non-zero
#                           otherwise); scaling_ratio = rate(maxP)/
#                           rate(1) must stay ≥ CLUSTER_MIN_SCALING
#                           (default 1.0, monotone) on hosts with ≥ 2x
#                           the worker count in hardware threads, else
#                           ≥ CLUSTER_MIN_SCALING_SERIAL (default 0.25,
#                           still failing livelocks and per-worker
#                           serialization). CLUSTER_MAX_WORKERS /
#                           CLUSTER_SETS / CLUSTER_SET_SIZE shrink the
#                           workload for CI.
#   bench_query_cost      — the exact snapshot count nvals() against
#                           materialize-then-count at each hierarchy
#                           configuration: exits non-zero when the two
#                           disagree; count_over_materialize feeds the
#                           perf trajectory.
#
# Usage: scripts/run_benches.sh [build-dir] [output-dir]
set -u

BENCH_SRC_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/../bench" && pwd)"
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}/bench_results}"
PER_BENCH_TIMEOUT="${BENCH_TIMEOUT:-900}"
# Degradation budget for bench_snapshot_query (ISSUE acceptance: 0.30).
export SNAPQ_MAX_DEGRADATION="${SNAPQ_MAX_DEGRADATION:-0.30}"
# Speedup floor for bench_snapshot_delta (ISSUE acceptance: 5x).
export BENCH_DELTA_MIN_SPEEDUP="${BENCH_DELTA_MIN_SPEEDUP:-5.0}"
# Rate floor for bench_outofcore (ISSUE acceptance: 0.8x in-memory).
export OUTOFCORE_MIN_RATE_RATIO="${OUTOFCORE_MIN_RATE_RATIO:-0.8}"
# Rate floors for bench_replication (ISSUE acceptance: 0.85x with cores
# to pipeline the shipping chain on; serial hosts measure work ratio).
export REPL_MIN_RATE_RATIO="${REPL_MIN_RATE_RATIO:-0.85}"
export REPL_MIN_RATE_RATIO_SERIAL="${REPL_MIN_RATE_RATIO_SERIAL:-0.30}"
# Scaling floors for bench_cluster_ingest (ISSUE acceptance: monotone
# aggregate rate with enough hardware threads for the whole topology).
export CLUSTER_MIN_SCALING="${CLUSTER_MIN_SCALING:-1.0}"
export CLUSTER_MIN_SCALING_SERIAL="${CLUSTER_MIN_SCALING_SERIAL:-0.25}"
# Space-separated bench names to skip (e.g. a gate already run by a
# dedicated CI step — avoids paying for the same bench twice).
BENCH_SKIP="${BENCH_SKIP:-}"

if [ ! -d "${BUILD_DIR}/bench" ]; then
  echo "error: ${BUILD_DIR}/bench not found — configure with -DHHGBX_BUILD_BENCH=ON and build first" >&2
  exit 2
fi

mkdir -p "${OUT_DIR}"
overall=0

for src in "${BENCH_SRC_DIR}"/bench_*.cpp; do
  name="$(basename "${src}" .cpp)"
  exe="${BUILD_DIR}/bench/${name}"
  case " ${BENCH_SKIP} " in
    *" ${name} "*) echo "== ${name} (skipped via BENCH_SKIP)"; continue ;;
  esac
  if [ ! -x "${exe}" ]; then
    echo "== ${name}: no binary at ${exe} — rebuild ${BUILD_DIR}" >&2
    overall=1
    continue
  fi
  log="${OUT_DIR}/${name}.txt"
  json="${OUT_DIR}/BENCH_${name}.json"

  echo "== ${name}"
  start="$(date +%s.%N)"
  timeout "${PER_BENCH_TIMEOUT}" "${exe}" >"${log}" 2>&1
  code=$?
  end="$(date +%s.%N)"
  [ "${code}" -eq 0 ] || overall=1

  # Last self-reported BENCH_JSON line, if the bench prints one.
  inner="$(grep '^BENCH_JSON ' "${log}" | tail -1 | sed 's/^BENCH_JSON //')"
  [ -n "${inner}" ] || inner=null

  secs="$(awk -v a="${start}" -v b="${end}" 'BEGIN { printf "%.3f", b - a }')"
  cat >"${json}" <<EOF
{
  "bench": "${name}",
  "exit_code": ${code},
  "wall_seconds": ${secs},
  "stdout": "${log}",
  "report": ${inner}
}
EOF
  echo "   exit=${code} wall=${secs}s -> ${json}"
done

exit "${overall}"
