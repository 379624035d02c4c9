#!/usr/bin/env bash
# Regenerates the committed perf baselines (the BENCH_*.json files at the
# repo root) from N interleaved repetitions of the release-mode benchmark
# harnesses, taking the best-of envelope on every gated metric.
#
# Why interleaved best-of: a single benchmark run bakes whatever thermal /
# frequency / cache state the machine happened to be in into the committed
# numbers, and a slow baseline silently loosens the regression gate forever.
# Running the harnesses alternately N times and keeping the per-metric
# minimum (maximum for rate metrics) approximates the machine's true
# steady-state capability: transient noise can only make a repetition
# slower, never faster.
#
# The harness roster lives in the HARNESSES table below — one line per
# harness: its binary, its extra arguments, and the BENCH files it writes.
# Adding a benchmark to the committed baseline set means adding one line.
# Each harness's output is kept in the work directory; one that exits
# non-zero stops the run, which names it and its repetition and prints the
# tail of its output.
#
# Envelope rules (matching tools/check_bench.py's gates):
#   min over reps   ns_per_iteration, ns_per_call, total_us, min_pass_ns,
#                   min_run_ns, ns_per_switch, pass_cost_index,
#                   allocs_per_call, allocs_per_pass, sense_us, predict_us,
#                   optimize_us, migrate_us
#   max over reps   iterations_per_sec
#   first rep       everything else (descriptions, counts, derived
#                   percentages — informational, not gated)
#
# Usage:
#   tools/rebaseline.sh [-n REPS] [-b BUILD_DIR]
#     -n REPS       repetitions (default 5)
#     -b BUILD_DIR  existing or to-be-created Release build (default
#                   build-rel)
# Run from the repo root. Review the diff, then commit the refreshed
# BENCH_*.json files together with a note of the machine they came from.
set -euo pipefail

# "binary;extra args;BENCH files written" — ';'-separated because benchmark
# filters contain '|'. The run order below is the interleave order.
HARNESSES=(
  "micro_benchmarks;--benchmark_filter=BM_SaOptimize|BM_BuildCharacterization --benchmark_min_time=0.05;BENCH_sa.json BENCH_obs.json BENCH_kernel.json"
  "fig7_overhead_scalability;;BENCH_epoch.json"
  "fig_shard_scaling;;BENCH_shard.json"
  "fig_fleet;;BENCH_fleet.json"
  "fig_latency;;BENCH_latency.json"
  "fig_slo;;BENCH_slo.json"
)

REPS=5
BUILD_DIR=build-rel
while getopts "n:b:h" opt; do
  case "$opt" in
    n) REPS="$OPTARG" ;;
    b) BUILD_DIR="$OPTARG" ;;
    h|*) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
  esac
done

if [[ ! -f CMakeLists.txt || ! -d tools ]]; then
  echo "rebaseline.sh: run from the repository root" >&2
  exit 2
fi

BINARIES=()
BENCH_FILES=()
for spec in "${HARNESSES[@]}"; do
  BINARIES+=("${spec%%;*}")
  files=${spec##*;}
  for f in $files; do BENCH_FILES+=("$f"); done
done

need_build=0
for bin in "${BINARIES[@]}"; do
  [[ -x "$BUILD_DIR/bench/$bin" ]] || need_build=1
done
if [[ "$need_build" == 1 ]]; then
  echo "== configuring + building $BUILD_DIR (Release)"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j --target "${BINARIES[@]}"
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
ROOT=$(pwd)

for rep in $(seq 1 "$REPS"); do
  echo "== repetition $rep/$REPS"
  mkdir -p "$WORK/rep$rep"
  # Interleave the harnesses so slow machine phases hit all of them equally.
  # Each one's output goes to its own log, whose tail a failure prints.
  for spec in "${HARNESSES[@]}"; do
    bin=${spec%%;*}
    rest=${spec#*;}
    args=${rest%%;*}
    log="$WORK/rep$rep/$bin.log"
    status=0
    # shellcheck disable=SC2086  # intentional word splitting of the args
    (cd "$WORK/rep$rep" && "$ROOT/$BUILD_DIR/bench/$bin" $args) \
        >"$log" 2>&1 || status=$?
    if [[ "$status" != 0 ]]; then
      echo "rebaseline.sh: rep $rep/$REPS: $bin exited $status; its last" \
           "output lines:" >&2
      tail -n 20 "$log" >&2
      exit "$status"
    fi
  done
  for f in "${BENCH_FILES[@]}"; do
    [[ -f "$WORK/rep$rep/$f" ]] ||
        { echo "rebaseline.sh: rep $rep did not produce $f" >&2; exit 1; }
  done
done

echo "== merging best-of envelope over $REPS repetitions"
REBASELINE_FILES="${BENCH_FILES[*]}" python3 - "$WORK" "$REPS" <<'PY'
import json
import os
import sys

work, reps = sys.argv[1], int(sys.argv[2])
MIN_KEYS = {"ns_per_iteration", "ns_per_call", "total_us", "min_pass_ns",
            "min_run_ns", "ns_per_switch", "pass_cost_index",
            "allocs_per_call", "allocs_per_pass", "sense_us", "predict_us",
            "optimize_us", "migrate_us",
            "opt_exchange_us_per_core", "sa_cpu_us_per_pass",
            "exchange_us_per_pass", "sublinear_violations",
            "advantage_lost_pct"}
MAX_KEYS = {"iterations_per_sec"}

for name in os.environ["REBASELINE_FILES"].split():
    docs = []
    for rep in range(1, reps + 1):
        with open(f"{work}/rep{rep}/{name}") as f:
            docs.append(json.load(f))
    merged = docs[0]
    for section, body in merged.items():
        if not isinstance(body, dict):
            continue
        others = [d.get(section) for d in docs[1:]]
        for key, value in body.items():
            pool = [value] + [o[key] for o in others
                              if isinstance(o, dict) and key in o]
            if key in MIN_KEYS:
                body[key] = min(pool)
            elif key in MAX_KEYS:
                body[key] = max(pool)
    # Match the emitters' 6-decimal float style so diffs stay readable.
    def fmt(obj):
        if isinstance(obj, float):
            return round(obj, 6)
        if isinstance(obj, dict):
            return {k: fmt(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [fmt(v) for v in obj]
        return obj
    with open(name, "w") as f:
        json.dump(fmt(merged), f, indent=2)
        f.write("\n")
    print(f"  wrote {name}")
PY

echo "== done; review with: git diff ${BENCH_FILES[*]}"
