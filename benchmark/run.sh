#!/usr/bin/env bash
# Benchmark of record for PolyMG (see benchmark/README.md).
#
#   benchmark/run.sh                  build, then run every workload untraced
#   benchmark/run.sh --traced         ... then a traced pass of every workload
#   benchmark/run.sh --quick          smoke run at tiny sizes; checks that every
#                                     declared metric prints and verifies
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                     one run of one workload (the form the
#                                     BENCHMARK.json command takes)
#
# Builds into build-bench/ and writes results to build-bench/results/.
# Everything it reads and writes stays inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/build-bench"
bin="$build/polymg_benchmark"
workloads=(solve-2d-large solve-2d-wcycle service-open)

mkdir -p "$build/tmp"
# The JIT's compiler and the benchmark keep temporaries inside the checkout.
export TMPDIR="$build/tmp"
export POLYMG_JIT_CACHE_DIR="$build/tmp/jit"
# Never look for a repository above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
POLYMG_BENCH_REVISION="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export POLYMG_BENCH_REVISION

build_benchmark() {
  local log="$build/build.log"
  if { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
       >"$log" 2>&1 &&
     cmake --build "$build" --target polymg_benchmark -j "$(nproc)" \
       >>"$log" 2>&1; then
    return 0
  fi
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  return 1
}

# Threads per process: the solver workloads use every core; the service
# runs 4 workers x 1 thread (see service_workload.cpp).
threads_for() {
  if [[ "$1" == service-open ]]; then echo 1; else echo 4; fi
}

run_one() {  # run_one WORKLOAD [benchmark args...]
  local w="$1"
  shift
  OMP_NUM_THREADS="$(threads_for "$w")" "$bin" --workload "$w" "$@"
}

# Check that a smoke run printed every metric BENCHMARK.json declares and
# the service's own layer metrics.
check_metrics() {  # check_metrics LOGFILE
  python3 - "$1" <<'EOF'
import json, re, sys
spec = json.load(open("BENCHMARK.json"))
text = open(sys.argv[1]).read()
printed = set(re.findall(r"^(?:metric|extra ) (\S+)", text, re.M))
want = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
missing = sorted(want - printed)
if missing:
    sys.exit("run.sh: metrics not printed: " + ", ".join(missing))
EOF
}

mode=all
if [[ $# -gt 0 ]]; then
  case "$1" in
    --traced) mode=traced ;;
    --quick) mode=quick ;;
    --workload) mode=one ;;
    *) echo "usage: $0 [--traced | --quick | --workload W ...]" >&2; exit 2 ;;
  esac
fi

build_benchmark
case "$mode" in
  one)
    w="$2"
    shift 2
    OMP_NUM_THREADS="$(threads_for "$w")" exec "$bin" --workload "$w" "$@"
    ;;
  quick)
    for w in "${workloads[@]}"; do
      log="$build/results/quick-$w.log"
      mkdir -p "$build/results"
      secs=1
      [[ "$w" == service-open ]] && secs=5
      if ! run_one "$w" --quick --trace 1 --seconds "$secs" >"$log" 2>&1; then
        cat "$log" >&2
        echo "run.sh: quick run of $w failed" >&2
        exit 1
      fi
      check_metrics "$log"
      echo "quick $w: ok"
    done
    ;;
  all | traced)
    secs="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
    passes=(0)
    [[ "$mode" == traced ]] && passes=(0 1)
    for trace in "${passes[@]}"; do
      for w in "${workloads[@]}"; do
        echo "== $w (trace $trace)"
        run_one "$w" --seed 42 --seconds "$secs" --trace "$trace"
      done
    done
    ;;
esac
