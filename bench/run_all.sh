#!/usr/bin/env bash
# Run the perf-tracking benchmark set and drop machine-readable results
# at the repository root:
#   BENCH_kernels.json  — stack interpreter vs register row engine
#   BENCH_fig9.json     — 2-d multigrid variant comparison (Fig. 9)
#   BENCH_scaling.json  — thread scaling, polymg-naive vs polymg-opt+
#   BENCH_autotune.json — the Fig. 12 autotuning sweep
#   BENCH_resilience.json — checkpoint overhead, recovery latency, SDC rate
#   BENCH_service.json  — solve-service throughput / tail latency / overload
#   BENCH_obs.json      — observability plane: histogram accuracy, record
#                         overhead, trace overhead, roofline attribution
#   METRICS_service.prom — Prometheus text scraped live from bench_service
#
# Usage: bench/run_all.sh [build-dir]   (default: ./build)
# Extra knobs via env: REPS (default 3), BENCH_CLASS (e.g. B),
# POLYMG_TRACE=1 to additionally write a Chrome trace (TRACE_<bench>.json
# per driver, Perfetto-loadable) next to each BENCH_*.json,
# POLYMG_METRICS=1 to additionally dump each driver's final
# metrics-registry snapshot (METRICS_<bench>.json per driver).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo_root/build}"
reps="${REPS:-3}"

# Per-bench trace paths when POLYMG_TRACE is set (any value): each driver
# gets its own file so one run's ring snapshot doesn't clobber another's.
trace_arg() {  # usage: trace_arg <name> -> echoes --trace <path> or nothing
  if [[ -n "${POLYMG_TRACE:-}" ]]; then
    echo "--trace $repo_root/TRACE_$1.json"
  fi
}

# Per-bench metrics snapshots when POLYMG_METRICS is set: the harness
# dumps the whole registry (counters, gauges, histograms) at exit.
metrics_arg() {  # usage: metrics_arg <name> -> echoes --metrics <path> or nothing
  if [[ -n "${POLYMG_METRICS:-}" ]]; then
    echo "--metrics $repo_root/METRICS_$1.json"
  fi
}

if [[ ! -x "$build/bench/bench_kernels" ]]; then
  echo "error: $build/bench/bench_kernels not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

echo "== bench_kernels (reps=$reps, mixed rows at a DRAM-bound 2-d edge) =="
# --n2d 4095 (134 MB of doubles) keeps the 2-d stencils memory-bound so
# the jit-f32 rows measure the bandwidth halving, not cache noise.
"$build/bench/bench_kernels" --reps "$reps" --precision=mixed --n2d 4095 \
  --json "$repo_root/BENCH_kernels.json" $(trace_arg kernels) \
  $(metrics_arg kernels)

echo
echo "== bench_fig9_2d (reps=$reps) =="
fig9_args=(--reps "$reps" --json "$repo_root/BENCH_fig9.json")
if [[ -n "${BENCH_CLASS:-}" ]]; then
  fig9_args+=(--class "$BENCH_CLASS")
fi
"$build/bench/bench_fig9_2d" "${fig9_args[@]}" $(trace_arg fig9) \
  $(metrics_arg fig9) --benchmark_out_format=console

echo
# Threads 1, 2, 4, ... up to the OpenMP thread count (OMP_NUM_THREADS or
# the core count).
echo "== bench_scaling (reps=$reps) =="
"$build/bench/bench_scaling" --reps "$reps" \
  --json "$repo_root/BENCH_scaling.json" $(trace_arg scaling) \
  $(metrics_arg scaling)

echo
echo "== bench_fig12_autotune (reps=$reps) =="
"$build/bench/bench_fig12_autotune" --reps "$reps" \
  --json "$repo_root/BENCH_autotune.json" $(trace_arg autotune) \
  $(metrics_arg autotune)

echo
echo "== bench_resilience (reps=$reps) =="
"$build/bench/bench_resilience" --reps "$reps" \
  --json "$repo_root/BENCH_resilience.json" $(trace_arg resilience) \
  $(metrics_arg resilience)

echo
echo "== bench_service =="
# Always keep the scraped exposition text as an artifact: it is the
# ground truth the CI smoke asserts against (parseable Prometheus text,
# histogram series present).
"$build/bench/bench_service" \
  --json "$repo_root/BENCH_service.json" \
  --prom "$repo_root/METRICS_service.prom" \
  $(metrics_arg service)

echo
echo "== bench_obs =="
"$build/bench/bench_obs" \
  --json "$repo_root/BENCH_obs.json" $(metrics_arg obs)

echo
echo "results: $repo_root/BENCH_kernels.json $repo_root/BENCH_fig9.json" \
     "$repo_root/BENCH_scaling.json $repo_root/BENCH_autotune.json" \
     "$repo_root/BENCH_resilience.json $repo_root/BENCH_service.json" \
     "$repo_root/BENCH_obs.json $repo_root/METRICS_service.prom"
