#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark runs (Python 3 standard library).

    python3 benchmark/compare.py A B [--benchmark BENCHMARK.json]
                                 [--write-baseline FILE]

A and B are result JSON files, or directories of them, as the benchmark
writes them (build-bench/results/<workload>-seed<N>-trace<T>.json). A is
the parent, B the change; run at least ten alternating pairs with the
same seeds on both sides. Runs pair up by (workload, seed).

For every (metric, workload) the report gives each side's median and
quartiles, the share of pairs B wins (ties count for neither) and a
verdict against the bound BENCHMARK.json declares:

  worse       B's median is worse than A's by more than the bound
  unresolved  not worse, but either side's spread (quartile distance over
              median) exceeds the bound, and B does not beat A in every run
  better      B wins at least 9/10 of the pairs and the medians differ by
              more than A's quartile distance (or, under a wide spread,
              every B run beats every A run)
  unchanged   otherwise

Per-layer metrics have no bound; they are reported without a verdict.
Exits 1 when any pair is worse or B's failed/attempted share rose.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(spec):
    path = pathlib.Path(spec)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        try:
            data = json.loads(f.read_text())
        except (OSError, ValueError) as e:
            sys.exit(f"compare.py: cannot read {f}: {e}")
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            runs.append(data)
    if not runs:
        sys.exit(f"compare.py: no result files in {spec}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def by_key(runs, end_to_end):
    """{(workload, metric): {seed: value}} plus units and per-workload tallies.

    End-to-end metrics come from untraced runs only, per-layer metrics from
    traced runs only (a traced run also prints end-to-end numbers, measured
    over a third of the run)."""
    values, units, tallies = {}, {}, {}
    for r in runs:
        w = r["workload"]
        for name, m in r["metrics"].items():
            if (name in end_to_end) != (r.get("trace", 0) == 0):
                continue
            values.setdefault((w, name), {})[r["seed"]] = m["value"]
            units[name] = m["unit"]
        t = tallies.setdefault(w, [0, 0])
        t[0] += r["attempted"]
        t[1] += r["failed"]
    return values, units, tallies


def verdict(a, b, pairs, better, bound):
    """a, b: value lists; pairs: [(a, b)]; better: 'lower' | 'higher'."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return None, worse_by, win_frac
    if worse_by > bound:
        return "worse", worse_by, win_frac
    every_run_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return ("better" if every_run_better else "unresolved"), worse_by, win_frac
    if win_frac >= 0.9 and sign * (b_med - a_med) < 0 and abs(b_med - a_med) > (a_q3 - a_q1):
        return "better", worse_by, win_frac
    return "unchanged", worse_by, win_frac


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread(values), "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="parent results (file or directory)")
    ap.add_argument("b", help="change results (file or directory)")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--write-baseline", metavar="FILE",
                    help="write both sets' medians and spreads to FILE")
    args = ap.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    va, units, ta = by_key(runs_a, end_to_end)
    vb, _, tb = by_key(runs_b, end_to_end)

    regressions = []
    rows = []
    baseline = {}
    print(f"{'workload':16} {'metric':24} {'unit':8} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'B wins':>7} "
          f"{'spread A/B':>12} {'bound':>6}  verdict")
    for key in sorted(set(va) & set(vb)):
        w, name = key
        if name not in declared:
            continue
        seeds = sorted(set(va[key]) & set(vb[key]))
        a, b = list(va[key].values()), list(vb[key].values())
        pairs = [(va[key][s], vb[key][s]) for s in seeds]
        m = declared[name]
        bound = m.get("bound")
        v, worse_by, win_frac = verdict(a, b, pairs, m["better"], bound)
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        print(f"{w:16} {name:24} {units.get(name, ''):8} "
              f"{am:12.4g} [{a1:.4g}, {a3:.4g}]".ljust(88) +
              f"{bm:12.4g} [{b1:.4g}, {b3:.4g}]".ljust(31) +
              f"{100 * worse_by:+7.1f}% {100 * win_frac:6.0f}% "
              f"{spread(a):5.3f}/{spread(b):5.3f} "
              f"{'' if bound is None else bound:>6}  {v or '-'}")
        if v == "worse":
            regressions.append(f"{w} {name}: worse by {100 * worse_by:.1f}% (bound {100 * bound:.0f}%)")
        baseline.setdefault(w, {})[name] = {"unit": units.get(name, ""),
                                            "A": summary(a), "B": summary(b)}
        rows.append((w, name, v))

    for w in sorted(set(ta) & set(tb)):
        fa = ta[w][1] / ta[w][0] if ta[w][0] else 0.0
        fb = tb[w][1] / tb[w][0] if tb[w][0] else 0.0
        print(f"{w:16} fail_frac: A {fa:.4f} ({ta[w][1]}/{ta[w][0]})  "
              f"B {fb:.4f} ({tb[w][1]}/{tb[w][0]})")
        if fb > fa:
            regressions.append(f"{w}: fail_frac rose from {fa:.4f} to {fb:.4f}")
        baseline.setdefault(w, {})["fail_frac"] = {"A": fa, "B": fb}

    unresolved = [f"{w} {n}" for w, n, v in rows if v == "unresolved"]
    if unresolved:
        print("unresolved: " + ", ".join(unresolved))
    if args.write_baseline:
        for r in runs_a:  # host fingerprint (thread count differs by workload)
            baseline.get(r["workload"], {}).setdefault("host", r.get("host", {}))
        out = {"runs": {"A": len(runs_a), "B": len(runs_b)}, "workloads": baseline}
        pathlib.Path(args.write_baseline).write_text(json.dumps(out, indent=1) + "\n")
    if regressions:
        print("REGRESSION:\n  " + "\n  ".join(regressions))
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
