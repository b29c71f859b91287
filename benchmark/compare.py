#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 benchmark/compare.py A B

A and B are results.json files written by run.py, or directories searched
for them (so a directory of several run.py outputs pools their runs). For
every workload and end-to-end metric it prints each side's median and
quartiles, and a verdict under the BENCHMARK.json bounds:

    better / worse  B's median moved past A's by more than the bound
    same            the medians differ by less than the bound
    unresolved      either side's quartile spread is wider than the bound

failed_frac must not rise at all. Deterministic layer counts of the traced
runs are compared exactly (same / changed). Exits 1 if any row is worse.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (shares the metric tables and the quartile rule)


def load(path):
    """(workload -> metric -> [values], workload -> metric -> [values])."""
    path = Path(path)
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare.py: no results.json under {path}")
    runs = defaultdict(lambda: defaultdict(list))
    traced = defaultdict(lambda: defaultdict(list))
    for f in files:
        results = json.loads(f.read_text())
        for r in results["runs"]:
            for name, value in r["metrics"].items():
                if value is not None:
                    runs[r["workload"]][name].append(value)
        for workload, t in results.get("traced", {}).items():
            for name, value in t["metrics"].items():
                traced[workload][name].append(value)
    return runs, traced


def verdict(a, b, better, bound):
    """Verdict on B against A, and B's relative change (+ = worse)."""
    qa, qb = run.quartiles(a), run.quartiles(b)
    ma, mb = qa[1], qb[1]
    if ma == 0 and mb == 0:
        return "same", 0.0
    change = (mb - ma) / abs(ma) if ma else float("inf")
    if better == "higher":
        change = -change
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def fmt(values):
    q1, med, q3 = run.quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = run.benchmark_spec()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(name, m["unit"], m["better"], m["bound"])
                for name, m in run.EXTRA_E2E.items()]
    runs_a, traced_a = load(sys.argv[1])
    runs_b, traced_b = load(sys.argv[2])
    worse = 0
    print(f"{'workload':11} {'metric':22} {'unit':6} {'A median [q1, q3]':34} "
          f"{'B median [q1, q3]':34} {'change':>8}  verdict")
    for workload in run.WORKLOADS:
        a_metrics, b_metrics = runs_a.get(workload), runs_b.get(workload)
        if not a_metrics or not b_metrics:
            print(f"{workload:11} (missing on one side)")
            continue
        for name, unit, better, bound in metrics:
            if name not in a_metrics or name not in b_metrics:
                continue
            v, change = verdict(a_metrics[name], b_metrics[name], better,
                                bound)
            worse += v == "worse"
            print(f"{workload:11} {name:22} {unit:6} "
                  f"{fmt(a_metrics[name]):34} {fmt(b_metrics[name]):34} "
                  f"{change:+8.1%}  {v}")
        a_failed = max(a_metrics.get("failed_frac", [0]))
        b_failed = max(b_metrics.get("failed_frac", [0]))
        v = "worse" if b_failed > a_failed else "same"
        worse += v == "worse"
        print(f"{workload:11} {'failed_frac':22} {'ratio':6} {a_failed:<34.4g} "
              f"{b_failed:<34.4g} {'':>8}  {v}")
        for name in run.DETERMINISTIC:
            a_vals = traced_a.get(workload, {}).get(name)
            b_vals = traced_b.get(workload, {}).get(name)
            if a_vals and b_vals:
                v = "same" if set(a_vals) == set(b_vals) else "changed"
                print(f"{workload:11} {name:22} {'count':6} "
                      f"{','.join(f'{x:.6g}' for x in sorted(set(a_vals))):34} "
                      f"{','.join(f'{x:.6g}' for x in sorted(set(b_vals))):34} "
                      f"{'':>8}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
