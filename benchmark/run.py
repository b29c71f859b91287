#!/usr/bin/env python3
"""End-to-end benchmark of cssidx: builds the cssbench binary, runs workloads.

One workload (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

  The last stdout line is one JSON object {correct, attempted, failed,
  metrics}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
  per-layer metrics with --trace 1 (an untraced and a traced run of the
  same seed; the pair also gives the tracing overhead).

All four workloads:

    python3 benchmark/run.py --seed=1 [--trace] [--repeat=N] [--smoke] --out=<dir>

  Prints `workload metric value unit` lines (medians over the repeats) and
  writes <dir>/results.json with a provenance header, every run, and the
  median/quartile summary that compare.py reads.

Exits 1 if any op failed or any correctness check disagreed, 2 if the
cssbench binary cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ["point_hot", "bulk_cold", "rw_fresh", "olap_paged"]
RUN_TIMEOUT_S = 170

# End-to-end metrics that exist on one workload only. BENCHMARK.json lists
# only metrics every workload reports, so their units and bounds live here.
EXTRA_E2E = {
    "write_fresh_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "write_fresh_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
}

# Per-layer metrics that repeat exactly for a given seed and build;
# compare.py compares them for equality, not within a bound.
DETERMINISTIC = [
    "core.css_tree.sim_l1_misses_per_probe",
    "core.css_tree.sim_l2_misses_per_probe",
    "analytic.model_misses_per_probe",
    "core.external_build.runs",
]

# Units of the metrics BENCHMARK.json does not list: the layer metrics
# only some workloads have, and failed_frac.
OTHER_UNITS = {
    "serve.session.execute_us_p50": "us",
    "serve.session.self_us_p50": "us",
    "serve.statement.parse_ns_per_key": "ns",
    "core.maintained.apply_ms_p50": "ms",
    "domain.encode_ns_per_key": "ns",
    "domain.add_batch_ms_p50": "ms",
    "engine.query.select_range_batch_us_p50": "us",
    "engine.query.count_range_us_p50": "us",
    "engine.query.indexed_join_us_p50": "us",
    "engine.query.group_by_us_p50": "us",
    "engine.query.aggregate_us_p50": "us",
    "engine.sort_index.lower_bound_ns_per_probe": "ns",
    "engine.table.append_ms_p50": "ms",
    "core.external_build.build_s": "s",
    "harness.gen_lag_p99_ms": "ms",
    "harness.write_ack_p99_us": "us",
    "harness.span_overhead_ns": "ns",
    "failed_frac": "ratio",
}

EXECUTE = "serve.session.execute"
LIVE_REQ = 1 << 40  # live-window Execute spans number from here up


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fail(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(2)


def build():
    """Configures and builds cssbench under .bench_build; returns it."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if (BUILD_DIR / "CMakeCache.txt").exists():
        generator = []  # keep whatever generator configured it first
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator],
        ["cmake", "--build", str(BUILD_DIR), "--target", "cssbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                fail(f"build failed (full log: {log_path})")
    return BUILD_DIR / "cssbench"


def run_cssbench(binary, workload, seed, seconds, smoke, trace_path=None):
    """Runs one cssbench process; returns its JSON report."""
    spill = BUILD_DIR / "spill"
    spill.mkdir(exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--spill-dir={spill}"]
    if smoke:
        cmd.append("--smoke")
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited {proc.returncode} without a report")
    report = json.loads(lines[-1])
    for error in report["errors"]:
        sys.stderr.write(f"run.py: {workload}: {error}\n")
    return report


# ------------------------------------------------------------ trace -> layers

def median(values):
    return statistics.median(values) if values else None


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(trace_path):
    """Per-layer metrics from one traced run's spans and counters."""
    spans = defaultdict(list)  # name -> spans
    first = {}                 # (name, req) -> duration of the first span
    counters = {}
    with open(trace_path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["kind"] == "counter":
                counters[rec["name"]] = rec["value"]
                continue
            rec["dur"] = rec["end_ns"] - rec["start_ns"]
            spans[rec["name"]].append(rec)
            first.setdefault((rec["name"], rec["req"]), rec["dur"])

    def durs(name):
        return [s["dur"] for s in spans[name]]

    def per_unit(names):
        group = [s for name in names for s in spans[name]]
        n = sum(s["n"] for s in group)
        return sum(s["dur"] for s in group) / n if n else None

    out = dict(counters)
    index_names = ["core.any_index.find", "core.any_index.count",
                   "core.any_index.lower_bound"]
    index_spans = [s for name in index_names for s in spans[name]]
    out["core.any_index.ns_per_probe"] = per_unit(index_names)
    probes = [s for s in index_spans if s["name"] != "core.any_index.lower_bound"]
    out["core.any_index.hit_ratio"] = ratio(sum(s["hits"] for s in probes),
                                            sum(s["n"] for s in probes))
    # A layer's share of the request it served: its ladder time over the
    # time of the request's own span (Execute, or the engine query).
    parent_dur = {}
    for s in index_spans:
        parent = first.get((s["parent"], s["req"]))
        if parent is not None:
            parent_dur[s["req"]] = parent
    out["core.any_index.share"] = ratio(
        sum(s["dur"] for s in index_spans if s["req"] in parent_dur),
        sum(parent_dur.values()))
    out["core.css_tree.ns_per_probe"] = per_unit(["core.css_tree.lower_bound"])
    part = per_unit(["core.partitioned.part"])
    bare = per_unit(["core.partitioned.bare"])
    if part is not None and bare is not None:
        out["core.partitioned.route_ns_per_probe"] = part - bare
    # Thread 0 timed the snapshot alone; threads 1 and 2 at once.
    out["core.maintained.snapshot_ns_p50"] = median(
        [s["dur"] for s in spans["core.maintained.snapshot"] if s["thread"]])

    # Serving front end (ladder requests only; live spans carry large ids).
    ladder = [s for s in spans[EXECUTE] if s["req"] < LIVE_REQ]
    if ladder:
        keys = {s["req"]: s["n"] for s in index_spans}
        parse = {s["req"]: s["dur"] for s in spans["serve.statement.parse"]}
        # Self time: Execute minus the rungs below it for the same
        # request, each less the cost of timing an empty call.
        overhead = counters.get("harness.span_overhead_ns", 0.0)
        children = ["serve.statement.parse", "core.maintained.snapshot",
                    "domain.encode"] + index_names
        self_ns = [s["dur"] - sum(first[(c, s["req"])] - overhead
                                  for c in children if (c, s["req"]) in first)
                   for s in ladder]
        out["serve.session.execute_us_p50"] = median(
            [s["dur"] for s in ladder]) / 1e3
        out["serve.session.self_us_p50"] = median(self_ns) / 1e3
        out["serve.statement.parse_ns_per_key"] = ratio(
            sum(parse.values()), sum(keys.get(r, 0) for r in parse))
        out["serve.statement.parse_share"] = ratio(
            sum(parse.values()), sum(s["dur"] for s in ladder))
    else:
        out["serve.statement.parse_share"] = 0.0

    for name, metric, scale in [
            ("core.maintained.apply", "core.maintained.apply_ms_p50", 1e6),
            ("domain.add_batch", "domain.add_batch_ms_p50", 1e6),
            ("engine.table.append", "engine.table.append_ms_p50", 1e6),
            ("engine.query.select_range_batch",
             "engine.query.select_range_batch_us_p50", 1e3),
            ("engine.query.count_range", "engine.query.count_range_us_p50",
             1e3),
            ("engine.query.indexed_join", "engine.query.indexed_join_us_p50",
             1e3),
            ("engine.query.group_by", "engine.query.group_by_us_p50", 1e3),
            ("engine.query.aggregate", "engine.query.aggregate_us_p50", 1e3)]:
        if spans[name]:
            out[metric] = median(durs(name)) / scale
    if spans["domain.encode"]:
        out["domain.encode_ns_per_key"] = per_unit(["domain.encode"])
    if spans["engine.sort_index.lower_bound"]:
        out["engine.sort_index.lower_bound_ns_per_probe"] = per_unit(
            ["engine.sort_index.lower_bound"])
    return {k: v for k, v in out.items() if v is not None}


# --------------------------------------------------------------- summaries

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_units(spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: m["unit"] for name, m in EXTRA_E2E.items()})
    units.update(OTHER_UNITS)
    return units


def summarize(runs, units):
    """workload -> metric -> {median, q1, q3, n, unit} over the runs."""
    values = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, value in run["metrics"].items():
            if value is not None:
                values[run["workload"]][name].append(value)
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "n": len(vals),
                                       "unit": units.get(name, "")}
    return summary


def read_cache_size(index):
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    return path.read_text().strip() if path.exists() else "unknown"


def provenance(report, args, seconds):
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain"],
                               capture_output=True, text=True).stdout.strip()
        commit = (head + "-dirty" if dirty else head) or "unknown"
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "l2": read_cache_size(2),
        "l3": read_cache_size(3),
        "compiler": report["compiler"],
        "flags": report["flags"],
        "node_search_path": report["node_search_path"],
        "seed": args.seed,
        "window_s": seconds,
        "warmup_s": report["warmup_s"],
        "smoke": args.smoke,
        "repeat": args.repeat,
    }


# ------------------------------------------------------------------- modes

def traced_pair(binary, workload, args, seconds, out_dir):
    """An untraced and a traced run of one seed: layers, overhead, both ok."""
    plain = run_cssbench(binary, workload, args.seed, seconds, args.smoke)
    trace_path = out_dir / f"{workload}.trace.jsonl"
    traced = run_cssbench(binary, workload, args.seed, seconds, args.smoke,
                        trace_path)
    layers = layer_metrics(trace_path)
    # Validity counts and write-path tails come from the untraced run.
    for name, value in plain["metrics"].items():
        if name.startswith("harness."):
            layers[name] = value
    layers["harness.trace_overhead_frac"] = 1.0 - ratio(
        traced["metrics"]["ops_per_s"], plain["metrics"]["ops_per_s"])
    return plain, traced, layers


def single(args, spec, seconds):
    binary = build()
    units = metric_units(spec)
    if args.trace:
        out_dir = Path(args.out) if args.out else BUILD_DIR / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        plain, traced, layers = traced_pair(binary, args.workload, args,
                                            seconds, out_dir)
        reports = [plain, traced]
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: layers.get(name, 0.0) for name in names}
    else:
        plain = run_cssbench(binary, args.workload, args.seed, seconds,
                           args.smoke)
        reports = [plain]
        names = [m["name"] for m in spec["end_to_end"]]
        values = {name: plain["metrics"][name] for name in names}
    correct = all(r["correct"] for r in reports)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def everything(args, spec, seconds):
    binary = build()
    units = metric_units(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs, traced = [], {}
    header = None
    correct = True
    for workload in WORKLOADS:
        for rep in range(args.repeat):
            report = run_cssbench(binary, workload, args.seed, seconds,
                                args.smoke)
            metrics = dict(report["metrics"])
            metrics["failed_frac"] = ratio(report["failed"],
                                           report["attempted"])
            runs.append({"workload": workload, "rep": rep,
                         "correct": report["correct"],
                         "attempted": report["attempted"],
                         "failed": report["failed"], "metrics": metrics})
            correct &= report["correct"]
            header = header or provenance(report, args, seconds)
        if args.trace:
            plain, traced_run, layers = traced_pair(binary, workload, args,
                                                    seconds, out_dir)
            traced[workload] = {
                "correct": plain["correct"] and traced_run["correct"],
                "metrics": layers}
            correct &= traced[workload]["correct"]
    summary = summarize(runs, units)
    for workload in WORKLOADS:
        rows = [(name, s["median"], s["unit"])
                for name, s in summary[workload].items()]
        rows += [(name, value, units.get(name, ""))
                 for name, value in sorted(traced.get(workload, {})
                                           .get("metrics", {}).items())
                 if name not in summary[workload]]
        for name, value, unit in rows:
            print(f"{workload} {name} {value:.6g} {unit}")
    results = {"header": header, "correct": correct, "runs": runs,
               "traced": traced, "summary": summary}
    with open(out_dir / "results.json", "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"wrote {out_dir / 'results.json'}", file=sys.stderr)
    return 0 if correct else 1


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: "
                             "BENCHMARK.json run_seconds; 2 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced run: per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all-workload form)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/100 sizes and 2 s windows; never for "
                             "reported numbers")
    parser.add_argument("--out", help="output directory for results.json "
                                      "and traces")
    args = parser.parse_args()
    seconds = args.seconds or (2 if args.smoke else spec["run_seconds"])
    if args.workload:
        return single(args, spec, seconds)
    if not args.out:
        parser.error("--out is required when running all workloads")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return everything(args, spec, seconds)


if __name__ == "__main__":
    sys.exit(main())
