#!/usr/bin/env python3
"""Evaluate the bench gates of a gates file against bench JSON reports.

Usage:
  check_bench_regression.py GATES.json BASELINE.json CURRENT.json...

Every report names its bench in its "bench" header field (the one schema
bench/harness.h's Report writes). Each gate has a "name", the "bench" it
reads, a "why" printed when it fails, and one of two shapes:

  row bound  Every selected row of the CURRENT report's "block" holds a
             number in "field" within "min" and/or "max". "where" keeps
             rows whose fields equal the given values, "prefix" rows whose
             fields start with the given text; "skip_if" skips the gate
             when the report's header fields equal the given values.
  geomean    "geomean_vs_baseline" names a field; its CURRENT/BASELINE
             ratio over the rows of "blocks" present in both, keyed by
             (block, spec, batch, threads), has a geometric mean of at
             least "min". A single noisy row does not fail it, a broad
             slowdown does; per-row ratios are printed.

A gate that checks no row fails, and so does a checked row whose gated
field is missing or not a number, so a renamed block, spec or field cannot
switch a gate off. Exits 1 when any gate failed.
"""

import argparse
import json
import math
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def rows_of(doc, block):
    rows = doc.get(block, [])
    if not isinstance(rows, list):
        return []
    return [row for row in rows if isinstance(row, dict)]


def select(doc, gate):
    """(label, row) for each row of the gate's block that its filters keep."""
    block = gate["block"]
    for i, row in enumerate(rows_of(doc, block)):
        if (all(row.get(k) == v for k, v in gate.get("where", {}).items()) and
                all(str(row.get(k, "")).startswith(p)
                    for k, p in gate.get("prefix", {}).items())):
            ident = [f"{k}={row[k]}" for k in ("spec", "scenario", "mix",
                                               "values", "batch",
                                               "buffer_pages")
                     if k in row]
            yield " ".join([f"{block}[{i}]"] + ident), row


def check_bound(gate, doc):
    """Failure messages of a row-bound gate."""
    skip = gate.get("skip_if", {})
    if skip and all(doc.get(k) == v for k, v in skip.items()):
        print(f"  skipped: report header matches {skip}")
        return []
    field = gate["field"]
    low, high = gate.get("min", -math.inf), gate.get("max", math.inf)
    bound = " ".join(f"{k} {gate[k]}" for k in ("min", "max") if k in gate)
    fails = []
    checked = 0
    for label, row in select(doc, gate):
        checked += 1
        value = row.get(field)
        if not is_number(value):
            fails.append(f"{label}: {field} is {value!r}, not a number")
        elif not low <= value <= high:
            fails.append(f"{label}: {field}={value} outside {bound}")
        else:
            print(f"  {label}: {field}={value} ({bound})")
    if checked == 0:
        fails.append(f"no {gate['block']} row to check")
    return fails


def keyed_rows(doc, blocks):
    return {(b, r.get("spec"), r.get("batch"), r.get("threads", 1)): r
            for b in blocks for r in rows_of(doc, b)}


def check_geomean(gate, doc, base):
    """Failure messages of a baseline-ratio geomean gate."""
    field, floor = gate["geomean_vs_baseline"], gate["min"]
    cur_rows, base_rows = keyed_rows(doc, gate["blocks"]), keyed_rows(
        base, gate["blocks"])
    fails, logs = [], []
    for key in sorted(set(cur_rows) & set(base_rows), key=str):
        old, new = base_rows[key].get(field), cur_rows[key].get(field)
        if not (is_number(old) and is_number(new) and old > 0 and new > 0):
            fails.append(f"{key}: {field} {old!r} -> {new!r} is not a "
                         "positive number")
            continue
        logs.append(math.log(new / old))
        flag = "  <-- below min" if new / old < floor else ""
        print(f"  {key[0]:<13} {key[1]:<16} {key[2]:>6} {key[3]:>3} "
              f"{old:>9.3f} {new:>9.3f} {new / old:>7.3f}{flag}")
    if not logs:
        fails.append("no row common to BASELINE and CURRENT")
    else:
        geomean = math.exp(sum(logs) / len(logs))
        print(f"  {field} geomean ratio over {len(logs)} rows: "
              f"{geomean:.3f} (min {floor})")
        if geomean < floor:
            fails.append(f"geomean {field} ratio {geomean:.3f} < min {floor}")
    return fails


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("gates")
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    args = parser.parse_args()
    gates = load(args.gates)["gates"]
    base = load(args.baseline)
    reports = {}
    for path in args.current:
        doc = load(path)
        if doc.get("bench") in reports or not doc.get("bench"):
            parser.error(f"{path}: missing or repeated bench name")
        reports[doc["bench"]] = doc

    failed = []
    for gate in gates:
        print(f"{gate['name']} [{gate['bench']}]")
        doc = reports.get(gate["bench"])
        if doc is None:
            fails = [f"no CURRENT report for bench {gate['bench']}"]
        elif "geomean_vs_baseline" not in gate:
            fails = check_bound(gate, doc)
        elif base.get("bench") != gate["bench"]:
            fails = [f"BASELINE is not a {gate['bench']} report"]
        else:
            fails = check_geomean(gate, doc, base)
        for message in fails:
            print(f"FAIL {gate['name']}: {message}")
        if fails:
            print(f"  ({gate['why']})")
            failed.append(gate["name"])
    if failed:
        print("FAILED gates: " + " ".join(failed))
        return 1
    print(f"OK: all {len(gates)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
