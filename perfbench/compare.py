#!/usr/bin/env python3
"""Compares saved perfbench result records of two commits.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Each side's metric is the median over its records. An end-to-end metric
regresses when the new median is worse than the base median by more than
the metric's bound in BENCHMARK.json; per-layer metrics and the records'
diagnostics (steal, per-operation latencies) are listed without a verdict.
Exit status: 0 no regression, 1 regression, 3 refused.

The comparison is refused, loudly, when the records' host fingerprints
differ in any identity field (CPU model, core count, clock, governor,
compiler, flags) or when they ran different workloads, run lengths or trace
modes: numbers from different conditions measure the hosts, not the code.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
IDENTITY = ("cpu_model", "nproc", "mhz", "governor", "compiler", "flags")
CONDITIONS = ("workload", "seconds", "trace")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def refuse(lines):
    bar = "!" * 72
    print(bar)
    print("REFUSING TO COMPARE: these results were measured under different conditions.")
    for line in lines:
        print("  " + line)
    print(bar)
    sys.exit(3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    records = load(args.base) + load(args.new)

    first = records[0]
    diffs = []
    for rec in records[1:]:
        for key in IDENTITY:
            if rec["fingerprint"].get(key) != first["fingerprint"].get(key):
                diffs.append(f"fingerprint {key}: {first['fingerprint'].get(key)!r} vs "
                             f"{rec['fingerprint'].get(key)!r}")
        for key in CONDITIONS:
            if rec[key] != first[key]:
                diffs.append(f"{key}: {first[key]!r} vs {rec[key]!r}")
    if diffs:
        refuse(sorted(set(diffs)))
    bad = [r for r in records if not r["correct"]]
    if bad:
        refuse([f"{len(bad)} record(s) are not correct runs (failed operations or dropped "
                f"trace events)"])

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}

    base, new = load(args.base), load(args.new)
    print(f"workload {first['workload']}, {first['seconds']} s, trace {first['trace']}; "
          f"base {len(base)} run(s) at {sorted({r['fingerprint']['commit'] for r in base})}, "
          f"new {len(new)} run(s) at {sorted({r['fingerprint']['commit'] for r in new})}")
    print(f"{'metric':30s} {'base':>12s} {'new':>12s} {'change':>9s}  verdict")
    regressed = False
    for name in first["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        spec = bounds.get(name) or layers.get(name) or {"better": "lower"}
        worse = change if spec["better"] == "lower" else -change
        if "bound" in spec:
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            verdict += f" (bound {spec['bound']:.0%})"
            regressed |= worse > spec["bound"]
        else:
            verdict = "per-layer"
        unit = first["metrics"][name]["unit"]
        print(f"{name:30s} {b:12.5g} {n:12.5g} {change:+9.2%}  {verdict}  [{unit}]")
    for name in first.get("diagnostics", {}):
        b = statistics.median(r["diagnostics"][name]["value"] for r in base)
        n = statistics.median(r["diagnostics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        unit = first["diagnostics"][name]["unit"]
        print(f"{name:30s} {b:12.5g} {n:12.5g} {change:+9.2%}  diagnostic  [{unit}]")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
