#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <dense_evd|small_evd|service_mix> \
        --seed <n> --seconds <s> --trace <0|1> [--out result.json]
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the perfbench executable (the jmh
library plus perfbench/src, with the repo's own CMake flags) under
$CARGO_TARGET_DIR or .bench_build, runs one workload, prints its condition
lines and metrics by name and unit, saves a result record with the host
fingerprint, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. perfbench/compare.py compares two
saved records. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_evd", "small_evd", "service_mix")
# Whole-run budget: the build of a fresh checkout is allowed more.
RUN_LIMIT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns the executable path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no jmh sources next to {HERE} (expected CMakeLists.txt and src/ in {ROOT})")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def read_first(path, default="n/a"):
    try:
        with open(path) as f:
            return f.read().strip() or default
    except OSError:
        return default


def cpuinfo(key):
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.split(":")[0].strip() == key:
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "n/a"


def source_commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def fingerprint(host):
    """Host conditions of this run. compare.py refuses to judge two results
    whose identity fields (IDENTITY) differ."""
    mhz = cpuinfo("cpu MHz")
    return {
        "cpu_model": cpuinfo("model name"),
        "nproc": os.cpu_count(),
        "mhz": round(float(mhz)) if mhz != "n/a" else mhz,
        "governor": read_first("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
                               "none (no cpufreq)"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "compiler": host.get("compiler", "n/a"),
        "flags": host.get("flags", "n/a").strip(),
        "commit": source_commit(),
        "triad_gbps": host.get("triad_gbps"),
        "triad_array_bytes": host.get("triad_array_bytes"),
        "llc_bytes": host.get("llc_bytes"),
        "steal_pct": host.get("steal_pct"),
    }


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields[:8])
    except (OSError, ValueError):
        return 0, 0


def run_workload(exe, args, deadline):
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload exceeded its time budget", 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}", 1)
    result, host, lines = None, {}, []
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif line.startswith("HOST "):
            host = json.loads(line[len("HOST "):])
        else:
            lines.append(line)
    if result is None:
        fail("perfbench printed no result", 1)
    return result, host, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result record path (default: under the build directory)")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args()
    started = time.monotonic()

    exe = build()
    if args.selftest:
        sys.exit(subprocess.run([exe, "selftest"]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    deadline = started + RUN_LIMIT_S
    if time.monotonic() - started > 30:  # a fresh build: the run keeps its own budget
        deadline = time.monotonic() + RUN_LIMIT_S
    steal0, total0 = cpu_ticks()
    result, host, lines = run_workload(exe, args, deadline)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor ran other guests on this VM's CPUs during the run:
    # multi-rank solves slow down sharply when it is high.
    host["steal_pct"] = round(100.0 * (steal1 - steal0) / max(1, total1 - total0), 2)
    metrics = result["metrics"]
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in metrics.values())
    dropped = metrics.get("obs.dropped_events", {}).get("value", 0)
    correct = result["failed"] == 0 and result["attempted"] > 0 and finite and dropped == 0
    fp = fingerprint(host)

    for line in lines:
        print(line)
    print("fingerprint: " + ", ".join(f"{k}={fp[k]}" for k in (
        "cpu_model", "nproc", "mhz", "governor", "loadavg", "steal_pct", "compiler", "flags",
        "commit")))
    if dropped:
        print(f"trace integrity: {dropped} trace events were dropped; the run is not valid")
    print(f"failed_share {result['failed'] / max(1, result['attempted']):.6f} "
          f"({result['failed']} of {result['attempted']} operations)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
        "diagnostics": result.get("diagnostics", {}), "fingerprint": fp, "notes": lines,
    }
    out = args.out or os.path.join(
        os.path.dirname(build_dir()), "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"result record: {out}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
