#!/usr/bin/env python3
"""Wall-clock benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload build_cold --seed 1 --seconds 15 --trace 0

`--workload all` runs every workload in turn and ends with one JSON line
whose metrics are named "<workload>.<metric>".

Builds the perfbench binary from source into .bench_build/ (the library
from src/ plus perfbench/), runs one workload, echoes its report, and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
listed in BENCHMARK.json; with --trace 1 they are the per-layer ones from
the traced run (0 where the workload does not exercise that layer), and
the Chrome trace and per-layer summary land in .bench_build/traces/.

setup_s is the median over SETUP_SAMPLES fresh processes of the time from
process start to the first timed operation: SETUP_SAMPLES - 1 processes
run with --setup-only, and the measuring process supplies the last one.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
SETUP_SAMPLES = 3
# Seconds one run may take beyond a build that compiles something.
RUN_BUDGET_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, deadline, echo):
    """Runs the binary, returns the JSON object on its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(args), 1)
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args), 1)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % proc.returncode, 1)
    return json.loads(lines[-1])


def run_all(names, opts):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(opts.seed), "--seconds", repr(opts.seconds),
             "--trace", str(opts.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("workload %s failed with code %d" % (name, proc.returncode), 1)
        print("== " + name)
        print("\n".join(lines))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload == "all":
        run_all(names, opts)
        return
    if opts.workload not in names:
        fail("unknown workload " + opts.workload)
    started = time.monotonic()
    build()
    # A build that compiled something gets its own allowance; a no-op
    # build counts against the run's budget.
    deadline = max(started + RUN_BUDGET_S, time.monotonic() + RUN_BUDGET_S - 10)
    tag = "%s-seed%d" % (opts.workload, opts.seed)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace),
            "--workdir", os.path.join(BUILD, "work"),
            "--trace-out", os.path.join(BUILD, "traces", tag)]

    probes = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probes.append(run_binary(args + ["--setup-only"], deadline, False))
    result = run_binary(args, deadline, True)

    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "setup_s":
            samples = [p["metrics"]["setup_s"]["value"] for p in probes]
            samples.append(got["setup_s"]["value"])
            print("setup_s samples: " +
                  ", ".join("%.4f" % s for s in samples) + " s")
            value = statistics.median(samples)
        elif name in got:
            value = got[name]["value"]
        elif opts.trace:
            value = 0.0  # layer not exercised by this workload
        else:
            fail("workload did not report " + name, 1)
        if not opts.trace and not value > 0:
            fail("end-to-end metric %s is %r" % (name, value), 1)
        metrics[name] = {"value": value, "unit": m["unit"]}
    known = {m["name"] for m in wanted} | {"setup_s"}
    unknown = sorted(set(got) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown), 1)

    correct = result["correct"] and all(p["correct"] for p in probes)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
