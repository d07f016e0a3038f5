#!/usr/bin/env python3
"""Runs one workload of the fleet benchmark and prints one JSON result line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds benchmark/build/tlc_bench from the sources in this checkout (the
first run configures and compiles; later runs only confirm the binary is
current), runs workload NAME for S seconds from inputs made from seed N,
and prints as the last line of standard output a JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end metrics BENCHMARK.json lists; with --trace 1 they are
its per-layer metrics, from traced passes interleaved with untraced jobs.
Build and benchmark logs go to standard error. The exit code is 0 only
when every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "tlc_bench")
# One run measures for --seconds, plus set-up, a warm-up job and checks.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: expected src/CMakeLists.txt beside "
             "the benchmark directory")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "tlc_bench"],
                   check=True, stdout=sys.stderr)


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = metric_names(args.trace)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(BUILD, "result-%s.json" % tag)
    command = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--json=" + result_path]
    if args.trace:
        command += ["--layers",
                    "--trace=" + os.path.join(BUILD, "trace-%s.json" % tag)]
    if os.path.exists(result_path):
        os.remove(result_path)
    try:
        bench = subprocess.run(command, stdout=sys.stderr,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if bench.returncode not in (0, 1) or not os.path.exists(result_path):
        fail("benchmark exited with code %d" % bench.returncode)

    with open(result_path) as f:
        result = json.load(f)
    workload = result["workloads"][0]
    metrics = {}
    for name in names:
        entry = workload["layers"].get(name) or workload["metrics"].get(name)
        if entry is None:
            fail("benchmark reported no metric " + name)
        metrics[name] = {"value": entry["median"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and bench.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if bench.returncode == 0 else 1)


if __name__ == "__main__":
    main()
