#!/usr/bin/env python3
"""Serving benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark binary
from source into .bench_build/ (Release; the first run compiles, later runs
only check that the build is current), then runs the binary, which prints
its report and, as the last line, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json. The full output is also kept in
.bench_build/results/, and a traced run writes its spans as Chrome trace
JSON to .bench_build/traces/. Exits non-zero, without a result line, when
the build fails; exits non-zero when a correctness check fails or the
result does not carry exactly the metrics BENCHMARK.json lists.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; False on failure. Both steps are
    no-ops on a current build tree."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None.

    Also checks that perfbench/layers.json maps every per-layer metric to
    end-to-end metrics that BENCHMARK.json defines.
    """
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    if set(layers) != per_layer or any(
            m["metric"] not in end_to_end
            for entry in layers.values() for m in entry["moves"]):
        raise ValueError("perfbench/layers.json does not match BENCHMARK.json")
    return per_layer if trace else end_to_end


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".txt"), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log("benchmark printed no result (exit code %d)" % proc.returncode)
        return proc.returncode or 1

    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        log(str(err))
        return 1
    if want is not None and set(result["metrics"]) != want:
        # Keep the report but withhold the result line: it breaks the
        # contract BENCHMARK.json states.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
