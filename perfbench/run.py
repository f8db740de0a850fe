#!/usr/bin/env python3
"""Builds the swarmavail benchmark and runs one workload of it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the library sources plus
the swarmbench program) into $CARGO_TARGET_DIR, default .bench_build; later
calls rebuild only what changed. swarmbench's human-readable lines are
passed through; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports every end_to_end
metric of BENCHMARK.json, --trace 1 every per_layer metric; a layer the
workload never enters reads 0. The traced run also writes its spans to
<build dir>/traces/<workload>-seed<N>.jsonl.

See perfbench/METRICS.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the swarmbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "CMakeLists.txt")
    ):
        fail("the swarmavail sources (CMakeLists.txt, src/) are not next to perfbench/", 3)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        )
    steps.append(["cmake", "--build", build_dir, "--target", "swarmbench", "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step), 4)
    return os.path.join(build_dir, "swarmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload, 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)

    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += [
            "--trace-out",
            os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed)),
        ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("swarmbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("swarmbench exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Hold swarmbench's output to the metric lists of BENCHMARK.json.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        fail("swarmbench reported undeclared metrics: " + ", ".join(undeclared))
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # a layer this workload never enters
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
