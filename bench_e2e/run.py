#!/usr/bin/env python3
"""Entry point of the benchmark of record (BENCHMARK.json at the repo root).

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds the bench_e2e driver and the
library it links from source into .bench_build/ (incremental after the
first run), runs one workload, and prints the driver's output followed, as
the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set (the traced run also writes its spans to
.bench_build/bench-work/trace-<workload>.json). Exits non-zero without a
result line when the build fails, the driver crashes or times out, or a
listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
WORK_DIR = os.path.join(ROOT, ".bench_build", "bench-work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def parse_output(text):
    """Returns ({name: (value, unit)}, checks_ok, attempted, failed)."""
    metrics, checks_ok, attempted, failed = {}, True, None, None
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "metric" and len(fields) == 5:
            metrics[fields[2]] = (float(fields[3]), fields[4])
        elif fields[0] == "check":
            checks_ok = checks_ok and fields[-1] == "ok"
        elif fields[0] == "ops":
            kv = dict(f.split("=", 1) for f in fields[2:])
            attempted = int(kv["attempted"])
            failed = int(kv["failed"])
    return metrics, checks_ok, attempted, failed


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
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [
        BINARY,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--work-dir=" + WORK_DIR,
    ]
    if args.trace:
        cmd.append(
            "--trace=" + os.path.join(WORK_DIR, "trace-%s.json" % args.workload))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    # Exit code 1 is the driver's "ran, but some answer was wrong": still a
    # result. Anything else (crash, usage, set-up error) is not.
    if proc.returncode not in (0, 1):
        fail("driver exited with code %d" % proc.returncode)

    measured, checks_ok, attempted, failed = parse_output(proc.stdout)
    if attempted is None or attempted < 1:
        fail("driver reported no attempted operations")
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("driver did not report metric " + m["name"])
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": checks_ok and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
