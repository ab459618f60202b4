#!/usr/bin/env python3
"""Builds the program and runs one benchmark workload.

    python3 perfbench/run.py --workload adapt|serve_unique|http_prefix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes through perfbench/CMakeLists.txt,
which includes the repository's own CMake project, into $CARGO_TARGET_DIR
(default .bench_build/). Fixtures, traces and scratch files live under that
build directory. The last line of standard output is the result JSON; build
logs and the driver's raw figures go to standard error.

The driver prints bare values by name; this script attaches the units from
BENCHMARK.json, the one list of metrics. With --trace 0 the driver must
print every end-to-end metric; with --trace 1 a per-layer metric the
workload does not exercise reads 0.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adapt", "serve_unique", "http_prefix")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver and the CLI; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "edgellm_cli",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    driver = os.path.join(build_dir, "perfbench_driver")
    cli = os.path.join(build_dir, "edgellm", "examples", "edgellm_cli")
    work_dir = os.path.join(build_dir, "work")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cli", cli, "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print("perfbench: driver failed with code %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace == "1" else "end_to_end"]
    values = result["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in listed})
    missing = [m["name"] for m in listed if m["name"] not in values]
    if unknown or (args.trace == "0" and missing):
        print("perfbench: driver metrics differ from BENCHMARK.json: unknown %s, missing %s"
              % (unknown, missing), file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
