#!/usr/bin/env python3
"""One command for the ARGO benchmark: builds its program, runs a workload,
checks its outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload matrix50 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt into .bench_build/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "argo_perfbench"
# The program measures for --seconds; this bounds set-up plus overshoot.
PROGRAM_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the program up to date. Tool output
    goes to a log that is shown only on failure."""
    log_path = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "argo_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache that skips it.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed")


def run_program(args):
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(PROGRAM), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"program exceeded {PROGRAM_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"program exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=1).run(suite)
    sys.exit(0 if result.wasSuccessful() else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed is None or args.seed < 0 or not args.seconds or args.seconds <= 0:
        fail("--seed >= 0 and --seconds > 0 are required")

    build()
    raw = run_program(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values = (metrics.layer_metrics if args.trace else metrics.e2e_metrics)(raw)
    except (ValueError, KeyError, ZeroDivisionError) as error:
        fail(f"cannot compute metrics: {error}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
