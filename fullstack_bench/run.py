#!/usr/bin/env python3
"""Build and run the full-stack benchmark from the root of a checkout.

    python3 fullstack_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Configures and builds fullstack_bench/ (which builds the tvg library from
the checkout's sources) into .bench_build/fullstack, then runs the program
with its engine directory under .bench_build/work-<pid> and, for traced
runs, writes the spans to .bench_build/spans/. The program's standard
output is passed through unchanged, so its last line is the JSON result.
Build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "fullstack"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "tvg").is_dir():
        fail(f"no tvg sources at {ROOT}: run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "fullstack_bench",
         "-j", str(os.cpu_count() or 4)],
    ]
    if (BUILD_DIR / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workdir = BUILD_ROOT / f"work-{os.getpid()}"
    command = [str(BUILD_DIR / "fullstack_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if args.trace:
        spans = BUILD_ROOT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
