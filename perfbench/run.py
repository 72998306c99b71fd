#!/usr/bin/env python3
"""Build and run the gompresso end-to-end + per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cat_native --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the library from the
checkout's own sources) into .bench_build/perfbench, then runs one
workload. The harness prints human-readable lines and, as the last line
of stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to stderr. With --trace 1 the span log is written to
.bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cat_native", "cat_gzip", "cat_oneblock", "range_http")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)

    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        # The library's sources live outside perfbench/; without them the
        # configure step fails here, before any result is printed.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
