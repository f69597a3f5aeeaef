#!/usr/bin/env python3
"""Builds PIGEON's benchmark from this checkout's sources and runs it.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the PIGEON libraries
plus the perfbench_run runner) into $CARGO_TARGET_DIR, default
.bench_build, with all build output on standard error. Later calls only
re-check the build. The runner's standard output is passed through: its
last line is the run's JSON result. The exit code is the runner's (1 when
a correctness check failed), or 2 when the sources are missing or do not
build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no PIGEON sources under %s/src" % ROOT, file=sys.stderr)
        return None
    cmake_dir = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    step = ["cmake", "--build", cmake_dir, "--target", "perfbench_run",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(cmake_dir, "perfbench_run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (not args.workload or args.seconds is None):
        parser.error("--workload with --seconds, or --selftest, is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(out_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    if args.selftest:
        cmd = [binary, "--selftest", "--workdir", work_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
