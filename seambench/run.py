#!/usr/bin/env python3
"""Builds the seam-traced benchmark from source and runs one workload.

    python3 seambench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
seambench/ (which compiles ../src itself) into .bench_build/seambench;
later calls only let the build tool confirm it is up to date. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "seambench")
BINARY = os.path.join(BUILD, "seambench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"seambench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
