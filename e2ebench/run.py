#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload solve-l6|solve-l6-tcp|svc-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
e2ebench/ (the program's libraries plus the e2e_bench program, Release) into
.bench_build/e2ebench; later calls only let CMake confirm the build is
current.  Build output goes to stderr, so the last line of stdout is
e2e_bench's JSON result.  Exits non-zero, without a result, if the program
sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: program sources (src/) not found next to e2ebench/\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "e2e_bench")
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    return subprocess.run([binary] + sys.argv[1:] + ["--trace-dir", trace_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
