#!/usr/bin/env python3
"""Paper-shaped end-to-end benchmark of the itrim engine.

Usage (from the repository root):

    python3 paperbench/run.py --workload steady-mix --seed 1 \
        --seconds 10 --trace 0

Builds the library and the benchmark program from source into
.bench_build/paperbench (incremental after the first build), runs the
self-test of the percentile helper, then runs the program with the same
arguments. Its last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to stderr.
Exits non-zero when the source tree is missing, the build or self-test
fails, or the program reports wrong outputs.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")


def fail(message):
    print("paperbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    # Build chatter goes to stderr; stdout carries only the program's report.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("command failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no itrim source tree next to paperbench/ "
                 "(missing %s)" % needed)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", "4", "--target",
               "paperbench", "paperbench_selftest"])
    run_quiet([os.path.join(BUILD, "paperbench_selftest")])


def main():
    build()
    bench = subprocess.run([os.path.join(BUILD, "paperbench")] + sys.argv[1:],
                           cwd=ROOT)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
