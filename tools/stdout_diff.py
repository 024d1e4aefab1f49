#!/usr/bin/env python3
"""Diffs the stdout of two builds' examples and deterministic benches.

A change that means to keep behaviour (a deletion pass, a refactor) should
leave every example and every figure/table/ablation bench printing the same
bytes. This runs each program from both build trees and compares:

  * every `example_*` binary, with its default arguments;
  * the deterministic benches (`bench_fig{4,5,7,8,9}_*`,
    `bench_table3_nonequilibrium`, `bench_ablation_{elastic,semantics,
    variants}`, `bench_frequency_poisoning`) with ITRIM_BENCH_REPS=1, once
    at `--jobs 1` and once at `--jobs 3`.

Each run gets its own temporary working directory, so the BENCH_*.json and
obs_* files the programs write never land in either build tree. The only
masked output is obs_quickstart's `exports:` byte-count line, which differs
between two runs of one build. A program whose exit status differs, or that
is missing from one build, counts as a difference.

Usage: stdout_diff.py [--examples-only] PARENT_BUILD CHANGE_BUILD

Uses only the Python standard library. Exit status 0 = no difference,
1 = differences (each program's verdict on stdout, diffs after it),
2 = nothing to compare.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile

BENCH = re.compile(
    r"^bench_(fig[45789]_\w+|table3_nonequilibrium|"
    r"ablation_(elastic|semantics|variants)|frequency_poisoning)$")
EXAMPLE = re.compile(r"^example_\w+$")
BENCH_JOBS = (1, 3)
# Program name -> pattern whose matches are replaced before comparing.
MASKS = {
    "example_obs_quickstart": re.compile(r"^exports: .*$", re.MULTILINE),
}
TIMEOUT_S = 900
MAX_DIFF_LINES = 40


def programs(build, pattern):
    """Executable files in `build` whose names match `pattern`."""
    try:
        names = os.listdir(build)
    except OSError as err:
        sys.exit(f"{build}: cannot list: {err.strerror or err}")
    return {
        n for n in names
        if pattern.match(n) and os.path.isfile(os.path.join(build, n))
        and os.access(os.path.join(build, n), os.X_OK)
    }


def run(binary, args, env):
    """(exit status, masked stdout) of one run in a fresh directory."""
    with tempfile.TemporaryDirectory(prefix="stdout_diff_") as cwd:
        try:
            proc = subprocess.run([os.path.abspath(binary)] + args, cwd=cwd,
                                  env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", ""
    out = proc.stdout.decode("utf-8", errors="replace")
    mask = MASKS.get(os.path.basename(binary))
    if mask is not None:
        out = mask.sub("<masked>", out)
    return proc.returncode, out


def compare(name, args, env, parent, change):
    """Runs `name` from both builds; returns the diff text ('' if same)."""
    a_path, b_path = os.path.join(parent, name), os.path.join(change, name)
    if not os.path.exists(a_path) or not os.path.exists(b_path):
        missing = parent if not os.path.exists(a_path) else change
        return f"missing from {missing}\n"
    a_rc, a_out = run(a_path, args, env)
    b_rc, b_out = run(b_path, args, env)
    report = ""
    if a_rc != b_rc:
        report += f"exit status {a_rc} -> {b_rc}\n"
    if a_out != b_out:
        diff = list(difflib.unified_diff(
            a_out.splitlines(), b_out.splitlines(), "parent", "change",
            lineterm=""))
        report += "\n".join(diff[:MAX_DIFF_LINES]) + "\n"
        if len(diff) > MAX_DIFF_LINES:
            report += f"... {len(diff) - MAX_DIFF_LINES} more diff lines\n"
    return report


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_BUILD")
    parser.add_argument("change", metavar="CHANGE_BUILD")
    parser.add_argument("--examples-only", action="store_true",
                        help="skip the benches")
    args = parser.parse_args()

    cases = []  # (label, binary name, argv, env)
    for name in sorted(programs(args.parent, EXAMPLE) |
                       programs(args.change, EXAMPLE)):
        cases.append((name, name, [], dict(os.environ)))
    benches = set()
    if not args.examples_only:
        benches = programs(args.parent, BENCH) | programs(args.change, BENCH)
        bench_env = dict(os.environ, ITRIM_BENCH_REPS="1")
        for name in sorted(benches):
            for jobs in BENCH_JOBS:
                cases.append((f"{name} --jobs {jobs}", name,
                              ["--jobs", str(jobs)], bench_env))
    if not cases or (not args.examples_only and not benches):
        print("no example or bench binaries found", file=sys.stderr)
        return 2

    reports = []
    for label, name, argv, run_env in cases:
        report = compare(name, argv, run_env, args.parent, args.change)
        print(f"{'DIFF' if report else 'same'}  {label}", flush=True)
        if report:
            reports.append((label, report))
    for label, report in reports:
        print(f"\n=== {label}\n{report}", end="")
    print(f"\n{len(cases) - len(reports)}/{len(cases)} runs print the same "
          "stdout")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
