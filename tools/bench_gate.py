#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_<name>.json telemetry.

Compares a freshly emitted bench report against a checked-in baseline
(bench/baselines/) and fails when a shared case regresses:

  * throughput (ops_per_sec) below (1 - tolerance) x baseline, for cases
    the baseline marks gated (see below);
  * allocations above the baseline for cases whose baseline allocation
    count is zero — the zero-allocation steady-state contract is
    machine-independent, so it is enforced exactly, with no tolerance;
  * a gated baseline case missing from the current report (a silently
    dropped bench would otherwise "pass" forever);
  * a malformed histogram entry in either report — cases may carry a
    "histograms" object (bench_obs attaches its scrape distributions) and
    every histogram must have strictly ascending bounds, len(bounds) + 1
    bucket counts and a total equal to the bucket sum.

Case pairs named `<label>_off` / `<label>_on` (the A/B shape bench_obs
emits for observability overhead) additionally get their relative
overhead printed for current and baseline, so a creeping feature cost
stays visible even while both arms hold their individual floors.

Cases present in the current report but absent from the baseline cannot
gate (there is nothing to compare against); they are always listed in the
output so a case rename or an un-baselined bench is visible, and with
--strict they fail the gate — the nightly job runs strict so every
emitted case is forced to carry a baseline entry.

Which cases gate throughput is controlled by the baseline file itself: a
case gates iff it carries timing (ops > 0 and wall_ms > 0). Correctness
cases (pass = 1, no timing) only gate on presence.

Absolute throughput differs across machines, so the default tolerance is
deliberately loose (35%) — the gate exists to catch step-change
regressions (an accidental O(n^2), a reintroduced per-round allocation),
not 5% noise; the nightly trend over artifact history covers the fine
grain. Override with --tolerance or ITRIM_BENCH_GATE_TOLERANCE.

Individual cases can gate tighter (or looser) than the run-wide default:
a baseline case carrying a "gate_tolerance" key (fraction in [0, 1)) uses
that value instead. The bench binaries never emit this key — it is added
by hand to the checked-in baseline for cases whose workload is stable
enough to hold a different line (e.g. a regression-bench case gates at
60%), and must be re-added when the baseline is refreshed.

Baseline update procedure (see README "Benchmarking & perf telemetry"):
rerun the bench on the reference machine, eyeball the diff, and copy the
fresh BENCH_<name>.json over bench/baselines/ in the same PR that changes
the performance.

Uses only the Python standard library.
"""

import argparse
import json
import os
import sys


def load(path):
    """Loads one BENCH_<name>.json, exiting with a one-line diagnostic on
    any malformed input (missing file, invalid JSON, wrong shape) instead
    of a traceback — this runs in CI where the traceback buries the cause.
    """
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as err:
        sys.exit(f"{path}: cannot read bench report: {err.strerror or err}")
    except json.JSONDecodeError as err:
        sys.exit(f"{path}: not valid JSON ({err.msg} at line {err.lineno}) "
                 "— was the bench binary interrupted mid-write?")
    if not isinstance(report, dict):
        sys.exit(f"{path}: expected a JSON object at top level, got "
                 f"{type(report).__name__}")
    if report.get("schema_version") != 1:
        sys.exit(f"{path}: unsupported schema_version "
                 f"{report.get('schema_version')!r}")
    if not isinstance(report.get("cases", []), list):
        sys.exit(f"{path}: 'cases' must be a list, got "
                 f"{type(report.get('cases')).__name__}")
    for case in report.get("cases", []):
        if not isinstance(case, dict) or not case.get("name"):
            sys.exit(f"{path}: malformed case entry {case!r} — every case "
                     "needs a 'name'")
        validate_histograms(path, case)
    return report


def validate_histograms(path, case):
    """Structural check of histogram-valued entries (emitted by benches
    that attach obs distributions, e.g. bench_obs): ascending bounds, one
    overflow bucket (len(counts) == len(bounds) + 1), and a total that
    matches the per-bucket sum. A malformed histogram means the emitting
    side is broken, so it fails the load rather than a single gate."""
    histograms = case.get("histograms", {})
    if not isinstance(histograms, dict):
        sys.exit(f"{path}: case {case['name']!r}: 'histograms' must be an "
                 f"object, got {type(histograms).__name__}")
    for hist_name, hist in histograms.items():
        where = f"{path}: case {case['name']!r} histogram {hist_name!r}"
        if not isinstance(hist, dict):
            sys.exit(f"{where}: expected an object")
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not all(
                isinstance(b, (int, float)) and not isinstance(b, bool)
                for b in bounds):
            sys.exit(f"{where}: 'bounds' must be a list of numbers")
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            sys.exit(f"{where}: bounds must be strictly ascending, got "
                     f"{bounds}")
        if not isinstance(counts, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) and c >= 0
                for c in counts):
            sys.exit(f"{where}: 'counts' must be a list of non-negative "
                     "integers")
        if len(counts) != len(bounds) + 1:
            sys.exit(f"{where}: expected {len(bounds) + 1} buckets "
                     f"(bounds + overflow), got {len(counts)}")
        total = hist.get("count")
        if not isinstance(total, int) or total != sum(counts):
            sys.exit(f"{where}: 'count' {total!r} does not equal the "
                     f"bucket sum {sum(counts)}")
        if not isinstance(hist.get("sum"), (int, float)):
            sys.exit(f"{where}: 'sum' must be a number")


def cases_by_name(report):
    return {case["name"]: case for case in report.get("cases", [])}


def gates_throughput(case):
    return case.get("ops", 0) > 0 and case.get("wall_ms", 0) > 0


def case_tolerance(base_case, name, default):
    """Per-case override: a hand-added "gate_tolerance" key in the
    baseline case wins over the run-wide default."""
    tolerance = base_case.get("gate_tolerance", default)
    if not isinstance(tolerance, (int, float)) or isinstance(tolerance, bool) \
            or not 0.0 <= tolerance < 1.0:
        sys.exit(f"case {name!r}: gate_tolerance must be a fraction in "
                 f"[0, 1), got {tolerance!r}")
    return float(tolerance)


def overhead_pairs(cases):
    """Yields (label, off_case, on_case) for every `<label>_off` /
    `<label>_on` case pair — the shape benches that A/B a feature's cost
    emit (bench_obs: overhead/ingest_off vs overhead/ingest_on)."""
    for name in sorted(cases):
        if not name.endswith("_off"):
            continue
        on_name = name[:-len("_off")] + "_on"
        if on_name in cases:
            yield name[:-len("_off")], cases[name], cases[on_name]


def report_overhead_deltas(base_cases, cur_cases):
    """Prints the enabled-vs-disabled overhead of each A/B case pair in
    the current report next to the baseline's, so a creeping feature cost
    is visible in the gate log even while both arms individually stay
    above their throughput floors."""
    for label, off, on in overhead_pairs(cur_cases):
        if not (gates_throughput(off) and gates_throughput(on)):
            continue
        cur_pct = (on["wall_ms"] - off["wall_ms"]) / off["wall_ms"] * 100.0
        line = f"{label}_on vs _off: {cur_pct:+.2f}% overhead"
        base_off = base_cases.get(f"{label}_off")
        base_on = base_cases.get(f"{label}_on")
        if base_off and base_on and gates_throughput(base_off) \
                and gates_throughput(base_on):
            base_pct = (base_on["wall_ms"] - base_off["wall_ms"]) \
                / base_off["wall_ms"] * 100.0
            line += f" (baseline {base_pct:+.2f}%)"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_<name>.json to gate against")
    parser.add_argument("--current", required=True,
                        help="freshly emitted BENCH_<name>.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("ITRIM_BENCH_GATE_TOLERANCE", "0.35")),
        help="allowed fractional throughput regression (default 0.35)")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail when the current report carries cases the baseline does "
             "not (otherwise they are only listed)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline.get("bench") != current.get("bench"):
        sys.exit(f"bench name mismatch: baseline {baseline.get('bench')!r} "
                 f"vs current {current.get('bench')!r}")

    base_cases = cases_by_name(baseline)
    cur_cases = cases_by_name(current)
    failures = []
    checked = 0

    for name, base in sorted(base_cases.items()):
        cur = cur_cases.get(name)
        if cur is None:
            failures.append(f"case {name!r}: present in baseline, missing "
                            "from current report")
            continue
        if gates_throughput(base):
            checked += 1
            tolerance = case_tolerance(base, name, args.tolerance)
            base_rate = base["ops"] / (base["wall_ms"] / 1e3)
            if not gates_throughput(cur):
                failures.append(f"case {name!r}: baseline has timing, "
                                "current does not")
                continue
            cur_rate = cur["ops"] / (cur["wall_ms"] / 1e3)
            floor = base_rate * (1.0 - tolerance)
            verdict = "ok" if cur_rate >= floor else "REGRESSION"
            delta = (cur_rate - base_rate) / base_rate
            print(f"{name}: {cur_rate:,.0f} ops/s vs baseline "
                  f"{base_rate:,.0f} ({delta:+.1%}; floor {floor:,.0f}, "
                  f"tolerance {tolerance:.0%}) -> {verdict}")
            if cur_rate < floor:
                failures.append(
                    f"case {name!r}: throughput {cur_rate:,.0f} ops/s below "
                    f"floor {floor:,.0f} (baseline {base_rate:,.0f}, "
                    f"tolerance {tolerance:.0%})")
        if base.get("allocations") == 0:
            checked += 1
            cur_allocs = cur.get("allocations")
            if cur_allocs is None or cur_allocs > 0:
                failures.append(
                    f"case {name!r}: baseline is allocation-free, current "
                    f"reports {cur_allocs!r} allocations — the zero-alloc "
                    "steady-state contract broke")
            else:
                print(f"{name}: steady-state allocations 0 -> ok")

    report_overhead_deltas(base_cases, cur_cases)

    unbaselined = sorted(set(cur_cases) - set(base_cases))
    if unbaselined:
        print(f"\n{len(unbaselined)} case(s) have no baseline entry and "
              "were not gated:")
        for name in unbaselined:
            print(f"  ? {name}")
        if args.strict:
            failures.append(
                f"{len(unbaselined)} current case(s) missing from the "
                f"baseline ({', '.join(repr(n) for n in unbaselined)}) — "
                "refresh bench/baselines/ or drop the cases (--strict)")

    if checked == 0:
        failures.append("baseline contains no gateable cases — refusing to "
                        "pass vacuously")
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} problem(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {checked} check(s) against "
          f"{os.path.basename(args.baseline)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
