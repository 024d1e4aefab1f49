#!/usr/bin/env python3
"""Renders an obs_trace JSON dump as per-tenant round timelines.

src/obs/export.cc's TracesJson() serializes the merged TraceBuffer
snapshot (IngestService::TraceSnapshot() or examples/obs_quickstart) as

  { "schema_version": 1, "kind": "obs_trace", "dropped": N,
    "events": [ {"seq": N, "ts_ns": N, "kind": "round_start",
                 "tenant": N, "value": X}, ... ] }

This tool groups the events by tenant and folds round_start/round_end
pairs into one timeline row per round, annotated with the decisions that
happened inside it (trim_decision, reference_refit) and the lifecycle
events between rounds (hibernate, rehydrate, backpressure_block). It
doubles as the trace-schema regression fixture: CI runs `--selftest`,
which renders an embedded dump and compares against the expected
timeline, so a schema change in the C++ exporter that would break
consumers fails the build instead of their dashboards.

Usage:
  trace_dump.py TRACES.json            # all tenants
  trace_dump.py --tenant 3 TRACES.json # one tenant
  trace_dump.py --selftest

Timestamps are printed relative to the first event (ms). Uses only the
Python standard library. Exit 1 on malformed input.
"""

import argparse
import io
import json
import sys

ROUND_BOUNDS = {"round_start", "round_end"}
IN_ROUND = {"trim_decision", "reference_refit"}
LIFECYCLE = {"hibernate", "rehydrate", "backpressure_block"}
KNOWN_KINDS = ROUND_BOUNDS | IN_ROUND | LIFECYCLE


def load_trace(text, origin="<input>"):
    try:
        dump = json.loads(text)
    except json.JSONDecodeError as err:
        sys.exit(f"{origin}: not valid JSON ({err.msg} at line "
                 f"{err.lineno})")
    if not isinstance(dump, dict) or dump.get("kind") != "obs_trace":
        sys.exit(f"{origin}: not an obs_trace dump (kind = "
                 f"{dump.get('kind')!r} )" if isinstance(dump, dict)
                 else f"{origin}: expected a JSON object")
    if dump.get("schema_version") != 1:
        sys.exit(f"{origin}: unsupported schema_version "
                 f"{dump.get('schema_version')!r}")
    events = dump.get("events")
    if not isinstance(events, list):
        sys.exit(f"{origin}: 'events' must be a list")
    for ev in events:
        if not isinstance(ev, dict) or not {"seq", "ts_ns", "kind",
                                            "tenant", "value"} <= set(ev):
            sys.exit(f"{origin}: malformed event {ev!r}")
        if ev["kind"] not in KNOWN_KINDS:
            sys.exit(f"{origin}: unknown event kind {ev['kind']!r} — "
                     "trace_dump.py and src/obs/trace.h are out of sync")
    return dump


def render(dump, tenant_filter=None, out=sys.stdout):
    events = sorted(dump["events"], key=lambda ev: (ev["ts_ns"], ev["seq"]))
    t0 = events[0]["ts_ns"] if events else 0
    by_tenant = {}
    for ev in events:
        if tenant_filter is not None and ev["tenant"] != tenant_filter:
            continue
        by_tenant.setdefault(ev["tenant"], []).append(ev)

    dropped = dump.get("dropped", 0)
    print(f"{sum(len(v) for v in by_tenant.values())} events, "
          f"{len(by_tenant)} tenant(s), {dropped} dropped"
          + (" (timeline may have gaps)" if dropped else ""), file=out)

    for tenant in sorted(by_tenant):
        print(f"\ntenant {tenant}:", file=out)
        open_round = None   # (round_number, start_ts, annotations)
        for ev in by_tenant[tenant]:
            ms = (ev["ts_ns"] - t0) / 1e6
            kind, value = ev["kind"], ev["value"]
            if kind == "round_start":
                if open_round is not None:
                    print(f"  [{open_round[1]:10.3f} ms] round "
                          f"{open_round[0]:.0f} (no round_end recorded)",
                          file=out)
                open_round = (value, ms, [])
            elif kind == "round_end":
                if open_round is None:
                    print(f"  [{ms:10.3f} ms] round_end quality="
                          f"{value:.4f} (no round_start recorded)",
                          file=out)
                    continue
                number, start_ms, notes = open_round
                annotation = (" " + ", ".join(notes)) if notes else ""
                print(f"  [{start_ms:10.3f} ms] round {number:.0f} "
                      f"({ms - start_ms:.3f} ms) quality={value:.4f}"
                      f"{annotation}", file=out)
                open_round = None
            elif kind in IN_ROUND:
                note = (f"trimmed={value:.0f}" if kind == "trim_decision"
                        else f"refit_iters={value:.0f}")
                if open_round is not None:
                    open_round[2].append(note)
                else:
                    print(f"  [{ms:10.3f} ms] {kind} {note}", file=out)
            else:  # lifecycle
                detail = {"hibernate": "parked_rounds",
                          "rehydrate": "restored_rounds",
                          "backpressure_block": "queue_capacity"}[kind]
                print(f"  [{ms:10.3f} ms] {kind} {detail}={value:.0f}",
                      file=out)
        if open_round is not None:
            print(f"  [{open_round[1]:10.3f} ms] round "
                  f"{open_round[0]:.0f} (no round_end recorded)", file=out)


SELFTEST_DUMP = """\
{
  "schema_version": 1,
  "kind": "obs_trace",
  "dropped": 0,
  "events": [
    {"seq": 0, "ts_ns": 1000000, "kind": "round_start", "tenant": 0,
     "value": 1},
    {"seq": 1, "ts_ns": 1500000, "kind": "trim_decision", "tenant": 0,
     "value": 4},
    {"seq": 2, "ts_ns": 2000000, "kind": "round_end", "tenant": 0,
     "value": 0.9375},
    {"seq": 3, "ts_ns": 2200000, "kind": "hibernate", "tenant": 0,
     "value": 1},
    {"seq": 4, "ts_ns": 2500000, "kind": "round_start", "tenant": 1,
     "value": 1},
    {"seq": 5, "ts_ns": 2600000, "kind": "reference_refit", "tenant": 1,
     "value": 3},
    {"seq": 6, "ts_ns": 2700000, "kind": "trim_decision", "tenant": 1,
     "value": 2},
    {"seq": 7, "ts_ns": 3000000, "kind": "round_end", "tenant": 1,
     "value": 0.5},
    {"seq": 8, "ts_ns": 3500000, "kind": "rehydrate", "tenant": 0,
     "value": 1}
  ]
}
"""

SELFTEST_EXPECTED = """\
9 events, 2 tenant(s), 0 dropped

tenant 0:
  [     0.000 ms] round 1 (1.000 ms) quality=0.9375 trimmed=4
  [     1.200 ms] hibernate parked_rounds=1
  [     2.500 ms] rehydrate restored_rounds=1

tenant 1:
  [     1.500 ms] round 1 (0.500 ms) quality=0.5000 refit_iters=3, trimmed=2
"""


def selftest():
    dump = load_trace(SELFTEST_DUMP, "selftest")
    buffer = io.StringIO()
    render(dump, out=buffer)
    got = buffer.getvalue()
    if got != SELFTEST_EXPECTED:
        print("SELFTEST FAIL: rendered timeline diverged from the "
              "expected fixture.\n--- expected ---\n" + SELFTEST_EXPECTED +
              "--- got ---\n" + got, file=sys.stderr)
        return 1
    print("trace_dump selftest ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", nargs="?", help="obs_trace JSON dump")
    parser.add_argument("--tenant", type=int, default=None,
                        help="only this tenant's timeline")
    parser.add_argument("--selftest", action="store_true",
                        help="render the embedded fixture and compare")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.file:
        parser.error("no input file (or use --selftest)")
    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as err:
        sys.exit(f"{args.file}: cannot read: {err.strerror or err}")
    render(load_trace(text, args.file), tenant_filter=args.tenant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
