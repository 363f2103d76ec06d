#!/usr/bin/env python3
"""Validate a vcfr Chrome trace-event JSON export.

This script owns every check on the trace; `vcfr trace-report` owns the
checks on the latency CSV (request conservation) and reads the journal
for leak forensics. tools/serve_pipeline.cmake runs both on each serve
run.

Checks (each failure is reported and the script exits nonzero):
  1. The file parses as Chrome trace JSON ({"traceEvents": [...]}).
  2. Per lane ("pid"), event timestamps are monotonically non-decreasing
     for every non-metadata event — the exporter merge-sorts by
     (cycle, lane, intra-lane order), so a violation means the export
     (or a lane's clock) is broken.
  3. Request flows are matched: every flow id has exactly one "s"
     (start) and exactly one "f" (end), with start.ts <= end.ts; "t"
     steps are only allowed on ids that have a start.

Leak instants (--taint runs) are validated wherever they appear: every
"leak" event must be an instant on a core lane with a positive depth.
With --journal JOURNAL.JSONL, every journal kind the kernel pairs with a
trace instant (restart, rerand_epoch, leak) is cross-referenced: the
multiset of journal (kind, pid, cycle, arg) must equal the multiset of
trace instants (name, tid, ts, args.v), so an event can't be traced but
not journaled (or vice versa). The comparison is skipped, with a
message, when the trace dropped events or the journal ring evicted
entries (a complete journal opens with pid 0's spawn entry).

Usage: validate_trace.py TRACE.JSON [--journal JOURNAL.JSONL]
"""

import argparse
import json
import sys
from collections import Counter

# Journal kinds the kernel also records as a trace instant of that name.
PAIRED_KINDS = ("restart", "rerand_epoch", "leak")


def fail(errors, msg):
    errors.append(msg)
    if len(errors) <= 20:
        print(f"FAIL: {msg}", file=sys.stderr)


def validate_trace(path, errors):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(errors, f"{path}: not valid JSON: {e}")
            return None, 0
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, f"{path}: no traceEvents array")
        return None, 0

    last_ts = {}  # pid -> last seen ts
    flows = {}  # flow id -> {"s": n, "t": n, "f": n, "s_ts": ts, "f_ts": ts}
    lane_names = {}  # pid -> process_name metadata
    paired = Counter()  # (name, tid, ts, args.v) of PAIRED_KINDS instants
    n_real = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":  # metadata carries no timestamp semantics
            if e.get("name") == "process_name":
                lane_names[e.get("pid")] = e.get("args", {}).get("name", "")
            continue
        n_real += 1
        pid, ts = e.get("pid"), e.get("ts")
        if ts is None:
            fail(errors, f"{path}: event {i} ({ph}) has no ts")
            continue
        if pid in last_ts and ts < last_ts[pid]:
            fail(
                errors,
                f"{path}: lane {pid} ts regressed at event {i}: "
                f"{last_ts[pid]} -> {ts}",
            )
        last_ts[pid] = ts
        if e.get("name") == "leak":
            # A taint-sink firing: instant phase, core lane, sane depth.
            if ph != "i":
                fail(errors, f"{path}: leak event {i} has phase {ph!r} "
                             f"(want instant 'i')")
            depth = e.get("args", {}).get("v")
            if not isinstance(depth, int) or depth < 1:
                fail(errors, f"{path}: leak event {i} has depth {depth!r} "
                             f"(want >= 1)")
            lane = lane_names.get(pid, "")
            if lane and not lane.startswith("core"):
                fail(errors, f"{path}: leak event {i} sits on lane "
                             f"{lane!r} (want a core lane)")
        if ph == "i" and e.get("name") in PAIRED_KINDS:
            paired[(e["name"], e.get("tid"), ts,
                    e.get("args", {}).get("v"))] += 1
        if ph in ("s", "t", "f"):
            fid = e.get("id")
            if fid is None:
                fail(errors, f"{path}: flow event {i} ({ph}) has no id")
                continue
            rec = flows.setdefault(fid, {"s": 0, "t": 0, "f": 0})
            rec[ph] += 1
            if ph == "s":
                rec["s_ts"] = ts
            if ph == "f":
                rec["f_ts"] = ts

    for fid, rec in sorted(flows.items()):
        if rec["s"] != 1:
            fail(errors, f"{path}: flow {fid} has {rec['s']} starts (want 1)")
        if rec["f"] != 1:
            fail(errors, f"{path}: flow {fid} has {rec['f']} ends (want 1)")
        if rec["s"] == 1 and rec["f"] == 1 and rec["s_ts"] > rec["f_ts"]:
            fail(
                errors,
                f"{path}: flow {fid} ends before it starts "
                f"({rec['s_ts']} > {rec['f_ts']})",
            )
        if rec["t"] > 0 and rec["s"] == 0:
            fail(errors, f"{path}: flow {fid} has steps but no start")

    print(
        f"{path}: {n_real} events across {len(last_ts)} lanes, "
        f"{len(flows)} request flows, "
        f"{sum(n for k, n in paired.items() if k[0] == 'leak')} leak instants"
    )
    return paired, doc.get("meta_dropped_events", 0)


def validate_journal(path, trace_paired, trace_dropped, errors):
    """Cross-references the journal's PAIRED_KINDS entries with the trace."""
    paired = Counter()
    first = None
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as e:
                fail(errors, f"{path}: line {n + 1} is not JSON: {e}")
                continue
            if first is None:
                first = entry
            kind = entry.get("kind")
            if kind in PAIRED_KINDS:
                paired[(kind, entry.get("pid"), entry.get("cycle"),
                        entry.get("arg"))] += 1
            if kind != "leak":
                continue
            depth = entry.get("arg")
            if not isinstance(depth, int) or depth < 1:
                fail(errors, f"{path}: leak entry line {n + 1} has depth "
                             f"{depth!r} (want >= 1)")
            detail = entry.get("detail", "")
            if "origin=" not in detail or "sink=" not in detail:
                fail(errors, f"{path}: leak entry line {n + 1} lacks "
                             f"provenance detail: {detail!r}")
    counts = ", ".join(
        f"{sum(n for k, n in paired.items() if k[0] == kind)} {kind}"
        for kind in PAIRED_KINDS)
    journal_complete = first is None or (first.get("kind") == "spawn" and
                                         first.get("pid") == 0)
    if trace_paired is None:
        return
    if trace_dropped or not journal_complete:
        print(f"{path}: {counts}; cross-check skipped: "
              + ("the trace dropped events" if trace_dropped else
                 "the journal ring evicted entries"))
        return
    if paired != trace_paired:
        only_journal = sorted(paired - trace_paired)
        only_trace = sorted(trace_paired - paired)
        fail(errors,
             f"{path}: {len(only_journal)} (kind, pid, cycle, arg) entries "
             f"have no trace instant, {len(only_trace)} trace instants have "
             f"no entry; first: {(only_journal + only_trace)[0]}")
    print(f"{path}: {counts}, trace agrees" if not errors else
          f"{path}: {counts}")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace")
    parser.add_argument("--journal")
    args = parser.parse_args(argv[1:])  # exits 2 on unknown options

    errors = []
    paired, dropped = validate_trace(args.trace, errors)
    if args.journal:
        validate_journal(args.journal, paired, dropped, errors)
    if errors:
        print(f"{len(errors)} validation failures", file=sys.stderr)
        return 1
    print("trace validation: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
