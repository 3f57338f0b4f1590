#!/usr/bin/env python3
"""Validate Chrome/Perfetto trace_event JSON emitted by obs/trace.cpp.

Usage: validate_trace.py <trace.json> [--min-events N] [--require-cat CAT]...

Checks that the file is what ui.perfetto.dev / chrome://tracing will accept:
  * parses as JSON with a `traceEvents` array;
  * every event has name/ph/pid/tid/ts; `ph` is one of X/i/M/s/t/f;
  * complete ('X') events carry a non-negative integer `dur`;
  * instant ('i') events carry a scope `s`;
  * flow events ('s'/'t'/'f') carry a positive integer `id`, and steps and
    finishes bind to the enclosing slice (`bp` == "e");
  * metadata ('M') events name the process and every tid that appears;
  * timestamps are non-negative integers (microseconds);
  * at least --min-events non-metadata events were recorded;
  * at least --min-flow-links flow arrows exist (consecutive flow events
    sharing an id draw one arrow);
  * each --require-cat category appears on at least one event (so the CI
    smoke test proves the runner, walk and estimator instrumentation all
    actually fired).

Also validates the Prometheus side when --prometheus FILE is given: the
exposition text must carry a `# HELP` AND a `# TYPE` comment for every
metric family (gauges and zero-observation histograms included), metric
names must match [a-zA-Z_:][a-zA-Z0-9_:]*, histogram series must have
non-decreasing cumulative buckets ending in an `+Inf` bucket equal to
`_count`.

Exits non-zero with per-check errors when anything is off.
"""
import argparse
import json
import re
import sys
from pathlib import Path

METRIC_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+NaInf-]+)$")
TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$")
HELP_LINE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$")


def check_trace(path, min_events, require_cats, min_flow_links=0):
    errors = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: does not parse: {e}"]

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: no traceEvents array"]

    seen_tids = set()
    named_tids = set()
    process_named = False
    cats = set()
    payload = 0
    flow_counts = {}
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                errors.append(f"{where}: missing '{key}'")
        ph = e.get("ph")
        if ph not in ("X", "i", "M", "s", "t", "f"):
            errors.append(f"{where}: unexpected phase {ph!r}")
            continue
        if ph == "M":
            if e.get("name") == "process_name":
                process_named = True
            elif e.get("name") == "thread_name":
                named_tids.add(e.get("tid"))
            continue
        payload += 1
        cats.add(e.get("cat", ""))
        seen_tids.add(e.get("tid"))
        ts = e.get("ts")
        if not isinstance(ts, int) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where}: 'X' event with bad dur {dur!r}")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: 'i' event with bad scope "
                          f"{e.get('s')!r}")
        if ph in ("s", "t", "f"):
            flow_id = e.get("id")
            if not isinstance(flow_id, int) or flow_id < 1:
                errors.append(f"{where}: '{ph}' event with bad id "
                              f"{flow_id!r}")
            else:
                flow_counts[flow_id] = flow_counts.get(flow_id, 0) + 1
            if ph in ("t", "f") and e.get("bp") != "e":
                errors.append(f"{where}: '{ph}' event without bp='e' "
                              "(must bind to its enclosing slice)")

    if not process_named:
        errors.append("no process_name metadata event")
    unnamed = seen_tids - named_tids
    if unnamed:
        errors.append(f"tids without thread_name metadata: {sorted(unnamed)}")
    if payload < min_events:
        errors.append(f"only {payload} non-metadata events recorded, "
                      f"expected >= {min_events}")
    # Each consecutive pair of flow events with the same id is one rendered
    # arrow (s->t, t->t, t->f), so a chain of k events contributes k-1 links.
    flow_links = sum(n - 1 for n in flow_counts.values() if n > 1)
    if flow_links < min_flow_links:
        errors.append(f"only {flow_links} flow link(s) across "
                      f"{len(flow_counts)} flow id(s), expected >= "
                      f"{min_flow_links}")
    for cat in require_cats:
        if cat not in cats:
            errors.append(f"required category '{cat}' never recorded "
                          f"(saw: {sorted(c for c in cats if c)})")
    if not errors:
        print(f"ok   {path.name}: {payload} events, "
              f"{len(seen_tids)} thread(s), {flow_links} flow link(s), "
              f"categories {sorted(c for c in cats if c)}")
    return errors


def check_prometheus(path):
    errors = []
    try:
        text = path.read_text()
    except OSError as e:
        return [f"{path}: unreadable: {e}"]

    declared = {}
    helped = set()
    samples = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            m = TYPE_LINE.match(line)
            if m is not None:
                declared[m.group(1)] = m.group(2)
                continue
            m = HELP_LINE.match(line)
            if m is not None:
                helped.add(m.group(1))
                continue
            errors.append(f"{path.name}:{lineno}: bad comment line "
                          f"{line!r}")
            continue
        m = METRIC_LINE.match(line)
        if m is None:
            errors.append(f"{path.name}:{lineno}: bad sample line {line!r}")
            continue
        samples.setdefault(m.group(1), []).append(
            (m.group(2) or "", m.group(3)))

    if not declared:
        errors.append(f"{path.name}: no # TYPE declarations")
    for name, kind in declared.items():
        if name not in helped:
            errors.append(f"{name}: # TYPE without # HELP "
                          f"(every {kind} family needs both)")
        if kind == "histogram":
            buckets = samples.get(name + "_bucket", [])
            counts = [float(v) for _, v in buckets]
            if counts != sorted(counts):
                errors.append(f"{name}: bucket counts not cumulative")
            if not buckets or 'le="+Inf"' not in buckets[-1][0]:
                errors.append(f"{name}: histogram without +Inf bucket")
            count_sample = samples.get(name + "_count")
            if count_sample is None:
                errors.append(f"{name}: histogram without _count")
            elif counts and float(count_sample[0][1]) != counts[-1]:
                errors.append(f"{name}: +Inf bucket {counts[-1]} != _count "
                              f"{count_sample[0][1]}")
        elif name not in samples:
            errors.append(f"{name}: declared but no sample line")
    if not errors:
        print(f"ok   {path.name}: {len(declared)} metrics "
              f"({sum(len(v) for v in samples.values())} samples)")
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate trace_event JSON (and optionally Prometheus "
                    "exposition text)")
    parser.add_argument("trace", type=Path, nargs="?", default=None,
                        help="trace_event JSON file (optional when only "
                             "--prometheus is being validated)")
    parser.add_argument("--min-events", type=int, default=1,
                        help="minimum non-metadata events (default 1)")
    parser.add_argument("--require-cat", action="append", default=[],
                        help="category that must appear on >= 1 event "
                             "(repeatable)")
    parser.add_argument("--min-flow-links", type=int, default=0,
                        help="minimum flow arrows (consecutive same-id flow "
                             "events) the trace must contain (default 0)")
    parser.add_argument("--prometheus", type=Path, default=None,
                        help="Prometheus exposition text file to validate "
                             "as well")
    args = parser.parse_args(argv)
    if args.trace is None and args.prometheus is None:
        parser.error("nothing to validate: give a trace file and/or "
                     "--prometheus FILE")

    errors = []
    if args.trace is not None:
        errors += check_trace(args.trace, args.min_events, args.require_cat,
                              args.min_flow_links)
    if args.prometheus is not None:
        errors += check_prometheus(args.prometheus)
    for e in errors:
        print(f"     - {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
