#!/usr/bin/env python3
"""Validate flight-recorder bundles written by obs/health/flight.cpp.

Usage: validate_flight.py <dir> [options]

<dir> is either one bundle (contains manifest.json) or a flight directory
holding flight-<seq>-<reason>/ bundles, in which case every bundle is
validated and at least one must exist.

Per bundle:
  * manifest.json parses, schema == 1, has reason / seq / ts_us, carries
    provenance (a non-empty git_rev string and an integer bench_schema),
    and its `files` array lists only files that exist in the bundle and
    are non-empty;
  * profile.folded (when present) is a valid collapsed-stack file: every
    line is "frame[;frame...] <positive integer>";
  * metrics.json parses and carries counters/gauges/histograms objects;
  * trace.json (when present) passes the full validate_trace.py check;
    at least ONE bundle must carry --min-flow-links flow arrows (early
    bundles, dumped mid-run, may legitimately hold flows with no links
    yet);
  * health_events.jsonl (when present) parses line by line, every event
    carries seq/ts_us/severity/code/subsystem/message, severities are
    info/warn/critical, and seqs are strictly increasing;
  * each --require-code CODE appears on at least one health event in at
    least one bundle (e.g. serve.slo_breach for the broker-stall drill).

Exits non-zero with per-check errors when anything is off.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from validate_trace import check_trace  # noqa: E402

SEVERITIES = {"info", "warn", "critical"}
EVENT_KEYS = {"seq", "ts_us", "severity", "code", "subsystem", "message"}


def check_health_events(path):
    errors = []
    codes = set()
    prev_seq = -1
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            errors.append(f"{path}:{lineno}: blank line in JSONL")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{path}:{lineno}: does not parse: {e}")
            continue
        missing = EVENT_KEYS - event.keys()
        if missing:
            errors.append(
                f"{path}:{lineno}: missing keys {sorted(missing)}")
            continue
        if event["severity"] not in SEVERITIES:
            errors.append(
                f"{path}:{lineno}: unknown severity {event['severity']!r}")
        seq = event["seq"]
        if not isinstance(seq, int) or seq <= prev_seq:
            errors.append(
                f"{path}:{lineno}: seq {seq!r} not strictly increasing "
                f"(previous {prev_seq})")
        else:
            prev_seq = seq
        codes.add(event["code"])
    return errors, codes


def check_collapsed(path):
    """Collapsed-stack format: 'frame[;frame...] <count>' per line."""
    errors = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack:
            errors.append(f"{path}:{lineno}: not 'stack count': {line!r}")
            continue
        if not count.isdigit() or int(count) <= 0:
            errors.append(
                f"{path}:{lineno}: count {count!r} is not a positive int")
        if any(not frame for frame in stack.split(";")):
            errors.append(f"{path}:{lineno}: empty frame in {stack!r}")
    return errors


def check_bundle(bundle, min_flow_links):
    """Returns (errors, health-event codes, whether the bundle's trace met
    the flow-link floor)."""
    errors = []
    codes = set()
    flow_ok = min_flow_links == 0
    manifest_path = bundle / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{manifest_path}: does not parse: {e}"], codes, flow_ok

    if manifest.get("schema") != 1:
        errors.append(f"{manifest_path}: schema is {manifest.get('schema')!r},"
                      " expected 1")
    for key in ("reason", "seq", "ts_us", "git_rev", "bench_schema"):
        if key not in manifest:
            errors.append(f"{manifest_path}: missing {key!r}")
    git_rev = manifest.get("git_rev")
    if "git_rev" in manifest and (
            not isinstance(git_rev, str) or not git_rev):
        errors.append(f"{manifest_path}: git_rev {git_rev!r} is not a "
                      "non-empty string")
    bench_schema = manifest.get("bench_schema")
    if "bench_schema" in manifest and not isinstance(bench_schema, int):
        errors.append(f"{manifest_path}: bench_schema {bench_schema!r} is "
                      "not an integer")
    files = manifest.get("files")
    if not isinstance(files, list) or not files:
        errors.append(f"{manifest_path}: files is not a non-empty array")
        files = []
    for name in files:
        member = bundle / name
        if not member.is_file():
            errors.append(f"{bundle}: manifest lists missing file {name!r}")
        elif member.stat().st_size == 0 and name != "health_events.jsonl":
            # An empty event log is a healthy run; everything else empty
            # means the dump was cut short.
            errors.append(f"{member}: empty")

    metrics = bundle / "metrics.json"
    if metrics.is_file():
        try:
            doc = json.loads(metrics.read_text())
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(doc.get(section), dict):
                    errors.append(f"{metrics}: no {section!r} object")
        except json.JSONDecodeError as e:
            errors.append(f"{metrics}: does not parse: {e}")
    else:
        errors.append(f"{bundle}: no metrics.json")

    trace = bundle / "trace.json"
    if trace.is_file():
        trace_errors = check_trace(trace, min_events=0, require_cats=[],
                                   min_flow_links=min_flow_links)
        # The flow-link floor is a per-RUN requirement (any bundle may
        # satisfy it); every other trace error is fatal per bundle.
        flow_ok = not any("flow link(s)" in e for e in trace_errors)
        errors.extend(e for e in trace_errors if "flow link(s)" not in e)

    folded = bundle / "profile.folded"
    if folded.is_file():
        errors.extend(check_collapsed(folded))

    jsonl = bundle / "health_events.jsonl"
    if jsonl.is_file():
        jsonl_errors, codes = check_health_events(jsonl)
        errors.extend(jsonl_errors)
    return errors, codes, flow_ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate flight-recorder bundles")
    parser.add_argument("dir", type=Path,
                        help="a bundle, or a directory of flight-* bundles")
    parser.add_argument("--min-flow-links", type=int, default=0,
                        help="flow arrows required in each bundle's "
                             "trace.json (default 0)")
    parser.add_argument("--require-code", action="append", default=[],
                        help="health-event code that must appear in at "
                             "least one bundle (repeatable)")
    args = parser.parse_args(argv)

    if (args.dir / "manifest.json").is_file():
        bundles = [args.dir]
    else:
        bundles = sorted(p for p in args.dir.glob("flight-*")
                         if (p / "manifest.json").is_file())
    if not bundles:
        print(f"FAIL: no flight bundles under {args.dir}", file=sys.stderr)
        return 1

    errors = []
    all_codes = set()
    any_flow_ok = False
    for bundle in bundles:
        bundle_errors, codes, flow_ok = check_bundle(bundle,
                                                     args.min_flow_links)
        errors.extend(bundle_errors)
        all_codes |= codes
        any_flow_ok = any_flow_ok or flow_ok
    if args.min_flow_links > 0 and not any_flow_ok:
        errors.append(f"{args.dir}: no bundle's trace.json carries >= "
                      f"{args.min_flow_links} flow link(s)")
    for code in args.require_code:
        if code not in all_codes:
            errors.append(f"{args.dir}: no bundle carries health event "
                          f"code {code!r} (saw {sorted(all_codes)})")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print(f"OK: {len(bundles)} bundle(s) valid "
          f"({sum(1 for _ in all_codes)} distinct health codes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
