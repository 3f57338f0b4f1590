#!/usr/bin/env python3
"""Validate BENCH_*.json telemetry artifacts emitted by the bench binaries.

Usage: validate_bench_json.py <telemetry-dir> [expected-count]
           [--baseline FILE] [--counters REGEX] [--tolerance FRACTION]

Checks every BENCH_*.json in the directory:
  * parses as JSON (the writer is home-grown, so this is a real check);
  * carries the schema version and the required top-level sections;
  * meta records n/seed/threads/fast/git_rev;
  * every series point is a finite [x, y] pair;
  * every batch stats object has the runtime counter fields;
  * every histogram summary is internally consistent (count vs buckets,
    percentile ordering p50 <= p90 <= p99 within [min, max]).

Baseline diff mode (--baseline): additionally compares the `values`
counters of the artifact with the same bench name as the baseline file
against the baseline's values, with a per-counter relative tolerance.
Throughput counters (names ending in `per_second` or containing
`speedup`) are higher-is-better: they fail only when the current value
drops more than `--tolerance` below baseline. Latency counters (names
containing `latency`, e.g. the serve layer's request-latency percentiles)
are lower-is-better: they fail only when the current value rises more
than the tolerance above baseline. All other matched counters fail when
they deviate from baseline by more than the tolerance in either
direction. Counters matched by --counters that the CURRENT artifact adds
but the baseline lacks are printed as informational `new` lines and never
fail the diff, so a bench can grow instrumentation without forcing a
baseline refresh. The CI perf-smoke job runs this against the committed
bench/baselines/BENCH_micro.json with --counters over BM_RandomTour*
items_per_second, so a >25% regression of the walk hot path fails CI.

Exits non-zero, printing per-file errors, when anything is off.
"""
import argparse
import json
import math
import re
import sys
from pathlib import Path

REQUIRED_TOP = [
    "schema",
    "bench",
    "description",
    "meta",
    "paper_notes",
    "series",
    "batches",
    "histograms",
    "walk_stats",
    "values",
]
REQUIRED_META = ["n", "seed", "threads", "fast", "git_rev"]
REQUIRED_BATCH = [
    "tasks",
    "steps",
    "wall_s",
    "cpu_s",
    "steps_per_s",
    "parallel_efficiency",
    "threads",
]
REQUIRED_HIST = ["count", "sum", "mean", "min", "max", "p50", "p90", "p99",
                 "buckets"]


def check_histogram(h, where, errors):
    for key in REQUIRED_HIST:
        if key not in h:
            errors.append(f"{where}: histogram missing '{key}'")
            return
    bucket_total = sum(count for _, count in h["buckets"])
    if bucket_total != h["count"]:
        errors.append(
            f"{where}: bucket counts sum to {bucket_total}, count says "
            f"{h['count']}")
    if h["count"] == 0:
        return  # empty histograms have null min/max and null percentiles
    if not (h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]):
        errors.append(
            f"{where}: percentiles not ordered within [min, max]: "
            f"min={h['min']} p50={h['p50']} p90={h['p90']} p99={h['p99']} "
            f"max={h['max']}")


def check_file(path):
    errors = []
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        return [f"does not parse: {e}"]

    for key in REQUIRED_TOP:
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")
    if errors:
        return errors

    if doc["schema"] != 1:
        errors.append(f"unexpected schema version {doc['schema']}")
    if not doc["bench"]:
        errors.append("empty bench name")
    for key in REQUIRED_META:
        if key not in doc["meta"]:
            errors.append(f"meta missing '{key}'")

    for series in doc["series"]:
        name = series.get("name", "<unnamed>")
        for point in series.get("points", []):
            if (len(point) != 2
                    or any(p is None or not math.isfinite(p) for p in point)):
                errors.append(f"series '{name}': bad point {point}")
                break

    for batch in doc["batches"]:
        label = batch.get("label", "<unlabelled>")
        stats = batch.get("stats", {})
        for key in REQUIRED_BATCH:
            if key not in stats:
                errors.append(f"batch '{label}': stats missing '{key}'")

    for hist in doc["histograms"]:
        label = hist.get("label", "<unlabelled>")
        check_histogram(hist.get("summary", {}), f"histogram '{label}'",
                        errors)

    for walk in doc["walk_stats"]:
        label = walk.get("label", "<unlabelled>")
        stats = walk.get("stats", {})
        for key in ("walks", "visits", "tour_steps", "sample_hops"):
            if key not in stats:
                errors.append(f"walk_stats '{label}': missing '{key}'")
        for hist_key in ("tour_steps", "sample_hops", "collision_gaps"):
            if hist_key in stats:
                check_histogram(stats[hist_key],
                                f"walk_stats '{label}'.{hist_key}", errors)

    # Every artifact must carry machine-readable runtime counters and at
    # least one cost distribution — that is the point of the telemetry.
    if not doc["batches"]:
        errors.append("no batches recorded")
    if not doc["histograms"] and not doc["walk_stats"]:
        errors.append("no histograms or walk_stats recorded")
    if doc["bench"] == "soak":
        check_soak(doc, errors)
    return errors


SOAK_REQUIRED_VALUES = [
    "soak.requests",
    "soak.ok",
    "soak.rejected_rate",
    "soak.shed_rate",
    "soak.jain_fairness",
    "soak.throughput_rps",
    "cost.steps",
    "cost.unattributed_steps",
]
SOAK_CLASSES = ["gold", "silver", "bronze"]
SOAK_CLASS_VALUES = ["hit_rate", "latency_p50_us", "latency_p90_us",
                     "latency_p99_us"]


def check_soak(doc, errors):
    """Schema for the multi-tenant soak artifact (bench name 'soak'):
    the headline counters CI gates on must exist and the bounded ones
    must actually be in [0, 1]."""
    values = doc.get("values", {})
    required = list(SOAK_REQUIRED_VALUES)
    for cls in SOAK_CLASSES:
        required.extend(f"soak.class.{cls}.{v}" for v in SOAK_CLASS_VALUES)
    for key in required:
        if key not in values:
            errors.append(f"soak: missing required value '{key}'")
    for key, value in values.items():
        bounded = (key == "soak.jain_fairness" or key.endswith(".hit_rate")
                   or key.endswith("_rate"))
        if bounded and key in values and not (0.0 <= value <= 1.0):
            errors.append(f"soak: '{key}' = {value} outside [0, 1]")


def higher_is_better(counter):
    # Jain fairness, SLO hit rates and served throughput join the
    # classic throughput counters: only a DROP is a regression.
    return (counter.endswith("per_second") or "speedup" in counter
            or "jain" in counter or counter.endswith("hit_rate")
            or counter.endswith("throughput_rps"))


def lower_is_better(counter):
    return "latency" in counter


def diff_against_baseline(files, baseline_path, counter_re, tolerance):
    """Compares matched `values` counters against the committed baseline.

    Returns a list of error strings (empty = within tolerance)."""
    errors = []
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"baseline {baseline_path}: unreadable: {e}"]

    current_path = next(
        (p for p in files if p.name == baseline_path.name), None)
    if current_path is None:
        return [f"baseline diff: no current artifact named "
                f"{baseline_path.name} to compare"]
    current = json.loads(current_path.read_text())

    base_values = baseline.get("values", {})
    cur_values = current.get("values", {})
    matched = sorted(k for k in base_values if counter_re.search(k))
    if not matched:
        return [f"baseline diff: no baseline counters match "
                f"'{counter_re.pattern}'"]

    for key in matched:
        base = base_values[key]
        if key not in cur_values:
            errors.append(f"baseline diff: counter '{key}' missing from "
                          f"current {current_path.name}")
            continue
        cur = cur_values[key]
        if not (math.isfinite(base) and math.isfinite(cur)):
            errors.append(f"baseline diff: '{key}' not comparable "
                          f"(baseline={base}, current={cur})")
            continue
        if base == 0:
            # A zero baseline carries meaning of its own (e.g. a tenant
            # whose queries all hit the cache, or the zero-residue
            # unattributed-steps pin): staying zero is fine, waking up is
            # exactly the drift the diff exists to surface.
            marker = "ok  " if cur == 0 else "FAIL"
            print(f"{marker} {key}: baseline=0 current={cur:.6g}")
            if cur != 0:
                errors.append(f"baseline diff: '{key}' was 0 at baseline, "
                              f"now {cur:.6g}")
            continue
        rel = (cur - base) / abs(base)
        if higher_is_better(key):
            ok = rel >= -tolerance  # only a drop is a regression
        elif lower_is_better(key):
            ok = rel <= tolerance  # only a rise is a regression
        else:
            ok = abs(rel) <= tolerance
        marker = "ok  " if ok else "FAIL"
        print(f"{marker} {key}: baseline={base:.6g} current={cur:.6g} "
              f"({rel:+.1%})")
        if not ok:
            errors.append(
                f"baseline diff: '{key}' regressed {rel:+.1%} "
                f"(tolerance {tolerance:.0%}): baseline={base:.6g}, "
                f"current={cur:.6g}")

    # Counters that exist only in the CURRENT artifact are reported but
    # never fail the diff: a bench adding instrumentation (new counters)
    # must not force a baseline refresh — the committed baseline is only a
    # floor for the counters it already records.
    new_keys = sorted(k for k in cur_values
                      if counter_re.search(k) and k not in base_values)
    for key in new_keys:
        print(f"new  {key}: current={cur_values[key]:.6g} "
              f"(not in baseline; informational only)")
    return errors


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Validate (and optionally baseline-diff) BENCH_*.json "
                    "telemetry artifacts")
    parser.add_argument("directory", type=Path,
                        help="directory holding the BENCH_*.json artifacts")
    parser.add_argument("expected_count", type=int, nargs="?", default=None,
                        help="minimum number of artifacts expected")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_*.json to diff `values` "
                             "counters against")
    parser.add_argument("--counters",
                        default=r"^bm\.BM_RandomTour.*\.items_per_second$",
                        help="regex selecting which baseline counters to "
                             "diff (default: BM_RandomTour* items/s)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance per counter (default 0.25)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report baseline-diff violations without "
                             "failing (structural validation still fails); "
                             "for drift-watch counters like the per-tenant "
                             "cost.* accounting, where a shift is a signal "
                             "to read, not a regression to block on")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    files = sorted(args.directory.glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json files in {args.directory}")
        return 1
    if args.expected_count is not None and len(files) < args.expected_count:
        print(f"error: expected >= {args.expected_count} artifacts, found "
              f"{len(files)}")
        return 1

    failed = False
    for path in files:
        errors = check_file(path)
        status = "FAIL" if errors else "ok"
        print(f"{status:4} {path.name}")
        for e in errors:
            print(f"     - {e}")
        failed = failed or bool(errors)
    print(f"{len(files)} artifacts checked")

    if args.baseline is not None:
        diff_errors = diff_against_baseline(
            files, args.baseline, re.compile(args.counters), args.tolerance)
        for e in diff_errors:
            print(f"     - {e}")
        if diff_errors and args.warn_only:
            print(f"warn: {len(diff_errors)} baseline-diff violation(s) "
                  f"reported but not fatal (--warn-only)")
        else:
            failed = failed or bool(diff_errors)

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
