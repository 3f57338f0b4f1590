#!/usr/bin/env python3
"""Lint metric NAMES in a Prometheus text-exposition scrape.

Usage: lint_metrics.py <scrape.txt> [more.txt ...] [--allow-prefix P ...]

validate_trace.py --prometheus checks the exposition FORMAT (types, label
syntax, cumulative buckets); this linter checks the naming conventions the
repo's dashboards and baseline diffs rely on, so a new counter can't
quietly land as `WalkSteps` or `serve_latency` (unit-less) and fragment
the metric namespace:

  * names are lowercase `[a-z][a-z0-9_]*` — no camelCase, no colons;
  * every family lives under a known subsystem prefix (walk_, serve_,
    cost_, audit_, health_, des_, monitor_ — extend with --allow-prefix
    when a new subsystem is born);
  * counters end in `_total` exactly once (the renderer appends it;
    a doubled `_total_total` means the source name already carried it);
  * gauges and histograms never end in `_total` (that suffix is the
    counter marker);
  * duration-flavoured names (latency/wait/wall/age/ttl) carry an explicit
    time unit (`_us`, `_ms` or `_s`) so no dashboard has to guess;
  * a family is declared by `# TYPE` exactly once per scrape.

Exits non-zero listing every violation; prints a per-file family count on
success so CI logs show the linter actually saw the scrape.
"""
import argparse
import re
import sys
from pathlib import Path

DEFAULT_PREFIXES = [
    "audit", "cost", "des", "health", "monitor", "serve", "walk",
]
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
TIME_WORD_RE = re.compile(r"(latency|wait|wall|age|ttl)")
TIME_UNIT_RE = re.compile(r"_(us|ms|s)$")


def logical_name(family, kind):
    """The source-level name a family was registered under."""
    if kind == "counter" and family.endswith("_total"):
        return family[: -len("_total")]
    return family


def lint_file(path, prefixes):
    errors = []
    families = {}  # name -> type
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.startswith("# TYPE "):
            continue
        parts = line.split()
        if len(parts) != 4:
            errors.append(f"{path.name}:{lineno}: malformed TYPE line: "
                          f"{line!r}")
            continue
        name, kind = parts[2], parts[3]
        if name in families:
            errors.append(f"{path.name}:{lineno}: family '{name}' declared "
                          f"twice")
            continue
        families[name] = kind

        if not NAME_RE.match(name):
            errors.append(f"{path.name}:{lineno}: '{name}' is not lowercase "
                          f"[a-z][a-z0-9_]*")
            continue
        base = logical_name(name, kind)
        prefix = base.split("_", 1)[0]
        if prefix not in prefixes:
            errors.append(
                f"{path.name}:{lineno}: '{name}' is outside every known "
                f"subsystem prefix ({', '.join(sorted(prefixes))}); add "
                f"--allow-prefix {prefix} only if a new subsystem really "
                f"exists")
        if kind == "counter":
            if not name.endswith("_total"):
                errors.append(f"{path.name}:{lineno}: counter '{name}' must "
                              f"end in _total")
            elif name.endswith("_total_total"):
                errors.append(f"{path.name}:{lineno}: counter '{name}' "
                              f"doubles the _total suffix — drop it from "
                              f"the source name")
        elif name.endswith("_total"):
            errors.append(f"{path.name}:{lineno}: {kind} '{name}' ends in "
                          f"_total, the counter marker")
        if TIME_WORD_RE.search(base) and not TIME_UNIT_RE.search(base):
            errors.append(f"{path.name}:{lineno}: '{name}' reads like a "
                          f"duration but carries no _us/_ms/_s unit suffix")
    if not families:
        errors.append(f"{path.name}: no # TYPE families found — not a "
                      f"Prometheus text scrape?")
    return errors, len(families)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Lint metric naming conventions in Prometheus scrapes")
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--allow-prefix", action="append", default=[],
                        help="additional subsystem prefix to accept")
    args = parser.parse_args(argv)

    prefixes = set(DEFAULT_PREFIXES) | set(args.allow_prefix)
    failed = False
    for path in args.files:
        try:
            errors, count = lint_file(path, prefixes)
        except OSError as e:
            errors, count = [f"{path}: unreadable: {e}"], 0
        if errors:
            failed = True
            for e in errors:
                print(f"error: {e}")
        else:
            print(f"ok   {path.name}: {count} families, all names "
                  f"conventional")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
