#!/usr/bin/env python3
"""Flag bench metrics that moved by more than their noise band.

    bench/compare_bench.py NEW.json

Compares every numeric and boolean field of a run_benches.sh output
against the newest BENCH_<n>.json at the repo root other than NEW
itself. Rows inside lists are matched by their identifying fields (mode,
kind, policy, threads, shards, multiplier, fail_rate), so a reordered or
extended table still lines up. A number is flagged when it moved by more
than BAND relative to the baseline; a boolean is flagged when it
flipped. The report is informational: the exit code is 0 whatever moved
(it is non-zero only when an input cannot be read).
"""
import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_KEYS = ("mode", "kind", "policy", "threads", "shards", "multiplier",
            "fail_rate")
# Inputs that describe the run rather than measure it.
SKIP = {"pr", "smoke"}
# One relative noise band for every metric, until repeated runs give
# each metric its own.
BAND = 0.25


def newest_bench(exclude):
    numbered = []
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        if os.path.abspath(path) == os.path.abspath(exclude):
            continue
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


def row_label(index, row):
    parts = ["%s=%s" % (key, row[key]) for key in ROW_KEYS if key in row]
    return "[" + (",".join(parts) if parts else str(index)) + "]"


def flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, item in value.items():
            if key in SKIP and not prefix:
                continue
            flatten(item, prefix + "." + key if prefix else key, out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            label = row_label(index, item) if isinstance(item, dict) else \
                "[%d]" % index
            flatten(item, prefix + label, out)
    elif isinstance(value, (bool, int, float)):
        out[prefix] = value


def compare(new, base):
    flagged = []
    for key in sorted(set(new) & set(base)):
        now, then = new[key], base[key]
        if isinstance(now, bool) or isinstance(then, bool):
            if now != then:
                flagged.append((key, then, now, "flipped"))
            continue
        if then == 0:
            if now != 0:
                flagged.append((key, then, now, "was 0"))
            continue
        moved = (now - then) / abs(then)
        if abs(moved) > BAND:
            flagged.append((key, then, now, "%+.1f%%" % (100.0 * moved)))
    return flagged


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    new_path = sys.argv[1]
    base_path = newest_bench(new_path)
    if base_path is None:
        print("compare: no BENCH_<n>.json baseline to compare against")
        return 0
    try:
        with open(new_path) as handle:
            new_doc = json.load(handle)
        with open(base_path) as handle:
            base_doc = json.load(handle)
    except (OSError, ValueError) as error:
        print("compare: %s" % error, file=sys.stderr)
        return 1
    new, base = {}, {}
    flatten(new_doc, "", new)
    flatten(base_doc, "", base)
    flagged = compare(new, base)
    print("compare: %s vs %s (band %.0f%%, %d shared metrics)" %
          (os.path.basename(new_path), os.path.basename(base_path),
           100.0 * BAND, len(set(new) & set(base))))
    if new_doc.get("smoke") != base_doc.get("smoke"):
        print("compare: one side is a smoke run; its numbers are not "
              "comparable to a full run's")
    for key, then, now, moved in flagged:
        print("  MOVED %-60s %s -> %s (%s)" % (key, then, now, moved))
    print("compare: %d metric(s) moved beyond the band" % len(flagged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
