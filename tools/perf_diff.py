#!/usr/bin/env python3
"""Print each perf-trajectory line's metrics against the previous line.

perf/trajectory.jsonl holds one JSON object per perf-relevant change:

  {"label": "...", "commit": "<sha>" | null, "host": {...} | null,
   "workloads": {"<workload>": {"<metric>": <median>, ...}, ...}}

A workload's metrics are perfbench's end-to-end medians (`--trace 0`) and,
from some lines on, the positive per-layer medians of traced runs
(`--trace 1`, e.g. `hw.machine_ms`); a metric missing from either side of a
pair is skipped. `commit` is null for a line recorded before its change was
committed (the line before it is its parent); `host` is null when the host was not
recorded. Other keys, such as a free-text `runs` describing how the medians
were taken, are ignored.

For every line after the first, this prints, per workload and metric
present on both lines, the old and new medians and their ratio new/old
(below 1 is faster or smaller for every perfbench metric). Lines whose
hosts differ or are unknown are flagged, since their ratios compare
different machines.

Usage:
  perf_diff.py [TRAJECTORY]      default: perf/trajectory.jsonl next to tools/

Exit status: 0 on success; 1 with a one-line `FAIL <path>: <reason>` when
the file is unreadable, a line is not a JSON object of the shape above, or a
median is not a positive number.
"""

import json
import math
import os
import sys

DEFAULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "perf", "trajectory.jsonl")


class TrajectoryError(Exception):
    pass


def check_entry(entry, lineno):
    where = f"line {lineno}"
    if not isinstance(entry, dict):
        raise TrajectoryError(f"{where}: not a JSON object")
    for key in ("label", "commit", "host", "workloads"):
        if key not in entry:
            raise TrajectoryError(f"{where}: missing key '{key}'")
    if not isinstance(entry["label"], str) or not entry["label"]:
        raise TrajectoryError(f"{where}: 'label' must be a non-empty string")
    if entry["commit"] is not None and not isinstance(entry["commit"], str):
        raise TrajectoryError(f"{where}: 'commit' must be a string or null")
    if entry["host"] is not None and not isinstance(entry["host"], dict):
        raise TrajectoryError(f"{where}: 'host' must be an object or null")
    workloads = entry["workloads"]
    if not isinstance(workloads, dict) or not workloads:
        raise TrajectoryError(
            f"{where}: 'workloads' must be a non-empty object")
    for name, metrics in workloads.items():
        if not isinstance(metrics, dict) or not metrics:
            raise TrajectoryError(f"{where}: workload '{name}' has no metrics")
        for metric, value in metrics.items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise TrajectoryError(
                    f"{where}: {name}.{metric} must be a positive number")


def load(path):
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as e:
                raise TrajectoryError(f"line {lineno}: not JSON ({e})") from e
            check_entry(entry, lineno)
            entries.append(entry)
    if not entries:
        raise TrajectoryError("no entries")
    return entries


def name_of(entry):
    commit = entry["commit"]
    return f"{entry['label']} ({commit})" if commit else entry["label"]


def diff(old, new):
    out = [f"{name_of(old)} -> {name_of(new)}"]
    if old["host"] is None or new["host"] is None:
        out.append("  note: host not recorded on both lines")
    elif old["host"] != new["host"]:
        out.append("  note: hosts differ")
    for workload, metrics in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            out.append(f"  {workload}: new workload")
            continue
        for metric, value in metrics.items():
            if metric not in before:
                continue
            ratio = value / before[metric]
            out.append(f"  {workload:<12} {metric:<18} {before[metric]:>10.4g}"
                       f" -> {value:>10.4g}  x{ratio:.3f}")
    return out


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: perf_diff.py [TRAJECTORY]", file=sys.stderr)
        return 2
    path = argv[1] if len(argv) == 2 else DEFAULT_PATH
    try:
        entries = load(path)
    except (OSError, UnicodeDecodeError, TrajectoryError) as e:
        print(f"FAIL {path}: {e}")
        return 1
    print(f"{name_of(entries[0])}: first line")
    for old, new in zip(entries, entries[1:]):
        print("\n".join(diff(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
