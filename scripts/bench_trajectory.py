#!/usr/bin/env python3
"""Print the committed benchmark trajectory: parent and change medians per file, workload and metric.

Each ``BENCH_<n>.json`` at the repository root summarises the end-to-end
metrics of alternating parent/change benchmark runs.  Files 16 to 18 hold a
metric as ``{"parent": {"median": ...}, "change": {...}}``; files from 19 on
hold ``{"parent_median": ..., "change_median": ...}``, and from 21 on that
shape is fixed and checked by a schema in the tests.  The output is a header
row, then one tab-separated row per file, workload and metric, files by n:

    python3 scripts/bench_trajectory.py
"""
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "wall_s", "peak_rss_mb", "energy_distance")


def medians(summary: dict) -> tuple[float, float]:
    """(parent median, change median) of one metric's summary, in either committed shape."""
    if "parent_median" in summary:
        return summary["parent_median"], summary["change_median"]
    return summary["parent"]["median"], summary["change"]["median"]


def bench_files() -> list[Path]:
    """The repository's ``BENCH_<n>.json`` files, by n."""
    numbered = {}
    for path in ROOT.glob("BENCH_*.json"):
        if m := re.fullmatch(r"BENCH_(\d+)\.json", path.name):
            numbered[int(m.group(1))] = path
    return [numbered[n] for n in sorted(numbered)]


def main() -> None:
    print("file\tworkload\tmetric\tparent_median\tchange_median")
    for path in bench_files():
        for workload, entry in json.loads(path.read_text())["workloads"].items():
            for metric in METRICS:
                parent, change = medians(entry["summary"][metric])
                print(f"{path.name}\t{workload}\t{metric}\t{parent:.6g}\t{change:.6g}")


if __name__ == "__main__":
    main()
