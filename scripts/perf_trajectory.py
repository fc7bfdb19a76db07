#!/usr/bin/env python3
"""Append one perf change's benchmark pairs to ``BENCH_perfbench.json``.

The repository benchmark (``perfbench/run.py``) ends every run with one
JSON result line: ``{"correct", "attempted", "failed", "metrics"}``,
where ``metrics`` maps each metric name to ``{"value", "unit"}``. This
script reads those lines for both sides of a change — the parent commit
and the change — and appends one entry to the committed trajectory
file: the workload, the seeds, and each side's median and quartiles of
every metric the lines carry. It computes no metric of its own, so every
number keeps its one definition in ``perfbench/``.

Quartiles are ``statistics.quantiles(..., method="inclusive")``, the
linear interpolation the CHANGES.md pair tables use.

Usage::

    python scripts/perf_trajectory.py --change-id "<change id>" --title "..." \\
        --workload closed-moves-1k --seconds 30 --seeds 1,2,3 \\
        --parent parent.log --change change.log \\
        [--traced-parent p.log --traced-change c.log] [--out BENCH_perfbench.json]

Each ``.log`` is the captured stdout of one or more ``perfbench/run.py``
runs of that side; every result line in it counts as one run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

__all__ = ["result_lines", "summarize", "make_entry", "append_entry"]


def result_lines(text: str) -> list[dict]:
    """The result lines of ``perfbench/run.py`` output, in order."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict):
            out.append(doc)
    return out


def summarize(results: list[dict]) -> dict[str, dict]:
    """Median and quartiles of each metric over the runs ``results``."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for res in results:
        for name, metric in res["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        if len(vals) > 1:
            q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        else:
            q1 = median = q3 = vals[0]
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "unit": units[name],
            "runs": len(vals),
        }
    return summary


def make_entry(
    change_id: str,
    title: str,
    workload: str,
    seeds: list[int],
    seconds: float,
    parent: list[dict],
    change: list[dict],
    traced_parent: list[dict] | None = None,
    traced_change: list[dict] | None = None,
) -> dict:
    """One trajectory entry from both sides' result lines."""
    if not parent or not change:
        raise ValueError("each side needs at least one result line")
    entry = {
        "id": change_id,
        "title": title,
        "workload": workload,
        "seconds": seconds,
        "seeds": seeds,
        "failed_runs": {
            "parent": sum(1 for r in parent if not r.get("correct") or r.get("failed")),
            "change": sum(1 for r in change if not r.get("correct") or r.get("failed")),
        },
        "parent": summarize(parent),
        "change": summarize(change),
    }
    if traced_parent or traced_change:
        entry["traced"] = {
            "parent": summarize(traced_parent or []),
            "change": summarize(traced_change or []),
        }
    return entry


def append_entry(path: Path, entry: dict) -> dict:
    """Append ``entry`` to the trajectory file (created if missing)."""
    doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--change-id", required=True, help="the change's label in the trajectory")
    parser.add_argument("--title", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated, in pair order")
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--traced-parent", type=Path)
    parser.add_argument("--traced-change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_perfbench.json"))
    args = parser.parse_args(argv)

    def read(path: Path | None) -> list[dict] | None:
        return result_lines(path.read_text()) if path is not None else None

    entry = make_entry(
        args.change_id,
        args.title,
        args.workload,
        [int(s) for s in args.seeds.split(",") if s],
        args.seconds,
        read(args.parent) or [],
        read(args.change) or [],
        read(args.traced_parent),
        read(args.traced_change),
    )
    append_entry(args.out, entry)
    print(f"perf_trajectory: appended {args.change_id} {args.workload} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
