"""Smoke runs of the examples: the tracker's and the service's guided
tours and the head-to-head against the baselines, each run as a script."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_example(name: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart_tracks_the_tiger():
    out = _run_example("quickstart.py")
    assert "publish 'tiger' at sensor 0" in out
    assert out.count("  move -> sensor") == 8
    assert out.count("  query from") == 3
    assert "aggregate maintenance cost ratio" in out
    assert "aggregate query cost ratio" in out


def test_service_tour_runs():
    out = _run_example("service_tour.py")
    assert "published 'tiger' at sensor 0" in out
    assert "second coalesced=True" in out
    assert "backpressure: queue rejection" in out
    assert "drained: 9 ops completed, 1 queries coalesced, 28 rejected" in out


def test_baseline_comparison_small():
    out = _run_example(
        "baseline_comparison.py", "--side", "5", "--objects", "4", "--moves", "30", "--queries", "20"
    )
    assert out.startswith("grid 5x5 (25 sensors), 4 objects x 30 moves, 20 queries")
    rows = [line.split("|") for line in out.splitlines() if line.count("|") == 4]
    names = [row[0].strip() for row in rows[1:]]
    assert names == ["MOT", "MOT-balanced", "STUN", "DAT", "Z-DAT", "Z-DAT+shortcuts"]
    for row in rows[1:]:
        assert float(row[1]) >= 1.0 and float(row[2]) >= 1.0  # cost ratios
