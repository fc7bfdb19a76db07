"""``scripts/perf_trajectory.py``: result lines in, one trajectory entry out."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_trajectory.py"
_spec = importlib.util.spec_from_file_location("perf_trajectory", SCRIPT)
assert _spec is not None and _spec.loader is not None
traj = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traj)

#: two result lines as ``perfbench/run.py --trace 0`` prints them last
PARENT_LINE = (
    '{"correct": true, "attempted": 900000, "failed": 0, "metrics": '
    '{"throughput_ops_s": {"value": 42300.5, "unit": "ops/s"}, '
    '"setup_s": {"value": 0.25, "unit": "s"}, '
    '"peak_rss_mb": {"value": 143.8, "unit": "MB"}}}'
)
CHANGE_LINE = (
    '{"correct": true, "attempted": 900000, "failed": 0, "metrics": '
    '{"throughput_ops_s": {"value": 60000.0, "unit": "ops/s"}, '
    '"setup_s": {"value": 0.24, "unit": "s"}, '
    '"peak_rss_mb": {"value": 130.0, "unit": "MB"}}}'
)


def test_result_lines_skip_everything_else():
    text = "closed-moves-1k throughput_ops_s = 42300.5 ops/s\n{not json\n" + PARENT_LINE
    lines = traj.result_lines(text)
    assert len(lines) == 1 and lines[0]["metrics"]["setup_s"]["value"] == 0.25


def test_entry_from_two_canned_lines(tmp_path):
    out = tmp_path / "BENCH_perfbench.json"
    entry = traj.make_entry(
        "change-a",
        "one-pass columnar batches",
        "closed-moves-1k",
        [9],
        30.0,
        traj.result_lines(PARENT_LINE),
        traj.result_lines(CHANGE_LINE),
    )
    traj.append_entry(out, entry)
    doc = json.loads(out.read_text())
    assert [e["id"] for e in doc["entries"]] == ["change-a"]
    got = doc["entries"][0]
    assert got["workload"] == "closed-moves-1k" and got["seeds"] == [9]
    assert got["failed_runs"] == {"parent": 0, "change": 0}
    thr = got["change"]["throughput_ops_s"]
    assert thr == {"median": 60000.0, "q1": 60000.0, "q3": 60000.0, "unit": "ops/s", "runs": 1}
    assert got["parent"]["peak_rss_mb"]["median"] == 143.8
    # a second append keeps the first entry
    traj.append_entry(out, {**entry, "id": "change-b"})
    assert [e["id"] for e in json.loads(out.read_text())["entries"]] == ["change-a", "change-b"]


def test_quartiles_interpolate_linearly():
    runs = [
        {"metrics": {"x": {"value": v, "unit": "u"}}} for v in (4.0, 1.0, 3.0, 2.0, 5.0)
    ]
    s = traj.summarize(runs)["x"]
    assert (s["q1"], s["median"], s["q3"], s["runs"]) == (2.0, 3.0, 4.0, 5)


def test_a_side_without_runs_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        traj.make_entry("change-a", "t", "w", [], 30.0, [], traj.result_lines(CHANGE_LINE))


def test_committed_trajectory_parses():
    doc = json.loads((SCRIPT.parents[1] / "BENCH_perfbench.json").read_text())
    for entry in doc["entries"]:
        for side in ("parent", "change"):
            for stats in entry[side].values():
                assert stats["q1"] <= stats["median"] <= stats["q3"]
