"""BENCHMARK.json agrees with the benchmark's own definitions and limits."""

import json
import re
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_shape():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60


def test_workloads_match_the_code():
    listed = MANIFEST["workloads"]
    assert [w["name"] for w in listed] == list(WORKLOADS)
    for w in listed:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics_match_the_code():
    listed = MANIFEST["end_to_end"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    for m in listed:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_metrics_match_the_code():
    listed = MANIFEST["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    for m in listed:
        assert set(m) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in MANIFEST[key]]
    assert all(UNIT.match(u) for u in units)
    assert all(m["better"] in ("higher", "lower") for key in ("end_to_end", "per_layer") for m in MANIFEST[key])
