"""EvalReport determinism and schema guarantees."""

import pytest

from repro.scenarios import (
    EvalConfig,
    canonical_json,
    get_scenario,
    metric_at,
    run_scenario,
    run_suite,
)


def test_same_seed_suite_reports_are_byte_identical():
    a = canonical_json(run_suite())
    b = canonical_json(run_suite())
    assert a == b


def test_different_seed_changes_digest():
    spec = get_scenario("zipf-flash-crowd")
    a = run_scenario(spec, EvalConfig(seed=7))
    b = run_scenario(spec, EvalConfig(seed=8))
    assert a["digest"] != b["digest"]


def test_report_carries_every_expected_metric():
    spec = get_scenario("churn-faults")
    report = run_scenario(spec)
    for path in spec.expected_metrics:
        found, _ = metric_at(report, path)
        assert found, path
    assert report["serve"]["audit_ok"] is True
    assert report["chaos"]["consistency_ok"] is True


def test_suite_subset_and_header():
    report = run_suite(names=["rush-hour"])
    assert list(report["scenarios"]) == ["rush-hour"]
    assert report["suite"]["scale"] == "smoke"
    assert report["suite"]["clock"] == "virtual"
    assert "version" in report


def test_eval_config_validation():
    with pytest.raises(ValueError, match='requires clock="wall"'):
        EvalConfig(workers=2, clock="virtual")
    for name in ("psychic", "landmark", "memmap"):
        with pytest.raises(ValueError, match="unknown distance_backend"):
            EvalConfig(distance_backend=name)
    with pytest.raises(ValueError):
        EvalConfig(clock="sundial")
    with pytest.raises(ValueError):
        EvalConfig(rate=0.0)


def test_metric_at_walks_dotted_paths():
    report = {"a": {"b": {"c": 3}}, "d": 4}
    assert metric_at(report, "a.b.c") == (True, 3)
    assert metric_at(report, "d") == (True, 4)
    assert metric_at(report, "a.b.missing") == (False, None)
    assert metric_at(report, "a.b.c.deeper") == (False, None)
