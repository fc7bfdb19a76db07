"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_prints_all_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for i in range(4, 16):
        assert f"fig{i}" in out


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "tiger" in out
    assert "cost ratio" in out


def test_compare_small(capsys):
    assert main(["compare", "--side", "5", "--objects", "4",
                 "--moves", "30", "--queries", "20"]) == 0
    out = capsys.readouterr().out
    assert "MOT" in out and "STUN" in out and "Z-DAT" in out


@pytest.mark.slow
def test_figure_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "out" / "fig8.csv"
    assert main(["figure", "fig8", "--scale", "0.05", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    content = csv_path.read_text()
    assert content.startswith("node,")
    assert "MOT-balanced" in content


def test_perf_report_to_stdout(capsys):
    import json

    assert main(["perf", "--side", "6", "--objects", "3", "--moves", "10",
                 "--queries", "5", "--distance-backend", "lazy"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["distance_mode"] == "lazy"
    # oracle hit/miss pressure and per-operation timers must be present
    assert report["oracle"]["row_cache_hits"] > 0
    assert report["oracle"]["row_cache_misses"] > 0
    assert report["timers"]["mot.move"]["count"] == 30
    assert report["timers"]["mot.query"]["count"] == 5
    assert "runner.move_phase" in report["timers"]
    assert report["ledger"]["maintenance_ops"] + report["ledger"]["noop_moves"] == 30


def test_perf_report_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "perf.json"
    assert main(["perf", "--side", "5", "--objects", "2", "--moves", "5",
                 "--queries", "2", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["run"]["sensors"] == 25
    assert "counters" in report and "timers" in report


def test_chaos_report_to_stdout(capsys):
    import json

    assert main(["chaos", "--side", "6", "--objects", "4", "--moves", "12",
                 "--queries", "8", "--loss", "0.15", "--crashes", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistency"]["ok"] is True
    assert report["plan"]["message_loss"] == 0.15
    assert len(report["plan"]["crashes"]) == 1
    assert report["delivery"]["sent"] >= report["delivery"]["delivered"]
    assert report["moves_submitted"] == 48
    assert report["queries_completed"] == 8
    # the §7 churn bridge replayed the same crash schedule
    assert report["churn"]["departures"] == 1.0


def test_chaos_report_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "runs" / "chaos.json"
    assert main(["chaos", "--side", "5", "--objects", "3", "--moves", "8",
                 "--queries", "5", "--crashes", "0", "--loss", "0.1",
                 "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["experiment"]["side"] == 5
    assert report["plan"]["crashes"] == []
    assert report["churn"] == {}


def test_unknown_figure_is_usage_error(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("repro ")


def test_demo_seed_changes_walk(capsys):
    assert main(["demo", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["demo", "--seed", "0"]) == 0
    assert capsys.readouterr().out == first  # same seed, same tour


def test_lint_flags_violation_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(net, pairs):\n"
        "    return [net.distance(u, v) for u, v in pairs]\n"
    )
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:2:" in out
    assert "RPL001" in out
    assert "found 1 problem" in out


def test_lint_json_format(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    (diag,) = payload["diagnostics"]
    assert diag["rule"] == "RPL002"
    assert diag["line"] == 2


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f(net, pairs):\n    return net.pair_distances(pairs)\n")
    assert main(["lint", str(good)]) == 0
    assert "all checks passed" in capsys.readouterr().out


SERVE_BENCH_SMALL = [
    "serve-bench", "--nodes", "25", "--objects", "6", "--moves", "5",
    "--queries", "15", "--shards", "2", "--rate", "300", "--seed", "9",
]


def test_serve_bench_to_stdout(capsys):
    import json

    assert main(SERVE_BENCH_SMALL) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["audit"]["ok"] is True
    assert report["config"]["shards"] == 2
    assert report["loadgen"]["trace_digest"]
    assert {"p50_ms", "p95_ms", "p99_ms"} <= report["latency_ms"]["all"].keys()
    assert report["achieved_throughput_ops_s"] > 0


def test_serve_bench_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "runs" / "serve.json"
    assert main(SERVE_BENCH_SMALL + ["--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["audit"]["ok"] is True


def test_serve_bench_deterministic_across_invocations(capsys):
    assert main(SERVE_BENCH_SMALL) == 0
    first = capsys.readouterr().out
    assert main(SERVE_BENCH_SMALL) == 0
    assert capsys.readouterr().out == first


def test_serve_bench_usage_error_exits_two(capsys):
    # config validation (ValueError) maps to the usage exit code
    assert main(["serve-bench", "--nodes", "2"]) == 2
    assert "nodes" in capsys.readouterr().err
    # argparse's own rejections use the same code via SystemExit
    with pytest.raises(SystemExit) as exc_info:
        main(["serve-bench", "--clock", "sundial"])
    assert exc_info.value.code == 2


def test_serve_bench_trace_and_diff_round_trip(tmp_path, capsys):
    import json

    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    assert main(SERVE_BENCH_SMALL + ["--trace", str(t1)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trace"]["path"] == str(t1)
    assert report["trace"]["events"] > 0
    assert report["snapshots"]
    # bring-up publishes are warmup, not offered load: they surface
    # under the warmup counter and never inflate admission metrics
    assert "repro_serve_warmup_publish_total" in report["prometheus"]
    assert "repro_serve_admitted_publish_total" not in report["prometheus"]
    assert main(SERVE_BENCH_SMALL + ["--trace", str(t2)]) == 0
    capsys.readouterr()
    # same seed, virtual clock: the two traces must be byte-identical
    assert t1.read_bytes() == t2.read_bytes()
    assert main(["trace", "diff", str(t1), str(t2)]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["identical"] is True


def test_trace_summarize(tmp_path, capsys):
    import json

    t = tmp_path / "t.jsonl"
    assert main(SERVE_BENCH_SMALL + ["--trace", str(t), "--out",
                str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert main(["trace", "summarize", str(t)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] > 0
    assert "serve.query" in summary["kinds"]
    assert main(["trace", "summarize", str(t), "--kind", "query"]) == 0
    filtered = json.loads(capsys.readouterr().out)
    assert set(filtered["kinds"]) <= {"query"}


def test_trace_diff_detects_divergence_and_bad_paths(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"span_id":1,"cost":1.0}\n')
    b.write_text('{"span_id":1,"cost":2.0}\n')
    assert main(["trace", "diff", str(a), str(b)]) == 1
    import json

    diff = json.loads(capsys.readouterr().out)
    assert diff["first_divergence"]["fields"] == ["cost"]
    assert main(["trace", "summarize", str(tmp_path / "missing.jsonl")]) == 2
    assert "repro trace" in capsys.readouterr().err


def test_perf_prometheus_output(capsys):
    assert main(["perf", "--side", "6", "--objects", "3", "--moves", "5",
                 "--queries", "5", "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_mot_move_seconds summary" in out
    assert "_total " in out


def test_serve_demo_runs(capsys):
    assert main(["serve-demo"]) == 0
    out = capsys.readouterr().out
    assert "tiger" in out
    assert "coalesced" in out
    assert "rejected" in out


AUDIT_BACKEND_SMALL = ["audit-backend", "--side", "4", "--geometric-nodes", "24"]


def test_audit_backend_to_stdout(capsys):
    import json

    assert main(AUDIT_BACKEND_SMALL) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["failed"] == 0
    names = {c["check"] for c in report["checks"]}
    assert {"full_bit_for_bit", "lazy_bit_for_bit", "full_matrix_flag",
            "lazy_matrix_flag", "lazy_balls_exact", "k_neighborhood_agreement",
            "diameter_bracket", "overlay_parity"} <= names


def test_audit_backend_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "runs" / "audit.json"
    assert main(AUDIT_BACKEND_SMALL + ["--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["ok"] is True


def test_perf_distance_backend_flag(capsys):
    import json

    assert main(["perf", "--side", "5", "--objects", "2", "--moves", "8",
                 "--queries", "4", "--distance-backend", "lazy"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["distance_backend"] == "lazy"
    assert report["oracle"]["mode"] == "lazy"
    assert report["oracle"]["matrix_materialized"] is False


@pytest.mark.parametrize("verb", ["perf", "serve-bench", "eval"])
def test_removed_distance_backends_are_rejected(verb, capsys):
    for name in ("memmap", "landmark"):
        with pytest.raises(SystemExit) as exc_info:
            main([verb, "--distance-backend", name])
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_serve_bench_distance_backend_flag(capsys):
    import json

    assert main(SERVE_BENCH_SMALL + ["--distance-backend", "lazy"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["audit"]["ok"] is True
    assert report["network"]["distance_backend"] == "lazy"


def test_eval_list_prints_the_catalog(capsys):
    assert main(["eval", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("zipf-flash-crowd", "rush-hour", "adversarial-handover",
                 "churn-faults", "trace-replay"):
        assert name in out


def test_eval_single_scenario_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "eval" / "report.json"
    assert main(["eval", "--scenario", "rush-hour", "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert list(report["scenarios"]) == ["rush-hour"]
    rep = report["scenarios"]["rush-hour"]
    assert rep["serve"]["audit_ok"] is True
    assert len(rep["digest"]) == 64


def test_eval_baseline_round_trip_and_gate(tmp_path, capsys):
    import json

    base = tmp_path / "base.json"
    assert main(["eval", "--scenario", "rush-hour",
                 "--write-baseline", str(base),
                 "--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    # a fresh same-seed run passes the gate it just wrote
    assert main(["eval", "--scenario", "rush-hour", "--check", str(base),
                 "--out", str(tmp_path / "b.json")]) == 0
    assert "eval gate: ok" in capsys.readouterr().out
    # byte-identical reports across the two runs (virtual clock)
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    # an injected cost-ratio perturbation must flip the gate to exit 1
    doc = json.loads(base.read_text())
    doc["scenarios"]["rush-hour"]["metrics"][
        "sequential.maintenance_cost_ratio"] *= 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--scenario", "rush-hour", "--check", str(bad),
                 "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert "out_of_band" in err and "maintenance_cost_ratio" in err


def test_eval_usage_errors_exit_two(tmp_path, capsys):
    assert main(["eval", "--scenario", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["eval", "--workers", "2", "--clock", "virtual"]) == 2
    assert 'requires clock="wall"' in capsys.readouterr().err
    assert main(["eval", "--scenario", "rush-hour",
                 "--check", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "cannot read baseline" in capsys.readouterr().err
