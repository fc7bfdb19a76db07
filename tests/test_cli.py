"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_prints_all_figures(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for i in range(4, 16):
        assert f"fig{i}" in out


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
                 "--queries", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
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


#: a small traced eval: one smoke-scale scenario through the serve layer
EVAL_SMALL = ["eval", "--scenario", "rush-hour"]


def test_eval_trace_and_diff_round_trip(tmp_path, capsys):
    import json

    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    r1, r2, plain = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "plain.json"
    assert main(EVAL_SMALL + ["--trace", str(t1), "--out", str(r1)]) == 0
    assert main(EVAL_SMALL + ["--trace", str(t2), "--out", str(r2)]) == 0
    assert main(EVAL_SMALL + ["--out", str(plain)]) == 0
    capsys.readouterr()
    # tracing leaves the report unchanged
    assert r1.read_bytes() == r2.read_bytes() == plain.read_bytes()
    # same seed, virtual clock: the two traces must be byte-identical
    assert t1.read_bytes() == t2.read_bytes()
    assert main(["trace", "diff", str(t1), str(t2)]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["identical"] is True
    # one serve span per completed op, bring-up publishes included
    serve = json.loads(r1.read_text())["scenarios"]["rush-hour"]["serve"]["loadgen"]
    assert diff["events"][0] == serve["completed"] + serve["warmup"]["completed"]


def test_trace_summarize(tmp_path, capsys):
    import json

    t = tmp_path / "t.jsonl"
    assert main(EVAL_SMALL + ["--trace", str(t), "--out", str(tmp_path / "r.json")]) == 0
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


AUDIT_BACKEND_SMALL = ["audit", "backend", "--side", "4", "--geometric-nodes", "24"]


def test_audit_backend_to_stdout(capsys):
    import json

    assert main(AUDIT_BACKEND_SMALL) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["failed"] == 0
    names = {c["check"] for c in report["checks"]}
    assert names == {"rows_bit_for_bit", "balls_exact", "k_neighborhood_exact",
                     "diameter_bracket", "level0_pairs_exact", "build_matrix_free",
                     "sdl_hop_exact"}


def test_audit_backend_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "runs" / "audit.json"
    assert main(AUDIT_BACKEND_SMALL + ["--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["ok"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["batch", "--chunk", "-5", "--scenario", "rush-hour"], "--chunk must be >= 1, got -5"),
        (["batch", "--chunk", "0"], "--chunk must be >= 1, got 0"),
        (["batch", "--scenario", "no-such-scenario"], "unknown scenario 'no-such-scenario'"),
        (["backend", "--side", "0"], "--side must be >= 2, got 0"),
        (["backend", "--side", "1"], "--side must be >= 2, got 1"),
        (["backend", "--geometric-nodes", "1"], "--geometric-nodes must be >= 2, got 1"),
    ],
)
def test_audit_rejects_bad_arguments_with_exit_two(argv, message, capsys):
    assert main(["audit", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_audit_batch_to_file(tmp_path, capsys):
    import json

    out_path = tmp_path / "runs" / "audit_batch.json"
    assert main(["audit", "batch", "--scenario", "rush-hour", "--chunk", "64",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "rush-hour" in out and "ok" in out and "wrote" in out
    report = json.loads(out_path.read_text())
    assert report["ok"] is True and list(report["scenarios"]) == ["rush-hour"]
    audit = report["scenarios"]["rush-hour"]["audit"]
    assert audit["ok"] is True and audit["queries_checked"] > 0
    assert audit["epoch_mismatches"] == 0 and audit["ledger_mismatches"] == []


def test_perf_reports_the_row_store(capsys):
    import json

    assert main(["perf", "--side", "5", "--objects", "2", "--moves", "8",
                 "--queries", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["run"]) == {"grid_side", "sensors", "objects", "moves_per_object",
                                  "queries", "seed"}
    oracle = report["oracle"]
    # every row fits, so the first miss solved all 25 in one call
    assert oracle["n"] == oracle["row_cache_capacity"] == oracle["row_cache_size"] == 25
    assert oracle["rows_computed"] == 25 and oracle["row_cache_evictions"] == 0
    assert oracle["matrix_materialized"] is True


@pytest.mark.parametrize("verb", ["perf", "trace"])
def test_closed_stdout_exits_quietly(verb, tmp_path, capsys):
    """A reader that goes away before the report is written (``repro
    trace diff a b | head -3``) gets the SIGPIPE exit code, with no
    traceback and no usage error on stderr."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    if verb == "perf":
        argv = ["perf", "--side", "8", "--objects", "4", "--moves", "5", "--queries", "5"]
    else:
        trace = tmp_path / "run.jsonl"
        assert main(EVAL_SMALL + ["--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        argv = ["trace", "summarize", str(trace)]
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()  # before the run ends: the report meets a closed pipe
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 141
    assert err == b""


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


def test_eval_exits_one_when_the_serve_audit_fails(tmp_path, capsys, monkeypatch):
    from repro.serve import bench

    audit = bench.audit_service

    def one_wrong_proxy(service):
        report = audit(service)
        report.record("proxy", {"obj": "injected"})
        return report

    monkeypatch.setattr(bench, "audit_service", one_wrong_proxy)
    assert main(EVAL_SMALL + ["--out", str(tmp_path / "r.json")]) == 1
    assert "consistency audit failed" in capsys.readouterr().err


def test_eval_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    # bad values exit 2 before any scenario runs
    ran = []
    monkeypatch.setattr("repro.scenarios.harness._sequential_section", lambda *a: ran.append(a))
    assert main(["eval", "--scenario", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["eval", "--workers", "2", "--clock", "virtual"]) == 2
    assert 'requires clock="wall"' in capsys.readouterr().err
    assert ran == []
    monkeypatch.undo()
    assert main(["eval", "--scenario", "rush-hour",
                 "--check", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_serve_bench_usage_error_exits_two(capsys, monkeypatch):
    # measured serve runs go through eval: a bad service setting is a
    # usage error and exits 2 before any scenario runs
    ran = []
    monkeypatch.setattr("repro.scenarios.harness._sequential_section", lambda *a: ran.append(a))
    assert main(["eval", "--shards", "0"]) == 2
    assert "shards must be >= 1" in capsys.readouterr().err
    assert main(["eval", "--workers", "-1"]) == 2
    assert "workers must be >= 0" in capsys.readouterr().err
    assert main(["eval", "--rate", "0"]) == 2
    assert "rate must be positive" in capsys.readouterr().err
    assert ran == []
    monkeypatch.undo()
    # argparse's own rejections use the same code via SystemExit
    with pytest.raises(SystemExit) as exc_info:
        main(["eval", "--clock", "sundial"])
    assert exc_info.value.code == 2
