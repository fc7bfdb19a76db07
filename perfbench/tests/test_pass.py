"""Small passes through the real service: answers, cost ratios, traced layers."""

import dataclasses
import os

import pytest
from repro.core.mot import MOTTracker

from drive import run_pass
from inputs import make_inputs
from layers import layer_metrics
from spans import SpanLog, Spans, concat, install, load_jsonl
from workloads import PER_LAYER, WORKLOADS

TINY_CLOSED = dataclasses.replace(
    WORKLOADS["closed-moves-1k"], side=8, objects=20, concurrency=16, stream_rate=3000.0, cost_rate=300.0
)
TINY_OPEN = dataclasses.replace(WORKLOADS["open-workers-1k"], side=8, objects=20, workers=1, rate=400.0)


def test_closed_pass_is_correct_and_cost_ratios_repeat_for_a_seed():
    inputs = make_inputs(TINY_CLOSED, seed=4, seconds=0.3)
    first = run_pass(TINY_CLOSED, inputs, 0.3)
    second = run_pass(TINY_CLOSED, inputs, 0.3)
    assert first.check.correct and second.check.correct
    assert first.cost_ops == second.cost_ops == 90
    assert first.maintenance_cost_ratio == second.maintenance_cost_ratio
    assert first.query_cost_ratio == second.query_cost_ratio
    assert first.throughput_ops_s > 0 and len(first.setup_s) == 3


def test_injected_wrong_answer_fails_the_check(monkeypatch):
    real_query = MOTTracker.query

    def wrong(self, obj, source):
        res = real_query(self, obj, source)
        return dataclasses.replace(res, proxy=(res.proxy + 1) % 64)

    monkeypatch.setattr(MOTTracker, "query", wrong)
    inputs = make_inputs(TINY_CLOSED, seed=4, seconds=0.2)
    res = run_pass(TINY_CLOSED, inputs, 0.2)
    assert not res.check.correct and res.check.wrong_proxy > 0


def test_traced_open_pass_with_workers_reports_every_layer(tmp_path):
    inputs = make_inputs(TINY_OPEN, seed=2, seconds=0.4)
    log = SpanLog(capacity=200_000)
    missing, uninstall = install(log, tmp_path)
    try:
        res = run_pass(TINY_OPEN, inputs, 0.4, log=log)
    finally:
        uninstall()
    assert missing == {} and res.check.correct
    files = sorted(tmp_path.glob("worker-*.jsonl.gz"))
    assert len(files) == 3  # one worker per bring-up, each flushed before it exited
    children = [load_jsonl(f)[1] for f in files]
    child = concat(children)
    assert len(child) > 0 and set(child.pid.tolist()) != {os.getpid()}
    layers = layer_metrics(res, log.spans(os.getpid()), child, {}, missing, "open")
    assert set(layers) == {m.name for m in PER_LAYER}
    assert layers["serve.worker.ops_per_batch"].value >= 1.0
    assert layers["serve.transport.bytes_per_op"].value > 0
    assert layers["core.kernel_us_per_op"].value > 0
    assert layers["loadgen.late_p99_ms"].note.endswith("samples")


def test_missing_entry_point_is_named_not_fatal(monkeypatch, tmp_path):
    import spans as spans_mod

    targets = tuple(t for t in spans_mod.TARGETS if t[0] != "core.move")
    targets += (("core.move", "repro.core.mot", "MOTTracker.deleted_move", None),)
    monkeypatch.setattr(spans_mod, "TARGETS", targets)
    inputs = make_inputs(TINY_CLOSED, seed=1, seconds=0.2)
    log = SpanLog(capacity=200_000)
    missing, uninstall = install(log, tmp_path)
    try:
        res = run_pass(TINY_CLOSED, inputs, 0.2, log=log)
    finally:
        uninstall()
    layers = layer_metrics(res, log.spans(os.getpid()), Spans.empty(), {}, missing, "closed")
    assert missing == {"core.move": "repro.core.mot:MOTTracker.deleted_move"}
    assert layers["core.move_us"].value == 0.0
    assert "MOTTracker.deleted_move" in layers["core.move_us"].note
    assert layers["core.query_us"].value > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_well_formed(name):
    w = WORKLOADS[name]
    assert w.loop in ("closed", "open") and w.popularity in ("uniform", "zipf")
    if w.loop == "closed":
        assert w.concurrency > 0 and w.stream_rate > w.cost_rate > 0
    else:
        assert w.rate > 0
