"""The tracer: self time, merging processes, install by name, JSONL round trip."""

import types

import numpy as np
import pytest

import spans as spans_mod
from spans import SpanLog, Spans, concat, install, load_jsonl


def _nested_log() -> SpanLog:
    log = SpanLog(capacity=16)
    outer, inner = log.intern("outer"), log.intern("inner")
    i = log.open(outer)
    j = log.open(inner)
    log.close(j)
    k = log.open(inner)
    log.close(k, value=7.0)
    log.close(i)
    # fix the clock readings: outer 0..10, children 2..5 and 6..7
    log.start[:3] = [0.0, 2.0, 6.0]
    log.end[:3] = [10.0, 5.0, 7.0]
    return log


def test_self_time_is_duration_minus_child_coverage():
    sp = _nested_log().spans(pid=1)
    assert sp.parent.tolist() == [-1, 0, 0]
    assert sp.self_time().tolist() == [6.0, 3.0, 1.0]
    assert sp.value.tolist() == [0.0, 0.0, 7.0]


def test_concat_keeps_parents_within_their_process():
    a = _nested_log().spans(pid=1)
    b = _nested_log().spans(pid=2)
    merged = concat([a, b])
    assert merged.parent.tolist() == [-1, 0, 0, -1, 3, 3]
    assert merged.self_time().tolist() == [6.0, 3.0, 1.0] * 2


def test_full_log_counts_dropped_spans_and_keeps_calling():
    log = SpanLog(capacity=1)
    f = log.wrap("f", lambda x: x + 1, None)
    assert f(1) == 2 and f(2) == 3
    assert log.n == 1 and log.dropped == 1


def test_wrapper_records_spans_even_when_the_call_raises():
    log = SpanLog(capacity=4)

    def boom():
        raise KeyError("x")

    f = log.wrap("boom", boom, None)
    with pytest.raises(KeyError):
        f()
    assert log.n == 1 and log.end[0] >= log.start[0] and not log.stack


def test_install_wraps_by_name_reports_missing_and_uninstalls(monkeypatch, tmp_path):
    fake = types.ModuleType("fake_layer")

    class Thing:
        def work(self, items):
            return list(items)

    original = Thing.work
    fake.Thing = Thing
    fake.HANDLERS = {"work": Thing.work}
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", fake)
    monkeypatch.setattr(spans_mod, "TARGETS", (
        ("fake.work", "fake_layer", "Thing.work", spans_mod._len_result),
        ("fake.gone", "fake_layer", "Thing.deleted", None),
    ))
    monkeypatch.setattr(spans_mod, "WORKER_MAIN", ("fake_layer", "worker_main"))
    log = SpanLog(capacity=8)
    missing, uninstall = install(log, tmp_path)
    assert missing == {"fake.gone": "fake_layer:Thing.deleted", "worker_main": "fake_layer:worker_main"}
    assert Thing().work([1, 2, 3]) == [1, 2, 3]
    fake.HANDLERS["work"](Thing(), [4])  # the dispatch table holds the wrapper too
    sp = log.spans(pid=0)
    assert [sp.names[n] for n in sp.name] == ["fake.work", "fake.work"]
    assert sp.value.tolist() == [3.0, 1.0]
    uninstall()
    assert Thing.work is original and fake.HANDLERS["work"] is original


def test_jsonl_round_trip(tmp_path):
    sp = _nested_log().spans(pid=42)
    path = tmp_path / "spans.jsonl.gz"
    sp.write_jsonl(path, {"k": 1})
    header, back = load_jsonl(path)
    assert header == {"k": 1}
    for field in ("pid", "name", "start", "end", "parent", "value"):
        assert np.array_equal(getattr(back, field), getattr(sp, field))
    assert back.names == sp.names


def test_empty_spans_merge():
    merged = concat([Spans.empty(), _nested_log().spans(pid=3)])
    assert len(merged) == 3 and merged.parent.tolist() == [-1, 0, 0]
