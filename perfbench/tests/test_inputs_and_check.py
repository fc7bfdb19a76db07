"""The benchmark's own logic: seeded inputs, the answer check, windows, percentiles."""

import dataclasses

import numpy as np
import pytest

import inputs as inputs_mod
from check import ERROR, NOT_SENT, OK, PENDING, REFUSED, check_answers, closed_window, cost_ratios, percentile
from inputs import MOVE, QUERY, make_inputs
from workloads import FLASH_BLOCK, FLASH_SHARE, WORKLOADS

SMALL = dataclasses.replace(WORKLOADS["closed-moves-1k"], side=9, objects=12, stream_rate=500.0,
                            cost_rate=300.0, concurrency=16, popularity="zipf")


def _replay(inp):
    """Positions and optima by a plain per-op replay in submission order."""
    side = inp.side
    pos = inp.start.tolist()
    expected, optimum = [], []
    for k, o, node in zip(inp.kind.tolist(), inp.obj.tolist(), inp.node.tolist(), strict=True):
        if k == MOVE:
            optimum.append(abs(pos[o] // side - node // side) + abs(pos[o] % side - node % side))
            pos[o] = node
        else:
            optimum.append(abs(pos[o] // side - node // side) + abs(pos[o] % side - node % side))
        expected.append(pos[o])
    return np.array(expected), np.array(optimum, dtype=float)


@pytest.mark.parametrize("chunk", [97, 65_536])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vectorized_replay_matches_plain_replay(name, chunk, monkeypatch):
    monkeypatch.setattr(inputs_mod, "_CHUNK", chunk)
    w = dataclasses.replace(WORKLOADS[name], stream_rate=400.0, rate=min(WORKLOADS[name].rate, 400.0))
    inp = make_inputs(w, seed=3, seconds=2.0)
    expected, optimum = _replay(inp)
    assert np.array_equal(inp.expected, expected)
    assert np.array_equal(inp.optimum, optimum)
    moves = inp.kind == MOVE
    # every move is one unit step on the grid
    assert np.all(inp.optimum[moves] == 1)
    assert np.all((inp.node >= 0) & (inp.node < w.side * w.side))


def test_same_seed_same_digest_other_seed_other_digest():
    for w in WORKLOADS.values():
        a = make_inputs(w, seed=5, seconds=1.0)
        b = make_inputs(w, seed=5, seconds=1.0)
        c = make_inputs(w, seed=6, seconds=1.0)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


def test_open_schedule_is_poisson_inside_the_run():
    w = WORKLOADS["open-workers-1k"]
    inp = make_inputs(w, seed=1, seconds=5.0)
    assert inp.due is not None and np.all(np.diff(inp.due) > 0) and inp.due[-1] < 5.0
    assert abs(len(inp) - w.rate * 5.0) < 5 * np.sqrt(w.rate * 5.0)


def test_zipf_queries_have_head_and_flash_crowd():
    w = WORKLOADS["open-queries-4k"]
    inp = make_inputs(w, seed=2, seconds=30.0)
    q_obj = inp.obj[inp.kind == QUERY]
    block = q_obj[: FLASH_BLOCK]
    crowd_start = round(FLASH_BLOCK * (1 - FLASH_SHARE))
    assert np.all(block[crowd_start:] == 0)
    counts = np.bincount(q_obj[:crowd_start], minlength=w.objects)
    assert counts[0] == counts.max()


def _answers(inp):
    status = np.full(len(inp), OK, dtype=np.int8)
    return status, inp.expected.copy(), inp.optimum.copy() + 2.0


def test_check_accepts_correct_answers():
    inp = make_inputs(SMALL, seed=1, seconds=1.0)
    status, proxy, cost = _answers(inp)
    chk = check_answers(inp, status, proxy, cost)
    assert chk.correct and chk.failed == 0 and chk.attempted == len(inp)


def test_check_rejects_injected_wrong_proxy():
    inp = make_inputs(SMALL, seed=1, seconds=1.0)
    status, proxy, cost = _answers(inp)
    q = int(np.flatnonzero(inp.kind == QUERY)[0])
    proxy[q] = (proxy[q] + 1) % (SMALL.side * SMALL.side)
    chk = check_answers(inp, status, proxy, cost)
    assert not chk.correct and chk.wrong_proxy == 1 and chk.failed == 1


def test_check_rejects_injected_below_optimum_cost():
    inp = make_inputs(SMALL, seed=1, seconds=1.0)
    status, proxy, cost = _answers(inp)
    m = int(np.flatnonzero(inp.kind == MOVE)[0])
    cost[m] = inp.optimum[m] - 1.0
    chk = check_answers(inp, status, proxy, cost)
    assert not chk.correct and chk.below_optimum == 1


def test_check_counts_refused_errored_and_unanswered():
    inp = make_inputs(SMALL, seed=1, seconds=1.0)
    status, proxy, cost = _answers(inp)
    status[:4] = [REFUSED, ERROR, PENDING, NOT_SENT]
    chk = check_answers(inp, status, proxy, cost)
    assert (chk.refused, chk.errored, chk.unanswered) == (1, 1, 1)
    assert chk.attempted == len(inp) - 1 and chk.failed == 3
    assert chk.failed_ratio == pytest.approx(3 / (len(inp) - 1))


def test_cost_ratios_cover_exactly_the_prefix():
    inp = make_inputs(SMALL, seed=1, seconds=1.0)
    cost = inp.optimum * 2.0
    prefix = SMALL.cost_ops(1.0, len(inp))
    cost[prefix:] = 1e9  # beyond the prefix: must not count
    maint, query = cost_ratios(inp, cost, prefix)
    assert maint == pytest.approx(2.0) and query == pytest.approx(2.0)


def test_closed_window_on_synthetic_completion_series():
    # one FIFO server, 0.25 s per request, C = 4 clients: all four send at t=0,
    # request k completes at 0.25 (k + 1) and its client sends request k + 4 then
    concurrency, n = 4, 40
    done = 0.25 * (np.arange(n) + 1.0)
    submit = np.concatenate([np.zeros(concurrency), done[: n - concurrency]])
    done[-2:] = np.nan  # still running when the series ends: ignored
    win = closed_window(submit, done, concurrency)
    assert win.start == 1.0  # the C-th completion: the pipeline is full from here
    assert win.end == submit.max() == 9.0  # the last submission
    assert win.completed == 32  # completions in (1.0, 9.0]
    assert win.rate == pytest.approx(4.0)


def test_closed_window_needs_a_full_pipeline():
    with pytest.raises(ValueError):
        closed_window(np.array([0.0, 0.0]), np.array([1.0, np.nan]), 2)


def test_percentile_reports_its_sample_count_and_counts_failures_as_missing():
    vals = np.arange(1, 101, dtype=float)
    p = percentile(vals, 99.0)
    assert (p.value, p.samples) == (99.0, 100)
    assert percentile(vals, 50.0).value == 50.0
    vals[:2] = np.nan  # two failed requests miss any limit
    assert percentile(vals, 99.0).value == np.inf
    assert percentile(vals, 50.0).samples == 100
