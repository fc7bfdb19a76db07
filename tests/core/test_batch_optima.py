"""The batch engine's oracle-free request path: the SDL-hop table and
the optima resolved on ledger read.

- ``_Tables.sdl_hop[ℓ, w]`` is ``dist(lift[ℓ][w], w)`` for every member
  ``w`` of every level the SDL probe reads, exactly (``==``) the
  network's distance from the host, with special-parent gaps 1–3;
- an engine's ledger equals the accounting that records every kernel
  call's delta at once, optima included, field for field and bit for
  bit: across call sizes, after a mid-stream read, through a snapshot
  and restore, and in a worker's final frame;
- a read frees what was pending, and restore drops it.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.core.batch import BatchMOTEngine, OpBatch, engine_tables
from repro.core.costs import CostLedger
from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network, random_geometric_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve.snapshot import capture_snapshot, restore_snapshot
from repro.serve.worker import ShardWorker, WorkerSpec
from tests.graphs.regimes import ROW_STORES, network
from tests.graphs.test_balls import GRAPHS


@pytest.mark.parametrize("gap", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sdl_hop_is_the_hosts_distance(name, gap):
    net = network(GRAPHS[name], "lazy")
    hs = build_hierarchy(net, seed=2, special_parent_gap=gap)
    t = engine_tables(hs, MOTConfig(special_parent_gap=gap))
    # the host's side, as the SDL hop reads it: Dijkstra's sums from the
    # two ends can differ in the last bit
    ref = network(GRAPHS[name], "full")
    checked = 0
    for ell in range(1, hs.h - gap):
        for w in hs.level_nodes(ell):
            i = net.index_of(w)
            host = net.node_at(int(t.lift[ell, i]))
            assert t.sdl_hop[ell, i] == ref.distance(host, w), (name, gap, ell, w)
            checked += 1
    assert checked or hs.h <= gap + 1


def test_sdl_hop_needs_no_dense_query():
    net = network(GRAPHS["geometric"], "full")
    hs = build_hierarchy(net, seed=2, special_parent_gap=1)
    assert engine_tables(hs, MOTConfig(special_parent_gap=1)).sdl_hop.any()
    stats = net.oracle_stats
    assert stats["matrix_materialized"] is False and stats["rows_computed"] == 0


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
NETS = {"grid": grid_network(6, 6).graph, "rgg": random_geometric_network(40, seed=3).graph}
#: the ledger fields that move and query kernel calls feed
FIELDS = (
    "maintenance_cost",
    "maintenance_optimal",
    "maintenance_ops",
    "maintenance_messages",
    "max_maintenance_ratio",
    "query_cost",
    "query_optimal",
    "query_ops",
    "query_messages",
    "max_query_ratio",
)


def _ops(nodes, seed, count=900):
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(12)]
    ops = [("publish", obj, rng.choice(nodes)) for obj in objs]
    for _ in range(count):
        kind = "move" if rng.random() < 0.5 else "query"
        ops.append((kind, rng.choice(objs), rng.choice(nodes)))
    return ops


class _Calls:
    """Every move and query kernel call's pairs, costs and messages."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for kind, name in (("move", "_move_kernel"), ("query", "_query_kernel")):
            monkeypatch.setattr(BatchMOTEngine, name, self._wrap(kind, getattr(BatchMOTEngine, name)))

    def _wrap(self, kind, kernel):
        def wrapped(engine, source, target):
            cost, messages = kernel(engine, source, target)
            self.calls.append((kind, source.copy(), target.copy(), cost.copy(), messages.copy()))
            return cost, messages

        return wrapped

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def _eager(ledger: CostLedger, calls, dist: np.ndarray) -> CostLedger:
    """``ledger`` plus each call's delta recorded at once, in call order,
    with its optima read off the dense matrix ``dist``."""
    for kind, source, target, cost, messages in calls:
        optimal = dist[source, target]
        positive = optimal > 0
        worst = float(np.max(cost[positive] / optimal[positive])) if positive.any() else None
        delta = (
            float(np.add.reduce(cost)),
            float(np.add.reduce(optimal)),
            len(cost),
            int(messages.sum()),
            worst,
        )
        if kind == "move":
            ledger.record_maintenance_batch(*delta)
        else:
            ledger.record_query_batch(*delta)
    return ledger


def _assert_same(got: CostLedger, want: CostLedger) -> None:
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name  # bit for bit


def _apply(engine, ops, chunk):
    for i in range(0, len(ops), chunk):
        assert not engine.apply_ops(OpBatch.of(ops[i : i + chunk])).errors


@pytest.mark.parametrize("rows", ROW_STORES)
@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("net_name", sorted(NETS))
def test_ledger_equals_eager_accounting(net_name, chunk, rows, monkeypatch):
    net = network(NETS[net_name], rows)
    dist = network(NETS[net_name], "full").distance_matrix
    calls = _Calls(monkeypatch)
    engine = BatchMOTEngine.build(net, MOTConfig(), seed=3)
    ops = _ops(list(net.nodes), seed=chunk)
    _apply(engine, ops[:500], chunk)
    want = _eager(CostLedger(), calls.take(), dist)
    _assert_same(engine.ledger, want)  # a mid-stream read
    assert engine._n_pending == engine._n_calls == 0  # freed
    _apply(engine, ops[500:], chunk)
    _assert_same(engine.ledger, _eager(want, calls.take(), dist))


def test_snapshot_restore_and_the_final_frame(monkeypatch):
    net = network(NETS["rgg"], "lazy")
    dist = network(NETS["rgg"], "full").distance_matrix
    calls = _Calls(monkeypatch)
    hs = build_hierarchy(net, seed=3)
    spec = WorkerSpec(0, hs, MOTConfig())
    ops = _ops(list(net.nodes), seed=11)
    worker = ShardWorker(spec)
    _apply(worker.engine, ops[:600], 7)
    want = _eager(CostLedger(), calls.take(), dist)
    snap = capture_snapshot(worker, 0)
    _assert_same(snap.ledger, want)

    restored = ShardWorker(spec)
    restore_snapshot(restored, snap)
    calls.take()  # the replay's calls: its accrual is discarded, not deferred
    assert restored.engine._n_pending == restored.engine._n_calls == 0
    _assert_same(restored.ledger, want)
    _apply(restored.engine, ops[600:], 7)
    want = _eager(copy.deepcopy(want), calls.take(), dist)
    kind, final = restored.handle_stop(None)
    assert kind == "final"
    _assert_same(final.ledger, want)


def test_ledger_assignment_drops_what_is_pending():
    net = network(NETS["grid"], "full")
    engine = BatchMOTEngine.build(net, MOTConfig(), seed=3)
    _apply(engine, _ops(list(net.nodes), seed=5, count=200), 16)
    assert engine._n_calls > 0
    engine.ledger = CostLedger()
    assert engine.ledger == CostLedger()
    assert net.oracle_stats["rows_computed"] == 0  # nothing resolved
