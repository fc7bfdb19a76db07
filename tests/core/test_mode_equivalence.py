"""Full vs lazy distance backends must be observationally identical.

The lazy oracle answers every query with exact Dijkstra distances, so
switching modes may change *when* work happens but never *what* any
caller sees: distances, level sets, parent tables, and MOT ledger
totals must agree bit-for-bit for the same seed.  A second group pins
the DL/SDL bookkeeping invariant — after long random move sequences
the ``_dl`` keys are exactly the union of live spines (no orphans).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mot import MOTTracker
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.levels import build_levels


def _both_modes(base):
    full = SensorNetwork(base.graph, normalize=False, distance_backend="full")
    lazy = SensorNetwork(base.graph, normalize=False, distance_backend="lazy")
    return full, lazy


GRID = grid_network(7, 7)
FULL, LAZY = _both_modes(GRID)


class TestDistanceAgreement:
    @settings(max_examples=100, deadline=None)
    @given(u=st.integers(0, GRID.n - 1), v=st.integers(0, GRID.n - 1))
    def test_pairwise_distance_identical(self, u, v):
        assert LAZY.distance(u, v) == FULL.distance(u, v)

    @settings(max_examples=25, deadline=None)
    @given(src=st.integers(0, GRID.n - 1))
    def test_rows_identical(self, src):
        assert LAZY.distances_from(src) == pytest.approx(
            FULL.distances_from(src), abs=0.0
        )

    @settings(max_examples=25, deadline=None)
    @given(
        sources=st.lists(st.integers(0, GRID.n - 1), min_size=1, max_size=6),
        targets=st.lists(st.integers(0, GRID.n - 1), min_size=1, max_size=6),
    )
    def test_batched_queries_identical(self, sources, targets):
        assert LAZY.distances_to_many(sources, targets) == pytest.approx(
            FULL.distances_to_many(sources, targets), abs=0.0
        )


class TestPipelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_levels_identical(self, seed):
        full, lazy = _both_modes(grid_network(9, 9))
        assert build_levels(full, seed=seed).levels == build_levels(lazy, seed=seed).levels

    @pytest.mark.parametrize("seed", [1, 5])
    def test_hierarchy_shape_identical(self, seed):
        base = random_geometric_network(40, seed=seed)
        full, lazy = _both_modes(base)
        tf = MOTTracker.build(full, seed=seed)
        tl = MOTTracker.build(lazy, seed=seed)
        assert tf.hs.levels.levels == tl.hs.levels.levels
        assert tf.hs._default_parent == tl.hs._default_parent
        assert tf.hs._parent_sets == tl.hs._parent_sets

    def test_mot_costs_identical(self):
        full, lazy = _both_modes(grid_network(7, 7))
        rng = random.Random(42)
        script = [("publish", i, rng.randrange(full.n)) for i in range(3)]
        script += [
            (rng.choice(["move", "query"]), rng.randrange(3), rng.randrange(full.n))
            for _ in range(80)
        ]
        ledgers = []
        for net in (full, lazy):
            tr = MOTTracker.build(net, seed=2)
            for kind, obj, idx in script:
                node = net.node_at(idx)
                if kind == "publish":
                    tr.publish(obj, node)
                elif kind == "move":
                    tr.move(obj, node)
                else:
                    tr.query(obj, node)
            ledgers.append(tr.ledger)
        a, b = ledgers
        assert a.maintenance_cost == b.maintenance_cost
        assert a.maintenance_optimal == b.maintenance_optimal
        assert a.query_cost == b.query_cost
        assert a.query_optimal == b.query_optimal
        assert a.publish_cost == b.publish_cost
        assert a.maintenance_ops == b.maintenance_ops
        assert a.noop_moves == b.noop_moves


class TestSpineBookkeepingInvariant:
    """``_dl`` keys == union of live spines; SDLs point only at them."""

    def _check(self, tr: MOTTracker) -> None:
        live: set = set()
        for obj in tr.objects:
            live.update(tr.spine(obj)[1:])  # level-0 marker holds no DL
        assert set(tr._dl) == live
        for hn, objs in tr._dl.items():
            for obj in objs:
                assert hn in tr.spine(obj)
        for objmap in tr._sdl.values():
            for obj, children in objmap.items():
                spine = set(tr.spine(obj))
                assert children <= spine

    @pytest.mark.parametrize("mode", ["full", "lazy"])
    def test_no_orphans_after_long_random_walk(self, mode):
        base = grid_network(8, 8)
        net = SensorNetwork(base.graph, normalize=False, distance_backend=mode)
        tr = MOTTracker.build(net, seed=9)
        rng = random.Random(mode)  # distinct but reproducible walks
        for i in range(4):
            tr.publish(i, net.node_at(rng.randrange(net.n)))
        for step in range(300):
            tr.move(rng.randrange(4), net.node_at(rng.randrange(net.n)))
            if step % 50 == 0:
                self._check(tr)
        self._check(tr)
