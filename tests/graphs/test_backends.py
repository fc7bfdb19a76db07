"""Tests for the pluggable distance backends (``repro.graphs.backends``).

Covers the :class:`DistanceBackend` protocol, exact-backend parity,
the landmark backend's admissibility/budget/exactness contract, the
memmap row store's attach-or-compute behaviour, landmark-pinning
idempotency, the float-boundary ``k_neighborhood`` fix, and an
end-to-end MOT run over the approximate backend.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.core.costs import close_to
from repro.core.mot import MOTTracker
from repro.graphs.backends import (
    BACKEND_NAMES,
    DistanceBackend,
    LandmarkBackend,
    MemmapFullBackend,
    make_backend,
)
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork


def _net(base, backend, **options):
    return SensorNetwork(
        base.graph,
        normalize=False,
        distance_backend=backend,
        backend_options=options or None,
    )


BASE = random_geometric_network(40, seed=3)
REF = np.asarray(_net(BASE, "full").distance_matrix)


class TestProtocol:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_satisfies_protocol(self, name, tmp_path):
        options = {"path": str(tmp_path / "d.f64")} if name == "memmap" else {}
        net = _net(grid_network(4, 4), name, **options)
        assert isinstance(net.distance_backend, DistanceBackend)
        assert net.distance_mode == name
        assert net.oracle_stats["mode"] == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown distance backend"):
            _net(grid_network(3, 3), "psychic")
        from repro.graphs.backends import SsspEngine

        with pytest.raises(ValueError, match="unknown distance backend"):
            make_backend("psychic", SsspEngine(lambda: None), 9, 4)

    def test_exactness_flags(self, tmp_path):
        base = grid_network(4, 4)
        assert _net(base, "full").distances_exact
        assert _net(base, "lazy").distances_exact
        assert _net(base, "memmap", path=str(tmp_path / "d.f64")).distances_exact
        assert not _net(base, "landmark").distances_exact

    def test_row_backed_matrix_raises(self):
        for name in ("lazy", "landmark"):
            net = _net(grid_network(4, 4), name)
            with pytest.raises(RuntimeError):
                net.distance_matrix


class TestExactParity:
    @pytest.mark.parametrize("name", ["full", "lazy", "memmap"])
    def test_bit_for_bit_with_reference(self, name, tmp_path):
        options = {"path": str(tmp_path / "d.f64")} if name == "memmap" else {}
        net = _net(BASE, name, **options)
        sources = [0, 7, 13, 39]
        assert np.array_equal(
            np.asarray(net.distances_to_many(sources)), REF[sources]
        )
        pairs = [(0, 39), (5, 5), (12, 3)]
        assert np.array_equal(
            np.asarray(net.pair_distances(pairs)),
            np.array([REF[i, j] for i, j in pairs]),
        )

    def test_k_neighborhood_agrees_across_backends(self, tmp_path):
        radius = float(np.median(REF[0]))
        balls = []
        for name in BACKEND_NAMES:
            options = {"path": str(tmp_path / "b.f64")} if name == "memmap" else {}
            balls.append(_net(BASE, name, **options).k_neighborhood(0, radius))
        assert all(b == balls[0] for b in balls[1:])

    def test_diameter_bracket_under_every_backend(self, tmp_path):
        true_d = float(REF.max())
        for name in BACKEND_NAMES:
            options = {"path": str(tmp_path / "dd.f64")} if name == "memmap" else {}
            lo, hi = _net(BASE, name, **options).diameter_bounds
            assert lo <= true_d + 1e-9 <= hi + 1e-9


class TestKNeighborhoodBoundary:
    """Regression: raw ``dists <= k`` dropped float-boundary nodes."""

    def _path_net(self, backend):
        # after min-weight normalization the second edge weighs
        # 2.1 / 0.7 = 3.0000000000000004 — mathematically 3, but the raw
        # comparison 3.0000000000000004 <= 3.0 used to drop node 2
        g = nx.Graph()
        g.add_edge(0, 1, weight=0.7)
        g.add_edge(1, 2, weight=2.1)
        return SensorNetwork(g, distance_backend=backend)

    @pytest.mark.parametrize("name", ["full", "lazy", "landmark"])
    def test_boundary_node_included(self, name):
        net = self._path_net(name)
        assert net.distance(1, 2) > 3.0  # the float noise is real
        assert list(net.k_neighborhood(1, 3.0)) == [0, 1, 2]
        assert list(net.k_neighborhood(0, 4.0)) == [0, 1, 2]


class TestLandmarkBackend:
    def test_rows_admissible_after_budget_spent(self):
        net = _net(BASE, "landmark", num_landmarks=6, exact_budget=3)
        for i in range(BASE.n):
            row = np.asarray(net.distances_from(i))
            assert np.all(row >= REF[i] - 1e-9)
            assert row[i] == 0.0  # repro-lint: disable=RPL004
        stats = net.oracle_stats
        assert stats["exact_budget_remaining"] == 0
        assert stats["approx_rows"] > 0

    def test_budget_rows_exact_then_approx(self):
        net = _net(BASE, "landmark", num_landmarks=4, exact_budget=2)
        # the first two distinct sources get real Dijkstra rows
        assert np.array_equal(np.asarray(net.distances_from(5)), REF[5])
        assert np.array_equal(np.asarray(net.distances_from(9)), REF[9])
        # cached exact rows stay free afterwards
        assert np.array_equal(np.asarray(net.distances_from(5)), REF[5])
        assert net.oracle_stats["exact_budget_remaining"] == 0

    def test_approx_rows_stay_out_of_exact_lru(self):
        net = _net(BASE, "landmark", num_landmarks=4, exact_budget=1)
        for i in range(6):
            net.distances_from(i)
        stats = net.oracle_stats
        assert stats["row_cache_size"] == 1  # only the budgeted exact row
        assert stats["approx_rows"] == 5
        assert stats["approx_row_cache_size"] == 5

    def test_limited_queries_exact_past_budget(self):
        net = _net(BASE, "landmark", num_landmarks=4, exact_budget=0)
        limit = float(np.median(REF[REF > 0]))
        src, node, dist = net.balls([3, 17], limit)
        for k, i in enumerate([3, 17]):
            within = REF[i] <= limit
            mine = src == k
            # every node within the limit has its exact entry, none past it
            assert np.array_equal(node[mine], np.flatnonzero(within))
            assert dist[mine] == pytest.approx(REF[i][within])

    def test_pair_distance_upper_bound_past_budget(self):
        net = _net(BASE, "landmark", num_landmarks=6, exact_budget=0)
        for i, j in [(0, 39), (4, 22), (11, 11)]:
            d = net.distance(net.node_at(i), net.node_at(j))  # repro-lint: disable=RPL001
            assert d >= REF[i, j] - 1e-9

    def test_diameter_bracket_certified_despite_zero_budget(self):
        net = _net(BASE, "landmark", num_landmarks=4, exact_budget=0)
        lo, hi = net.diameter_bounds
        true_d = float(REF.max())
        assert lo <= true_d + 1e-9 <= hi + 1e-9
        assert isinstance(net.distance_backend, LandmarkBackend)

    def test_build_landmarks_idempotent(self):
        net = _net(BASE, "landmark", num_landmarks=4)
        marks = net.build_landmarks()
        solved = net.oracle_stats["rows_computed"]
        assert net.build_landmarks() == marks  # same k: no-op
        assert net.oracle_stats["rows_computed"] == solved
        bigger = net.build_landmarks(8)
        assert len(bigger) > len(marks)
        assert net.oracle_stats["rows_computed"] > solved

    def test_build_landmarks_reuses_cached_rows(self):
        net = _net(BASE, "lazy")
        net.distances_from(0)  # landmark traversal starts at node 0
        solved = net.oracle_stats["rows_computed"]
        net.build_landmarks(4)
        # the pinned row for node 0 came from the LRU, not a new solve
        assert net.oracle_stats["rows_computed"] == solved + 3
        assert net.oracle_stats["landmark_pinned_bytes"] == 4 * BASE.n * 8

    def test_build_landmarks_rejects_nonpositive_k(self):
        # regression: k=0 used to pin one landmark anyway (chosen
        # seeded with [0] before the count was consulted)
        net = _net(BASE, "lazy")
        for bad in (0, -3):
            with pytest.raises(ValueError, match="landmark count"):
                net.build_landmarks(bad)
        stats = net.oracle_stats
        assert stats["landmarks"] == 0
        assert stats["landmark_pinned_bytes"] == 0
        assert stats["rows_computed"] == 0

    def test_rebuild_reuses_previously_pinned_rows(self):
        net = _net(BASE, "lazy")
        net.build_landmarks(4)
        solved = net.oracle_stats["rows_computed"]
        # farthest-point traversal is deterministic, so growing k
        # revisits the same prefix: the 4 rows pinned by the first
        # build must be reused, not re-solved
        marks = net.build_landmarks(8)
        assert net.oracle_stats["rows_computed"] == solved + 4
        assert len(marks) == 8


class TestMemmapBackend:
    def test_second_consumer_attaches(self, tmp_path):
        path = str(tmp_path / "shared.f64")
        first = _net(BASE, "memmap", path=path)
        assert np.array_equal(np.asarray(first.distance_matrix), REF)
        assert first.oracle_stats["memmap_attached"] is False
        second = _net(BASE, "memmap", path=path)
        assert np.array_equal(np.asarray(second.distance_matrix), REF)
        stats = second.oracle_stats
        assert stats["memmap_attached"] is True
        assert stats["memmap_path"] == path
        assert isinstance(second.distance_backend, MemmapFullBackend)

    def test_stale_fingerprint_recomputes(self, tmp_path):
        path = str(tmp_path / "stale.f64")
        _net(BASE, "memmap", path=path).distance_matrix  # writes the store
        other = grid_network(5, 5)
        net = _net(other, "memmap", path=path)
        want = np.asarray(_net(other, "full").distance_matrix)
        assert np.array_equal(np.asarray(net.distance_matrix), want)
        assert net.oracle_stats["memmap_attached"] is False  # recomputed

    def test_default_path_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        a = _net(BASE, "memmap")
        b = _net(BASE, "memmap")
        a.distance_matrix
        b.distance_matrix
        assert a.distance_backend.path == b.distance_backend.path
        # defaulted paths live under the per-user cache dir, never the
        # world-writable system temp dir
        assert a.distance_backend.path.startswith(str(tmp_path))
        assert b.oracle_stats["memmap_attached"] is True

    def test_distinct_same_size_graphs_never_collide(self, tmp_path):
        # regression: the old (n, nnz, weight_sum) fingerprint collided
        # for distinct unit-weight graphs of equal size — a 6-node star
        # attached a 6-node path's matrix and answered d=5.0 for
        # adjacent nodes
        path = str(tmp_path / "collide.f64")
        opts = {"distance_backend": "memmap", "backend_options": {"path": path}}
        line = SensorNetwork(nx.path_graph(6), normalize=False, **opts)
        np.asarray(line.distance_matrix)  # writes the store
        star = SensorNetwork(nx.star_graph(5), normalize=False, **opts)
        want = np.asarray(
            SensorNetwork(nx.star_graph(5), normalize=False, distance_backend="full")
            .distance_matrix
        )
        assert np.array_equal(np.asarray(star.distance_matrix), want)
        assert star.oracle_stats["memmap_attached"] is False  # recomputed
        assert close_to(star.distance(0, 5), 1.0)

    def test_default_paths_differ_per_graph_structure(self, tmp_path, monkeypatch):
        # the defaulted filename is derived from the structural digest,
        # so same-size graphs can never find each other's store
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        line = SensorNetwork(nx.path_graph(6), normalize=False, distance_backend="memmap")
        star = SensorNetwork(nx.star_graph(5), normalize=False, distance_backend="memmap")
        np.asarray(line.distance_matrix)
        np.asarray(star.distance_matrix)
        assert line.distance_backend.path != star.distance_backend.path
        assert star.oracle_stats["memmap_attached"] is False
        assert close_to(star.distance(1, 2), 2.0)


class TestMotOverLandmark:
    def test_end_to_end_answers_match_exact_backend(self):
        base = grid_network(6, 6)
        exact = _net(base, "full")
        approx = _net(base, "landmark", num_landmarks=4, exact_budget=2)
        rng = random.Random(17)
        script = [("publish", i, rng.randrange(base.n)) for i in range(3)]
        script += [
            (rng.choice(["move", "query"]), rng.randrange(3), rng.randrange(base.n))
            for _ in range(60)
        ]
        answers = []
        for net in (exact, approx):
            tr = MOTTracker.build(net, seed=5)
            got = []
            for kind, obj, idx in script:
                node = net.node_at(idx)
                if kind == "publish":
                    tr.publish(obj, node)
                elif kind == "move":
                    tr.move(obj, node)
                else:
                    got.append(tr.query(obj, node).proxy)
            answers.append((tr.hs.levels.levels, got, tr.ledger))
        (lv_exact, q_exact, led_exact), (lv_apx, q_apx, led_apx) = answers
        # structure is built from radius-limited (exact) queries only,
        # so the hierarchy — and every query answer — is identical
        assert lv_exact == lv_apx
        assert q_exact == q_apx
        # ledger costs under the landmark backend are admissible upper
        # bounds on the exact ones
        assert led_apx.maintenance_cost >= led_exact.maintenance_cost - 1e-9
        assert led_apx.query_cost >= led_exact.query_cost - 1e-9
