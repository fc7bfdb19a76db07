"""Tests for exact distances (``repro.graphs.backends``).

Covers bit-for-bit parity of the row store with a dense reference in
both capacity regimes, its capacity rule, and the float-boundary
``k_neighborhood`` fix.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from tests.graphs.regimes import ROW_STORES, network

BASE = random_geometric_network(40, seed=3)
REF = dijkstra(BASE._engine.csr, directed=True)


class TestProtocol:
    def test_row_backed_matrix_raises(self):
        net = network(grid_network(4, 4).graph, "lazy")
        with pytest.raises(RuntimeError, match="keeps 4"):
            net.distance_matrix


class TestCapacityRule:
    """Every row fits up to ``LAZY_THRESHOLD`` nodes; one node past it,
    the store keeps ``LAZY_CACHE_ROWS`` rows and refuses the matrix."""

    @pytest.fixture
    def small_rule(self, monkeypatch):
        monkeypatch.setattr(SensorNetwork, "LAZY_THRESHOLD", 12)
        monkeypatch.setattr(SensorNetwork, "LAZY_CACHE_ROWS", 3)

    def test_at_the_threshold_every_row_stays_resident(self, small_rule):
        net = SensorNetwork(grid_network(4, 3).graph, normalize=False)  # n = 12
        ref = dijkstra(net._engine.csr, directed=True)
        for i in range(net.n):
            net.distances_from(i)
        stats = net.oracle_stats
        assert stats["row_cache_capacity"] == stats["row_cache_size"] == 12
        assert stats["row_cache_evictions"] == 0
        assert net.diameter == float(ref.max())
        assert np.array_equal(net.distance_matrix, ref)
        assert net.oracle_stats["rows_computed"] == 12  # the matrix reused every row

    def test_one_node_past_it_the_store_evicts(self, small_rule):
        graph = grid_network(4, 3).graph
        graph.add_edge(12, 11)  # n = 13
        net = SensorNetwork(graph, normalize=False)
        ref = dijkstra(net._engine.csr, directed=True)
        for i in range(net.n):
            assert np.array_equal(net.distances_from(i), ref[i])
        stats = net.oracle_stats
        assert stats["row_cache_capacity"] == 3
        assert stats["row_cache_size"] <= 3
        assert stats["row_cache_evictions"] == 10
        lo, hi = net.diameter_bounds
        assert lo <= float(ref.max()) <= hi
        with pytest.raises(RuntimeError, match="all 13 rows"):
            net.distance_matrix


class TestExactParity:
    @pytest.mark.parametrize("name", ROW_STORES)
    def test_bit_for_bit_with_reference(self, name):
        net = network(BASE.graph, name)
        sources = [0, 7, 13, 39, 8, 21]
        assert np.array_equal(
            np.asarray(net.distances_to_many(sources)), REF[sources]
        )
        pairs = [(0, 39), (5, 5), (12, 3)]
        assert np.array_equal(
            np.asarray(net.pair_distances(pairs)),
            np.array([REF[i, j] for i, j in pairs]),
        )

    def test_k_neighborhood_agrees_across_backends(self):
        radius = float(np.median(REF[0]))
        balls = [network(BASE.graph, name).k_neighborhood(0, radius) for name in ROW_STORES]
        assert all(b == balls[0] for b in balls[1:])
        assert balls[0] == np.flatnonzero(REF[0] <= radius).tolist()

    def test_diameter_bracket_under_every_backend(self):
        true_d = float(REF.max())
        for name in ROW_STORES:
            lo, hi = network(BASE.graph, name).diameter_bounds
            assert lo <= true_d + 1e-9 <= hi + 1e-9


class TestKNeighborhoodBoundary:
    """Regression: raw ``dists <= k`` dropped float-boundary nodes."""

    def _path_net(self, rows):
        # after min-weight normalization the second edge weighs
        # 2.1 / 0.7 = 3.0000000000000004 — mathematically 3, but the raw
        # comparison 3.0000000000000004 <= 3.0 used to drop node 2
        g = nx.Graph()
        g.add_edge(0, 1, weight=0.7)
        g.add_edge(1, 2, weight=2.1)
        return network(g, rows, normalize=True)

    @pytest.mark.parametrize("name", ROW_STORES)
    def test_boundary_node_included(self, name):
        net = self._path_net(name)
        assert net.distance(1, 2) > 3.0  # the float noise is real
        assert list(net.k_neighborhood(1, 3.0)) == [0, 1, 2]
        assert list(net.k_neighborhood(0, 4.0)) == [0, 1, 2]
