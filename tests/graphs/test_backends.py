"""Tests for the pluggable distance backends (``repro.graphs.backends``).

Covers the :class:`DistanceBackend` protocol, bit-for-bit parity of
both exact backends with a dense reference, and the float-boundary
``k_neighborhood`` fix.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.backends import BACKEND_NAMES, DistanceBackend, make_backend
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork


def _net(base, backend):
    return SensorNetwork(base.graph, normalize=False, distance_backend=backend)


BASE = random_geometric_network(40, seed=3)
REF = np.asarray(_net(BASE, "full").distance_matrix)


class TestProtocol:
    def test_exactly_two_backends(self):
        assert BACKEND_NAMES == ("full", "lazy")

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_satisfies_protocol(self, name):
        net = _net(grid_network(4, 4), name)
        assert isinstance(net.distance_backend, DistanceBackend)
        assert net.distance_mode == name
        assert net.oracle_stats["mode"] == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown distance backend"):
            _net(grid_network(3, 3), "psychic")
        from repro.graphs.backends import SsspEngine

        with pytest.raises(ValueError, match="unknown distance backend"):
            make_backend("psychic", SsspEngine(lambda: None), 9, 4)

    def test_row_backed_matrix_raises(self):
        net = _net(grid_network(4, 4), "lazy")
        with pytest.raises(RuntimeError):
            net.distance_matrix


class TestExactParity:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_bit_for_bit_with_reference(self, name):
        net = _net(BASE, name)
        sources = [0, 7, 13, 39]
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
        balls = [_net(BASE, name).k_neighborhood(0, radius) for name in BACKEND_NAMES]
        assert all(b == balls[0] for b in balls[1:])

    def test_diameter_bracket_under_every_backend(self):
        true_d = float(REF.max())
        for name in BACKEND_NAMES:
            lo, hi = _net(BASE, name).diameter_bounds
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

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_boundary_node_included(self, name):
        net = self._path_net(name)
        assert net.distance(1, 2) > 3.0  # the float noise is real
        assert list(net.k_neighborhood(1, 3.0)) == [0, 1, 2]
        assert list(net.k_neighborhood(0, 4.0)) == [0, 1, 2]
