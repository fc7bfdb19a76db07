"""Tests for the row store past its capacity (scaling past the paper's 1024)."""

import pytest

from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork
from tests.graphs.regimes import network


def _grid_net(side, rows):
    return network(grid_network(side, side).graph, rows)


class TestModes:
    def test_small_networks_keep_every_row(self):
        assert _grid_net(4, "full").oracle_stats["row_cache_capacity"] == 16

    def test_past_the_threshold_the_store_keeps_lazy_cache_rows(self, monkeypatch):
        monkeypatch.setattr(SensorNetwork, "LAZY_THRESHOLD", 10)
        stats = _grid_net(4, "full").oracle_stats
        assert stats["row_cache_capacity"] == SensorNetwork.LAZY_CACHE_ROWS


class TestLazyEquivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        return _grid_net(6, "full"), _grid_net(6, "lazy")

    def test_distances_agree(self, pair):
        full, lazy = pair
        for u, v in [(0, 35), (5, 30), (14, 14), (7, 28)]:
            assert lazy.distance(u, v) == pytest.approx(full.distance(u, v))

    def test_rows_agree(self, pair):
        full, lazy = pair
        assert lazy.distances_from(17) == pytest.approx(full.distances_from(17))

    def test_rows_cached(self, pair):
        _, lazy = pair
        a = lazy.distances_from(3)
        b = lazy.distances_from(3)
        assert a is b

    def test_diameter_double_sweep_exact_on_grid(self, pair):
        full, lazy = pair
        assert lazy.diameter == full.diameter  # exact on grids

    def test_k_neighborhood_and_closest_work(self, pair):
        full, lazy = pair
        assert lazy.k_neighborhood(14, 2.0) == full.k_neighborhood(14, 2.0)
        assert lazy.closest(0, [35, 1]) == 1

    def test_matrix_unavailable_in_lazy(self, pair):
        _, lazy = pair
        with pytest.raises(RuntimeError, match="needs all 36 rows resident"):
            lazy.distance_matrix


class TestTrackerOnLazyNetwork:
    def test_mot_end_to_end_lazy(self):
        import random

        from repro.core.mot import MOTTracker
        from repro.hierarchy.structure import build_hierarchy

        net = _grid_net(8, "lazy")
        tracker = MOTTracker(build_hierarchy(net, seed=1))
        rnd = random.Random(2)
        tracker.publish("o", 0)
        cur = 0
        for _ in range(50):
            cur = rnd.choice(net.neighbors(cur))
            tracker.move("o", cur)
            assert tracker.query("o", rnd.choice(net.nodes)).proxy == cur
        assert net.oracle_stats["row_cache_evictions"] > 0
