"""Tests for the lazy distance-oracle mode (scaling past the paper's 1024)."""

import pytest

from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork


def _grid_net(side, mode):
    base = grid_network(side, side)
    return SensorNetwork(base.graph, normalize=False, distance_backend=mode)


class TestModes:
    def test_auto_picks_full_for_small(self):
        assert _grid_net(4, "auto").distance_mode == "full"

    def test_auto_picks_lazy_past_threshold(self, monkeypatch):
        monkeypatch.setattr(SensorNetwork, "LAZY_THRESHOLD", 10)
        assert _grid_net(4, "auto").distance_mode == "lazy"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown distance backend"):
            _grid_net(3, "psychic")


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
        with pytest.raises(RuntimeError, match="lazy distance mode"):
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
