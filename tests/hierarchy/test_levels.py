"""Tests for the iterated-MIS level construction (paper §2.2)."""

import math

import pytest

from repro.graphs.generators import grid_network, line_network, ring_network
from repro.hierarchy.levels import build_levels
from tests.graphs.regimes import network


class TestShape:
    def test_level0_is_all_nodes(self, grid8):
        ls = build_levels(grid8, seed=1)
        assert set(ls.levels[0]) == set(grid8.nodes)

    def test_top_level_single_root(self, grid8):
        ls = build_levels(grid8, seed=1)
        assert len(ls.levels[-1]) == 1
        assert ls.root in grid8

    def test_height_bounded_by_log_diameter(self, grid8):
        ls = build_levels(grid8, seed=1)
        assert ls.h <= math.ceil(math.log2(grid8.diameter)) + 2

    def test_levels_are_nested(self, grid8):
        ls = build_levels(grid8, seed=1)
        for lower, upper in zip(ls.levels, ls.levels[1:], strict=False):
            assert set(upper) <= set(lower)

    def test_levels_shrink(self, grid8):
        ls = build_levels(grid8, seed=1)
        sizes = [len(l) for l in ls.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > sizes[-1]

    def test_single_node_network(self):
        net = grid_network(1, 1)
        ls = build_levels(net)
        assert ls.h == 0 and ls.root == 0


class TestDiameterTruncationRegression:
    """The double sweep of an evicting row store is a *lower* bound on
    D; capping ``max_levels`` on it used to truncate hierarchies before
    a single root existed. ``build_levels`` sizes its safety cap from
    ``total_weight``, the sum of the edge weights: a certified upper
    bound on D that needs no solve."""

    def test_converges_when_diameter_underestimates(self, monkeypatch):
        from repro.graphs.network import SensorNetwork

        def unavailable(self):
            raise AssertionError("the level pass read the diameter bounds")

        net = grid_network(12, 12)
        true_d = net.diameter
        # a pathologically bad estimate (the old code capped max_levels
        # on it and raised "failed to converge" here), and no bounds to
        # read at all: the cap comes from total_weight
        monkeypatch.setattr(SensorNetwork, "diameter", property(lambda self: true_d / 8.0))
        monkeypatch.setattr(SensorNetwork, "diameter_bounds", property(unavailable))
        ls = build_levels(net, seed=3)
        assert len(ls.levels[-1]) == 1  # single root despite the bad estimate

    def test_cap_is_sized_from_the_total_weight(self, monkeypatch):
        from repro.graphs.network import SensorNetwork

        # a bound below D leaves too few levels for a single root: the
        # cap reads total_weight and nothing else
        net = grid_network(12, 12)
        monkeypatch.setattr(SensorNetwork, "total_weight", property(lambda self: 1.0))
        with pytest.raises(RuntimeError, match="failed to converge"):
            build_levels(net, seed=3)

    def test_lazy_mode_reaches_single_root(self):
        base = grid_network(12, 12)
        lazy = network(base.graph, "lazy")
        ls = build_levels(lazy, seed=3)
        assert len(ls.levels[-1]) == 1

    def test_lazy_and_full_levels_identical(self):
        base = grid_network(10, 10)
        full = network(base.graph, "full")
        lazy = network(base.graph, "lazy")
        assert build_levels(full, seed=7).levels == build_levels(lazy, seed=7).levels


class TestSeparationAndCover:
    @pytest.mark.parametrize("maker,arg", [(grid_network, (8, 8)), (ring_network, (20,)), (line_network, (17,))])
    def test_level_nodes_pairwise_separated(self, maker, arg):
        """V_ell members are >= 2^ell apart (independence under E_{ell-1})."""
        net = maker(*arg)
        ls = build_levels(net, seed=2)
        for ell in range(1, ls.h + 1):
            members = ls.levels[ell]
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert net.distance(u, v) >= 2**ell

    def test_every_node_covered_by_next_level(self, grid8):
        """Maximality: every V_{ell-1} node is within 2^ell of some V_ell node."""
        ls = build_levels(grid8, seed=1)
        for ell in range(1, ls.h + 1):
            uppers = ls.levels[ell]
            for w in ls.levels[ell - 1]:
                assert any(grid8.distance(w, u) < 2**ell for u in uppers), (ell, w)

    def test_deterministic_given_seed(self, grid8):
        a = build_levels(grid8, seed=5)
        b = build_levels(grid8, seed=5)
        assert a.levels == b.levels

    def test_mis_rounds_recorded(self, grid8):
        ls = build_levels(grid8, seed=1)
        assert len(ls.mis_rounds) == len(ls.levels)
        assert ls.mis_rounds[0] == 0
        assert all(r >= 1 for r in ls.mis_rounds[1:])
