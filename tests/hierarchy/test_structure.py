"""Tests for the overlay HS: parents, parent sets, DPaths (paper §2.2, §3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costs import close_to
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import HNode, build_hierarchy
from tests.graphs.regimes import ROW_STORES, network


class TestParents:
    def test_default_parent_is_closest_upper(self, hs_grid8, grid8):
        for ell in range(hs_grid8.h):
            uppers = hs_grid8.level_nodes(ell + 1)
            for w in hs_grid8.level_nodes(ell):
                dp = hs_grid8.default_parent(ell, w)
                dmin = min(grid8.distance(w, u) for u in uppers)
                assert grid8.distance(w, dp) == pytest.approx(dmin)

    def test_default_parent_within_mis_bound(self, hs_grid8, grid8):
        """MIS maximality: default parent at distance < 2^(ell+1)."""
        for ell in range(hs_grid8.h):
            for w in hs_grid8.level_nodes(ell):
                dp = hs_grid8.default_parent(ell, w)
                assert grid8.distance(w, dp) < 2 ** (ell + 1)

    def test_parent_set_contains_default_and_radius(self, hs_grid8_parentsets, grid8):
        hs = hs_grid8_parentsets
        for ell in range(hs.h):
            for w in hs.level_nodes(ell):
                ps = hs.parent_set(ell, w)
                assert hs.default_parent(ell, w) in ps
                radius = 4.0 * 2 ** (ell + 1)
                for p in ps:
                    assert grid8.distance(w, p) <= radius or p == hs.default_parent(ell, w)

    def test_parent_sets_id_ordered(self, hs_grid8_parentsets, grid8):
        hs = hs_grid8_parentsets
        for ell in range(hs.h):
            for w in hs.level_nodes(ell):
                ps = list(hs.parent_set(ell, w))
                assert ps == sorted(ps, key=grid8.index_of)

    def test_parent_set_bounded_constant(self, hs_grid8_parentsets):
        """Observation 1: constant-size parent sets in doubling networks."""
        hs = hs_grid8_parentsets
        for ell in range(hs.h):
            for w in hs.level_nodes(ell):
                assert len(hs.parent_set(ell, w)) <= 2 ** (3 * 3)  # 2^(3 rho), rho<=3

    def test_home_chain_reaches_root(self, hs_grid8):
        for x in hs_grid8.net.nodes:
            assert hs_grid8.home(x, hs_grid8.h) == hs_grid8.root.node

    def test_invalid_special_gap_rejected(self, grid8):
        with pytest.raises(ValueError, match="special_parent_gap"):
            build_hierarchy(grid8, special_parent_gap=0)


class TestDefaultParentHop:
    """The construction solve's default-parent distances, kept for reuse."""

    @staticmethod
    def _hops(base: SensorNetwork, rows: str):
        net = network(base.graph, rows)
        hs = build_hierarchy(net, seed=1)
        keys = [(ell, w) for ell in range(hs.h) for w in hs.level_nodes(ell)]
        kept = np.array([hs.default_parent_hop(ell, w) for ell, w in keys])
        oracle = net.pair_distances([(w, hs.default_parent(ell, w)) for ell, w in keys])
        return kept, oracle

    @pytest.mark.parametrize("rows", ROW_STORES)
    def test_bit_identical_on_unit_grids(self, rows):
        kept, oracle = self._hops(grid_network(7, 6), rows)
        assert kept.size and np.array_equal(kept, oracle)

    @pytest.mark.parametrize("rows", ROW_STORES)
    def test_close_on_a_weighted_graph(self, rows):
        kept, oracle = self._hops(random_geometric_network(50, seed=3), rows)
        assert kept.size == oracle.size
        assert all(
            close_to(a, b) for a, b in zip(kept.tolist(), oracle.tolist(), strict=True)
        )


class TestOneSolveBuild:
    """Default parents come off the level pass's own solve; parent sets
    are solved one level at a time on first read."""

    @staticmethod
    def _lazy(base: SensorNetwork) -> SensorNetwork:
        return network(base.graph, "lazy")

    @staticmethod
    def _reference_parent_sets(hs, ref: np.ndarray) -> dict:
        """Uppers within the radius plus the default parent, in ID order."""
        net = hs.net
        out = {}
        for ell in range(hs.h):
            radius = hs.parent_set_radius_factor * 2.0 ** (ell + 1)
            uppers = hs.level_nodes(ell + 1)
            for w in hs.level_nodes(ell):
                dp = hs.default_parent(ell, w)
                out[ell, w] = tuple(
                    u for u in uppers
                    if ref[net.index_of(w), net.index_of(u)] <= radius or u == dp
                )
        return out

    def test_one_limited_solve_per_level_member(self):
        net = self._lazy(grid_network(16, 16))
        hs = build_hierarchy(net, seed=0)
        members = sum(len(hs.level_nodes(ell)) for ell in range(hs.h))
        assert 0 < net.oracle_stats["limited_sssp"] <= members

    def test_parent_sets_cost_no_solve_until_read(self):
        net = self._lazy(grid_network(16, 16))
        default = build_hierarchy(net, seed=0)
        built = net.oracle_stats["limited_sssp"]
        for x in net.nodes:
            default.dpath(x)  # default-parent chains read no parent set
        assert net.oracle_stats["limited_sssp"] == built
        net = self._lazy(net)
        hs = build_hierarchy(net, seed=0, use_parent_sets=True)
        assert net.oracle_stats["limited_sssp"] == built
        hs.parent_set(1, hs.level_nodes(1)[0])
        solved = net.oracle_stats["limited_sssp"]
        assert 0 < solved - built <= len(hs.level_nodes(1))
        for w in hs.level_nodes(1):
            hs.parent_set(1, w)
        assert net.oracle_stats["limited_sssp"] == solved  # each level solved once

    def test_default_build_parent_sets_equal_the_parent_set_build(
        self, grid8, hs_grid8, hs_grid8_parentsets
    ):
        expect = self._reference_parent_sets(hs_grid8, np.asarray(grid8.distance_matrix))
        for (ell, w), ps in expect.items():
            assert hs_grid8.parent_set(ell, w) == hs_grid8_parentsets.parent_set(ell, w) == ps

    def test_parent_sets_on_a_weighted_graph(self):
        net = random_geometric_network(60, seed=3)
        default = build_hierarchy(net, seed=2)
        with_sets = build_hierarchy(self._lazy(net), seed=2, use_parent_sets=True)
        expect = self._reference_parent_sets(default, np.asarray(net.distance_matrix))
        for (ell, w), ps in expect.items():
            assert default.parent_set(ell, w) == with_sets.parent_set(ell, w) == ps

    def test_parent_sets_keep_the_default_parent_below_radius_factor_one(self, grid8):
        hs = build_hierarchy(grid8, seed=1, parent_set_radius_factor=0.25, use_parent_sets=True)
        expect = self._reference_parent_sets(hs, np.asarray(grid8.distance_matrix))
        assert any(len(ps) == 1 for ps in expect.values())
        for (ell, w), ps in expect.items():
            assert hs.parent_set(ell, w) == ps

    @pytest.mark.parametrize("rows", ROW_STORES)
    def test_default_parents_break_ties_to_the_lowest_index(self, rows):
        base = grid_network(12, 12)  # unit grid: equidistant uppers are common
        ref = np.asarray(base.distance_matrix)
        ties = 0
        for seed in (0, 1, 2):
            net = network(base.graph, rows)
            hs = build_hierarchy(net, seed=seed)
            for ell in range(hs.h):
                uppers = [net.index_of(u) for u in hs.level_nodes(ell + 1)]
                for w in hs.level_nodes(ell):
                    d = ref[net.index_of(w), uppers]
                    nearest = np.flatnonzero(d == d.min())
                    ties += len(nearest) > 1
                    assert hs.default_parent(ell, w) == net.node_at(uppers[nearest[0]])
                    assert hs.default_parent_hop(ell, w) == d.min()
        assert ties  # the grid exercised the tie rule


class TestDPath:
    def test_dpath_starts_at_self_ends_at_root(self, hs_grid8):
        for x in (0, 27, 63):
            path = hs_grid8.dpath(x)
            assert path[0] == (HNode(0, x),)
            assert path[-1] == (hs_grid8.root,)

    def test_dpath_single_chain_one_node_per_level(self, hs_grid8):
        for x in (0, 27, 63):
            assert all(len(tier) == 1 for tier in hs_grid8.dpath(x))

    def test_dpath_flat_no_duplicates(self, hs_grid8_parentsets):
        for x in (0, 27, 63):
            flat = hs_grid8_parentsets.dpath_flat(x)
            assert len(flat) == len(set(flat))

    def test_dpath_cached(self, hs_grid8):
        assert hs_grid8.dpath(5) is hs_grid8.dpath(5)

    def test_dpath_length_monotone_in_level(self, hs_grid8):
        lengths = [hs_grid8.dpath_length(17, j) for j in range(hs_grid8.h + 1)]
        assert lengths == sorted(lengths)
        assert lengths[0] == 0.0

    def test_dpath_length_bound_lemma22(self, hs_grid8_parentsets, grid8):
        """Lemma 2.2 shape: length(DPath_j) <= 2^(j + c) for a constant c."""
        hs = hs_grid8_parentsets
        for x in (0, 27, 63):
            for j in range(1, hs.h + 1):
                assert hs.dpath_length(x, j) <= 2 ** (j + 8)


class TestMeetingLevel:
    def test_meeting_level_exists(self, hs_grid8_parentsets):
        assert hs_grid8_parentsets.meeting_level(0, 63) is not None

    def test_meeting_level_bound_lemma21(self, hs_grid8_parentsets, grid8):
        """Lemma 2.1: DPaths of u, v meet by level ceil(log dist)+1 (parent sets)."""
        hs = hs_grid8_parentsets
        pairs = [(0, 1), (0, 9), (10, 37), (0, 63), (7, 56)]
        for u, v in pairs:
            bound = min(hs.h, math.ceil(math.log2(grid8.distance(u, v))) + 1)
            assert hs.meeting_level(u, v) <= bound, (u, v)

    def test_meeting_level_zero_iff_same(self, hs_grid8_parentsets):
        assert hs_grid8_parentsets.meeting_level(5, 5) == 0
        assert hs_grid8_parentsets.meeting_level(5, 6) >= 1


class TestSpecialParents:
    def test_special_level_clamped_at_root(self, hs_grid8):
        assert hs_grid8.special_level(hs_grid8.h) == hs_grid8.h
        assert hs_grid8.special_level(0) == min(hs_grid8.special_parent_gap, hs_grid8.h)

    def test_special_parent_on_own_dpath(self, hs_grid8):
        for x in (0, 27, 63):
            for ell in range(1, hs_grid8.h):
                sp = hs_grid8.special_parent_for(x, ell, 0)
                k = hs_grid8.special_level(ell)
                assert sp.level == k
                assert sp.node in hs_grid8.parent_set_of(x, k)

    def test_special_parent_rank_cycles(self, hs_grid8_parentsets):
        hs = hs_grid8_parentsets
        x = 27
        ell = 1
        size = len(hs.parent_set_of(x, hs.special_level(ell)))
        assert hs.special_parent_for(x, ell, 0) == hs.special_parent_for(x, ell, size)


class TestLoadRoles:
    def test_every_node_has_at_least_bottom_role(self, hs_grid8):
        roles = hs_grid8.load_roles()
        assert all(r >= 1 for r in roles.values())

    def test_total_roles_equals_level_populations(self, hs_grid8):
        roles = hs_grid8.load_roles()
        assert sum(roles.values()) == sum(len(hs_grid8.level_nodes(l)) for l in range(hs_grid8.h + 1))


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
def test_hierarchy_invariants_on_random_grids(rows, cols, seed):
    """Property: structure invariants hold for every grid and seed."""
    net = grid_network(rows, cols)
    hs = build_hierarchy(net, seed=seed)
    assert len(hs.level_nodes(hs.h)) == 1
    for x in net.nodes:
        flat = hs.dpath_flat(x)
        assert flat[0] == HNode(0, x)
        assert flat[-1] == hs.root
        levels = [hn.level for hn in flat]
        assert levels == sorted(levels)
