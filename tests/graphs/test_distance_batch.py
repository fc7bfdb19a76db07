"""Tests for the batched distance API, the bounded row LRU and the
iterated double-sweep diameter."""

import numpy as np
import pytest

from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork


def _grid_net(side, mode, **kw):
    base = grid_network(side, side)
    return SensorNetwork(base.graph, normalize=False, distance_backend=mode, **kw)


class TestBatchedQueries:
    @pytest.fixture(scope="class")
    def pair(self):
        return _grid_net(6, "full"), _grid_net(6, "lazy")

    def test_distances_to_many_matches_full(self, pair):
        full, lazy = pair
        sources, targets = [0, 7, 35], [1, 2, 30]
        expect = full.distances_to_many(sources, targets)
        assert lazy.distances_to_many(sources, targets) == pytest.approx(expect)
        assert expect.shape == (3, 3)

    def test_distances_to_many_all_targets(self, pair):
        full, lazy = pair
        out = lazy.distances_to_many([3, 9])
        assert out.shape == (2, 36)
        assert out == pytest.approx(full.distances_to_many([3, 9]))

    def test_duplicate_sources_allowed(self, pair):
        _, lazy = pair
        out = lazy.distances_to_many([5, 5, 5], [0, 1])
        assert np.all(out[0] == out[1]) and np.all(out[1] == out[2])

    def test_pairwise_submatrix_symmetric_zero_diag(self, pair):
        _, lazy = pair
        sub = lazy.pairwise_submatrix([0, 10, 20, 30])
        assert sub == pytest.approx(sub.T)
        assert np.all(np.diag(sub) == 0.0)

    def test_limit_prunes_but_is_exact_within(self, pair):
        full, lazy = pair
        fresh = _grid_net(6, "lazy")
        src, node, dist = fresh.balls([0], 3.0)
        ref = full.distances_from(0)
        assert np.all(src == 0)
        # entries for exactly the nodes within the limit, none beyond
        assert np.array_equal(node, np.flatnonzero(ref <= 3.0))
        assert dist == pytest.approx(ref[ref <= 3.0])

    def test_limited_rows_not_cached(self):
        net = _grid_net(6, "lazy")
        net.balls([0, 1], 2.0)
        assert net.oracle_stats["row_cache_size"] == 0
        assert net.oracle_stats["limited_sssp"] == 2

    def test_pair_distances_matches_full(self, pair):
        full, lazy = pair
        pairs = [(0, 7), (35, 1), (7, 0), (2, 2)]
        expect = [full.distance(u, v) for u, v in pairs]
        assert lazy.pair_distances(pairs) == pytest.approx(expect)
        assert full.pair_distances(pairs) == pytest.approx(expect)

    def test_pair_distances_duplicates_free(self):
        net = _grid_net(6, "lazy")
        out = net.pair_distances([(0, 5), (0, 5), (0, 11)])
        assert out[0] == out[1]
        # one batched solve over the single distinct source
        assert net.oracle_stats["rows_computed"] == 1
        assert net.oracle_stats["batched_calls"] == 1

    def test_pair_distances_empty(self, pair):
        _, lazy = pair
        assert lazy.pair_distances([]).size == 0

    def test_consecutive_distances(self, pair):
        full, lazy = pair
        seq = [0, 7, 7, 35, 1]
        out = lazy.consecutive_distances(seq)
        expect = [full.distance(a, b) for a, b in zip(seq, seq[1:], strict=False)]
        assert out == pytest.approx(expect)
        assert lazy.path_length(seq) == pytest.approx(sum(expect))

    def test_consecutive_distances_trivial_seq(self, pair):
        _, lazy = pair
        assert lazy.consecutive_distances([0]).size == 0
        assert lazy.path_length([0]) == 0.0

    def test_batched_call_counted(self):
        net = _grid_net(4, "lazy")
        net.distances_to_many([0, 1], [2, 3])
        assert net.oracle_stats["batched_calls"] == 1

    def test_duplicate_uncached_sources_miss_once(self):
        # regression: duplicated uncached sources used to probe the LRU
        # once per occurrence, inflating the miss count
        net = _grid_net(6, "lazy")
        net.distances_to_many([5, 5, 5], [0, 1])
        stats = net.oracle_stats
        assert stats["row_cache_misses"] == 1
        assert stats["row_cache_hits"] == 0
        assert stats["rows_computed"] == 1
        net.distances_to_many([5, 5], [2])  # now cached: one hit, no miss
        stats = net.oracle_stats
        assert stats["row_cache_misses"] == 1
        assert stats["row_cache_hits"] == 1
        assert stats["rows_computed"] == 1

    def test_uncached_distinct_sources_return_the_reference_block(self):
        ref = np.asarray(_grid_net(6, "full").distance_matrix)
        sources, targets = [3, 0, 35, 17], [1, 30, 2]
        for tgt, expect in ((None, ref[sources]), (targets, ref[np.ix_(sources, targets)])):
            net = _grid_net(6, "lazy")
            assert np.array_equal(net.distances_to_many(sources, tgt), expect)
            stats = net.oracle_stats
            assert stats["row_cache_misses"] == 4 and stats["row_cache_hits"] == 0
            assert stats["rows_computed"] == 4 and stats["limited_sssp"] == 0
            assert stats["batched_calls"] == 1 and stats["row_cache_size"] == 4

    def test_mixed_cached_and_uncached_sources_reuse_cached_rows(self):
        ref = np.asarray(_grid_net(6, "full").distance_matrix)
        net = _grid_net(6, "lazy")
        net.distances_from(7)  # one miss, one solve, now cached
        sources, targets = [7, 0, 7, 20], [1, 2, 3]
        out = net.distances_to_many(sources, targets)
        assert np.array_equal(out, ref[np.ix_(sources, targets)])
        stats = net.oracle_stats
        assert stats["row_cache_hits"] == 1 and stats["row_cache_misses"] == 3
        assert stats["rows_computed"] == 3  # source 7 was not solved again


class TestRowLRU:
    def test_cache_never_exceeds_capacity(self):
        net = _grid_net(6, "lazy", lazy_cache_rows=4)
        for u in range(20):
            net.distances_from(u)
        stats = net.oracle_stats
        assert stats["row_cache_size"] <= 4
        assert stats["row_cache_evictions"] == 16
        assert stats["rows_computed"] == 20

    def test_hits_and_misses_counted(self):
        net = _grid_net(6, "lazy", lazy_cache_rows=8)
        net.distances_from(0)
        net.distances_from(0)
        net.distances_from(1)
        stats = net.oracle_stats
        assert stats["row_cache_hits"] == 1
        assert stats["row_cache_misses"] == 2

    def test_lru_evicts_least_recently_used(self):
        net = _grid_net(6, "lazy", lazy_cache_rows=2)
        a = net.distances_from(0)
        net.distances_from(1)
        assert net.distances_from(0) is a  # still cached (0 refreshed? no: 0,1 fit)
        net.distances_from(2)  # evicts 1 (0 was touched more recently)
        assert net.distances_from(0) is a
        stats = net.oracle_stats
        assert stats["row_cache_size"] == 2

    def test_eviction_keeps_answers_correct(self):
        full = _grid_net(6, "full")
        net = _grid_net(6, "lazy", lazy_cache_rows=1)
        for u in (0, 17, 35, 0):
            assert net.distances_from(u) == pytest.approx(full.distances_from(u))

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            _grid_net(3, "lazy", lazy_cache_rows=0)

    def test_batched_fill_respects_bound(self):
        net = _grid_net(6, "lazy", lazy_cache_rows=4)
        net.distances_to_many(list(range(12)))
        assert net.oracle_stats["row_cache_size"] <= 4


class TestAdjacentDistanceFastPath:
    def test_adjacent_distance_uses_pruned_search(self):
        full = _grid_net(6, "full")
        net = _grid_net(6, "lazy")
        assert net.distance(0, 1) == pytest.approx(full.distance(0, 1))
        stats = net.oracle_stats
        assert stats["limited_sssp"] == 1
        assert stats["rows_computed"] == 0

    def test_adjacent_distance_prefers_cached_row(self):
        net = _grid_net(6, "lazy")
        net.distances_from(0)
        net.distance(0, 1)
        assert net.oracle_stats["limited_sssp"] == 0

    def test_same_node_distance_free(self):
        net = _grid_net(6, "lazy")
        assert net.distance(7, 7) == 0.0
        assert net.oracle_stats["rows_computed"] == 0


class TestDiameter:
    def test_iterated_sweep_exact_on_grids(self):
        for side in (4, 6, 9):
            full, lazy = _grid_net(side, "full"), _grid_net(side, "lazy")
            assert lazy.diameter == pytest.approx(full.diameter)

    def test_iterated_sweep_exact_on_geometric(self):
        for seed in (1, 2, 3):
            base = random_geometric_network(60, seed=seed)
            full = SensorNetwork(base.graph, normalize=False, distance_backend="full")
            lazy = SensorNetwork(base.graph, normalize=False, distance_backend="lazy")
            lo, hi = lazy.diameter_bounds
            assert lo <= full.diameter + 1e-9
            assert hi >= full.diameter - 1e-9

    def test_bounds_bracket_and_full_mode_tight(self):
        full = _grid_net(5, "full")
        lo, hi = full.diameter_bounds
        assert lo == hi == full.diameter
        lazy = _grid_net(5, "lazy")
        lo, hi = lazy.diameter_bounds
        assert lo <= hi <= 2.0 * lo
