"""The sparse ball solver behind every radius-limited query.

``SensorNetwork.balls`` runs ``SsspEngine.balls``; its entries must be
exactly the finite entries of scipy's pruned Dijkstra (bit for bit, the
same row-major order, nothing past the limit), one ``limited_sssp`` per
source, and the row store must stay untouched, on both sides of
``DENSE_BALL_ENTRIES`` and whatever the store's capacity.
"""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.graphs import backends
from repro.graphs.backends import DENSE_BALL_ENTRIES
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from tests.graphs.regimes import ROW_STORES, network


def _weighted(graph: nx.Graph, seed: int, lo: float, hi: float) -> nx.Graph:
    rng = np.random.default_rng(seed)
    out = graph.copy()
    for u, v in out.edges():
        out[u][v]["weight"] = float(rng.uniform(lo, hi))
    return out


def _er() -> nx.Graph:
    for seed in range(100):
        g = nx.gnp_random_graph(120, 0.05, seed=seed)
        if nx.is_connected(g):
            return _weighted(g, seed, 0.1, 3.0)
    raise AssertionError("no connected ER sample")


def _geometric_unnormalized() -> nx.Graph:
    g = random_geometric_network(150, seed=2).graph.copy()
    for u, v in g.edges():
        g[u][v]["weight"] *= 100.0
    return g


GRAPHS = {
    "grid": grid_network(12, 12).graph,
    "geometric": _geometric_unnormalized(),
    "er": _er(),
    "tree": _weighted(nx.random_labeled_tree(150, seed=3), 4, 1.0, 2.0),
    "ring": nx.cycle_graph(101),
}


def _reference(net: SensorNetwork, sources: list, limit: float) -> tuple:
    """Finite entries of scipy's pruned Dijkstra, row-major."""
    csr = nx.to_scipy_sparse_array(net.graph, nodelist=list(net.nodes), format="csr")
    idx = [net.index_of(u) for u in sources]
    block = np.atleast_2d(dijkstra(csr, directed=False, indices=idx, limit=limit))
    src, node = np.nonzero(np.isfinite(block))
    return src, node, block[src, node]


def _limits(net: SensorNetwork) -> list[float]:
    """Below the lightest edge, mid-range, and past the diameter."""
    weights = [d["weight"] for _, _, d in net.graph.edges(data=True)]
    ref = net.distances_from(net.node_at(0))  # one exact row, diameter-sized
    return [0.5 * min(weights), float(np.median(ref)), 2.0 * net.diameter_bounds[1]]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_entries_equal_pruned_dijkstra_bit_for_bit(name):
    net = SensorNetwork(GRAPHS[name], normalize=False)
    rng = np.random.default_rng(7)
    sources = [net.node_at(int(i)) for i in rng.choice(net.n, size=12, replace=False)]
    sources += sources[:2]  # a repeated source is answered once per position
    for limit in _limits(net):
        stats = dict(net.oracle_stats)
        src, node, dist = net.balls(sources, limit)
        want_src, want_node, want_dist = _reference(net, sources, limit)
        assert np.array_equal(src, want_src)
        assert np.array_equal(node, want_node)
        assert np.array_equal(dist, want_dist)  # bit for bit, no tolerance
        assert np.all(dist <= limit)
        after = net.oracle_stats
        assert after["limited_sssp"] - stats["limited_sssp"] == len(sources)
        assert after["rows_computed"] == stats["rows_computed"]
        for key in ("row_cache_size", "row_cache_hits", "row_cache_misses"):
            assert after[key] == stats[key]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_full_solves_the_same_entries_without_its_matrix(name):
    lazy = network(GRAPHS[name], "lazy")
    sources = list(lazy.nodes)[::7]
    net = network(GRAPHS[name], "full")
    for limit in _limits(lazy):
        got = net.balls(sources, limit)
        want = lazy.balls(sources, limit)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    stats = net.oracle_stats
    assert stats["limited_sssp"] == 3 * len(sources)  # solved, not read
    assert stats["matrix_materialized"] is False
    assert stats["rows_computed"] == 0


@pytest.mark.parametrize("rows", ROW_STORES)
def test_targets_keep_their_entries_as_positions(rows):
    net = network(GRAPHS["geometric"], rows)
    sources = list(net.nodes)[::5]
    targets = list(net.nodes)[1::3]
    limit = _limits(net)[1]
    src, node, dist = net.balls(sources, limit)
    keep = np.isin(node, [net.index_of(v) for v in targets])
    got = net.balls(sources, limit, targets)
    assert np.array_equal(got[0], src[keep])
    assert np.array_equal(got[1], (node[keep] - 1) // 3)  # position in ``targets``
    assert np.array_equal(got[2], dist[keep])
    # every node in network order is the same as no targets
    same = net.balls(sources, limit, list(net.nodes))
    assert all(np.array_equal(a, b) for a, b in zip(same, (src, node, dist), strict=True))


def test_targets_out_of_network_order_are_rejected():
    net = SensorNetwork(GRAPHS["ring"], normalize=False)
    for targets in ([3, 1], [2, 2]):
        with pytest.raises(ValueError, match="network order"):
            net.balls([0], 5.0, targets)


def test_no_sources_no_entries():
    net = SensorNetwork(GRAPHS["ring"], normalize=False)
    assert all(col.size == 0 for col in net.balls([], 3.0))
    assert net.oracle_stats["limited_sssp"] == 0


@pytest.mark.parametrize("budget", [0, DENSE_BALL_ENTRIES], ids=["frontier", "dense"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_both_sides_of_the_dense_budget_equal_pruned_dijkstra(name, budget, monkeypatch):
    """A chunk within ``DENSE_BALL_ENTRIES`` is one pruned scipy solve, a
    wider one the frontier solver: the same entries either way, with
    and without targets."""
    frontier = backends._frontier_balls
    calls = []
    monkeypatch.setattr(backends, "DENSE_BALL_ENTRIES", budget)
    monkeypatch.setattr(
        backends, "_frontier_balls", lambda *args: calls.append(args[1].size) or frontier(*args)
    )
    net = SensorNetwork(GRAPHS[name], normalize=False)
    rng = np.random.default_rng(11)
    sources = [net.node_at(int(i)) for i in rng.choice(net.n, size=9, replace=False)]
    sources += sources[:1]
    targets = list(net.nodes)[1::3]
    position = {net.index_of(v): k for k, v in enumerate(targets)}
    for limit in _limits(net):
        want_src, want_node, want_dist = _reference(net, sources, limit)
        got = net.balls(sources, limit)
        assert all(np.array_equal(a, b) for a, b in zip(got, (want_src, want_node, want_dist), strict=True))
        keep = np.isin(want_node, list(position))
        src, col, dist = net.balls(sources, limit, targets)
        assert np.array_equal(src, want_src[keep])
        assert np.array_equal(col, [position[j] for j in want_node[keep].tolist()])
        assert np.array_equal(dist, want_dist[keep])
    assert calls == ([len(sources)] * 6 if budget == 0 else [])


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_wide_chunks_take_their_route_from_the_middle_ball(name, monkeypatch):
    """A chunk wider than the dense budget goes to scipy in budget-sized
    sub-chunks when its middle source's ball holds ``n / DENSE_BALL_SHARE``
    nodes or more, and to the frontier solver when it holds fewer: the
    same entries either way."""
    frontier = backends._frontier_balls
    calls = []
    monkeypatch.setattr(
        backends, "_frontier_balls", lambda *args: calls.append(args[1].size) or frontier(*args)
    )
    net = SensorNetwork(GRAPHS[name], normalize=False)
    monkeypatch.setattr(backends, "DENSE_BALL_ENTRIES", 3 * net.n)  # three rows a call
    rng = np.random.default_rng(5)
    sources = [net.node_at(int(i)) for i in rng.choice(net.n, size=10, replace=False)]
    routes = set()
    for limit in _limits(net):
        middle = net.balls(sources[5:6], limit)[0].size
        calls.clear()
        got = net.balls(sources, limit)
        assert all(np.array_equal(a, b) for a, b in zip(got, _reference(net, sources, limit), strict=True))
        small = middle * backends.DENSE_BALL_SHARE < net.n
        assert calls == ([len(sources)] if small else [])
        routes.add(small)
    assert routes == {True, False}


def test_lazy_distance_reads_the_first_endpoints_side():
    """``distance(u, v)`` is read off ``u``'s side, as the dense
    reference's row of ``u`` has it, whatever rows of ``v`` are resident
    and whatever the store's capacity: on this network Dijkstra's sums
    from the two ends differ in the last bit (``d(57, 59)`` among
    them)."""
    for rows in ROW_STORES:
        net = network(GRAPHS["geometric"], rows)
        ref = dijkstra(net._engine.csr, directed=True)
        net.distances_from(59)
        assert net.distance(57, 59) == ref[57, 59]
        cached = list(range(0, 150, 10))
        net.distances_to_many(cached)
        for u in range(1, 150, 7):
            for v in cached:
                assert net.distance(u, v) == ref[u, v]
