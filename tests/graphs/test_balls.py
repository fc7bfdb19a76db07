"""The sparse ball solver behind every radius-limited query.

``SensorNetwork.balls`` on a row-backed backend runs
``SsspEngine.balls``; its entries must be exactly the finite entries of
scipy's pruned Dijkstra (bit for bit, the same row-major order, nothing
past the limit), one ``limited_sssp`` per source, and the row cache
must stay untouched, on both sides of ``DENSE_BALL_ENTRIES``. The
``full`` backend reads the same entries off its matrix.
"""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.graphs import backends
from repro.graphs.backends import DENSE_BALL_ENTRIES
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork


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
    ref = net.distances_from(net.node_at(0))  # lazy: one exact row, diameter-sized
    return [0.5 * min(weights), float(np.median(ref)), 2.0 * net.diameter_bounds[1]]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_entries_equal_pruned_dijkstra_bit_for_bit(name):
    net = SensorNetwork(GRAPHS[name], normalize=False, distance_backend="lazy")
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
def test_matrix_backends_read_the_same_entries(name):
    lazy = SensorNetwork(GRAPHS[name], normalize=False, distance_backend="lazy")
    sources = list(lazy.nodes)[::7]
    net = SensorNetwork(GRAPHS[name], normalize=False, distance_backend="full")
    for limit in _limits(lazy):
        got = net.balls(sources, limit)
        want = lazy.balls(sources, limit)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert net.oracle_stats["limited_sssp"] == 0  # read, not solved


@pytest.mark.parametrize("mode", ["lazy", "full"])
def test_targets_keep_their_entries_as_positions(mode):
    net = SensorNetwork(GRAPHS["geometric"], normalize=False, distance_backend=mode)
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
    net = SensorNetwork(GRAPHS["ring"], normalize=False, distance_backend="lazy")
    for targets in ([3, 1], [2, 2]):
        with pytest.raises(ValueError, match="network order"):
            net.balls([0], 5.0, targets)


def test_no_sources_no_entries():
    net = SensorNetwork(GRAPHS["ring"], normalize=False, distance_backend="lazy")
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
    net = SensorNetwork(GRAPHS[name], normalize=False, distance_backend="lazy")
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
