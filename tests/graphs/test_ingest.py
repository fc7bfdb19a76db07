"""The one-pass ingest behind ``SensorNetwork``.

The network reads the caller's graph once into arrays. Everything it
builds from them must equal what the per-edge build made: the CSR
(indptr, indices and data, byte for byte), the normalized copy behind
``.graph`` (made on first read now), and the exceptions bad inputs
raise. ``_per_edge_build`` is that build, kept here as the reference.
"""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.core.costs import close_to
from repro.graphs import generators
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import build_hierarchy


def _per_edge_build(graph: nx.Graph, normalize: bool) -> tuple[nx.Graph, csr_matrix]:
    """The eager copy and the edge-by-edge CSR of the per-edge build."""
    if graph.number_of_nodes() == 0:
        raise ValueError("sensor network must have at least one node")
    if not nx.is_connected(graph):
        raise ValueError("sensor network must be connected (paper §2.1)")
    g = graph.copy()
    for u, v, data in g.edges(data=True):
        w = float(data.get("weight", 1.0))
        if w <= 0:
            raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
        data["weight"] = w
    if normalize and g.number_of_edges() > 0:
        min_w = min(d["weight"] for _, _, d in g.edges(data=True))
        if not close_to(min_w, 1.0):
            for _, _, d in g.edges(data=True):
                d["weight"] = d["weight"] / min_w
    try:
        nodes = sorted(g.nodes())
    except TypeError:
        nodes = sorted(g.nodes(), key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for u, v, data in g.edges(data=True):
        i, j = index[u], index[v]
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((data["weight"], data["weight"]))
    return g, csr_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes)))


def _scaled(graph: nx.Graph, factor: float) -> nx.Graph:
    out = graph.copy()
    for _, _, d in out.edges(data=True):
        d["weight"] *= factor
    return out


def _random_weights(graph: nx.Graph, seed: int) -> nx.Graph:
    rng = np.random.default_rng(seed)
    out = graph.copy()
    for u, v in out.edges():
        out[u][v]["weight"] = float(rng.uniform(0.3, 4.0))
    return out


def _labelled() -> nx.Graph:
    """Tuple labels, random weights, attributes, a missing weight."""
    g = _random_weights(nx.grid_2d_graph(5, 6), 1)
    g.graph["name"] = "labelled"
    g.nodes[(0, 0)]["color"] = "red"
    g[(2, 2)][(2, 3)]["kind"] = "bridge"
    del g[(4, 4)][(4, 5)]["weight"]
    return g


def _odd() -> nx.MultiGraph:
    """Parallel edges and a self-loop: summed in the CSR, twice for the loop."""
    g = nx.MultiGraph()
    g.add_edge("a", "b", weight=2.0)
    g.add_edge("a", "b", weight=0.7)
    g.add_edge("b", "c", weight=1.3)
    g.add_edge("c", "c", weight=0.9)
    return g


GRAPHS = {
    "grid": generators.grid_network(9, 7).graph,
    "diagonal": generators.grid_network(6, 8, diagonal=True).graph,
    "ring": generators.ring_network(31).graph,
    "line": generators.line_network(12).graph,
    "star": generators.star_network(15).graph,
    "geometric": generators.random_geometric_network(120, seed=3).graph,
    "erdos-renyi": generators.erdos_renyi_network(70, seed=2).graph,
    "tree": generators.random_tree_network(50, seed=4).graph,
    "geometric-x3.7": _scaled(generators.random_geometric_network(120, seed=5).graph, 3.7),
    "tuple-labelled": _labelled(),
    "str-labelled": nx.relabel_nodes(_labelled(), lambda v: f"s{v[0]}-{v[1]}"),
    "mixed-labels": nx.relabel_nodes(generators.line_network(6).graph, {0: "zero", 3: (3,)}),
    "multigraph-self-loop": _odd(),
    "single-node": nx.empty_graph(1),
}


def _edges(g: nx.Graph) -> list:
    if g.is_multigraph():
        return list(g.edges(keys=True, data=True))
    return list(g.edges(data=True))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_csr_and_fingerprint_equal_the_per_edge_build(name, normalize):
    graph = GRAPHS[name]
    _, want = _per_edge_build(graph, normalize)
    net = SensorNetwork(graph, normalize=normalize)
    got = net._engine.csr
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_equals_the_eager_copy(name, normalize):
    graph = GRAPHS[name]
    want, _ = _per_edge_build(graph, normalize)
    got = SensorNetwork(graph, normalize=normalize).graph
    assert type(got) is type(want)
    assert got.graph == want.graph
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    assert _edges(got) == _edges(want)  # order, attributes and weights
    assert all(type(d["weight"]) is float for *_, d in _edges(got))
    assert got is not graph


class _CountingGraph(nx.Graph):
    def __init__(self, incoming_graph_data=None, **attr):
        super().__init__(incoming_graph_data, **attr)
        self.copies = 0

    def copy(self, as_view=False):
        self.copies += 1
        return super().copy(as_view=as_view)


def test_graph_is_copied_on_first_read_only():
    graph = _CountingGraph(generators.grid_network(8, 8).graph)
    net = SensorNetwork(graph, normalize=False)
    hs = build_hierarchy(net, seed=3)
    net.distance(0, 63)
    net.k_neighborhood(9, 2.0)
    hs.parent_set_of(5, 2)
    assert graph.copies == 0  # distances and the overlay never need it
    first = net.graph
    assert net.graph is first
    assert graph.copies == 1
    assert net.neighbors(9) == [1, 8, 10, 17]


def _bad_inputs() -> dict[str, nx.Graph]:
    def path(*weights):
        g = nx.path_graph(len(weights) + 1)
        for (u, v), w in zip(g.edges(), weights, strict=True):
            g[u][v]["weight"] = w
        return g

    disconnected = path(1.0, -2.0)
    disconnected.add_node(99)
    return {
        "empty": nx.Graph(),
        "disconnected": disconnected,
        "zero": path(1.0, 0.0, 2.0),
        "negative-then-text": path(1.0, -1.0, "abc"),
        "text-then-negative": path(1.0, "abc", -1.0),
        "none": path(None, 1.0),
        "numeric-text": path("2.5", 1.0),
        "complex": path(1.0, 1j),
        "nan": path(1.0, float("nan")),
    }


def _outcome(build) -> tuple:
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return None, None


@pytest.mark.parametrize("name", sorted(_bad_inputs()))
def test_bad_inputs_raise_as_before_and_are_not_mutated(name):
    graph = _bad_inputs()[name]
    before = (list(graph.nodes(data=True)), [(u, v, dict(d)) for u, v, d in graph.edges(data=True)])
    got = _outcome(lambda: SensorNetwork(graph))
    want = _outcome(lambda: _per_edge_build(graph, True))
    assert got == want
    after = (list(graph.nodes(data=True)), [(u, v, dict(d)) for u, v, d in graph.edges(data=True)])
    assert repr(after) == repr(before)  # repr: a NaN weight is not == itself


def test_directed_graph_rejected_as_before():
    graph = nx.DiGraph([(0, 1), (1, 0)])
    with pytest.raises(nx.NetworkXNotImplemented) as got:
        SensorNetwork(graph)
    with pytest.raises(nx.NetworkXNotImplemented) as want:
        nx.is_connected(graph)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_input_graph_is_not_mutated(name):
    graph = GRAPHS[name]
    before = _edges(graph), list(graph.nodes(data=True)), dict(graph.graph)
    net = SensorNetwork(graph, normalize=True)
    net.graph  # the copy is where the weights are rewritten
    assert (_edges(graph), list(graph.nodes(data=True)), dict(graph.graph)) == before
