"""Weighted sensor-network model (paper §2.1).

A :class:`SensorNetwork` wraps a connected, weighted, undirected
:class:`networkx.Graph` and exposes the primitives every tracking
algorithm in this package relies on:

- exact shortest-path distances ``dist_G(u, v)``, read off exact
  single-source rows that one **row store**
  (:class:`repro.graphs.backends.RowStore`) solves on demand and keeps
  in an LRU: every row up to :attr:`SensorNetwork.LAZY_THRESHOLD`
  nodes, :attr:`SensorNetwork.LAZY_CACHE_ROWS` rows beyond,
- batched distance queries (:meth:`SensorNetwork.distances_to_many`,
  :meth:`SensorNetwork.pairwise_submatrix`,
  :meth:`SensorNetwork.pair_distances`,
  :meth:`SensorNetwork.consecutive_distances`) that resolve many
  sources in one Dijkstra call — the hot path of the trackers,
- radius-limited balls (:meth:`SensorNetwork.balls`, and
  :meth:`SensorNetwork.index_balls` over node indices): every node
  within a radius of each source, as sparse entries — the only query of
  hierarchy construction,
- the network diameter ``D`` (exact while every row fits; beyond, an
  iterated double-sweep estimate with a certified 2-approximation
  upper bound — see :attr:`SensorNetwork.diameter_bounds`),
- ``k``-neighborhoods (all nodes within distance ``k``, boundary nodes
  included up to the :mod:`repro.core.costs` tolerance),
- deterministic integer indexing of nodes (node identifiers are sorted
  once; positional access is by :meth:`SensorNetwork.node_at`).

Radius-limited queries go through :meth:`SensorNetwork.index_balls`
alone (:meth:`SensorNetwork.balls` is its node-level front): sparse
``(source position, node index, distance)`` entries, solved without a
dense row and without touching the row store. The dense queries take
no radius, so no row they return is ever cut off at one.

The network reads the caller's graph in one pass, into arrays: node
indices, the CSR adjacency the solver reads, the checked and
normalized weights. The networkx copy behind :attr:`SensorNetwork.graph`
is made on first read; nothing on the distance or overlay path reads it.

Edge weights are *distances* between adjacent sensors, not detection
rates (the paper is explicit about this distinction). Following §2.1 the
weights are normalized so the shortest edge has length 1; all cost-ratio
bounds are then independent of the deployment's physical scale.
"""

from __future__ import annotations

from itertools import chain, compress
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.graphs.backends import RowStore, SsspEngine, _ball_cutoff
from repro.perf import PERF

Node = Hashable

__all__ = ["SensorNetwork", "Node"]


def _edge_weights(graph: nx.Graph, raw: Sequence[object]) -> np.ndarray:
    """The edges' weights as float64, each one checked positive.

    A weight ``float`` cannot read, or one at or below 0, raises what
    the per-edge loop this replaces raised for the first such edge:
    that loop runs again over ``graph``'s edges to find it.
    """
    try:
        weight = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
    except (TypeError, ValueError):
        weight = None
    if weight is None or np.any(weight <= 0):
        for u, v, x in graph.edges(data="weight", default=1.0):
            w = float(x)
            if w <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
    assert weight is not None
    return weight


def _edge_columns(
    graph: nx.Graph, index: Mapping[Node, int]
) -> tuple[np.ndarray, np.ndarray, Sequence[object]]:
    """Head and tail indices and raw weights of ``graph``'s edges, in
    the order ``graph.edges(data="weight", default=1.0)`` yields them.

    A simple graph is read off ``graph.adjacency()`` as columns:
    ``edges()`` yields each edge once, from whichever end the adjacency
    reaches first (a self-loop from its node), so the entries whose
    tail comes no earlier than their head are its edges in its order.
    A multigraph's adjacency nests a dict per edge key; it is read
    through ``edges()``.
    """
    if graph.is_multigraph():
        edges = list(graph.edges(data="weight", default=1.0))
        heads, tails, raw = zip(*edges) if edges else ((), (), ())
        u = np.fromiter(map(index.__getitem__, heads), dtype=np.int64, count=len(edges))
        v = np.fromiter(map(index.__getitem__, tails), dtype=np.int64, count=len(edges))
        return u, v, raw
    order, nbrs = zip(*graph.adjacency())
    n = len(order)
    deg = np.fromiter(map(len, nbrs), dtype=np.int64, count=n)
    tails = np.fromiter(
        map(index.__getitem__, chain.from_iterable(nbrs)), dtype=np.int64, count=int(deg.sum())
    )
    at = np.repeat(np.arange(n), deg)  # each entry's head, as an adjacency position
    heads = np.fromiter(map(index.__getitem__, order), dtype=np.int64, count=n)
    position = np.empty(n, dtype=np.int64)
    position[heads] = np.arange(n)
    keep = position[tails] >= at
    data = compress(chain.from_iterable(nbr.values() for nbr in nbrs), keep.tolist())
    return heads[at[keep]], tails[keep], [d.get("weight", 1.0) for d in data]


class SensorNetwork:
    """A static sensor network ``G = (V, E, w)``.

    Parameters
    ----------
    graph:
        Connected undirected graph. Edge attribute ``weight`` holds the
        inter-sensor distance; missing weights default to 1.0. It is
        never changed; :attr:`graph` copies it on first read.
    positions:
        Optional mapping node -> (x, y) used by geometric constructions
        (Z-DAT zones) and plotting. Generators in
        :mod:`repro.graphs.generators` always provide positions.
    normalize:
        If true (default), rescale all weights so the minimum edge
        weight is exactly 1 (paper §2.1).
    lazy_cache_rows:
        Capacity of the exact row store, in rows of ``n`` floats. The
        default keeps every row up to :attr:`LAZY_THRESHOLD` nodes, so
        nothing is evicted, the first row a dense query keeps solves
        them all in one call, and :attr:`distance_matrix` and
        :attr:`diameter` are exact; beyond it :attr:`LAZY_CACHE_ROWS`
        rows, solved as they are missed, and the matrix is refused. Components that need
        the whole matrix (doubling-dimension estimation, sparse covers)
        say so.

    Raises
    ------
    ValueError
        If the graph is empty, disconnected, has a non-positive edge
        weight, or ``lazy_cache_rows`` is below 1.
    """

    #: the row store keeps every row up to this many nodes
    LAZY_THRESHOLD = 2048
    #: row-store capacity past :attr:`LAZY_THRESHOLD` (rows of n floats each)
    LAZY_CACHE_ROWS = 256

    def __init__(
        self,
        graph: nx.Graph,
        positions: dict[Node, tuple[float, float]] | None = None,
        normalize: bool = True,
        lazy_cache_rows: int | None = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("sensor network must have at least one node")
        if graph.is_directed():
            # what ``nx.is_connected`` raises for a directed graph
            raise nx.NetworkXNotImplemented("not implemented for directed type")
        with PERF.timer("graphs.ingest"):
            self._ingest(graph, normalize)
        self._index_proxy: Mapping[Node, int] | None = None
        self._all_idx = list(range(len(self._nodes)))
        self._graph: nx.Graph | None = None

        self._positions = dict(positions) if positions else None
        n = len(self._nodes)
        if lazy_cache_rows is None:
            lazy_cache_rows = n if n <= self.LAZY_THRESHOLD else self.LAZY_CACHE_ROWS
        self._engine = SsspEngine(self._csr)
        self._rows = RowStore(self._engine, lazy_cache_rows)
        self._diameter_bounds: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def _ingest(self, graph: nx.Graph, normalize: bool) -> None:
        """Index the nodes and read the edges into the CSR, in one pass.

        The pass (:func:`_edge_columns`) yields the endpoints as index
        columns and the weights, which are checked and normalized as one
        array, all in ``edges(data="weight", default=1.0)`` order;
        connectivity is one ``connected_components`` call on the
        columns. The CSR is the one a per-edge build makes: both
        directions of every edge, interleaved in edge order, summed by
        scipy's COO conversion.
        """
        # Deterministic node ordering: sort by (type name, repr) so mixed
        # id types (rare) still order stably, plain ints/strs sort naturally.
        try:
            self._nodes: list[Node] = sorted(graph)
        except TypeError:
            self._nodes = sorted(graph, key=repr)
        n = len(self._nodes)
        self._index: dict[Node, int] = dict(zip(self._nodes, range(n)))
        u, v, raw = _edge_columns(graph, self._index)
        m = len(raw)
        links = csr_matrix((np.ones(m), (u, v)), shape=(n, n))
        if connected_components(links, directed=False, return_labels=False) != 1:
            raise ValueError("sensor network must be connected (paper §2.1)")
        weight = _edge_weights(graph, raw)
        if normalize and m > 0:
            # function-level import: repro.core imports this module at
            # package init, so a top-level import would be circular
            from repro.core.costs import close_to

            min_w = float(weight.min())
            if not close_to(min_w, 1.0):
                weight = weight / min_w
        self._source = graph
        self._weights = weight
        rows = np.column_stack((u, v)).ravel()
        cols = np.column_stack((v, u)).ravel()
        self._csr = csr_matrix((np.repeat(weight, 2), (rows, cols)), shape=(n, n))

    @property
    def graph(self) -> nx.Graph:
        """The underlying (normalized) networkx graph.

        A copy of the graph the network was built from, carrying the
        network's own weights (floats, normalized), made on first read:
        distances and the overlay never need it. The caller's graph is
        never changed, but it is read again for this copy, so change it
        only after reading ``graph`` once (or hand over a copy).
        """
        if self._graph is None:
            g = self._source.copy()
            for (_, _, data), w in zip(g.edges(data=True), self._weights.tolist(), strict=True):
                data["weight"] = w
            self._graph = g
        return self._graph

    @property
    def n(self) -> int:
        """Number of sensor nodes ``n = |V|``."""
        return len(self._nodes)

    @property
    def nodes(self) -> Sequence[Node]:
        """All node identifiers in deterministic (sorted) order."""
        return tuple(self._nodes)

    def node_at(self, index: int) -> Node:
        """Node identifier at deterministic position ``index``."""
        return self._nodes[index]

    def index_of(self, node: Node) -> int:
        """Deterministic integer index of ``node`` (inverse of :meth:`node_at`)."""
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"{node!r} is not a node of this network") from None

    @property
    def index_map(self) -> "Mapping[Node, int]":
        """Read-only node-to-index mapping.

        Hot loops (the columnar batch engine validates every op's node)
        test membership and resolve indices against this directly — a
        C-level dict probe instead of a Python method call per element.
        """
        if self._index_proxy is None:
            self._index_proxy = MappingProxyType(self._index)
        return self._index_proxy

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def neighbors(self, node: Node) -> list[Node]:
        """Adjacent sensors of ``node`` (an object can move directly between them)."""
        return sorted(self.graph.neighbors(node), key=self.index_of)

    def degree(self, node: Node) -> int:
        """Number of adjacent sensors."""
        return self.graph.degree(node)

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight (distance) of edge ``(u, v)``."""
        return float(self.graph[u][v]["weight"])

    def position(self, node: Node) -> tuple[float, float]:
        """Geographic position of ``node``.

        Raises :class:`KeyError` when the network carries no positions.
        """
        if self._positions is None:
            raise KeyError("this network has no position information")
        return self._positions[node]

    @property
    def has_positions(self) -> bool:
        """Whether geographic positions are available for all nodes."""
        return self._positions is not None

    # ------------------------------------------------------------------
    # distances (exact rows from the row store, balls from the solver)
    # ------------------------------------------------------------------
    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distance matrix, indexed like :meth:`node_at`.

        Stacked once from the row store, its missing rows solved in one
        call; O(n^2) memory. Refused (``RuntimeError``) when the store
        cannot keep all ``n`` rows: past :attr:`LAZY_THRESHOLD` nodes by
        default.
        """
        return self._rows.matrix()

    def distance(self, u: Node, v: Node) -> float:
        """Shortest-path distance ``dist_G(u, v)``, read off ``u``'s side only.

        ``u``'s resident row when there is one, else ``u``'s row, solved
        and kept. A row store that evicts answers *adjacent* ``u, v``
        off the ball of ``u`` at the connecting edge's weight instead
        (exact, touches only a small ball, evicts no row for a
        throwaway pair).
        """
        return self._rows.pair(self._index[u], self._index[v])

    def distances_from(self, u: Node) -> np.ndarray:
        """Vector of shortest-path distances from ``u`` to every node (by index).

        The row is solved by single-source Dijkstra on first use and
        kept in the row store (capacity ``lazy_cache_rows``), so memory
        stays ``O(capacity · n)`` however many distinct sources a long
        workload touches.
        """
        return self._rows.row(self._index[u])

    def distances_to_many(
        self, sources: Sequence[Node], targets: Sequence[Node] | None = None
    ) -> np.ndarray:
        """Batched distances: one row per source, one column per target.

        All uncached source rows are resolved in a **single** Dijkstra
        call instead of one scipy call per source. Returns a dense
        ``(len(sources), len(targets))`` array of exact distances
        (``targets=None`` means every node, matrix-indexed) — callers
        iterating large source sets should chunk to bound the transient
        allocation. Radius-limited questions go to :meth:`balls`.
        """
        block = self._rows.rows([self._index[u] for u in sources])
        if targets is None:
            return block
        tgt_idx = [self._index[v] for v in targets]
        if tgt_idx == self._all_idx:
            return block  # identity column selection — the rows suffice
        # ``take`` keeps the selection row-major; ``block[:, cols]`` would
        # return a column-major copy, several times slower to build and scan
        return np.take(block, tgt_idx, axis=1)

    def pairwise_submatrix(self, nodes: Sequence[Node]) -> np.ndarray:
        """Distances among a node subset, ``out[a, b] = dist(nodes[a], nodes[b])``."""
        return self.distances_to_many(nodes, nodes)

    def balls(
        self, sources: Sequence[Node], limit: float, targets: Sequence[Node] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node within ``limit`` of each source, as sparse entries.

        Returns three columns ``(source position, column, distance)``:
        one entry per node at distance ``<= limit`` (scipy's inclusive
        pruning) from ``sources[position]``, the source itself included
        at 0, sorted by source position, then column. The column is the
        node index; with ``targets`` (distinct nodes in network order)
        only their entries are kept and the column is the position in
        ``targets``. Nothing past the limit is stored, so memory follows
        the balls, not ``len(sources) · n``. A sparse Dijkstra that
        bypasses the row store (one ``limited_sssp`` per source). The
        node-level front of :meth:`index_balls`.
        """
        src_idx = [self._index[u] for u in sources]
        columns = None
        if targets is not None:
            tgt_idx = [self._index[v] for v in targets]
            if tgt_idx != self._all_idx:  # every node in order: the node index is the column
                if np.any(np.diff(tgt_idx) <= 0):
                    raise ValueError("ball targets must be distinct nodes in network order")
                columns = self.ball_columns(np.asarray(tgt_idx, dtype=np.int64))
        return self.index_balls(src_idx, limit, columns)

    def index_balls(
        self, sources: np.ndarray, limit: float, columns: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`balls` from node *indices*, against a prebuilt target map.

        ``columns`` is :meth:`ball_columns` of the targets, or ``None``
        for every node. Callers that query one target set chunk by chunk
        (the level pass, the parent sets, the batch engine's SDL-hop
        table) translate their nodes and build the map once.
        """
        src, node, dist = self._engine.balls(sources, limit)
        if columns is None:
            return src, node, dist
        col = columns[node]
        keep = np.flatnonzero(col >= 0)
        return src[keep], col[keep], dist[keep]

    def ball_columns(self, targets: np.ndarray) -> np.ndarray:
        """The ``columns`` map of :meth:`index_balls` for ``targets``
        (distinct node indices in increasing order): each target's
        position, ``-1`` for every other node."""
        columns = np.full(self.n, -1, dtype=np.int64)
        columns[targets] = np.arange(len(targets))
        return columns

    @property
    def lightest_edge(self) -> float:
        """The lightest weight the CSR holds between two distinct nodes
        (parallel edges summed, self-loops left out); ``inf`` with none."""
        m = self._csr
        off = np.repeat(np.arange(self.n), np.diff(m.indptr)) != m.indices
        return float(m.data[off].min()) if off.any() else float("inf")

    def edges_below(self, limit: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, w)`` of every CSR entry with ``i != j`` and ``w < limit``,
        row-major: both directions of each edge lighter than ``limit``.

        While ``limit`` is at most twice :attr:`lightest_edge`, every
        path of two or more edges is at least ``limit`` long, so these
        are exactly the pairs closer than ``limit`` and each ``w`` is
        the distance Dijkstra stores (``0 + w``): the level pass reads
        ``E_0`` here instead of solving a ball per node.
        """
        m = self._csr
        head = np.repeat(np.arange(self.n), np.diff(m.indptr))
        keep = np.flatnonzero((m.data < limit) & (head != m.indices))
        return head[keep], m.indices[keep].astype(np.int64), m.data[keep]

    def pair_distances(self, pairs: Sequence[tuple[Node, Node]]) -> np.ndarray:
        """``[dist(u, v) for u, v in pairs]`` resolved in one batched call.

        The batched replacement for per-pair :meth:`distance` loops
        (lint rule RPL001): each distance is read off its first
        element's row (:meth:`pair_index_distances`), so ``k`` pairs
        cost one multi-source solve over the distinct sources instead
        of up to ``k`` independent row computations. Duplicate pairs and
        repeated endpoints are free. The solved rows are kept.
        """
        if not pairs:
            return np.empty(0)
        index = self._index
        return self._rows.pairs([index[u] for u, _ in pairs], [index[v] for _, v in pairs])

    def pair_index_distances(self, pairs: np.ndarray) -> np.ndarray:
        """``dist(i, j)`` for each row ``(i, j)`` of a ``(k, 2)`` array of
        node *indices*, read off ``i``'s exact row.

        The batch engine resolves its pending optima here when its
        ledger is read. Resident rows are read; the other distinct
        sources are solved in chunks whose rows fit in
        :data:`repro.graphs.backends.DENSE_BALL_ENTRIES`, and none of
        them is kept, so a read holds one chunk of rows at a time.
        """
        if len(pairs) == 0:
            return np.empty(0)
        return self._rows.pairs(pairs[:, 0].tolist(), pairs[:, 1].tolist(), keep=False)

    def consecutive_distances(self, seq: Sequence[Node]) -> np.ndarray:
        """``[dist(seq[0], seq[1]), dist(seq[1], seq[2]), ...]`` in one batch.

        The distance profile of a message's physical visit sequence
        (detection paths, spine walks). Delegates to
        :meth:`pair_distances` over the consecutive pairs, so all unique
        sources resolve in a single batched call; duplicates in ``seq``
        are free.
        """
        if len(seq) < 2:
            return np.empty(0)
        return self.pair_distances(list(zip(seq[:-1], seq[1:], strict=True)))

    def path_length(self, seq: Sequence[Node]) -> float:
        """Total length of the visit sequence ``seq`` (sum of hops)."""
        return float(self.consecutive_distances(seq).sum())

    @property
    def total_weight(self) -> float:
        """Sum of the (normalized) edge weights.

        A shortest path uses each edge at most once, so this bounds the
        diameter from above with no solve: the level pass sizes its
        safety cap from it.
        """
        return float(self._weights.sum())

    @property
    def diameter(self) -> float:
        """Maximum shortest-path distance over all node pairs (``D``, §2.1).

        Exact while the row store keeps every row. Beyond, the double
        sweep iterated to a fixed point: sweep from the farthest node
        found so far until the eccentricity stops growing (exact on
        trees, empirically exact on grids/disks, never more than a
        factor 2 below ``D`` in general — see :attr:`diameter_bounds`
        for the certified bracket).
        """
        return self.diameter_bounds[0]

    @property
    def diameter_bounds(self) -> tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the true diameter.

        ``(D, D)`` off :attr:`distance_matrix` while the row store keeps
        every row. Beyond, the iterated double-sweep estimate and twice
        it: every sweep value is a real eccentricity ``e``, and
        ``D ≤ 2e`` by the triangle inequality. Anything sizing level
        counts or search radii off the diameter must use the **upper**
        bound — the estimate itself can under-shoot (that truncated
        ``build_levels`` hierarchies before this bracket existed).
        """
        if self._diameter_bounds is None:
            self._diameter_bounds = self._rows.diameter_bounds()
        return self._diameter_bounds

    def shortest_path(self, u: Node, v: Node) -> list[Node]:
        """One shortest path from ``u`` to ``v`` as a list of nodes."""
        return nx.shortest_path(self.graph, u, v, weight="weight")

    def k_neighborhood(self, node: Node, k: float) -> list[Node]:
        """All nodes within distance ``k`` of ``node``, including ``node`` (§2.1).

        Membership is decided with the :mod:`repro.core.costs`
        tolerance, so a node at *exactly* distance ``k`` whose value
        picked up float noise during weight normalization is never
        dropped (the ``dists <= k`` comparison this replaced could).
        It reads :meth:`balls` at radius ``k`` (plus the tolerance): a
        sparse solve that only explores the ball it reports, which on
        big networks is far cheaper than a full row.
        """
        hits = self._engine.balls([self._index[node]], _ball_cutoff(k))[1]
        return [self._nodes[i] for i in hits]

    @property
    def oracle_stats(self) -> dict[str, int | bool]:
        """Counters describing distance-oracle pressure on this network.

        ``row_cache_*`` report the row store (hits/misses include every
        row lookup, batched or not — duplicate sources in one batched
        call count once); ``rows_computed`` counts exact single-source
        Dijkstra solves, ``limited_sssp`` the sources of sparse
        :meth:`balls` solves, ``batched_calls`` the batched row lookups;
        ``matrix_materialized`` whether :attr:`distance_matrix` has been
        stacked.
        """
        return {"n": self.n, **self._rows.stats()}

    def closest(self, node: Node, candidates: Iterable[Node]) -> Node:
        """Candidate closest to ``node``; ties broken by node index (paper:
        "breaking ties arbitrarily" — we pick deterministically)."""
        dists = self.distances_from(node)
        best: Node | None = None
        best_key: tuple[float, int] | None = None
        for c in candidates:
            key = (float(dists[self._index[c]]), self._index[c])
            if best_key is None or key < best_key:
                best, best_key = c, key
        if best is None:
            raise ValueError("candidates must be non-empty")
        return best

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SensorNetwork(n={self.n}, m={len(self._weights)}, "
            f"positions={self._positions is not None})"
        )
