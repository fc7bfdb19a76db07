"""Weighted sensor-network model (paper §2.1).

A :class:`SensorNetwork` wraps a connected, weighted, undirected
:class:`networkx.Graph` and exposes the primitives every tracking
algorithm in this package relies on:

- exact shortest-path distances ``dist_G(u, v)`` answered by a
  pluggable **distance backend** (:mod:`repro.graphs.backends`):
  ``"full"`` precomputes the all-pairs matrix, ``"lazy"`` keeps exact
  single-source rows in a bounded LRU,
- batched distance queries (:meth:`SensorNetwork.distances_to_many`,
  :meth:`SensorNetwork.pairwise_submatrix`,
  :meth:`SensorNetwork.pair_distances`,
  :meth:`SensorNetwork.consecutive_distances`) that resolve many
  sources in one Dijkstra call — the hot path of the trackers,
- radius-limited balls (:meth:`SensorNetwork.balls`): every node within
  a radius of each source, as sparse entries — the only query of
  hierarchy construction,
- the network diameter ``D`` (exact in matrix-backed modes; an iterated
  double-sweep estimate with a certified 2-approximation upper bound
  in row-backed modes — see :attr:`SensorNetwork.diameter_bounds`),
- ``k``-neighborhoods (all nodes within distance ``k``, boundary nodes
  included up to the :mod:`repro.core.costs` tolerance),
- deterministic integer indexing of nodes (node identifiers are sorted
  once; positional access is by :meth:`SensorNetwork.node_at`).

Radius-limited queries go through :meth:`SensorNetwork.balls` alone:
sparse ``(source position, node index, distance)`` entries, read off
the matrix by ``full`` and solved without a dense row or a row cache by
``lazy``. The dense queries take no radius, so no row they return is
ever cut off at one.

The network reads the caller's graph in one pass, into arrays: node
indices, the CSR adjacency every backend shares, the checked and
normalized weights. The networkx copy behind :attr:`SensorNetwork.graph`
is made on first read; nothing on the distance or overlay path reads it.

Edge weights are *distances* between adjacent sensors, not detection
rates (the paper is explicit about this distinction). Following §2.1 the
weights are normalized so the shortest edge has length 1; all cost-ratio
bounds are then independent of the deployment's physical scale.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.graphs.backends import (
    DistanceBackend,
    SsspEngine,
    make_backend,
)
from repro.perf import PERF

Node = Hashable

__all__ = ["SensorNetwork", "Node"]


def _edge_weights(heads: Sequence[Node], tails: Sequence[Node], raw: Sequence[object]) -> np.ndarray:
    """The edges' weights as float64, each one checked positive.

    A weight ``float`` cannot read, or one at or below 0, raises what
    the per-edge loop this replaces raised for the first such edge:
    that loop runs again to find it.
    """
    try:
        weight = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
    except (TypeError, ValueError):
        weight = None
    if weight is None or np.any(weight <= 0):
        for u, v, x in zip(heads, tails, raw, strict=True):
            w = float(x)
            if w <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
    assert weight is not None
    return weight


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
        Capacity of the exact row cache (default
        :data:`LAZY_CACHE_ROWS`). Memory is ``capacity · n`` floats;
        unused by the ``full`` backend.
    distance_backend:
        Any name in :data:`repro.graphs.backends.BACKEND_NAMES` —
        ``"full"`` precomputes the all-pairs matrix (O(n²) memory,
        fastest repeated queries); ``"lazy"`` computes single-source
        rows on demand and keeps the most recent ones in a bounded LRU
        (scales to hundreds of thousands of sensors) — or ``"auto"``
        (default), which picks ``full`` up to :data:`LAZY_THRESHOLD`
        nodes and ``lazy`` beyond. Components that genuinely need the
        whole matrix (doubling-dimension estimation, sparse covers)
        require ``full`` and say so.

    Raises
    ------
    ValueError
        If the graph is empty, disconnected, has a non-positive edge
        weight, or the requested backend is unknown.
    """

    #: "auto" switches from the precomputed matrix to lazy rows here
    LAZY_THRESHOLD = 2048
    #: default lazy-mode row-cache capacity (rows of n floats each)
    LAZY_CACHE_ROWS = 256

    def __init__(
        self,
        graph: nx.Graph,
        positions: dict[Node, tuple[float, float]] | None = None,
        normalize: bool = True,
        lazy_cache_rows: int | None = None,
        distance_backend: str = "auto",
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
        name = distance_backend
        if name == "auto":
            name = "full" if len(self._nodes) <= self.LAZY_THRESHOLD else "lazy"
        self._engine = SsspEngine(self._csr)
        self._backend: DistanceBackend = make_backend(
            name,
            self._engine,
            len(self._nodes),
            self.LAZY_CACHE_ROWS if lazy_cache_rows is None else lazy_cache_rows,
        )
        self._diameter_bounds: tuple[float, float] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def _ingest(self, graph: nx.Graph, normalize: bool) -> None:
        """Index the nodes and read the edges into the CSR, in one pass.

        The pass over ``edges(data="weight", default=1.0)`` yields the
        endpoints, which become index columns, and the weights, which
        are checked and normalized as one array; connectivity is one
        ``connected_components`` call on those columns. The CSR is the
        one a per-edge build makes: both directions of every edge,
        interleaved in edge order, summed by scipy's COO conversion.
        """
        # Deterministic node ordering: sort by (type name, repr) so mixed
        # id types (rare) still order stably, plain ints/strs sort naturally.
        try:
            self._nodes: list[Node] = sorted(graph)
        except TypeError:
            self._nodes = sorted(graph, key=repr)
        n = len(self._nodes)
        self._index: dict[Node, int] = dict(zip(self._nodes, range(n)))
        edges = list(graph.edges(data="weight", default=1.0))
        heads, tails, raw = zip(*edges) if edges else ((), (), ())
        m = len(edges)
        u = np.fromiter(map(self._index.__getitem__, heads), dtype=np.int64, count=m)
        v = np.fromiter(map(self._index.__getitem__, tails), dtype=np.int64, count=m)
        links = csr_matrix((np.ones(m), (u, v)), shape=(n, n))
        if connected_components(links, directed=False, return_labels=False) != 1:
            raise ValueError("sensor network must be connected (paper §2.1)")
        weight = _edge_weights(heads, tails, raw)
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
    # distances (delegated to the backend)
    # ------------------------------------------------------------------
    @property
    def distance_mode(self) -> str:
        """Name of the active distance backend (``"full"`` or ``"lazy"``)."""
        return self._backend.name

    @property
    def distance_backend(self) -> DistanceBackend:
        """The active :class:`repro.graphs.backends.DistanceBackend`."""
        return self._backend

    @property
    def _dist(self) -> np.ndarray | None:
        """The materialized all-pairs matrix, if any (tests/introspection)."""
        return self._backend.matrix_if_materialized()

    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distance matrix, indexed like :meth:`node_at`.

        Computed lazily once; O(n^2) memory. Only the ``full`` backend
        provides it — callers that need the whole matrix (doubling
        estimation, sparse covers) must construct the network with
        ``distance_backend="full"``.
        """
        if not self._backend.supports_matrix:
            raise RuntimeError(
                "distance_matrix is unavailable in lazy distance mode; "
                'construct the SensorNetwork with distance_backend="full"'
            )
        return self._backend.matrix()

    def distance(self, u: Node, v: Node) -> float:
        """Shortest-path distance ``dist_G(u, v)``.

        Matrix-backed modes read the matrix. Row-backed modes reuse a
        cached row of either endpoint when one exists; for *adjacent*
        ``u, v`` with no cached row they read ``v`` off the ball of
        ``u`` at the connecting edge's weight (exact, touches only a
        small ball) instead of computing and caching a full row for a
        throwaway pair.
        """
        return self._backend.pair_distance(self._index[u], self._index[v])

    def distances_from(self, u: Node) -> np.ndarray:
        """Vector of shortest-path distances from ``u`` to every node (by index).

        In row-backed modes, rows are computed by single-source
        Dijkstra on first use and kept in a bounded LRU (capacity
        ``lazy_cache_rows``), so memory stays ``O(cache · n)`` no matter
        how many distinct sources a long workload touches.
        """
        return self._backend.distances_from(self._index[u])

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
        src_idx = [self._index[u] for u in sources]
        tgt_idx = None if targets is None else [self._index[v] for v in targets]
        if tgt_idx is not None and len(tgt_idx) == self.n and tgt_idx == self._all_idx:
            tgt_idx = None  # identity column selection — row copies suffice
        return self._backend.distances_to_many(src_idx, tgt_idx)

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
        the balls, not ``len(sources) · n``. The ``full`` backend reads
        the entries off the matrix; ``lazy`` runs a sparse Dijkstra
        that bypasses the row cache (one ``limited_sssp`` per source).
        """
        src_idx = [self._index[u] for u in sources]
        tgt_idx = None if targets is None else [self._index[v] for v in targets]
        if tgt_idx is not None:
            if tgt_idx == self._all_idx:
                tgt_idx = None  # every node in order — the node index is the column
            elif np.any(np.diff(tgt_idx) <= 0):
                raise ValueError("ball targets must be distinct nodes in network order")
        return self._backend.balls(src_idx, limit, tgt_idx)

    def pair_distances(self, pairs: Sequence[tuple[Node, Node]]) -> np.ndarray:
        """``[dist(u, v) for u, v in pairs]`` resolved in one batched call.

        The batched replacement for per-pair :meth:`distance` loops
        (lint rule RPL001): unique first elements become Dijkstra
        sources, unique second elements become target columns, so ``k``
        pairs cost one multi-source solve over the distinct sources
        instead of up to ``k`` independent row computations. Duplicate
        pairs and repeated endpoints are free.
        """
        if not pairs:
            return np.empty(0)
        idx_pairs = [(self._index[u], self._index[v]) for u, v in pairs]
        return self._backend.pair_distances(idx_pairs)

    def pair_index_distances(self, pairs: np.ndarray) -> np.ndarray:
        """:meth:`pair_distances` over a ``(k, 2)`` array of node *indices*.

        The columnar batch kernels already hold integer indices; this
        skips the per-pair node-to-index dict lookups (and, on matrix
        backends, resolves as one fancy-indexed gather).
        """
        if len(pairs) == 0:
            return np.empty(0)
        return self._backend.pair_index_distances(pairs)

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
    def diameter(self) -> float:
        """Maximum shortest-path distance over all node pairs (``D``, §2.1).

        Matrix-backed modes are exact. Row-backed modes iterate the
        double sweep to a fixed point: sweep from the farthest node
        found so far until the eccentricity stops growing (exact on
        trees, empirically exact on grids/disks, never more than a
        factor 2 below ``D`` in general — see :attr:`diameter_bounds`
        for the certified bracket).
        """
        return self.diameter_bounds[0]

    @property
    def diameter_bounds(self) -> tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the true diameter.

        Matrix-backed modes return ``(D, D)``. Row-backed modes return
        the iterated double-sweep estimate and twice it: every sweep
        value is a real eccentricity ``e``, and ``D ≤ 2e`` by the
        triangle inequality. Anything sizing level counts or search
        radii off the diameter must use the **upper** bound — the
        estimate itself can under-shoot (that truncated
        ``build_levels`` hierarchies before this bracket existed).
        """
        if self._diameter_bounds is None:
            self._diameter_bounds = self._backend.diameter_bounds()
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
        It reads :meth:`balls` at radius ``k`` (plus the tolerance): in
        row-backed modes a sparse solve that only explores the ball it
        reports, which on big networks is far cheaper than a full row.
        """
        hits = self._backend.k_neighborhood(self._index[node], k)
        return [self._nodes[i] for i in hits]

    @property
    def oracle_stats(self) -> dict[str, int | str | float | bool]:
        """Counters describing distance-oracle pressure on this network.

        ``row_cache_*`` report the exact-row LRU (hits/misses include
        every row lookup, batched or not — duplicate sources in one
        batched call count once); ``rows_computed`` counts exact
        single-source Dijkstra solves, ``limited_sssp`` the sources of
        sparse :meth:`balls` solves, ``batched_calls`` invocations of
        the batched dense API; ``matrix_materialized`` whether the
        all-pairs matrix is resident.
        """
        stats: dict[str, int | str | float | bool] = {
            "mode": self._backend.name,
            "n": self.n,
        }
        stats.update(self._backend.stats())
        return stats

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
