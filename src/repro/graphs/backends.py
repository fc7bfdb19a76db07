"""Pluggable exact distance backends (the ``DistanceBackend`` protocol).

Every distance answer in this package flows through one of the backends
defined here. :class:`repro.graphs.network.SensorNetwork` owns node
identity (sorting, index maps, weight normalization) and delegates all
shortest-path work to a backend operating purely on integer node
indices. The protocol is deliberately small: ``distances_from``,
``distances_to_many``, ``pair_distances``, ``k_neighborhood``,
``diameter_bounds`` and ``stats``, plus the radius-limited ``balls`` and
the single-pair helpers the trackers consume:

- :class:`FullMatrixBackend` (``"full"``) — one all-pairs Dijkstra up
  front; O(n²) memory, O(1) exact lookups. The seed oracle's full mode.
- :class:`LazyLRUBackend` (``"lazy"``) — exact single-source rows on
  demand in a bounded LRU; O(cache · n) memory, never the matrix. The
  seed oracle's lazy mode.

Exactness contract (what each consumer layer may assume):

- **Every answer is exact.** Both backends run the same scipy solver
  over the same CSR, so every unlimited answer is bit-for-bit equal to
  a dense reference solve; the cost ratios (paper §2.1, §4.1) divide
  by these distances.
- **Radius-limited queries** have one entry point, ``balls(sources,
  limit)``: every node within ``limit`` of each source, as sparse
  ``(source position, node index, distance)`` entries. ``full`` reads
  the entries off its resident matrix; ``lazy`` runs
  :meth:`SsspEngine.balls` — scipy's pruned solve for a chunk whose
  dense rows fit in :data:`DENSE_BALL_ENTRIES`, a sparse frontier
  solver equal to it bit for bit otherwise — and never consults its
  row cache. Hierarchy construction (``build_levels``, which also picks
  the default parents, and the parent sets solved on first read),
  ``k_neighborhood`` and the adjacent-pair fast path only issue limited
  queries, so the overlay is identical under both backends
  (``repro audit-backend`` checks it as a whole).
- **Diameter bounds are always certified.** ``diameter_bounds()``
  returns ``(lo, hi)`` with ``lo ≤ D ≤ hi``: ``(D, D)`` off the matrix,
  an iterated double sweep and twice it off rows.

``python -m repro audit-backend`` (:mod:`repro.graphs.audit`) checks
this contract on small graphs; ``scripts/bench_backend.py`` measures the
100k-node ``lazy`` build/query/memory profile.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.perf import PERF

__all__ = [
    "DistanceBackend",
    "SsspEngine",
    "FullMatrixBackend",
    "LazyLRUBackend",
    "BACKEND_NAMES",
    "make_backend",
]


def _ball_cutoff(k: float) -> float:
    """Inclusive ball radius: ``k`` plus the project's cost tolerance.

    Nodes at *exactly* distance ``k`` must be inside the k-neighborhood
    (paper §2.1), but weight normalization rescales edge weights so a
    boundary node's distance may land at ``k ± 1e-16``. A raw
    ``dists <= k`` drops it (the float-equality trap RPL004 exists for);
    comparing against ``k + tol·max(1, k)`` mirrors
    :func:`repro.core.costs.close_to` for values near ``k``.
    """
    # function-level import: repro.core imports repro.graphs at package
    # init, so a top-level import would be circular
    from repro.core.costs import DEFAULT_TOLERANCE

    return k + DEFAULT_TOLERANCE * max(1.0, abs(k))


#: key sentinel past every ``source position · n + node`` label key
_NO_KEY = np.iinfo(np.int64).max


def _insert_sorted(
    keys: np.ndarray,
    dist: np.ndarray,
    at: np.ndarray,
    new_keys: np.ndarray,
    new_dist: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted ``new_keys`` into sorted ``keys`` at positions ``at``."""
    at = at + np.arange(at.size)
    kept = np.ones(keys.size + at.size, dtype=bool)
    kept[at] = False
    out_keys = np.empty(kept.size, dtype=keys.dtype)
    out_dist = np.empty(kept.size)
    out_keys[kept] = keys
    out_dist[kept] = dist
    out_keys[at] = new_keys
    out_dist[at] = new_dist
    return out_keys, out_dist


#: dense entries (sources × nodes) up to which :meth:`SsspEngine.balls`
#: takes scipy's pruned solve: 4 MiB of float64. Few-source, large-radius
#: chunks (the upper levels of a build, single-source balls) run there
#: at a fraction of the frontier solver's per-round call overhead; a
#: wide chunk would hold ``len(sources) · n`` floats, so it stays sparse.
DENSE_BALL_ENTRIES = 1 << 19


def _frontier_balls(
    m: csr_matrix, src: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`SsspEngine.balls` without a dense row: O(entries) memory.

    Each round relaxes the (source, node) pairs whose label fell in the
    round before over the CSR (symmetric: the network stores both
    directions), keeps each pair's nearest candidate and stores the
    ones that beat its label; rounds stop when none does. A candidate
    is ``d(u) + w(u, v)``, the left fold Dijkstra takes along a path,
    and float addition is monotone for non-negative weights, so the
    fixed point equals scipy's pruned Dijkstra bit for bit. Labels are
    kept sorted by ``source position · n + node``, which is also the
    output order.
    """
    indptr, adj, weight = m.indptr, m.indices, m.data
    n = int(m.shape[0])
    base = np.arange(src.size, dtype=np.int64) * n
    # the sentinel closes the labels, so a lookup never runs off the end
    keys = np.append(base + src, _NO_KEY)
    dist = np.zeros(keys.size)
    node, start, d = src, base, np.zeros(src.size)  # the frontier
    while True:
        lo = indptr[node]
        deg = indptr[node + 1] - lo
        ends = np.cumsum(deg)
        edge = np.repeat(lo - ends + deg, deg)
        edge += np.arange(edge.size)
        cand = np.repeat(d, deg) + weight[edge]
        near = np.flatnonzero(cand <= limit)
        cand = cand[near]
        key = np.repeat(start, deg)[near] + adj[edge[near]]
        # each key's nearest candidate, in key order
        order = np.lexsort((cand, key))
        key, cand = key[order], cand[order]
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key, cand = key[first], cand[first]
        pos = np.searchsorted(keys, key)
        new = keys[pos] != key
        better = np.flatnonzero(new | (cand < dist[pos]))
        if better.size == 0:
            break
        key, cand, pos, new = key[better], cand[better], pos[better], new[better]
        old = ~new
        dist[pos[old]] = cand[old]
        if not old.all():
            keys, dist = _insert_sorted(keys, dist, pos[new], key[new], cand[new])
        node = key % n
        start = key - node
        d = cand
    keys = keys[:-1]
    return keys // n, keys % n, dist[:-1]


class SsspEngine:
    """Instrumented Dijkstra solver: exact rows and sparse balls.

    Wraps the CSR adjacency every backend shares and counts exact row
    solves vs radius-limited ones — the numbers
    ``SensorNetwork.oracle_stats`` reports as ``rows_computed`` /
    ``limited_sssp``. The CSR stores both directions of every edge, so
    every scipy call passes ``directed=True``: ``directed=False`` would
    rebuild the transpose per call to symmetrize a matrix that already
    is, and the rows come out the same.
    """

    __slots__ = ("csr", "rows_computed", "limited_sssp")

    def __init__(self, csr: csr_matrix) -> None:
        self.csr = csr
        self.rows_computed = 0
        self.limited_sssp = 0

    @property
    def n(self) -> int:
        """Number of nodes of the underlying graph."""
        return int(self.csr.shape[0])

    def solve(self, indices: int | Sequence[int] | np.ndarray) -> np.ndarray:
        """Exact Dijkstra rows for ``indices``, one per source."""
        with PERF.timer("oracle.solve"):
            out = dijkstra(self.csr, directed=True, indices=indices)
        k = 1 if np.ndim(indices) == 0 else len(indices)
        self.rows_computed += k
        PERF.incr("oracle.rows_computed", k)
        return out

    def balls(
        self, indices: Sequence[int] | np.ndarray, limit: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node within ``limit`` of each source, as sparse entries.

        Returns ``(source position, node index, distance)`` columns of
        the entries at or below ``limit`` (scipy's inclusive pruning),
        sorted by source position, then node index; each source is its
        own entry at 0.

        A chunk whose dense rows fit in :data:`DENSE_BALL_ENTRIES` is
        one pruned scipy solve, scanned row-major; a wider one runs
        :func:`_frontier_balls`, whose memory is O(entries). Both give
        scipy's pruned distances bit for bit, so the route never shows
        in the result.
        """
        src = np.asarray(indices, dtype=np.int64).reshape(-1)
        self.limited_sssp += src.size
        PERF.incr("oracle.limited_sssp", src.size)
        with PERF.timer("oracle.balls"):
            if src.size * self.n <= DENSE_BALL_ENTRIES:
                block = dijkstra(self.csr, directed=True, indices=src, limit=limit)
                flat = np.flatnonzero(block <= limit)
                pos, node = np.divmod(flat, block.shape[1])
                return pos, node, block.ravel()[flat]
            return _frontier_balls(self.csr, src, limit)

    def full_matrix(self) -> np.ndarray:
        """The dense all-pairs matrix (one timed solve, not row-counted)."""
        with PERF.timer("oracle.full_matrix"):
            return dijkstra(self.csr, directed=True)

    def edge_weight(self, i: int, j: int) -> float | None:
        """Weight of edge ``(i, j)``, or ``None`` when not adjacent."""
        m = self.csr
        lo, hi = int(m.indptr[i]), int(m.indptr[i + 1])
        cols = m.indices[lo:hi]
        pos = np.nonzero(cols == j)[0]
        if pos.size == 0:
            return None
        return float(m.data[lo + int(pos[0])])



class _RowLRU:
    """Bounded LRU of single-source distance rows, keyed by source index.

    A plain :class:`collections.OrderedDict` with move-to-end on hit and
    eviction of the least-recently-used row past ``capacity``. Counters
    are kept here so ``SensorNetwork.oracle_stats`` can report cache
    pressure without touching the global perf registry.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_rows")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("row cache capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, i: int) -> bool:
        return i in self._rows

    def get(self, i: int) -> np.ndarray | None:
        row = self._rows.get(i)
        if row is None:
            self.misses += 1
            return None
        self._rows.move_to_end(i)
        self.hits += 1
        return row

    def put(self, i: int, row: np.ndarray) -> None:
        if i in self._rows:
            self._rows.move_to_end(i)
            self._rows[i] = row
            return
        self._rows[i] = row
        if len(self._rows) > self.capacity:
            self._rows.popitem(last=False)
            self.evictions += 1


@runtime_checkable
class DistanceBackend(Protocol):
    """What the distance layer guarantees to every consumer.

    Implementations answer in terms of **integer node indices** (the
    deterministic order ``SensorNetwork`` assigns); the network class
    translates node identifiers at its boundary. Every answer is exact
    (see the module docstring's contract).
    """

    @property
    def name(self) -> str:
        """Registry name of this backend (``"full"``, ``"lazy"``, …)."""
        ...

    @property
    def supports_matrix(self) -> bool:
        """Whether :meth:`matrix` can return the all-pairs matrix."""
        ...

    def distances_from(self, i: int) -> np.ndarray:
        """Distances from source index ``i`` to every node."""
        ...

    def distances_to_many(
        self, src_idx: Sequence[int], tgt_idx: Sequence[int] | None = None
    ) -> np.ndarray:
        """Batched ``(len(src), len(tgt))`` distance block (``None`` = all)."""
        ...

    def balls(
        self, src_idx: Sequence[int], limit: float, tgt_idx: Sequence[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(source position, column, distance)`` of every node within
        ``limit`` of each source, sorted by source position, then column:
        the node index, or the position in ``tgt_idx`` (index-sorted,
        distinct) when given, entries of other nodes dropped."""
        ...

    def pair_distances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """``[d(i, j) for i, j in pairs]`` via one batched solve."""
        ...

    def pair_index_distances(self, pairs: np.ndarray) -> np.ndarray:
        """:meth:`pair_distances` over a ``(k, 2)`` index array."""
        ...

    def pair_distance(self, i: int, j: int) -> float:
        """Single-pair distance with the cheap fast paths."""
        ...

    def k_neighborhood(self, i: int, k: float) -> np.ndarray:
        """Sorted indices of every node within distance ``k`` of ``i``."""
        ...

    def diameter_bounds(self) -> tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the true diameter."""
        ...

    def matrix(self) -> np.ndarray:
        """All-pairs matrix; raises ``RuntimeError`` when unsupported."""
        ...

    def matrix_if_materialized(self) -> np.ndarray | None:
        """The matrix if already resident, else ``None`` (never computes)."""
        ...

    def stats(self) -> dict[str, int | float | str | bool]:
        """Counters describing oracle pressure (cache, solves, batches)."""
        ...


class _BackendBase:
    """Shared machinery: the row LRU, batched counters.

    Subclasses provide :meth:`distances_from` /
    :meth:`distances_to_many` / :meth:`pair_distance` /
    :meth:`diameter_bounds`; everything derivable (pair batching,
    k-neighborhoods, stats) lives here, and :meth:`balls` runs the
    engine's sparse solver unless the backend holds the matrix.
    """

    name = "base"
    supports_matrix = False

    def __init__(self, engine: SsspEngine, n: int, cache_rows: int) -> None:
        self._engine = engine
        self._n = n
        self._rows = _RowLRU(cache_rows)
        self._batched_calls = 0

    # -- required of subclasses ---------------------------------------
    def distances_from(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def distances_to_many(
        self, src_idx: Sequence[int], tgt_idx: Sequence[int] | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def pair_distance(self, i: int, j: int) -> float:
        raise NotImplementedError

    def diameter_bounds(self) -> tuple[float, float]:
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        raise RuntimeError(
            f"the {self.name!r} distance backend does not materialize the "
            "all-pairs matrix"
        )

    def matrix_if_materialized(self) -> np.ndarray | None:
        return None

    # -- shared implementations ---------------------------------------
    def _count_batched(self) -> None:
        self._batched_calls += 1
        PERF.incr("oracle.batched_calls")

    def pair_distances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Unique first elements become sources, unique seconds targets."""
        if not pairs:
            return np.empty(0)
        srcs = list(dict.fromkeys(i for i, _ in pairs))
        tgts = list(dict.fromkeys(j for _, j in pairs))
        spos = {i: k for k, i in enumerate(srcs)}
        tpos = {j: k for k, j in enumerate(tgts)}
        block = self.distances_to_many(srcs, tgts)
        a = np.asarray([spos[i] for i, _ in pairs])
        b = np.asarray([tpos[j] for _, j in pairs])
        return block[a, b]

    def pair_index_distances(self, pairs: np.ndarray) -> np.ndarray:
        """:meth:`pair_distances` over a ``(k, 2)`` index array.

        The columnar batch kernels hold integer node indices; accepting
        the array directly spares them a per-pair tuple conversion.
        """
        if len(pairs) == 0:
            return np.empty(0)
        return self.pair_distances(pairs.tolist())

    def balls(
        self, src_idx: Sequence[int], limit: float, tgt_idx: Sequence[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, node, dist = self._engine.balls(src_idx, limit)
        if tgt_idx is None:
            return src, node, dist
        # index-sorted targets: their positions keep the entries' order
        position = np.full(self._n, -1)
        position[tgt_idx] = np.arange(len(tgt_idx))
        col = position[node]
        keep = np.flatnonzero(col >= 0)
        return src[keep], col[keep], dist[keep]

    def k_neighborhood(self, i: int, k: float) -> np.ndarray:
        """Exact ball; boundary nodes kept by the cost tolerance."""
        return self.balls([i], _ball_cutoff(k))[1]

    def stats(self) -> dict[str, int | float | str | bool]:
        return {
            "row_cache_capacity": self._rows.capacity,
            "row_cache_size": len(self._rows),
            "row_cache_hits": self._rows.hits,
            "row_cache_misses": self._rows.misses,
            "row_cache_evictions": self._rows.evictions,
            "rows_computed": self._engine.rows_computed,
            "limited_sssp": self._engine.limited_sssp,
            "batched_calls": self._batched_calls,
            "matrix_materialized": self.matrix_if_materialized() is not None,
        }


class FullMatrixBackend(_BackendBase):
    """The seed oracle's full mode: one all-pairs solve, exact O(1) lookups."""

    name = "full"
    supports_matrix = True

    def __init__(self, engine: SsspEngine, n: int, cache_rows: int) -> None:
        super().__init__(engine, n, cache_rows)
        self._dist: np.ndarray | None = None

    def _ensure(self) -> np.ndarray:
        if self._dist is None:
            self._dist = self._engine.full_matrix()
        return self._dist

    def matrix(self) -> np.ndarray:
        return self._ensure()

    def matrix_if_materialized(self) -> np.ndarray | None:
        return self._dist

    def distances_from(self, i: int) -> np.ndarray:
        return self._ensure()[i]

    def distances_to_many(
        self, src_idx: Sequence[int], tgt_idx: Sequence[int] | None = None
    ) -> np.ndarray:
        self._count_batched()
        return self._block(src_idx, tgt_idx)

    def _block(self, src_idx: Sequence[int], tgt_idx: Sequence[int] | None) -> np.ndarray:
        M = self._ensure()
        if tgt_idx is None:
            return M[list(src_idx)]
        # one fancy-indexed copy of exactly the requested block — an
        # intermediate M[src_idx] would copy all n columns first
        return M[np.asarray(src_idx, dtype=np.intp)[:, None], np.asarray(tgt_idx, dtype=np.intp)]

    def pair_distance(self, i: int, j: int) -> float:
        return float(self._ensure()[i, j])

    def pair_distances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        # the base implementation deduplicates sources/targets to keep
        # the distances_to_many block small — pointless when the whole
        # matrix is resident: one fancy-indexed gather beats the Python
        # dict churn (the columnar batch kernels hit this per batch)
        if len(pairs) == 0:
            return np.empty(0)
        self._count_batched()
        arr = np.asarray(pairs, dtype=np.intp)
        return self._ensure()[arr[:, 0], arr[:, 1]]

    def pair_index_distances(self, pairs: np.ndarray) -> np.ndarray:
        if len(pairs) == 0:
            return np.empty(0)
        self._count_batched()
        return self._ensure()[pairs[:, 0], pairs[:, 1]]

    def balls(
        self, src_idx: Sequence[int], limit: float, tgt_idx: Sequence[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the entries the engine would solve, read off the matrix (one
        # flat scan: a 2-D nonzero is several times slower on the block).
        # Consecutive sources, as in the level pass's first chunks, are
        # read in place: their copy would be the largest transient of a
        # build, and a freed copy makes the allocator keep the next one.
        src = np.asarray(src_idx, dtype=np.intp)
        if tgt_idx is None and src.size and src[-1] - src[0] + 1 == src.size and np.all(src[1:] > src[:-1]):
            block = self._ensure()[src[0] : src[-1] + 1]
        else:
            block = self._block(src_idx, tgt_idx)
        flat = np.flatnonzero(block <= limit)
        src, col = np.divmod(flat, block.shape[1])
        return src, col, block.ravel()[flat]

    def diameter_bounds(self) -> tuple[float, float]:
        d = float(self._ensure().max())
        return d, d


class LazyLRUBackend(_BackendBase):
    """The seed oracle's lazy mode: exact rows on demand in a bounded LRU."""

    name = "lazy"
    supports_matrix = False

    def distances_from(self, i: int) -> np.ndarray:
        row = self._rows.get(i)
        if row is None:
            row = self._engine.solve(i)
            self._rows.put(i, row)
        return row

    def distances_to_many(
        self, src_idx: Sequence[int], tgt_idx: Sequence[int] | None = None
    ) -> np.ndarray:
        self._count_batched()
        rows: dict[int, np.ndarray] = {}
        missing: list[int] = []
        # dedupe *before* the cache probe: a duplicated uncached source
        # must count one miss, not one per occurrence
        for i in dict.fromkeys(src_idx):
            cached = self._rows.get(i)
            if cached is not None:
                rows[i] = cached
            else:
                missing.append(i)
        block = np.empty((0, self._n))
        if missing:
            block = np.atleast_2d(self._engine.solve(np.asarray(missing)))
            for k, i in enumerate(missing):
                self._rows.put(i, block[k])
                rows[i] = block[k]
        if len(missing) < len(src_idx):
            # a cached or repeated source: restack in source order (with
            # distinct uncached sources the solver's block is the answer)
            block = np.vstack([rows[i] for i in src_idx])
        # ``take`` keeps the selection row-major; ``block[:, cols]`` would
        # return a column-major copy, several times slower to build and scan
        return block if tgt_idx is None else np.take(block, list(tgt_idx), axis=1)

    def _adjacent_distance(self, i: int, j: int, w: float) -> float:
        """``d(i, j)`` of neighbours joined by an edge of weight ``w``.

        ``j`` lies within ``w`` of ``i``, so the ball of that radius
        holds it: an exact answer from a small ball, not a full row.
        """
        _, nodes, dists = self.balls([i], w)
        return float(dists[np.searchsorted(nodes, j)])

    def pair_distance(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        row = self._rows.get(i)
        if row is not None:
            return float(row[j])
        row = self._rows.get(j)
        if row is not None:
            return float(row[i])
        w = self._engine.edge_weight(i, j)
        if w is not None:
            return self._adjacent_distance(i, j, w)
        return float(self.distances_from(i)[j])

    def diameter_bounds(self) -> tuple[float, float]:
        """Iterated double sweep: certified ``(estimate, 2·estimate)``.

        Each hop moves to the farthest node seen; eccentricities are
        non-decreasing along the walk, so the first non-improving sweep
        is a fixed point. Every sweep value is a real eccentricity ``e``
        and ``D ≤ 2e`` by the triangle inequality.
        """
        cur = 0
        best = -1.0
        for _ in range(max(2, int(np.ceil(np.log2(self._n + 1))) + 2)):
            row = self.distances_from(cur)
            far_i = int(np.argmax(row))
            ecc = float(row[far_i])
            if ecc <= best:
                break
            best = ecc
            cur = far_i
        return best, 2.0 * best


#: names accepted by :func:`make_backend` / ``SensorNetwork(distance_backend=…)``
BACKEND_NAMES = ("full", "lazy")

# a plain assignment, not an annotated one: RPL104 (``repro check``)
# reads the values of this literal and checks each class against
# ``DistanceBackend``, and it skips an annotated assignment
_FACTORIES = {
    "full": FullMatrixBackend,
    "lazy": LazyLRUBackend,
}


def make_backend(name: str, engine: SsspEngine, n: int, cache_rows: int) -> DistanceBackend:
    """Construct the backend registered under ``name``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(
            f"unknown distance backend {name!r} (known: {known})"
        ) from None
    return factory(engine, n, cache_rows)
