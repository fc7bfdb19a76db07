"""Pluggable compressed distance backends (the ``DistanceBackend`` protocol).

Every distance answer in this package flows through one of the backends
defined here. :class:`repro.graphs.network.SensorNetwork` owns node
identity (sorting, index maps, weight normalization) and delegates all
shortest-path work to a backend operating purely on integer node
indices. The protocol is deliberately small — the six methods ROADMAP
item 1 names (``distances_from``, ``distances_to_many``,
``pair_distances``, ``k_neighborhood``, ``diameter_bounds``, ``stats``)
plus the radius-limited ``balls`` and the single-pair and landmark
helpers the trackers already consumed:

- :class:`FullMatrixBackend` (``"full"``) — one all-pairs Dijkstra up
  front; O(n²) memory, O(1) exact lookups. The seed oracle's full mode.
- :class:`LazyLRUBackend` (``"lazy"``) — exact single-source rows on
  demand in a bounded LRU. The seed oracle's lazy mode.
- :class:`LandmarkBackend` (``"landmark"``) — sub-quadratic: ``k``
  pinned landmark rows (farthest-point traversal) answer
  ``min_L d(u, L) + d(L, v)`` **admissible upper bounds** in O(k) per
  pair / O(k·n) per row, with an *exactness-fallback budget* of full
  Dijkstra solves spent on the first unlimited row queries. Memory is
  O((k + cache) · n) — never the matrix.
- :class:`MemmapFullBackend` (``"memmap"``) — the full matrix stored in
  a fingerprinted :class:`repro.graphs.rowstore.MemmapRowStore` file, so
  several networks / serve shards / worker processes share one copy
  through the OS page cache instead of each materializing O(n²) RAM.

Exactness contract (what each consumer layer may assume):

- **Radius-limited queries are exact under every backend.** They have
  one entry point, ``balls(sources, limit)``: every node within
  ``limit`` of each source, as sparse ``(source position, node index,
  distance)`` entries. ``full`` and ``memmap`` read the entries off
  their resident matrix; ``lazy`` and ``landmark`` run
  :meth:`SsspEngine.balls` — scipy's pruned solve for a chunk whose
  dense rows fit in :data:`DENSE_BALL_ENTRIES`, a sparse frontier
  solver equal to it bit for bit otherwise — and never consult the
  approximation or a row cache. Hierarchy construction (``build_levels``, which also picks the
  default parents, and the parent sets solved on first read),
  ``k_neighborhood`` and the adjacent-pair fast path only issue limited
  queries, so the overlay is identical under every backend
  (``repro audit-backend`` checks it as a whole).
- **Unlimited queries are exact on exact backends** (``full``, ``lazy``,
  ``memmap`` — bit-for-bit equal to a dense reference solve) and
  *admissible upper bounds* on ``landmark`` once the exactness budget is
  spent. Tracker cost ledgers therefore remain upper bounds on true
  communication cost; query/maintenance *correctness* (finding the
  object) never depends on distance exactness, only on hierarchy
  pointers.
- **Diameter bounds are always certified.** ``diameter_bounds()``
  returns ``(lo, hi)`` with ``lo ≤ D ≤ hi`` under every backend; the
  landmark backend's double sweep uses exact rows outside the budget.

``python -m repro audit-backend`` (:mod:`repro.graphs.audit`) checks
this contract on small graphs; ``scripts/bench_backend.py`` measures the
100k-node build/query/memory profile.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.perf import PERF

__all__ = [
    "DistanceBackend",
    "SsspEngine",
    "FullMatrixBackend",
    "LazyLRUBackend",
    "LandmarkBackend",
    "MemmapFullBackend",
    "BACKEND_NAMES",
    "make_backend",
    "register_backend",
]

#: default landmark count of the landmark backend (and of build_landmarks)
DEFAULT_LANDMARKS = 16
#: default exactness-fallback budget of the landmark backend: how many
#: unlimited row queries may run a full Dijkstra before answers switch
#: to landmark upper bounds
DEFAULT_EXACT_BUDGET = 64


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

    def fingerprint(self) -> tuple[int, int, str]:
        """Structural identity of the weighted graph: ``(n, nnz, digest)``.

        Used by the memmap backend to decide whether an on-disk matrix
        belongs to this graph. The digest is a sha256 over the CSR
        arrays themselves (indptr, indices, data), widened to fixed
        dtypes so the value is platform-independent — summary statistics
        like a weight sum collide across distinct unit-weight graphs of
        equal size, which silently attached the wrong matrix.
        """
        m = self.csr
        h = hashlib.sha256()
        for arr, dtype in ((m.indptr, np.int64), (m.indices, np.int64), (m.data, np.float64)):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        return int(m.shape[0]), int(m.nnz), h.hexdigest()


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

    def peek(self, i: int) -> np.ndarray | None:
        """Like :meth:`get` but without touching recency or counters."""
        return self._rows.get(i)

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
    translates node identifiers at its boundary. ``exact`` declares
    whether unlimited queries are exact; radius-limited queries are
    exact under every backend (see the module docstring's contract).
    """

    @property
    def name(self) -> str:
        """Registry name of this backend (``"full"``, ``"lazy"``, …)."""
        ...

    @property
    def exact(self) -> bool:
        """Whether every unlimited answer equals the true distance."""
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

    def build_landmarks(self, k: int | None = None) -> tuple[int, ...]:
        """Pin ``k`` landmark rows; returns the chosen indices."""
        ...

    def stats(self) -> dict[str, int | float | str | bool]:
        """Counters describing oracle pressure (cache, solves, landmarks)."""
        ...


class _BackendBase:
    """Shared machinery: the row LRU, landmark pinning, batched counters.

    Subclasses provide :meth:`distances_from` /
    :meth:`distances_to_many` / :meth:`pair_distance` /
    :meth:`diameter_bounds`; everything derivable (pair batching,
    k-neighborhoods, landmark upper bounds, stats) lives here, and
    :meth:`balls` runs the engine's sparse solver unless the backend
    holds the matrix.
    """

    name = "base"
    exact = True
    supports_matrix = False

    def __init__(self, engine: SsspEngine, n: int, cache_rows: int) -> None:
        self._engine = engine
        self._n = n
        self._rows = _RowLRU(cache_rows)
        self._batched_calls = 0
        self._landmark_idx: np.ndarray | None = None
        self._landmark_rows: np.ndarray | None = None
        self._landmark_k: int | None = None

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

    # -- landmark upper-bound oracle ----------------------------------
    def _pinned_row(self, i: int) -> np.ndarray:
        """An exact row for landmark pinning, reusing caches when present.

        Prefers a row pinned by a previous :meth:`build_landmarks` call
        (a rebuild with a different ``k`` revisits the same traversal
        prefix), then an already-cached LRU row, else runs one exact
        solve.
        """
        if self._landmark_idx is not None and self._landmark_rows is not None:
            pos = np.nonzero(self._landmark_idx == i)[0]
            if pos.size:
                return np.asarray(self._landmark_rows[int(pos[0])])
        row = self._rows.peek(i)
        if row is not None:
            return np.asarray(row)
        return np.asarray(self._engine.solve(i))

    def build_landmarks(self, k: int | None = None) -> tuple[int, ...]:
        """Pick ``k`` landmarks by farthest-point traversal and pin their rows.

        Landmark rows live outside the LRU (they are pinned), costing
        ``k · n`` floats — reported as ``landmark_pinned_bytes`` in
        :meth:`stats`. Deterministic: starts from node 0 and greedily
        maximizes the distance to the chosen set, ties by node index.
        Idempotent: repeat calls with the same effective ``k`` are a
        no-op; a different ``k`` rebuilds (reusing rows pinned by the
        previous build and any cached LRU rows).
        """
        if k is not None and k <= 0:
            raise ValueError("landmark count must be >= 1")
        k = min(k if k is not None else DEFAULT_LANDMARKS, self._n)
        if self._landmark_idx is not None and self._landmark_k == k:
            return tuple(int(i) for i in self._landmark_idx)
        chosen = [0]
        rows = [self._pinned_row(0)]
        while len(chosen) < k:
            mindist = np.minimum.reduce(rows)
            nxt = int(np.argmax(mindist))
            if mindist[nxt] <= 0:  # every node already a landmark
                break
            chosen.append(nxt)
            rows.append(self._pinned_row(nxt))
        self._landmark_idx = np.asarray(chosen)
        self._landmark_rows = np.vstack(rows)
        self._landmark_k = k
        return tuple(chosen)

    def _landmark_bound(self, i: int, j: int) -> float:
        """``min_L d(i, L) + d(L, j)`` — admissible by the triangle inequality."""
        if self._landmark_rows is None:
            self.build_landmarks()
        assert self._landmark_rows is not None
        PERF.incr("oracle.landmark_ub")
        return float(np.min(self._landmark_rows[:, i] + self._landmark_rows[:, j]))

    def stats(self) -> dict[str, int | float | str | bool]:
        lm = self._landmark_rows
        return {
            "row_cache_capacity": self._rows.capacity,
            "row_cache_size": len(self._rows),
            "row_cache_hits": self._rows.hits,
            "row_cache_misses": self._rows.misses,
            "row_cache_evictions": self._rows.evictions,
            "rows_computed": self._engine.rows_computed,
            "limited_sssp": self._engine.limited_sssp,
            "batched_calls": self._batched_calls,
            "landmarks": 0 if self._landmark_idx is None else int(self._landmark_idx.size),
            "landmark_pinned_bytes": 0 if lm is None else int(lm.nbytes),
            "matrix_materialized": self.matrix_if_materialized() is not None,
        }


class FullMatrixBackend(_BackendBase):
    """The seed oracle's full mode: one all-pairs solve, exact O(1) lookups."""

    name = "full"
    exact = True
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

    def _pinned_row(self, i: int) -> np.ndarray:
        return np.asarray(self._ensure()[i])


class LazyLRUBackend(_BackendBase):
    """The seed oracle's lazy mode: exact rows on demand in a bounded LRU."""

    name = "lazy"
    exact = True
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
            block = self._solve_missing(missing)
            for k, i in enumerate(missing):
                rows[i] = block[k]
        if len(missing) < len(src_idx):
            # a cached or repeated source: restack in source order (with
            # distinct uncached sources the solver's block is the answer)
            block = np.vstack([rows[i] for i in src_idx])
        # ``take`` keeps the selection row-major; ``block[:, cols]`` would
        # return a column-major copy, several times slower to build and scan
        return block if tgt_idx is None else np.take(block, list(tgt_idx), axis=1)

    def _solve_missing(self, missing: list[int]) -> np.ndarray:
        """Exact rows for the cache misses of one batch, cached as solved."""
        block = np.atleast_2d(self._engine.solve(np.asarray(missing)))
        for k, i in enumerate(missing):
            self._rows.put(i, block[k])
        return block

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

    def _sweep_row(self, i: int) -> np.ndarray:
        """An exact row for the diameter double sweep."""
        return self.distances_from(i)

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
            row = self._sweep_row(cur)
            far_i = int(np.argmax(row))
            ecc = float(row[far_i])
            if ecc <= best:
                break
            best = ecc
            cur = far_i
        return best, 2.0 * best


class LandmarkBackend(LazyLRUBackend):
    """Sub-quadratic landmark/hub-label distances with an exactness budget.

    Unlimited row/pair queries are exact (and LRU-cached) while the
    *exactness-fallback budget* lasts — each full Dijkstra solve spends
    one unit — and switch to landmark upper bounds
    ``min_L d(u, L) + d(L, v)`` once it is gone: O(k) per pair,
    O(k·n) per row, no new graph traversal. Approximate rows are held in
    their own small LRU and **never** enter the exact row cache.
    Radius-limited queries, adjacency fast paths, k-neighborhoods and
    the diameter sweep stay exact and free of budget charges.
    """

    name = "landmark"
    exact = False
    supports_matrix = False

    def __init__(
        self,
        engine: SsspEngine,
        n: int,
        cache_rows: int,
        num_landmarks: int | None = None,
        exact_budget: int = DEFAULT_EXACT_BUDGET,
    ) -> None:
        super().__init__(engine, n, cache_rows)
        self._num_landmarks = num_landmarks if num_landmarks is not None else DEFAULT_LANDMARKS
        self._exact_budget_initial = max(0, int(exact_budget))
        self._exact_budget = self._exact_budget_initial
        self._approx_rows = _RowLRU(max(1, cache_rows))
        self._approx_row_count = 0
        self._approx_pair_count = 0

    def build_landmarks(self, k: int | None = None) -> tuple[int, ...]:
        # a no-arg call must honour the configured ``num_landmarks``,
        # not the module default — repeat calls stay idempotent
        return super().build_landmarks(k if k is not None else self._num_landmarks)

    # -- approximation machinery --------------------------------------
    def _ensure_landmarks(self) -> np.ndarray:
        if self._landmark_rows is None:
            self.build_landmarks(self._num_landmarks)
        assert self._landmark_rows is not None
        return self._landmark_rows

    def _approx_row(self, i: int) -> np.ndarray:
        """Upper-bound row ``min_L d(i, L) + d(L, ·)`` with a zero diagonal."""
        cached = self._approx_rows.peek(i)
        if cached is not None:
            return cached
        lm = self._ensure_landmarks()
        row = np.min(lm + lm[:, i : i + 1], axis=0)
        row[i] = 0.0  # d(i, i) — the landmark detour is never needed here
        self._approx_row_count += 1
        PERF.incr("oracle.approx_rows")
        self._approx_rows.put(i, row)
        return row

    def _charge_exact(self, rows_needed: int) -> int:
        """Spend up to ``rows_needed`` units of the exactness budget."""
        granted = min(self._exact_budget, rows_needed)
        self._exact_budget -= granted
        return granted

    # -- overridden query paths ---------------------------------------
    def distances_from(self, i: int) -> np.ndarray:
        row = self._rows.get(i)
        if row is not None:
            return row
        if self._charge_exact(1):
            row = self._engine.solve(i)
            self._rows.put(i, row)
            return row
        return self._approx_row(i)

    def _solve_missing(self, missing: list[int]) -> np.ndarray:
        granted = self._charge_exact(len(missing))
        if granted:
            exact_part = super()._solve_missing(missing[:granted])
        else:
            exact_part = np.empty((0, self._n))
        # rows past the budget cut are landmark bounds, cached in
        # _approx_rows by _approx_row and never in the exact LRU
        approx_part = [self._approx_row(i) for i in missing[granted:]]
        if not approx_part:
            return exact_part
        return np.vstack([exact_part, *approx_part])

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
        if self._charge_exact(1):
            row = self._engine.solve(i)
            self._rows.put(i, row)
            return float(row[j])
        self._approx_pair_count += 1
        return self._landmark_bound(i, j)

    def _sweep_row(self, i: int) -> np.ndarray:
        # the diameter bracket must stay certified: sweep rows are real
        # eccentricities, so they bypass the budget and use exact solves
        row = self._rows.peek(i)
        if row is not None:
            return row
        row = self._engine.solve(i)
        self._rows.put(i, row)
        return row

    def stats(self) -> dict[str, int | float | str | bool]:
        out = super().stats()
        out.update(
            {
                "exact_budget_initial": self._exact_budget_initial,
                "exact_budget_remaining": self._exact_budget,
                "approx_rows": self._approx_row_count,
                "approx_pairs": self._approx_pair_count,
                "approx_row_cache_size": len(self._approx_rows),
            }
        )
        return out


class MemmapFullBackend(FullMatrixBackend):
    """Full matrix in a fingerprinted memmap file shared across consumers.

    The first consumer computes the all-pairs matrix once and writes it
    through :class:`repro.graphs.rowstore.MemmapRowStore`; every later
    backend pointed at the same path (other networks, serve shards,
    worker processes) attaches read-only and shares pages through the OS
    page cache instead of materializing its own O(n²) copy. A sidecar
    fingerprint (n, edge count, sha256 of the CSR arrays) guards against
    attaching a stale file from a different graph.
    """

    name = "memmap"
    exact = True
    supports_matrix = True

    def __init__(
        self,
        engine: SsspEngine,
        n: int,
        cache_rows: int,
        path: str | None = None,
    ) -> None:
        super().__init__(engine, n, cache_rows)
        self._path = path
        self._attached = False

    @property
    def path(self) -> str | None:
        """Backing file path (resolved on first use when defaulted)."""
        return self._path

    @property
    def attached(self) -> bool:
        """Whether the matrix was attached from an existing store file."""
        return self._attached

    def _ensure(self) -> np.ndarray:
        if self._dist is None:
            from repro.graphs.rowstore import MemmapRowStore

            store = MemmapRowStore(self._path, self._engine.fingerprint())
            self._path = store.path
            existing = store.attach()
            if existing is not None:
                self._attached = True
                self._dist = existing
            else:
                self._dist = store.create(self._engine.full_matrix())
        return self._dist

    def stats(self) -> dict[str, int | float | str | bool]:
        out = super().stats()
        out.update(
            {
                "memmap_path": self._path or "",
                "memmap_attached": self._attached,
            }
        )
        return out


#: names accepted by :func:`make_backend` / ``SensorNetwork(distance_backend=…)``
BACKEND_NAMES = ("full", "lazy", "landmark", "memmap")

_FACTORIES: dict[str, Callable[..., DistanceBackend]] = {
    "full": FullMatrixBackend,
    "lazy": LazyLRUBackend,
    "landmark": LandmarkBackend,
    "memmap": MemmapFullBackend,
}


def register_backend(name: str, factory: Callable[..., DistanceBackend]) -> None:
    """Register a custom backend factory under ``name``.

    The factory is called as ``factory(engine, n, cache_rows,
    **options)`` and must return a :class:`DistanceBackend`.
    """
    _FACTORIES[name] = factory


def make_backend(
    name: str,
    engine: SsspEngine,
    n: int,
    cache_rows: int,
    options: dict[str, object] | None = None,
) -> DistanceBackend:
    """Construct the backend registered under ``name``.

    ``options`` are forwarded to the factory: the landmark backend
    accepts ``num_landmarks`` and ``exact_budget``, the memmap backend
    ``path``.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(
            f"unknown distance backend {name!r} (known: {known})"
        ) from None
    return factory(engine, n, cache_rows, **(options or {}))
