"""Pluggable compressed distance backends (the ``DistanceBackend`` protocol).

Every distance answer in this package flows through one of the backends
defined here. :class:`repro.graphs.network.SensorNetwork` owns node
identity (sorting, index maps, weight normalization) and delegates all
shortest-path work to a backend operating purely on integer node
indices. The protocol is deliberately small — the six methods ROADMAP
item 1 names (``distances_from``, ``distances_to_many``,
``pair_distances``, ``k_neighborhood``, ``diameter_bounds``, ``stats``)
plus the single-pair and landmark helpers the trackers already
consumed:

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

- **Radius-limited queries are exact under every backend.** A ``limit=``
  query runs a pruned Dijkstra (entries ≤ limit exact, ``inf`` beyond)
  and never consults the approximation. Hierarchy construction
  (``build_levels``, which also picks the default parents, and the
  parent sets solved on first read) and ``k_neighborhood`` only issue
  limited queries, so the overlay is identical under every backend
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


class SsspEngine:
    """Instrumented (multi-source, optionally pruned) Dijkstra solver.

    Wraps the CSR adjacency every backend shares and counts exact row
    solves vs radius-limited ones — the numbers
    ``SensorNetwork.oracle_stats`` reports as ``rows_computed`` /
    ``limited_sssp``. The adjacency is supplied lazily so constructing a
    backend costs nothing until the first solve.
    """

    __slots__ = ("_supplier", "_csr", "rows_computed", "limited_sssp")

    def __init__(self, supplier: Callable[[], csr_matrix]) -> None:
        self._supplier = supplier
        self._csr: csr_matrix | None = None
        self.rows_computed = 0
        self.limited_sssp = 0

    @property
    def csr(self) -> csr_matrix:
        """The shared CSR adjacency (built on first use)."""
        if self._csr is None:
            self._csr = self._supplier()
        return self._csr

    @property
    def n(self) -> int:
        """Number of nodes of the underlying graph."""
        return int(self.csr.shape[0])

    def solve(
        self, indices: int | Sequence[int] | np.ndarray, limit: float | None = None
    ) -> np.ndarray:
        """Raw Dijkstra rows for ``indices`` (pruned at ``limit`` if given)."""
        kwargs = {} if limit is None else {"limit": float(limit)}
        out = dijkstra(self.csr, directed=False, indices=indices, **kwargs)
        k = 1 if np.ndim(indices) == 0 else len(indices)
        if limit is None:
            self.rows_computed += k
            PERF.incr("oracle.rows_computed", k)
        else:
            self.limited_sssp += k
            PERF.incr("oracle.limited_sssp", k)
        return out

    def full_matrix(self) -> np.ndarray:
        """The dense all-pairs matrix (one timed solve, not row-counted)."""
        with PERF.timer("oracle.full_matrix"):
            return dijkstra(self.csr, directed=False)

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
        self,
        src_idx: Sequence[int],
        tgt_idx: Sequence[int] | None = None,
        limit: float | None = None,
    ) -> np.ndarray:
        """Batched ``(len(src), len(tgt))`` distance block (``None`` = all)."""
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
    k-neighborhoods, landmark upper bounds, stats) lives here.
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
        self,
        src_idx: Sequence[int],
        tgt_idx: Sequence[int] | None = None,
        limit: float | None = None,
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

    def k_neighborhood(self, i: int, k: float) -> np.ndarray:
        """Exact pruned search; boundary nodes kept by the cost tolerance."""
        cutoff = _ball_cutoff(k)
        dists = self._neighborhood_row(i, cutoff)
        return np.nonzero(dists <= cutoff)[0]

    def _neighborhood_row(self, i: int, cutoff: float) -> np.ndarray:
        """A row exact at least up to ``cutoff`` (subclasses specialize)."""
        return self._engine.solve(i, limit=cutoff)

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
        self,
        src_idx: Sequence[int],
        tgt_idx: Sequence[int] | None = None,
        limit: float | None = None,
    ) -> np.ndarray:
        self._count_batched()
        M = self._ensure()
        if tgt_idx is None:
            return M[list(src_idx)]
        # one fancy-indexed copy of exactly the requested block — an
        # intermediate M[src_idx] would copy all n columns first
        return M[np.asarray(list(src_idx))[:, None], np.asarray(list(tgt_idx))]

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

    def _neighborhood_row(self, i: int, cutoff: float) -> np.ndarray:
        return self._ensure()[i]

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
        self,
        src_idx: Sequence[int],
        tgt_idx: Sequence[int] | None = None,
        limit: float | None = None,
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
            block = np.atleast_2d(self._solve_missing(missing, limit))
            for k, i in enumerate(missing):
                rows[i] = block[k]
                if limit is None and self._row_is_exact(block[k]):
                    self._rows.put(i, block[k])
        if len(missing) < len(src_idx):
            # a cached or repeated source: restack in source order (with
            # distinct uncached sources the solver's block is the answer)
            block = np.vstack([rows[i] for i in src_idx])
        # ``take`` keeps the selection row-major; ``block[:, cols]`` would
        # return a column-major copy, several times slower to build and scan
        return block if tgt_idx is None else np.take(block, list(tgt_idx), axis=1)

    def _solve_missing(self, missing: list[int], limit: float | None) -> np.ndarray:
        """Exact (possibly pruned) rows for the cache misses of one batch."""
        return self._engine.solve(np.asarray(missing), limit=limit)

    def _row_is_exact(self, row: np.ndarray) -> bool:
        """Whether a freshly computed unlimited row may enter the exact LRU."""
        return True

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
            # adjacent endpoints: a Dijkstra pruned at the connecting
            # edge's weight is exact and touches only a small ball
            return float(self._engine.solve(i, limit=w)[j])
        return float(self.distances_from(i)[j])

    def _neighborhood_row(self, i: int, cutoff: float) -> np.ndarray:
        row = self._rows.peek(i)
        if row is not None:
            return row
        return self._engine.solve(i, limit=cutoff)

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

    def _solve_missing(self, missing: list[int], limit: float | None) -> np.ndarray:
        if limit is not None:
            # pruned solves are exact everywhere and cost no budget
            return self._engine.solve(np.asarray(missing), limit=limit)
        granted = self._charge_exact(len(missing))
        if granted:
            exact_part = np.atleast_2d(self._engine.solve(np.asarray(missing[:granted])))
            # the caller's cache hook is off for this backend (approx
            # rows must stay out of the exact LRU), so exact rows are
            # cached here where exactness is known per row
            for k, i in enumerate(missing[:granted]):
                self._rows.put(i, exact_part[k])
        else:
            exact_part = np.empty((0, self._n))
        approx_part = [self._approx_row(i) for i in missing[granted:]]
        if not approx_part:
            return exact_part
        return np.vstack([exact_part, *approx_part])

    def _row_is_exact(self, row: np.ndarray) -> bool:
        # rows past the budget cut are landmark bounds; they are cached
        # in _approx_rows by _approx_row and must never pollute the
        # exact LRU (lazy's put-everything behaviour would)
        return False

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
            return float(self._engine.solve(i, limit=w)[j])
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
