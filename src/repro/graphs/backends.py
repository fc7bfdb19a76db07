"""Exact distances: the Dijkstra solver and the row store.

Every distance answer in this package comes from here.
:class:`repro.graphs.network.SensorNetwork` owns node identity (sorting,
index maps, weight normalization) and asks in integer node indices:

- :class:`SsspEngine` solves over the network's CSR: exact
  single-source rows (scipy's Dijkstra) and radius-limited ``balls``;
- :class:`RowStore` keeps the exact rows it has solved in an LRU. Every
  dense answer (a row, a block, a pair, the matrix, the diameter) is
  read off a row; the misses of one batch are solved in one call.

Exactness contract (what each consumer layer may assume):

- **Every answer is exact.** Rows, blocks and pairs come from one scipy
  solver over one CSR, so each is bit-for-bit equal to the same entry
  of a dense all-pairs solve; the cost ratios (paper §2.1, §4.1) divide
  by these distances. A pair ``(i, j)`` is read off ``i``'s side only:
  Dijkstra's sums from the two ends can differ in the last bit.
- **Radius-limited queries** have one entry point, ``balls(sources,
  limit)``: every node within ``limit`` of each source, as sparse
  ``(source position, node index, distance)`` entries, from
  :meth:`SsspEngine.balls` — scipy's pruned solve for a chunk whose
  dense rows fit in :data:`DENSE_BALL_ENTRIES`, a sparse frontier
  solver equal to it bit for bit otherwise. Balls never read or fill
  the row store. Hierarchy construction (``build_levels``, which also
  picks the default parents, and the parent sets solved on first
  read), the batch engine's SDL-hop table, ``k_neighborhood`` and the
  adjacent-pair fast path only issue balls, so a network brought up
  for serving solves no row (``repro audit backend`` checks it).
- **Rows are kept up to a capacity.** By default every row fits up to
  ``SensorNetwork.LAZY_THRESHOLD`` nodes: nothing is evicted, the first
  kept miss solves every row in one call (the all-pairs matrix), and
  the diameter is exact. Past it the store keeps
  ``SensorNetwork.LAZY_CACHE_ROWS`` rows, solving each batch's misses,
  the matrix is refused and the diameter is a certified double-sweep
  bracket. Pair batches are read off each source's row, distinct
  sources solved in chunks whose rows fit in
  :data:`DENSE_BALL_ENTRIES`; the batch engine's ledger read
  (``pair_index_distances``) keeps none of the rows it solves, so a
  forked worker that reads its ledger holds one chunk of rows.

``python -m repro audit backend`` (:mod:`repro.graphs.audit`) checks
this contract against a dense reference on small graphs;
``scripts/bench_backend.py`` measures the 100k-node build/query/memory
profile.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.perf import PERF

__all__ = ["SsspEngine", "RowStore", "DENSE_BALL_ENTRIES"]


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
#: takes scipy's pruned solve in one call: 4 MiB of float64. Few-source,
#: large-radius chunks (the upper levels of a build, single-source
#: balls) run there at a fraction of the frontier solver's per-round call
#: overhead; a wider chunk would hold ``len(sources) · n`` floats, so it
#: is solved in sub-chunks of this size or by the frontier solver.
DENSE_BALL_ENTRIES = 1 << 19

#: a chunk wider than :data:`DENSE_BALL_ENTRIES` goes to scipy in
#: sub-chunks when its middle source's ball holds at least
#: ``n / DENSE_BALL_SHARE`` nodes. A pruned scipy solve costs O(n) per
#: source to start and scan, the frontier solver a few numpy passes per
#: ball entry and round; on 64×64 to 256×256 grids the two cross near
#: balls of ``n / 48`` nodes.
DENSE_BALL_SHARE = 48


def _frontier_balls(
    m: csr_matrix, src: np.ndarray, limit: float, degree: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`SsspEngine.balls` without a dense row: O(entries) memory.

    Each round relaxes the (source, node) pairs whose label fell in the
    round before over the CSR (symmetric: the network stores both
    directions; ``degree`` is its row lengths), keeps each pair's
    nearest candidate and stores the ones that beat its label; rounds
    stop when none does. A candidate is ``d(u) + w(u, v)``, the left
    fold Dijkstra takes along a path, and float addition is monotone for
    non-negative weights, so the fixed point equals scipy's pruned
    Dijkstra bit for bit. Labels are kept sorted by
    ``source position · n + node``, which is also the output order.
    """
    indptr, adj, weight = m.indptr, m.indices, m.data
    n = int(m.shape[0])
    base = np.arange(src.size, dtype=np.int64) * n
    # the sentinel closes the labels, so a lookup never runs off the end
    keys = np.append(base + src, _NO_KEY)
    dist = np.zeros(keys.size)
    node, start, d = src, base, np.zeros(src.size)  # the frontier
    while True:
        deg = degree[node]
        ends = np.cumsum(deg)
        edge = np.repeat(indptr[node] - ends + deg, deg)
        edge += np.arange(edge.size)
        cand = np.repeat(d, deg)
        cand += weight[edge]
        near = np.flatnonzero(cand <= limit)
        cand = cand[near]
        key = np.repeat(start, deg)[near]
        key += adj[edge[near]]
        # each key's nearest candidate, in key order
        order = np.lexsort((cand, key))
        key = key[order]
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)
        key, cand = key[first], cand[order[first]]
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

    Wraps the network's CSR adjacency and counts exact row solves vs
    radius-limited ones — the numbers
    ``SensorNetwork.oracle_stats`` reports as ``rows_computed`` /
    ``limited_sssp``. The CSR stores both directions of every edge, so
    every scipy call passes ``directed=True``: ``directed=False`` would
    rebuild the transpose per call to symmetrize a matrix that already
    is, and the rows come out the same.
    """

    __slots__ = ("csr", "rows_computed", "limited_sssp", "_degree")

    def __init__(self, csr: csr_matrix) -> None:
        self.csr = csr
        self.rows_computed = 0
        self.limited_sssp = 0
        self._degree: np.ndarray | None = None

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
        one pruned scipy solve, scanned row-major. A wider one is solved
        by chunks that fit when the ball of its middle source, solved
        first as a probe, holds at least ``n / DENSE_BALL_SHARE`` nodes,
        and by :func:`_frontier_balls`, whose memory is O(entries),
        otherwise. Every route gives scipy's pruned distances bit for
        bit, so the route never shows in the result.
        """
        src = np.asarray(indices, dtype=np.int64).reshape(-1)
        self.limited_sssp += src.size
        PERF.incr("oracle.limited_sssp", src.size)
        step = DENSE_BALL_ENTRIES // self.n  # sources per scipy call
        with PERF.timer("oracle.balls"):
            if src.size <= step:
                return self._dense_balls(src, limit)
            mid = src.size // 2
            if step and self._dense_balls(src[mid : mid + 1], limit)[0].size * DENSE_BALL_SHARE >= self.n:
                parts = [self._dense_balls(src[lo : lo + step], limit, lo) for lo in range(0, src.size, step)]
                pos, node, dist = (np.concatenate(col) for col in zip(*parts, strict=True))
                return pos, node, dist
            if self._degree is None:
                self._degree = np.diff(self.csr.indptr).astype(np.int64)
            return _frontier_balls(self.csr, src, limit, self._degree)

    def _dense_balls(
        self, src: np.ndarray, limit: float, offset: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pruned scipy solve of ``src``, scanned row-major; source
        positions count from ``offset``."""
        block = dijkstra(self.csr, directed=True, indices=src, limit=limit)
        flat = np.flatnonzero(block <= limit)
        pos, node = np.divmod(flat, block.shape[1])
        return pos + offset, node, block.ravel()[flat]

    def edge_weight(self, i: int, j: int) -> float | None:
        """Weight of edge ``(i, j)``, or ``None`` when not adjacent."""
        m = self.csr
        lo, hi = int(m.indptr[i]), int(m.indptr[i + 1])
        cols = m.indices[lo:hi]
        pos = np.nonzero(cols == j)[0]
        if pos.size == 0:
            return None
        return float(m.data[lo + int(pos[0])])


class RowStore:
    """Exact single-source rows, solved on demand and kept in an LRU.

    A lookup that misses is solved by :meth:`SsspEngine.solve` (the
    misses of one batch in one call) and kept; past ``capacity`` rows
    the least recently used one is evicted. Once all ``n`` rows fit,
    nothing is ever evicted, and a miss that is kept solves every row
    the store lacks in the same call (:meth:`matrix`): a scipy call
    costs about 50 µs before its first row, more than a row of a
    network this small, and a reader that keeps rows here goes on to
    read most of them. The counters are the ones
    ``SensorNetwork.oracle_stats`` reports.
    """

    __slots__ = (
        "engine", "capacity", "hits", "misses", "evictions", "batched_calls", "_rows", "_matrix",
    )

    def __init__(self, engine: SsspEngine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("row cache capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.batched_calls = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._matrix: np.ndarray | None = None

    def get(self, i: int) -> np.ndarray | None:
        """Row ``i`` if resident (a hit), else ``None`` (a miss)."""
        row = self._rows.get(i)
        if row is None:
            self.misses += 1
            return None
        self._rows.move_to_end(i)
        self.hits += 1
        return row

    def _solve(self, sources: list[int], keep: bool) -> list[np.ndarray]:
        """The rows of ``sources``, none resident, solved in one call and
        kept unless ``keep`` is false; a kept miss in a store that keeps
        every row solves them all (:meth:`matrix`)."""
        if keep and self.capacity >= self.engine.n:
            self.matrix()
            return [self._rows[i] for i in sources]
        solved = list(np.atleast_2d(self.engine.solve(np.asarray(sources))))
        if keep:
            for i, row in zip(sources, solved, strict=True):
                self._rows[i] = row
                if len(self._rows) > self.capacity:  # evict the least recently used
                    self._rows.popitem(last=False)
                    self.evictions += 1
        return solved

    def row(self, i: int) -> np.ndarray:
        """Row ``i``, solved and kept on a miss."""
        row = self.get(i)
        if row is None:
            row = self._solve([i], keep=True)[0]
        return row

    def _lookup(self, sources: Sequence[int], keep: bool) -> dict[int, np.ndarray]:
        """The rows of ``sources``, by source. Each distinct source is
        looked up once, so a repeated miss counts once; the misses are
        solved in one call, and kept unless ``keep`` is false."""
        self.batched_calls += 1
        PERF.incr("oracle.batched_calls")
        resident = self._rows
        found: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for i in dict.fromkeys(sources):
            row = resident.get(i)
            if row is None:
                missing.append(i)
            else:
                resident.move_to_end(i)
                found[i] = row
        self.hits += len(found)
        self.misses += len(missing)
        if missing:
            found.update(zip(missing, self._solve(missing, keep), strict=True))
        return found

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """The ``(len(sources), n)`` block of the rows of ``sources``, kept."""
        if not sources:
            return np.empty((0, self.engine.n))
        found = self._lookup(sources, keep=True)
        return np.vstack([found[i] for i in sources])

    def pair(self, i: int, j: int) -> float:
        """``d(i, j)`` off ``i``'s side only: its resident row, or its row
        solved and kept. A store that evicts answers neighbours off
        ``i``'s ball at the connecting edge's weight instead (it holds
        ``j``: an exact answer from a small ball, and no row evicted for
        a throwaway pair)."""
        if i == j:
            return 0.0
        row = self.get(i)
        if row is None:
            w = self.engine.edge_weight(i, j) if self.capacity < self.engine.n else None
            if w is not None:
                _, nodes, dists = self.engine.balls([i], w)
                return float(dists[np.searchsorted(nodes, j)])
            row = self._solve([i], keep=True)[0]
        return float(row[j])

    def pairs(self, src: list[int], tgt: list[int], keep: bool = True) -> np.ndarray:
        """``d(i, j)`` for each pair ``(src[p], tgt[p])``.

        Each distance is read off the exact row of ``i``. The distinct
        sources go in order of first appearance, in chunks whose rows
        fit in :data:`DENSE_BALL_ENTRIES`, so a batch of any size holds
        one chunk of rows at a time (with ``keep`` false, none after).
        The entries are gathered pair by pair: a tracker's batches are a
        few pairs long, where array calls would cost more than the reads.
        """
        sources = list(dict.fromkeys(src))
        step = max(1, DENSE_BALL_ENTRIES // self.engine.n)
        if len(sources) <= step:  # every row in one chunk: a tracker's batch
            found = self._lookup(sources, keep)
            return np.array([found[i][j] for i, j in zip(src, tgt, strict=True)], dtype=float)
        chunk_of = {s: k // step for k, s in enumerate(sources)}
        members: list[list[int]] = [[] for _ in range(0, len(sources), step)]
        for p, s in enumerate(src):
            members[chunk_of[s]].append(p)
        values = [0.0] * len(src)
        for c, idx in enumerate(members):
            found = self._lookup(sources[c * step : (c + 1) * step], keep)
            for p in idx:
                values[p] = found[src[p]][tgt[p]]
        return np.array(values)

    def matrix(self) -> np.ndarray:
        """The all-pairs matrix: every row, solved in one call and kept,
        each row held once. While every row fits, rows are kept only
        through here, so none is resident before it. Raises
        ``RuntimeError`` when the rows do not fit."""
        n = self.engine.n
        if self.capacity < n:
            raise RuntimeError(
                f"distance_matrix needs all {n} rows resident, but the row store "
                f"keeps {self.capacity} (lazy_cache_rows)"
            )
        if self._matrix is None:
            self._matrix = self.engine.solve(np.arange(n))
            self._rows.update(enumerate(self._matrix))
        return self._matrix

    def diameter_bounds(self) -> tuple[float, float]:
        """Certified ``(lower, upper)`` bracket on the diameter ``D``.

        ``(D, D)`` off the matrix when every row fits. Otherwise an
        iterated double sweep: each hop moves to the farthest node seen,
        and eccentricities are non-decreasing along the walk, so the
        first non-improving sweep is a fixed point. Every sweep value is
        a real eccentricity ``e``, and ``D ≤ 2e`` by the triangle
        inequality.
        """
        n = self.engine.n
        if self.capacity >= n:
            d = float(self.matrix().max())
            return d, d
        cur = 0
        best = -1.0
        for _ in range(max(2, int(np.ceil(np.log2(n + 1))) + 2)):
            row = self.row(cur)
            far_i = int(np.argmax(row))
            ecc = float(row[far_i])
            if ecc <= best:
                break
            best = ecc
            cur = far_i
        return best, 2.0 * best

    def stats(self) -> dict[str, int | bool]:
        """The store's and the solver's counters."""
        return {
            "row_cache_capacity": self.capacity,
            "row_cache_size": len(self._rows),
            "row_cache_hits": self.hits,
            "row_cache_misses": self.misses,
            "row_cache_evictions": self.evictions,
            "rows_computed": self.engine.rows_computed,
            "limited_sssp": self.engine.limited_sssp,
            "batched_calls": self.batched_calls,
            "matrix_materialized": self._matrix is not None,
        }
