"""Seeded benchmark inputs, generated here and never by the program under test.

Everything a run feeds the service — the unit grid, the objects' start
sensors, the op stream (random-walk moves, uniform or Zipf queries with
flash-crowd bursts) and, for open loops, the Poisson arrival schedule —
comes from one ``--seed``, so a change to the program's own workload
generators cannot change what is measured. The expected answer and the
Manhattan optimum of every op are derived at the same time by replaying
the stream in submission order, which is what the answer check compares
against.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass

import networkx as nx
import numpy as np

from workloads import FLASH_BLOCK, FLASH_SHARE, ZIPF_EXPONENT, Workload

__all__ = ["MOVE", "QUERY", "Inputs", "grid_graph", "make_inputs", "manhattan", "object_names"]

MOVE = 1
QUERY = 2
#: seed of the object catalogue, fixed for every run
CATALOGUE_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """One run's generated inputs (all arrays aligned by op index)."""

    side: int
    #: start sensor of each object (published during set-up)
    start: np.ndarray
    #: per op: ``MOVE`` or ``QUERY``
    kind: np.ndarray
    obj: np.ndarray
    #: per op: the move's new proxy, or the query's source sensor
    node: np.ndarray
    #: per op: the proxy a correct answer names (the object's position after the op)
    expected: np.ndarray
    #: per op: Manhattan optimum of the op's cost (move: old -> new; query: source -> proxy)
    optimum: np.ndarray
    #: open loops: seconds from schedule start at which each op is due
    due: np.ndarray | None

    def __len__(self) -> int:
        return len(self.kind)

    def digest(self) -> str:
        """SHA-256 over every generated array (the run's input fingerprint)."""
        h = hashlib.sha256()
        h.update(f"side={self.side};n={len(self)};objects={len(self.start)}".encode())
        arrays = [self.start, self.kind, self.obj, self.node, self.expected, self.optimum]
        if self.due is not None:
            arrays.append(self.due)
        for arr in arrays:
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def grid_graph(side: int) -> nx.Graph:
    """The ``side × side`` unit grid; node ``r * side + c`` sits at (r, c)."""
    g = nx.Graph()
    g.add_nodes_from(range(side * side))
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                g.add_edge(v, v + 1, weight=1.0)
            if r + 1 < side:
                g.add_edge(v, v + side, weight=1.0)
    return g


def object_names(count: int) -> list[str]:
    """Stable object ids, ``o0000`` … (index order = Zipf popularity rank)."""
    return [f"o{i:04d}" for i in range(count)]


def manhattan(a: np.ndarray, b: np.ndarray, side: int) -> np.ndarray:
    """Shortest-path distance between grid nodes ``a`` and ``b`` (unit edges)."""
    ar, ac = np.divmod(a, side)
    br, bc = np.divmod(b, side)
    return np.abs(ar - br) + np.abs(ac - bc)


def _fold(u: np.ndarray, side: int) -> np.ndarray:
    """Reflect an unbounded lattice coordinate into ``[0, side - 1]``.

    Period ``2 (side - 1)``: a step off an edge comes back inward, so every
    unit step of the unbounded walk is a unit step on the grid (no no-op moves).
    """
    period = 2 * (side - 1)
    m = np.mod(u, period)
    return np.where(m <= side - 1, m, period - m)


def _stream_length(w: Workload, seconds: float, rng: np.random.Generator) -> tuple[int, np.ndarray | None]:
    if w.loop == "open":
        # Poisson arrivals at w.rate over [0, seconds): draw a generous
        # number of exponential gaps, keep the ones due inside the schedule
        draw = int(w.rate * seconds * 1.2) + 64
        due = np.cumsum(rng.exponential(1.0 / w.rate, draw))
        while due[-1] < seconds:  # pragma: no cover - needs a 20-sigma shortfall
            due = np.concatenate([due, due[-1] + np.cumsum(rng.exponential(1.0 / w.rate, draw))])
        due = due[due < seconds]
        return len(due), due
    n = max(int(math.ceil(w.stream_rate * seconds)), w.cost_ops(seconds, 0) + w.concurrency)
    return n, None


def _query_objects(w: Workload, count: int, rng: np.random.Generator) -> np.ndarray:
    if w.popularity == "uniform":
        return rng.integers(0, w.objects, count)
    weights = 1.0 / np.arange(1, w.objects + 1) ** ZIPF_EXPONENT
    drawn = rng.choice(w.objects, size=count, p=weights / weights.sum())
    # flash crowd: the last FLASH_SHARE of every block of FLASH_BLOCK
    # consecutive queries all ask for the head object (index 0)
    crowd = np.arange(count) % FLASH_BLOCK >= round(FLASH_BLOCK * (1.0 - FLASH_SHARE))
    return np.where(crowd, 0, drawn)


def make_inputs(w: Workload, seed: int, seconds: float) -> Inputs:
    """Generate a workload's inputs for one run; same seed, same inputs.

    Generators are keyed by a seed and a CRC of the workload name (never the
    salted built-in ``hash``), so workloads draw independent streams. The
    stream is replayed chunk by chunk, so the generator's temporaries stay
    small next to what the service itself holds (peak RSS is a metric).
    """
    key = zlib.crc32(w.name.encode())
    side, cells = w.side, w.side * w.side
    # the catalogue (each object's start sensor) is part of the deployment,
    # like the grid: the same in every run, so seeds differ by traffic only
    start = np.random.default_rng([CATALOGUE_SEED, key]).integers(0, cells, w.objects)
    rng = np.random.default_rng([seed, key])
    n, due = _stream_length(w, seconds, rng)
    kind = np.where(rng.random(n) < w.move_share, MOVE, QUERY).astype(np.int8)
    is_move = kind == MOVE
    n_moves = int(is_move.sum())
    obj = np.empty(n, dtype=np.int32)
    obj[is_move] = rng.integers(0, w.objects, n_moves)
    obj[~is_move] = _query_objects(w, n - n_moves, rng)
    # one unit step per move on an unbounded lattice: +x, -x, +y, -y
    step = np.zeros(n, dtype=np.int8)
    step[is_move] = rng.integers(0, 4, n_moves) + 1
    node = np.empty(n, dtype=np.int32)
    node[~is_move] = rng.integers(0, cells, n - n_moves)

    expected = np.empty(n, dtype=np.int32)
    optimum = np.empty(n, dtype=np.int32)
    # each object's unbounded lattice position, carried across chunks
    cur_r, cur_c = np.divmod(start.astype(np.int64), side)
    for lo in range(0, n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n))
        o = obj[sl]
        dr = np.array([0, 0, 0, 1, -1])[step[sl]]
        dc = np.array([0, 1, -1, 0, 0])[step[sl]]
        after_r = cur_r[o] + _running_sum(o, dr)
        after_c = cur_c[o] + _running_sum(o, dc)
        after = _fold(after_r, side) * side + _fold(after_c, side)
        before = _fold(after_r - dr, side) * side + _fold(after_c - dc, side)
        moved = is_move[sl]
        node[sl] = np.where(moved, after, node[sl])
        expected[sl] = after
        optimum[sl] = np.where(moved, manhattan(before, after, side), manhattan(node[sl], after, side))
        cur_r += np.bincount(o, weights=dr, minlength=w.objects).astype(np.int64)
        cur_c += np.bincount(o, weights=dc, minlength=w.objects).astype(np.int64)
    return Inputs(side=side, start=start, kind=kind, obj=obj, node=node,
                  expected=expected, optimum=optimum, due=due)


#: ops replayed per chunk while generating
_CHUNK = 65_536


def _running_sum(group: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-group inclusive running sum of ``x`` in array order."""
    order = np.argsort(group, kind="stable")
    g, cum = group[order], np.cumsum(x[order])
    first = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    base = np.repeat(cum[first] - x[order][first], np.diff(np.r_[first, len(g)]))
    out = np.empty_like(cum)
    out[order] = cum - base
    return out
