"""Columnar MOT batch engine — one vectorized pass per batch of ops.

The scalar :class:`~repro.core.mot.MOTTracker` walks python objects per
hop: every publish/move/query builds ``HNode`` tuples, probes dict-of-set
detection lists, and issues per-level distance lookups. This module is
the data-oriented rewrite of the same algorithm: all tracker state lives
in numpy arrays, and :meth:`BatchMOTEngine.apply_ops` solves a whole
FIFO batch of requests in one vectorized pass.

The rewrite leans on one structural invariant of the configuration the
paper's experiments (and the serve layer) run, ``use_parent_sets=False``:
every parent set is the singleton default parent, so

- ``DPath(x)`` has exactly one ``HNode`` per level — a sensor's whole
  detection path is a row ``chain[x] = [x, home¹(x), …, root]`` of node
  indices;
- an object's spine — its DL entries from the proxy up to the root —
  **is** ``chain[proxy]``. Publish installs ``DPath(proxy)``. A move to
  ``new`` climbs ``chain[new]`` until it meets the spine at the peak
  level, installs ``chain[new]`` below it and keeps the spine above it;
  but above the peak the two chains already coincide, because
  ``home`` is a function of the node alone. So the DL membership test
  "is ``obj`` in the DL of ``(ℓ, v)``" collapses to
  ``chain[proxy, ℓ] == v``, and the hop costs along the spine are
  ``chain_hop[proxy]``;
- the special parent of the spine entry at level ``ℓ`` is determined by
  the entry's *node* alone (``home^σ`` of it), so SDL hits need no extra
  per-object state either.

Static per-hierarchy tables (built once, shared across engines over the
same hierarchy):

- ``chain[i, ℓ]`` — node index of ``home^ℓ(node i)``;
- ``chain_hop[i, ℓ]`` — ``dist(chain[i, ℓ], chain[i, ℓ+1])``, read from
  the hierarchy's own default-parent distances
  (:meth:`~repro.hierarchy.structure.Hierarchy.default_parent_hop`), so
  the build runs no oracle query;
- ``cum_q[i, ℓ]`` — running climb cost ``Σ_{k<ℓ} chain_hop[i, k]``, the
  float sum in exactly the scalar tracker's addition order;
- ``up_cum[i, ℓ]`` / ``pub_cost[i]`` — move-climb / publish cost
  prefixes, with SDL install costs interleaved at the scalar tracker's
  addition positions when ``count_special_parent_cost`` is on;
- ``lift[ℓ]`` — node index of the special parent's host for a spine
  entry at level ``ℓ`` (``home^{min(ℓ+σ,h)-ℓ}``), the table behind the
  vectorized SDL probe.

Per-object state is three columns plus a row map: ``proxy`` (node
index), ``epoch`` (applied moves) and ``published``. Each op's answer
depends only on the object's proxy just before it, so one pass over a
whole batch keeps sequential semantics. :meth:`BatchMOTEngine.apply_ops`
takes an :class:`OpBatch` (three columns ``kind``/``obj``/``node``)
and, in one pass: translates the columns to integers, validates them vectorized,
stable-sorts the applied ops by object, forward-fills each op's prior
proxy, takes epochs as a segmented cumulative sum of real moves,
coalesces duplicate queries with one ``np.unique``, and runs the move
kernel and the query kernel once each. It returns a
:class:`BatchResult` of result columns. ``len()`` of a batch and of a
result is its op count.

Contracts:

- Proxies and epochs are **bit-identical** to the scalar tracker; costs
  match up to float summation order (:func:`close_to` — climb costs are
  bit-exact, descend sums may differ by ulps). Failed ops carry the
  scalar tracker's exception type and message and leave no trace in
  the state, the logs or the ledger.
- Ledger deltas are reduced once per op kind per call through the
  ``CostLedger.record_*_batch`` APIs. Float totals can differ from a
  per-op accumulation by float grouping only (bit-identical on
  unit-weight networks).
- The applied-op log and the answered-query log are appended to
  capacity-doubling column buffers; :attr:`BatchMOTEngine.oplog` and
  :attr:`BatchMOTEngine.query_log` are read-only views built on read.

:func:`audit_batch_core` is the equivalence gate: it replays an engine's
op log through a fresh sequential :class:`MOTTracker` and asserts
identical proxies and epochs, per-query answers, and ``close_to``
ledgers — the same pattern :func:`repro.serve.audit.audit_service` uses
for the serve layer, gated in CI by ``repro audit-batch``.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple

import numpy as np

from repro.core.costs import CostLedger, close_to
from repro.core.mot import MOTConfig, MOTTracker
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import BaseHierarchy, build_hierarchy

Node = Hashable

__all__ = [
    "BatchMOTEngine",
    "BatchQueryRecord",
    "BatchResult",
    "BatchAuditReport",
    "OpBatch",
    "audit_batch_core",
]


# ----------------------------------------------------------------------
# static per-hierarchy tables
# ----------------------------------------------------------------------
class _Tables:
    """Immutable columnar tables derived from one hierarchy + config."""

    def __init__(self, hs: BaseHierarchy, config: MOTConfig) -> None:
        net = hs.net
        n = net.n
        h = hs.h
        gap = hs.special_parent_gap
        self.h = h
        self.gap = gap

        index_of = net.index_of
        node_at = net.node_at

        # per-level default-parent maps as full-width index arrays
        # (valid only at that level's member indices; -1 elsewhere); the
        # hop distances come from the hierarchy's own construction solve,
        # so building the tables runs no oracle query
        dparr: list[np.ndarray] = []
        hop_full: list[np.ndarray] = []
        for ell in range(h):
            dp = np.full(n, -1, dtype=np.int64)
            hf = np.zeros(n, dtype=np.float64)
            for w in hs.level_nodes(ell):  # type: ignore[attr-defined]
                i = index_of(w)
                dp[i] = index_of(hs.default_parent(ell, w))  # type: ignore[attr-defined]
                hf[i] = hs.default_parent_hop(ell, w)  # type: ignore[attr-defined]
            dparr.append(dp)
            hop_full.append(hf)

        # chain[i, l] = home^l(node i); chain_hop[i, l] = hop l -> l+1
        chain = np.empty((n, h + 1), dtype=np.int32)
        chain[:, 0] = np.arange(n, dtype=np.int32)
        chain_hop = np.zeros((n, h), dtype=np.float64)
        for ell in range(h):
            chain[:, ell + 1] = dparr[ell][chain[:, ell]]
            chain_hop[:, ell] = hop_full[ell][chain[:, ell]]

        # cum_q[i, l] = sequential sum of the first l climb hops — the
        # exact float the scalar query/move climb accumulates
        cum_q = np.zeros((n, h + 1), dtype=np.float64)
        if h:
            np.cumsum(chain_hop, axis=1, out=cum_q[:, 1:])

        # lift[l][w] = node index hosting the special parent of a spine
        # entry at (l, node w); rows exist for install levels 1..h-1
        lift = np.zeros((h + 1, n), dtype=np.int32)
        for ell in range(1, h):
            cur = np.arange(n, dtype=np.int64)
            for step in range(ell, min(ell + gap, h)):
                cur = dparr[step][cur]
            lift[ell] = cur.astype(np.int32)

        # SDL install/remove message cost per (level, node) — only
        # charged in count_special_parent_cost mode
        self.sdl_cost: np.ndarray | None = None
        count_sdl = config.use_special_parents and config.count_special_parent_cost
        if count_sdl:
            sdl_cost = np.zeros((n, h + 1), dtype=np.float64)
            for ell in range(1, h):
                members = hs.level_nodes(ell)  # type: ignore[attr-defined]
                pairs = [(w, node_at(int(lift[ell, index_of(w)]))) for w in members]
                costs = net.pair_distances(pairs)
                for k, w in enumerate(members):
                    sdl_cost[index_of(w), ell] = costs[k]
            self.sdl_cost = sdl_cost

        # publish/move cost prefixes in scalar addition order: the climb
        # interleaves hop(level ℓ) then SDL-install(level ℓ) terms
        terms = np.zeros((n, 2 * h), dtype=np.float64)
        if h:
            terms[:, 0::2] = chain_hop
            if count_sdl:
                assert self.sdl_cost is not None
                for ell in range(1, h):
                    terms[:, 2 * ell - 1] = self.sdl_cost[chain[:, ell], ell]
        tc = np.cumsum(terms, axis=1)
        up_cum = np.zeros((n, h + 1), dtype=np.float64)
        for ell in range(1, h + 1):
            up_cum[:, ell] = tc[:, 2 * ell - 2]
        self.pub_cost = tc[:, -1].copy() if h else np.zeros(n, dtype=np.float64)

        self.chain = chain
        self.chain_hop = chain_hop
        self.cum_q = cum_q
        self.up_cum = up_cum
        self.lift = lift


#: hierarchy → {(use_special, count_sdl): tables}; weak so a dropped
#: hierarchy releases its tables with it (shards share one hierarchy,
#: so a 4-shard batch service builds the tables exactly once)
_TABLE_CACHE: "weakref.WeakKeyDictionary[BaseHierarchy, dict]" = (
    weakref.WeakKeyDictionary()
)


def _tables_for(hs: BaseHierarchy, config: MOTConfig) -> _Tables:
    per_hs = _TABLE_CACHE.setdefault(hs, {})
    key = (config.use_special_parents, config.count_special_parent_cost)
    tables = per_hs.get(key)
    if tables is None:
        tables = per_hs[key] = _Tables(hs, config)
    return tables




# ----------------------------------------------------------------------
# batch and result columns
# ----------------------------------------------------------------------
#: op kind → code in the engine's columns and logs
_PUBLISH, _MOVE, _QUERY = 0, 1, 2
_KIND_NAMES: tuple[str, ...] = ("publish", "move", "query")
_KIND_CODE = {name: code for code, name in enumerate(_KIND_NAMES)}

#: the default of every ``map(mapping.get, keys, _MISSING)`` translation
#: (an endless iterator: ``map`` stops at the key column)
_MISSING = itertools.repeat(-1)

#: the log buffers' record layouts (packed: 9 and 29 bytes per entry)
_OP_DTYPE = np.dtype([("row", np.int32), ("kind", np.int8), ("node", np.int32)])
_QUERY_DTYPE = np.dtype(
    [
        ("row", np.int32),
        ("epoch", np.int64),
        ("source", np.int32),
        ("proxy", np.int32),
        ("cost", np.float64),
        ("coalesced", np.bool_),
    ]
)


@dataclass(slots=True)
class OpBatch:
    """One FIFO batch of ops as three columns; ``len()`` is the op count.

    ``kind[i]`` is ``"publish"`` / ``"move"`` / ``"query"`` and
    ``node[i]`` the op's proxy / new proxy / query source. Pickled as
    its three lists, so a batch frame carries no per-op objects.
    """

    kind: list[str]
    obj: list[str]
    node: list[Node]

    @classmethod
    def of(cls, ops: Iterable[tuple[str, str, Node]]) -> "OpBatch":
        """The batch of ``(kind, obj, node)`` tuples, in order."""
        kind: list[str] = []
        obj: list[str] = []
        node: list[Node] = []
        for k, o, x in ops:
            kind.append(k)
            obj.append(o)
            node.append(x)
        return cls(kind, obj, node)

    def __len__(self) -> int:
        return len(self.kind)

    def __reduce__(self) -> tuple:
        return (OpBatch, (self.kind, self.obj, self.node))


@dataclass(slots=True)
class BatchResult:
    """Result columns of one :meth:`BatchMOTEngine.apply_ops` call.

    Plain lists in the batch's FIFO order, one entry per op: ``proxy``
    (node index of the proxy after the op; for a query, the answer),
    ``cost``, ``epoch``, ``coalesced``, ``optimal`` and ``messages``.
    ``errors`` maps the position of each failed op to the exception
    the scalar tracker would have raised; the columns hold zeros there.
    ``len()`` is the op count.
    """

    proxy: list[int]
    cost: list[float]
    epoch: list[int]
    coalesced: list[bool]
    optimal: list[float]
    messages: list[int]
    errors: dict[int, Exception]

    def __len__(self) -> int:
        return len(self.proxy)


class BatchQueryRecord(NamedTuple):
    """One answered query, shaped for the equivalence audit."""

    obj: str
    epoch: int
    source: Node
    proxy: Node
    cost: float
    coalesced: bool


def _grown(buf: np.ndarray, need: int) -> np.ndarray:
    """``buf`` copied into a buffer of at least ``need`` entries (doubling)."""
    cap = len(buf)
    while cap < need:
        cap *= 2
    out = np.zeros(cap, dtype=buf.dtype)
    out[: len(buf)] = buf
    return out


class BatchMOTEngine:
    """Vectorized Algorithm 1 over columnar state (module docstring).

    Requires ``use_parent_sets=False`` — the single-chain structure the
    paper's experiments run and the serve layer deploys. The parent-set
    variant keeps multi-node levels and per-rank SDL placement; it stays
    on the scalar tracker.
    """

    def __init__(self, hierarchy: BaseHierarchy, config: MOTConfig | None = None) -> None:
        self.hs = hierarchy
        self.net = hierarchy.net
        self.config = config or MOTConfig()
        if self.config.use_parent_sets:
            raise ValueError(
                "BatchMOTEngine requires use_parent_sets=False "
                "(single default-parent chains)"
            )
        self.ledger = CostLedger()
        self._t = _tables_for(hierarchy, self.config)
        self.h = self._t.h
        self._index = self.net.index_map
        # SDL probe coordinates: a source chain at level ell (gap < ell
        # < h) hits the special parent of the spine entry at ell - gap
        gap = self._t.gap
        probe = (
            np.arange(gap + 1, self.h)
            if self.config.use_special_parents
            else np.arange(0)
        )
        self._sdl_from = probe - gap
        self._sdl_col = probe - 1

        #: object id -> row in the state columns
        self._row: dict[str, int] = {}
        self._obj_of_row: list[str] = []
        cap = 64
        self._proxy = np.zeros(cap, dtype=np.int64)
        self._epoch = np.zeros(cap, dtype=np.int64)
        self._published = np.zeros(cap, dtype=bool)

        #: applied publishes/moves and answered queries, FIFO, for the audit
        self._op_log = np.zeros(cap, dtype=_OP_DTYPE)
        self._n_ops = 0
        self._query_log = np.zeros(cap, dtype=_QUERY_DTYPE)
        self._n_queries = 0

    @classmethod
    def build(
        cls,
        net: "SensorNetwork",
        config: MOTConfig | None = None,
        seed: int = 0,
    ) -> "BatchMOTEngine":
        """Build the hierarchy from ``config`` and wrap it in an engine.

        Mirrors :meth:`repro.core.mot.MOTTracker.build`, so equivalence
        harnesses can construct both sides from the same seed.
        """
        config = config or MOTConfig()
        hs = build_hierarchy(
            net,
            seed=seed,
            parent_set_radius_factor=config.parent_set_radius_factor,
            special_parent_gap=config.special_parent_gap,
            use_parent_sets=config.use_parent_sets,
        )
        return cls(hs, config)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def objects(self) -> tuple[str, ...]:
        """All published objects."""
        return tuple(o for o, r in self._row.items() if self._published[r])

    @property
    def object_count(self) -> int:
        """How many objects are published (no log view is built)."""
        return int(np.count_nonzero(self._published[: len(self._obj_of_row)]))

    def _published_row(self, obj: str) -> int:
        row = self._row.get(obj)
        if row is None or not self._published[row]:
            raise KeyError(f"object {obj!r} was never published")
        return row

    def proxy_of(self, obj: str) -> Node:
        """Current proxy sensor of ``obj`` (KeyError when unpublished)."""
        return self.net.node_at(int(self._proxy[self._published_row(obj)]))

    def epoch_of(self, obj: str) -> int:
        """Applied-move count of ``obj`` (no-op moves excluded)."""
        return int(self._epoch[self._published_row(obj)])

    @property
    def epochs(self) -> dict[str, int]:
        """Applied-move count of every published object (a fresh dict)."""
        n = len(self._obj_of_row)
        return {
            obj: epoch
            for obj, epoch, published in zip(
                self._obj_of_row,
                self._epoch[:n].tolist(),
                self._published[:n].tolist(),
                strict=True,
            )
            if published
        }

    def spine_row(self, obj: str) -> np.ndarray:
        """The object's spine as node indices, level 0..h (a copy).

        The spine is the proxy's detection path (module docstring).
        """
        return self._t.chain[self._proxy[self._published_row(obj)]].copy()

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied ops per object: ``[("publish", proxy), ("move", new), ...]``.

        A read-only view, built from the log buffer on every read.
        """
        obj_of = self._obj_of_row
        node_at = self.net.node_at
        out: dict[str, list[tuple[str, Node]]] = {}
        for row, kind, node in self._op_log[: self._n_ops].tolist():
            out.setdefault(obj_of[row], []).append((_KIND_NAMES[kind], node_at(node)))
        return out

    @property
    def query_log(self) -> tuple[BatchQueryRecord, ...]:
        """Every answered query in execution order (a view built on read)."""
        obj_of = self._obj_of_row
        node_at = self.net.node_at
        return tuple(
            BatchQueryRecord(obj_of[row], epoch, node_at(src), node_at(proxy), cost, coal)
            for row, epoch, src, proxy, cost, coal in self._query_log[
                : self._n_queries
            ].tolist()
        )

    def adopt_query_log(self, records: Iterable[BatchQueryRecord]) -> None:
        """Replace the query log with ``records`` (snapshot restore).

        Every record's object must already have a row.
        """
        recs = list(records)
        log = np.zeros(max(64, len(recs)), dtype=_QUERY_DTYPE)
        index_of = self.net.index_of
        log[: len(recs)] = [
            (self._row[r.obj], r.epoch, index_of(r.source), index_of(r.proxy), r.cost, r.coalesced)
            for r in recs
        ]
        self._query_log = log
        self._n_queries = len(recs)

    # ------------------------------------------------------------------
    # row management
    # ------------------------------------------------------------------
    def _claim_row(self, obj: str) -> int:
        row = len(self._obj_of_row)
        if row == len(self._proxy):
            self._proxy = _grown(self._proxy, row + 1)
            self._epoch = _grown(self._epoch, row + 1)
            self._published = _grown(self._published, row + 1)
        self._row[obj] = row
        self._obj_of_row.append(obj)
        return row

    # ------------------------------------------------------------------
    # the one pass
    # ------------------------------------------------------------------
    def apply_ops(self, batch: OpBatch) -> BatchResult:
        """Apply one FIFO batch in one vectorized pass; result columns.

        Sequential semantics are preserved exactly: each op observes
        every earlier op's effect. Failures raise nothing here — the
        result's ``errors`` carries the exception the scalar tracker
        would have raised, and the op leaves no trace in the state, the
        logs or the ledger.

        Duplicate queries for the same ``(obj, epoch, source)`` within
        the batch coalesce: the first executes, the twins reuse its
        answer (``coalesced``) and are excluded from the ledger.
        """
        n = len(batch)
        errors: dict[int, Exception] = {}
        if n == 0:
            return BatchResult([], [], [], [], [], [], errors)

        # 1. translate once: kind -> code, obj -> row, node -> index
        # (-1 where unknown), as one (3, n) array
        cols = np.fromiter(
            itertools.chain(
                map(_KIND_CODE.get, batch.kind, _MISSING),
                map(self._row.get, batch.obj, _MISSING),
                map(self._index.get, batch.node, _MISSING),
            ),
            np.int64,
            3 * n,
        ).reshape(3, n)
        code, rows, nidx = cols

        # 2. validate — only a batch with a publish or an unknown kind,
        # object or node needs it; the ops that apply keep FIFO order
        pos: np.ndarray | None = None
        low_kind, low_row, low_node = np.minimum.reduce(cols, axis=1).tolist()
        if low_kind <= _PUBLISH or low_row < 0 or low_node < 0:
            keep = self._validate(batch, code, rows, nidx, errors)
            if keep is not None:
                pos = keep.nonzero()[0]
                code, rows, nidx = code[pos], rows[pos], nidx[pos]
        m = len(rows)
        n_pub, n_move, n_query = np.bincount(code, minlength=3).tolist()

        # 3. stable-sort by object; each op's prior proxy is the node of
        # the last publish/move before it in its segment (forward fill)
        # or the stored proxy, and its epoch the stored epoch plus a
        # segmented cumulative sum of real moves. A batch whose objects
        # are all distinct skips the sort: every segment has length 1.
        order: np.ndarray | None = None
        if m > 1:
            order = rows.argsort(kind="stable")
            rw = rows[order]
            first = np.empty(m, dtype=bool)
            first[0] = True
            np.not_equal(rw[1:], rw[:-1], out=first[1:])
            if first.all():
                order = None
        if order is None:
            kw, rw, xw = code, rows, nidx
            prior = self._proxy[rw]
        else:
            kw, xw = code[order], nidx[order]
            start = np.where(first, np.arange(m), 0)
            np.maximum.accumulate(start, out=start)
            if n_query == m:  # nothing sets a proxy inside the batch
                prior = self._proxy[rw]
            else:
                last = np.where(kw != _QUERY, np.arange(m), -1)
                np.maximum.accumulate(last, out=last)
                prev = np.empty(m, dtype=np.int64)
                prev[0] = -1
                prev[1:] = last[:-1]
                prior = np.where(prev >= start, xw[prev], self._proxy[rw])
        epoch = self._epoch[rw]
        real: np.ndarray | None = None
        if n_move:
            real = xw != prior
            if n_move < m:
                real &= kw == _MOVE
            if order is None:
                epoch = epoch + real
            else:
                run = real.cumsum()
                epoch = epoch + run - (run[start] - real[start])
        if n_query == m:
            after = prior
        elif n_query:
            after = np.where(kw == _QUERY, prior, xw)
        else:
            after = xw

        # 4. coalesce queries on (object, epoch, source) with one
        # np.unique; the first in FIFO order executes
        queries: np.ndarray | None = None
        twins: np.ndarray | None = None
        sources: np.ndarray | None = None
        if n_query:
            queries = (kw == _QUERY).nonzero()[0] if n_query < m else np.arange(m)
            if order is not None and n_query > 1:
                fresh = first.copy()
                fresh[1:] |= epoch[1:] != epoch[:-1]
                key = fresh.cumsum()[queries] * self.net.n + xw[queries]
                _, head, inverse = np.unique(key, return_index=True, return_inverse=True)
                twin = queries[head][inverse.reshape(-1)]
                dup = twin != queries
                if dup.any():
                    twins, sources = queries[dup], twin[dup]
                    queries = queries[~dup]

        # output columns in FIFO position space; back maps work order there
        if order is None:
            back = np.arange(n) if pos is None else pos
        else:
            back = order if pos is None else pos[order]
        ints = np.zeros((3, n), dtype=np.int64)  # proxy, epoch, messages
        floats = np.zeros((2, n))  # cost, optimal
        coalesced = np.zeros(n, dtype=bool)
        ints[0, back] = after
        ints[1, back] = epoch

        # 5. the kernels, once each, and one ledger delta per op kind
        t = self._t
        ledger = self.ledger
        births: np.ndarray | None = None
        if n_pub:
            births = (kw == _PUBLISH).nonzero()[0] if n_pub < m else np.arange(m)
            pub = t.pub_cost[xw[births]]
            w = back[births]
            floats[0, w] = pub
            ints[2, w] = self.h
            ledger.record_publish_batch(float(np.add.reduce(pub)), n_pub)
        if real is not None:
            moved = real.nonzero()[0]
            if n_move > moved.size:
                ledger.record_noop_moves(n_move - moved.size)
            if moved.size:
                cost, optimal, messages = self._move_kernel(prior[moved], xw[moved])
                w = back[moved]
                floats[0, w] = cost
                floats[1, w] = optimal
                ints[2, w] = messages
                ledger.record_maintenance_batch(*_delta(cost, optimal, messages))
        if queries is not None:
            local = xw[queries] == prior[queries]
            n_local = int(np.count_nonzero(local))
            if n_local:
                ledger.record_local_queries(n_local)
                queries = queries[~local]
            if queries.size:
                cost, optimal, messages = self._query_kernel(xw[queries], prior[queries])
                w = back[queries]
                floats[0, w] = cost
                floats[1, w] = optimal
                ints[2, w] = messages
                ledger.record_query_batch(*_delta(cost, optimal, messages))
        if twins is not None and sources is not None:
            w, src = back[twins], back[sources]
            floats[:, w] = floats[:, src]
            ints[2, w] = ints[2, src]
            coalesced[w] = True

        # 6. write back each row's last proxy and epoch, then log
        if order is None:
            self._proxy[rw] = after
            self._epoch[rw] = epoch
        else:
            tail = np.empty(m, dtype=bool)
            tail[-1] = True
            tail[:-1] = first[1:]
            self._proxy[rw[tail]] = after[tail]
            self._epoch[rw[tail]] = epoch[tail]
        if births is not None:
            self._published[rw[births]] = True
        self._log(rows, code, nidx, n_query, pos, ints, floats, coalesced)

        proxy, epochs, messages = ints.tolist()
        cost, optimal = floats.tolist()
        return BatchResult(proxy, cost, epochs, coalesced.tolist(), optimal, messages, errors)

    def _validate(
        self,
        batch: OpBatch,
        code: np.ndarray,
        rows: np.ndarray,
        nidx: np.ndarray,
        errors: dict[int, Exception],
    ) -> np.ndarray | None:
        """Step 2 of :meth:`apply_ops`: the mask of ops that apply
        (``None`` when all of them do).

        An object unknown to the engine is born at its first publish
        with a valid node: that op claims its row, and later ops of the
        object read it. Failed ops land in ``errors`` with the scalar
        tracker's precedence — already-published beats a bad node,
        never-published beats a bad node, an unknown kind fails in
        place. ``rows`` is updated in place.
        """
        born = np.zeros(len(rows), dtype=bool)
        unknown = (rows < 0).nonzero()[0].tolist()
        if unknown:
            objs, kinds, nodes = batch.obj, batch.kind, batch.node
            claimed: dict[str, int] = {}
            for i in unknown:
                obj = objs[i]
                row = claimed.get(obj)
                if row is None:
                    if kinds[i] != "publish" or nodes[i] not in self._index:
                        continue  # never published or not a sensor: fails below
                    row = claimed[obj] = self._claim_row(obj)
                    born[i] = True
                rows[i] = row
        bad_kind = code < 0
        publish = code == _PUBLISH
        unborn = rows < 0
        duplicate = publish & ~born & ~unborn
        bad_node = nidx < 0
        if not (bad_kind | duplicate | unborn | bad_node).any():
            return None
        ghost = unborn & ~publish & ~bad_kind
        bad_node &= ~(bad_kind | duplicate | ghost)
        # one reason code per failed op (the masks are disjoint)
        reason = bad_kind + 2 * duplicate + 3 * ghost + 4 * bad_node
        failed = reason.nonzero()[0]
        for i, why in zip(failed.tolist(), reason[failed].tolist(), strict=True):
            if why == 1:
                errors[i] = TypeError(f"unknown batch op kind {batch.kind[i]!r}")
            elif why == 2:
                errors[i] = ValueError(f"object {batch.obj[i]!r} is already published")
            elif why == 3:
                errors[i] = KeyError(f"object {batch.obj[i]!r} was never published")
            else:
                errors[i] = KeyError(f"{batch.node[i]!r} is not a sensor of this network")
        return reason == 0

    def _move_kernel(
        self, old: np.ndarray, new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost, optimum and message count of real moves ``old -> new``."""
        t = self._t
        # peak level: first level >= 1 where the old spine meets the new
        # chain (the root guarantees a hit)
        old_up = t.chain[old, 1:]
        peak = 1 + (old_up == t.chain[new, 1:]).argmax(axis=1)
        down = t.cum_q[old, peak]
        if t.sdl_cost is not None:
            # removal messages for the deleted entries at levels 1..peak-1
            lvl = np.arange(1, self.h + 1)
            down = down + np.where(
                lvl[None, :] < peak[:, None], t.sdl_cost[old_up, lvl[None, :]], 0.0
            ).sum(axis=1)
        cost = t.up_cum[new, peak] + down
        optimal = self.net.pair_index_distances(np.array((old, new)).T)
        return cost, optimal, 2 * peak

    def _query_kernel(
        self, src: np.ndarray, proxy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost, optimum and message count of non-local queries."""
        t = self._t
        gap = t.gap
        # climb: DL hit when the source chain meets the spine; SDL hit
        # when it meets a spine entry's special parent (level l-gap
        # installed it; root-level SDL is shadowed by the root DL)
        spine = t.chain[proxy]
        src_up = t.chain[src, 1:]
        dl_hit = spine[:, 1:] == src_up
        hit = dl_hit
        if self._sdl_col.size:
            hit = dl_hit.copy()
            hosts = t.lift[self._sdl_from, spine[:, self._sdl_from]]
            hit[:, self._sdl_col] |= hosts == src_up[:, self._sdl_col]
        level = 1 + hit.argmax(axis=1)
        via_sdl = ~dl_hit[np.arange(len(src)), level - 1]
        desc_level = np.where(via_sdl, level - gap, level)
        cost = t.cum_q[src, level] + t.cum_q[proxy, desc_level]
        messages = level + desc_level
        sdl_rows = via_sdl.nonzero()[0]
        if sdl_rows.size:
            # one extra hop from the hit node to the special child that
            # installed the entry (the spine entry at level - gap)
            sc_level = level[sdl_rows]
            cost[sdl_rows] += self.net.pair_index_distances(
                np.array(
                    (t.chain[src[sdl_rows], sc_level], spine[sdl_rows, sc_level - gap]),
                    dtype=np.int64,
                ).T
            )
            messages[sdl_rows] += 1
        optimal = self.net.pair_index_distances(np.array((src, proxy)).T)
        return cost, optimal, messages

    def _log(
        self,
        rows: np.ndarray,
        code: np.ndarray,
        nidx: np.ndarray,
        n_queries: int,
        pos: np.ndarray | None,
        ints: np.ndarray,
        floats: np.ndarray,
        coalesced: np.ndarray,
    ) -> None:
        """Append the applied ops to the log buffers, in FIFO order."""
        n_ops = len(code) - n_queries
        is_query: np.ndarray | None = code == _QUERY if n_ops and n_queries else None
        if n_ops:
            end = self._n_ops + n_ops
            if end > len(self._op_log):
                self._op_log = _grown(self._op_log, end)
            seg = self._op_log[self._n_ops : end]
            if is_query is None:
                seg["row"], seg["kind"], seg["node"] = rows, code, nidx
            else:
                mutation = ~is_query
                seg["row"], seg["kind"], seg["node"] = (
                    rows[mutation], code[mutation], nidx[mutation]
                )
            self._n_ops = end
        if n_queries:
            end = self._n_queries + n_queries
            if end > len(self._query_log):
                self._query_log = _grown(self._query_log, end)
            seg = self._query_log[self._n_queries : end]
            at: slice | np.ndarray
            if is_query is None:
                at = slice(None) if pos is None else pos
                seg["row"], seg["source"] = rows, nidx
            else:
                at = is_query.nonzero()[0] if pos is None else pos[is_query]
                seg["row"], seg["source"] = rows[is_query], nidx[is_query]
            seg["epoch"] = ints[1, at]
            seg["proxy"] = ints[0, at]
            seg["cost"] = floats[0, at]
            seg["coalesced"] = coalesced[at]
            self._n_queries = end


def _delta(
    cost: np.ndarray, optimal: np.ndarray, messages: np.ndarray
) -> tuple[float, float, int, int, float | None]:
    """One kernel call's ledger delta: the sums, the op count, the
    message count and the largest ``cost / optimal`` over positive
    optima (``None`` if there is none)."""
    positive = optimal > 0
    if positive.all():
        worst: float | None = float(np.maximum.reduce(cost / optimal))
    elif positive.any():
        worst = float(np.maximum.reduce(cost[positive] / optimal[positive]))
    else:
        worst = None
    return (
        float(np.add.reduce(cost)),
        float(np.add.reduce(optimal)),
        len(cost),
        int(np.add.reduce(messages)),
        worst,
    )


# ----------------------------------------------------------------------
# the equivalence audit
# ----------------------------------------------------------------------
@dataclass
class BatchAuditReport:
    """Outcome of one batch-vs-scalar equivalence audit."""

    objects_checked: int = 0
    moves_replayed: int = 0
    queries_checked: int = 0
    proxy_mismatches: int = 0
    epoch_mismatches: int = 0
    cost_mismatches: int = 0
    ledger_mismatches: list[str] = field(default_factory=list)
    examples: list[dict] = field(default_factory=list)

    MAX_EXAMPLES = 10

    @property
    def mismatches(self) -> int:
        """Total mismatches of any kind."""
        return (
            self.proxy_mismatches
            + self.epoch_mismatches
            + self.cost_mismatches
            + len(self.ledger_mismatches)
        )

    @property
    def ok(self) -> bool:
        """Whether the batch engine matched the sequential reference."""
        return self.mismatches == 0

    def record(self, kind: str, detail: dict) -> None:
        """Count one mismatch and keep an example if there is room."""
        if kind == "proxy":
            self.proxy_mismatches += 1
        elif kind == "epoch":
            self.epoch_mismatches += 1
        else:
            self.cost_mismatches += 1
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append({"kind": kind, **detail})

    def as_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "ok": self.ok,
            "objects_checked": self.objects_checked,
            "moves_replayed": self.moves_replayed,
            "queries_checked": self.queries_checked,
            "proxy_mismatches": self.proxy_mismatches,
            "epoch_mismatches": self.epoch_mismatches,
            "cost_mismatches": self.cost_mismatches,
            "ledger_mismatches": list(self.ledger_mismatches),
            "examples": list(self.examples),
        }


#: ledger fields the audit compares (sums close_to, counts exact)
_LEDGER_FLOAT_FIELDS = (
    "publish_cost",
    "maintenance_cost",
    "maintenance_optimal",
    "query_cost",
    "query_optimal",
)
_LEDGER_INT_FIELDS = (
    "maintenance_ops",
    "maintenance_messages",
    "noop_moves",
    "query_ops",
    "query_messages",
    "local_queries",
)


def audit_batch_core(engine: BatchMOTEngine) -> BatchAuditReport:
    """Replay an engine's op log through a sequential MOT and compare.

    Checks, per object: final proxy (exact) and epoch (exact); per
    answered query: proxy exact and cost ``close_to`` (coalesced records
    against their executed twin, which the reference re-runs); per
    ledger field: counts exact, cost sums ``close_to`` — the batch
    engine reduces deltas per kernel call, so sums may differ from the
    scalar's per-op accumulation by float ordering only.
    """
    report = BatchAuditReport()
    ref = MOTTracker(engine.hs, engine.config)
    by_obj_epoch: dict[tuple[str, int], list[BatchQueryRecord]] = {}
    for rec in engine.query_log:
        by_obj_epoch.setdefault((rec.obj, rec.epoch), []).append(rec)

    replayed: set[tuple[str, int]] = set()
    for obj, ops in engine.oplog.items():
        report.objects_checked += 1
        epoch = -1
        for op, node in ops:
            if op == "publish":
                ref.publish(obj, node)
                epoch = 0
            else:
                res = ref.move(obj, node)
                if res.new_proxy != res.old_proxy:
                    epoch += 1
                report.moves_replayed += 1
            if (obj, epoch) not in replayed:
                replayed.add((obj, epoch))
                _check_epoch_queries(ref, by_obj_epoch.get((obj, epoch), ()), report)
        ref_proxy = ref.proxy_of(obj)
        if engine.proxy_of(obj) != ref_proxy:
            report.record(
                "proxy",
                {"obj": obj, "got": repr(engine.proxy_of(obj)), "expected": repr(ref_proxy)},
            )
        if engine.epoch_of(obj) != epoch:
            report.record(
                "epoch",
                {"obj": obj, "got": engine.epoch_of(obj), "expected": epoch},
            )
    # query records for never-reached epochs are engine bugs
    for key, recs in by_obj_epoch.items():
        if key not in replayed:
            for rec in recs:
                report.queries_checked += 1
                report.record(
                    "proxy",
                    {"obj": rec.obj, "epoch": rec.epoch, "expected": "<no such epoch>"},
                )

    for name in _LEDGER_INT_FIELDS:
        got, want = getattr(engine.ledger, name), getattr(ref.ledger, name)
        if got != want:
            report.ledger_mismatches.append(f"{name}: {got} != {want}")
    for name in _LEDGER_FLOAT_FIELDS:
        got, want = getattr(engine.ledger, name), getattr(ref.ledger, name)
        if not close_to(got, want):
            report.ledger_mismatches.append(f"{name}: {got!r} !~ {want!r}")
    return report


def _check_epoch_queries(
    ref: MOTTracker, recs: Iterable[BatchQueryRecord], report: BatchAuditReport
) -> None:
    executed: dict[tuple[str, Node], tuple[Node, float]] = {}
    for rec in recs:
        report.queries_checked += 1
        expected_proxy = ref.proxy_of(rec.obj)
        if rec.proxy != expected_proxy:
            report.record(
                "proxy",
                {
                    "obj": rec.obj,
                    "epoch": rec.epoch,
                    "source": repr(rec.source),
                    "got": repr(rec.proxy),
                    "expected": repr(expected_proxy),
                },
            )
            continue
        if rec.coalesced:
            twin = executed.get((rec.obj, rec.source))
            if twin is None or not close_to(rec.cost, twin[1]):
                report.record(
                    "cost",
                    {
                        "obj": rec.obj,
                        "epoch": rec.epoch,
                        "source": repr(rec.source),
                        "got": repr(rec.cost),
                        "expected": repr(twin[1] if twin else "<no executed twin>"),
                    },
                )
            continue
        res = ref.query(rec.obj, rec.source)
        executed[(rec.obj, rec.source)] = (res.proxy, res.cost)
        if not close_to(rec.cost, res.cost):
            report.record(
                "cost",
                {
                    "obj": rec.obj,
                    "epoch": rec.epoch,
                    "source": repr(rec.source),
                    "got": repr(rec.cost),
                    "expected": repr(res.cost),
                },
            )
