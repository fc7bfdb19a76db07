"""Columnar MOT batch engine — struct-of-arrays kernels (ROADMAP item 3).

The scalar :class:`~repro.core.mot.MOTTracker` walks python objects per
hop: every publish/move/query builds ``HNode`` tuples, probes dict-of-set
detection lists, and issues per-level distance lookups. This module is
the data-oriented rewrite of the same algorithm: all tracker state lives
in numpy arrays and the three operations execute as vectorized kernels
over *batches* of queued requests — thousands of ops per python-level
call.

The rewrite leans on one structural invariant of the configuration the
paper's experiments (and the serve layer) run, ``use_parent_sets=False``:
every parent set is the singleton default parent, so

- ``DPath(x)`` has exactly one ``HNode`` per level — a sensor's whole
  detection path is a row ``chain[x] = [x, home¹(x), …, root]`` of node
  indices;
- an object's spine has exactly one entry per level ``0..h``, so spine
  state is a row ``spine[obj] = [proxy, …, root]`` and the DL membership
  test "is ``obj`` in the DL of ``(ℓ, v)``" collapses to the array
  compare ``spine[obj, ℓ] == v``;
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

Per-object state is three arrays plus a row map: ``spine`` (int32,
``m × (h+1)``), ``spine_hop`` (float64 hop distances along the spine),
``epoch`` (int64), and ``published`` (bool).

Kernel contracts (all FIFO-order preserving; see :meth:`apply_ops`):

- :meth:`batch_publish` / :meth:`batch_move` require **distinct**
  objects per call — one state write per row. :meth:`apply_ops`
  guarantees this by decomposing a batch into *waves*: per wave each
  object gets at most one publish, then at most one move, then any
  number of queries, executed as publish→move→query kernel calls so
  every op observes exactly the state its FIFO position implies.
- Proxies/spines/epochs are **bit-identical** to the scalar tracker;
  costs match up to float summation order (:func:`close_to` — climb
  costs are bit-exact, descend sums may differ by ulps).
- Ledger deltas are reduced per kernel call through the
  ``CostLedger.record_*_batch`` APIs.

:func:`audit_batch_core` is the equivalence gate: it replays an engine's
op log through a fresh sequential :class:`MOTTracker` and asserts
identical proxies and epochs, per-query answers, and ``close_to``
ledgers — the same pattern :func:`repro.serve.audit.audit_service` uses
for the serve layer, gated in CI by ``repro audit-batch``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.costs import CostLedger, close_to
from repro.core.mot import MOTConfig, MOTTracker
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import BaseHierarchy, build_hierarchy

Node = Hashable

__all__ = [
    "BatchMOTEngine",
    "BatchOutcome",
    "BatchQueryRecord",
    "BatchAuditReport",
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
# outcomes
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BatchOutcome:
    """Per-operation result of :meth:`BatchMOTEngine.apply_ops` (FIFO order)."""

    kind: str
    obj: str
    proxy: Node = None
    cost: float = 0.0
    epoch: int = -1
    coalesced: bool = False
    found_level: int = 0
    via_sdl: bool = False
    messages: int = 0
    optimal: float = 0.0
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        """Whether the operation applied (``error`` carries the failure)."""
        return self.error is None


class BatchQueryRecord(NamedTuple):
    """One answered query, shaped for the equivalence audit.

    A named tuple, not a dataclass: ``apply_ops`` creates one per
    answered query on the hot path and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    obj: str
    epoch: int
    source: Node
    proxy: Node
    cost: float
    coalesced: bool


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

        #: object id -> row in the state arrays
        self._row: dict[str, int] = {}
        self._obj_of_row: list[str] = []
        cap = 64
        self._spine = np.zeros((cap, self.h + 1), dtype=np.int32)
        self._spine_hop = np.zeros((cap, max(self.h, 1)), dtype=np.float64)
        self._epoch = np.zeros(cap, dtype=np.int64)
        self._published = np.zeros(cap, dtype=bool)

        #: applied mutations per object + answered queries, for the audit
        self.oplog: dict[str, list[tuple[str, Node]]] = {}
        self.query_log: list[BatchQueryRecord] = []

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

    def proxy_of(self, obj: str) -> Node:
        """Current proxy sensor of ``obj`` (KeyError when unpublished)."""
        row = self._row.get(obj)
        if row is None or not self._published[row]:
            raise KeyError(f"object {obj!r} was never published")
        return self.net.node_at(int(self._spine[row, 0]))

    def epoch_of(self, obj: str) -> int:
        """Applied-move count of ``obj`` (no-op moves excluded)."""
        row = self._row.get(obj)
        if row is None or not self._published[row]:
            raise KeyError(f"object {obj!r} was never published")
        return int(self._epoch[row])

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
        """The object's spine as node indices, level 0..h (a copy)."""
        row = self._row.get(obj)
        if row is None or not self._published[row]:
            raise KeyError(f"object {obj!r} was never published")
        return self._spine[row].copy()

    # ------------------------------------------------------------------
    # row management
    # ------------------------------------------------------------------
    def _ensure_capacity(self, need: int) -> None:
        cap = self._spine.shape[0]
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        for name in ("_spine", "_spine_hop", "_epoch", "_published"):
            old = getattr(self, name)
            grown = np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def _claim_row(self, obj: str) -> int:
        row = self._row.get(obj)
        if row is None:
            row = len(self._obj_of_row)
            self._ensure_capacity(row + 1)
            self._row[obj] = row
            self._obj_of_row.append(obj)
        return row

    # ------------------------------------------------------------------
    # kernels (distinct objects per call for publish/move)
    # ------------------------------------------------------------------
    def batch_publish(self, objs: Sequence[str], proxies: Sequence[Node]) -> np.ndarray:
        """Publish ``objs[k]`` at ``proxies[k]``; returns per-op costs.

        Objects must be distinct and unpublished, proxies valid sensors
        (:meth:`apply_ops` pre-validates; direct callers must comply).
        """
        if not objs:
            return np.empty(0)
        rows = np.fromiter(
            map(self._claim_row, objs), dtype=np.int64, count=len(objs)
        )
        pidx = np.fromiter(
            map(self.net.index_map.__getitem__, proxies), dtype=np.int64, count=len(proxies)
        )
        t = self._t
        self._spine[rows] = t.chain[pidx]
        self._spine_hop[rows, : self.h] = t.chain_hop[pidx]
        self._epoch[rows] = 0
        self._published[rows] = True
        costs = t.pub_cost[pidx]
        self.ledger.record_publish_batch(float(costs.sum()), len(objs))
        return costs

    def batch_move(
        self, objs: Sequence[str], new_proxies: Sequence[Node]
    ) -> list[BatchOutcome]:
        """Move distinct published ``objs`` to ``new_proxies``; per-op outcomes.

        No-op moves (already at the target) are detected here and charge
        the ledger's ``noop_moves`` tally, exactly like the scalar path.
        """
        if not objs:
            return []
        n = len(objs)
        rows = np.fromiter(map(self._row.__getitem__, objs), dtype=np.int64, count=n)
        nidx = np.fromiter(
            map(self.net.index_map.__getitem__, new_proxies), dtype=np.int64, count=n
        )
        t = self._t
        old_idx = self._spine[rows, 0].astype(np.int64)
        noop = old_idx == nidx
        n_noop = int(noop.sum())
        if n_noop:
            self.ledger.record_noop_moves(n_noop)
        act = np.nonzero(~noop)[0]

        cost_full = np.zeros(n)
        opt_full = np.zeros(n)
        msg_full = np.zeros(n, dtype=np.int64)
        peak_full = np.zeros(n, dtype=np.int64)
        if act.size:
            arows = rows[act]
            anew = nidx[act]

            # peak level: first level >= 1 where the old spine meets the
            # new chain (the root guarantees a hit)
            eq = self._spine[arows, 1:] == t.chain[anew, 1:]
            peak = 1 + np.argmax(eq, axis=1)

            up = t.up_cum[anew, peak]
            hop_cum = np.cumsum(self._spine_hop[arows, : self.h], axis=1)
            down = hop_cum[np.arange(act.size), peak - 1]
            if t.sdl_cost is not None:
                # removal messages for the deleted entries at levels 1..peak-1
                lvl = np.arange(1, self.h + 1)
                del_mask = lvl[None, :] < peak[:, None]
                down = down + np.where(
                    del_mask, t.sdl_cost[self._spine[arows, 1:], lvl[None, :]], 0.0
                ).sum(axis=1)
            cost = up + down

            optimal = self.net.pair_index_distances(
                np.stack([old_idx[act], anew], axis=1)
            )
            messages = 2 * peak

            # state update: levels below the peak come from the new chain
            lvl_all = np.arange(self.h + 1)
            upd = lvl_all[None, :] < peak[:, None]
            self._spine[arows] = np.where(upd, t.chain[anew], self._spine[arows])
            if self.h:
                upd_h = lvl_all[None, : self.h] < peak[:, None]
                self._spine_hop[arows, : self.h] = np.where(
                    upd_h, t.chain_hop[anew], self._spine_hop[arows, : self.h]
                )
            self._epoch[arows] += 1

            ratio_mask = optimal > 0
            self.ledger.record_maintenance_batch(
                float(cost.sum()),
                float(optimal.sum()),
                int(act.size),
                int(messages.sum()),
                (cost[ratio_mask] / optimal[ratio_mask]).tolist(),
            )
            cost_full[act] = cost
            opt_full[act] = optimal
            msg_full[act] = messages
            peak_full[act] = peak

        # one pass over plain-python lists, positional construction in
        # field order (kind, obj, proxy, cost, epoch, coalesced,
        # found_level, via_sdl, messages, optimal) — this runs once per
        # move and keyword passing measurably slows the hot path;
        # epochs read *after* the bump
        cl = cost_full.tolist()
        el = self._epoch[rows].tolist()
        fl = peak_full.tolist()
        ml = msg_full.tolist()
        ol = opt_full.tolist()
        return [
            BatchOutcome(
                "move", o, new_proxies[k], cl[k], el[k], False, fl[k], False,
                ml[k], ol[k],
            )
            for k, o in enumerate(objs)
        ]

    def batch_query(
        self, objs: Sequence[str], sources: Sequence[Node]
    ) -> list[BatchOutcome]:
        """Query published ``objs`` from ``sources``; per-op outcomes.

        Read-only — duplicate objects per call are fine. Local hits
        (source == proxy) cost nothing and land in the ledger's
        ``local_queries`` tally, mirroring the scalar fast path.
        """
        if not objs:
            return []
        node_at = self.net.node_at
        n = len(objs)
        rows = np.fromiter(map(self._row.__getitem__, objs), dtype=np.int64, count=n)
        sidx = np.fromiter(
            map(self.net.index_map.__getitem__, sources), dtype=np.int64, count=n
        )
        t = self._t
        proxy_idx = self._spine[rows, 0].astype(np.int64)
        local = proxy_idx == sidx
        n_local = int(local.sum())
        if n_local:
            self.ledger.record_local_queries(n_local)

        cost_full = np.zeros(n)
        opt_full = np.zeros(n)
        msg_full = np.zeros(n, dtype=np.int64)
        lvl_full = np.zeros(n, dtype=np.int64)
        sdl_full = np.zeros(n, dtype=bool)
        act = np.nonzero(~local)[0]
        if act.size == 0:
            return self._query_outcomes(
                objs, rows, proxy_idx, cost_full, opt_full, msg_full, lvl_full, sdl_full
            )
        arows = rows[act]
        asrc = sidx[act]

        # climb: DL hit when the source chain meets the spine; SDL hit
        # when it meets a spine entry's special parent (level l-gap
        # installed it; root-level SDL is shadowed by the root DL)
        src_chain = t.chain[asrc, 1:]
        dl_hit = self._spine[arows, 1:] == src_chain
        hit = dl_hit.copy()
        gap = t.gap
        if self.config.use_special_parents:
            for ell in range(gap + 1, self.h):
                src_lvl = ell - gap
                sp_host = t.lift[src_lvl][self._spine[arows, src_lvl]]
                hit[:, ell - 1] |= sp_host == src_chain[:, ell - 1]
        level = 1 + np.argmax(hit, axis=1)
        k_ar = np.arange(act.size)
        via_sdl = ~dl_hit[k_ar, level - 1]

        climb = t.cum_q[asrc, level]
        hop_cum = np.cumsum(self._spine_hop[arows, : self.h], axis=1)
        desc_level = np.where(via_sdl, level - gap, level)
        descend = np.where(
            desc_level > 0, hop_cum[k_ar, np.maximum(desc_level, 1) - 1], 0.0
        )
        cost = climb + descend
        messages = level + desc_level

        sdl_rows = np.nonzero(via_sdl)[0]
        if sdl_rows.size:
            # one extra hop from the hit node to the special child that
            # installed the entry (the spine entry at level - gap)
            sc_hop = self.net.pair_index_distances(
                np.stack(
                    [
                        t.chain[asrc[sdl_rows], level[sdl_rows]],
                        self._spine[arows[sdl_rows], level[sdl_rows] - gap],
                    ],
                    axis=1,
                ).astype(np.int64)
            )
            cost[sdl_rows] += sc_hop
            messages[sdl_rows] += 1

        optimal = self.net.pair_index_distances(
            np.stack([asrc, proxy_idx[act]], axis=1)
        )
        ratio_mask = optimal > 0
        self.ledger.record_query_batch(
            float(cost.sum()),
            float(optimal.sum()),
            int(act.size),
            int(messages.sum()),
            (cost[ratio_mask] / optimal[ratio_mask]).tolist(),
        )
        cost_full[act] = cost
        opt_full[act] = optimal
        msg_full[act] = messages
        lvl_full[act] = level
        sdl_full[act] = via_sdl
        return self._query_outcomes(
            objs, rows, proxy_idx, cost_full, opt_full, msg_full, lvl_full, sdl_full
        )

    def _query_outcomes(
        self,
        objs: Sequence[str],
        rows: np.ndarray,
        proxy_idx: np.ndarray,
        cost_full: np.ndarray,
        opt_full: np.ndarray,
        msg_full: np.ndarray,
        lvl_full: np.ndarray,
        sdl_full: np.ndarray,
    ) -> list[BatchOutcome]:
        """Materialize :meth:`batch_query` outcomes from the filled columns."""
        node_at = self.net.node_at
        cl = cost_full.tolist()
        el = self._epoch[rows].tolist()
        ol = opt_full.tolist()
        ml = msg_full.tolist()
        fl = lvl_full.tolist()
        sl = sdl_full.tolist()
        pl = proxy_idx.tolist()
        # positional construction in field order (kind, obj, proxy, cost,
        # epoch, coalesced, found_level, via_sdl, messages, optimal) —
        # one object per answered query, keywords cost on this path
        return [
            BatchOutcome(
                "query", o, node_at(pl[k]), cl[k], el[k], False, fl[k], sl[k],
                ml[k], ol[k],
            )
            for k, o in enumerate(objs)
        ]

    # ------------------------------------------------------------------
    # the batched apply path
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Iterable[tuple[str, str, Node]]) -> list[BatchOutcome]:
        """Apply a FIFO batch of ``(kind, obj, node)`` ops; outcomes in order.

        ``kind`` is ``"publish"`` / ``"move"`` / ``"query"``; ``node``
        is the proxy / new proxy / query source respectively. Sequential
        semantics are preserved exactly: each op observes every earlier
        op's effect (wave decomposition), failures raise nothing here —
        the matching outcome carries the exception the scalar tracker
        would have raised, and the op leaves no trace in the state, the
        logs or the ledger.

        Duplicate queries for the same ``(obj, epoch, source)`` coalesce
        exactly like the serve shard's scalar path: one executed walk,
        the twins reuse its answer and are excluded from the ledger.
        """
        ops = list(ops)
        if not ops:
            return []
        # outcomes fill in as the grouping pass and the kernels run:
        # errors/publishes here, moves/queries by their kernel, coalesced
        # twins in the stitch pass — every index is set exactly once
        outcomes: list = [None] * len(ops)

        # C-level membership probes: the loop validates one node per op
        idx_map = self.net.index_map
        row_of = self._row.get
        node_at = self.net.node_at
        # simulated per-object view of (published, proxy-node, epoch,
        # wave, stage) as the grouping pass walks the FIFO order
        sim: dict[str, list] = {}
        # one wave = ([publish indices], [move indices], [query indices]);
        # plain tuples — attribute access on a dataclass costs on this loop
        waves: list[tuple[list[int], list[int], list[int]]] = []
        answered: dict[tuple[str, int, Node], int] = {}
        twin_of: dict[int, int] = {}

        for i, (kind, obj, node) in enumerate(ops):
            st = sim.get(obj)
            if st is None:
                row = row_of(obj)
                if row is not None and self._published[row]:
                    st = [
                        True,
                        node_at(int(self._spine[row, 0])),
                        int(self._epoch[row]),
                        0,
                        0,
                    ]
                else:
                    st = [False, None, -1, 0, 0]
                sim[obj] = st
            if kind == "query":
                if not st[0]:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=KeyError(f"object {obj!r} was never published"),
                    )
                    continue
                if node not in idx_map:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=KeyError(f"{node!r} is not a sensor of this network"),
                    )
                    continue
                key = (obj, st[2], node)
                twin = answered.get(key)
                if twin is not None:
                    twin_of[i] = twin
                    continue
                answered[key] = i
                st[4] = 3
                w = st[3]
                while len(waves) <= w:
                    waves.append(([], [], []))
                waves[w][2].append(i)
            elif kind == "move":
                if not st[0]:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=KeyError(f"object {obj!r} was never published"),
                    )
                    continue
                if node not in idx_map:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=KeyError(f"{node!r} is not a sensor of this network"),
                    )
                    continue
                if node != st[1]:
                    st[2] += 1
                st[1] = node
                if st[4] >= 2:  # move after a move/query: next wave
                    st[3] += 1
                st[4] = 2
                w = st[3]
                while len(waves) <= w:
                    waves.append(([], [], []))
                waves[w][1].append(i)
            elif kind == "publish":
                if st[0]:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=ValueError(f"object {obj!r} is already published"),
                    )
                    continue
                if node not in idx_map:
                    outcomes[i] = BatchOutcome(
                        kind=kind,
                        obj=obj,
                        error=KeyError(f"{node!r} is not a sensor of this network"),
                    )
                    continue
                if st[4] > 0:  # earlier op this wave: start a fresh one
                    st[3] += 1
                st[0], st[1], st[2], st[4] = True, node, 0, 1
                outcomes[i] = BatchOutcome(kind=kind, obj=obj, proxy=node, epoch=0)
                w = st[3]
                while len(waves) <= w:
                    waves.append(([], [], []))
                waves[w][0].append(i)
            else:
                outcomes[i] = BatchOutcome(
                    kind=kind,
                    obj=obj,
                    error=TypeError(f"unknown batch op kind {kind!r}"),
                )

        for pub_idx, move_idx, query_idx in waves:
            if pub_idx:
                costs = self.batch_publish(
                    [ops[i][1] for i in pub_idx], [ops[i][2] for i in pub_idx]
                )
                cl = costs.tolist()
                h = self.h
                for j, i in enumerate(pub_idx):
                    out = outcomes[i]
                    out.cost = cl[j]
                    out.messages = h
            if move_idx:
                res = self.batch_move(
                    [ops[i][1] for i in move_idx], [ops[i][2] for i in move_idx]
                )
                for j, i in enumerate(move_idx):
                    outcomes[i] = res[j]
            if query_idx:
                res = self.batch_query(
                    [ops[i][1] for i in query_idx], [ops[i][2] for i in query_idx]
                )
                for j, i in enumerate(query_idx):
                    outcomes[i] = res[j]

        # stitch coalesced answers from their executed twins (FIFO-earlier)
        for i, twin in twin_of.items():
            src = outcomes[twin]
            outcomes[i] = BatchOutcome(
                kind="query",
                obj=src.obj,
                proxy=src.proxy,
                cost=src.cost,
                epoch=src.epoch,
                found_level=src.found_level,
                via_sdl=src.via_sdl,
                messages=src.messages,
                optimal=src.optimal,
                coalesced=True,
            )

        # audit-facing logs, in FIFO order
        olog = self.oplog
        olog_get = olog.setdefault
        qlog_append = self.query_log.append
        for (kind, obj, node), out in zip(ops, outcomes):
            if out.error is not None:
                continue
            if kind == "query":
                qlog_append(
                    BatchQueryRecord(
                        obj, out.epoch, node, out.proxy, out.cost, out.coalesced
                    )
                )
            else:
                olog_get(obj, []).append((kind, node))
        return outcomes


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
