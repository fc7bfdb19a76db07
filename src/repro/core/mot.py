"""MOT — Mobile Object Tracking using Sensors (paper §3, Algorithm 1).

The tracker maintains, for every published object, the chain of
detection-list (DL) entries along the concatenated detection-path
fragments from the root down to the object's current proxy — the
paper's Fig. 1 picture. We call that chain the object's **spine**; it is
exactly the set of ``HS`` nodes that currently hold the object in their
DL, in bottom-up message-visit order. Real deployments distribute the
spine as per-node down-pointers; keeping it per-object here is the same
bookkeeping with identical message costs and makes invariants directly
checkable (see ``tests/core/test_mot_properties.py``).

Operations (all costs are summed graph distances, §1.1):

- **publish** climbs the proxy's full detection path to the root,
  creating DL entries (and SDL entries at each entry's special parent).
- **move** (maintenance) climbs the new proxy's detection path until the
  first node already holding the object (the *peak*), then deletes the
  old spine below the peak by walking it downward — Algorithm 1 lines
  6–18.
- **query** climbs the source's detection path until a DL or SDL hit,
  then descends the spine to the proxy — lines 19–24. SDL hits first
  hop to the special child that installed the entry.

Following the §4 analysis, the cost of informing special parents is
*not* charged by default (``count_special_parent_cost`` restores it;
it's a constant-factor change in constant-doubling networks).

This module is the one-by-one executor (each operation completes before
the next starts). Concurrent executions run the same structure through
:mod:`repro.sim.concurrent_mot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.costs import CostLedger
from repro.core.operations import MoveResult, PublishResult, QueryResult
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import BaseHierarchy, HNode, build_hierarchy
from repro.obs.trace import TRACER
from repro.perf import timed

Node = Hashable
ObjectId = Hashable

__all__ = ["MOTConfig", "MOTTracker", "SpineEntry"]


@dataclass(frozen=True)
class MOTConfig:
    """Tunable constants of MOT (defaults follow the paper; see DESIGN.md).

    - ``special_parent_gap`` — σ of Definition 3 (paper: 3ρ+6; default 2,
      see DESIGN.md §2 for why the proof constant is impractical).
    - ``parent_set_radius_factor`` — the 4 in "nodes within 4·2^(ℓ+1)".
    - ``use_parent_sets`` — True enables full parent-set traversal
      (the §3.1 variant the meeting-level proofs use; constant-factor
      costlier). Default False: the single default-parent chain, which
      is how Algorithm 1 is presented and what the paper's experiments
      implement (see DESIGN.md).
    - ``use_special_parents`` — False disables SDLs entirely (ablation;
      §3's fragmentation pathology then shows in query costs).
    - ``count_special_parent_cost`` — charge SDL install/remove messages
      (the §4 analysis excludes them; enabling is the honest-total mode).
    """

    special_parent_gap: int = 2
    parent_set_radius_factor: float = 4.0
    use_parent_sets: bool = False
    use_special_parents: bool = True
    count_special_parent_cost: bool = False


@dataclass(frozen=True)
class SpineEntry:
    """One live DL entry of an object: where it is and its special parent."""

    hnode: HNode
    special_parent: HNode | None


class MOTTracker:
    """One-by-one executor of Algorithm 1 over a built hierarchy.

    Parameters
    ----------
    hierarchy:
        A :class:`~repro.hierarchy.structure.Hierarchy` (constant-doubling,
        §2.2) or :class:`~repro.hierarchy.general.GeneralHierarchy` (§6).
    config:
        Runtime switches; structural constants (σ, parent-set radius)
        must match the ones the hierarchy was built with — use
        :meth:`MOTTracker.build` to construct both coherently.
    """

    def __init__(self, hierarchy: BaseHierarchy, config: MOTConfig | None = None) -> None:
        self.hs = hierarchy
        self.net: SensorNetwork = hierarchy.net
        self.config = config or MOTConfig()
        self.ledger = CostLedger()

        # DL: (level, node) role -> set of objects
        self._dl: dict[HNode, set[ObjectId]] = {}
        # SDL: (level, node) role -> object -> special children that installed it
        self._sdl: dict[HNode, dict[ObjectId, set[HNode]]] = {}
        # per-object spine (bottom-up): [HNode(0, proxy), entries...]
        self._spine: dict[ObjectId, list[SpineEntry]] = {}
        self._proxy: dict[ObjectId, Node] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        net: SensorNetwork,
        config: MOTConfig | None = None,
        seed: int = 0,
    ) -> "MOTTracker":
        """Build the hierarchy from ``config`` and wrap it in a tracker."""
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
    def objects(self) -> tuple[ObjectId, ...]:
        """All published objects."""
        return tuple(self._proxy)

    def proxy_of(self, obj: ObjectId) -> Node:
        """Current proxy sensor of ``obj``."""
        try:
            return self._proxy[obj]
        except KeyError:
            raise KeyError(f"object {obj!r} was never published") from None

    def detection_list(self, hnode: HNode) -> frozenset[ObjectId]:
        """DL of an ``HS`` role (empty when the role holds nothing)."""
        return frozenset(self._dl.get(hnode, ()))

    def special_detection_list(self, hnode: HNode) -> frozenset[ObjectId]:
        """SDL of an ``HS`` role."""
        return frozenset(self._sdl.get(hnode, ()))

    def spine(self, obj: ObjectId) -> list[HNode]:
        """Root-to-proxy DL chain of ``obj``, bottom-up (proxy first)."""
        return [e.hnode for e in self._spine[obj]]

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _dist(self, a: Node, b: Node) -> float:
        # Every cost the ledger records flows through here, and every
        # distance backend answers exactly, so the recorded costs are
        # the true message costs. Tracker correctness (spines, DL/SDL
        # pointers) never depends on them: it rides on hierarchy
        # structure, which is built from radius-limited queries.
        return self.net.distance(a, b)

    def _phys(self, hnode: HNode) -> Node:
        """Physical sensor currently hosting an ``HS`` role.

        The plain tracker hosts each role at its own sensor; the §7
        fault-tolerant tracker overrides this with its relocation table
        (departed leaders hand their roles to cluster neighbors).
        """
        return hnode.node

    def _probe_cost(self, hnode: HNode, obj: ObjectId) -> float:
        """Extra cost to reach the storage location of ``obj`` at ``hnode``.

        Zero here: the plain tracker stores detection lists at the
        internal nodes themselves. The §5 load-balanced tracker
        overrides this with the de Bruijn route to the hashed host —
        the source of its ``O(log n)`` cost-ratio factor.
        """
        return 0.0

    def _add_entry(self, obj: ObjectId, hnode: HNode, source: Node, rank: int) -> tuple[SpineEntry, float]:
        """Install a DL entry (and its SDL shadow); returns entry + SDL cost."""
        self._dl.setdefault(hnode, set()).add(obj)
        sp: HNode | None = None
        sdl_cost = 0.0
        if self.config.use_special_parents:
            cand = self.hs.special_parent_for(source, hnode.level, rank)
            if cand.level > hnode.level:  # clamped-at-root self-shadow is useless
                sp = cand
                self._sdl.setdefault(sp, {}).setdefault(obj, set()).add(hnode)
                if self.config.count_special_parent_cost:
                    sdl_cost = self._dist(self._phys(hnode), self._phys(sp))
        return SpineEntry(hnode, sp), sdl_cost

    def _remove_entry(self, obj: ObjectId, entry: SpineEntry) -> float:
        """Remove a DL entry and its SDL shadow; returns SDL message cost."""
        bucket = self._dl.get(entry.hnode)
        if bucket is not None:
            bucket.discard(obj)
            if not bucket:
                del self._dl[entry.hnode]
        sdl_cost = 0.0
        if entry.special_parent is not None:
            sdl_map = self._sdl.get(entry.special_parent)
            if sdl_map is not None and obj in sdl_map:
                sdl_map[obj].discard(entry.hnode)
                if not sdl_map[obj]:
                    del sdl_map[obj]
                if not sdl_map:
                    del self._sdl[entry.special_parent]
            if self.config.count_special_parent_cost:
                sdl_cost = self._dist(
                    self._phys(entry.hnode), self._phys(entry.special_parent)
                )
        return sdl_cost

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    @timed("mot.publish")
    def publish(self, obj: ObjectId, proxy: Node) -> PublishResult:
        """Register ``obj`` at ``proxy`` (Algorithm 1 lines 1–5). One-time."""
        if obj in self._proxy:
            raise ValueError(f"object {obj!r} is already published")
        if proxy not in self.net:
            raise KeyError(f"{proxy!r} is not a sensor of this network")
        # the proxy/src/dst/source annotations make sequential traces
        # *replayable*: repro.scenarios.replay reconstructs the exact
        # Workload from the JSONL record (digest-checked round trip)
        with TRACER.span("publish", obj=str(obj), proxy=proxy) as sp:
            path = self.hs.dpath(proxy)
            # publish always walks the whole detection path, so its hop
            # distances can be resolved in one batched oracle call
            ranked = [
                (rank, hn) for level in range(1, self.hs.h + 1)
                for rank, hn in enumerate(path[level])
            ]
            seq = [proxy] + [self._phys(hn) for _, hn in ranked]
            hop = self.net.consecutive_distances(seq)
            spine: list[SpineEntry] = [SpineEntry(HNode(0, proxy), None)]
            cost = 0.0
            msgs = 0
            for k, (rank, hn) in enumerate(ranked):
                cost += float(hop[k])
                msgs += 1
                if sp:
                    sp.hop(seq[k], seq[k + 1], float(hop[k]))
                cost += self._probe_cost(hn, obj)
                entry, sdl_cost = self._add_entry(obj, hn, proxy, rank)
                cost += sdl_cost
                spine.append(entry)
            self._spine[obj] = spine
            self._proxy[obj] = proxy
            self.ledger.record_publish(cost)
            sp.set_result(cost=cost, level=self.hs.h)
            return PublishResult(
                obj=obj, proxy=proxy, cost=cost,
                levels_climbed=self.hs.h, messages=msgs,
            )

    @timed("mot.move")
    def move(self, obj: ObjectId, new_proxy: Node) -> MoveResult:
        """Maintenance after ``obj`` moved to ``new_proxy`` (lines 6–18)."""
        old_proxy = self.proxy_of(obj)
        if new_proxy not in self.net:
            raise KeyError(f"{new_proxy!r} is not a sensor of this network")
        if new_proxy == old_proxy:
            # Zero-distance no-op: nothing climbs, nothing is deleted.
            # Recorded apart from real maintenance so per-op averages and
            # message counts are not diluted by moves that did no work.
            self.ledger.record_noop_move()
            if TRACER.enabled:
                TRACER.event("move", obj=str(obj), cost=0.0, noop=True, dst=old_proxy)
            return MoveResult(
                obj=obj, old_proxy=old_proxy, new_proxy=new_proxy,
                cost=0.0, up_cost=0.0, down_cost=0.0, peak_level=0, optimal_cost=0.0,
            )
        optimal = self._dist(old_proxy, new_proxy)

        with TRACER.span("move", obj=str(obj), src=old_proxy, dst=new_proxy) as sp:
            # -- insert: climb DPath(new_proxy) until the object is found --
            spine = self._spine[obj]
            spine_pos = {e.hnode: i for i, e in enumerate(spine)}
            path = self.hs.dpath(new_proxy)
            up_cost = 0.0
            msgs = 0
            prev = new_proxy
            new_entries: list[SpineEntry] = []
            peak: HNode | None = None
            for level in range(1, self.hs.h + 1):
                for rank, hn in enumerate(path[level]):
                    phys = self._phys(hn)
                    d = self._dist(prev, phys)
                    up_cost += d
                    if sp:
                        sp.hop(prev, phys, d)
                    prev = phys
                    msgs += 1
                    up_cost += self._probe_cost(hn, obj)
                    if obj in self._dl.get(hn, ()):
                        peak = hn
                        break
                    entry, sdl_cost = self._add_entry(obj, hn, new_proxy, rank)
                    up_cost += sdl_cost
                    new_entries.append(entry)
                if peak is not None:
                    break
            assert peak is not None, "root must hold every published object"
            peak_index = spine_pos[peak]

            # -- delete: walk the old spine downward from below the peak ---
            down_cost = 0.0
            prev = self._phys(peak)
            for entry in reversed(spine[:peak_index]):
                phys = self._phys(entry.hnode)
                d = self._dist(prev, phys)
                down_cost += d
                if sp:
                    sp.hop(prev, phys, d)
                prev = phys
                msgs += 1
                if entry.hnode.level > 0:
                    down_cost += self._probe_cost(entry.hnode, obj)
                    down_cost += self._remove_entry(obj, entry)

            self._spine[obj] = (
                [SpineEntry(HNode(0, new_proxy), None)] + new_entries + spine[peak_index:]
            )
            self._proxy[obj] = new_proxy
            cost = up_cost + down_cost
            self.ledger.record_maintenance(cost, optimal, messages=msgs)
            if sp:
                sp.set_result(cost=cost, level=peak.level)
                sp.annotate(up_cost=up_cost, down_cost=down_cost, optimal=optimal)
            return MoveResult(
                obj=obj,
                old_proxy=old_proxy,
                new_proxy=new_proxy,
                cost=cost,
                up_cost=up_cost,
                down_cost=down_cost,
                peak_level=peak.level,
                optimal_cost=optimal,
                messages=msgs,
            )

    @timed("mot.query")
    def query(self, obj: ObjectId, source: Node) -> QueryResult:
        """Locate ``obj`` from sensor ``source`` (lines 19–24). Read-only."""
        proxy = self.proxy_of(obj)
        if source not in self.net:
            raise KeyError(f"{source!r} is not a sensor of this network")
        if source == proxy:
            # local hit: no oracle solve — computing `optimal` here would
            # waste a Dijkstra row that never reaches the ledger (RPL103).
            # Tallied apart from real queries: a (0, 0) record used to
            # inflate query_ops and dilute the per-operation means, the
            # same distortion no-op moves once caused for maintenance.
            self.ledger.record_local_query()
            if TRACER.enabled:
                TRACER.event("query", obj=str(obj), cost=0.0, level=0, local=True, source=source)
            return QueryResult(
                obj=obj, source=source, proxy=proxy, cost=0.0,
                found_level=0, via_sdl=False, optimal_cost=0.0,
            )
        optimal = self._dist(source, proxy)

        with TRACER.span("query", obj=str(obj), source=source) as sp:
            spine = self._spine[obj]
            spine_pos = {e.hnode: i for i, e in enumerate(spine)}
            path = self.hs.dpath(source)
            cost = 0.0
            msgs = 0
            prev = source
            hit: HNode | None = None
            found_level = 0
            via_sdl = False
            for level in range(1, self.hs.h + 1):
                for hn in path[level]:
                    phys = self._phys(hn)
                    d = self._dist(prev, phys)
                    cost += d
                    if sp:
                        sp.hop(prev, phys, d)
                    prev = phys
                    msgs += 1
                    cost += self._probe_cost(hn, obj)
                    if obj in self._dl.get(hn, ()):
                        hit, found_level, via_sdl = hn, level, False
                        break
                    sdl_map = self._sdl.get(hn)
                    if sdl_map is not None and obj in sdl_map:
                        # jump to the special child that installed the entry
                        sc = min(sdl_map[obj], key=lambda h: (h.level, self.net.index_of(h.node)))
                        sc_phys = self._phys(sc)
                        d = self._dist(phys, sc_phys)
                        cost += d
                        if sp:
                            sp.hop(phys, sc_phys, d)
                        prev = sc_phys
                        msgs += 1
                        hit, found_level, via_sdl = sc, level, True
                        break
                if hit is not None:
                    break
            assert hit is not None, "root must hold every published object"

            # descend the spine from the hit to the proxy
            hit_index = spine_pos[hit]
            for entry in reversed(spine[:hit_index]):
                phys = self._phys(entry.hnode)
                d = self._dist(prev, phys)
                cost += d
                if sp:
                    sp.hop(prev, phys, d)
                prev = phys
                msgs += 1
                if entry.hnode.level > 0:
                    cost += self._probe_cost(entry.hnode, obj)
            self.ledger.record_query(cost, optimal, messages=msgs)
            if sp:
                sp.set_result(cost=cost, level=found_level)
                sp.annotate(via_sdl=via_sdl, optimal=optimal)
            return QueryResult(
                obj=obj,
                source=source,
                proxy=proxy,
                cost=cost,
                found_level=found_level,
                via_sdl=via_sdl,
                optimal_cost=optimal,
                messages=msgs,
            )

    # ------------------------------------------------------------------
    # load accounting (paper §5 / §8 figures 8–11)
    # ------------------------------------------------------------------
    def load_per_node(self) -> dict[Node, int]:
        """Objects + bookkeeping entries stored at each physical sensor.

        Counts, per sensor: objects it proxies, DL entries of every
        ``HS`` role it plays, and SDL entries likewise. This is the
        quantity of Figs. 8–11 (unbalanced MOT concentrates it near the
        root; :class:`~repro.core.mot_balanced.BalancedMOTTracker`
        spreads it).
        """
        load: dict[Node, int] = {v: 0 for v in self.net.nodes}
        for proxy in self._proxy.values():
            load[proxy] += 1
        for hnode, objs in self._dl.items():
            load[self._phys(hnode)] += len(objs)
        for hnode, objmap in self._sdl.items():
            load[self._phys(hnode)] += sum(len(s) for s in objmap.values())
        return load
