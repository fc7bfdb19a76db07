"""The overlay ``HS`` for constant-doubling networks (paper §2.2, §3).

For each node ``w ∈ V_ℓ``:

- the **default parent** ``home(w, ℓ+1)`` is the closest node of
  ``V_{ℓ+1}`` (at distance < ``2^(ℓ+1)`` by MIS maximality, ties broken
  by node index);
- the **parent set** is every node of ``V_{ℓ+1}`` within
  ``4 · 2^(ℓ+1)`` of ``w``, the default parent included, ordered by
  node index (the paper visits parent sets "according to their IDs in
  increasing order" — this fixed order is what prevents the §3.1 race
  in concurrent executions).

Default parents and their hops come from the level pass
(:func:`repro.hierarchy.levels.build_levels`), which reads them off its
own MIS solve. Parent sets are read only by the §3.1 full traversal
(``use_parent_sets=True``), so they are solved one level at a time on
first read, and a default build never pays for them.

For a bottom-level sensor ``x`` the recursive default parents
``home^0(x) = x``, ``home^ℓ(x) = default parent of home^(ℓ-1)(x)``
anchor the per-level parent sets ``parentset^ℓ(x)`` (the parent set of
``home^(ℓ-1)(x)``), and the **detection path** ``DPath(x)`` visits every
parent set bottom-up in ID order (Definition 1).

**Special parents** (Definition 3): the special parent of the *j*-th
node of ``parentset^i(x)`` is the ``(j mod size)``-th node of
``parentset^k(x)`` with ``k = min(i + σ, h)``. The paper's proof uses
``σ = 3ρ + 6``; see DESIGN.md §2 for why σ is configurable here (it
exceeds the level count on every network in the paper's own
evaluation). Nodes whose special level would pass the root use the root
level, which the paper explicitly allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.graphs.network import SensorNetwork
from repro.hierarchy.levels import CHUNK, LevelStructure, build_levels
from repro.obs.trace import TRACER

Node = Hashable

__all__ = ["HNode", "BaseHierarchy", "Hierarchy", "build_hierarchy"]


@dataclass(frozen=True, order=True)
class HNode:
    """A node of ``HS``: a physical sensor acting at a specific level.

    The same physical sensor may appear at many levels (the paper's
    "logical nodes simulated by physical nodes"); detection lists are
    kept per ``HNode``, i.e. per (level, sensor) role.
    """

    level: int
    node: Node  # physical sensor id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L{self.level}:{self.node}"


class BaseHierarchy:
    """Shared detection-path machinery for both ``HS`` constructions.

    Subclasses (:class:`Hierarchy` for constant-doubling networks,
    :class:`repro.hierarchy.general.GeneralHierarchy` for general
    networks) must provide :attr:`net`, :attr:`special_parent_gap` and
    implement :meth:`parent_set_of` plus the :attr:`h` / :attr:`root`
    properties; everything a tracker consumes (detection paths, meeting
    levels, special parents) derives from those.
    """

    net: SensorNetwork
    special_parent_gap: int
    _dpath_cache: dict[Node, list[tuple[HNode, ...]]]

    @property
    def h(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def root(self) -> HNode:  # pragma: no cover - overridden
        raise NotImplementedError

    def parent_set_of(self, x: Node, level: int) -> tuple[Node, ...]:
        """``parentset^level(x)`` in ID order; ``(x,)`` at level 0."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # detection paths
    # ------------------------------------------------------------------
    def dpath(self, x: Node) -> list[tuple[HNode, ...]]:
        """``DPath(x)``: per-level tuples of ``HNode`` visited, bottom-up.

        ``dpath(x)[0] == (HNode(0, x),)``; ``dpath(x)[h]`` is the root.
        Within each level the nodes appear in increasing ID order, the
        order in which a detection message physically visits them
        (Definition 1).
        """
        cached = self._dpath_cache.get(x)
        if cached is None:
            cached = [
                tuple(HNode(ell, v) for v in self.parent_set_of(x, ell))
                for ell in range(self.h + 1)
            ]
            self._dpath_cache[x] = cached
        return cached

    def dpath_flat(self, x: Node) -> list[HNode]:
        """``DPath(x)`` flattened into visit order across levels."""
        return [hn for tier in self.dpath(x) for hn in tier]

    def dpath_length(self, x: Node, up_to_level: int | None = None) -> float:
        """length(DPath_j(x)) — total distance of the visit sequence (Lemma 2.2).

        Resolved through the batched oracle: one distance call for the
        whole visit sequence instead of one per hop.
        """
        if up_to_level is None:
            up_to_level = self.h
        flat: list[Node] = [
            hn.node for tier in self.dpath(x)[: up_to_level + 1] for hn in tier
        ]
        return self.net.path_length(flat)

    def meeting_level(self, u: Node, v: Node) -> int | None:
        """Lowest level where DPath(u) and DPath(v) share a node (Lemma 2.1)."""
        pu = self.dpath(u)
        pv = self.dpath(v)
        for ell in range(self.h + 1):
            if set(pu[ell]) & set(pv[ell]):
                return ell
        return None

    # ------------------------------------------------------------------
    # special parents
    # ------------------------------------------------------------------
    def special_level(self, level: int) -> int:
        """Level of the special parents for DL entries at ``level``."""
        return min(level + self.special_parent_gap, self.h)

    def special_parent_for(self, x: Node, level: int, member_rank: int) -> HNode:
        """Special parent of the ``member_rank``-th node of ``parentset^level(x)``.

        Per Definition 3 (extended to parent sets): the special parents
        live in ``parentset^k(x)`` with ``k = min(level + σ, h)``, and
        ranks cycle when the special set is smaller than the child set.
        """
        k = self.special_level(level)
        sp_set = self.parent_set_of(x, k)
        return HNode(k, sp_set[member_rank % len(sp_set)])

    def load_roles(self) -> dict[Node, int]:  # pragma: no cover - overridden
        raise NotImplementedError


class Hierarchy(BaseHierarchy):
    """The constructed overlay ``HS`` over a constant-doubling network.

    Instances are built by :func:`build_hierarchy` (§2.2). The interface
    consumed by :class:`repro.core.mot.MOTTracker`:

    - :meth:`parent_set_of` / :meth:`home` — per-source parent sets,
    - :meth:`dpath` — the full detection path of a bottom-level sensor,
    - :meth:`special_parent_for` — SDL placement,
    - :attr:`root` and the :attr:`net` distance oracle.
    """

    def __init__(
        self,
        net: SensorNetwork,
        level_structure: LevelStructure,
        parent_set_radius_factor: float = 4.0,
        special_parent_gap: int = 2,
        use_parent_sets: bool = False,
    ) -> None:
        if special_parent_gap < 1:
            raise ValueError("special_parent_gap must be >= 1")
        self.net = net
        self.levels = level_structure
        self.parent_set_radius_factor = parent_set_radius_factor
        self.special_parent_gap = special_parent_gap
        self.use_parent_sets = use_parent_sets

        # parent sets are solved one level at a time, on first read
        self._parent_sets: list[dict[Node, tuple[Node, ...]] | None]
        self._parent_sets = [None] * level_structure.h

        # memoized per-sensor detection paths
        self._dpath_cache = {}

    def _parent_sets_at(self, level: int) -> dict[Node, tuple[Node, ...]]:
        """Parent sets of every ``w ∈ V_level``, solved on first read.

        One chunked ball query of ``V_level`` against ``V_{level+1}`` at
        the parent-set radius, over the level pass's index arrays. The
        default parent always belongs, which matters for radius factors
        below 1 (it can lie past the radius, never past ``2^(level+1)``).
        """
        sets = self._parent_sets[level]
        if sets is not None:
            return sets
        net = self.net
        ls = self.levels
        members = ls.levels[level]
        member_idx = ls.level_index[level]
        upper_idx = ls.level_index[level + 1]
        uppers = ls.levels[level + 1]
        radius = self.parent_set_radius_factor * (2.0 ** (level + 1))
        columns = net.ball_columns(upper_idx)
        # each member's default parent as a position in ``uppers``
        home = columns[ls.parent_index[level]]
        sets = {}
        for start in range(0, len(members), CHUNK):
            chunk = members[start : start + CHUNK]
            src, col, _ = net.index_balls(member_idx[start : start + CHUNK], radius, columns)
            # each member's uppers in its ball, plus its default parent,
            # sorted and deduplicated as one (member, upper) key; uppers
            # are index-sorted, so each set comes out in ID order
            key = np.concatenate(
                (
                    src * len(uppers) + col,
                    np.arange(len(chunk)) * len(uppers) + home[start : start + CHUNK],
                )
            )
            owner, col = np.divmod(np.unique(key), len(uppers))
            ends = np.cumsum(np.bincount(owner, minlength=len(chunk))).tolist()
            found = [uppers[j] for j in col.tolist()]
            start = 0
            for w, end in zip(chunk, ends, strict=True):
                sets[w] = tuple(found[start:end])
                start = end
        self._parent_sets[level] = sets
        return sets

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def h(self) -> int:
        """Top level index (root level)."""
        return self.levels.h

    @property
    def root(self) -> HNode:
        """The single root role of ``HS``."""
        return HNode(self.h, self.levels.root)

    def level_nodes(self, level: int) -> Sequence[Node]:
        """Sensors acting at ``level`` (sorted by index)."""
        return tuple(self.levels.levels[level])

    def default_parent(self, level: int, w: Node) -> Node:
        """Default parent (in ``V_{level+1}``) of ``w ∈ V_level``."""
        return self.levels.default_parents[level][w]

    def default_parent_hop(self, level: int, w: Node) -> float:
        """``dist(w, default_parent(level, w))``, kept from construction.

        The level pass's ball query that picks the default parent is
        exact, so this is the oracle's distance at no further oracle
        cost.
        """
        return self.levels.default_parent_hops[level][w]

    def parent_set(self, level: int, w: Node) -> tuple[Node, ...]:
        """Parent set of ``w ∈ V_level`` in ``V_{level+1}``, ID-ordered."""
        return self._parent_sets_at(level)[w]

    def home(self, x: Node, level: int) -> Node:
        """``home^level(x)``: the recursive default parent of sensor ``x``."""
        cur = x
        parents = self.levels.default_parents
        for ell in range(level):
            cur = parents[ell][cur]
        return cur

    def parent_set_of(self, x: Node, level: int) -> tuple[Node, ...]:
        """``parentset^level(x)``: parent set of ``home^(level-1)(x)`` (§2.2).

        ``level`` must be ≥ 1; at level 0 the "parent set" is ``(x,)``.
        With ``use_parent_sets=False`` this degrades to the single
        default parent ``(home^level(x),)`` (Algorithm 1's simplified
        presentation).
        """
        if level == 0:
            return (x,)
        anchor = self.home(x, level - 1)
        if not self.use_parent_sets:
            return (self.levels.default_parents[level - 1][anchor],)
        return self._parent_sets_at(level - 1)[anchor]

    # ------------------------------------------------------------------
    def load_roles(self) -> dict[Node, int]:
        """Number of ``HS`` roles (levels) each physical sensor plays.

        Used by the load metrics: a sensor acting at many levels carries
        detection-list bookkeeping for each role.
        """
        counts = np.bincount(np.concatenate(self.levels.level_index), minlength=self.net.n)
        return dict(zip(self.net.nodes, counts.tolist(), strict=True))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(lv) for lv in self.levels.level_index]
        return f"Hierarchy(h={self.h}, level_sizes={sizes})"


def build_hierarchy(
    net: SensorNetwork,
    seed: int = 0,
    parent_set_radius_factor: float = 4.0,
    special_parent_gap: int = 2,
    use_parent_sets: bool = False,
    mis_algorithm: str = "luby",
) -> Hierarchy:
    """Construct ``HS`` on a (constant-doubling) sensor network (§2.2).

    Parameters mirror the paper: parent sets reach ``4 · 2^(ℓ+1)``
    (``parent_set_radius_factor = 4``), and ``special_parent_gap`` is the
    σ of Definition 3 (see DESIGN.md for the default-2 rationale).
    ``use_parent_sets=False`` (the default) yields the single-chain
    structure of Algorithm 1's presentation — the configuration the
    paper's own experiments run; ``True`` enables the §3.1 full
    parent-set traversal used by the meeting-level proofs. Either way
    the build queries one radius-limited ball per level member from
    level 1 up (level 0's pairs come off the CSR where the lightest edge
    weighs at least 1); parent sets are solved per level on first read
    (a tracker's first publish).

    Construction only issues radius-limited ball queries (see the
    exactness contract in :mod:`repro.graphs.backends`) and caps its
    level count from the sum of the edge weights, an upper bound on
    the diameter that needs no solve, so the overlay does not depend
    on the row store's capacity and a build solves no exact row.
    """
    with TRACER.span("build", nodes=net.n, seed=seed) as sp:
        ls = build_levels(net, seed=seed, mis_algorithm=mis_algorithm)
        hs = Hierarchy(
            net,
            ls,
            parent_set_radius_factor=parent_set_radius_factor,
            special_parent_gap=special_parent_gap,
            use_parent_sets=use_parent_sets,
        )
        sp.set_result(level=hs.h)
        return hs
