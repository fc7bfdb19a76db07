"""Level construction for the overlay ``HS`` (paper §2.2).

The paper defines a sequence of connectivity graphs
``I = {I_0, I_1, ..., I_h}``:

- ``V_0 = V`` (all sensors);
- ``E_ℓ`` connects pairs ``(u, v)`` in ``V_ℓ`` with
  ``dist_G(u, v) < 2^(ℓ+1)``;
- ``V_ℓ`` (ℓ ≥ 1) is a maximal independent set of ``(V_{ℓ-1}, E_{ℓ-1})``,
  so every excluded node stays within ``2^ℓ`` of a surviving node;
- ``V_h`` is a single node, the root ``r``, with ``h ≤ ⌈log D⌉ + 1``.

Level-ℓ survivors are pairwise ≥ ``2^ℓ`` apart (they are independent
under the ``< 2^ℓ`` threshold of ``E_{ℓ-1}``), so level populations thin
geometrically in constant-doubling metrics — the property all of MOT's
cost bounds rest on.

The same pass picks every default parent. Maximality puts each node of
``V_ℓ`` strictly within ``2^(ℓ+1)`` of ``V_{ℓ+1}``, so the ball of that
radius each member's ``E_ℓ`` edges come from already holds its closest
``V_{ℓ+1}`` node and its distance: the overlay costs one sparse ball
per level member, exact under every distance backend. The MIS runs on
the same pair arrays (:func:`repro.hierarchy.mis.luby_mis_pairs`), its
draws keyed by the members' network indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable

import numpy as np

from repro.graphs.network import SensorNetwork
from repro.hierarchy.mis import deterministic_mis_pairs, luby_mis_pairs
from repro.perf import PERF

Node = Hashable

__all__ = ["LevelStructure", "build_levels"]


@dataclass
class LevelStructure:
    """The iterated-MIS level sets of ``HS`` and their default parents.

    Attributes
    ----------
    levels:
        ``levels[ℓ]`` is the sorted list of nodes in ``V_ℓ``. Level 0 is
        all sensors; the last level contains exactly the root.
    default_parents:
        ``default_parents[ℓ][w]`` is the closest ``V_{ℓ+1}`` node to
        ``w ∈ V_ℓ``, ties broken by node index (``w`` itself when it
        survives to ``V_{ℓ+1}``); one map per level below the root.
    default_parent_hops:
        ``default_parent_hops[ℓ][w]`` is ``dist(w, default_parents[ℓ][w])``.
    mis_rounds:
        Per-level round counts reported by Luby's algorithm (level 0
        requires no MIS, so entry 0 is 0).
    """

    levels: list[list[Node]]
    default_parents: list[dict[Node, Node]]
    default_parent_hops: list[dict[Node, float]]
    mis_rounds: list[int] = field(default_factory=list)

    @property
    def h(self) -> int:
        """Index of the top (root) level."""
        return len(self.levels) - 1

    @property
    def root(self) -> Node:
        """The single top-level sensor."""
        return self.levels[-1][0]

    def level_of_set(self, level: int) -> frozenset[Node]:
        """``V_level`` as a frozen set."""
        return frozenset(self.levels[level])


#: sources per radius-limited ball query: bounds the transient entries
#: at ``CHUNK`` balls (a few dozen nodes each on the levels that fill it)
CHUNK = 512


def _threshold_pairs(
    net: SensorNetwork, members: list[Node], threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs of ``members`` closer than ``threshold``: the edges of ``E_ℓ``.

    Returns member positions ``(row, col)`` in row-major order, self
    pairs excluded, and their distances. Each chunk of sources is one
    :meth:`~repro.graphs.network.SensorNetwork.balls` query of radius
    ``threshold`` against the members, whose entries come row-major.
    """
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for start in range(0, len(members), CHUNK):
        src, col, dist = net.balls(members[start : start + CHUNK], threshold, members)
        row = src + start
        pair = np.flatnonzero((dist < threshold) & (row != col))
        rows.append(row[pair])
        cols.append(col[pair])
        dists.append(dist[pair])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def _nearest_uppers(
    upper: np.ndarray, rows: np.ndarray, cols: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each member's default parent position and hop, read off ``E_ℓ``'s pairs.

    ``upper`` flags the members that survive to ``V_{ℓ+1}``; each is its
    own parent at distance 0. Every other member takes its nearest
    upper neighbour, ties to the lowest position — the lowest node
    index, members being index-sorted. MIS maximality puts that
    neighbour strictly within the threshold the pairs were solved at.
    """
    parent = np.arange(len(upper))
    hop = np.zeros(len(upper))
    keep = upper[cols] & ~upper[rows]
    r, c, d = rows[keep], cols[keep], dists[keep]
    order = np.lexsort((c, d, r))
    r, c, d = r[order], c[order], d[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = r[1:] != r[:-1]
    parent[r[first]] = c[first]
    hop[r[first]] = d[first]
    # post-build invariant (MIS maximality): every member has a parent
    assert np.count_nonzero(first) == np.count_nonzero(~upper)
    return parent, hop


def build_levels(
    net: SensorNetwork,
    seed: int = 0,
    mis_algorithm: str = "luby",
) -> LevelStructure:
    """Build the level sets ``V_0 .. V_h`` by iterated MIS.

    The loop raises the distance threshold ``2^(ℓ+1)`` per level and
    stops as soon as a level holds a single node (the root). Networks
    with one node get a single level. The number of levels is at most
    ``⌈log2 D⌉ + 2`` and typically ``⌈log2 D⌉ + 1``.

    Each level costs one ball of radius ``2^(ℓ+1)`` per member: the
    pairs of ``V_ℓ`` closer than that feed the MIS, and then give every
    member its default parent and hop.

    ``mis_algorithm`` selects the per-level MIS: ``"luby"`` (the paper's
    [24], randomized by ``seed``) or ``"deterministic"`` (the
    ID-priority rule behind the paper's alternative [29]; ``seed`` is
    then ignored and the hierarchy is reproducible with no seed at all).
    """
    if mis_algorithm not in ("luby", "deterministic"):
        raise ValueError(f"unknown MIS algorithm {mis_algorithm!r}")
    levels: list[list[Node]] = [list(net.nodes)]
    index = np.arange(net.n)  # network index of each member of the top level
    parents: list[dict[Node, Node]] = []
    hops: list[dict[Node, float]] = []
    rounds: list[int] = [0]
    ell = 0
    # Safety bound: thresholds double each level; once 2^ℓ > D every pair
    # is adjacent and the MIS collapses to one node. The cap must come
    # from a certified *upper* bound on D — the lazy-mode double-sweep
    # estimate is a lower bound and capping on it truncated hierarchies
    # on large networks before a single root existed.
    _, d_upper = net.diameter_bounds
    max_levels = int(np.ceil(np.log2(max(d_upper, 1.0)))) + 3
    while len(levels[-1]) > 1:
        ell += 1
        if ell > max_levels:
            raise RuntimeError("level construction failed to converge")
        members = levels[-1]
        rows, cols, dists = _threshold_pairs(net, members, threshold=float(2**ell))
        with PERF.timer("hierarchy.mis"):
            if mis_algorithm == "luby":
                upper, r = luby_mis_pairs(index, rows, cols, seed=seed + ell)
            else:
                upper, r = deterministic_mis_pairs(len(members), rows, cols)
        with PERF.timer("hierarchy.parents"):
            parent, hop = _nearest_uppers(upper, rows, cols, dists)
            parents.append(dict(zip(members, [members[j] for j in parent.tolist()], strict=True)))
            hops.append(dict(zip(members, hop.tolist(), strict=True)))
        levels.append(list(compress(members, upper.tolist())))
        index = index[upper]
        rounds.append(r)
    # Post-build invariant (paper §2.2): the top level is exactly {r}.
    assert len(levels[-1]) == 1, "level construction must end at a single root"
    return LevelStructure(
        levels=levels,
        default_parents=parents,
        default_parent_hops=hops,
        mis_rounds=rounds,
    )
