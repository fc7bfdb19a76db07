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
``V_{ℓ+1}`` node and its distance: from level 1 up, the overlay costs
one sparse ball per level member, each exact.
``E_0`` needs none where no path of two edges is shorter than 2 (the
lightest edge weighs at least 1, as on every normalized network): it is
then the single edges lighter than 2, each at its weight, read off the
CSR (:meth:`~repro.graphs.network.SensorNetwork.edges_below`). The MIS
runs on the same pair arrays (:func:`repro.hierarchy.mis.luby_mis_pairs`),
its draws keyed by the members' network indices.

Every level is kept as network-index arrays: its members, their default
parents and hops. The node-keyed lists and maps the scalar tracker and
the load metrics read are views built from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from repro.graphs.network import SensorNetwork
from repro.hierarchy.mis import deterministic_mis_pairs, luby_mis_pairs
from repro.perf import PERF

Node = Hashable

__all__ = ["LevelStructure", "ball_pairs", "build_levels"]


@dataclass(eq=False)
class LevelStructure:
    """The iterated-MIS level sets of ``HS`` and their default parents.

    Attributes
    ----------
    nodes:
        The network's nodes in index order.
    level_index:
        ``level_index[ℓ]`` is ``V_ℓ`` as increasing network indices.
        Level 0 is every index; the last level holds only the root's.
    parent_index:
        ``parent_index[ℓ][k]`` is the network index of the closest
        ``V_{ℓ+1}`` node to the member ``level_index[ℓ][k]``, ties broken
        by node index (the member itself when it survives to
        ``V_{ℓ+1}``); one array per level below the root.
    parent_hop:
        ``parent_hop[ℓ][k]`` is the distance from that member to its
        default parent.
    mis_rounds:
        Per-level round counts reported by Luby's algorithm (level 0
        requires no MIS, so entry 0 is 0).
    """

    nodes: Sequence[Node]
    level_index: list[np.ndarray]
    parent_index: list[np.ndarray]
    parent_hop: list[np.ndarray]
    mis_rounds: list[int] = field(default_factory=list)

    @property
    def h(self) -> int:
        """Index of the top (root) level."""
        return len(self.level_index) - 1

    @property
    def root(self) -> Node:
        """The single top-level sensor."""
        return self.nodes[int(self.level_index[-1][0])]

    def _node_list(self, index: np.ndarray) -> list[Node]:
        nodes = self.nodes
        return [nodes[i] for i in index.tolist()]

    @cached_property
    def levels(self) -> list[list[Node]]:
        """``levels[ℓ]`` is the sorted list of nodes in ``V_ℓ`` (a view of
        :attr:`level_index`, built on first read)."""
        return [self._node_list(index) for index in self.level_index]

    @cached_property
    def default_parents(self) -> list[dict[Node, Node]]:
        """``default_parents[ℓ][w]`` is the default parent of ``w ∈ V_ℓ``
        (a view of :attr:`parent_index`, built on first read)."""
        return [
            dict(zip(self.levels[ell], self._node_list(parent), strict=True))
            for ell, parent in enumerate(self.parent_index)
        ]

    @cached_property
    def default_parent_hops(self) -> list[dict[Node, float]]:
        """``default_parent_hops[ℓ][w]`` is
        ``dist(w, default_parents[ℓ][w])`` (a view of :attr:`parent_hop`,
        built on first read)."""
        return [
            dict(zip(self.levels[ell], hop.tolist(), strict=True))
            for ell, hop in enumerate(self.parent_hop)
        ]

    def level_of_set(self, level: int) -> frozenset[Node]:
        """``V_level`` as a frozen set."""
        return frozenset(self.levels[level])


#: sources per radius-limited ball query: bounds the transient entries
#: at ``CHUNK`` balls (a few dozen nodes each on the levels that fill it)
CHUNK = 512


def ball_pairs(
    net: SensorNetwork, index: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs of members closer than ``threshold``, solved as balls.

    ``index`` holds the members' network indices, in increasing order.
    Returns member positions ``(row, col)`` in row-major order, self
    pairs excluded, and their distances. Each chunk of sources is one
    :meth:`~repro.graphs.network.SensorNetwork.index_balls` query
    against the members, whose entries come row-major; the members'
    column map is built once per level. The query's radius is the float
    just below ``threshold``: balls are inclusive, so that keeps exactly
    the nodes closer than ``threshold``, and a node's distance depends
    only on nodes closer still, so pruning the rest changes none.
    """
    columns = None if len(index) == net.n else net.ball_columns(index)
    radius = float(np.nextafter(threshold, 0.0))
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    for start in range(0, len(index), CHUNK):
        src, col, dist = net.index_balls(index[start : start + CHUNK], radius, columns)
        row = src + start
        pair = np.flatnonzero(row != col)
        rows.append(row[pair])
        cols.append(col[pair])
        dists.append(dist[pair])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)


def _threshold_pairs(
    net: SensorNetwork, index: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``E_ℓ``, as :func:`ball_pairs` returns them.

    When the members are every node and no path of two edges is shorter
    than ``threshold`` (it is at most twice the lightest edge), the
    pairs are the single edges lighter than it, at their weights, and
    the CSR holds them row-major already.
    """
    if len(index) == net.n and threshold <= 2.0 * net.lightest_edge:
        return net.edges_below(threshold)
    return ball_pairs(net, index, threshold)


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
    member its default parent and hop. Level 0's pairs are read off the
    CSR instead wherever no path of two edges is shorter than 2.

    ``mis_algorithm`` selects the per-level MIS: ``"luby"`` (the paper's
    [24], randomized by ``seed``) or ``"deterministic"`` (the
    ID-priority rule behind the paper's alternative [29]; ``seed`` is
    then ignored and the hierarchy is reproducible with no seed at all).
    """
    if mis_algorithm not in ("luby", "deterministic"):
        raise ValueError(f"unknown MIS algorithm {mis_algorithm!r}")
    index = np.arange(net.n)  # network index of each member of the top level
    level_index = [index]
    parent_index: list[np.ndarray] = []
    parent_hop: list[np.ndarray] = []
    rounds: list[int] = [0]
    ell = 0
    # Safety bound: thresholds double each level; once 2^ℓ > D every pair
    # is adjacent and the MIS collapses to one node. The cap must come
    # from a certified *upper* bound on D — the lazy-mode double-sweep
    # estimate is a lower bound and capping on it truncated hierarchies
    # on large networks before a single root existed. The sum of the
    # edge weights bounds D with no solve, so the build asks the oracle
    # for balls alone.
    max_levels = int(np.ceil(np.log2(max(net.total_weight, 1.0)))) + 3
    while len(index) > 1:
        ell += 1
        if ell > max_levels:
            raise RuntimeError("level construction failed to converge")
        rows, cols, dists = _threshold_pairs(net, index, threshold=float(2**ell))
        with PERF.timer("hierarchy.mis"):
            if mis_algorithm == "luby":
                upper, r = luby_mis_pairs(index, rows, cols, seed=seed + ell)
            else:
                upper, r = deterministic_mis_pairs(len(index), rows, cols)
        with PERF.timer("hierarchy.parents"):
            parent, hop = _nearest_uppers(upper, rows, cols, dists)
            parent_index.append(index[parent])
            parent_hop.append(hop)
        index = index[upper]
        level_index.append(index)
        rounds.append(r)
    # Post-build invariant (paper §2.2): the top level is exactly {r}.
    assert len(level_index[-1]) == 1, "level construction must end at a single root"
    return LevelStructure(
        nodes=net.nodes,
        level_index=level_index,
        parent_index=parent_index,
        parent_hop=parent_hop,
        mis_rounds=rounds,
    )
