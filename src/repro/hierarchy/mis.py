"""Luby's randomized maximal independent set algorithm (paper §2.2, [24]).

The paper constructs each level of the overlay ``HS`` as a maximal
independent set of the previous level under a distance-threshold
adjacency. We simulate Luby's *distributed* algorithm faithfully: in
each round every still-active node draws a random priority, joins the
MIS if its priority beats all active neighbors (ties broken by node
index), and then MIS nodes and their neighbors retire. The algorithm
terminates in O(log n) rounds in expectation, which is the source of the
paper's "polynomial communication cost in expectation" remark for
building ``HS``.

The rounds run on pair arrays (:func:`luby_mis_pairs`,
:func:`deterministic_mis_pairs`), the form the level pass finds its
edges in; :func:`luby_mis` and :func:`deterministic_mis` take a node
list and an adjacency mapping and call them with node positions as keys.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

Node = Hashable

__all__ = [
    "luby_mis",
    "luby_mis_pairs",
    "deterministic_mis",
    "deterministic_mis_pairs",
    "greedy_mis",
    "is_independent_set",
    "is_maximal_independent_set",
]


def luby_mis_pairs(
    keys: Sequence[int],
    rows: np.ndarray,
    cols: np.ndarray,
    seed: int = 0,
    max_rounds: int | None = None,
) -> tuple[np.ndarray, int]:
    """Luby's rounds over ``len(keys)`` members and their pair arrays.

    Member ``p`` is ``keys[p]`` (distinct ints; the level pass passes
    network indices); ``rows[e]``'s neighbours include ``cols[e]``, as
    member positions. Each round draws one priority per active member,
    in the iteration order of a Python set of the active keys; ties are
    broken by position. A member joins when no active neighbour's
    priority is lower, and winners and their neighbours retire.

    Drawing in that set's order keeps the draws independent of the
    members' labels: they depend only on the keys, ints hash to
    themselves, and removing keys from a set never moves the others.
    Where node ids equal their indices, it is the order the per-node
    loop drew in, so the sets and round counts are the same.

    Returns a mask over positions and the number of rounds; raises
    :class:`RuntimeError` past ``max_rounds`` (default
    ``4 * ceil(log2 n) + 16``; only an asymmetric adjacency gets there).
    """
    n = len(keys)
    if max_rounds is None:
        max_rounds = 4 * int(np.ceil(np.log2(max(n, 2)))) + 16
    rng = np.random.default_rng(seed)
    key_of = np.asarray(keys, dtype=np.int64)
    key_list = key_of.tolist()
    position = dict(zip(key_list, range(n)))
    # built from the list, as the per-node loop built its set: a set made
    # from a dict is presized, and its table (so its order) would differ
    active = set(key_list)
    alive = np.ones(n, dtype=bool)
    mis = np.zeros(n, dtype=bool)
    priority = np.zeros(n)
    rounds = 0
    while active:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                "Luby's algorithm exceeded its round cap; adjacency is "
                "likely not symmetric"
            )
        drawn = np.fromiter(map(position.__getitem__, active), dtype=np.intp, count=len(active))
        priority[drawn] = rng.random(drawn.size)
        live = alive[rows] & alive[cols]
        rows, cols = rows[live], cols[live]
        pr, pc = priority[rows], priority[cols]
        beaten = np.zeros(n, dtype=bool)
        beaten[rows[(pc < pr) | ((pc == pr) & (cols < rows))]] = True
        out = _retire(alive & ~beaten, rows, cols, mis)
        alive &= ~out
        active.difference_update(key_of[out].tolist())
    return mis, rounds


def deterministic_mis_pairs(
    n: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, int]:
    """The ID-priority rule over ``n`` members and their pair arrays.

    Each round, every active member whose position is below every
    active neighbour's joins; it and its neighbours retire. Arguments
    and result are those of :func:`luby_mis_pairs`, without keys: no
    draw, so no order.
    """
    alive = np.ones(n, dtype=bool)
    mis = np.zeros(n, dtype=bool)
    rounds = 0
    while alive.any():
        rounds += 1
        live = alive[rows] & alive[cols]
        rows, cols = rows[live], cols[live]
        beaten = np.zeros(n, dtype=bool)
        beaten[rows[cols <= rows]] = True  # a self pair blocks, as ``<`` did
        winners = alive & ~beaten
        if not winners.any():  # pragma: no cover - impossible on symmetric graphs
            raise RuntimeError("no local minima; adjacency is not symmetric")
        alive &= ~_retire(winners, rows, cols, mis)
    return mis, rounds


def _retire(winners: np.ndarray, rows: np.ndarray, cols: np.ndarray, mis: np.ndarray) -> np.ndarray:
    """Add ``winners`` to ``mis``; return them with their neighbours."""
    mis |= winners
    out = winners.copy()
    out[cols[winners[rows]]] = True
    return out


def _pairs(
    nodes: Sequence[Node], adjacency: Mapping[Node, Iterable[Node]]
) -> tuple[np.ndarray, np.ndarray]:
    """``adjacency`` as position pairs; neighbours outside ``nodes`` dropped."""
    position = {v: i for i, v in enumerate(nodes)}
    rows: list[int] = []
    cols: list[int] = []
    for i, v in enumerate(nodes):
        for u in adjacency.get(v, ()):
            j = position.get(u)
            if j is not None:
                rows.append(i)
                cols.append(j)
    return np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)


def luby_mis(
    nodes: Sequence[Node],
    adjacency: Mapping[Node, Iterable[Node]],
    seed: int = 0,
    max_rounds: int | None = None,
) -> tuple[set[Node], int]:
    """Run Luby's algorithm on ``(nodes, adjacency)``.

    Parameters
    ----------
    nodes:
        The vertex set, in a deterministic order (ties in random
        priorities are broken by this order; the positions are the keys
        of :func:`luby_mis_pairs`).
    adjacency:
        Mapping from node to its neighbors. Must be symmetric; nodes
        absent from the mapping are treated as isolated.
    seed:
        Seed for the per-round random priorities.
    max_rounds:
        Safety cap; defaults to ``4 * ceil(log2 n) + 16``. Exceeding the
        cap raises :class:`RuntimeError` (should never happen for a
        symmetric adjacency).

    Returns
    -------
    (mis, rounds):
        The maximal independent set and the number of rounds the
        distributed algorithm took.
    """
    rows, cols = _pairs(nodes, adjacency)
    mask, rounds = luby_mis_pairs(range(len(nodes)), rows, cols, seed, max_rounds)
    return {nodes[i] for i in np.flatnonzero(mask).tolist()}, rounds


def deterministic_mis(
    nodes: Sequence[Node],
    adjacency: Mapping[Node, Iterable[Node]],
) -> tuple[set[Node], int]:
    """Deterministic distributed MIS by ID priorities.

    Each round, every active node whose index is the local minimum among
    active neighbors joins the MIS; it and its neighbors retire. This is
    the classic deterministic local rule the bounded-independence
    literature builds on (the paper's [29] accelerates the same fixpoint
    to O(log* n) rounds; we reproduce the rule and the interface, not
    the round complexity — levels built from it are identical in shape).

    Returns ``(mis, rounds)`` like :func:`luby_mis`; fully deterministic,
    so hierarchies built with it are seed-independent.
    """
    rows, cols = _pairs(nodes, adjacency)
    mask, rounds = deterministic_mis_pairs(len(nodes), rows, cols)
    return {nodes[i] for i in np.flatnonzero(mask).tolist()}, rounds


def greedy_mis(
    nodes: Sequence[Node],
    adjacency: Mapping[Node, Iterable[Node]],
) -> set[Node]:
    """Deterministic greedy MIS in node order (used in tests as an oracle)."""
    mis: set[Node] = set()
    blocked: set[Node] = set()
    for v in nodes:
        if v in blocked:
            continue
        mis.add(v)
        blocked.add(v)
        blocked.update(adjacency.get(v, ()))
    return mis


def is_independent_set(
    candidate: set[Node], adjacency: Mapping[Node, Iterable[Node]]
) -> bool:
    """No two members of ``candidate`` are adjacent."""
    for v in candidate:
        for u in adjacency.get(v, ()):
            if u in candidate and u != v:
                return False
    return True


def is_maximal_independent_set(
    candidate: set[Node],
    nodes: Sequence[Node],
    adjacency: Mapping[Node, Iterable[Node]],
) -> bool:
    """``candidate`` is independent and every non-member has a member neighbor."""
    if not is_independent_set(candidate, adjacency):
        return False
    for v in nodes:
        if v in candidate:
            continue
        if not any(u in candidate for u in adjacency.get(v, ())):
            return False
    return True
