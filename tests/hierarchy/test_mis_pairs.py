"""The array MIS rounds behind the level pass.

``luby_mis_pairs`` and ``deterministic_mis_pairs`` run on a level's
pair arrays. ``_dict_luby`` and ``_dict_deterministic`` are the
per-node loops they replace, kept here as the reference: with node
ids equal to the keys the array rounds draw for, both give the same
sets and round counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import grid_network, random_geometric_network
from repro.hierarchy.levels import build_levels
from repro.hierarchy.mis import deterministic_mis_pairs, luby_mis_pairs


def _dict_luby(nodes, adjacency, seed):
    order = {v: i for i, v in enumerate(nodes)}
    rng = np.random.default_rng(seed)
    active = set(nodes)
    mis = set()
    rounds = 0
    while active:
        rounds += 1
        priorities = {v: (rng.random(), order[v]) for v in active}
        winners = [
            v
            for v in active
            if not any(u in active and priorities[u] < priorities[v] for u in adjacency.get(v, ()))
        ]
        retired = set()
        for v in winners:
            mis.add(v)
            retired.add(v)
            retired.update(adjacency.get(v, ()))
        active -= retired
    return mis, rounds


def _dict_deterministic(nodes, adjacency):
    order = {v: i for i, v in enumerate(nodes)}
    active = set(nodes)
    mis = set()
    rounds = 0
    while active:
        rounds += 1
        winners = [
            v for v in active if all(order[v] < order[u] for u in adjacency.get(v, ()) if u in active)
        ]
        retired = set()
        for v in winners:
            mis.add(v)
            retired.add(v)
            retired.update(adjacency.get(v, ()))
        active -= retired
    return mis, rounds


def _case(graph: nx.Graph, keys: list[int]):
    """``graph`` relabelled to ``keys`` (ascending), as nodes, adjacency and pairs."""
    nodes = sorted(graph.nodes())
    label = dict(zip(nodes, keys, strict=True))
    adjacency = {label[v]: [label[u] for u in graph.neighbors(v)] for v in nodes}
    position = {k: i for i, k in enumerate(keys)}
    pairs = [(position[v], position[u]) for v in keys for u in adjacency[v]]
    rows = np.array([r for r, _ in pairs], dtype=np.intp)
    cols = np.array([c for _, c in pairs], dtype=np.intp)
    return keys, adjacency, rows, cols


def _graphs():
    out = []
    for seed in range(6):
        out.append(nx.gnp_random_graph(60 + 20 * seed, 0.08, seed=seed))
    out.append(nx.grid_2d_graph(15, 11))
    out.append(nx.empty_graph(9))
    out.append(nx.complete_graph(12))
    return out


def _key_sets(n: int, seed: int) -> list[list[int]]:
    """Keys equal to positions, and sparse keys past a small set's table size."""
    rng = np.random.default_rng(seed)
    return [list(range(n)), sorted(rng.choice(50 * n + 7, size=n, replace=False).tolist())]


@pytest.mark.parametrize("case", range(len(_graphs())))
def test_luby_rounds_equal_the_per_node_loop(case):
    graph = _graphs()[case]
    for keys in _key_sets(graph.number_of_nodes(), case):
        nodes, adjacency, rows, cols = _case(graph, keys)
        for seed in (0, 1, 17):
            mask, rounds = luby_mis_pairs(keys, rows, cols, seed=seed)
            want, want_rounds = _dict_luby(nodes, adjacency, seed)
            assert {keys[i] for i in np.flatnonzero(mask)} == want
            assert rounds == want_rounds


@pytest.mark.parametrize("case", range(len(_graphs())))
def test_deterministic_rounds_equal_the_per_node_loop(case):
    graph = _graphs()[case]
    nodes, adjacency, rows, cols = _case(graph, list(range(graph.number_of_nodes())))
    mask, rounds = deterministic_mis_pairs(len(nodes), rows, cols)
    want, want_rounds = _dict_deterministic(nodes, adjacency)
    assert set(np.flatnonzero(mask).tolist()) == want
    assert rounds == want_rounds


@pytest.mark.parametrize("algorithm", ["luby", "deterministic"])
@pytest.mark.parametrize(
    "net",
    [grid_network(16, 16), random_geometric_network(200, seed=4)],
    ids=["grid", "geometric"],
)
def test_levels_equal_the_per_node_loop_on_every_level(net, algorithm):
    """Each level is the dict loop's MIS of the one below under ``< 2^ℓ``,
    drawn over the members' node ids (equal to their indices here)."""
    ls = build_levels(net, seed=3, mis_algorithm=algorithm)
    matrix = net.distance_matrix
    for ell in range(1, ls.h + 1):
        members = ls.levels[ell - 1]
        block = matrix[np.ix_(members, members)]
        adjacency = {
            v: [members[j] for j in np.flatnonzero(block[i] < 2.0**ell) if j != i]
            for i, v in enumerate(members)
        }
        if algorithm == "luby":
            want, want_rounds = _dict_luby(members, adjacency, seed=3 + ell)
        else:
            want, want_rounds = _dict_deterministic(members, adjacency)
        assert set(ls.levels[ell]) == want
        assert ls.mis_rounds[ell] == want_rounds


def test_round_cap_still_fires():
    rows = np.array([0], dtype=np.intp)
    cols = np.array([1], dtype=np.intp)
    with pytest.raises(RuntimeError, match="round cap"):
        luby_mis_pairs([0, 1], rows, cols, seed=0, max_rounds=0)


_LEVELS_SCRIPT = """
import json
import networkx as nx
from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.levels import build_levels
g = nx.relabel_nodes(grid_network(12, 12).graph, {v: f"n{v:03d}" for v in range(144)})
ls = build_levels(SensorNetwork(g, normalize=False), seed=0)
print(json.dumps([ls.levels, ls.mis_rounds]))
"""


def test_str_labelled_levels_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[2] / "src")
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _LEVELS_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
