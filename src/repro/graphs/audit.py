"""The ``repro audit backend`` gate: the exact-distance contract.

Same pattern as the serve consistency audit and the trace determinism
gate: an executable contract, run on small graphs
where a dense reference solve is affordable, wired into CI so a
distance regression fails a build instead of silently corrupting cost
ledgers. The reference is one all-pairs scipy solve over a CSR built
from the network's graph, outside the row store.

Checks per graph (a grid and a random geometric network by default),
each against the dense reference:

- **exact rows and pairs** — rows, node pairs and the batch engine's
  index pairs (the ledger read) equal the reference *bit for bit*
  (``np.array_equal``, no tolerance: the same scipy solver runs over
  the same CSR, so even the float noise must match), both with every
  row resident and with a row store small enough to evict
  (``rows_bit_for_bit``);
- **solved balls** — ``balls`` answers with exactly the reference's
  entries within the limit (exact ``==``, none past it);
- **k-neighborhoods** — ``k_neighborhood`` reports the reference's
  nodes within the radius, boundary nodes kept by the cost tolerance;
- **diameter bracket** — ``diameter_bounds`` is the true diameter with
  every row resident, and contains it when the store evicts;
- **E₀ off the CSR** — the single edges lighter than 2 read off the CSR
  equal the pairs closer than 2 solved as balls (exact ``==``), and a
  build solves no level-0 ball; a copy with every weight halved (its
  lightest edge below 1, unnormalized) solves all of them
  (``level0_pairs_exact``);
- **a build without rows** — a fresh network's overlay and batch-engine
  tables compute no exact row and leave the matrix unstacked
  (``build_matrix_free``);
- **exact SDL hops** — the batch engine's SDL-hop table holds each
  special parent's host-to-child distance exactly as the dense
  reference's row of the host has it (``sdl_hop_exact``, exact ``==``).

:func:`run_backend_audit` returns a JSON-ready report whose ``ok``
gates the CLI exit code.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.core.batch import BatchMOTEngine
from repro.graphs.backends import _ball_cutoff
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.levels import ball_pairs, build_levels
from repro.hierarchy.structure import build_hierarchy

__all__ = ["run_backend_audit"]

#: bracket slack: float noise only, far below any real distance gap
_EPS = 1e-9

#: row-store capacity of the evicting network each graph is also audited on
_EVICTING_ROWS = 4


def _reference_matrix(net: SensorNetwork) -> np.ndarray:
    """An independent dense solve: one all-pairs scipy call over a CSR
    built from the network's graph."""
    csr = nx.to_scipy_sparse_array(net.graph, nodelist=list(net.nodes), format="csr")
    return dijkstra(csr, directed=False)


def _sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)
    ] + [(0, 0), (0, n - 1)]


def _level0_checks(graph: nx.Graph, seed: int) -> tuple[bool, str]:
    """E₀ read off the CSR against E₀ solved as balls, and the ball
    solves a build spends on level 0 with and without the shortcut."""
    net = SensorNetwork(graph, normalize=False)
    solved = ball_pairs(net, np.arange(net.n), 2.0)
    read = net.edges_below(2.0)
    same = all(np.array_equal(a, b) for a, b in zip(read, solved, strict=True))
    spent = []
    for factor in (1.0, 0.5):  # halved: the lightest edge is below 1
        scaled = graph.copy()
        for _, _, data in scaled.edges(data=True):
            data["weight"] = data.get("weight", 1.0) * factor
        fresh = SensorNetwork(scaled, normalize=False)
        ls = build_levels(fresh, seed=seed)
        balls = sum(len(index) for index in ls.level_index[1:-1])
        spent.append(fresh.oracle_stats["limited_sssp"] - balls)
    shortcut = 2.0 <= 2.0 * net.lightest_edge
    ok = shortcut and same and spent == [0, net.n]
    return ok, (
        f"{len(read[0])} E0 pairs off the CSR equal the balls' ({same}); level-0 ball "
        f"solves {spent[0]} as given, {spent[1]} with weights halved (n={net.n})"
    )


def _audit_one_graph(label: str, base: SensorNetwork, seed: int) -> list[dict[str, object]]:
    checks: list[dict[str, object]] = []
    ref = _reference_matrix(base)
    pairs = _sample_pairs(ref.shape[0], 64, seed)
    sources = sorted({i for i, _ in pairs})
    want = np.array([ref[i, j] for i, j in pairs])

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append(
            {"graph": label, "check": name, "ok": bool(ok), "detail": detail}
        )

    net = SensorNetwork(base.graph, normalize=False)
    lru = SensorNetwork(base.graph, normalize=False, lazy_cache_rows=_EVICTING_ROWS)

    # -- rows, node pairs and index pairs are the reference's bits -----
    exact = True
    for each in (net, lru):
        block = each.distances_to_many([each.node_at(i) for i in sources])
        got = each.pair_distances([(each.node_at(i), each.node_at(j)) for i, j in pairs])
        index = each.pair_index_distances(np.array(pairs, dtype=np.int64))
        exact = exact and all(
            np.array_equal(a, b) for a, b in ((block, ref[sources]), (got, want), (index, want))
        )
    record(
        "rows_bit_for_bit",
        exact and lru.oracle_stats["row_cache_evictions"] > 0,
        f"{len(sources)} rows, {len(pairs)} node pairs and index pairs vs dense reference, "
        f"every row resident and a {_EVICTING_ROWS}-row store",
    )

    # -- solved balls are the reference's entries ----------------------
    limit = float(np.median(ref[ref > 0])) if np.any(ref > 0) else 1.0
    src, node, dist = net.balls([net.node_at(i) for i in sources], limit)
    # the dense reference's entries within the limit, in the same order
    want_src, want_node = np.nonzero(ref[sources] <= limit)
    record(
        "balls_exact",
        bool(
            np.array_equal(src, want_src)
            and np.array_equal(node, want_node)
            and np.array_equal(dist, ref[sources][want_src, want_node])
        ),
        f"balls at limit={limit:.3g} equal the dense reference's entries",
    )

    # -- k-neighborhood and diameter against the reference -------------
    radius = max(2.0, limit / 2.0)
    ball = net.k_neighborhood(base.node_at(0), radius)
    within = [base.node_at(i) for i in np.flatnonzero(ref[0] <= _ball_cutoff(radius))]
    record(
        "k_neighborhood_exact",
        ball == within,
        f"ball(node 0, {radius:.3g}) holds the reference's {len(within)} nodes",
    )
    true_d = float(ref.max())
    lo, hi = lru.diameter_bounds
    record(
        "diameter_bracket",
        net.diameter_bounds == (true_d, true_d) and lo <= true_d + _EPS <= hi + _EPS,
        f"D={true_d:.6g} exact with every row resident, inside "
        f"[{lo:.6g}, {hi:.6g}] with {_EVICTING_ROWS} rows",
    )
    record("level0_pairs_exact", *_level0_checks(base.graph, seed))

    # -- a build and its tables solve no row ---------------------------
    fresh = SensorNetwork(base.graph, normalize=False)
    hs = build_hierarchy(fresh, seed=seed, special_parent_gap=1)
    tables = BatchMOTEngine(hs).tables
    stats = fresh.oracle_stats
    record(
        "build_matrix_free",
        stats["matrix_materialized"] is False
        and stats["rows_computed"] == 0
        and stats["row_cache_size"] == 0,
        f"build and batch tables: rows_computed={stats['rows_computed']}, "
        f"row_cache_size={stats['row_cache_size']}",
    )

    # -- each SDL hop is its host's exact distance ---------------------
    members = hs.levels.level_index[1 : hs.h - 1]
    level = np.repeat(np.arange(1, hs.h - 1), [len(m) for m in members])
    child = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    host = tables.lift[level, child]
    record(
        "sdl_hop_exact",
        bool(np.array_equal(tables.sdl_hop[level, child], ref[host, child])),
        f"{len(child)} SDL hops (gap 1) equal the dense reference's host rows",
    )
    return checks


def run_backend_audit(
    side: int = 6,
    geometric_nodes: int = 48,
    seed: int = 1,
    graphs: Sequence[str] = ("grid", "geometric"),
) -> dict[str, object]:
    """Run every exact-distance check on small graphs; ``report["ok"]`` gates CI."""
    checks: list[dict[str, object]] = []
    if "grid" in graphs:
        checks += _audit_one_graph(f"grid-{side}x{side}", grid_network(side, side), seed)
    if "geometric" in graphs:
        checks += _audit_one_graph(
            f"geometric-{geometric_nodes}",
            random_geometric_network(geometric_nodes, seed=seed),
            seed,
        )
    failed = [c for c in checks if not c["ok"]]
    return {
        "audit": "backend",
        "config": {
            "side": side,
            "geometric_nodes": geometric_nodes,
            "seed": seed,
        },
        "checks": checks,
        "failed": len(failed),
        "ok": not failed,
    }
