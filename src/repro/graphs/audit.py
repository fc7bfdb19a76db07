"""The ``repro audit backend`` gate: the exact-distance contract.

Same pattern as the serve consistency audit and the trace determinism
gate: an executable contract, run on small graphs
where a dense reference solve is affordable, wired into CI so a backend
regression fails a build instead of silently corrupting cost ledgers.

Checks per graph (a grid and a random geometric network by default):

- **exact parity** — the ``full`` and ``lazy`` backends answer every
  pair *bit-for-bit* equal to an independent dense reference Dijkstra
  (``np.array_equal``, no tolerance: both run the same scipy solver
  over the same CSR, so even the float noise must match the seed
  oracle), and only ``full`` materializes the matrix;
- **solved balls** — ``lazy`` answers ``balls`` with exactly the
  reference's entries within the limit (exact ``==``, none past it);
- **k-neighborhood agreement** — both backends report the same ball
  membership (the boundary-node tolerance fix applies uniformly);
- **diameter bracket** — ``diameter_bounds`` contains the true
  diameter under both backends;
- **overlay parity** — ``build_hierarchy`` gives equal levels, default
  parents and hops (the level pass's index arrays, exact ``==``) under
  ``full`` and ``lazy``;
- **E₀ off the CSR** — the single edges lighter than 2 read off the CSR
  equal the pairs closer than 2 solved as balls (exact ``==``), and a
  build solves no level-0 ball; a copy with every weight halved (its
  lightest edge below 1, unnormalized) solves all of them
  (``level0_pairs_exact``);
- **a build without the matrix** — a fresh ``full`` network's overlay
  and batch-engine tables leave the matrix unmaterialized and compute
  no exact row (``build_matrix_free``);
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

from repro.core.batch import BatchMOTEngine
from repro.graphs.backends import BACKEND_NAMES
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.levels import ball_pairs, build_levels
from repro.hierarchy.structure import build_hierarchy

#: levels, default parents and hops of one overlay, as index arrays
Overlay = tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]

__all__ = ["run_backend_audit"]

#: bracket slack: float noise only, far below any real distance gap
_EPS = 1e-9


def _reference_matrix(net: SensorNetwork) -> np.ndarray:
    """An independent dense solve (the seed oracle's full mode)."""
    ref = SensorNetwork(net.graph, normalize=False, distance_backend="full")
    return np.asarray(ref.distance_matrix)


def _sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)
    ] + [(0, 0), (0, n - 1)]


def _overlay(net: SensorNetwork, seed: int) -> Overlay:
    """Levels, default parents and hops of ``net``'s default overlay, as
    the level pass's index arrays."""
    ls = build_hierarchy(net, seed=seed).levels
    return ls.level_index, ls.parent_index, ls.parent_hop


def _same_overlay(a: Overlay, b: Overlay) -> bool:
    return all(
        len(x) == len(y) and all(np.array_equal(p, q) for p, q in zip(x, y, strict=True))
        for x, y in zip(a, b, strict=True)
    )


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

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append(
            {"graph": label, "check": name, "ok": bool(ok), "detail": detail}
        )

    nets = {
        name: SensorNetwork(base.graph, normalize=False, distance_backend=name)
        for name in BACKEND_NAMES
    }

    # -- both backends must agree bit-for-bit with the reference -------
    for name, net in nets.items():
        block = np.asarray(net.distances_to_many([net.node_at(i) for i in sources]))
        exact_rows = bool(np.array_equal(block, ref[sources]))
        got = net.pair_distances(
            [(net.node_at(i), net.node_at(j)) for i, j in pairs]
        )
        want = np.array([ref[i, j] for i, j in pairs])
        exact_pairs = bool(np.array_equal(np.asarray(got), want))
        record(
            f"{name}_bit_for_bit",
            exact_rows and exact_pairs,
            f"{len(sources)} rows and {len(pairs)} pairs vs dense reference",
        )
        mat_flag = bool(net.oracle_stats["matrix_materialized"])
        record(
            f"{name}_matrix_flag",
            mat_flag == (name == "full"),
            f"matrix_materialized={mat_flag}",
        )

    # -- lazy's solved balls are the reference's entries ---------------
    lazy = nets["lazy"]
    limit = float(np.median(ref[ref > 0])) if np.any(ref > 0) else 1.0
    src, node, dist = lazy.balls([lazy.node_at(i) for i in sources], limit)
    # the dense reference's entries within the limit, in the same order
    want_src, want_node = np.nonzero(ref[sources] <= limit)
    record(
        "lazy_balls_exact",
        bool(
            np.array_equal(src, want_src)
            and np.array_equal(node, want_node)
            and np.array_equal(dist, ref[sources][want_src, want_node])
        ),
        f"balls at limit={limit:.3g} equal the dense reference's entries",
    )

    # -- k-neighborhood and diameter agreement across backends ---------
    probe = base.node_at(0)
    radius = max(2.0, limit / 2.0)
    balls = [net.k_neighborhood(probe, radius) for net in nets.values()]
    true_d = float(ref.max())
    diam_ok = True
    for net in nets.values():
        lo, hi = net.diameter_bounds
        diam_ok = diam_ok and (lo <= true_d + _EPS <= hi + _EPS)
    record(
        "k_neighborhood_agreement",
        all(ball == balls[0] for ball in balls),
        f"ball(node 0, {radius:.3g}) identical under {', '.join(BACKEND_NAMES)}",
    )
    record(
        "diameter_bracket",
        diam_ok,
        f"diameter_bounds contains D={true_d:.6g} under every backend",
    )

    # -- the overlay is identical whichever backend answers ------------
    overlays = {name: _overlay(net, seed) for name, net in nets.items()}
    reference = overlays["full"]
    record(
        "overlay_parity",
        all(_same_overlay(overlay, reference) for overlay in overlays.values()),
        f"levels, default parents and hops of {len(reference[0])} levels "
        f"identical under {', '.join(overlays)}",
    )
    record("level0_pairs_exact", *_level0_checks(base.graph, seed))

    # -- a full build and its tables leave the matrix alone ------------
    fresh = SensorNetwork(base.graph, normalize=False, distance_backend="full")
    hs = build_hierarchy(fresh, seed=seed, special_parent_gap=1)
    tables = BatchMOTEngine(hs).tables
    stats = fresh.oracle_stats
    record(
        "build_matrix_free",
        stats["matrix_materialized"] is False and stats["rows_computed"] == 0,
        f"full build and batch tables: matrix_materialized="
        f"{stats['matrix_materialized']}, rows_computed={stats['rows_computed']}",
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
    """Run every backend check on small graphs; ``report["ok"]`` gates CI."""
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
