"""The ``repro audit-backend`` gate: the exact-distance contract.

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
  parents and hops (exact ``==``) under ``full``, which reads its balls
  off the matrix, and ``lazy``, which solves them.

:func:`run_backend_audit` returns a JSON-ready report whose ``ok``
gates the CLI exit code.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.graphs.backends import BACKEND_NAMES
from repro.graphs.generators import grid_network, random_geometric_network
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import build_hierarchy

Node = Hashable
#: levels, default parents and hops of one overlay
Overlay = tuple[list[list[Node]], list[dict[Node, Node]], list[dict[Node, float]]]

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
    """Levels, default parents and hops of ``net``'s default overlay."""
    levels = build_hierarchy(net, seed=seed).levels
    return levels.levels, levels.default_parents, levels.default_parent_hops


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
        all(overlay == reference for overlay in overlays.values()),
        f"levels, default parents and hops of {len(reference[0])} levels "
        f"identical under {', '.join(overlays)}",
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
