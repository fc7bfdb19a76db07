"""The ``repro audit-backend`` gate: exactness and admissibility checks.

Same pattern as the serve consistency audit (PR 4) and the trace
determinism gate (PR 5): an executable contract, run on small graphs
where a dense reference solve is affordable, wired into CI so a backend
regression fails a build instead of silently corrupting cost ledgers.

Checks per graph (a grid and a random geometric network by default):

- **exact parity** — the ``full``, ``lazy`` and ``memmap`` backends
  answer every pair *bit-for-bit* equal to an independent dense
  reference Dijkstra (``np.array_equal``, no tolerance: these backends
  run the same scipy solver over the same CSR, so even the float noise
  must match the seed oracle);
- **landmark admissibility** — every unlimited landmark answer is an
  upper bound on the true distance (≥ exact − 1e-9), diagonals are 0,
  and answers within the exactness budget are exactly the reference;
- **limited-query exactness** — a landmark backend whose budget is
  spent answers ``balls`` with exactly the reference's entries within
  the limit (exact ``==``, none past it);
- **k-neighborhood agreement** — all backends report the same ball
  membership (the boundary-node tolerance fix applies uniformly);
- **diameter bracket** — ``diameter_bounds`` contains the true
  diameter under every backend;
- **overlay parity** — ``build_hierarchy`` gives equal levels, default
  parents and hops (exact ``==``) under ``full``, ``lazy``, ``memmap``
  and a ``landmark`` backend whose exactness budget is spent, the
  whole-overlay form of the limited-query contract: ``full`` and
  ``memmap`` read their balls off the matrix, the others solve them.

:func:`run_backend_audit` returns a JSON-ready report whose ``ok``
gates the CLI exit code.
"""

from __future__ import annotations

import os
import tempfile
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

#: admissibility slack: float noise only, far below any real distance gap
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


def _audit_one_graph(
    label: str,
    base: SensorNetwork,
    seed: int,
    num_landmarks: int,
    exact_budget: int,
) -> list[dict[str, object]]:
    checks: list[dict[str, object]] = []
    ref = _reference_matrix(base)
    n = ref.shape[0]
    pairs = _sample_pairs(n, 64, seed)
    sources = sorted({i for i, _ in pairs})

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append(
            {"graph": label, "check": name, "ok": bool(ok), "detail": detail}
        )

    # -- exact backends must agree bit-for-bit with the reference ------
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("full", "lazy", "memmap"):
            options: dict[str, object] = (
                {"path": os.path.join(tmp, f"{label}.f64")} if name == "memmap" else {}
            )
            net = SensorNetwork(
                base.graph, normalize=False, distance_backend=name,
                backend_options=options,
            )
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
                mat_flag == (name in ("full", "memmap")),
                f"matrix_materialized={mat_flag}",
            )

    # -- landmark backend: admissible, budget-exact, limited-exact -----
    lm = SensorNetwork(
        base.graph, normalize=False, distance_backend="landmark",
        backend_options={"num_landmarks": num_landmarks, "exact_budget": exact_budget},
    )
    budget_rows = [lm.distances_from(lm.node_at(i)) for i in sources[:exact_budget]]
    budget_exact = all(
        np.array_equal(np.asarray(row), ref[i])
        for i, row in zip(sources[:exact_budget], budget_rows)
    )
    record(
        "landmark_budget_exact",
        budget_exact,
        f"first {len(budget_rows)} row queries spend the exactness budget",
    )

    admissible = True
    diag_zero = True
    for i in range(n):
        row = np.asarray(lm.distances_from(lm.node_at(i)))
        admissible = admissible and bool(np.all(row >= ref[i] - _EPS))
        diag_zero = diag_zero and bool(abs(float(row[i])) <= _EPS)
    record(
        "landmark_rows_admissible",
        admissible and diag_zero,
        f"all {n} upper-bound rows >= exact, zero diagonal "
        f"(budget remaining: {lm.oracle_stats['exact_budget_remaining']})",
    )

    got = np.asarray(
        lm.pair_distances([(lm.node_at(i), lm.node_at(j)) for i, j in pairs])
    )
    want = np.array([ref[i, j] for i, j in pairs])
    record(
        "landmark_pairs_admissible",
        bool(np.all(got >= want - _EPS)),
        f"{len(pairs)} pair bounds >= exact",
    )

    limit = float(np.median(ref[ref > 0])) if np.any(ref > 0) else 1.0
    src, node, dist = lm.balls([lm.node_at(i) for i in sources], limit)
    # the dense reference's entries within the limit, in the same order
    want_src, want_node = np.nonzero(ref[sources] <= limit)
    record(
        "landmark_limited_exact",
        bool(
            np.array_equal(src, want_src)
            and np.array_equal(node, want_node)
            and np.array_equal(dist, ref[sources][want_src, want_node])
        ),
        f"balls at limit={limit:.3g} exact past the spent budget",
    )

    # -- k-neighborhood and diameter agreement across backends ---------
    probe = base.node_at(0)
    radius = max(2.0, limit / 2.0)
    reference_ball = None
    ball_ok = True
    diam_ok = True
    true_d = float(ref.max())
    with tempfile.TemporaryDirectory() as tmp:
        for name in BACKEND_NAMES:
            options = (
                {"path": os.path.join(tmp, f"{label}-ball.f64")}
                if name == "memmap"
                else {}
            )
            net = SensorNetwork(
                base.graph, normalize=False, distance_backend=name,
                backend_options=options,
            )
            ball = net.k_neighborhood(probe, radius)
            if reference_ball is None:
                reference_ball = ball
            ball_ok = ball_ok and ball == reference_ball
            lo, hi = net.diameter_bounds
            diam_ok = diam_ok and (lo <= true_d + _EPS <= hi + _EPS)
    record(
        "k_neighborhood_agreement",
        ball_ok,
        f"ball(node 0, {radius:.3g}) identical under {', '.join(BACKEND_NAMES)}",
    )
    record(
        "diameter_bracket",
        diam_ok,
        f"diameter_bounds contains D={true_d:.6g} under every backend",
    )

    # -- the overlay is identical whichever backend answers ------------
    overlays: dict[str, Overlay] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases: list[tuple[str, dict[str, object]]] = [
            ("full", {}),
            ("lazy", {}),
            ("memmap", {"path": os.path.join(tmp, f"{label}-overlay.f64")}),
            ("landmark", {"num_landmarks": num_landmarks, "exact_budget": 0}),
        ]
        for name, options in cases:
            net = SensorNetwork(
                base.graph, normalize=False, distance_backend=name,
                backend_options=options,
            )
            overlays[name] = _overlay(net, seed)
    reference = overlays["full"]
    record(
        "overlay_parity",
        all(overlay == reference for overlay in overlays.values()),
        f"levels, default parents and hops of {len(reference[0])} levels "
        f"identical under {', '.join(overlays)} (landmark budget spent)",
    )
    return checks


def run_backend_audit(
    side: int = 6,
    geometric_nodes: int = 48,
    seed: int = 1,
    num_landmarks: int = 8,
    exact_budget: int = 4,
    graphs: Sequence[str] = ("grid", "geometric"),
) -> dict[str, object]:
    """Run every backend check on small graphs; ``report["ok"]`` gates CI."""
    checks: list[dict[str, object]] = []
    if "grid" in graphs:
        checks += _audit_one_graph(
            f"grid-{side}x{side}",
            grid_network(side, side),
            seed,
            num_landmarks,
            exact_budget,
        )
    if "geometric" in graphs:
        checks += _audit_one_graph(
            f"geometric-{geometric_nodes}",
            random_geometric_network(geometric_nodes, seed=seed),
            seed,
            num_landmarks,
            exact_budget,
        )
    failed = [c for c in checks if not c["ok"]]
    return {
        "audit": "backend",
        "config": {
            "side": side,
            "geometric_nodes": geometric_nodes,
            "seed": seed,
            "num_landmarks": num_landmarks,
            "exact_budget": exact_budget,
        },
        "checks": checks,
        "failed": len(failed),
        "ok": not failed,
    }
