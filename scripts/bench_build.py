#!/usr/bin/env python3
"""The hierarchy-build microbench, as a JSON artifact.

Three cases, each built ``--repeats`` times with best/mean wall time, the
level sizes and the radius-limited solves (``limited_sssp``) of one
build, and ``peak_traced_mb``: the peak of Python allocations during
one more build, untimed, under ``tracemalloc`` (the network is made
before tracing starts). Each case also records:

- ``matrix_materialized``: whether the all-pairs matrix was stacked
  after the builds. A build asks for balls alone, so it reads
  ``false`` even where every row would fit;

- ``network_best_s`` / ``network_mean_s`` / ``network_times_s``: the
  ``SensorNetwork`` construction from the caller's graph, timed
  ``--repeats`` times on its own (the build times leave it out);
- ``phases_s``: mean seconds per repeat of every ``PERF`` timer that
  ran during the timed builds — ``graphs.ingest`` (network
  construction), ``oracle.solve`` (exact rows), ``oracle.balls``
  (radius-limited balls), ``hierarchy.mis``
  and ``hierarchy.parents`` (default parents);
- ``tables_best_s`` / ``tables_mean_s`` / ``tables_times_s``: the batch
  engine's static tables (``repro.core.batch.engine_tables``, default
  ``MOTConfig``) over each repeat's hierarchy, timed on their own (the
  build times leave them out).

The cases:

- the 2048-node 64x32 grid of
  ``benchmarks/test_microbench.py::test_bench_hierarchy_construction_2048_boundary``,
  the largest network whose row store keeps every row. Its network is
  shared across repeats; a build solves no row, so every repeat solves
  its balls as the first one does. The top-level fields are this case:
  the number the tracing layer's zero-overhead-when-disabled claim is
  audited against (see docs/OBSERVABILITY.md);
- under ``grid_4096``, the 64x64 grid, the network of perfbench's
  ``open-queries-4k``. Every repeat builds a fresh network, so each
  one pays the whole build: one sparse ball per level member from
  level 1 up (level 0's pairs are read off the CSR);
- under ``grid_65536``, the 256x256 grid, built the same way: the
  scale a bring-up linear in ``n`` is measured at.

CI uploads the output as ``BENCH_build.json`` next to the serve
report (``BENCH_serve.json``), so regressions show up as artifact diffs rather than anecdotes.

Usage: python scripts/bench_build.py [--repeats 5] [--seed 123] [--out BENCH_build.json]
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from typing import Any, Callable


def _bench(make_net: Callable[[], Any], repeats: int, seed: int) -> dict[str, Any]:
    """Time ``repeats`` builds and their tables; sizes and solve count
    come from the last build."""
    from repro.core.batch import engine_tables
    from repro.core.mot import MOTConfig
    from repro.hierarchy.structure import build_hierarchy
    from repro.perf import PERF

    PERF.reset()
    times: list[float] = []
    built = []
    for _ in range(repeats):
        net = make_net()
        before = net.oracle_stats["limited_sssp"]
        t0 = time.perf_counter()
        hs = build_hierarchy(net, seed=seed)
        times.append(time.perf_counter() - t0)
        solves = net.oracle_stats["limited_sssp"] - before
        built.append(hs)
    phases = {name: stat["total_s"] / repeats for name, stat in PERF.report()["timers"].items()}
    table_times: list[float] = []
    for each in built:
        t0 = time.perf_counter()
        engine_tables(each, MOTConfig())
        table_times.append(time.perf_counter() - t0)
    del built
    # tracing slows the build, so its memory is read off a build of its own
    traced = make_net()
    tracemalloc.start()
    build_hierarchy(traced, seed=seed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": net.n,
        "row_cache_capacity": net.oracle_stats["row_cache_capacity"],
        "seed": seed,
        "levels": hs.h,
        "level_sizes": [len(hs.level_nodes(ell)) for ell in range(hs.h + 1)],
        "limited_sssp": solves,
        "repeats": repeats,
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "phases_s": phases,
        "tables_best_s": min(table_times),
        "tables_mean_s": sum(table_times) / len(table_times),
        "tables_times_s": table_times,
        "peak_traced_mb": peak / 2**20,
        "matrix_materialized": bool(net.oracle_stats["matrix_materialized"]),
    }


def _network(graph: Any, repeats: int) -> dict[str, Any]:
    """Time ``repeats`` network constructions from the caller's graph."""
    from repro.graphs.network import SensorNetwork

    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        SensorNetwork(graph, normalize=False)
        times.append(time.perf_counter() - t0)
    return {
        "network_best_s": min(times),
        "network_mean_s": sum(times) / len(times),
        "network_times_s": times,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--out", default="BENCH_build.json")
    args = parser.parse_args()

    from repro.graphs.generators import grid_network
    from repro.graphs.network import SensorNetwork
    from repro.obs.trace import TRACER

    net = grid_network(64, 32)
    full = _bench(lambda: net, args.repeats, args.seed)
    full.update(_network(net.graph, args.repeats))
    grid_cases = {}
    for side in (64, 256):
        graph = grid_network(side, side).graph
        case = _bench(
            lambda graph=graph: SensorNetwork(graph, normalize=False),
            args.repeats,
            args.seed,
        )
        case.update(_network(graph, args.repeats))
        nodes = side * side
        grid_cases[f"grid_{nodes}"] = {
            "bench": f"hierarchy_build_{nodes}",
            "grid": [side, side],
            **case,
        }
    report = {
        "bench": "hierarchy_build_2048",
        "nodes": net.n,
        "grid": [64, 32],
        "seed": args.seed,
        "levels": full["levels"],
        "tracer_enabled": TRACER.enabled,  # must be false: untraced baseline
        "repeats": args.repeats,
        "best_s": full["best_s"],
        "mean_s": full["mean_s"],
        "times_s": full["times_s"],
        "level_sizes": full["level_sizes"],
        "limited_sssp": full["limited_sssp"],
        "phases_s": full["phases_s"],
        "peak_traced_mb": full["peak_traced_mb"],
        "matrix_materialized": full["matrix_materialized"],
        "network_best_s": full["network_best_s"],
        "network_mean_s": full["network_mean_s"],
        "network_times_s": full["network_times_s"],
        "tables_best_s": full["tables_best_s"],
        "tables_mean_s": full["tables_mean_s"],
        "tables_times_s": full["tables_times_s"],
        **grid_cases,
    }
    text = json.dumps(report, indent=1)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
