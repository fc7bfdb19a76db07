#!/usr/bin/env python3
"""The hierarchy-build microbench, as a JSON artifact.

Two cases, each built ``--repeats`` times with best/mean wall time, the
level sizes and the radius-limited solves (``limited_sssp``) of one
build, and ``peak_traced_mb``: the peak of Python allocations during
one more build, untimed, under ``tracemalloc`` (the network is made
before tracing starts). Each case also records:

- ``network_best_s`` / ``network_mean_s`` / ``network_times_s``: the
  ``SensorNetwork`` construction from the caller's graph, timed
  ``--repeats`` times on its own (the build times leave it out);
- ``phases_s``: mean seconds per repeat of every ``PERF`` timer that
  ran during the timed repeats — ``graphs.ingest`` (network
  construction), ``oracle.solve`` (exact rows), ``oracle.balls``
  (radius-limited balls), ``oracle.full_matrix``, ``hierarchy.mis``
  and ``hierarchy.parents`` (default parents).

The cases:

- the 2048-node 64x32 grid of
  ``benchmarks/test_microbench.py::test_bench_hierarchy_construction_2048_boundary``,
  on the full matrix (``auto`` at 2048 nodes). Its network is shared
  across repeats, so after the first one a build reads the cached
  matrix. The top-level fields are this case: the number the tracing
  layer's zero-overhead-when-disabled claim is audited against (see
  docs/OBSERVABILITY.md);
- under ``lazy_4096``, the 64x64 grid on the lazy row oracle, the
  network of perfbench's ``open-queries-4k``. Every repeat builds a
  fresh network, so each one pays the whole build: the diameter sweep
  and one sparse ball per level member.

CI uploads the output as ``BENCH_build.json`` next to the serve-bench
report, so regressions show up as artifact diffs rather than anecdotes.

Usage: python scripts/bench_build.py [--repeats 5] [--seed 123] [--out BENCH_build.json]
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from typing import Any, Callable


def _bench(make_net: Callable[[], Any], repeats: int, seed: int) -> dict[str, Any]:
    """Time ``repeats`` builds; sizes and solve count come from the last one."""
    from repro.hierarchy.structure import build_hierarchy
    from repro.perf import PERF

    PERF.reset()
    times: list[float] = []
    for _ in range(repeats):
        net = make_net()
        before = net.oracle_stats["limited_sssp"]
        t0 = time.perf_counter()
        hs = build_hierarchy(net, seed=seed)
        times.append(time.perf_counter() - t0)
        solves = net.oracle_stats["limited_sssp"] - before
    phases = {name: stat["total_s"] / repeats for name, stat in PERF.report()["timers"].items()}
    # tracing slows the build, so its memory is read off a build of its own
    traced = make_net()
    tracemalloc.start()
    build_hierarchy(traced, seed=seed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": net.n,
        "distance_backend": net.distance_mode,
        "seed": seed,
        "levels": hs.h,
        "level_sizes": [len(hs.level_nodes(ell)) for ell in range(hs.h + 1)],
        "limited_sssp": solves,
        "repeats": repeats,
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "times_s": times,
        "phases_s": phases,
        "peak_traced_mb": peak / 2**20,
    }


def _network(graph: Any, backend: str, repeats: int) -> dict[str, Any]:
    """Time ``repeats`` network constructions from the caller's graph."""
    from repro.graphs.network import SensorNetwork

    times: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        SensorNetwork(graph, normalize=False, distance_backend=backend)
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
    full.update(_network(net.graph, "full", args.repeats))
    lazy_graph = grid_network(64, 64).graph
    lazy = _bench(
        lambda: SensorNetwork(lazy_graph, normalize=False, distance_backend="lazy"),
        args.repeats,
        args.seed,
    )
    lazy.update(_network(lazy_graph, "lazy", args.repeats))
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
        "network_best_s": full["network_best_s"],
        "network_mean_s": full["network_mean_s"],
        "network_times_s": full["network_times_s"],
        "lazy_4096": {"bench": "hierarchy_build_4096_lazy", "grid": [64, 64], **lazy},
    }
    text = json.dumps(report, indent=1)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
