#!/usr/bin/env python3
"""The 100k-node exact-distance bench, as a JSON artifact.

Builds one ~100 000-node grid and runs a point-query workload against
its row store (exact single-source rows, solved on demand; past
``SensorNetwork.LAZY_THRESHOLD`` nodes it keeps
``SensorNetwork.LAZY_CACHE_ROWS`` of them), reporting build time, query
latency p50/p99 and resident memory. The store must never stack the
all-pairs matrix — at this scale that would be ~75 GB — so the script
exits non-zero if ``oracle_stats["matrix_materialized"]`` is ever true.

The query mix draws ``--queries`` pairs over ``--sources`` distinct
sources, so the row store both hits (a repeated source) and solves
(a new one).

CI uploads the output as ``BENCH_backend.json`` next to
``BENCH_serve.json`` and ``BENCH_build.json``.

Usage: python scripts/bench_backend.py [--nodes 100000] [--out BENCH_backend.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import time


def rss_mb() -> float:
    """Resident set size in MiB (VmRSS; ru_maxrss peak as fallback)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=100_000)
    parser.add_argument("--queries", type=int, default=256)
    parser.add_argument("--sources", type=int, default=96)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--out", default="BENCH_backend.json")
    args = parser.parse_args()

    import numpy as np

    from repro.graphs.generators import grid_network
    from repro.graphs.network import SensorNetwork

    side = max(2, round(math.sqrt(args.nodes)))
    base = grid_network(side, side)
    n = base.n
    rng = np.random.default_rng(args.seed)
    sources = rng.choice(n, size=min(args.sources, n), replace=False)
    pairs = [
        (
            base.node_at(int(sources[q % len(sources)])),
            base.node_at(int(rng.integers(n))),
        )
        for q in range(args.queries)
    ]

    gc.collect()
    rss0 = rss_mb()
    t0 = time.perf_counter()
    net = SensorNetwork(base.graph, normalize=False)
    build_s = time.perf_counter() - t0
    rss_built = rss_mb()

    lat: list[float] = []
    for u, v in pairs:
        t0 = time.perf_counter()
        net.distance(u, v)  # repro-lint: disable=RPL001
        lat.append(time.perf_counter() - t0)
    lat_ms = np.asarray(lat) * 1e3
    stats = net.oracle_stats
    materialized = bool(stats["matrix_materialized"])
    report = {
        "bench": "row_store_100k",
        "row_cache_capacity": stats["row_cache_capacity"],
        "nodes": n,
        "grid": [side, side],
        "queries": args.queries,
        "distinct_sources": len(sources),
        "seed": args.seed,
        "build_s": build_s,
        "query_mean_ms": float(lat_ms.mean()),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p99_ms": float(np.percentile(lat_ms, 99)),
        "query_max_ms": float(lat_ms.max()),
        "rss_before_mb": rss0,
        "rss_after_build_mb": rss_built,
        "rss_after_queries_mb": rss_mb(),
        "matrix_materialized": materialized,
        "oracle_stats": stats,
        "ok": not materialized,
    }

    text = json.dumps(report, indent=1)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    if materialized:
        raise SystemExit("the row store stacked the all-pairs matrix")


if __name__ == "__main__":
    main()
