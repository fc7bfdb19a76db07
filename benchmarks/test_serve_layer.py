"""Service-layer throughput: one measured serve run as a benchmark.

What the wall time buys: the whole acceptance-scale run — 256-node
grid, 64 objects, open-loop replay through 4 shards, consistency audit
included — in one measured :func:`~repro.serve.bench.drive_workload`
call. The extra_info carries the *virtual* side of the story (achieved
throughput on the service clock, rejection counts, p99), so a
wall-time regression can be told apart from a queueing-behaviour
regression: the former moves the benchmark, the latter moves the
attached numbers.
"""

from __future__ import annotations

from repro.graphs.generators import grid_network
from repro.serve import ServiceConfig, drive_workload
from repro.sim.workload import make_workload

from .conftest import run_once

NET = grid_network(16, 16)
WORKLOAD = make_workload(NET, num_objects=64, moves_per_object=20, num_queries=200, seed=7)

ACCEPTANCE = ServiceConfig(shards=4, batch_size=16)
OVERLOADED = ServiceConfig(
    shards=2, queue_capacity=8, batch_size=8, service_time_base_s=2e-3
)


def test_bench_serve_acceptance_run(benchmark):
    report = run_once(benchmark, drive_workload, NET, WORKLOAD, ACCEPTANCE, rate=500.0, seed=7)
    benchmark.extra_info["throughput_ops_s"] = report["loadgen"]["throughput_ops_s"]
    benchmark.extra_info["p99_ms"] = report["latency_ms"]["all"]["p99_ms"]
    assert report["audit"]["ok"]
    assert report["loadgen"]["rejected"]["total"] == 0


def test_bench_serve_overloaded_run(benchmark):
    report = run_once(benchmark, drive_workload, NET, WORKLOAD, OVERLOADED, rate=4000.0, seed=7)
    benchmark.extra_info["rejected_queue"] = report["loadgen"]["rejected"]["queue"]
    benchmark.extra_info["throughput_ops_s"] = report["loadgen"]["throughput_ops_s"]
    assert report["audit"]["ok"]
    assert report["loadgen"]["rejected"]["queue"] > 0
