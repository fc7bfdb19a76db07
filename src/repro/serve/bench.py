"""`serve-bench` — one measured service run with a consistency audit.

The driver behind ``python -m repro serve-bench``: build a grid
network, generate a §8-shaped workload, interleave it into a seeded
open-loop arrival trace, replay it against a sharded
:class:`TrackingService`, and emit a JSON-ready report:

- latency p50/p95/p99 per operation kind and overall,
- achieved throughput vs offered rate,
- admission-control outcomes (rate/queue rejections with counts),
- batching/coalescing behaviour (batch-size histogram, coalesced
  queries),
- the **consistency audit** — every answer replayed against a
  sequential reference MOT (:mod:`repro.serve.audit`); the CLI exit
  code is gated on ``audit.ok``,
- observability artifacts: the per-run metrics rendered in Prometheus
  text format, the periodic counters snapshot series, and — with
  ``trace_path`` set — a JSONL span trace of every request
  (virtual-clock-stamped, so two same-seed traces are byte-identical;
  ``python -m repro trace diff`` verifies).

Under the default virtual clock the entire report is deterministic:
two runs with the same configuration are byte-identical (the property
``tests/serve/test_loadgen.py`` locks in).

With ``workers > 0`` the same bench drives forked shard processes on
the wall clock instead: the report additionally carries ``health``
(pids, modes) and ``per_shard`` SLIs (p50/p99 latency, drop ratio,
sustained ops/s per shard), and the audit still gates the exit code —
byte-identity is traded for real parallelism.
"""

from __future__ import annotations

import asyncio
import math
from contextlib import ExitStack
from dataclasses import asdict, dataclass

from repro.graphs.generators import grid_network
from repro.obs.export import JsonlTraceWriter
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import tracing
from repro.perf import TimerStat
from repro.serve.audit import audit_service
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.loadgen import LoadgenResult, arrival_trace, replay, trace_digest
from repro.serve.service import ServiceConfig, TrackingService
from repro.serve.shard import shard_sli
from repro.sim.workload import make_workload

__all__ = ["ServeBenchConfig", "drive_workload", "run_serve_bench"]


@dataclass(frozen=True)
class ServeBenchConfig:
    """Parameters of one ``serve-bench`` run."""

    nodes: int = 256  # rounded to the nearest square grid
    num_objects: int = 64
    moves_per_object: int = 20
    num_queries: int = 200
    shards: int = 4
    #: 0 = in-process asyncio shards; N > 0 forks N worker processes
    #: (wall clock required — see repro.serve.worker)
    workers: int = 0
    rate: float = 500.0  # offered load, ops/s
    seed: int = 7
    batch_size: int = 16
    queue_capacity: int = 64
    rate_limit: float | None = None  # admission token-bucket (None = off)
    burst: float = 16.0
    service_time_base_s: float = 1e-3
    clock: str = "virtual"  # "virtual" (deterministic) or "wall"
    mobility: str = "random_walk"
    metrics_snapshot_interval_s: float | None = 0.5  # service-clock seconds
    trace_path: str | None = None  # JSONL span trace (None = tracing off)

    def __post_init__(self) -> None:
        if self.nodes < 4:
            raise ValueError("nodes must be >= 4")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.clock not in ("virtual", "wall"):
            raise ValueError('clock must be "virtual" or "wall"')
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process shards)")
        if self.workers > 0 and self.clock != "wall":
            raise ValueError('workers > 0 requires clock="wall"')

    @property
    def grid_side(self) -> int:
        """Side of the (nearest-square) grid realising ``nodes``."""
        return max(2, round(math.sqrt(self.nodes)))

    def service_config(self) -> ServiceConfig:
        """The :class:`ServiceConfig` this bench drives."""
        return ServiceConfig(
            shards=self.shards,
            workers=self.workers,
            batch_size=self.batch_size,
            queue_capacity=self.queue_capacity,
            rate_limit=self.rate_limit,
            burst=self.burst,
            service_time_base_s=self.service_time_base_s,
            metrics_snapshot_interval_s=self.metrics_snapshot_interval_s,
        )


def _latency_ms(stat: TimerStat) -> dict[str, float]:
    d = stat.as_dict()
    return {
        "count": d["count"],
        "mean_ms": d["mean_s"] * 1e3,
        "max_ms": d["max_s"] * 1e3,
        "p50_ms": d["p50_s"] * 1e3,
        "p95_ms": d["p95_s"] * 1e3,
        "p99_ms": d["p99_s"] * 1e3,
    }


async def _drive(
    service: TrackingService, workload, trace
) -> tuple[LoadgenResult, dict]:
    await service.start()
    # probe while workers are alive: for process shards this is a real
    # health-frame round trip, not just a liveness flag on the handle
    health = await service.healthcheck()
    result = await replay(service, workload, trace)
    return result, health


def run_serve_bench(cfg: ServeBenchConfig | None = None) -> dict:
    """Run one bench and return the JSON-ready report (see module docs)."""
    cfg = cfg or ServeBenchConfig()
    side = cfg.grid_side
    net = grid_network(side, side)
    workload = make_workload(
        net,
        num_objects=cfg.num_objects,
        moves_per_object=cfg.moves_per_object,
        num_queries=cfg.num_queries,
        seed=cfg.seed,
        mobility=cfg.mobility,  # type: ignore[arg-type]
    )
    return drive_workload(net, workload, cfg)


def drive_workload(net, workload, cfg: ServeBenchConfig) -> dict:
    """Drive one prebuilt workload through a service; return the report.

    The measurement half of :func:`run_serve_bench`, factored out so
    other harnesses (``repro eval``'s scenario runs) can replay *their*
    workloads through the identical load-generation, clocking, tracing
    and audit plumbing. ``cfg`` supplies every service knob; its
    ``nodes``/``num_objects``/... fields are reporting metadata here —
    the ``net``/``workload`` arguments are what actually runs.
    """
    trace = arrival_trace(workload, cfg.rate, seed=cfg.seed)
    clock = VirtualClock() if cfg.clock == "virtual" else WallClock()
    service = TrackingService(
        net, cfg.service_config(), seed=cfg.seed, clock=clock
    )
    trace_info = None
    with ExitStack() as stack:
        if cfg.trace_path is not None:
            writer = stack.enter_context(JsonlTraceWriter(cfg.trace_path))
            # spans are stamped with the *service* clock: under the
            # default virtual clock two same-seed traces are
            # byte-identical; under a wall clock timestamps are real
            # (diff those with --ignore-timing)
            stack.enter_context(
                tracing(sink=writer, time_source=lambda: service.clock.now)
            )
        result, health = asyncio.run(_drive(service, workload, trace))
        if cfg.trace_path is not None:
            trace_info = {"path": cfg.trace_path, "events": writer.events_written}

    overall = TimerStat()
    for resp in result.responses:
        overall.add(resp.latency_s)
    audit = audit_service(service)
    ledger = service.merged_ledger()
    metrics = service.metrics

    return {
        "config": asdict(cfg),
        "network": {
            "nodes": net.n,
            "grid_side": cfg.grid_side,
        },
        "loadgen": {
            "offered_rate_ops_s": cfg.rate,
            "trace_digest": trace_digest(trace),
            **result.as_dict(),
        },
        "latency_ms": {
            "all": _latency_ms(overall),
            **{
                kind: _latency_ms(stat)
                for kind, stat in sorted(metrics.latency.items())
            },
        },
        "achieved_throughput_ops_s": result.throughput_ops_s,
        "per_shard": [
            shard_sli(shard, result.makespan_s) for shard in service.shards
        ],
        "health": health,
        "service": metrics.as_dict(),
        "prometheus": render_prometheus(metrics.perf_view()),
        "snapshots": list(service.snapshots),
        "trace": trace_info,
        "ledger": {
            "maintenance_cost_ratio": ledger.maintenance_cost_ratio,
            "query_cost_ratio": ledger.query_cost_ratio,
            "maintenance_ops": ledger.maintenance_ops,
            "noop_moves": ledger.noop_moves,
            "query_ops": ledger.query_ops,
        },
        "audit": audit.as_dict(),
    }
