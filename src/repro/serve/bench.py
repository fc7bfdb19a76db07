"""One measured service run with a consistency audit.

:func:`drive_workload` is the measurement behind ``python -m repro
eval``'s serve section: it interleaves a prebuilt workload into a
seeded open-loop arrival trace, replays it against a sharded
:class:`TrackingService` built from the caller's
:class:`ServiceConfig`, and returns a JSON-ready report:

- ``loadgen`` — offered, admitted, rejected (rate/queue) and completed
  counts, the arrival trace's digest, makespan and achieved
  throughput; wall-clock runs add ``scheduled_latency_ms``, each op
  timed from its scheduled arrival (due) to its completion,
- ``latency_ms`` — percentiles from submit to completion, over all ops
  (``all``) and per operation kind,
- ``per_shard`` SLIs, the service's own ``service`` metrics and the
  merged cost ``ledger``,
- ``audit`` — every answer replayed against a sequential reference MOT
  (:mod:`repro.serve.audit`).

On the virtual clock the report is deterministic: two runs with the
same arguments are byte-identical (``tests/serve/test_loadgen.py``
pins it), and due = submit, so ``scheduled_latency_ms`` would repeat
``latency_ms.all``. With a ``trace`` sink every request's
``serve.<kind>`` span is recorded, stamped with the service clock, so
two same-seed virtual-clock traces are byte-identical too (``python -m
repro trace diff`` verifies). The service's metrics in Prometheus text
are ``render_prometheus(service.metrics.perf_view())``.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext

from repro.graphs.network import SensorNetwork
from repro.obs.trace import Sink, tracing
from repro.perf import TimerStat
from repro.serve.audit import audit_service
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.loadgen import Arrival, LoadgenResult, arrival_trace, replay, trace_digest
from repro.serve.service import ServiceConfig, TrackingService
from repro.serve.shard import shard_sli
from repro.sim.workload import Workload

__all__ = ["drive_workload"]

_CLOCKS = {"virtual": VirtualClock, "wall": WallClock}


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
    service: TrackingService, workload: Workload, arrivals: list[Arrival]
) -> LoadgenResult:
    await service.start()
    return await replay(service, workload, arrivals)


def drive_workload(
    net: SensorNetwork,
    workload: Workload,
    service: ServiceConfig,
    *,
    rate: float,
    seed: int,
    clock: str = "virtual",
    trace: Sink | None = None,
) -> dict:
    """Replay ``workload`` at ``rate`` ops/s through a fresh service.

    ``seed`` seeds the arrival process and the service's hierarchy;
    ``clock`` is ``"virtual"`` (deterministic) or ``"wall"`` (real
    latencies; required when ``service.workers > 0``); ``trace``, a
    span sink such as :class:`repro.obs.export.JsonlTraceWriter`,
    records the run's serve spans. Returns the report described in the
    module docstring.
    """
    if clock not in _CLOCKS:
        raise ValueError(f'clock must be "virtual" or "wall", got {clock!r}')
    arrivals = arrival_trace(workload, rate, seed=seed)
    svc = TrackingService(net, service, seed=seed, clock=_CLOCKS[clock]())
    # spans are stamped with the *service* clock: under the virtual
    # clock two same-seed traces are byte-identical; under a wall clock
    # timestamps are real (diff those with --ignore-timing)
    with tracing(sink=trace, time_source=lambda: svc.clock.now) if trace is not None else nullcontext():
        result = asyncio.run(_drive(svc, workload, arrivals))

    audit = audit_service(svc)
    ledger = svc.merged_ledger()
    metrics = svc.metrics
    loadgen = {
        "offered_rate_ops_s": rate,
        "trace_digest": trace_digest(arrivals),
        **result.as_dict(),
    }
    if not svc.clock.virtual:
        scheduled = TimerStat()
        scheduled.add_many([r.completion_t - due for r, due in zip(result.responses, result.due)])
        loadgen["scheduled_latency_ms"] = _latency_ms(scheduled)
    overall = TimerStat()
    overall.add_many([r.latency_s for r in result.responses])
    return {
        "loadgen": loadgen,
        "latency_ms": {
            "all": _latency_ms(overall),
            **{
                kind: _latency_ms(stat)
                for kind, stat in sorted(metrics.latency.items())
            },
        },
        "per_shard": [shard_sli(shard, result.makespan_s) for shard in svc.shards],
        "service": metrics.as_dict(),
        "ledger": {
            "maintenance_cost_ratio": ledger.maintenance_cost_ratio,
            "query_cost_ratio": ledger.query_cost_ratio,
            "maintenance_ops": ledger.maintenance_ops,
            "noop_moves": ledger.noop_moves,
            "query_ops": ledger.query_ops,
        },
        "audit": audit.as_dict(),
    }
