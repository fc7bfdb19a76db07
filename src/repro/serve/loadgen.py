"""Load generator: replay a workload trace at a target offered rate.

The generator is **open-loop**: arrivals follow a seeded Poisson
process (exponential inter-arrival times at ``rate`` ops/s) regardless
of how the service is keeping up — the standard way to measure a
service's latency/throughput behaviour under a fixed offered load, and
the regime where backpressure actually matters (a closed loop would
self-throttle and never overload anything).

Two artifacts matter for reproducibility:

- :func:`arrival_trace` is pure: the same workload, rate and seed
  produce the bit-identical list of (time, operation) arrivals —
  :func:`trace_digest` hashes it for cheap equality checks.
- :func:`replay` drives a :class:`TrackingService` from a trace. Under
  a :class:`~repro.serve.clock.VirtualClock` the generator *is* the
  clock: it advances virtual time to each arrival and yields to let
  shard workers react, so the whole run — including every admission
  decision — is deterministic. Under a
  :class:`~repro.serve.clock.WallClock` the trace is a schedule
  anchored when the timed loop starts: the generator sleeps until the
  next arrival is due, submits every arrival that is due before it
  yields, and a response's latency runs from its arrival's due time,
  so a stall also delays the arrivals queued behind it.

Publishes are not part of the offered load: every object is registered
in a warm-up phase at time zero before the first timed arrival.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass, field

from repro.serve.protocol import (
    MoveRequest,
    Overloaded,
    PublishRequest,
    QueryRequest,
)
from repro.serve.service import TrackingService
from repro.sim.workload import MoveOp, QueryOp, Workload

__all__ = ["Arrival", "LoadgenResult", "arrival_trace", "trace_digest", "replay"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request of the open-loop arrival process."""

    t: float
    op: MoveOp | QueryOp


def arrival_trace(
    workload: Workload, rate: float, seed: int = 0, start: float = 0.0
) -> list[Arrival]:
    """The deterministic arrival schedule of one load-generator run.

    Operations come from :meth:`Workload.op_stream(seed)
    <repro.sim.workload.Workload.op_stream>`; inter-arrival gaps are
    exponential with mean ``1/rate`` from a dedicated
    ``random.Random`` stream, so the trace is a seeded Poisson process
    over the interleaved workload.
    """
    if rate <= 0:
        raise ValueError("rate must be positive (ops per second)")
    rng = random.Random((seed << 1) ^ 0xA221)
    t = start
    out: list[Arrival] = []
    for op in workload.op_stream(seed):
        t += rng.expovariate(rate)
        out.append(Arrival(t, op))
    return out


def trace_digest(trace: list[Arrival]) -> str:
    """SHA-256 over the trace's exact (time, op) content."""
    h = hashlib.sha256()
    for a in trace:
        h.update(repr((a.t.hex(), a.op)).encode("utf-8"))
    return h.hexdigest()


@dataclass
class LoadgenResult:
    """What one :func:`replay` run submitted and what came back."""

    offered: int = 0
    admitted: int = 0
    rejected_rate: int = 0
    rejected_queue: int = 0
    failed: int = 0
    completed: int = 0
    #: bring-up publishes, tracked apart from the timed run: they are
    #: not offered load, so they must not leak into completed counts,
    #: latency percentiles or throughput (steady-state SLIs)
    warmup_published: int = 0
    warmup_completed: int = 0
    first_arrival_t: float = 0.0
    last_completion_t: float = 0.0
    responses: list = field(default_factory=list, repr=False)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion, service-clock seconds."""
        return max(0.0, self.last_completion_t - self.first_arrival_t)

    @property
    def throughput_ops_s(self) -> float:
        """Completed operations per service-clock second."""
        return self.completed / self.makespan_s if self.makespan_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary (without the raw responses)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": {
                "rate": self.rejected_rate,
                "queue": self.rejected_queue,
                "total": self.rejected_rate + self.rejected_queue,
            },
            "failed": self.failed,
            "completed": self.completed,
            "warmup": {
                "published": self.warmup_published,
                "completed": self.warmup_completed,
            },
            "makespan_s": self.makespan_s,
            "throughput_ops_s": self.throughput_ops_s,
        }


async def replay(
    service: TrackingService, workload: Workload, trace: list[Arrival]
) -> LoadgenResult:
    """Warm-up publishes, then drive the trace open-loop; drain at the end.

    The caller owns the service lifecycle up to ``start()``; ``replay``
    performs the graceful drain (``stop()``) itself so that every
    admitted operation's completion is in the result.
    """
    result = LoadgenResult()
    # -- warm-up: register every object at time zero, admission-exempt
    # (bring-up is not offered load; see TrackingService.submit_warmup).
    # Warm-up futures are settled apart from the timed ops so bring-up
    # never inflates completed counts, latency stats or throughput.
    publish_futs = [
        service.submit_warmup(PublishRequest(obj, start))
        for obj, start in workload.starts.items()
    ]
    result.warmup_published = len(publish_futs)
    # -- open loop ----------------------------------------------------
    futures: list[asyncio.Future] = []
    due: list[float] = []  # wall clock: each admitted op's due time
    clock = service.clock
    if clock.virtual:
        if trace:
            result.first_arrival_t = trace[0].t
        for arrival in trace:
            clock.advance(arrival.t)
            # let woken shard workers drain what the clock just made due
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            # the arrival loop drives the clock, so it is also the
            # snapshot poller (no-op unless the service configures an
            # interval); polling after the drain keeps counters current
            service.maybe_snapshot()
            _offer(service, arrival, result, futures)
    else:
        due = await _paced(service, trace, result, futures)
    # -- graceful drain ------------------------------------------------
    await service.stop()
    for item in await asyncio.gather(*publish_futs, return_exceptions=True):
        if isinstance(item, BaseException):
            result.failed += 1
        else:
            result.warmup_completed += 1
    settled = await asyncio.gather(*futures, return_exceptions=True)
    for k, item in enumerate(settled):
        if isinstance(item, BaseException):
            result.failed += 1
        else:
            if not clock.virtual:
                item = item._replace(arrival_t=due[k])  # latency from the due time
            result.completed += 1
            result.responses.append(item)
            if item.completion_t > result.last_completion_t:
                result.last_completion_t = item.completion_t
    return result


def _offer(
    service: TrackingService,
    arrival: Arrival,
    result: LoadgenResult,
    futures: list[asyncio.Future],
) -> bool:
    """Submit one arrival; counts it and returns whether it was admitted."""
    op = arrival.op
    req = (
        MoveRequest(op.obj, op.new)
        if isinstance(op, MoveOp)
        else QueryRequest(op.obj, op.source)
    )
    result.offered += 1
    try:
        futures.append(service.submit_nowait(req))
    except Overloaded as exc:
        if exc.reason == "rate":
            result.rejected_rate += 1
        else:
            result.rejected_queue += 1
        return False
    result.admitted += 1
    return True


async def _paced(
    service: TrackingService,
    trace: list[Arrival],
    result: LoadgenResult,
    futures: list[asyncio.Future],
) -> list[float]:
    """The wall-clock open loop: submit each arrival once it is due.

    The schedule is anchored at the clock reading when the loop starts.
    Each wake-up submits every arrival already due, then yields; the
    loop sleeps only while the next arrival lies in the future. Returns
    the due time of each admitted op, in ``futures`` order.
    """
    clock = service.clock
    anchor = clock.now
    if trace:
        result.first_arrival_t = anchor + trace[0].t
    due: list[float] = []
    i = 0
    while i < len(trace):
        wait = anchor + trace[i].t - clock.now
        if wait > 0:
            await asyncio.sleep(wait)
        now = clock.now
        while i < len(trace) and anchor + trace[i].t <= now:
            if _offer(service, trace[i], result, futures):
                due.append(anchor + trace[i].t)
            i += 1
        service.maybe_snapshot()
        await asyncio.sleep(0)  # let the shards drain what was submitted
    return due
