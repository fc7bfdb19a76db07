"""One benchmark pass: bring the service up, drive a loop, check, tear down.

Everything runs on one asyncio loop in this process; the service's worker
processes, when a workload has them, are forked by the service itself.
The client keeps per-request timestamps and answers in arrays allocated
before the window opens, so it allocates next to nothing while the
service runs under the same interpreter and garbage collector.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from repro.graphs.network import SensorNetwork
from repro.serve.protocol import MoveRequest, Overloaded, PublishRequest, QueryRequest
from repro.serve.service import ServiceConfig, TrackingService

from check import (
    ERROR, NOT_SENT, OK, PENDING, REFUSED, Check, check_answers, closed_window, cost_ratios,
)
from inputs import MOVE, Inputs, grid_graph, object_names
from spans import SpanLog
from workloads import Workload

__all__ = ["SETUPS", "PassResult", "run_pass"]

#: bring-ups per pass; ``setup_s`` is their median, the first one serves the window
SETUPS = 3
#: open loop: the schedule starts this long after the generator does
OPEN_LEAD_S = 0.05
#: the service's own seed (its overlay) is the same in every run: ``--seed``
#: varies only the inputs, so runs differ by workload draw, not by overlay
SERVICE_SEED = 0


@dataclass
class PassResult:
    """What one pass measured (per-layer inputs are filled on traced passes)."""

    check: Check
    digest: str
    setup_s: list[float]
    phases: dict[str, list[float]]
    throughput_ops_s: float
    window_s: float
    latency_ms: np.ndarray
    peak_rss_mb: float
    maintenance_cost_ratio: float
    query_cost_ratio: float
    cost_ops: int
    #: traced passes: measurement window, ops, CPU seconds and counter deltas
    layer_window: tuple[float, float] = (0.0, 0.0)
    layer_ops: int = 0
    cpu_s: float = 0.0
    batches: tuple[float, float] = (0.0, 0.0)
    oracle: dict[str, float] = field(default_factory=dict)
    late_ms: np.ndarray | None = None


class Recorder:
    """Preallocated per-op result arrays and the submit path."""

    def __init__(self, service: TrackingService, inputs: Inputs, names: list[str]) -> None:
        n = len(inputs)
        self.service = service
        self.kind = inputs.kind
        self.obj = inputs.obj
        self.node = inputs.node
        self.names = names
        # zero-filled pages become resident only as requests reach them, so the
        # peak RSS read after a fixed op count does not depend on the stream length
        self.status = np.zeros(n, dtype=np.int8)  # NOT_SENT
        self.submit_t = np.zeros(n)
        self.done_t = np.zeros(n)
        self.proxy = np.zeros(n, dtype=np.int32)
        self.cost = np.zeros(n)

    def submit(self, i: int) -> asyncio.Future | None:
        name = self.names[self.obj[i]]
        node = int(self.node[i])
        req = MoveRequest(name, node) if self.kind[i] == MOVE else QueryRequest(name, node)
        self.submit_t[i] = time.perf_counter()
        try:
            fut = self.service.submit_nowait(req)
        except Overloaded:
            self.status[i] = REFUSED
            return None
        self.status[i] = PENDING
        return fut

    def settle(self, i: int, fut: asyncio.Future) -> None:
        self.done_t[i] = time.perf_counter()
        if fut.exception() is not None:
            self.status[i] = ERROR
            return
        resp = fut.result()
        self.proxy[i] = resp.proxy
        self.cost[i] = resp.cost
        self.status[i] = OK


class _Client:
    """One outstanding request slot; its bound callback is made once."""

    __slots__ = ("owner", "i", "on_done")

    def __init__(self, owner: "_Loop") -> None:
        self.owner = owner
        self.i = -1
        self.on_done = self._on_done

    def _on_done(self, fut: asyncio.Future) -> None:
        self.owner.completed(self, fut)


class _Loop:
    """Shared plumbing of the closed and open loops."""

    def __init__(self, rec: Recorder, log: SpanLog | None) -> None:
        self.rec = rec
        self.n = len(rec.status)
        self.outstanding = 0
        self.finished: asyncio.Future = asyncio.get_running_loop().create_future()
        self.log = log
        self.client_span = log.intern("loadgen.client") if log is not None else 0

    def launch(self, client: _Client, i: int) -> bool:
        fut = self.rec.submit(i)
        if fut is None:
            return False
        client.i = i
        self.outstanding += 1
        fut.add_done_callback(client.on_done)
        return True

    def completed(self, client: _Client, fut: asyncio.Future) -> None:
        raise NotImplementedError


class ClosedLoop(_Loop):
    """C clients pulling the next op of one shared stream on each completion."""

    def __init__(self, rec: Recorder, log: SpanLog | None, concurrency: int,
                 seconds: float, cost_ops: int) -> None:
        super().__init__(rec, log)
        self.concurrency = concurrency
        self.seconds = seconds
        self.cost_ops = cost_ops
        self.next = 0
        self.done_count = 0
        self.deadline = math.inf
        #: peak RSS (MB) once ``cost_ops`` requests have completed: a fixed op
        #: count, so the service's per-op memory shows whatever the speed
        self.prefix_rss_mb = 0.0

    def start(self) -> None:
        for _ in range(self.concurrency):
            self._next_op(_Client(self))
        self._maybe_finish()

    def _next_op(self, client: _Client) -> None:
        while self.next < self.n:
            i = self.next
            self.next += 1
            if self.launch(client, i):
                return

    def completed(self, client: _Client, fut: asyncio.Future) -> None:
        span = self.log.open(self.client_span) if self.log is not None else -1
        self.rec.settle(client.i, fut)
        self.outstanding -= 1
        self.done_count += 1
        now = time.perf_counter()
        if self.done_count == self.concurrency:
            self.deadline = now + self.seconds
        if self.done_count == self.cost_ops:
            self.prefix_rss_mb = _peak_rss_mb()
        if self.next < self.cost_ops or now < self.deadline:
            self._next_op(client)
        if self.log is not None:
            self.log.close(span)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.outstanding == 0 and not self.finished.done():
            self.finished.set_result(None)


class OpenLoop(_Loop):
    """Poisson arrivals on a fixed schedule, regardless of completions."""

    def __init__(self, rec: Recorder, log: SpanLog | None, due: np.ndarray) -> None:
        super().__init__(rec, log)
        self.due = due
        self.pool: list[_Client] = []
        self.gen_span = log.intern("loadgen.generator") if log is not None else 0
        self.t0 = 0.0
        self.generated = False

    async def run(self) -> None:
        log = self.log
        self.t0 = time.perf_counter() + OPEN_LEAD_S
        due = (self.due + self.t0).tolist()
        i, n = 0, self.n
        while i < n:
            now = time.perf_counter()
            if due[i] > now:
                await asyncio.sleep(due[i] - now)
                continue
            span = log.open(self.gen_span) if log is not None else -1
            while i < n and due[i] <= now:
                client = self.pool.pop() if self.pool else _Client(self)
                if not self.launch(client, i):
                    self.pool.append(client)
                i += 1
            if log is not None:
                log.close(span)
        self.generated = True
        if self.outstanding == 0:
            self.finished.set_result(None)
        await self.finished

    def completed(self, client: _Client, fut: asyncio.Future) -> None:
        span = self.log.open(self.client_span) if self.log is not None else -1
        self.rec.settle(client.i, fut)
        self.outstanding -= 1
        self.pool.append(client)
        if self.log is not None:
            self.log.close(span)
        if self.generated and self.outstanding == 0 and not self.finished.done():
            self.finished.set_result(None)


async def _bring_up(w: Workload, graph, inputs: Inputs, names: list[str],
                    queue_capacity: int) -> tuple[TrackingService, dict[str, float], int]:
    """Network → service → start + healthcheck → catalogue published."""
    t0 = time.perf_counter()
    net = SensorNetwork(graph, normalize=False)
    t1 = time.perf_counter()
    service = TrackingService(net, ServiceConfig(workers=w.workers, queue_capacity=queue_capacity),
                              seed=SERVICE_SEED)
    t2 = time.perf_counter()
    await service.start()
    health = await service.healthcheck()
    t3 = time.perf_counter()
    futs = [
        service.submit_warmup(PublishRequest(name, node))
        for name, node in zip(names, inputs.start.tolist(), strict=True)
    ]
    acks = await asyncio.gather(*futs, return_exceptions=True)
    t4 = time.perf_counter()
    bad = sum(
        1 for ack, node in zip(acks, inputs.start.tolist(), strict=True)
        if isinstance(ack, BaseException) or ack.proxy != node
    )
    if not health["ok"]:
        bad += 1
    phases = {"network_s": t1 - t0, "service_init_s": t2 - t1, "start_s": t3 - t2, "publish_s": t4 - t3}
    return service, phases, bad


def _peak_rss_mb() -> float:
    """This process's peak resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_hwm_mb(health: dict) -> float:
    """Σ VmHWM of the worker processes the healthcheck reports."""
    total_kb = 0
    for shard in health["shards"]:
        pid = shard.get("pid")
        if pid is None:
            continue
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


async def _run(w: Workload, inputs: Inputs, seconds: float,
               log: SpanLog | None, after_stop: Callable[[TrackingService], None] | None) -> PassResult:
    names = object_names(w.objects)
    graph = grid_graph(w.side)
    queue_capacity = w.concurrency if w.loop == "closed" else len(inputs) + 1
    cost_ops = w.cost_ops(seconds, len(inputs))
    # The timed service is this process's first bring-up, so the peak RSS read
    # at the end of the window holds one service, as a deployment would; the
    # further bring-ups for the set-up median come after the window.
    service, first_phases, setup_failures = await _bring_up(w, graph, inputs, names, queue_capacity)
    rec = Recorder(service, inputs, names)
    gc.collect()
    net = service.net
    oracle0 = dict(net.oracle_stats)
    batch0 = (service.metrics.batch_size.count, service.metrics.batch_size.total_s)
    cpu0 = time.process_time()
    t_begin = time.perf_counter()
    if w.loop == "closed":
        loop: _Loop = ClosedLoop(rec, log, w.concurrency, seconds, cost_ops)
        loop.start()
        await loop.finished
    else:
        assert inputs.due is not None
        loop = OpenLoop(rec, log, inputs.due)
        await loop.run()
    t_end = time.perf_counter()
    cpu1 = time.process_time()
    batch1 = (service.metrics.batch_size.count, service.metrics.batch_size.total_s)
    oracle1 = dict(net.oracle_stats)
    health = await service.healthcheck()
    own_rss = loop.prefix_rss_mb if isinstance(loop, ClosedLoop) else _peak_rss_mb()
    peak_rss_mb = own_rss + _worker_hwm_mb(health)
    await service.stop()
    if after_stop is not None:
        after_stop(service)

    sent = rec.status != NOT_SENT
    done_t = np.where(rec.status == OK, rec.done_t, np.nan)  # a failed request never completes
    if w.loop == "closed":
        window = closed_window(
            np.where(sent, rec.submit_t, np.nan),
            np.where((rec.status == OK) | (rec.status == ERROR), rec.done_t, np.nan),
            w.concurrency,
        )
        throughput, window_s = window.rate, window.seconds
        # requests sent while the pipeline was full: fill and drain transients excluded
        steady = sent & (rec.submit_t >= window.start) & (rec.submit_t <= window.end)
        latency_ms = (done_t[steady] - rec.submit_t[steady]) * 1e3
        late_ms = None
    else:
        assert isinstance(loop, OpenLoop) and inputs.due is not None
        due_abs = inputs.due + loop.t0
        window_s = float(np.nanmax(done_t)) - loop.t0
        throughput = int((rec.status == OK).sum()) / window_s
        latency_ms = (done_t[sent] - due_abs[sent]) * 1e3
        late_ms = (rec.submit_t[sent] - due_abs[sent]) * 1e3
    check = check_answers(inputs, rec.status, rec.proxy, rec.cost)
    maint, query = cost_ratios(inputs, rec.cost, cost_ops)
    layer_ops = int(sent.sum())
    del service, net, rec, loop  # the extra bring-ups run without the timed service alive

    phases = {key: [v] for key, v in first_phases.items()}
    for _ in range(SETUPS - 1):
        gc.collect()
        extra, ph, bad = await _bring_up(w, graph, inputs, names, queue_capacity)
        await extra.stop()
        setup_failures += bad
        for key, v in ph.items():
            phases[key].append(v)
    setups = [sum(vals) for vals in zip(*phases.values(), strict=True)]
    if setup_failures:
        check = dataclasses.replace(check, errored=check.errored + setup_failures)
    return PassResult(
        check=check,
        digest=inputs.digest(),
        setup_s=setups,
        phases=phases,
        throughput_ops_s=throughput,
        window_s=window_s,
        latency_ms=latency_ms,
        peak_rss_mb=peak_rss_mb,
        maintenance_cost_ratio=maint,
        query_cost_ratio=query,
        cost_ops=cost_ops,
        layer_window=(t_begin, t_end),
        layer_ops=layer_ops,
        cpu_s=cpu1 - cpu0,
        batches=(batch1[0] - batch0[0], batch1[1] - batch0[1]),
        oracle={k: float(v) - float(oracle0[k]) for k, v in oracle1.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)},
        late_ms=late_ms,
    )


def run_pass(w: Workload, inputs: Inputs, seconds: float, log: SpanLog | None = None,
             after_stop: Callable[[TrackingService], None] | None = None) -> PassResult:
    """Run one pass on a fresh event loop; ``after_stop`` sees the stopped service."""
    return asyncio.run(_run(w, inputs, seconds, log, after_stop))
