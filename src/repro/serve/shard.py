"""`TrackerShard` — one worker coroutine owning one MOT instance.

The service hash-partitions objects across shards; each shard runs a
single ``asyncio`` worker that drains its queue in batches of up to
``batch_size`` operations per wakeup and applies each batch as one
call into its own :class:`~repro.core.batch.BatchMOTEngine`, built over
the *shared* hierarchy. Because every MOT operation on an object
touches only that object's spine, a shard holding a subset of the
objects answers queries exactly like a sequential
:class:`~repro.core.mot.MOTTracker` holding all of them — the property
the consistency audit (:mod:`repro.serve.audit`) checks.

The clock-free part of a shard — the engine and the request → op
translation — lives in :class:`ShardCore`, which
:mod:`repro.serve.worker` reuses verbatim on the far side of the
process boundary: one apply path, two schedulers (an asyncio task
here, a blocking frame loop there).

Per wakeup the shard:

1. gates on the service clock in virtual mode (it may not run ahead of
   the arrival process — that is what makes queues fill and admission
   control reject deterministically);
2. drains up to ``batch_size`` queued ops preserving FIFO order (so
   per-object operation order is preserved);
3. applies them in one :meth:`ShardCore.apply_requests` call. The
   engine **coalesces** duplicate queries within the call: queries for
   the same ``(object, epoch, source)`` — same object and querying
   node, no intervening move — execute one spine walk and share the
   answer. The source is part of the key because query cost is charged
   from the *querying* node's position: two sources asking about the
   same object walk different prefixes of the spine;
4. settles every op from the ``("ok" | "err", …)`` result tuples and
   stamps completions: in virtual mode each op is charged an explicit
   service time (``base + per_cost · cost``) on top of the shard's busy
   horizon, in wall mode every op completes at the clock reading taken
   when the engine returned.

The engine keeps the audit-facing state — per-object epochs, the
applied op log, the answered-query log and the cost ledger — once;
the shard and the audit read it through :class:`ShardCore`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Hashable, Iterable, Union

from repro.core.batch import BatchMOTEngine
from repro.core.batch import BatchQueryRecord as QueryRecord
from repro.core.costs import CostLedger
from repro.obs.trace import TRACER
from repro.perf import TimerStat
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    MoveRequest,
    OpKind,
    OpResponse,
    PublishRequest,
    QueryRequest,
    Request,
    kind_of,
)
from repro.serve.snapshot import ShardSnapshot, capture_snapshot, restore_snapshot

Node = Hashable

__all__ = ["ShardCore", "TrackerShard", "QueryRecord", "shard_sli"]

#: queue sentinel that stops the worker after the queue fully drains
_STOP = object()


@dataclass
class _Admitted:
    """One queued operation: the request, its stamp, and its waiter.

    ``warmup`` marks bring-up publishes
    (:meth:`~repro.serve.service.TrackingService.submit_warmup`): they
    are applied like any op but kept out of the shard's SLI counters.
    """

    req: Request
    kind: OpKind
    arrival_t: float
    future: asyncio.Future
    warmup: bool = False


def _as_op(req: Request) -> tuple[str, str, Node]:
    """The engine op ``(kind, obj, node)`` of one service request."""
    if isinstance(req, MoveRequest):
        return ("move", req.obj, req.new_proxy)
    if isinstance(req, QueryRequest):
        return ("query", req.obj, req.source)
    if isinstance(req, PublishRequest):
        return ("publish", req.obj, req.proxy)
    raise TypeError(f"not a service request: {req!r}")


class ShardCore:
    """The clock-free state and apply path of one shard.

    Wraps one :class:`~repro.core.batch.BatchMOTEngine`. Everything
    here is synchronous and scheduler-agnostic — the asyncio
    :class:`TrackerShard` and the process-boundary
    :class:`~repro.serve.worker.ShardWorker` both drive it. The
    audit-facing views below are the engine's own state, not copies.
    """

    def __init__(self, engine: BatchMOTEngine) -> None:
        self.engine = engine

    @property
    def epochs(self) -> dict[str, int]:
        """Per-object applied-move count (the audit's version number)."""
        return self.engine.epochs

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied ops per object: ``[("publish", proxy), ("move", new), ...]``."""
        return self.engine.oplog

    @property
    def query_log(self) -> list[QueryRecord]:
        """Every answered query in execution order."""
        return self.engine.query_log

    @property
    def ledger(self) -> CostLedger:
        """The engine's cost ledger."""
        return self.engine.ledger

    def replay_history(
        self,
        oplog: dict[str, list[tuple[str, Node]]],
        query_log: Iterable[QueryRecord],
        ledger: CostLedger,
    ) -> None:
        """Rebuild the engine from a history (snapshot restore).

        MOT state is deterministic in the operation history, so
        replaying ``oplog`` through the engine reproduces it exactly.
        The answered queries and the accrued ``ledger`` are then adopted
        as recorded: costs are carried once, and the replay's own
        accrual is discarded.
        """
        for obj, ops in oplog.items():
            for op, _node in ops:
                if op not in ("publish", "move"):
                    raise ValueError(f"unknown oplog entry {op!r} for {obj!r}")
        flat = [(op, obj, node) for obj, ops in oplog.items() for op, node in ops]
        for out in self.engine.apply_ops(flat):
            if out.error is not None:
                raise out.error
        self.engine.query_log[:] = query_log
        self.engine.ledger = ledger

    def apply_requests(self, reqs: list[Request]) -> list[tuple]:
        """Apply a whole batch in one engine call.

        Returns one tuple per request, positionally aligned:
        ``("ok", proxy, cost, epoch, coalesced)`` or ``("err", exc)`` —
        the worker-protocol result shape, so both the in-process shard
        and the process-boundary worker consume it unchanged.
        """
        return [
            ("ok", out.proxy, out.cost, out.epoch, out.coalesced)
            if out.error is None
            else ("err", out.error)
            for out in self.engine.apply_ops([_as_op(req) for req in reqs])
        ]


def _settle(shard, item: _Admitted, res: tuple, completion: float) -> None:
    """Resolve one applied op's future from its result tuple.

    The one place an op's outcome is counted, for the in-process
    :class:`TrackerShard` and the process-boundary
    :class:`~repro.serve.worker.ProcessShardHandle` alike: failures
    count under ``metrics.failed``; answers feed the service metrics
    and the per-shard SLI counters, which leave warm-up ops out.
    """
    shard.depth -= 1
    if res[0] == "err":
        shard.metrics.record_failure()
        if not item.future.done():
            item.future.set_exception(res[1])
        return
    _tag, proxy, cost, epoch, coalesced = res
    resp = OpResponse(
        item.kind, item.req.obj, proxy, cost, epoch, coalesced, item.arrival_t, completion
    )
    latency = resp.latency_s
    if not item.warmup:
        shard.completed_ops += 1
        shard.latency.add(latency)
    shard.metrics.record_completion(item.kind, latency, coalesced)
    if not item.future.done():
        item.future.set_result(resp)


def shard_sli(shard, makespan_s: float | None = None) -> dict:
    """Per-shard SLIs: p50/p99 latency, drop ratio, sustained ops/s.

    Works on anything with the shard counter attributes — the
    in-process :class:`TrackerShard` and the process-boundary
    :class:`~repro.serve.worker.ProcessShardHandle` alike. ``ops_s``
    needs the run's makespan from the caller (the shard does not know
    when the run started); omit it and the rate is reported as 0.
    """
    submitted = shard.submitted
    rejected = shard.rejected
    offered = submitted + rejected
    lat = shard.latency
    return {
        "shard_id": shard.shard_id,
        "submitted": submitted,
        "completed": shard.completed_ops,
        "rejected": rejected,
        "drop_ratio": rejected / offered if offered else 0.0,
        "objects": len(shard.oplog),
        "latency_ms": {
            "p50_ms": lat.percentile(50.0) * 1e3,
            "p99_ms": lat.percentile(99.0) * 1e3,
            "max_ms": lat.max_s * 1e3,
        },
        "ops_s": (
            shard.completed_ops / makespan_s
            if makespan_s is not None and makespan_s > 0
            else 0.0
        ),
    }


class TrackerShard:
    """One queue + one worker + one MOT engine (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        engine: BatchMOTEngine,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
        service_time_base_s: float,
        service_time_per_cost_s: float,
    ) -> None:
        self.shard_id = shard_id
        self.core = ShardCore(engine)
        self.clock = clock
        self.metrics = metrics
        self.batch_size = batch_size
        self.service_time_base_s = service_time_base_s
        self.service_time_per_cost_s = service_time_per_cost_s

        #: admitted-but-unserviced operations (the bounded-queue gauge)
        self.depth = 0
        #: virtual-mode service horizon: when this shard frees up
        self.busy_until = 0.0
        #: per-shard SLI counters (see :func:`shard_sli`); warm-up
        #: publishes are left out, they count under ``metrics.warmup``
        self.submitted = 0
        self.rejected = 0
        self.completed_ops = 0
        self.latency = TimerStat()

        self._queue: asyncio.Queue = asyncio.Queue()
        self._worker: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # core state views (the audit and the service read these)
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> dict[str, int]:
        """Per-object applied-move counts."""
        return self.core.epochs

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied operations per object, in order."""
        return self.core.oplog

    @property
    def query_log(self) -> list[QueryRecord]:
        """Every answered query in execution order."""
        return self.core.query_log

    @property
    def ledger(self) -> CostLedger:
        """The shard's cost ledger (uniform with process handles)."""
        return self.core.ledger

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker task (requires a running event loop)."""
        if self._worker is None:
            self._worker = asyncio.create_task(
                self._run(), name=f"tracker-shard-{self.shard_id}"
            )

    def submit(
        self, req: Request, arrival_t: float, warmup: bool = False
    ) -> asyncio.Future:
        """Enqueue an admitted request; resolves to its :class:`OpResponse`.

        Admission control is the service's job — by the time a request
        reaches the shard it has already been accepted, so the queue
        itself is unbounded and ``depth`` is the gauge the service
        checks against ``queue_capacity``. ``warmup`` ops stay out of
        the per-shard SLI counters.
        """
        item = _Admitted(
            req,
            kind_of(req),
            arrival_t,
            asyncio.get_running_loop().create_future(),
            warmup,
        )
        self.depth += 1
        if not warmup:
            self.submitted += 1
        self._queue.put_nowait(item)
        return item.future

    async def stop(self) -> None:
        """Drain the queue completely, then retire the worker.

        Claims the worker *before* awaiting it: two concurrent ``stop()``
        calls must not both pass the ``is not None`` guard (each would
        enqueue a ``_STOP`` sentinel, and the leftover one is never
        ``task_done()``-ed, deadlocking any later ``join()``).
        """
        await self._queue.join()
        worker = self._worker
        if worker is None:
            return
        self._worker = None
        self._queue.put_nowait(_STOP)
        await worker

    async def health(self) -> dict:
        """Liveness probe, uniform with the process-handle flavour."""
        worker = self._worker
        return {
            "shard_id": self.shard_id,
            "mode": "inprocess",
            "alive": worker is not None and not worker.done(),
            "depth": self.depth,
            "objects": len(self.core.oplog),
        }

    async def snapshot(self) -> ShardSnapshot:
        """Capture this shard's state (quiesce first: drain or stop)."""
        return capture_snapshot(self.core, self.shard_id)

    async def restore(self, snap: ShardSnapshot) -> None:
        """Rebuild state from ``snap``; the shard must still be empty."""
        restore_snapshot(self.core, snap)

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            # Virtual mode: the shard may not service ops before the
            # arrival clock reaches its busy horizon — while it waits
            # here, the queue fills and admission control pushes back.
            if self.clock.virtual and self.busy_until > self.clock.now:
                await self.clock.wait_until(self.busy_until)
            batch = [item]
            stopping = False
            while len(batch) < self.batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    self._queue.task_done()
                    stopping = True
                    break
                batch.append(nxt)
            self._apply_batch(batch)
            for _ in batch:
                self._queue.task_done()
            if stopping:
                return

    # ------------------------------------------------------------------
    # batch application (synchronous: no awaits between ops)
    # ------------------------------------------------------------------
    def _apply_batch(self, batch: list[_Admitted]) -> None:
        """Apply one drained batch in one engine call, then settle it.

        Virtual mode charges each op a service time on the shard's busy
        horizon — ``base + per_cost · cost`` per executed op, ``base``
        per failure, nothing for a coalesced twin — so completions are
        deterministic. Wall mode stamps every op with one clock reading
        taken when the engine returned.
        """
        virtual = self.clock.virtual
        start = max(self.busy_until, self.clock.now) if virtual else 0.0
        results = self.core.apply_requests([item.req for item in batch])
        completion = self.clock.now
        elapsed = 0.0
        tracing = TRACER.enabled
        for item, res in zip(batch, results, strict=True):
            if tracing:
                self._trace(item, res, len(batch))
            if virtual:
                if res[0] == "err":
                    elapsed += self.service_time_base_s
                elif not res[4]:  # a coalesced twin costs no service time
                    elapsed += (
                        self.service_time_base_s + self.service_time_per_cost_s * res[2]
                    )
                completion = start + elapsed
            _settle(self, item, res, completion)
        if virtual:
            self.busy_until = start + elapsed
        self.metrics.record_batch(len(batch))

    def _trace(self, item: _Admitted, res: tuple, size: int) -> None:
        """One ``serve.<kind>`` span per settled op (tracing on only)."""
        with TRACER.span(
            "serve." + item.kind, obj=str(item.req.obj), shard=self.shard_id, batch=size
        ) as sp:
            if res[0] == "err":
                sp.annotate(failed=True, error=type(res[1]).__name__)
            else:
                sp.set_result(cost=res[2])
                sp.annotate(epoch=res[3], coalesced=res[4])
