"""`TrackerShard` — the one shard front end: a queue, a drain loop, an engine.

The service hash-partitions objects across shards; each shard runs a
single ``asyncio`` drain loop that takes its queue in batches of up to
``batch_size`` operations per wakeup and applies each batch as one
``batch`` request to its :class:`~repro.serve.worker.ShardWorker` — a
:class:`~repro.core.batch.BatchMOTEngine` built over the *shared*
hierarchy. Because every MOT operation on an object touches only that
object's spine, a shard holding a subset of the objects answers
queries exactly like a sequential :class:`~repro.core.mot.MOTTracker`
holding all of them — the property the consistency audit
(:mod:`repro.serve.audit`) checks.

The engine always sits behind the worker frame protocol
(:data:`repro.serve.worker._HANDLERS`); only the transport differs:

- **in process** (``process=False``): each request is a direct handler
  call that never suspends. Health, snapshot and restore are answered
  at once, and the state views (``epochs``, ``oplog``, ``query_log``,
  ``ledger``) are the live engine's;
- **worker process** (``process=True``): the engine lives in a child
  forked by :func:`repro.serve.worker.spawn`, each request is one frame
  round trip, and health/snapshot/restore queue FIFO behind the
  admitted batches so the channel carries one conversation at a time.
  The state views read the ``stop`` reply, a
  :class:`~repro.serve.snapshot.ShardSnapshot`, and raise before it.

The queue is a :class:`collections.deque` of admitted ops (plus the
queued control requests and the stop sentinel) with one
:class:`asyncio.Event` that wakes the drain loop. Per wakeup the shard:

1. gates on the service clock in virtual mode (it may not run ahead of
   the arrival process — that is what makes queues fill and admission
   control reject deterministically). The ops wait at the head of the
   deque, not off it;
2. drains up to ``batch_size`` queued ops preserving FIFO order (so
   per-object operation order is preserved);
3. applies them in one engine call: the ``batch`` request carries the
   ops as three columns (kind, object, node — all recorded at
   admission). The engine **coalesces** duplicate
   queries within the call: queries for the same
   ``(object, epoch, source)`` — same object and querying node, no
   intervening move — execute one spine walk and share the answer. The
   source is part of the key because query cost is charged from the
   *querying* node's position: two sources asking about the same
   object walk different prefixes of the spine;
4. settles the batch in one pass over the engine's result columns: it
   stamps completions (in virtual mode each executed op is
   charged ``service_time_base_s`` on top of the shard's busy horizon,
   in wall mode every op completes at the clock reading taken when the
   engine returned), resolves each future, and folds the batch's
   latencies and counters into the metrics once.

**No admitted op is stranded.** An op leaves the deque only when its
batch goes to the engine, so a :meth:`TrackerShard.restart` that
cancels the clock gate leaves it queued, in order, for the fresh
engine. Every op of a batch whose engine round trip fails (a dead
worker's closed channel) or is cancelled by a restart fails once with
an explicit exception: it counts once in ``metrics.failed`` and leaves
``depth``. A worker shard whose round trip failed drops its channel;
later batches then fail at once until :meth:`TrackerShard.restart`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Sequence, Union

from repro.core.batch import BatchQueryRecord as QueryRecord
from repro.core.batch import OpBatch
from repro.core.costs import CostLedger
from repro.obs.trace import TRACER
from repro.perf import TimerStat
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import OpKind, OpResponse, Request, kind_of
from repro.serve.snapshot import ShardSnapshot
from repro.serve.transport import AsyncChannel
from repro.serve.worker import _HANDLERS, ShardWorker, WorkerSpec, spawn

Node = Hashable

__all__ = ["TrackerShard", "QueryRecord", "shard_sli"]

#: queue sentinel that stops the drain loop after the queue fully drains
_STOP = object()


@dataclass(slots=True)
class _Admitted:
    """One queued operation: its op columns, its stamp, and its waiter.

    ``warmup`` marks bring-up publishes
    (:meth:`~repro.serve.service.TrackingService.submit_warmup`): they
    are applied like any op but kept out of the shard's SLI counters.
    """

    kind: OpKind
    obj: str
    node: Node
    arrival_t: float
    future: asyncio.Future
    warmup: bool = False


@dataclass
class _Control:
    """A health/snapshot/restore request queued behind a worker's batches."""

    kind: str
    payload: Any
    future: asyncio.Future


def shard_sli(shard: "TrackerShard", makespan_s: float | None = None) -> dict:
    """Per-shard SLIs: p50/p99 latency, drop ratio, sustained ops/s.

    ``ops_s`` needs the run's makespan from the caller (the shard does
    not know when the run started); omit it and the rate is reported
    as 0.
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
        "objects": shard.object_count,
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
    """One queue + one drain loop + one engine (see module docstring)."""

    def __init__(
        self,
        spec: WorkerSpec,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
        service_time_base_s: float,
        process: bool = False,
    ) -> None:
        self.shard_id = spec.shard_id
        self.spec = spec
        self.clock = clock
        self.metrics = metrics
        self.batch_size = batch_size
        self.service_time_base_s = service_time_base_s

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

        #: the in-process engine; ``None`` when it lives in a worker
        self._local: ShardWorker | None = None if process else ShardWorker(spec)
        #: node index → node, for the proxies in the result columns
        self._node_at = spec.hierarchy.net.node_at
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._chan: AsyncChannel | None = None
        #: a worker's state as its ``stop`` reply carried it home
        self._final: ShardSnapshot | None = None
        #: queued ops, control requests and the stop sentinel, FIFO
        self._pending: deque[Any] = deque()
        #: set on every enqueue; the drain loop clears it before parking
        self._wakeup = asyncio.Event()
        self._worker: asyncio.Task | None = None
        #: the memoized retirement every ``stop()`` caller awaits
        self._retiring: asyncio.Future | None = None

    # ------------------------------------------------------------------
    # state views (the audit and the service read these)
    # ------------------------------------------------------------------
    def _state(self) -> ShardWorker | ShardSnapshot:
        if self._local is not None:
            return self._local
        if self._final is None:
            raise RuntimeError(
                f"shard {self.shard_id} runs in a worker process; its state "
                "comes home with the final frame: read it after stop()"
            )
        return self._final

    @property
    def epochs(self) -> dict[str, int]:
        """Per-object applied-move counts."""
        return self._state().epochs

    @property
    def object_count(self) -> int:
        """How many objects the shard holds (no log view is built)."""
        return self._state().object_count

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied operations per object, in order."""
        return self._state().oplog

    @property
    def query_log(self) -> Sequence[QueryRecord]:
        """Every answered query in execution order."""
        return self._state().query_log

    @property
    def ledger(self) -> CostLedger:
        """The shard's cost ledger."""
        return self._state().ledger

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain loop (requires a running event loop); a worker
        shard forks its process first."""
        if self._worker is not None:
            return
        if self._local is None and self._chan is None:
            self._proc, self._chan = spawn(self.spec)
            self._final = None
        self._retiring = None
        self._worker = asyncio.create_task(
            self._run(), name=f"tracker-shard-{self.shard_id}"
        )

    def submit(
        self,
        req: Request,
        arrival_t: float,
        warmup: bool = False,
        kind: OpKind | None = None,
    ) -> asyncio.Future:
        """Enqueue an admitted request; resolves to its :class:`OpResponse`.

        Admission control is the service's job — by the time a request
        reaches the shard it has already been accepted, so the queue
        itself is unbounded and ``depth`` is the gauge the service
        checks against ``queue_capacity``. ``warmup`` ops stay out of
        the per-shard SLI counters. The service passes the ``kind`` it
        computed at admission; the op's node is recorded next to it.
        """
        fut = asyncio.get_running_loop().create_future()
        self._pending.append(
            _Admitted(kind or kind_of(req), req.obj, req.node, arrival_t, fut, warmup)
        )
        self._wakeup.set()
        self.depth += 1
        if not warmup:
            self.submitted += 1
        return fut

    async def stop(self) -> None:
        """Drain the queue completely, retire the drain loop, then collect
        a worker's final frame and join its process.

        The retirement runs once, memoized as a task every caller
        awaits (the discipline of :meth:`TrackingService.stop`): a
        concurrent second ``stop()`` returns only when the first one's
        drain is over, and exactly one stop sentinel is ever queued.
        The process is joined, never killed: it exits on its own once
        its frame loop returns.
        """
        retiring = self._retiring
        if retiring is None:
            if self._worker is None and self._chan is None:
                return
            retiring = self._retiring = asyncio.ensure_future(self._retire())
        await asyncio.shield(retiring)

    async def _retire(self) -> None:
        worker, self._worker = self._worker, None
        if worker is not None:
            self._push(_STOP)  # behind every queued op: they drain first
            await worker
        chan, self._chan = self._chan, None
        if chan is not None:
            try:
                await chan.send("stop")
                _kind, self._final = await chan.recv()
            except OSError:
                pass  # a dead worker took its state along; restart() restores one
            finally:
                chan.close()
        proc = self._proc
        if proc is not None:
            # the worker leaves its frame loop right after the final
            # frame; the join waits for it to exit (a wrapper around
            # worker_main may still be flushing), bounded at 5 s
            proc.join(timeout=5.0)

    async def restart(self, snap: ShardSnapshot | None = None) -> None:
        """Crash recovery: retire the drain loop, kill a live worker
        process, bring up a fresh engine, and optionally restore ``snap``.

        Queued (unserviced) operations survive in the queue, in order,
        and are applied to the restored state. A batch in flight inside
        the worker fails, op by op, with an explicit exception: whether
        the dead worker applied it is unknown, so the caller decides
        what to resubmit.
        """
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.cancel()
            await asyncio.gather(worker, return_exceptions=True)
        chan, self._chan = self._chan, None
        if chan is not None:
            chan.close()
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.is_alive():
                proc.kill()  # SIGKILL: a stopped or hung worker cannot defer it
            proc.join(timeout=5.0)
        if self._local is not None:
            self._local = ShardWorker(self.spec)
        self.start()
        if snap is not None:
            await self.restore(snap)

    # ------------------------------------------------------------------
    # control plane (health / snapshot / restore)
    # ------------------------------------------------------------------
    async def health(self) -> dict:
        """Liveness probe.

        A live worker's probe is a real health-frame round trip through
        its queue, so a hung worker fails it, and it reports the child's
        ``pid``; a worker shard that dropped its channel is not alive.
        An in-process shard reports no ``pid``: the service's own
        process is not the shard's.
        """
        worker = self._worker
        proc = self._proc
        alive = (
            worker is not None
            and not worker.done()
            and (proc is None or (proc.is_alive() and self._chan is not None))
        )
        head: dict[str, Any] = {
            "shard_id": self.shard_id,
            "mode": "inprocess" if self._local is not None else "process",
            "alive": alive,
        }
        if self._local is not None or alive:
            vitals = await self._control("health")
        else:  # a stopped or dead worker: only its final frame is left
            vitals = {"objects": self._final.object_count if self._final else 0}
        if alive and proc is not None:
            head["pid"] = proc.pid
        return {**head, "depth": self.depth, **vitals}

    async def snapshot(self) -> ShardSnapshot:
        """Capture this shard's state (quiesce first: drain or stop)."""
        return await self._control("snapshot")

    async def restore(self, snap: ShardSnapshot) -> None:
        """Rebuild state from ``snap``; the shard must still be empty."""
        await self._control("restore", snap)

    async def _control(self, kind: str, payload: Any = None) -> Any:
        """One health/snapshot/restore request.

        In process it is a direct handler call, answered at once: under
        a virtual clock a probe queued behind a gated batch would wait
        on the load generator that is awaiting it. A worker's request
        queues FIFO behind the admitted batches.
        """
        if self._local is not None:
            return await self._call(kind, payload)
        if self._worker is None:
            raise RuntimeError(f"shard {self.shard_id} has no running worker")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._push(_Control(kind, payload, fut))
        return await fut

    async def _call(self, kind: str, payload: Any = None) -> Any:
        """One request to the engine: a direct handler call in process
        (never suspends), else one frame round trip to the worker."""
        local = self._local
        if local is not None:
            return _HANDLERS[kind](local, payload)[1]
        chan = self._chan
        if chan is None:
            raise RuntimeError(f"shard {self.shard_id} has no worker channel")
        await chan.send(kind, payload)
        _kind, reply = await chan.recv()
        return reply

    # ------------------------------------------------------------------
    # drain loop
    # ------------------------------------------------------------------
    def _push(self, item: Any) -> None:
        self._pending.append(item)
        self._wakeup.set()

    async def _run(self) -> None:
        chan = self._chan
        if chan is not None:
            kind, _hello = await chan.recv()
            if kind != "ready":
                raise RuntimeError(f"worker sent {kind!r} instead of ready frame")
        pending = self._pending
        wakeup = self._wakeup
        clock = self.clock
        while True:
            if not pending:
                wakeup.clear()
                await wakeup.wait()
                continue
            head = pending[0]
            if head is _STOP:
                pending.popleft()
                return
            if isinstance(head, _Control):
                pending.popleft()
                await self._converse(head)
                continue
            # Virtual mode: the shard may not service ops before the
            # arrival clock reaches its busy horizon — while it waits
            # here, the queue fills and admission control pushes back.
            # The ops wait at the head of the deque, so a restart()
            # that cancels this wait leaves them queued, in order.
            if clock.virtual and self.busy_until > clock.now:
                await clock.wait_until(self.busy_until)
            # FIFO up to batch_size ops; a control request or the stop
            # sentinel ends the batch and runs after it
            batch: list[_Admitted] = []
            limit = self.batch_size
            while pending and len(batch) < limit:
                head = pending[0]
                if head is _STOP or isinstance(head, _Control):
                    break
                batch.append(pending.popleft())
            await self._apply_batch(batch)

    async def _converse(self, item: _Control) -> None:
        """Run one queued control request; errors go to its waiter."""
        try:
            reply = await self._call(item.kind, item.payload)
        except asyncio.CancelledError:
            item.future.cancel()  # a restart cancelled the conversation
            raise
        except Exception as exc:  # noqa: BLE001 — surface on the waiter
            if not item.future.done():
                item.future.set_exception(exc)
            return
        if not item.future.done():
            item.future.set_result(reply)

    async def _apply_batch(self, batch: list[_Admitted]) -> None:
        """Apply one drained batch in one engine call, then settle it.

        A round trip that raises, or that a restart cancels, settles
        every op of the batch as that failure: whether a dead worker
        applied the batch is unknown, so no op is answered.
        """
        ops = OpBatch(
            [item.kind for item in batch],
            [item.obj for item in batch],
            [item.node for item in batch],
        )
        try:
            columns = await self._call("batch", ops)
        except asyncio.CancelledError:
            lost = RuntimeError(
                f"shard {self.shard_id} restarted with this op in flight; "
                "it may or may not have been applied"
            )
            self._settle_batch(batch, _all_failed(len(batch), lost))
            raise
        except Exception as exc:  # noqa: BLE001 — a failed round trip fails its ops
            chan, self._chan = self._chan, None
            if chan is not None:
                chan.close()  # the conversation is lost; restart() opens a new one
            columns = _all_failed(len(batch), exc)
        self._settle_batch(batch, columns)

    def _settle_batch(self, batch: list[_Admitted], columns: tuple) -> None:
        """Settle a batch in one pass over its result columns
        ``(proxy, cost, epoch, coalesced, errors)``.

        Virtual mode charges each op a service time on the shard's busy
        horizon — ``service_time_base_s`` per executed op or failure,
        nothing for a coalesced twin — so completions are
        deterministic. Wall mode stamps every op with one clock reading
        taken when the engine returned. The clock and ``busy_until`` are
        read after the engine call; in process that call never
        suspends, so the readings equal those before it.

        The pass resolves each future in FIFO order and collects the
        latencies; the service metrics and the per-shard SLIs take them
        once per batch. Nothing runs between the first resolution and
        the fold, so no reader sees a half-settled batch.
        """
        completion = self.clock.now
        virtual = self.clock.virtual
        start = max(self.busy_until, completion) if virtual else 0.0
        base = self.service_time_base_s
        elapsed = 0.0
        size = len(batch)
        tracing = TRACER.enabled
        node_at = self._node_at
        proxies, costs, epochs, flags, errors = columns
        latencies: dict[str, list[float]] = {"publish": [], "move": [], "query": []}
        sli: list[float] = []  # the per-shard SLI leaves warm-up ops out
        coalesced_queries = 0
        failed = 0
        rows = zip(batch, proxies, costs, epochs, flags, strict=True)
        for i, (item, proxy, cost, epoch, coalesced) in enumerate(rows):
            exc = errors.get(i) if errors else None
            if tracing:
                self._trace(item, exc, cost, epoch, coalesced, size)
            if virtual:
                if exc is not None or not coalesced:  # a coalesced twin is free
                    elapsed += base
                completion = start + elapsed
            fut = item.future
            if exc is not None:
                failed += 1
                if not fut.done():
                    fut.set_exception(exc)
                continue
            kind = item.kind
            latency = completion - item.arrival_t
            latencies[kind].append(latency)
            if not item.warmup:
                sli.append(latency)
            if coalesced and kind == "query":
                coalesced_queries += 1
            if not fut.done():
                fut.set_result(
                    OpResponse(
                        kind, item.obj, node_at(proxy), cost, epoch, coalesced,
                        item.arrival_t, completion,
                    )
                )
        if virtual:
            self.busy_until = start + elapsed
        self.depth -= size
        self.completed_ops += len(sli)
        self.latency.add_many(sli)
        self.metrics.record_completions(latencies, coalesced_queries)
        if failed:
            self.metrics.record_failures(failed)
        self.metrics.record_batch(size)

    def _trace(
        self,
        item: _Admitted,
        exc: Exception | None,
        cost: float,
        epoch: int,
        coalesced: bool,
        size: int,
    ) -> None:
        """One ``serve.<kind>`` span per settled op (tracing on only)."""
        with TRACER.span(
            "serve." + item.kind, obj=str(item.obj), shard=self.shard_id, batch=size
        ) as sp:
            if exc is not None:
                sp.annotate(failed=True, error=type(exc).__name__)
            else:
                sp.set_result(cost=cost)
                sp.annotate(epoch=epoch, coalesced=coalesced)


def _all_failed(n: int, exc: Exception) -> tuple:
    """The result columns of a batch of ``n`` ops whose round trip failed."""
    zeros = [0] * n
    return zeros, [0.0] * n, zeros, [False] * n, dict.fromkeys(range(n), exc)
