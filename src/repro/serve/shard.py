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

The queue keeps admitted ops as parallel column lists — kind, object,
node, arrival time, future and warm-up flag — so admission appends six
values and builds no per-op record besides the future. Control requests
and the stop sentinel wait in their own deque, each tagged with the
number of ops enqueued ahead of it (its *barrier*): it runs once exactly
those ops have been drained. One :class:`asyncio.Event` wakes the drain
loop. Per wakeup the shard:

1. gates on the service clock in virtual mode (it may not run ahead of
   the arrival process — that is what makes queues fill and admission
   control reject deterministically). The ops wait at the head of the
   queue, not off it;
2. drains up to ``batch_size`` queued ops that lie before the next
   barrier, preserving FIFO order (so per-object operation order is
   preserved). A drain of the whole backlog swaps the column lists out
   for fresh ones; a partial drain slices the head off;
3. applies them in one engine call: the ``batch`` request carries the
   drained kind, object and node lists as they are, as an
   :class:`~repro.core.batch.OpBatch`. The engine **coalesces** duplicate
   queries within the call: queries for the same
   ``(object, epoch, source)`` — same object and querying node, no
   intervening move — execute one spine walk and share the answer. The
   source is part of the key because query cost is charged from the
   *querying* node's position: two sources asking about the same
   object walk different prefixes of the spine;
4. settles the batch in one pass over the engine's result columns. In
   wall mode every op completes at the clock reading taken when the
   engine returned; in virtual mode, or with tracing on, a per-op loop
   charges each executed op ``service_time_base_s`` on top of the
   shard's busy horizon and emits the op's span. Every
   :class:`~repro.serve.protocol.OpResponse` of the batch is built in one
   C-level ``map`` over the columns, the futures resolve in FIFO order
   in one loop, and the batch's latencies and counters fold into the
   metrics once.

**No admitted op is stranded.** An op leaves the queue only when its
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
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import sub
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
class _OpColumns:
    """Queued (or drained) ops as parallel columns, FIFO.

    ``warmup`` marks bring-up publishes
    (:meth:`~repro.serve.service.TrackingService.submit_warmup`): they
    are applied like any op but kept out of the completed counts and
    latencies, service-wide and per shard.
    """

    kind: list[OpKind] = field(default_factory=list)
    obj: list[str] = field(default_factory=list)
    node: list[Node] = field(default_factory=list)
    arrival: list[float] = field(default_factory=list)
    future: list[asyncio.Future] = field(default_factory=list)
    warmup: list[bool] = field(default_factory=list)

    def pop_head(self, n: int) -> "_OpColumns":
        """Remove and return the first ``n`` ops."""
        cols = (self.kind, self.obj, self.node, self.arrival, self.future, self.warmup)
        head = _OpColumns(*(col[:n] for col in cols))
        for col in cols:
            del col[:n]
        return head


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
        self._nodes = spec.hierarchy.net.nodes
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._chan: AsyncChannel | None = None
        #: a worker's state as its ``stop`` reply carried it home
        self._final: ShardSnapshot | None = None
        #: admitted ops not yet drained, as columns
        self._queue = _OpColumns()
        #: ops drained so far, the clock the control barriers count on
        self._taken = 0
        #: queued control requests and the stop sentinel, FIFO, each as
        #: ``(barrier, item)``: it runs once ``_taken`` reaches barrier
        self._controls: deque[tuple[int, Any]] = deque()
        #: set by an enqueue onto an empty queue and by every control
        #: push; the drain loop clears it before parking
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
        the SLI counters. The service passes the ``kind`` it
        read at admission; the op's object and node are appended next
        to it.
        """
        # read every field before appending, so a malformed request
        # cannot leave the columns at different lengths
        obj = req.obj
        node = req.node
        if kind is None:
            kind = kind_of(req)
        fut = asyncio.get_running_loop().create_future()
        q = self._queue
        if not q.kind:
            self._wakeup.set()  # a non-empty queue never has a parked loop
        q.kind.append(kind)
        q.obj.append(obj)
        q.node.append(node)
        q.arrival.append(arrival_t)
        q.future.append(fut)
        q.warmup.append(warmup)
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
        """Queue a control request or the stop sentinel behind every op
        enqueued so far."""
        self._controls.append((self._taken + len(self._queue.kind), item))
        self._wakeup.set()

    async def _run(self) -> None:
        chan = self._chan
        if chan is not None:
            kind, _hello = await chan.recv()
            if kind != "ready":
                raise RuntimeError(f"worker sent {kind!r} instead of ready frame")
        controls = self._controls
        wakeup = self._wakeup
        clock = self.clock
        while True:
            if controls and controls[0][0] == self._taken:
                item = controls.popleft()[1]
                if item is _STOP:
                    return
                await self._converse(item)
                continue
            if not self._queue.kind:
                wakeup.clear()
                await wakeup.wait()
                continue
            # Virtual mode: the shard may not service ops before the
            # arrival clock reaches its busy horizon — while it waits
            # here, the queue fills and admission control pushes back.
            # The ops wait at the head of the queue, so a restart()
            # that cancels this wait leaves them queued, in order.
            if clock.virtual and self.busy_until > clock.now:
                await clock.wait_until(self.busy_until)
            # FIFO up to batch_size ops; the next control request (or
            # the stop sentinel) runs after the ops queued before it
            limit = self.batch_size
            if controls:
                limit = min(limit, controls[0][0] - self._taken)
            queue = self._queue
            if len(queue.kind) <= limit:
                batch, self._queue = queue, _OpColumns()
            else:
                batch = queue.pop_head(limit)
            self._taken += len(batch.kind)
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

    async def _apply_batch(self, batch: _OpColumns) -> None:
        """Apply one drained batch in one engine call, then settle it.

        A round trip that raises, or that a restart cancels, settles
        every op of the batch as that failure: whether a dead worker
        applied the batch is unknown, so no op is answered.
        """
        ops = OpBatch(batch.kind, batch.obj, batch.node)
        try:
            columns = await self._call("batch", ops)
        except asyncio.CancelledError:
            lost = RuntimeError(
                f"shard {self.shard_id} restarted with this op in flight; "
                "it may or may not have been applied"
            )
            self._settle_batch(batch, _all_failed(len(ops), lost))
            raise
        except Exception as exc:  # noqa: BLE001 — a failed round trip fails its ops
            chan, self._chan = self._chan, None
            if chan is not None:
                chan.close()  # the conversation is lost; restart() opens a new one
            columns = _all_failed(len(ops), exc)
        self._settle_batch(batch, columns)

    def _settle_batch(self, batch: _OpColumns, columns: tuple) -> None:
        """Settle a batch in one pass over its result columns
        ``(proxy, cost, epoch, coalesced, errors)``.

        Wall mode stamps every op with one clock reading taken when the
        engine returned. Virtual mode charges each op a service time on
        the shard's busy horizon — ``service_time_base_s`` per executed
        op or failure, nothing for a coalesced twin — so completions
        are deterministic (:meth:`_stamp`). The clock and
        ``busy_until`` are read after the engine call; in process that
        call never suspends, so the readings equal those before it.

        Every response is built in one C-level ``map``, the futures
        resolve in FIFO order (a failed op's with its exception; a
        future the client already cancelled is skipped), and the
        latencies of the completed timed ops — warm-ups left out — fold
        into the service metrics and the per-shard SLIs once per batch.
        Nothing runs between the first resolution and the fold, so no
        reader sees a half-settled batch.
        """
        clock = self.clock
        kinds = batch.kind
        size = len(kinds)
        proxies, costs, epochs, flags, errors = columns
        if clock.virtual or TRACER.enabled:
            completions = self._stamp(batch, columns, clock.now)
        else:
            completions = [clock.now] * size
        arrivals = batch.arrival
        responses = map(
            tuple.__new__,
            repeat(OpResponse),
            zip(
                kinds, batch.obj, map(self._nodes.__getitem__, proxies), costs,
                epochs, flags, arrivals, completions, strict=True,
            ),
        )
        if errors:
            for i, (fut, resp) in enumerate(zip(batch.future, responses)):
                if not fut.done():
                    exc = errors.get(i)
                    if exc is None:
                        fut.set_result(resp)
                    else:
                        fut.set_exception(exc)
        else:
            for fut, resp in zip(batch.future, responses):
                if not fut.done():
                    fut.set_result(resp)

        latencies = list(map(sub, completions, arrivals))
        warmups = batch.warmup
        if errors or True in warmups:
            # only timed ops that completed count: not failed ops, and not
            # warm-ups, which count under ``metrics.warmup`` alone
            counted = [not warm and i not in errors for i, warm in enumerate(warmups)]
            latencies = list(compress(latencies, counted))
            kinds = list(compress(kinds, counted))
            flags = list(compress(flags, counted))
        self.depth -= size
        self.completed_ops += len(latencies)
        self.latency.add_many(latencies)
        # the engine flags only coalesced query twins
        self.metrics.record_completions(_split_by_kind(latencies, kinds), flags.count(True))
        if errors:
            self.metrics.record_failures(len(errors))
        self.metrics.record_batch(size)

    def _stamp(self, batch: _OpColumns, columns: tuple, now: float) -> list[float]:
        """Per-op completion stamps, in FIFO order: the virtual clock's
        service-time model (else ``now`` for every op), plus one
        ``serve.<kind>`` span per op when tracing is on."""
        virtual = self.clock.virtual
        start = max(self.busy_until, now) if virtual else 0.0
        base = self.service_time_base_s
        elapsed = 0.0
        completion = now
        tracing = TRACER.enabled
        size = len(batch.kind)
        _proxies, costs, epochs, flags, errors = columns
        stamps: list[float] = []
        rows = zip(batch.kind, batch.obj, costs, epochs, flags, strict=True)
        for i, (kind, obj, cost, epoch, coalesced) in enumerate(rows):
            exc = errors.get(i) if errors else None
            if tracing:
                self._trace(kind, obj, exc, cost, epoch, coalesced, size)
            if virtual:
                if exc is not None or not coalesced:  # a coalesced twin is free
                    elapsed += base
                completion = start + elapsed
            stamps.append(completion)
        if virtual:
            self.busy_until = start + elapsed
        return stamps

    def _trace(
        self,
        kind: OpKind,
        obj: str,
        exc: Exception | None,
        cost: float,
        epoch: int,
        coalesced: bool,
        size: int,
    ) -> None:
        """One ``serve.<kind>`` span per settled op (tracing on only)."""
        with TRACER.span(
            "serve." + kind, obj=str(obj), shard=self.shard_id, batch=size
        ) as sp:
            if exc is not None:
                sp.annotate(failed=True, error=type(exc).__name__)
            else:
                sp.set_result(cost=cost)
                sp.annotate(epoch=epoch, coalesced=coalesced)


def _split_by_kind(latencies: list[float], kinds: list[OpKind]) -> dict[str, list[float]]:
    """Each kind's latencies, in settle order."""
    out: dict[str, list[float]] = {"publish": [], "move": [], "query": []}
    for kind, latency in zip(kinds, latencies):
        out[kind].append(latency)
    return out


def _all_failed(n: int, exc: Exception) -> tuple:
    """The result columns of a batch of ``n`` ops whose round trip failed."""
    zeros = [0] * n
    return zeros, [0.0] * n, zeros, [False] * n, dict.fromkeys(range(n), exc)
