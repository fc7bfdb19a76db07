"""Shard worker processes: the far side of the message boundary.

This module is both halves of one protocol:

- :class:`ShardWorker` + :func:`worker_main` run **inside a forked
  worker process**: a blocking frame loop over the
  :class:`~repro.serve.transport.Channel`, dispatching each request
  kind through the module-level :data:`_HANDLERS` table onto the same
  :class:`~repro.serve.shard.ShardCore` apply path the in-process
  shards use. The table is held to :data:`REQUEST_KINDS` by the RPL105
  flow rule — a request kind without a handler is a static error, not
  a runtime ``KeyError`` in a child process.
- :class:`ProcessShardHandle` runs **in the service process**: it has
  the same submit/stop/health surface as
  :class:`~repro.serve.shard.TrackerShard`, so the service, audit, and
  bench treat both uniformly. Internally it pumps its admission queue
  over an :class:`~repro.serve.transport.AsyncChannel` in batches and
  resolves futures from the reply frames.

Workers are **forked**, not spawned: the hierarchy and the shared
:class:`SensorNetwork` (including a PR-6 ``memmap`` distance backend
attached read-only before the fork) are inherited copy-on-write, so
per-worker memory is the MOT state, not the graph. Fork also means a
worker is always the same code version as its parent — the pickle
framing never crosses versions.

Clock semantics: worker processes are **wall-clock only**. The virtual
clock's determinism contract needs every state transition on one
cooperative loop; across a process boundary completions are stamped
with real time on the parent loop and correctness is checked by the
sequential-replay audit instead (the handle carries the worker's
``epochs``/``oplog``/``query_log`` home in the final frame, so
:func:`repro.serve.audit.audit_service` runs unchanged).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Hashable, Union

from repro.core.batch import BatchMOTEngine
from repro.core.costs import CostLedger
from repro.core.mot import MOTConfig
from repro.hierarchy.structure import BaseHierarchy
from repro.obs.trace import TRACER
from repro.perf import TimerStat
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import Request, kind_of
from repro.serve.shard import QueryRecord, ShardCore, _Admitted, _settle
from repro.serve.snapshot import (
    ShardSnapshot,
    capture_snapshot,
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.serve.transport import (
    REQUEST_KINDS,
    AsyncChannel,
    Channel,
    socket_pair,
)

Node = Hashable

__all__ = ["ProcessShardHandle", "ShardWorker", "WorkerSpec", "worker_main"]

#: queue sentinel that stops the pump after the queue fully drains
_STOP = object()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its shard."""

    shard_id: int
    hierarchy: BaseHierarchy
    mot_config: MOTConfig


@dataclass
class _Control:
    """An out-of-band request (health/snapshot/restore) riding the queue.

    Controls share the admission queue so they serialize with batches
    in FIFO order — the channel carries exactly one request/reply
    conversation at a time, by construction.
    """

    kind: str
    payload: Any
    future: asyncio.Future


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
class ShardWorker:
    """The worker-process shard: one :class:`ShardCore` plus counters."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.shard_id = spec.shard_id
        self.core = ShardCore(BatchMOTEngine(spec.hierarchy, spec.mot_config))
        self.ops_applied = 0
        self.batches = 0
        self.failures = 0
        self.apply_time = TimerStat()

    # each handler returns (reply_kind, payload) for one request frame
    def handle_batch(self, reqs: list[Request]) -> tuple[str, Any]:
        """Apply one batch; per-op results, exceptions carried by value."""
        t0 = time.perf_counter()
        results = self.core.apply_requests(reqs)
        failed = sum(1 for res in results if res[0] == "err")
        self.failures += failed
        self.ops_applied += len(results) - failed
        self.batches += 1
        self.apply_time.add(time.perf_counter() - t0)
        return "results", results

    def handle_health(self, _payload: Any) -> tuple[str, Any]:
        """Liveness + shard vitals; the parent merges in queue depth."""
        return "healthy", {
            "shard_id": self.shard_id,
            "mode": "process",
            "alive": True,
            "pid": os.getpid(),
            "objects": len(self.core.oplog),
            "ops_applied": self.ops_applied,
            "failures": self.failures,
        }

    def handle_snapshot(self, _payload: Any) -> tuple[str, Any]:
        """Serialize the shard state (quiesced by the FIFO queue)."""
        return "snapshot_data", snapshot_to_bytes(
            capture_snapshot(self.core, self.shard_id)
        )

    def handle_restore(self, payload: bytes) -> tuple[str, Any]:
        """Rebuild state from snapshot bytes into the (empty) core."""
        restore_snapshot(self.core, snapshot_from_bytes(payload))
        return "restored", None

    def handle_stop(self, _payload: Any) -> tuple[str, Any]:
        """The final frame: everything the audit and ledger need at home."""
        # the frame is pickled on send, so the logs travel uncopied
        return "final", {
            "epochs": self.core.epochs,
            "oplog": self.core.oplog,
            "query_log": self.core.query_log,
            "ledger": self.core.ledger,
            "stats": {
                "ops_applied": self.ops_applied,
                "batches": self.batches,
                "failures": self.failures,
                "apply_time": self.apply_time.as_dict(),
            },
        }


#: request kind → handler; RPL105 holds the key set to REQUEST_KINDS
_HANDLERS = {
    "batch": ShardWorker.handle_batch,
    "health": ShardWorker.handle_health,
    "snapshot": ShardWorker.handle_snapshot,
    "restore": ShardWorker.handle_restore,
    "stop": ShardWorker.handle_stop,
}

assert set(_HANDLERS) == set(REQUEST_KINDS)  # mirrored statically by RPL105


def worker_main(
    sock: socket.socket, spec: WorkerSpec, peer: socket.socket | None = None
) -> None:
    """Worker-process entry point: frame loop until a ``stop`` request.

    ``peer`` is the parent's socket end, inherited across the fork; it
    is closed first so the only reference to it lives in the parent and
    EOF semantics work (a dead parent surfaces as ``ChannelClosed``).
    The inherited tracer is silenced — spans from a forked child would
    interleave rubbish into the parent's JSONL sink.
    """
    if peer is not None:
        peer.close()
    TRACER.enabled = False
    TRACER.reset()
    chan = Channel(sock)
    worker = ShardWorker(spec)
    try:
        chan.send("ready", {"shard_id": spec.shard_id, "pid": os.getpid()})
        while True:
            kind, payload = chan.recv()
            reply_kind, reply = _HANDLERS[kind](worker, payload)
            chan.send(reply_kind, reply)
            if kind == "stop":
                return
    finally:
        chan.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessShardHandle:
    """A :class:`TrackerShard`-shaped front for one worker process.

    Same submission surface (``depth``/``submit``/``stop``) and same
    post-stop audit surface (``epochs``/``oplog``/``query_log``/
    ``ledger``) as the in-process shard; the MOT state itself lives in
    the child until the final frame carries it home at ``stop``.
    """

    def __init__(
        self,
        shard_id: int,
        spec: WorkerSpec,
        clock: Union[VirtualClock, WallClock],
        metrics: ServiceMetrics,
        batch_size: int,
    ) -> None:
        if clock.virtual:
            raise ValueError(
                "worker processes are wall-clock only; the virtual clock's "
                "determinism holds on a single cooperative loop (see module docs)"
            )
        self.shard_id = shard_id
        self.spec = spec
        self.clock = clock
        self.metrics = metrics
        self.batch_size = batch_size

        #: admitted-but-unserviced operations (the bounded-queue gauge)
        self.depth = 0
        #: uniform with TrackerShard; never advances under a wall clock
        self.busy_until = 0.0
        #: per-shard SLI counters (see :func:`repro.serve.shard.shard_sli`);
        #: warm-up publishes are left out, they count under ``metrics.warmup``
        self.submitted = 0
        self.rejected = 0
        self.completed_ops = 0
        self.latency = TimerStat()

        # audit-facing state, ingested from the final frame at stop()
        self.epochs: dict[str, int] = {}
        self.oplog: dict[str, list[tuple[str, Node]]] = {}
        self.query_log: list[QueryRecord] = []
        self.worker_stats: dict = {}
        self._ledger = CostLedger()

        self._queue: asyncio.Queue = asyncio.Queue()
        self._pump: asyncio.Task | None = None
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._chan: AsyncChannel | None = None

    @property
    def ledger(self) -> CostLedger:
        """The worker tracker's ledger (empty until ``stop`` ingests it)."""
        return self._ledger

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the worker and spawn the pump (requires a running loop)."""
        if self._proc is None:
            self._spawn()
        if self._pump is None:
            self._pump = asyncio.create_task(
                self._run(), name=f"shard-pump-{self.shard_id}"
            )

    def _spawn(self) -> None:
        parent_sock, child_sock = socket_pair()
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=worker_main,
            args=(child_sock, self.spec, parent_sock),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        child_sock.close()
        self._proc = proc
        self._chan = AsyncChannel(parent_sock)

    def submit(
        self, req: Request, arrival_t: float, warmup: bool = False
    ) -> asyncio.Future:
        """Enqueue an admitted request; resolves to its :class:`OpResponse`.

        ``warmup`` ops stay out of the per-shard SLI counters.
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
        """Drain, retire the pump, then collect the worker's final frame.

        Mirrors :meth:`TrackerShard.stop`'s claim-before-await: the pump
        (and then the channel) is claimed before any await so concurrent
        stops cannot both retire the worker.
        """
        await self._queue.join()
        pump = self._pump
        if pump is None:
            return
        self._pump = None
        self._queue.put_nowait(_STOP)
        await pump
        chan = self._chan
        if chan is None:
            return
        self._chan = None
        await chan.send("stop")
        kind, final = await chan.recv()
        chan.close()
        if kind != "final":
            raise RuntimeError(f"worker sent {kind!r} instead of final frame")
        self._ingest_final(final)
        proc = self._proc
        self._proc = None
        if proc is not None:
            # the worker already returned from its frame loop; this join
            # only reaps the process entry, it does not block the loop
            proc.join(timeout=5.0)

    def _ingest_final(self, final: dict) -> None:
        self.epochs = final["epochs"]
        self.oplog = final["oplog"]
        self.query_log = final["query_log"]
        self._ledger = final["ledger"]
        self.worker_stats = final["stats"]

    async def restart(self, snap: ShardSnapshot | None = None) -> None:
        """Crash recovery: kill any live worker, respawn, optionally restore.

        Queued (unserviced) operations survive in the parent-side queue
        and are replayed against the restored state; operations that
        were in flight inside the dead worker are lost — the caller
        decides what to resubmit.
        """
        pump = self._pump
        self._pump = None
        if pump is not None:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        chan = self._chan
        self._chan = None
        if chan is not None:
            chan.close()
        proc = self._proc
        self._proc = None
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self.start()
        if snap is not None:
            await self.restore(snap)

    # ------------------------------------------------------------------
    # control plane (health / snapshot / restore)
    # ------------------------------------------------------------------
    async def _control(self, kind: str, payload: Any = None) -> Any:
        """One control conversation, serialized FIFO with the batches."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Control(kind, payload, fut))
        _reply_kind, reply = await fut
        return reply

    async def health(self) -> dict:
        """Probe the worker; a dead/stopped worker reports unalive."""
        if self._pump is None or self._proc is None or not self._proc.is_alive():
            return {
                "shard_id": self.shard_id,
                "mode": "process",
                "alive": False,
                "depth": self.depth,
                "objects": len(self.oplog),
            }
        vitals = await self._control("health")
        return {**vitals, "depth": self.depth}

    async def snapshot(self) -> ShardSnapshot:
        """Capture the worker's shard state through the snapshot frame."""
        return snapshot_from_bytes(await self._control("snapshot"))

    async def restore(self, snap: ShardSnapshot) -> None:
        """Rebuild the worker's (empty) shard from ``snap``."""
        await self._control("restore", snapshot_to_bytes(snap))

    # ------------------------------------------------------------------
    # pump
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        chan = self._chan
        if chan is None:  # pragma: no cover - start() always spawns first
            raise RuntimeError("pump started without a channel")
        kind, _hello = await chan.recv()
        if kind != "ready":
            raise RuntimeError(f"worker sent {kind!r} instead of ready frame")
        queue = self._queue
        while True:
            item = await queue.get()
            if item is _STOP:
                queue.task_done()
                return
            if isinstance(item, _Control):
                await self._converse(chan, item)
                queue.task_done()
                continue
            batch = [item]
            control_after: _Control | None = None
            stopping = False
            while len(batch) < self.batch_size:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    queue.task_done()
                    stopping = True
                    break
                if isinstance(nxt, _Control):
                    # keep FIFO: finish this batch, then run the control
                    control_after = nxt
                    break
                batch.append(nxt)
            await self._round_trip(chan, batch)
            for _ in batch:
                queue.task_done()
            if control_after is not None:
                await self._converse(chan, control_after)
                queue.task_done()
            if stopping:
                return

    async def _converse(self, chan: AsyncChannel, item: _Control) -> None:
        """One control request/reply; transport errors go to the waiter."""
        try:
            await chan.send(item.kind, item.payload)
            reply = await chan.recv()
        except Exception as exc:  # noqa: BLE001 — surface on the waiter
            if not item.future.done():
                item.future.set_exception(exc)
            return
        if not item.future.done():
            item.future.set_result(reply)

    async def _round_trip(self, chan: AsyncChannel, batch: list[_Admitted]) -> None:
        """Ship one batch to the worker and settle its futures."""
        await chan.send("batch", [item.req for item in batch])
        kind, results = await chan.recv()
        if kind != "results":
            raise RuntimeError(f"worker sent {kind!r} instead of results frame")
        now = self.clock.now
        for item, res in zip(batch, results, strict=True):
            _settle(self, item, res, now)
        self.metrics.record_batch(len(batch))
