"""One shard's engine behind the worker frame protocol.

:class:`ShardWorker` is a shard's whole state and apply path: one
:class:`~repro.core.batch.BatchMOTEngine` and one handler per request
kind, dispatched through the module-level :data:`_HANDLERS` table. The
table is held to :data:`~repro.serve.transport.REQUEST_KINDS` by the
RPL105 flow rule — a request kind without a handler is a static error,
not a runtime ``KeyError`` in a child process.

A ``batch`` request carries an :class:`~repro.core.batch.OpBatch` of op
columns, and its reply is the result columns a shard settles from:
``(proxy, cost, epoch, coalesced, errors)``, plain lists plus the
``{position: exception}`` map — a few bytes per op in a frame.

The one shard front end, :class:`~repro.serve.shard.TrackerShard`,
reaches its ShardWorker over one of two transports:

- **in process** (``workers=0``): each request is a direct handler
  call;
- **in a forked worker process** (``workers>0``): :func:`spawn` forks
  :func:`worker_main`, a blocking frame loop over a
  :class:`~repro.serve.transport.Channel`, and each request is one
  frame round trip.

Workers are **forked**, not spawned: the hierarchy and the shared
:class:`SensorNetwork` (including a ``full`` backend's distance matrix,
which the hierarchy build reads in ``TrackingService.__init__``, before
the fork) are inherited copy-on-write, so per-worker memory is the MOT
state, not the graph. Fork also means a worker is always the same code
version as its parent — the pickle framing never crosses versions.

Worker processes are **wall-clock only**. The virtual clock's
determinism contract needs every state transition on one cooperative
loop; across a process boundary completions are stamped with real time
on the parent loop, and correctness is checked by the sequential-replay
audit instead — the ``stop`` reply carries the worker's state home as
a :class:`~repro.serve.snapshot.ShardSnapshot`.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.batch import BatchMOTEngine, OpBatch
from repro.core.batch import BatchQueryRecord as QueryRecord
from repro.core.costs import CostLedger
from repro.core.mot import MOTConfig
from repro.hierarchy.structure import BaseHierarchy
from repro.obs.trace import TRACER
from repro.serve.snapshot import ShardSnapshot, capture_snapshot, restore_snapshot
from repro.serve.transport import (
    REQUEST_KINDS,
    AsyncChannel,
    Channel,
    socket_pair,
)

Node = Hashable

__all__ = ["ShardWorker", "WorkerSpec", "spawn", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to build one shard's :class:`ShardWorker`."""

    shard_id: int
    hierarchy: BaseHierarchy
    mot_config: MOTConfig


class ShardWorker:
    """One shard's engine and frame handlers.

    Everything here is synchronous and transport-agnostic. The
    audit-facing views are built from the engine's own state on read.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.shard_id = spec.shard_id
        self.engine = BatchMOTEngine(spec.hierarchy, spec.mot_config)

    @property
    def epochs(self) -> dict[str, int]:
        """Per-object applied-move count (the audit's version number)."""
        return self.engine.epochs

    @property
    def object_count(self) -> int:
        """How many objects the shard holds (no log view is built)."""
        return self.engine.object_count

    @property
    def oplog(self) -> dict[str, list[tuple[str, Node]]]:
        """Applied ops per object: ``[("publish", proxy), ("move", new), ...]``."""
        return self.engine.oplog

    @property
    def query_log(self) -> tuple[QueryRecord, ...]:
        """Every answered query in execution order."""
        return self.engine.query_log

    @property
    def ledger(self) -> CostLedger:
        """The engine's cost ledger."""
        return self.engine.ledger

    # each handler returns (reply_kind, payload) for one request frame
    def handle_batch(self, batch: OpBatch) -> tuple[str, Any]:
        """Apply one batch in one engine call; the settle columns, with
        the failed ops' exceptions carried by value so the reply pickles."""
        res = self.engine.apply_ops(batch)
        return "results", (res.proxy, res.cost, res.epoch, res.coalesced, res.errors)

    def handle_health(self, _payload: Any) -> tuple[str, Any]:
        """Shard vitals; the front end adds liveness, depth and pid."""
        return "healthy", {"objects": self.engine.object_count}

    def handle_snapshot(self, _payload: Any) -> tuple[str, Any]:
        """A deep copy of the shard state (quiesced by the FIFO queue)."""
        return "snapshot_data", capture_snapshot(self, self.shard_id)

    def handle_restore(self, snap: ShardSnapshot) -> tuple[str, Any]:
        """Rebuild state from ``snap`` into the (empty) engine."""
        restore_snapshot(self, snap)
        return "restored", None

    def handle_stop(self, _payload: Any) -> tuple[str, Any]:
        """The final frame: the shard state as a snapshot of fresh views."""
        # the views are built for this frame only and pickled on send
        return "final", ShardSnapshot(
            self.shard_id, self.epochs, self.oplog, self.query_log, self.ledger
        )


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


def spawn(spec: WorkerSpec) -> tuple[multiprocessing.process.BaseProcess, AsyncChannel]:
    """Fork one worker process running :func:`worker_main` for ``spec``.

    Returns the process and the parent's end of its channel. The
    target is this module's ``worker_main`` attribute as it stands at
    fork time, so a wrapper installed on it (a tracing hook) runs in
    the child.
    """
    parent_sock, child_sock = socket_pair()
    proc = multiprocessing.get_context("fork").Process(
        target=worker_main,
        args=(child_sock, spec, parent_sock),
        name=f"repro-shard-{spec.shard_id}",
        daemon=True,
    )
    proc.start()
    child_sock.close()
    return proc, AsyncChannel(parent_sock)
