"""Shard snapshot/restore — serialized MOT shard state for migration.

A :class:`ShardSnapshot` is the portable value of one shard, and its
one snapshot format: the per-object epoch map, the applied op log, the
answered-query log and the accrued cost ledger. It is a plain
picklable dataclass, so it crosses the worker process boundary as-is —
the ``snapshot``, ``restore`` and ``final`` frames of
:mod:`repro.serve.transport` carry it — and round-trips through
:func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` for on-disk
checkpoints.

Restore is **replay-based**: rather than serializing the engine's
columnar arrays (private state the engine is free to re-shape),
restore replays the op log through a fresh engine over the same
hierarchy, as one :class:`~repro.core.batch.OpBatch`. Determinism of
the MOT structure makes the rebuilt state bit-identical to the
original; the ledger is then overwritten with the snapshot's ledger so
costs are carried once, not re-accrued (the replay's own accrual is
discarded). This is the same argument the consistency audit rests on —
a snapshot that restores wrong would also fail its shard's audit.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.core.batch import OpBatch
from repro.core.costs import CostLedger

Node = Hashable

__all__ = [
    "ShardSnapshot",
    "capture_snapshot",
    "restore_snapshot",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
]

#: bump when the snapshot layout changes; restore refuses other versions
#: (2: query records are the engine's ``BatchQueryRecord`` tuples;
#: 3: the ledger keeps running ratio maxima instead of per-op lists)
SNAPSHOT_VERSION = 3


@dataclass(frozen=True)
class ShardSnapshot:
    """Frozen, picklable state of one shard at a drain point."""

    shard_id: int
    epochs: dict[str, int]
    oplog: dict[str, list[tuple[str, Node]]]
    #: BatchQueryRecord entries in execution order
    query_log: Sequence[Any]
    ledger: CostLedger
    version: int = SNAPSHOT_VERSION

    @property
    def objects(self) -> tuple[str, ...]:
        """Objects owned by the snapshotted shard, sorted."""
        return tuple(sorted(self.oplog))

    @property
    def object_count(self) -> int:
        """How many objects the snapshotted shard held."""
        return len(self.epochs)


def capture_snapshot(state, shard_id: int) -> ShardSnapshot:
    """Deep-copy ``state`` into a :class:`ShardSnapshot`.

    ``state`` is anything with ``epochs``/``oplog``/``query_log`` and a
    ``ledger`` — a :class:`~repro.serve.worker.ShardWorker` or a
    :class:`~repro.serve.shard.TrackerShard` (duck-typed to avoid a
    module cycle).
    """
    return ShardSnapshot(
        shard_id=shard_id,
        epochs=dict(state.epochs),
        oplog={obj: list(ops) for obj, ops in state.oplog.items()},
        query_log=tuple(state.query_log),
        ledger=copy.deepcopy(state.ledger),
    )


def restore_snapshot(worker, snap: ShardSnapshot) -> None:
    """Rebuild ``snap``'s state inside the empty shard ``worker``.

    ``worker`` is a :class:`~repro.serve.worker.ShardWorker`
    (duck-typed to avoid a module cycle). MOT state is deterministic in
    the operation history, so replaying the op log through its engine
    reproduces it exactly (see module docstring); the snapshot's query
    log and ledger are then adopted as recorded, and the replayed
    epochs must equal the snapshot's. The engine must be fresh —
    restoring over live objects would interleave two histories.
    """
    if snap.version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {snap.version} != supported {SNAPSHOT_VERSION}"
        )
    engine = worker.engine
    if engine.object_count:
        raise ValueError("restore requires an empty shard core")
    ops = []
    for obj, entries in snap.oplog.items():
        for op, node in entries:
            if op not in ("publish", "move"):
                raise ValueError(f"unknown oplog entry {op!r} for {obj!r}")
            ops.append((op, obj, node))
    errors = engine.apply_ops(OpBatch.of(ops)).errors
    if errors:
        raise errors[min(errors)]
    engine.adopt_query_log(snap.query_log)
    # carry accrued costs once: the replay's own accrual is discarded
    engine.ledger = copy.deepcopy(snap.ledger)
    if engine.epochs != snap.epochs:
        raise ValueError("snapshot epochs disagree with its op log")


def snapshot_to_bytes(snap: ShardSnapshot) -> bytes:
    """Serialize for a transport frame or an on-disk checkpoint."""
    return pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)


def snapshot_from_bytes(data: bytes) -> ShardSnapshot:
    """Inverse of :func:`snapshot_to_bytes` (version-checked)."""
    snap = pickle.loads(data)
    if not isinstance(snap, ShardSnapshot):
        raise TypeError(f"not a ShardSnapshot: {type(snap).__name__}")
    if snap.version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {snap.version} != supported {SNAPSHOT_VERSION}"
        )
    return snap

