"""Snapshot/restore equivalence.

The load-bearing property is replay equivalence: a shard restored from
a snapshot must answer every subsequent operation exactly like the
shard that never went away — same proxies, same costs, same epochs —
because restore replays the op log through the same deterministic
apply path that produced it. Ledgers are carried by value (not re-accrued), so
cost totals across capture → restore → more traffic stay comparable.
"""

import asyncio
import dataclasses
import pickle
import random

import pytest

from repro.core.batch import OpBatch
from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve import (
    MoveRequest,
    PublishRequest,
    QueryRequest,
    VirtualClock,
)
from repro.serve.protocol import kind_of
from repro.serve.metrics import ServiceMetrics
from repro.serve.shard import TrackerShard
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    ShardSnapshot,
    capture_snapshot,
    restore_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.serve.worker import ShardWorker, WorkerSpec

NET = grid_network(5, 5)
HIER = build_hierarchy(NET, seed=2)


def make_core() -> ShardWorker:
    return ShardWorker(WorkerSpec(0, HIER, MOTConfig()))


def apply(core: ShardWorker, reqs) -> tuple:
    """One ``batch`` request through the worker's handler; its result
    columns and error messages, comparable with ``==``."""
    ops = OpBatch.of((kind_of(req), req.obj, req.node) for req in reqs)
    _kind, (proxy, cost, epoch, coalesced, errors) = core.handle_batch(ops)
    return proxy, cost, epoch, coalesced, {i: repr(exc) for i, exc in errors.items()}


def drive(core: ShardWorker, seed: int = 9, objects: int = 5) -> None:
    """Apply a deterministic publish/move/query mix to ``core``."""
    rng = random.Random(seed)
    for i in range(objects):
        apply(core, [PublishRequest(f"obj-{i}", NET.node_at(rng.randrange(NET.n)))])
    for _ in range(3 * objects):
        obj = f"obj-{rng.randrange(objects)}"
        apply(core, [MoveRequest(obj, NET.node_at(rng.randrange(NET.n)))])
    for _ in range(2 * objects):
        obj = f"obj-{rng.randrange(objects)}"
        apply(core, [QueryRequest(obj, NET.node_at(rng.randrange(NET.n)))])


class TestCaptureRestore:
    def test_restore_then_replay_matches_the_original(self):
        original = make_core()
        drive(original)
        snap = capture_snapshot(original, shard_id=0)

        restored = make_core()
        restore_snapshot(restored, snap)
        assert restored.epochs == original.epochs
        assert restored.oplog == original.oplog
        assert list(restored.query_log) == list(original.query_log)
        assert restored.ledger == original.ledger

        # both timelines continue with identical traffic and must stay
        # indistinguishable — proxies, costs, epochs, accrued ledgers
        rng = random.Random(77)
        for _ in range(20):
            obj = f"obj-{rng.randrange(5)}"
            if rng.random() < 0.5:
                req = MoveRequest(obj, NET.node_at(rng.randrange(NET.n)))
            else:
                req = QueryRequest(obj, NET.node_at(rng.randrange(NET.n)))
            assert apply(original, [req]) == apply(restored, [req])
        assert capture_snapshot(original, 0) == capture_snapshot(restored, 0)

    def test_capture_is_a_deep_copy(self):
        core = make_core()
        drive(core, objects=2)
        snap = capture_snapshot(core, shard_id=3)
        apply(core, [MoveRequest("obj-0", NET.node_at(0))])
        assert len(snap.oplog["obj-0"]) < len(core.oplog["obj-0"])
        assert snap.shard_id == 3
        assert snap.objects == ("obj-0", "obj-1")

    def test_restore_into_nonempty_core_raises(self):
        core = make_core()
        drive(core, objects=1)
        snap = capture_snapshot(core, 0)
        with pytest.raises(ValueError, match="empty shard core"):
            restore_snapshot(core, snap)

    def test_restore_refuses_other_versions(self):
        core = make_core()
        drive(core, objects=1)
        snap = dataclasses.replace(capture_snapshot(core, 0), version=99)
        with pytest.raises(ValueError, match="version"):
            restore_snapshot(make_core(), snap)


class TestBytesRoundTrip:
    def test_round_trip_is_identity(self):
        core = make_core()
        drive(core)
        snap = capture_snapshot(core, 1)
        assert snapshot_from_bytes(snapshot_to_bytes(snap)) == snap

    def test_from_bytes_rejects_foreign_pickles(self):
        with pytest.raises(TypeError, match="not a ShardSnapshot"):
            snapshot_from_bytes(pickle.dumps({"epochs": {}}))

    def test_from_bytes_rejects_other_versions(self):
        core = make_core()
        drive(core, objects=1)
        snap = dataclasses.replace(
            capture_snapshot(core, 0), version=SNAPSHOT_VERSION + 1
        )
        with pytest.raises(ValueError, match="version"):
            snapshot_from_bytes(pickle.dumps(snap))


class TestShardSurface:
    def test_tracker_shard_snapshot_restore_round_trip(self):
        """The async shard surface: drain, snapshot, restore elsewhere."""

        async def scenario():
            clock = VirtualClock()
            metrics = ServiceMetrics()

            def make_shard(sid):
                return TrackerShard(
                    WorkerSpec(sid, HIER, MOTConfig()),
                    clock=clock,
                    metrics=metrics,
                    batch_size=8,
                    service_time_base_s=1e-3,
                )

            # free-running virtual time: nobody drives arrivals here, so
            # shards must not park on the service-time gate
            clock.release()
            first = make_shard(0)
            first.start()
            await first.submit(PublishRequest("tiger", NET.node_at(0)), 0.0)
            await first.submit(MoveRequest("tiger", NET.node_at(7)), 0.0)
            await first.stop()
            snap = await first.snapshot()

            second = make_shard(1)
            second.start()
            await second.restore(snap)
            fut = second.submit(QueryRequest("tiger", NET.node_at(24)), 0.0)
            resp = await fut
            assert resp.proxy == NET.node_at(7)
            assert resp.epoch == 1
            await second.stop()
            health = await second.health()
            assert health["objects"] == 1 and not health["alive"]

        asyncio.run(scenario())
