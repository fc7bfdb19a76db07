"""The shard's columnar queue and its one-pass settle.

A shard queues admitted ops as parallel column lists and its control
requests (health, snapshot, restore, the stop sentinel) in a separate
deque, each behind a barrier: the number of ops enqueued ahead of it.
These tests pin the orderings that layout must keep — a control runs
after exactly the ops queued before it, a partial drain keeps FIFO on
both sides of the cut — and the settle pass's contract: responses
equal ``OpResponse`` built field by field, a client-cancelled future
does not disturb its batch, and the deferred queue-depth fold shows
every admission on read.
"""

import asyncio
import time

import pytest

from repro.core.batch import OpBatch
from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve import (
    MoveRequest,
    OpResponse,
    PublishRequest,
    QueryRequest,
    ServiceConfig,
    TrackingService,
    VirtualClock,
    WallClock,
)
from repro.serve import worker as worker_mod
from repro.serve.metrics import ServiceMetrics
from repro.serve.shard import TrackerShard
from repro.serve.snapshot import capture_snapshot
from repro.serve.worker import ShardWorker, WorkerSpec

NET = grid_network(4, 4)
SPEC = WorkerSpec(0, build_hierarchy(NET, seed=1), MOTConfig())


def make_shard(clock, batch_size=1024, process=False):
    return TrackerShard(
        SPEC,
        clock=clock,
        metrics=ServiceMetrics(),
        batch_size=batch_size,
        service_time_base_s=0.001,
        process=process,
    )


@pytest.fixture
def slow_gate(monkeypatch):
    """Worker processes forked after this hold a batch whose first
    object is ``"gate"`` for half a second, so the parent can queue ops
    and a control request while that batch is in flight."""
    apply_batch = worker_mod._HANDLERS["batch"]

    def held(worker, batch):
        if batch.obj[0] == "gate":
            time.sleep(0.5)
        return apply_batch(worker, batch)

    monkeypatch.setitem(worker_mod._HANDLERS, "batch", held)


async def _gate_in_flight(shard):
    """Submit the held op and wait until the drain loop has taken it."""
    gate = shard.submit(MoveRequest("gate", NET.node_at(0)), 0.0)
    for _ in range(2000):
        if shard._taken:
            return gate
        await asyncio.sleep(0.005)
    raise AssertionError("the drain loop never took the gate op")


@pytest.mark.parametrize("control", ["health", "snapshot"])
def test_worker_control_runs_after_exactly_the_ops_before_it(slow_gate, control):
    async def scenario():
        shard = make_shard(WallClock(), process=True)
        shard.start()
        try:
            gate = await _gate_in_flight(shard)
            before = [
                shard.submit(PublishRequest(f"b{i}", NET.node_at(i)), 0.0)
                for i in range(3)
            ]
            probe = asyncio.ensure_future(getattr(shard, control)())
            await asyncio.sleep(0)  # the probe queues behind the three ops
            assert [barrier for barrier, _ in shard._controls] == [1 + 3]
            after = [
                shard.submit(PublishRequest(f"a{i}", NET.node_at(i)), 0.0)
                for i in range(4)
            ]
            reply = await asyncio.wait_for(probe, timeout=20)
            await asyncio.wait_for(asyncio.gather(*before, *after), timeout=20)
            with pytest.raises(KeyError):
                await gate  # never published: fails, leaves no state
        finally:
            await asyncio.wait_for(shard.stop(), timeout=20)
        if control == "health":
            assert reply["objects"] == 3
        else:
            assert sorted(reply.epochs) == ["b0", "b1", "b2"]
        # the ops after the probe ran as one batch of their own
        assert shard.metrics.batch_size_hist == {1: 1, 3: 1, 4: 1}
        assert sorted(shard.epochs) == ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]

    asyncio.run(scenario())


def test_worker_restore_runs_after_exactly_the_ops_before_it(slow_gate):
    seeded = ShardWorker(SPEC)
    seeded.handle_batch(OpBatch.of([("publish", "r", NET.node_at(0))]))
    snap = capture_snapshot(seeded, 0)

    async def scenario():
        shard = make_shard(WallClock(), process=True)
        shard.start()
        try:
            gate = await _gate_in_flight(shard)
            # "r" exists only once the restore has run
            before = shard.submit(MoveRequest("r", NET.node_at(5)), 0.0)
            restored = asyncio.ensure_future(shard.restore(snap))
            await asyncio.sleep(0)
            after = shard.submit(MoveRequest("r", NET.node_at(6)), 0.0)
            await asyncio.wait_for(restored, timeout=20)
            with pytest.raises(KeyError):
                await asyncio.wait_for(before, timeout=20)
            resp = await asyncio.wait_for(after, timeout=20)
            with pytest.raises(KeyError):
                await gate
        finally:
            await asyncio.wait_for(shard.stop(), timeout=20)
        assert resp.proxy == NET.node_at(6) and resp.epoch == 1
        assert shard.oplog["r"] == [("publish", NET.node_at(0)), ("move", NET.node_at(6))]

    asyncio.run(scenario())


def test_partial_drain_keeps_fifo_on_both_sides():
    """A backlog of ten ops through batches of four: the drained head
    settles in order, the tail waits in order, and every op of the one
    object sees every earlier op (epochs 0..9)."""

    async def scenario():
        clock = VirtualClock()
        shard = make_shard(clock, batch_size=4)
        shard.start()
        futs = [shard.submit(PublishRequest("tiger", NET.node_at(0)), 0.0)]
        futs += [
            shard.submit(MoveRequest("tiger", NET.node_at(i)), 0.0) for i in range(1, 10)
        ]
        for _ in range(3):
            await asyncio.sleep(0)  # one batch of four, then the clock gate
        assert [f.done() for f in futs] == [True] * 4 + [False] * 6
        assert shard._queue.node == [NET.node_at(i) for i in range(4, 10)]
        assert shard._queue.kind == ["move"] * 6 and shard.depth == 6
        clock.release()
        resps = await asyncio.wait_for(asyncio.gather(*futs), timeout=5)
        await asyncio.wait_for(shard.stop(), timeout=5)
        assert [r.epoch for r in resps] == list(range(10))
        assert [r.proxy for r in resps] == [NET.node_at(i) for i in range(10)]
        completions = [r.completion_t for r in resps]
        assert completions == sorted(completions) and len(set(completions)) == 10
        assert shard.metrics.batch_size_hist == {4: 2, 2: 1}
        assert not shard._queue.kind and not shard._controls

    asyncio.run(scenario())


def test_cancelled_future_leaves_the_rest_of_its_batch_settled():
    async def scenario():
        shard = make_shard(WallClock())
        shard.start()
        futs = [
            shard.submit(PublishRequest(f"obj-{i}", NET.node_at(i)), 0.0)
            for i in range(5)
        ]
        futs[2].cancel()
        done = await asyncio.wait_for(
            asyncio.gather(*futs, return_exceptions=True), timeout=5
        )
        await asyncio.wait_for(shard.stop(), timeout=5)
        assert futs[2].cancelled()
        assert [r.obj for i, r in enumerate(done) if i != 2] == [
            "obj-0", "obj-1", "obj-3", "obj-4"
        ]
        # the engine applied the cancelled op too: only its waiter is gone
        assert sorted(shard.epochs) == [f"obj-{i}" for i in range(5)]
        assert shard.depth == 0 and shard.metrics.batches == 1
        assert shard.metrics.failed == 0

    asyncio.run(scenario())


def test_settled_response_equals_a_normally_built_one():
    async def scenario():
        clock = VirtualClock()
        service = TrackingService(
            NET, ServiceConfig(shards=1), seed=1, clock=clock
        )
        await service.start()
        await service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))
        moved = service.submit_nowait(MoveRequest("tiger", NET.node_at(5)))
        asked = service.submit_nowait(QueryRequest("tiger", NET.node_at(15)))
        clock.release()
        resps = await asyncio.wait_for(asyncio.gather(moved, asked), timeout=5)
        await service.stop()
        return resps

    for resp in asyncio.run(scenario()):
        rebuilt = OpResponse(
            resp.kind, resp.obj, resp.proxy, resp.cost, resp.epoch,
            resp.coalesced, resp.arrival_t, resp.completion_t,
        )
        assert type(resp) is OpResponse
        assert resp == rebuilt and resp._asdict() == rebuilt._asdict()
        assert resp.latency_s == rebuilt.latency_s > 0.0
        assert resp.proxy == NET.node_at(5) and resp.epoch == 1


def test_submit_of_a_non_request_raises_type_error():
    async def scenario():
        service = TrackingService(NET, ServiceConfig(shards=2), seed=1)
        await service.start()
        try:
            with pytest.raises(TypeError, match="not a service request"):
                service.submit_nowait(object())
            assert service.metrics.total_admitted == 0
            assert service.total_depth == 0
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_queue_depth_read_before_any_settle_shows_every_admission():
    async def scenario():
        service = TrackingService(
            NET, ServiceConfig(shards=1, queue_capacity=100), seed=1,
            clock=VirtualClock(),
        )
        await service.start()
        futs = [
            service.submit_nowait(PublishRequest(f"obj-{i}", NET.node_at(i)))
            for i in range(6)
        ]
        depth = service.metrics.queue_depth  # no batch has settled yet
        assert service.metrics.batches == 0
        assert depth.count == 6 and depth.total_s == 0 + 1 + 2 + 3 + 4 + 5
        assert depth.max_s == 5.0 and isinstance(depth.total_s, float)
        assert service.metrics.as_dict()["queue_depth"]["observations"] == 6
        service.clock.release()
        await asyncio.gather(*futs)
        await service.stop()
        assert service.metrics.queue_depth.count == 6

    asyncio.run(scenario())
