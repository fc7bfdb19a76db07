"""Shard and service lifecycle regressions — concurrent ``stop()`` races.

Regression for the PR-7 RPL102 finding: ``stop()`` used to guard-read
``self._worker``, await, and only then clear it. Two concurrent stops
could both pass the guard and enqueue two ``_STOP`` sentinels; the
leftover one deadlocked every later drain. ``stop()`` now memoizes the
retirement as one task every caller awaits, so exactly one sentinel is
ever queued and a second caller still waits for the whole drain; these
tests drive the exact interleaving and time out (fail) on a regression.

A restart must not strand an admitted op either: the drain loop used to
take an op off the queue before parking on the virtual clock's gate, so
a ``restart()`` that cancelled the wait lost the op — its future never
resolved, ``depth`` stayed at 1, and ``stop()`` hung
(`test_restart_during_clock_gate_keeps_the_op_queued`).

The service had the dual bug one layer up: ``TrackingService.stop``
set ``_closed = True`` *before* awaiting the shard drains, so a second
concurrent ``stop()`` saw the flag and returned while shards were
still draining — callers sequenced after it observed undrained queues
and unresolved futures. The fix memoizes the drain as a task every
caller awaits (`test_concurrent_service_stop_waits_for_drain`).
"""

import asyncio

import pytest

from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve import (
    MoveRequest,
    PublishRequest,
    ServiceConfig,
    TrackingService,
    VirtualClock,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.shard import TrackerShard
from repro.serve.worker import WorkerSpec

NET = grid_network(3, 3)


def make_shard(clock):
    return TrackerShard(
        WorkerSpec(0, build_hierarchy(NET, seed=1), MOTConfig()),
        clock=clock,
        metrics=ServiceMetrics(),
        batch_size=4,
        service_time_base_s=0.001,
    )


def test_concurrent_stop_leaves_no_stale_sentinel():
    async def scenario():
        clock = VirtualClock()
        shard = make_shard(clock)
        shard.start()
        await shard.submit(PublishRequest("tiger", NET.node_at(0)), 0.0)
        # the next op waits on the clock, so the drain outlasts both stops
        fut = shard.submit(MoveRequest("tiger", NET.node_at(4)), 0.0)
        # each stop() records whether the op had resolved when it returned
        resolved_at_return: list[bool] = []

        async def stop_and_look():
            await shard.stop()
            resolved_at_return.append(fut.done())

        stop1 = asyncio.create_task(stop_and_look())
        stop2 = asyncio.create_task(stop_and_look())
        for _ in range(3):
            await asyncio.sleep(0)  # both stops are now parked on the drain
        assert resolved_at_return == [] and not fut.done()
        clock.release()
        await asyncio.wait_for(asyncio.gather(stop1, stop2), timeout=2)
        assert resolved_at_return == [True, True]
        assert (await fut).proxy == NET.node_at(4)
        # exactly one _STOP was queued and consumed: nothing lingers
        assert not shard._queue.kind and not shard._controls
        assert shard._worker is None and shard.depth == 0

    asyncio.run(scenario())


def test_sequential_stop_is_idempotent():
    async def scenario():
        shard = make_shard(VirtualClock())
        shard.start()
        await asyncio.wait_for(shard.stop(), timeout=2)
        await asyncio.wait_for(shard.stop(), timeout=2)  # no worker: no-op
        assert shard._worker is None
        assert not shard._queue.kind and not shard._controls

    asyncio.run(scenario())


def test_restart_during_clock_gate_keeps_the_op_queued():
    async def scenario():
        clock = VirtualClock()
        shard = make_shard(clock)
        shard.start()
        published = shard.submit(PublishRequest("tiger", NET.node_at(0)), 0.0)
        await asyncio.wait_for(published, timeout=2)
        assert shard.busy_until > clock.now  # the next op waits on the clock
        moved = shard.submit(MoveRequest("tiger", NET.node_at(4)), 0.0)
        for _ in range(3):
            await asyncio.sleep(0)  # the drain loop parks on the gate
        assert not moved.done() and shard.depth == 1
        snap = await shard.snapshot()
        await asyncio.wait_for(shard.restart(snap), timeout=2)
        clock.advance(1.0)
        resp = await asyncio.wait_for(moved, timeout=2)
        assert resp.proxy == NET.node_at(4) and resp.epoch == 1
        assert shard.depth == 0 and shard.metrics.failed == 0
        await asyncio.wait_for(shard.stop(), timeout=2)
        assert shard.oplog["tiger"] == [
            ("publish", NET.node_at(0)), ("move", NET.node_at(4))
        ]

    asyncio.run(scenario())


def test_stop_without_start_is_a_no_op():
    async def scenario():
        shard = make_shard(VirtualClock())
        await asyncio.wait_for(shard.stop(), timeout=2)
        assert shard._worker is None

    asyncio.run(scenario())


def test_concurrent_service_stop_waits_for_drain():
    """A second ``stop()`` must ride the same drain, not return early."""

    async def scenario():
        cfg = ServiceConfig(shards=2, batch_size=1, queue_capacity=1000)
        service = TrackingService(NET, cfg, seed=3, clock=VirtualClock())
        await service.start()
        futs = [
            service.submit_nowait(PublishRequest(f"obj-{i}", NET.node_at(i % NET.n)))
            for i in range(32)
        ]
        # stretch the drain across extra loop iterations so a second
        # stop() has a real mid-drain window to (wrongly) return in
        last_shard_drained = asyncio.Event()
        orig_stop = service.shards[1].stop

        async def slow_stop():
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            await orig_stop()
            last_shard_drained.set()

        service.shards[1].stop = slow_stop
        stop1 = asyncio.create_task(service.stop())
        await asyncio.sleep(0)  # stop1 claims the drain and starts waiting
        stop2 = asyncio.create_task(service.stop())
        await asyncio.wait_for(stop2, timeout=2)
        # pre-fix, stop2 saw `_closed` already set and returned mid-drain,
        # before the last shard had retired
        assert last_shard_drained.is_set()
        assert all(f.done() for f in futs)
        assert service.total_depth == 0
        await asyncio.wait_for(stop1, timeout=2)
        # later stops stay cheap no-ops on the memoized (finished) drain
        await asyncio.wait_for(service.stop(), timeout=2)
        assert service._drain_task is not None and service._drain_task.done()

    asyncio.run(scenario())


def test_service_stop_before_start_only_closes():
    async def scenario():
        service = TrackingService(NET, ServiceConfig(shards=1), seed=3)
        await asyncio.wait_for(service.stop(), timeout=2)
        assert service._drain_task is None
        with pytest.raises(RuntimeError, match="closed"):
            await service.start()

    asyncio.run(scenario())
