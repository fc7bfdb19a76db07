"""Admission-control regressions: the three races fixed in this PR.

Each test drives the exact pre-fix failure shape:

- ``submit_nowait`` used to take a rate token *before* the queue-bound
  check, so queue rejections burned tokens admissible operations never
  got back (`test_queue_rejection_is_token_neutral`).
- ``submit_warmup`` used to funnel through ``record_admission``, so
  bring-up publishes inflated every SLI denominator that divides by
  admitted ops (`test_warmup_not_counted_as_admitted`).
- Under a wall clock ``Overloaded("queue").retry_after_s`` collapsed to
  the constant ``service_time_base_s`` because ``busy_until`` never
  advances off the virtual service model
  (`test_queue_retry_after_reflects_backlog_under_wall_clock`).
"""

import asyncio

import pytest

from repro.graphs.generators import grid_network
from repro.obs.prometheus import render_prometheus
from repro.serve import (
    Overloaded,
    PublishRequest,
    QueryRequest,
    ServiceConfig,
    TrackingService,
    VirtualClock,
    WallClock,
)

NET = grid_network(4, 4)


def run(coro):
    return asyncio.run(coro)


def test_queue_rejection_is_token_neutral():
    """A queue-bounced request must not consume a rate token."""

    async def scenario():
        cfg = ServiceConfig(
            shards=1,
            queue_capacity=4,
            rate_limit=100.0,
            burst=8.0,
        )
        service = TrackingService(NET, cfg, seed=1, clock=VirtualClock())
        await service.start()
        # fill the single shard's queue with admission-exempt publishes
        # (no token spent, no clock advance: the worker never runs)
        for i in range(4):
            service.submit_nowait(PublishRequest(f"obj-{i}", NET.node_at(i)))
        assert service.total_depth == 4
        assert service._bucket.tokens == pytest.approx(8.0)
        with pytest.raises(Overloaded) as exc_info:
            service.submit_nowait(QueryRequest("obj-0", NET.node_at(9)))
        assert exc_info.value.reason == "queue"
        # pre-fix: the limiter charged a token before the queue check,
        # leaving 7.0 here even though nothing was admitted
        assert service._bucket.tokens == pytest.approx(8.0)
        assert service.metrics.rejected_queue == 1
        assert service.metrics.rejected_rate == 0
        await service.stop()

    run(scenario())


def test_rate_rejection_counts_on_the_target_shard():
    """Rate rejections land in the shard's SLI counter like queue ones."""

    async def scenario():
        cfg = ServiceConfig(
            shards=1, queue_capacity=64, rate_limit=10.0, burst=1.0
        )
        service = TrackingService(NET, cfg, seed=1, clock=VirtualClock())
        await service.start()
        await service.submit_warmup(PublishRequest("tiger", NET.node_at(0)))
        fut = service.submit_nowait(QueryRequest("tiger", NET.node_at(1)))
        with pytest.raises(Overloaded) as exc_info:
            service.submit_nowait(QueryRequest("tiger", NET.node_at(2)))
        assert exc_info.value.reason == "rate"
        assert service.shards[0].rejected == 1
        await service.stop()
        assert (await fut).kind == "query"

    run(scenario())


def test_warmup_not_counted_as_admitted():
    """Bring-up publishes stay out of the admitted-ops denominators."""

    async def scenario():
        service = TrackingService(
            NET, ServiceConfig(shards=2), seed=1, clock=VirtualClock()
        )
        await service.start()
        futs = [
            service.submit_warmup(PublishRequest(f"obj-{i}", NET.node_at(i)))
            for i in range(4)
        ]
        resp = await service.submit(QueryRequest("obj-0", NET.node_at(15)))
        assert resp.kind == "query"
        await service.stop()
        await asyncio.gather(*futs)
        m = service.metrics
        # pre-fix: admitted == {"publish": 4, "query": 1} and every
        # SLI dividing by admitted ops was inflated by bring-up
        assert m.admitted == {"query": 1}
        assert m.warmup == {"publish": 4}
        assert m.total_admitted == 1
        assert m.total_warmup == 4
        assert m.counters["serve.warmup.publish"] == 4
        assert "serve.admitted.publish" not in m.counters
        text = render_prometheus(m.perf_view())
        assert "repro_serve_warmup_publish_total" in text
        assert "repro_serve_admitted_publish_total" not in text
        # queue-depth is observed at admission only, not at bring-up
        assert m.queue_depth.count == 1

    run(scenario())


def test_queue_retry_after_reflects_backlog_under_wall_clock():
    """``retry_after`` grows with queue depth instead of staying constant."""

    async def scenario():
        base = 1e-3
        cfg = ServiceConfig(
            shards=1, queue_capacity=6, service_time_base_s=base
        )
        service = TrackingService(NET, cfg, seed=1, clock=WallClock())
        await service.start()
        # no awaits between submits: the worker never gets scheduled, so
        # all six sit in the queue when the seventh arrives
        for i in range(6):
            service.submit_nowait(PublishRequest(f"obj-{i}", NET.node_at(i)))
        with pytest.raises(Overloaded) as exc_info:
            service.submit_nowait(PublishRequest("obj-6", NET.node_at(6)))
        assert exc_info.value.reason == "queue"
        # pre-fix: busy_until never advances under a wall clock, so the
        # hint was always exactly `base` no matter the backlog
        assert exc_info.value.retry_after_s == pytest.approx(6 * base)
        assert exc_info.value.retry_after_s > base
        await service.stop()

    run(scenario())


@pytest.mark.parametrize("workers", [0, 2])
def test_per_shard_slis_leave_warmup_out(workers):
    """Per-shard and service-wide SLI counts agree with the admitted count.

    Pre-fix, warm-up publishes landed in every shard's ``submitted``,
    ``completed_ops`` and ``latency``, so the per-shard sums exceeded
    ``metrics.total_admitted`` by the catalogue size; later they still
    landed in the service-wide ``completed`` and ``latency``.
    """
    timed = 12

    async def scenario():
        cfg = ServiceConfig(shards=2, workers=workers, queue_capacity=100)
        service = TrackingService(NET, cfg, seed=1, clock=WallClock())
        await service.start()
        warm = [
            service.submit_warmup(PublishRequest(f"obj-{i}", NET.node_at(i)))
            for i in range(6)
        ]
        await asyncio.gather(*warm)
        futs = [
            service.submit_nowait(QueryRequest(f"obj-{i % 6}", NET.node_at(15 - i)))
            for i in range(timed)
        ]
        await asyncio.gather(*futs)
        await service.stop()
        return service

    service = run(asyncio.wait_for(scenario(), timeout=60))
    m = service.metrics
    assert m.total_warmup == 6
    assert m.total_admitted == timed
    assert sum(s.submitted for s in service.shards) == m.total_admitted
    assert sum(s.completed_ops for s in service.shards) == timed
    assert sum(s.latency.count for s in service.shards) == timed
    # service-wide SLIs leave bring-up out too
    assert m.total_completed == m.total_admitted
    assert "publish" not in m.latency and "publish" not in m.completed
