"""Service-layer behaviour: client API, sharding, coalescing, audit."""

import asyncio
import multiprocessing

import pytest

from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network
from repro.serve import (
    MoveRequest,
    PublishRequest,
    QueryRequest,
    ServiceClient,
    ServiceConfig,
    TrackingService,
    VirtualClock,
    WallClock,
    audit_service,
    shard_index,
)

NET = grid_network(6, 6)


def run(coro):
    return asyncio.run(coro)


class TestClientRoundTrip:
    def test_publish_move_query(self):
        async def scenario():
            async with TrackingService(NET, seed=1) as service:
                client = ServiceClient(service)
                pub = await client.publish("tiger", NET.node_at(0))
                assert pub.kind == "publish" and pub.epoch == 0
                mv = await client.move("tiger", NET.node_at(1))
                assert mv.kind == "move" and mv.epoch == 1
                resp = await client.query("tiger", NET.node_at(35))
                assert resp.proxy == NET.node_at(1)
                assert resp.cost > 0.0
                assert resp.latency_s >= 0.0
                return audit_service(service)

        report = run(scenario())
        assert report.ok
        assert report.objects_checked == 1
        assert report.moves_replayed == 1
        assert report.queries_checked == 1

    def test_query_unpublished_object_fails(self):
        async def scenario():
            async with TrackingService(NET, seed=1) as service:
                client = ServiceClient(service)
                with pytest.raises(KeyError):
                    await client.query("ghost", NET.node_at(0))
                return service.metrics.failed

        assert run(scenario()) == 1

    def test_submit_before_start_rejected(self):
        service = TrackingService(NET, seed=1)
        with pytest.raises(RuntimeError, match="not running"):
            service.submit_nowait(QueryRequest("tiger", NET.node_at(0)))


class TestSharding:
    def test_shard_index_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for i in range(40):
                idx = shard_index(f"obj-{i}", shards)
                assert 0 <= idx < shards
                assert idx == shard_index(f"obj-{i}", shards)

    def test_objects_partition_across_shards(self):
        async def scenario():
            cfg = ServiceConfig(shards=4)
            async with TrackingService(NET, cfg, seed=2) as service:
                client = ServiceClient(service)
                for i in range(24):
                    await client.publish(f"obj-{i}", NET.node_at(i))
                owners = [
                    s.shard_id for s in service.shards for _ in s.oplog
                ]
                populated = {s.shard_id for s in service.shards if s.oplog}
                assert len(owners) == 24
                # CRC32 spreads 24 objects over all 4 shards
                assert len(populated) == 4
                for s in service.shards:
                    for obj in s.oplog:
                        assert shard_index(obj, 4) == s.shard_id
                return audit_service(service)

        assert run(scenario()).ok

    def test_per_object_order_survives_sharding(self):
        async def scenario():
            cfg = ServiceConfig(shards=3, batch_size=4)
            async with TrackingService(NET, cfg, seed=3) as service:
                client = ServiceClient(service)
                walk = [NET.node_at(i) for i in (0, 1, 2, 8, 14)]
                for i in range(6):
                    await client.publish(f"obj-{i}", walk[0])
                futs = []
                for step in walk[1:]:
                    for i in range(6):
                        futs.append(
                            service.submit_nowait(MoveRequest(f"obj-{i}", step))
                        )
                await asyncio.gather(*futs)
                for i in range(6):
                    shard = service.shard_of(f"obj-{i}")
                    ops = shard.oplog[f"obj-{i}"]
                    assert [node for _, node in ops] == walk
                return audit_service(service)

        assert run(scenario()).ok


class TestCoalescing:
    def test_same_epoch_queries_coalesce(self):
        async def scenario():
            cfg = ServiceConfig(shards=1, batch_size=8)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=4, clock=clock)
            await service.start()
            fut = service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))
            clock.advance(1.0)
            await asyncio.sleep(0)
            await fut
            # two queries land in the same drained batch, same epoch,
            # same source — only same-source duplicates may coalesce
            # (cost is charged from the querying node's position)
            f1 = service.submit_nowait(QueryRequest("tiger", NET.node_at(35)))
            f2 = service.submit_nowait(QueryRequest("tiger", NET.node_at(35)))
            clock.advance(2.0)
            r1, r2 = await asyncio.gather(f1, f2)
            await service.stop()
            assert not r1.coalesced
            assert r2.coalesced
            assert r2.proxy == r1.proxy
            assert service.metrics.queries_coalesced == 1
            # a coalesced op is charged zero extra virtual service time
            assert r2.completion_t == r1.completion_t
            return audit_service(service)

        assert run(scenario()).ok

    def test_different_sources_do_not_share_answers(self):
        # regression: coalescing once keyed on (obj, epoch) only, so a
        # query from a far node was "answered" with the near node's
        # cost — and the audit's coalesced-record exemption hid it
        async def scenario():
            cfg = ServiceConfig(shards=1, batch_size=8)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=4, clock=clock)
            await service.start()
            fut = service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))
            clock.advance(1.0)
            await asyncio.sleep(0)
            await fut
            near, far = NET.node_at(1), NET.node_at(35)
            f1 = service.submit_nowait(QueryRequest("tiger", near))
            f2 = service.submit_nowait(QueryRequest("tiger", far))
            clock.advance(2.0)
            r1, r2 = await asyncio.gather(f1, f2)
            await service.stop()
            assert not r1.coalesced and not r2.coalesced
            assert r2.cost > r1.cost  # each charged from its own source
            return audit_service(service)

        assert run(scenario()).ok

    def test_audit_checks_every_answer_exactly_once(self):
        # mixed coalesced + direct queries in one batch: the audit must
        # replay and cost-check all of them — queries_checked equals the
        # number of answered queries, with no exemption for coalesced
        # records
        async def scenario():
            cfg = ServiceConfig(shards=1, batch_size=16)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=4, clock=clock)
            await service.start()
            fut = service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))
            clock.advance(1.0)
            await asyncio.sleep(0)
            await fut
            sources = [35, 35, 30, 35, 30, 7]  # 2 coalesce per dup source
            futs = [
                service.submit_nowait(QueryRequest("tiger", NET.node_at(s)))
                for s in sources
            ]
            clock.advance(2.0)
            responses = await asyncio.gather(*futs)
            await service.stop()
            coalesced = [r for r in responses if r.coalesced]
            assert len(coalesced) == 3  # one extra 35, one extra 35, one 30
            shard = service.shard_of("tiger")
            assert len(shard.query_log) == len(sources)
            report = audit_service(service)
            assert report.queries_checked == len(sources)
            assert report.ok
            return report

        run(scenario())

    def test_audit_catches_wrong_cost_on_coalesced_record(self):
        # the exemption removal has teeth: corrupt one coalesced
        # record's cost and the audit must flag it

        async def scenario():
            cfg = ServiceConfig(shards=1, batch_size=8)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=4, clock=clock)
            await service.start()
            fut = service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))
            clock.advance(1.0)
            await asyncio.sleep(0)
            await fut
            f1 = service.submit_nowait(QueryRequest("tiger", NET.node_at(35)))
            f2 = service.submit_nowait(QueryRequest("tiger", NET.node_at(35)))
            clock.advance(2.0)
            await asyncio.gather(f1, f2)
            await service.stop()
            shard = service.shard_of("tiger")
            assert shard.query_log[1].coalesced
            # the log is a view; corrupt the engine's query-cost column
            cost = shard._local.engine._query_log["cost"]
            cost[1] += 100.0
            assert shard.query_log[1].cost == shard.query_log[0].cost + 100.0
            return audit_service(service)

        report = run(scenario())
        assert not report.ok
        assert report.cost_mismatches == 1

    def test_move_bumps_epoch_and_stops_coalescing(self):
        async def scenario():
            cfg = ServiceConfig(shards=1, batch_size=8)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=5, clock=clock)
            await service.start()
            futs = [service.submit_nowait(PublishRequest("tiger", NET.node_at(0)))]
            futs.append(service.submit_nowait(QueryRequest("tiger", NET.node_at(7))))
            futs.append(service.submit_nowait(MoveRequest("tiger", NET.node_at(1))))
            futs.append(service.submit_nowait(QueryRequest("tiger", NET.node_at(7))))
            clock.advance(1.0)
            responses = await asyncio.gather(*futs)
            await service.stop()
            q_before, q_after = responses[1], responses[3]
            assert q_before.epoch == 0 and not q_before.coalesced
            assert q_after.epoch == 1 and not q_after.coalesced
            assert q_after.proxy == NET.node_at(1)
            return audit_service(service)

        assert run(scenario()).ok


class TestDrainAndLedger:
    def test_stop_completes_every_admitted_op(self):
        async def scenario():
            cfg = ServiceConfig(shards=2, batch_size=4)
            clock = VirtualClock()
            service = TrackingService(NET, cfg, seed=6, clock=clock)
            await service.start()
            futs = [
                service.submit_nowait(PublishRequest(f"obj-{i}", NET.node_at(i)))
                for i in range(10)
            ]
            futs += [
                service.submit_nowait(QueryRequest(f"obj-{i}", NET.node_at(20)))
                for i in range(10)
            ]
            await service.stop()  # graceful drain, no clock advancing needed
            responses = await asyncio.gather(*futs)
            assert len(responses) == 20
            assert service.total_depth == 0
            return service

        service = run(scenario())
        assert audit_service(service).ok

    def test_merged_ledger_folds_all_shards(self):
        async def scenario():
            cfg = ServiceConfig(shards=3)
            async with TrackingService(NET, cfg, seed=7) as service:
                client = ServiceClient(service)
                for i in range(9):
                    await client.publish(f"obj-{i}", NET.node_at(i))
                    await client.move(f"obj-{i}", NET.node_at(i + 6))
                    await client.query(f"obj-{i}", NET.node_at(30))
                return service

        service = run(scenario())
        ledger = service.merged_ledger()
        assert ledger.maintenance_ops == 9
        assert ledger.query_ops == 9
        per_shard = sum(s.ledger.query_ops for s in service.shards)
        assert per_shard == 9

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ServiceConfig(shards=0)
        with pytest.raises(ValueError, match="batch_size"):
            ServiceConfig(batch_size=0)
        with pytest.raises(ValueError, match="rate_limit"):
            ServiceConfig(rate_limit=-1.0)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_parent_sets_refused_before_any_shard_starts(self, workers):
        """The engine needs single default-parent chains; the service says
        so up front. Pre-fix, a worker built with parent sets raised before
        its ready frame and ``healthcheck()`` waited for ever."""
        before = set(multiprocessing.active_children())

        async def scenario():
            with pytest.raises(ValueError, match="use_parent_sets"):
                TrackingService(
                    NET,
                    ServiceConfig(workers=workers),
                    seed=1,
                    clock=WallClock(),
                    mot_config=MOTConfig(use_parent_sets=True),
                )

        run(asyncio.wait_for(scenario(), timeout=30))
        assert set(multiprocessing.active_children()) <= before
