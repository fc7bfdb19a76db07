"""The replay audit flags each kind of corruption once, on every surface.

:func:`~repro.core.batch.audit_replay` reads the state surface a
snapshot captures (``oplog``, ``query_log``, ``epochs``, ``ledger``),
so one audit covers a bare engine, a service's in-process shards and a
worker shard's state after ``stop()``. Each surface first audits clean;
then one of its query proxies, epochs, ledger counts or ledger sums is
corrupted, and exactly that mismatch must show, once.
"""

import asyncio

import pytest

from repro.core.batch import BatchMOTEngine, OpBatch, audit_replay
from repro.core.mot import MOTConfig
from repro.graphs.generators import grid_network
from repro.serve import (
    MoveRequest,
    PublishRequest,
    QueryRequest,
    ServiceConfig,
    ShardSnapshot,
    TrackingService,
    VirtualClock,
    WallClock,
    audit_service,
)

NET = grid_network(6, 6)
OBJECTS = [f"obj-{i}" for i in range(6)]
#: publishes, two moves each, then three queries each, the last one a
#: duplicate of the first, so batched queries coalesce
OPS = (
    [("publish", obj, NET.node_at(5 * i)) for i, obj in enumerate(OBJECTS)]
    + [("move", obj, NET.node_at(5 * i + d)) for d in (1, 7) for i, obj in enumerate(OBJECTS)]
    + [("query", obj, NET.node_at(s)) for s in (35, 0, 35) for obj in OBJECTS]
)
REQUEST = {"publish": PublishRequest, "move": MoveRequest, "query": QueryRequest}


def _engine():
    engine = BatchMOTEngine.build(NET, MOTConfig(), seed=3)
    assert not engine.apply_ops(OpBatch.of(OPS)).errors
    assert any(rec.coalesced for rec in engine.query_log)
    return engine, (lambda: audit_replay(engine.hs, engine.config, [engine]))


def _service(workers: int):
    async def scenario():
        if workers:
            config, clock = ServiceConfig(workers=workers), WallClock()
        else:
            config, clock = ServiceConfig(shards=2), VirtualClock()
        service = TrackingService(NET, config, seed=3, clock=clock)
        await service.start()
        futs = [service.submit_nowait(REQUEST[kind](obj, node)) for kind, obj, node in OPS]
        await service.stop()
        await asyncio.gather(*futs)
        return service

    service = asyncio.run(scenario())
    shard = service.shard_of(OBJECTS[0])
    if workers:
        return shard._final, (lambda: audit_service(service))
    assert all(s.oplog for s in service.shards)  # both shards hold objects
    assert any(rec.coalesced for s in service.shards for rec in s.query_log)
    return shard._local.engine, (lambda: audit_service(service))


SURFACES = {
    "engine": _engine,
    "two-shard-service": lambda: _service(workers=0),
    "worker-service-after-stop": lambda: _service(workers=1),
}


def _corrupt_proxy(target) -> None:
    if isinstance(target, ShardSnapshot):
        rec, *rest = target.query_log
        wrong = next(v for v in NET.nodes if v != rec.proxy)
        object.__setattr__(target, "query_log", (rec._replace(proxy=wrong), *rest))
    else:
        column = target._query_log["proxy"]
        column[0] = (column[0] + 1) % NET.n


def _corrupt_epoch(target) -> None:
    if isinstance(target, ShardSnapshot):
        target.epochs[OBJECTS[0]] += 1
    else:
        target._epoch[target._row[OBJECTS[0]]] += 1


def _corrupt_ledger_count(target) -> None:
    target.ledger.query_ops += 1


def _corrupt_ledger_sum(target) -> None:
    target.ledger.maintenance_cost += 100.0


CORRUPTIONS = {
    "proxy": (_corrupt_proxy, "proxy_mismatches"),
    "epoch": (_corrupt_epoch, "epoch_mismatches"),
    "ledger-count": (_corrupt_ledger_count, "query_ops"),
    "ledger-sum": (_corrupt_ledger_sum, "maintenance_cost"),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_clean_surface_audits_ok(surface):
    _target, audit = SURFACES[surface]()
    report = audit()
    assert report.ok, report.as_dict()
    assert report.objects_checked == len(OBJECTS)
    assert report.moves_replayed == 2 * len(OBJECTS)
    assert report.queries_checked == 3 * len(OBJECTS)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_each_corruption_is_flagged_once(surface, corruption):
    target, audit = SURFACES[surface]()
    corrupt, flagged = CORRUPTIONS[corruption]
    corrupt(target)
    report = audit()
    assert not report.ok and report.mismatches == 1, report.as_dict()
    if flagged.endswith("_mismatches"):
        assert getattr(report, flagged) == 1
    else:
        assert report.ledger_mismatches[0].startswith(f"{flagged}: ")
