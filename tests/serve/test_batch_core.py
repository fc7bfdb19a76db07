"""ShardWorker's one apply path against the sequential reference.

A shard applies each drained batch as one
:class:`~repro.core.batch.BatchMOTEngine` call. The contract: whatever
the chunking, the per-op results equal applying the same request
stream op by op through a :class:`~repro.core.mot.MOTTracker`
(duplicate queries coalescing within a chunk), the engine-owned logs
pass the sequential replay audit, and a snapshot restores and
continues on the same path.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import asyncio

from repro.core.batch import BatchMOTEngine, OpBatch, audit_batch_core
from repro.core.costs import CostLedger, close_to
from repro.core.mot import MOTConfig, MOTTracker
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.serve.audit import audit_service
from repro.serve.protocol import MoveRequest, PublishRequest, QueryRequest, kind_of
from repro.serve.clock import VirtualClock
from repro.serve.metrics import ServiceMetrics
from repro.serve.shard import TrackerShard, shard_sli
from repro.serve.snapshot import ShardSnapshot, capture_snapshot, restore_snapshot
from repro.serve.worker import ShardWorker, WorkerSpec

NET = grid_network(5, 5)
HIER = build_hierarchy(NET, seed=2)
CHUNKS = (1, 7, 64, 1024)


def make_core() -> ShardWorker:
    return ShardWorker(WorkerSpec(0, HIER, MOTConfig()))


def _request_stream(seed: int = 13, objects: int = 6, n: int = 300):
    """A FIFO request mix with duplicate queries and injected errors.

    Errors: moves and queries of never-published objects, second
    publishes, and nodes that are not sensors of the network.
    """
    rng = random.Random(seed)
    reqs: list = [
        PublishRequest(f"obj-{i}", NET.node_at(rng.randrange(NET.n)))
        for i in range(objects)
    ]
    for _ in range(n):
        obj = f"obj-{rng.randrange(objects + 1)}"  # obj-<objects> is a ghost
        node = NET.node_at(rng.randrange(NET.n))
        r = rng.random()
        if r < 0.03:
            reqs.append(PublishRequest(obj, node))
        elif r < 0.06:
            reqs.append(MoveRequest(obj, "nowhere"))
        elif r < 0.4:
            reqs.append(MoveRequest(obj, node))
        elif r < 0.7:
            reqs.append(QueryRequest(obj, node))
        else:
            # repeat a query verbatim to exercise coalescing
            reqs.append(QueryRequest(obj, NET.node_at(0)))
    return reqs


def _reference(reqs, chunk: int) -> list[tuple]:
    """Op-by-op results of a sequential MOTTracker, coalescing per chunk."""
    tracker = MOTTracker(HIER)
    epochs: dict[str, int] = {}
    results: list[tuple] = []
    for i in range(0, len(reqs), chunk):
        answered: dict = {}
        for req in reqs[i : i + chunk]:
            try:
                if isinstance(req, PublishRequest):
                    res = tracker.publish(req.obj, req.proxy)
                    epochs[req.obj] = 0
                    results.append(("ok", req.proxy, res.cost, 0, False))
                elif isinstance(req, MoveRequest):
                    res = tracker.move(req.obj, req.new_proxy)
                    if res.new_proxy != res.old_proxy:
                        epochs[req.obj] += 1
                    results.append(
                        ("ok", req.new_proxy, res.cost, epochs[req.obj], False)
                    )
                else:
                    key = (req.obj, epochs.get(req.obj, -1), req.source)
                    hit = answered.get(key)
                    if hit is not None:
                        results.append(("ok", hit[0], hit[1], key[1], True))
                        continue
                    res = tracker.query(req.obj, req.source)
                    answered[key] = (res.proxy, res.cost)
                    results.append(("ok", res.proxy, res.cost, key[1], False))
            except Exception as exc:  # noqa: BLE001 - parity needs them all
                results.append(("err", exc))
    return results


def _apply(core: ShardWorker, reqs) -> list[tuple]:
    """One ``batch`` request through the worker's handler, as per-op
    ``("ok", proxy, cost, epoch, coalesced)`` or ``("err", exc)``."""
    ops = OpBatch.of((kind_of(req), req.obj, req.node) for req in reqs)
    kind, (proxy, cost, epoch, coalesced, errors) = core.handle_batch(ops)
    assert kind == "results" and len(proxy) == len(reqs)
    return [
        ("err", errors[i])
        if i in errors
        else ("ok", NET.node_at(proxy[i]), cost[i], epoch[i], coalesced[i])
        for i in range(len(reqs))
    ]


def _drive(core: ShardWorker, reqs, chunk: int) -> list[tuple]:
    results = []
    for i in range(0, len(reqs), chunk):
        results.extend(_apply(core, reqs[i : i + chunk]))
    return results


def _assert_same(reqs, got, want) -> None:
    assert len(got) == len(want) == len(reqs)
    for k, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a[0] == b[0], (k, reqs[k], a, b)
        if a[0] == "err":
            assert type(a[1]) is type(b[1]) and str(a[1]) == str(b[1])
        else:
            assert a[1] == b[1], (k, reqs[k], a, b)  # proxy
            assert close_to(a[2], b[2]), (k, reqs[k], a, b)  # cost
            assert a[3] == b[3], (k, reqs[k], a, b)  # epoch
            assert a[4] == b[4], (k, reqs[k], a, b)  # coalesced


def _audit(core: ShardWorker):
    """The service's sequential replay audit over one core."""
    fleet = SimpleNamespace(hierarchy=HIER, mot_config=MOTConfig(), shards=[core])
    return audit_service(fleet)  # type: ignore[arg-type]


class TestApplyParity:
    def test_batch_results_match_scalar(self):
        for seed in (13, 14):
            reqs = _request_stream(seed=seed)
            for chunk in CHUNKS:
                core = make_core()
                got = _drive(core, reqs, chunk)
                _assert_same(reqs, got, _reference(reqs, chunk))
                assert any(r[0] == "err" for r in got)
                assert any(r[0] == "ok" and r[4] for r in got) == (chunk > 1)
                report = _audit(core)
                assert report.ok and report.queries_checked, report.as_dict()

    def test_batch_core_keeps_audit_logs(self):
        reqs = _request_stream()
        core = make_core()
        _drive(core, reqs, 16)
        # the core's views are built from the engine's own state
        assert core.oplog == core.engine.oplog
        assert core.query_log == core.engine.query_log
        assert core.ledger is core.engine.ledger
        ref = MOTTracker(HIER)
        for obj, ops in core.oplog.items():
            for op, node in ops:
                (ref.publish if op == "publish" else ref.move)(obj, node)
            assert ref.proxy_of(obj) == core.engine.proxy_of(obj)
        assert core.epochs == {
            obj: core.engine.epoch_of(obj) for obj in core.oplog
        }
        audit = audit_batch_core(core.engine)
        assert audit.ok, audit.as_dict()

    def test_errors_carried_in_place(self):
        core = make_core()
        res = _apply(
            core,
            [
                PublishRequest("a", NET.node_at(0)),
                PublishRequest("a", NET.node_at(1)),
                MoveRequest("ghost", NET.node_at(2)),
            ]
        )
        assert res[0][0] == "ok"
        assert res[1][0] == "err" and isinstance(res[1][1], ValueError)
        assert res[2][0] == "err" and isinstance(res[2][1], KeyError)
        # the failed ops never reached the audit logs
        assert list(core.oplog) == ["a"] and len(core.oplog["a"]) == 1


class TestSnapshotRoundTrip:
    def test_capture_restore_continues_on_one_path(self):
        reqs = _request_stream(seed=21, objects=4, n=60)
        tail = _request_stream(seed=22, objects=4, n=80)[4:]  # skip publishes
        src = make_core()
        _drive(src, reqs, 7)
        snap = capture_snapshot(src, shard_id=0)

        dst = make_core()
        restore_snapshot(dst, snap)
        assert dst.epochs == src.epochs
        assert dst.oplog == src.oplog
        assert dst.query_log == src.query_log
        assert dst.ledger == src.ledger

        # the restored core answers the continuation like the original
        res_src = _drive(src, tail, 7)
        res_dst = _drive(dst, tail, 7)
        _assert_same(tail, res_dst, res_src)
        assert _audit(dst).ok and _audit(src).ok


class _UnreadableLog(dict):
    """An op log whose every read fails the test."""

    def __len__(self) -> int:
        raise AssertionError("health read the op log")


def _refuse_view(_self):
    raise AssertionError("health built a log view")


def _shard(process: bool) -> TrackerShard:
    return TrackerShard(
        WorkerSpec(0, HIER, MOTConfig()),
        clock=VirtualClock(),
        metrics=ServiceMetrics(),
        batch_size=8,
        service_time_base_s=1e-3,
        process=process,
    )


class TestHealthBuildsNoLogView:
    """Health checks count published objects from the state columns."""

    def test_in_process_health_and_sli(self, monkeypatch):
        shard = _shard(process=False)
        _drive(shard._local, _request_stream(), 16)
        published = len(shard.epochs)
        assert published >= 6
        monkeypatch.setattr(BatchMOTEngine, "oplog", property(_refuse_view))
        monkeypatch.setattr(BatchMOTEngine, "query_log", property(_refuse_view))
        assert shard._local.handle_health(None) == ("healthy", {"objects": published})
        assert shard_sli(shard)["objects"] == published

        async def probe():
            shard.start()
            try:
                return await shard.health()
            finally:
                await shard.stop()

        assert asyncio.run(probe())["objects"] == published

    def test_stopped_worker_health_and_sli(self):
        shard = _shard(process=True)
        shard._final = ShardSnapshot(0, {"a": 0, "b": 3}, _UnreadableLog(), (), CostLedger())
        vitals = asyncio.run(shard.health())
        assert vitals["objects"] == 2 and not vitals["alive"]
        assert shard_sli(shard)["objects"] == 2

