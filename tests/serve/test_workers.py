"""Multiprocess shard parity, health probes, and crash recovery.

The process boundary must be semantically invisible: the same workload
replayed against in-process shards (virtual clock, the deterministic
reference) and against forked worker processes (wall clock) must apply
the identical per-shard op streams — same ring, same FIFO — and
therefore produce identical proxies, epochs and (float-noise aside)
cost ledgers, with the sequential-replay audit green on both sides.
"""

import asyncio
import os
import signal

import pytest

from repro.core.batch import OpBatch
from repro.core.costs import close_to
from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork
from repro.serve import (
    MoveRequest,
    PublishRequest,
    QueryRequest,
    ServiceConfig,
    TrackingService,
    VirtualClock,
    WallClock,
    audit_service,
    arrival_trace,
    replay,
)
from repro.serve.worker import ShardWorker, WorkerSpec
from repro.sim.workload import make_workload

NET = grid_network(6, 6)


def run(coro):
    return asyncio.run(coro)


def drive(config, clock, seed=5):
    async def scenario():
        workload = make_workload(
            NET, num_objects=10, moves_per_object=4, num_queries=25, seed=seed
        )
        # parity precondition: no repeated (obj, source) query pair, so
        # coalescing — which depends on batch timing — cannot fire in
        # either mode and both sides execute every query
        pairs = [(q.obj, q.source) for q in workload.queries]
        assert len(pairs) == len(set(pairs))
        trace = arrival_trace(workload, rate=800.0, seed=seed)
        service = TrackingService(NET, config, seed=seed, clock=clock)
        await service.start()
        result = await replay(service, workload, trace)
        return service, result

    return asyncio.run(scenario())


def final_proxies(service):
    return {
        obj: ops[-1][1]
        for shard in service.shards
        for obj, ops in shard.oplog.items()
    }


class TestParity:
    def test_multiprocess_parity_with_inprocess(self):
        roomy = 100_000  # nothing rejected: both sides see every op
        ref_service, ref_result = drive(
            ServiceConfig(shards=2, queue_capacity=roomy), VirtualClock()
        )
        mp_service, mp_result = drive(
            ServiceConfig(workers=2, queue_capacity=roomy), WallClock()
        )
        for result in (ref_result, mp_result):
            d = result.as_dict()
            assert d["rejected"]["total"] == 0 and d["failed"] == 0
        assert mp_result.completed == ref_result.completed

        assert audit_service(ref_service).ok
        assert audit_service(mp_service).ok

        # same ring, same FIFO: per-shard histories match exactly
        assert final_proxies(mp_service) == final_proxies(ref_service)
        for ref_shard, mp_shard in zip(ref_service.shards, mp_service.shards):
            assert mp_shard.oplog == ref_shard.oplog
            assert mp_shard.epochs == ref_shard.epochs
        assert ref_service.metrics.queries_coalesced == 0
        assert mp_service.metrics.queries_coalesced == 0

        ref_ledger = ref_service.merged_ledger()
        mp_ledger = mp_service.merged_ledger()
        assert mp_ledger.maintenance_ops == ref_ledger.maintenance_ops
        assert mp_ledger.query_ops == ref_ledger.query_ops
        assert mp_ledger.noop_moves == ref_ledger.noop_moves
        assert close_to(mp_ledger.maintenance_cost, ref_ledger.maintenance_cost)
        assert close_to(mp_ledger.query_cost, ref_ledger.query_cost)
        assert close_to(mp_ledger.publish_cost, ref_ledger.publish_cost)
        assert close_to(
            mp_ledger.maintenance_optimal, ref_ledger.maintenance_optimal
        )

        # the parent's metrics count every timed op the workers applied;
        # bring-up publishes count under warmup alone
        m = mp_service.metrics
        assert m.batches >= len(mp_service.shards)
        assert m.failed == 0
        assert m.total_completed == mp_result.completed
        assert m.total_warmup == mp_result.warmup_completed


class TestHealth:
    def test_healthcheck_round_trips_through_the_workers(self):
        async def scenario():
            cfg = ServiceConfig(workers=2)
            service = TrackingService(NET, cfg, seed=1, clock=WallClock())
            await service.start()
            health = await service.healthcheck()
            assert health["ok"] and health["multiprocess"]
            assert [s["mode"] for s in health["shards"]] == ["process"] * 2
            pids = [s["pid"] for s in health["shards"]]
            assert len(set(pids)) == 2
            assert all(pid != os.getpid() for pid in pids)
            await service.stop()
            after = await service.healthcheck()
            assert not after["ok"]
            assert all(not s["alive"] for s in after["shards"])

        run(scenario())

    def test_virtual_clock_refuses_worker_processes(self):
        with pytest.raises(ValueError, match="wall clock"):
            TrackingService(
                NET, ServiceConfig(workers=2), seed=1, clock=VirtualClock()
            )

    def test_full_service_serves_without_its_matrix(self):
        # bring-up builds the overlay from balls and the request path
        # answers from static tables, so a ``full`` network computes no
        # row and no matrix, and a forked worker inherits none
        def untouched(net):
            stats = net.oracle_stats
            return stats["matrix_materialized"] is False and stats["rows_computed"] == 0

        ops = [("publish", f"o{i}", NET.node_at(i)) for i in range(8)]
        ops += [("move", f"o{i}", NET.node_at(35 - i)) for i in range(8)]
        ops += [("query", f"o{i}", NET.node_at(3 * i)) for i in range(8)]

        async def in_process(net):
            service = TrackingService(net, ServiceConfig(shards=2), seed=1, clock=WallClock())
            await service.start()
            assert untouched(net)
            for kind, obj, node in ops:
                request = {"publish": PublishRequest, "move": MoveRequest, "query": QueryRequest}
                await service.submit(request[kind](obj, node))
            assert untouched(net)
            await service.stop()

        net = SensorNetwork(NET.graph, normalize=False)
        run(in_process(net))

        net = SensorNetwork(NET.graph, normalize=False)
        service = TrackingService(net, ServiceConfig(workers=1), seed=1)
        worker = ShardWorker(WorkerSpec(0, service.hierarchy, service.mot_config))
        kind, (_proxy, _cost, _epoch, _coalesced, errors) = worker.handle_batch(OpBatch.of(ops))
        assert kind == "results" and not errors
        assert untouched(net)
        # the final frame reads the ledger, which resolves the optima off
        # the rows of their distinct sources (the moves' old proxies, the
        # queries' sources) and leaves the matrix unbuilt
        assert worker.handle_stop(None)[1].ledger.maintenance_ops == 8
        stats = net.oracle_stats
        assert stats["matrix_materialized"] is False
        assert stats["rows_computed"] == len(set(range(8)) | {3 * i for i in range(8)})


class TestCrashRecovery:
    def test_worker_crash_restart_restores_from_snapshot(self):
        async def scenario():
            cfg = ServiceConfig(workers=1, queue_capacity=1000)
            service = TrackingService(NET, cfg, seed=4, clock=WallClock())
            await service.start()
            for i in range(4):
                await service.submit(PublishRequest(f"obj-{i}", NET.node_at(i)))
            await service.submit(MoveRequest("obj-0", NET.node_at(7)))
            handle = service.shards[0]
            snap = await handle.snapshot()
            assert snap.objects == ("obj-0", "obj-1", "obj-2", "obj-3")
            pid_before = (await handle.health())["pid"]

            handle._proc.kill()  # simulated crash, state gone with it
            handle._proc.join(5.0)
            dead = await handle.health()
            assert not dead["alive"]

            await handle.restart(snap)
            resp = await service.submit(QueryRequest("obj-0", NET.node_at(24)))
            assert resp.proxy == NET.node_at(7)
            assert resp.epoch == 1
            mv = await service.submit(MoveRequest("obj-0", NET.node_at(12)))
            assert mv.epoch == 2
            alive = await service.healthcheck()
            assert alive["ok"]
            assert alive["shards"][0]["pid"] != pid_before

            await service.stop()
            # restored history + post-crash ops replay clean end to end
            assert audit_service(service).ok
            assert len(handle.oplog["obj-0"]) == 3

        run(scenario())


class TestNoStrandedOps:
    """An admitted op resolves exactly once, even when its worker dies
    under it: the batch fails op by op, ``depth`` is restored, and
    ``stop()`` returns. (The drain task used to die on the closed
    channel, so the future never resolved and ``stop()`` hung.)"""

    @staticmethod
    async def bring_up():
        cfg = ServiceConfig(workers=1, queue_capacity=1000)
        service = TrackingService(NET, cfg, seed=4, clock=WallClock())
        await service.start()
        await service.submit(PublishRequest("obj-0", NET.node_at(0)))
        shard = service.shards[0]
        return service, shard, await shard.snapshot()

    def test_op_on_a_killed_worker_fails_and_restart_serves_again(self):
        async def scenario():
            service, shard, snap = await self.bring_up()
            shard._proc.kill()
            shard._proc.join(5.0)
            fut = service.submit_nowait(MoveRequest("obj-0", NET.node_at(7)))
            with pytest.raises(OSError):  # the closed channel, by value
                await asyncio.wait_for(fut, timeout=5)
            assert service.metrics.failed == 1 and shard.depth == 0
            assert not (await shard.health())["alive"]
            await asyncio.wait_for(shard.restart(snap), timeout=10)
            mv = await asyncio.wait_for(
                service.submit(MoveRequest("obj-0", NET.node_at(7))), timeout=5
            )
            assert mv.epoch == 1 and service.metrics.failed == 1
            await asyncio.wait_for(service.stop(), timeout=10)
            return service

        service = run(scenario())
        assert audit_service(service).ok
        assert service.shards[0].oplog["obj-0"][-1] == ("move", NET.node_at(7))

    def test_stop_returns_after_the_worker_died(self):
        async def scenario():
            service, shard, _snap = await self.bring_up()
            shard._proc.kill()
            shard._proc.join(5.0)
            futs = [
                service.submit_nowait(MoveRequest("obj-0", NET.node_at(i)))
                for i in (3, 4, 5)
            ]
            await asyncio.wait_for(service.stop(), timeout=10)
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            assert all(isinstance(o, OSError) for o in outcomes)
            assert service.metrics.failed == 3 and shard.depth == 0
            with pytest.raises(RuntimeError, match=r"stop\(\)"):
                _ = shard.oplog  # no final frame came home

        run(scenario())

    def test_restart_fails_the_batch_in_flight(self):
        """A stalled worker holds a batch; the restart that replaces it
        fails that batch explicitly, because whether the dead worker
        applied it is unknown."""

        async def scenario():
            service, shard, snap = await self.bring_up()
            stalled = shard._proc
            os.kill(stalled.pid, signal.SIGSTOP)
            try:
                fut = service.submit_nowait(MoveRequest("obj-0", NET.node_at(7)))
                await asyncio.sleep(0.2)  # the frame is sent; no reply comes
                assert not fut.done() and shard.depth == 1
                await asyncio.wait_for(shard.restart(snap), timeout=10)
            finally:
                if stalled.is_alive():  # never leave a stopped child behind
                    stalled.kill()
            assert not stalled.is_alive()
            with pytest.raises(RuntimeError, match="in flight"):
                await asyncio.wait_for(fut, timeout=1)
            assert service.metrics.failed == 1 and shard.depth == 0
            mv = await asyncio.wait_for(
                service.submit(MoveRequest("obj-0", NET.node_at(8))), timeout=5
            )
            assert mv.epoch == 1
            await asyncio.wait_for(service.stop(), timeout=10)

        run(scenario())


class TestOneShardFrontEnd:
    """In-process and worker shards share one front end; these pin the
    places where the two transports must still differ."""

    def test_worker_state_reads_before_stop_raise(self):
        """A running worker shard's logs live in the child: reading them
        (or auditing) before ``stop()`` must fail loudly, not look clean."""

        async def scenario():
            cfg = ServiceConfig(workers=1)
            service = TrackingService(NET, cfg, seed=2, clock=WallClock())
            await service.start()
            for i in range(3):
                await service.submit(PublishRequest(f"obj-{i}", NET.node_at(i)))
                await service.submit(MoveRequest(f"obj-{i}", NET.node_at(20 + i)))
            shard = service.shards[0]
            for view in ("epochs", "oplog", "query_log", "ledger"):
                with pytest.raises(RuntimeError, match=r"stop\(\)"):
                    getattr(shard, view)
            with pytest.raises(RuntimeError, match=r"stop\(\)"):
                audit_service(service)
            with pytest.raises(RuntimeError, match=r"stop\(\)"):
                service.merged_ledger()
            await service.stop()
            return service

        service = run(scenario())
        report = audit_service(service)
        assert report.ok
        assert report.objects_checked == 3 and report.moves_replayed == 3
        assert service.merged_ledger().maintenance_ops == 3

    def test_patched_worker_main_runs_in_the_child(self, monkeypatch, tmp_path):
        """The fork looks ``worker_main`` up on its module at fork time, so
        a wrapper installed there (a tracing hook) runs in every child."""
        import repro.serve.worker as worker_module

        original = worker_module.worker_main

        def wrapped(sock, spec, *args, **kwargs):
            (tmp_path / f"ran-{os.getpid()}").write_text(str(spec.shard_id))
            return original(sock, spec, *args, **kwargs)

        monkeypatch.setattr(worker_module, "worker_main", wrapped)

        async def scenario():
            cfg = ServiceConfig(workers=2)
            service = TrackingService(NET, cfg, seed=1, clock=WallClock())
            await service.start()
            health = await service.healthcheck()
            await service.stop()
            return health

        health = run(scenario())
        ran = {int(path.name.split("-")[1]) for path in tmp_path.glob("ran-*")}
        assert ran == {s["pid"] for s in health["shards"]}
        assert os.getpid() not in ran

    def test_workers_inherit_the_engine_tables(self, monkeypatch, tmp_path):
        """The service builds the engine tables before it forks, so a
        worker's engine finds them cached: a table build in a child
        leaves a marker file."""
        import repro.core.batch as batch_module
        import repro.serve.worker as worker_module

        original = worker_module.worker_main

        def wrapped(sock, spec, *args, **kwargs):
            build = batch_module._Tables.__init__

            def marked(self, *a, **k):
                (tmp_path / f"built-{os.getpid()}").write_text("")
                build(self, *a, **k)

            batch_module._Tables.__init__ = marked  # in the child only
            (tmp_path / f"ran-{os.getpid()}").write_text("")
            return original(sock, spec, *args, **kwargs)

        monkeypatch.setattr(worker_module, "worker_main", wrapped)

        async def scenario():
            service = TrackingService(NET, ServiceConfig(workers=2), seed=1, clock=WallClock())
            await service.start()
            await service.submit(PublishRequest("o", NET.node_at(3)))
            health = await service.healthcheck()
            await service.stop()
            return health

        health = run(scenario())
        assert health["ok"]
        assert len(list(tmp_path.glob("ran-*"))) == 2
        assert list(tmp_path.glob("built-*")) == []

    def test_stopped_worker_exits_cleanly(self):
        """``stop()`` joins the worker after its final frame, never kills it."""

        async def scenario():
            cfg = ServiceConfig(workers=1)
            service = TrackingService(NET, cfg, seed=1, clock=WallClock())
            await service.start()
            await service.submit(PublishRequest("tiger", NET.node_at(0)))
            proc = service.shards[0]._proc
            await service.stop()
            return proc, await service.healthcheck()

        proc, after = run(scenario())
        assert proc.exitcode == 0
        # the final frame carried the state home for the probe to report
        assert after["shards"][0]["objects"] == 1
        assert not after["shards"][0]["alive"] and "pid" not in after["shards"][0]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_only_worker_shards_report_a_pid(self, workers):
        async def scenario():
            cfg = ServiceConfig(shards=2, workers=workers)
            service = TrackingService(NET, cfg, seed=1, clock=WallClock())
            await service.start()
            health = await service.healthcheck()
            procs = [shard._proc for shard in service.shards]
            await service.stop()
            return health, procs

        health, procs = run(scenario())
        assert health["ok"]
        if workers:
            assert [s["mode"] for s in health["shards"]] == ["process"] * 2
            assert [s["pid"] for s in health["shards"]] == [p.pid for p in procs]
        else:
            assert [s["mode"] for s in health["shards"]] == ["inprocess"] * 2
            assert all("pid" not in s for s in health["shards"])

    def test_inprocess_restart_restores_and_keeps_serving(self):
        async def scenario():
            cfg = ServiceConfig(shards=1, queue_capacity=1000)
            service = TrackingService(NET, cfg, seed=4, clock=WallClock())
            await service.start()
            for i in range(4):
                await service.submit(PublishRequest(f"obj-{i}", NET.node_at(i)))
            await service.submit(MoveRequest("obj-0", NET.node_at(7)))
            shard = service.shards[0]
            snap = await shard.snapshot()

            await shard.restart(snap)
            assert shard.oplog == snap.oplog  # a fresh engine, restored
            resp = await service.submit(QueryRequest("obj-0", NET.node_at(24)))
            assert resp.proxy == NET.node_at(7) and resp.epoch == 1
            mv = await service.submit(MoveRequest("obj-0", NET.node_at(12)))
            assert mv.epoch == 2
            assert (await service.healthcheck())["ok"]
            await service.stop()
            return service

        service = run(scenario())
        report = audit_service(service)
        assert report.ok and report.objects_checked == 4
        assert len(service.shards[0].oplog["obj-0"]) == 3
