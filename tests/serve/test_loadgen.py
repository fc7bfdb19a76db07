"""Load-generator and measured-run determinism.

The reproducibility contract of the service layer: the arrival trace
is a pure function of (workload, rate, seed), and a whole virtual-clock
:func:`~repro.serve.bench.drive_workload` run — admission decisions,
latency percentiles, audit, span trace — is byte-identical across
repeats of the same arguments.
"""

import asyncio
import json
import time

import pytest

from repro.core.costs import close_to
from repro.graphs.generators import grid_network
from repro.obs.export import JsonlTraceWriter
from repro.perf import TimerStat
from repro.serve import arrival_trace, drive_workload, trace_digest
from repro.serve.clock import WallClock
from repro.serve.loadgen import replay
from repro.serve.service import ServiceConfig, TrackingService
from repro.sim.workload import make_workload

NET = grid_network(5, 5)

#: 8 objects x 6 moves + 20 queries on the 5x5 grid, seed 11
SMALL_WL = make_workload(NET, num_objects=8, moves_per_object=6, num_queries=20, seed=11)
SMALL_CFG = ServiceConfig(shards=2, batch_size=16)


def small_run(service=SMALL_CFG, **kw):
    """One run of the small workload (virtual clock, 200 ops/s, seed 11 by default)."""
    return drive_workload(NET, SMALL_WL, service, **{"rate": 200.0, "seed": 11, **kw})


class TestArrivalTrace:
    def test_same_seed_same_trace(self):
        wl = make_workload(NET, 5, 8, num_queries=10, seed=3)
        a = arrival_trace(wl, rate=100.0, seed=3)
        b = arrival_trace(wl, rate=100.0, seed=3)
        assert a == b
        assert trace_digest(a) == trace_digest(b)

    def test_different_seed_or_rate_changes_trace(self):
        wl = make_workload(NET, 5, 8, num_queries=10, seed=3)
        base = trace_digest(arrival_trace(wl, rate=100.0, seed=3))
        assert trace_digest(arrival_trace(wl, rate=100.0, seed=4)) != base
        assert trace_digest(arrival_trace(wl, rate=50.0, seed=3)) != base

    def test_arrivals_are_sorted_and_complete(self):
        wl = make_workload(NET, 4, 5, num_queries=7, seed=5)
        trace = arrival_trace(wl, rate=80.0, seed=5)
        assert len(trace) == len(wl.moves) + len(wl.queries)
        times = [a.t for a in trace]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_rate_must_be_positive(self):
        wl = make_workload(NET, 2, 2, seed=1)
        with pytest.raises(ValueError, match="rate"):
            arrival_trace(wl, rate=0.0)


class TestServeBenchDeterminism:
    def test_two_runs_bit_identical(self):
        a = small_run()
        b = small_run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shape_and_audit(self):
        report = small_run()
        assert report["audit"]["ok"]
        assert report["audit"]["objects_checked"] == len(SMALL_WL.starts)
        lat = report["latency_ms"]["all"]
        assert lat["count"] == report["loadgen"]["completed"]
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"] <= lat["max_ms"]
        assert report["loadgen"]["throughput_ops_s"] > 0
        assert report["loadgen"]["trace_digest"]
        # all offered ops accounted for
        lg = report["loadgen"]
        assert lg["admitted"] + lg["rejected"]["total"] == lg["offered"]
        # due = submit on the virtual clock: no second latency row
        assert "scheduled_latency_ms" not in lg

    def test_seed_changes_report(self):
        a = small_run()
        b = small_run(seed=12)
        assert a["loadgen"]["trace_digest"] != b["loadgen"]["trace_digest"]

    def test_overload_run_rejects_and_stays_consistent(self):
        cfg = ServiceConfig(shards=2, queue_capacity=4, batch_size=4, service_time_base_s=5e-3)
        report = small_run(service=cfg, rate=5000.0)
        assert report["loadgen"]["rejected"]["queue"] > 0
        assert report["audit"]["ok"]

    def test_rate_limited_run_rejects_and_stays_consistent(self):
        cfg = ServiceConfig(shards=2, batch_size=16, rate_limit=100.0)
        report = small_run(service=cfg, rate=2000.0)
        assert report["loadgen"]["rejected"]["rate"] > 0
        assert report["audit"]["ok"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="clock"):
            small_run(clock="sundial")
        with pytest.raises(ValueError, match="rate"):
            small_run(rate=-1.0)

    def test_traced_runs_past_the_reservoir_cap_repeat_exactly(self, tmp_path):
        """Past TimerStat's reservoir cap, with both rejection reasons,
        two traced runs give equal reports and byte-identical traces."""
        net = grid_network(16, 16)
        wl = make_workload(net, num_objects=300, moves_per_object=10, num_queries=4000, seed=7)
        cfg = ServiceConfig(shards=4, batch_size=16, queue_capacity=32, rate_limit=1500.0)
        reports = []
        for name in ("a", "b"):
            with JsonlTraceWriter(tmp_path / f"{name}.jsonl") as sink:
                reports.append(drive_workload(net, wl, cfg, rate=2000.0, seed=7, trace=sink))
        a, b = reports
        assert a["loadgen"]["completed"] > TimerStat.RESERVOIR_CAP
        assert a["loadgen"]["rejected"]["rate"] > 0
        assert a["loadgen"]["rejected"]["queue"] > 0
        assert a["audit"]["ok"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        trace_a = (tmp_path / "a.jsonl").read_bytes()
        assert trace_a and trace_a == (tmp_path / "b.jsonl").read_bytes()


class TestWallClockLatency:
    def test_every_latency_row_times_submit_to_done(self):
        """``latency_ms.all`` counts the kinds' ops and averages their
        latencies; the generator's lateness is reported apart, as
        ``scheduled_latency_ms`` (due → done), which is never shorter."""
        net = grid_network(8, 8)
        wl = make_workload(net, num_objects=12, moves_per_object=20, num_queries=120, seed=3)
        report = drive_workload(
            net, wl, ServiceConfig(shards=2, batch_size=16), rate=2000.0, seed=3, clock="wall"
        )
        assert report["audit"]["ok"]
        lat = report["latency_ms"]
        kinds = [lat[k] for k in ("move", "query")]
        assert lat["all"]["count"] == sum(k["count"] for k in kinds) > 0
        weighted = sum(k["mean_ms"] * k["count"] for k in kinds) / lat["all"]["count"]
        assert close_to(lat["all"]["mean_ms"], weighted)
        scheduled = report["loadgen"]["scheduled_latency_ms"]
        assert scheduled["count"] == lat["all"]["count"]
        assert scheduled["mean_ms"] >= lat["all"]["mean_ms"]


class TestWallClockPacing:
    def test_no_op_is_submitted_before_it_is_due(self):
        """A wall-clock replay follows the arrival schedule: at 500 ops/s
        a ~200-op trace is submitted op by op at its due times, so the
        run takes at least the trace's span."""
        wl = make_workload(NET, 8, 13, num_queries=96, seed=5)
        trace = arrival_trace(wl, rate=500.0, seed=5)
        assert 190 <= len(trace) <= 210
        service = TrackingService(NET, ServiceConfig(shards=2), seed=5, clock=WallClock())
        submitted: list[float] = []
        submit = service.submit_nowait

        def stamped(req):
            submitted.append(service.clock.now)
            return submit(req)

        service.submit_nowait = stamped  # type: ignore[method-assign]

        async def scenario():
            await service.start()
            begin = service.clock.now
            t0 = time.perf_counter()
            result = await asyncio.wait_for(replay(service, wl, trace), timeout=30)
            return begin, time.perf_counter() - t0, result

        begin, elapsed, result = asyncio.run(scenario())
        assert len(submitted) == len(trace) == result.offered
        for arrival, at in zip(trace, submitted, strict=True):
            assert at >= begin + arrival.t, (arrival.t, at - begin)
        assert elapsed >= trace[-1].t
        assert result.completed == len(trace) and result.failed == 0
        # latency runs from submission; each op's due time precedes it
        assert all(resp.latency_s >= 0 for resp in result.responses)
        assert len(result.due) == len(result.responses)
        assert all(due <= resp.arrival_t for due, resp in zip(result.due, result.responses))
        assert result.first_arrival_t >= begin + trace[0].t

