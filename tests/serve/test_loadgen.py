"""Load-generator and serve-bench determinism.

The reproducibility contract of the service layer: the arrival trace
is a pure function of (workload, rate, seed), and a whole virtual-clock
``serve-bench`` run — admission decisions, latency percentiles, audit —
is byte-identical across repeats of the same configuration.
"""

import asyncio
import json
import time

import pytest

from repro.graphs.generators import grid_network
from repro.serve import ServeBenchConfig, arrival_trace, run_serve_bench, trace_digest
from repro.serve.clock import WallClock
from repro.serve.loadgen import replay
from repro.serve.service import ServiceConfig, TrackingService
from repro.sim.workload import make_workload

NET = grid_network(5, 5)

SMALL = dict(
    nodes=25,
    num_objects=8,
    moves_per_object=6,
    num_queries=20,
    shards=2,
    rate=200.0,
    seed=11,
)


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
        a = run_serve_bench(ServeBenchConfig(**SMALL))
        b = run_serve_bench(ServeBenchConfig(**SMALL))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_shape_and_audit(self):
        report = run_serve_bench(ServeBenchConfig(**SMALL))
        assert report["audit"]["ok"]
        assert report["audit"]["objects_checked"] == SMALL["num_objects"]
        lat = report["latency_ms"]["all"]
        assert lat["count"] == report["loadgen"]["completed"]
        assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"] <= lat["max_ms"]
        assert report["achieved_throughput_ops_s"] > 0
        assert report["loadgen"]["trace_digest"]
        # all offered ops accounted for
        lg = report["loadgen"]
        assert lg["admitted"] + lg["rejected"]["total"] == lg["offered"]

    def test_seed_changes_report(self):
        a = run_serve_bench(ServeBenchConfig(**SMALL))
        b = run_serve_bench(ServeBenchConfig(**{**SMALL, "seed": 12}))
        assert a["loadgen"]["trace_digest"] != b["loadgen"]["trace_digest"]

    def test_overload_run_rejects_and_stays_consistent(self):
        cfg = ServeBenchConfig(
            **{**SMALL, "rate": 5000.0},
            queue_capacity=4,
            batch_size=4,
            service_time_base_s=5e-3,
        )
        report = run_serve_bench(cfg)
        assert report["loadgen"]["rejected"]["queue"] > 0
        assert report["audit"]["ok"]

    def test_rate_limited_run_rejects_and_stays_consistent(self):
        cfg = ServeBenchConfig(**{**SMALL, "rate": 2000.0}, rate_limit=100.0)
        report = run_serve_bench(cfg)
        assert report["loadgen"]["rejected"]["rate"] > 0
        assert report["audit"]["ok"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="clock"):
            ServeBenchConfig(clock="sundial")
        with pytest.raises(ValueError, match="rate"):
            ServeBenchConfig(rate=-1.0)
        for name in ("landmark", "memmap"):
            with pytest.raises(ValueError, match="unknown distance_backend"):
                ServeBenchConfig(distance_backend=name)


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
        # latency runs from each arrival's due time, never before it
        assert all(resp.latency_s >= 0 for resp in result.responses)
        assert result.first_arrival_t >= begin + trace[0].t

