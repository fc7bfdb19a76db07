"""Tracing is observationally transparent: enabling it changes nothing.

The property the whole design rests on: recording spans must not touch
RNG streams, cost ledgers, or scheduling decisions. Every test here
runs the same seeded scenario twice — tracer off, then tracer on with
a collecting sink — and asserts bit-identical observable results:
:class:`CostLedger` totals, measured serve runs' reports (including the
``trace_digest``), and the chaos report's fault/consistency invariants.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mot import MOTTracker
from repro.experiments.chaos import run_chaos
from repro.experiments.config import ChaosExperiment
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.obs.trace import TRACER, tracing
from repro.serve import ServiceConfig, drive_workload
from repro.sim.workload import MoveOp, QueryOp, make_workload


def run_workload(seed: int) -> tuple[dict, list]:
    """One sequential MOT run; returns (ledger fields, query answers)."""
    net = grid_network(6, 6)
    hs = build_hierarchy(net, seed=seed)
    tracker = MOTTracker(hs)
    wl = make_workload(
        net, num_objects=4, moves_per_object=6, num_queries=10, seed=seed
    )
    for obj, start in wl.starts.items():
        tracker.publish(obj, start)
    answers = []
    for op in wl.op_stream(seed):
        if isinstance(op, MoveOp):
            tracker.move(op.obj, op.new)
        elif isinstance(op, QueryOp):
            res = tracker.query(op.obj, op.source)
            answers.append((op.obj, res.proxy, res.cost))
    return dataclasses.asdict(tracker.ledger), answers


class TestCoreTransparency:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_ledger_and_answers_identical_with_tracer_on(self, seed):
        baseline_ledger, baseline_answers = run_workload(seed)
        events = []
        with tracing(sink=events.append):
            traced_ledger, traced_answers = run_workload(seed)
        assert traced_ledger == baseline_ledger
        assert traced_answers == baseline_answers
        # and the trace actually observed the run
        assert any(e.kind == "move" for e in events)
        assert any(e.kind == "query" for e in events)

    def test_traced_hops_sum_to_recorded_cost(self):
        events = []
        with tracing(sink=events.append):
            run_workload(seed=3)
        spans = [
            e for e in events
            if e.kind in ("publish", "query") and e.cost is not None
        ]
        assert spans
        for ev in spans:
            assert abs(ev.hop_cost - ev.cost) < 1e-9


class TestServeBenchTransparency:
    def test_traced_report_matches_untraced(self):
        net = grid_network(8, 8)
        wl = make_workload(net, num_objects=8, moves_per_object=4, num_queries=20, seed=11)
        cfg = ServiceConfig(batch_size=16)
        plain = drive_workload(net, wl, cfg, rate=300.0, seed=11)
        events = []
        traced = drive_workload(net, wl, cfg, rate=300.0, seed=11, trace=events.append)
        assert traced == plain
        assert {e.kind for e in events} >= {"serve.publish", "serve.move", "serve.query"}


class TestChaosTransparency:
    def test_chaos_report_identical_with_tracer_on(self):
        exp = ChaosExperiment(
            side=6, num_objects=4, moves_per_object=6, num_queries=10,
            seed=2, message_loss=0.15, delay_jitter=0.25, num_crashes=1,
            crash_duration=30.0, fault_seed=5,
        )
        baseline = run_chaos(exp).as_dict()
        events = []
        with tracing(sink=events.append):
            traced = run_chaos(exp).as_dict()
        assert traced == baseline
        assert baseline["consistency"]["ok"]
        # fault-layer activity shows up as message/retry point events
        assert any(e.kind == "message" for e in events)
        dropped = sum(
            1 for e in events if e.annotations.get("dropped")
        )
        assert dropped == (
            baseline["delivery"]["dropped_loss"]
            + baseline["delivery"]["dropped_crash"]
        )


class TestGlobalTracerDefault:
    def test_process_tracer_ships_disabled(self):
        assert TRACER.enabled is False
