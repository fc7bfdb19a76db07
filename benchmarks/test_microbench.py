"""Classic micro-benchmarks: per-operation throughput and build costs.

Unlike the figure benches (one full experiment per timing), these use
pytest-benchmark's normal repeated-timing mode, so regressions in the
hot paths (move/query/concurrent event processing, hierarchy and
baseline construction) show up as timing changes.
"""

from __future__ import annotations

import random


from repro.baselines.stun import build_dab_tree
from repro.baselines.zdat import build_zdat_tree
from repro.core.mot import MOTTracker
from repro.core.mot_balanced import BalancedMOTTracker
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy
from repro.sim.workload import make_workload

NET = grid_network(16, 16)
WL = make_workload(NET, num_objects=20, moves_per_object=50, num_queries=50, seed=1)
HS = build_hierarchy(NET, seed=1)


def _loaded_tracker(cls=MOTTracker):
    tracker = cls(build_hierarchy(NET, seed=1))
    for o, s in WL.starts.items():
        tracker.publish(o, s)
    for m in WL.moves:
        tracker.move(m.obj, m.new)
    return tracker


def test_bench_mot_move_throughput(benchmark):
    tracker = _loaded_tracker()
    rnd = random.Random(3)
    objs = list(WL.starts)

    def op():
        o = rnd.choice(objs)
        tracker.move(o, rnd.choice(NET.neighbors(tracker.proxy_of(o))))

    benchmark(op)


def test_bench_mot_query_throughput(benchmark):
    tracker = _loaded_tracker()
    rnd = random.Random(4)
    objs = list(WL.starts)

    def op():
        tracker.query(rnd.choice(objs), rnd.choice(NET.nodes))

    benchmark(op)


def test_bench_balanced_mot_move_throughput(benchmark):
    tracker = _loaded_tracker(BalancedMOTTracker)
    rnd = random.Random(5)
    objs = list(WL.starts)

    def op():
        o = rnd.choice(objs)
        tracker.move(o, rnd.choice(NET.neighbors(tracker.proxy_of(o))))

    benchmark(op)


def test_bench_hierarchy_construction(benchmark):
    benchmark(lambda: build_hierarchy(NET, seed=2))


def test_bench_hierarchy_construction_2048_boundary(benchmark):
    """Build at the row store's capacity boundary (n = LAZY_THRESHOLD).

    This is the acceptance microbench for the batched distance layer: a
    2048-node build must be no slower than the per-pair seed code. The
    network is rebuilt inside the timed callable's setup (not per
    round) so the timing isolates ``build_hierarchy``.
    """
    from repro.graphs.network import SensorNetwork

    base = grid_network(64, 32)
    assert base.n == 2048 == SensorNetwork.LAZY_THRESHOLD
    benchmark(lambda: build_hierarchy(base, seed=2))


def test_bench_dab_tree_construction(benchmark):
    benchmark(lambda: build_dab_tree(NET, WL.traffic))


def test_bench_zdat_tree_construction(benchmark):
    benchmark(lambda: build_zdat_tree(NET, WL.traffic))


def test_bench_concurrent_event_processing(benchmark):
    """Cost of one fully-concurrent 10-op burst, drain included."""
    from repro.sim.concurrent_mot import ConcurrentMOT

    def burst():
        tracker = ConcurrentMOT(HS)
        tracker.publish("o", 0)
        cur = 0
        rnd = random.Random(6)
        t0 = tracker.engine.now
        for k in range(10):
            cur = rnd.choice(NET.neighbors(cur))
            tracker.submit_move(t0 + 0.01 * k, "o", cur)
        tracker.run()

    benchmark(burst)
