"""Scalability benchmark: MOT beyond the paper's largest network.

The paper stops at 1024 sensors. Past ``SensorNetwork.LAZY_THRESHOLD``
nodes the row store keeps ``LAZY_CACHE_ROWS`` exact rows, so the
implementation keeps working at 4096 sensors (64x64) without O(n²)
memory; this bench times the end-to-end build-track-query pipeline
there and checks the cost ratios keep their logarithmic shape.
"""

from __future__ import annotations

import math
import random

from benchmarks.conftest import run_once
from repro.core.mot import MOTTracker
from repro.graphs.generators import grid_network
from repro.hierarchy.structure import build_hierarchy


def test_mot_on_4096_sensors(benchmark):
    def experiment():
        net = grid_network(64, 64)
        assert net.oracle_stats["row_cache_capacity"] == net.LAZY_CACHE_ROWS
        hs = build_hierarchy(net, seed=1)
        tracker = MOTTracker(hs)
        rnd = random.Random(0)
        objs = {f"o{i}": rnd.randrange(net.n) for i in range(10)}
        for o, p in objs.items():
            tracker.publish(o, p)
        for _ in range(2000):
            o = rnd.choice(list(objs))
            objs[o] = rnd.choice(net.neighbors(objs[o]))
            tracker.move(o, objs[o])
        for _ in range(200):
            o = rnd.choice(list(objs))
            res = tracker.query(o, rnd.choice(net.nodes))
            assert res.proxy == objs[o]
        return net, tracker.ledger

    net, ledger = run_once(benchmark, experiment)
    benchmark.extra_info["maintenance_ratio"] = round(ledger.maintenance_cost_ratio, 2)
    benchmark.extra_info["query_ratio"] = round(ledger.query_cost_ratio, 2)
    # the O(min{log n, log D}) shape continues past the paper's sizes
    assert ledger.maintenance_cost_ratio <= 4.0 * math.log2(net.n)
    assert ledger.query_cost_ratio <= 8.0
