"""Regression: a 10,000-node network, past the row store's threshold,
must build and run.

Before the distance-layer rework this scenario was doubly broken: the
double-sweep diameter underestimate could truncate ``build_levels``
before a single root existed, and the unbounded per-source row cache
made memory grow with every distinct query source. The assertions pin
the fix: single root, bounded cache, and a correct 1k-op workload.
"""

import random

import pytest

from repro.core.mot import MOTTracker
from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork


@pytest.mark.slow
def test_lazy_10k_grid_build_and_workload():
    base = grid_network(100, 100)
    net = SensorNetwork(base.graph, normalize=False)
    assert net.n == 10_000

    tracker = MOTTracker.build(net, seed=1)
    # the hierarchy must converge to a single root although the
    # diameter is only a double-sweep estimate here
    assert len(tracker.hs.levels.levels[-1]) == 1
    assert tracker.hs.root.node in net

    rng = random.Random(5)
    objs = 5
    pos = {}
    for i in range(objs):
        pos[i] = net.node_at(rng.randrange(net.n))
        tracker.publish(i, pos[i])

    for _ in range(1000):
        obj = rng.randrange(objs)
        node = net.node_at(rng.randrange(net.n))
        if rng.random() < 0.7:
            tracker.move(obj, node)
            pos[obj] = node
        else:
            res = tracker.query(obj, node)
            assert res.proxy == pos[obj]

    ops = tracker.ledger.maintenance_ops + tracker.ledger.noop_moves + tracker.ledger.query_ops
    assert ops == 1000

    stats = net.oracle_stats
    # the row store must have stayed within its bound the whole run
    assert stats["row_cache_size"] <= net.LAZY_CACHE_ROWS
    assert stats["row_cache_hits"] > 0
    # a full all-pairs matrix was never stacked
    assert stats["matrix_materialized"] is False
