"""Scalar-equivalence of the columnar batch engine (hypothesis + packs).

The contract under test: for any FIFO op stream, chunked arbitrarily
into :class:`OpBatch` columns through :meth:`BatchMOTEngine.apply_ops`,
every result matches what a sequential :class:`MOTTracker` produces op
by op — proxies and epochs exactly, costs ``close_to``, failures with
the same exception type and message — and the ledgers agree modulo
query coalescing (the engine deliberately answers duplicate
``(obj, epoch, source)`` queries from their executed twin without
re-charging the ledger).

Four layers:

1. hypothesis property runs over random op streams and chunkings, on a
   unit grid and on a weighted random geometric graph,
2. the six committed scenario packs replayed at smoke scale,
3. hand-written edge cases (empty batch, single op, duplicate objects,
   same-object interleavings, error parity, coalescing, one mixed call),
4. the engine's invariant (an object's spine is its proxy's detection
   path) and the size of its logs.
"""

from __future__ import annotations

import random
import tracemalloc
from typing import Hashable, NamedTuple

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core.batch import BatchMOTEngine, OpBatch, audit_replay
from repro.core.costs import close_to
from repro.core.mot import MOTConfig, MOTTracker
from repro.graphs.generators import grid_network, random_geometric_network
from repro.hierarchy.structure import build_hierarchy
from repro.scenarios.registry import all_scenarios
from tests.graphs.regimes import network

NET = grid_network(6, 6)
NODES = tuple(NET.nodes)
#: a connected weighted graph: Euclidean edge weights, uneven hops
NETS = {"grid": NET, "rgg": random_geometric_network(40, seed=3)}
CONFIGS = {
    "default": MOTConfig(),
    "sdl-cost": MOTConfig(count_special_parent_cost=True),
    "gap-2": MOTConfig(special_parent_gap=2),
}
#: the property runs stop at the first failing stream and report it as
#: drawn: shrinking rebuilds an engine and a scalar tracker per attempt,
#: and a stream that fails only under some chunkings kept the shrinker
#: going for minutes before a broken kernel was reported
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)


def _run_scalar(net, cfg, seed, ops):
    """The sequential reference: one call per op, exceptions captured."""
    tracker = MOTTracker.build(net, cfg, seed=seed)
    results = []
    for kind, obj, node in ops:
        try:
            if kind == "publish":
                tracker.publish(obj, node)
                results.append(("ok", node, None))
            elif kind == "move":
                res = tracker.move(obj, node)
                results.append(("ok", res.new_proxy, res.cost))
            elif kind == "query":
                res = tracker.query(obj, node)
                results.append(("ok", res.proxy, res.cost))
            else:  # the tracker has no op kinds; the engine fails it in place
                raise TypeError(f"unknown batch op kind {kind!r}")
        except Exception as exc:  # noqa: BLE001 - parity check needs them all
            results.append(("err", type(exc), str(exc)))
    return tracker, results


class Outcome(NamedTuple):
    """One op's entry in the result columns, for the assertions."""

    kind: str
    error: Exception | None
    proxy: Hashable
    cost: float
    epoch: int
    coalesced: bool
    messages: int


def _apply(engine: BatchMOTEngine, ops) -> list[Outcome]:
    """One ``apply_ops`` call on the batch of ``ops``, read op by op."""
    res = engine.apply_ops(OpBatch.of(ops))
    assert len(res) == len(ops)
    node_at = engine.net.node_at
    return [
        Outcome(
            kind, res.errors.get(i), node_at(res.proxy[i]), res.cost[i],
            res.epoch[i], res.coalesced[i], res.messages[i],
        )
        for i, (kind, _obj, _node) in enumerate(ops)
    ]


def _audit(engine: BatchMOTEngine):
    """The sequential replay audit over one engine."""
    return audit_replay(engine.hs, engine.config, [engine])


def _run_batch(net, cfg, seed, ops, chunks):
    """The engine under test, fed the same stream in the given chunks."""
    engine = BatchMOTEngine.build(net, cfg, seed=seed)
    outcomes = []
    i = 0
    for size in chunks:
        outcomes.extend(_apply(engine, ops[i : i + size]))
        i += size
    assert i >= len(ops) and len(outcomes) == len(ops)
    return engine, outcomes


def _chunks_covering(n, rng, lo=1, hi=64):
    sizes = []
    total = 0
    while total < n:
        size = rng.randint(lo, hi)
        sizes.append(size)
        total += size
    return sizes


def _assert_equivalent(ops, scalar_results, outcomes):
    for k, (ref, out) in enumerate(zip(scalar_results, outcomes)):
        if ref[0] == "err":
            assert out.error is not None, (k, ops[k], ref)
            assert type(out.error) is ref[1], (k, ops[k], ref, out.error)
            assert str(out.error) == ref[2], (k, ops[k], ref, out.error)
        else:
            assert out.error is None, (k, ops[k], out.error)
            assert out.proxy == ref[1], (k, ops[k], ref, out.proxy)
            if ref[2] is not None:
                assert close_to(out.cost, ref[2]), (k, ops[k], ref, out.cost)


def _assert_ledgers_match(tracker, engine, ops, outcomes):
    """Ledger equality modulo coalescing (twins are engine-side savings,
    their optima the network's distance from the source to the answer)."""
    coalesced = [
        (out, op[2])
        for out, op in zip(outcomes, ops)
        if out.kind == "query" and out.error is None and out.coalesced
    ]
    saved_local = sum(1 for out, src in coalesced if out.proxy == src)
    saved = [
        (out.cost, engine.net.distance(src, out.proxy), out.messages)
        for out, src in coalesced
        if out.proxy != src
    ]
    lt, le = tracker.ledger, engine.ledger
    assert le.publish_cost == pytest.approx(lt.publish_cost)
    assert le.maintenance_cost == pytest.approx(lt.maintenance_cost)
    assert le.maintenance_ops == lt.maintenance_ops
    assert le.noop_moves == lt.noop_moves
    assert le.maintenance_messages == lt.maintenance_messages
    assert le.query_cost == pytest.approx(lt.query_cost - sum(c for c, _, _ in saved))
    assert le.query_optimal == pytest.approx(lt.query_optimal - sum(o for _, o, _ in saved))
    assert le.query_ops == lt.query_ops - len(saved)
    assert le.query_messages == lt.query_messages - sum(m for _, _, m in saved)
    assert le.local_queries == lt.local_queries - saved_local


@st.composite
def op_streams(draw, nodes):
    """A FIFO op stream over a small object pool, duplicates encouraged."""
    n_ops = draw(st.integers(min_value=1, max_value=120))
    objs = [f"o{i}" for i in range(draw(st.integers(min_value=1, max_value=8)))]
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(("publish", "move", "move", "query", "query")))
        obj = draw(st.sampled_from(objs))
        node = draw(st.sampled_from(nodes))
        ops.append((kind, obj, node))
    return ops


def _check_random_stream(net, ops, chunk_seed):
    cfg = CONFIGS["default"]
    tracker, scalar_results = _run_scalar(net, cfg, 3, ops)
    rng = random.Random(chunk_seed)
    engine, outcomes = _run_batch(net, cfg, 3, ops, _chunks_covering(len(ops), rng))
    _assert_equivalent(ops, scalar_results, outcomes)
    _assert_ledgers_match(tracker, engine, ops, outcomes)
    audit = _audit(engine)
    assert audit.ok, audit.as_dict()


def _check_long_stream(net, cfg):
    nodes = tuple(net.nodes)
    rng = random.Random(11)
    objs = [f"o{i}" for i in range(25)]
    ops = []
    for _ in range(1500):
        r = rng.random()
        kind = "publish" if r < 0.15 else ("move" if r < 0.6 else "query")
        ops.append((kind, rng.choice(objs), rng.choice(nodes)))
    tracker, scalar_results = _run_scalar(net, cfg, 5, ops)
    engine, outcomes = _run_batch(net, cfg, 5, ops, _chunks_covering(len(ops), rng))
    _assert_equivalent(ops, scalar_results, outcomes)
    _assert_ledgers_match(tracker, engine, ops, outcomes)
    audit = _audit(engine)
    assert audit.ok, audit.as_dict()


class TestPropertyEquivalence:
    @PROPERTY
    @given(ops=op_streams(NODES), chunk_seed=st.integers(min_value=0, max_value=2**16))
    def test_random_streams_match_scalar(self, ops, chunk_seed):
        _check_random_stream(NET, ops, chunk_seed)

    @PROPERTY
    @given(
        ops=op_streams(tuple(NETS["rgg"].nodes)),
        chunk_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_streams_match_scalar_on_a_weighted_graph(self, ops, chunk_seed):
        _check_random_stream(NETS["rgg"], ops, chunk_seed)

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    def test_config_variants_long_stream(self, cfg_name):
        _check_long_stream(NET, CONFIGS[cfg_name])

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    def test_config_variants_long_stream_on_a_weighted_graph(self, cfg_name):
        _check_long_stream(NETS["rgg"], CONFIGS[cfg_name])


class TestScenarioPacks:
    @pytest.mark.parametrize("name", sorted(all_scenarios()))
    def test_pack_replays_clean_through_engine(self, name):
        spec = all_scenarios()[name]
        scale = spec.scale("smoke")
        net = grid_network(scale.side, scale.side)
        workload = spec.generate(net, scale, 7)
        ops = [("publish", o, s) for o, s in workload.starts.items()]
        ops += [("move", m.obj, m.new) for m in workload.moves]
        ops += [("query", q.obj, q.source) for q in workload.queries]
        engine = BatchMOTEngine.build(net, MOTConfig(), seed=7)
        for i in range(0, len(ops), 256):
            for out in _apply(engine, ops[i : i + 256]):
                assert out.error is None, (name, out.error)
        audit = _audit(engine)
        assert audit.ok, (name, audit.as_dict())
        assert audit.objects_checked == len(workload.starts)


class TestEdgeCases:
    def _engine(self, seed=5):
        return BatchMOTEngine.build(NET, MOTConfig(), seed=seed)

    def test_empty_batch(self):
        res = self._engine().apply_ops(OpBatch.of([]))
        assert len(res) == 0 and res.errors == {}

    def test_single_op(self):
        out = _apply(self._engine(), [("publish", "a", NODES[0])])
        assert len(out) == 1
        assert out[0].error is None
        assert out[0].proxy == NODES[0] and out[0].epoch == 0

    def test_duplicate_publish_same_batch(self):
        out = _apply(
            self._engine(), [("publish", "b", NODES[1]), ("publish", "b", NODES[2])]
        )
        assert out[0].error is None
        assert isinstance(out[1].error, ValueError)
        assert "already published" in str(out[1].error)

    def test_move_and_query_before_publish(self):
        out = _apply(
            self._engine(), [("move", "ghost", NODES[0]), ("query", "ghost", NODES[1])]
        )
        assert all(isinstance(o.error, KeyError) for o in out)
        assert all("never published" in str(o.error) for o in out)

    def test_unknown_node_error_parity(self):
        engine = self._engine()
        out = _apply(engine, [("publish", "c", "not-a-node")])
        assert isinstance(out[0].error, KeyError)
        assert "not a sensor of this network" in str(out[0].error)
        # publish-first ordering: already-published wins over bad node
        _apply(engine, [("publish", "c", NODES[0])])
        out = _apply(engine, [("publish", "c", "not-a-node")])
        assert isinstance(out[0].error, ValueError)

    def test_noop_move_keeps_epoch(self):
        engine = self._engine()
        _apply(engine, [("publish", "a", NODES[0])])
        out = _apply(engine, [("move", "a", NODES[0])])
        assert out[0].error is None
        assert out[0].epoch == 0 and out[0].cost == 0.0
        assert engine.ledger.noop_moves == 1
        assert engine.ledger.maintenance_ops == 0

    def test_same_batch_ops_observe_prior_ops(self):
        """publish → move → query → move → query of one object, one batch."""
        engine = self._engine()
        tracker = MOTTracker.build(NET, MOTConfig(), seed=5)
        ops = [
            ("publish", "a", NODES[0]),
            ("move", "a", NODES[7]),
            ("query", "a", NODES[3]),
            ("move", "a", NODES[11]),
            ("query", "a", NODES[3]),
        ]
        _, scalar_results = _run_scalar(NET, MOTConfig(), 5, ops)
        outcomes = _apply(engine, ops)
        _assert_equivalent(ops, scalar_results, outcomes)
        # the two queries hit different epochs: no coalescing
        assert not outcomes[2].coalesced and not outcomes[4].coalesced

    def test_duplicate_queries_coalesce_within_epoch(self):
        engine = self._engine()
        _apply(engine, [("publish", "a", NODES[0])])
        out = _apply(engine, [("query", "a", NODES[9]), ("query", "a", NODES[9])])
        assert not out[0].coalesced and out[1].coalesced
        assert out[1].cost == out[0].cost and out[1].proxy == out[0].proxy
        # the twin is answered but not re-charged
        assert engine.ledger.query_ops == 1

    def test_unknown_kind_rejected_in_place(self):
        out = _apply(self._engine(), [("frobnicate", "a", NODES[0])])
        assert isinstance(out[0].error, TypeError)

    def test_one_mixed_call_matches_scalar(self):
        """~300 ops over 3 objects in ONE call: publish, no-op move,
        move, query, duplicate query, bad node and unknown kind."""
        rng = random.Random(23)
        objs = ("a", "b", "c")
        ops = [("query", "a", NODES[1])]  # before any publish
        ops += [("publish", obj, rng.choice(NODES)) for obj in objs]
        while len(ops) < 300:
            obj = rng.choice(objs)
            r = rng.random()
            if r < 0.3:
                ops.append(("move", obj, rng.choice(NODES)))
            elif r < 0.4:  # a no-op move: to the proxy the object is at
                last = [op[2] for op in ops if op[1] == obj and op[0] != "query"][-1]
                ops.append(("move", obj, last))
            elif r < 0.75:
                ops.append(("query", obj, rng.choice(NODES)))
            elif r < 0.9:  # an exact duplicate of the last query, if any
                qs = [op for op in ops if op[0] == "query" and op[1] == obj]
                ops.append(qs[-1] if qs else ("query", obj, NODES[0]))
            elif r < 0.94:
                ops.append((rng.choice(("move", "query")), obj, "not-a-node"))
            elif r < 0.97:
                ops.append(("publish", obj, rng.choice(NODES + ("not-a-node",))))
            else:
                ops.append(("teleport", obj, rng.choice(NODES)))
        for cfg in CONFIGS.values():
            tracker, scalar_results = _run_scalar(NET, cfg, 5, ops)
            engine = BatchMOTEngine.build(NET, cfg, seed=5)
            outcomes = _apply(engine, ops)
            _assert_equivalent(ops, scalar_results, outcomes)
            _assert_ledgers_match(tracker, engine, ops, outcomes)
            kinds = {type(o.error) for o in outcomes if o.error is not None}
            assert kinds == {KeyError, ValueError, TypeError}
            assert any(o.coalesced for o in outcomes)
            assert engine.ledger.noop_moves > 0
            assert all(engine.proxy_of(obj) == tracker.proxy_of(obj) for obj in objs)
            assert _audit(engine).ok


class TestTables:
    def test_build_computes_no_oracle_rows_on_a_lazy_backend(self):
        """Default-parent hops come from the hierarchy, not the oracle.

        Pre-fix, the table build re-solved every hop with
        ``pair_distances`` — one full Dijkstra row per level member,
        through a row store that evicts.
        """
        net = network(grid_network(12, 12).graph, "lazy")
        hs = build_hierarchy(net, seed=3)
        rows = net.oracle_stats["rows_computed"]
        engine = BatchMOTEngine(hs, MOTConfig())
        assert net.oracle_stats["rows_computed"] == rows
        # and the engine still answers like the sequential reference
        ops = [("publish", f"o{i}", net.node_at(7 * i)) for i in range(10)]
        ops += [("move", f"o{i}", net.node_at(143 - 5 * i)) for i in range(10)]
        ops += [("query", f"o{i}", net.node_at(11 * i)) for i in range(10)]
        assert not engine.apply_ops(OpBatch.of(ops)).errors
        assert _audit(engine).ok

    def test_epochs_accessor_matches_epoch_of(self):
        engine = BatchMOTEngine.build(NET, MOTConfig(), seed=2)
        _apply(
            engine,
            [
                ("publish", "a", NODES[0]),
                ("publish", "b", NODES[1]),
                ("move", "a", NODES[5]),
                ("move", "a", NODES[5]),  # no-op: epoch stays
                ("move", "b", NODES[9]),
                ("move", "b", NODES[3]),
            ]
        )
        assert engine.epochs == {"a": 1, "b": 2}
        assert engine.epochs == {o: engine.epoch_of(o) for o in engine.objects}


class TestSpineInvariant:
    """An object's spine is its proxy's detection path, ``chain[proxy]``."""

    @pytest.mark.parametrize("cfg_name", sorted(CONFIGS))
    def test_spine_row_equals_the_scalar_spine(self, cfg_name):
        cfg = CONFIGS[cfg_name]
        for net in NETS.values():
            nodes = tuple(net.nodes)
            rng = random.Random(29)
            objs = [f"o{i}" for i in range(12)]
            ops = [("publish", obj, rng.choice(nodes)) for obj in objs]
            for _ in range(600):
                kind = "move" if rng.random() < 0.6 else "query"
                ops.append((kind, rng.choice(objs), rng.choice(nodes)))
            tracker, _ = _run_scalar(net, cfg, 7, ops)
            engine, _ = _run_batch(net, cfg, 7, ops, _chunks_covering(len(ops), rng))
            for obj in objs:
                want = [net.index_of(hn.node) for hn in tracker.spine(obj)]
                assert engine.spine_row(obj).tolist() == want, (cfg_name, obj)


class TestLogBuffers:
    def _ops(self):
        rng = random.Random(31)
        objs = [f"o{i}" for i in range(64)]
        ops = [("publish", obj, rng.choice(NODES)) for obj in objs]
        for _ in range(4096):
            kind = "move" if rng.random() < 0.5 else "query"
            ops.append((kind, rng.choice(objs), rng.choice(NODES)))
        return ops

    def _retained_per_op(self, ops, chunk):
        engine = BatchMOTEngine.build(NET, MOTConfig(), seed=5)
        head, tail = ops[:64], ops[64:]
        engine.apply_ops(OpBatch.of(head))
        batches = [OpBatch.of(tail[i : i + chunk]) for i in range(0, len(tail), chunk)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in batches:
                engine.apply_ops(batch)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert engine._n_ops + engine._n_queries == len(ops)
        return retained / len(tail)

    def test_retained_log_bytes_do_not_depend_on_the_call_size(self):
        """No per-call chunk objects: at 1 op per call the logs keep
        within 2x the bytes per op they keep at 256 ops per call."""
        ops = self._ops()
        small = self._retained_per_op(ops, 1)
        large = self._retained_per_op(ops, 256)
        assert small <= 2 * max(large, 1.0), (small, large)

    def test_views_match_the_applied_ops(self):
        ops = self._ops()[:400] + [("move", "ghost", NODES[0]), ("query", "o1", "nowhere")]
        engine, outcomes = _run_batch(NET, MOTConfig(), 5, ops, [7] * 58)
        applied = [
            (kind, obj, node) for (kind, obj, node), out in zip(ops, outcomes) if out.error is None
        ]
        oplog: dict = {}
        for kind, obj, node in applied:
            if kind != "query":
                oplog.setdefault(obj, []).append((kind, node))
        assert engine.oplog == oplog
        queries = [
            (obj, node, out.proxy, out.epoch, out.coalesced)
            for (kind, obj, node), out in zip(ops, outcomes)
            if kind == "query" and out.error is None
        ]
        assert [
            (rec.obj, rec.source, rec.proxy, rec.epoch, rec.coalesced)
            for rec in engine.query_log
        ] == queries

