"""Tests for the cost ledger (paper §1.1 / §4.1 aggregation)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.costs import CostLedger, close_to
from repro.metrics.ratios import per_operation_means


class TestLedger:
    def test_empty_ratios_default_to_one(self):
        ledger = CostLedger()
        assert ledger.maintenance_cost_ratio == 1.0
        assert ledger.query_cost_ratio == 1.0
        assert ledger.max_maintenance_ratio == 1.0

    def test_aggregate_ratio_is_sum_over_sum(self):
        """§4.1: ratio = sum C(E_j) / sum C*(E_j), not mean of ratios."""
        ledger = CostLedger()
        ledger.record_maintenance(10.0, 1.0)  # ratio 10
        ledger.record_maintenance(10.0, 10.0)  # ratio 1
        assert ledger.maintenance_cost_ratio == pytest.approx(20.0 / 11.0)

    def test_zero_optimal_excluded_from_per_op_ratios(self):
        ledger = CostLedger()
        ledger.record_maintenance(0.0, 0.0)
        ledger.record_maintenance(6.0, 2.0)
        assert ledger.max_maintenance_ratio == pytest.approx(3.0)
        assert ledger.maintenance_ops == 2

    def test_query_tracking(self):
        ledger = CostLedger()
        ledger.record_query(8.0, 4.0)
        ledger.record_query(3.0, 3.0)
        assert ledger.query_cost_ratio == pytest.approx(11.0 / 7.0)
        assert ledger.max_query_ratio == pytest.approx(2.0)
        assert ledger.query_ops == 2

    def test_publish_accumulates(self):
        ledger = CostLedger()
        ledger.record_publish(5.0)
        ledger.record_publish(7.0)
        assert ledger.publish_cost == 12.0

    def test_noop_moves_tracked_separately(self):
        ledger = CostLedger()
        ledger.record_noop_move()
        ledger.record_noop_move()
        ledger.record_maintenance(6.0, 2.0)
        assert ledger.noop_moves == 2
        assert ledger.maintenance_ops == 1  # no-ops are not maintenance
        assert ledger.maintenance_cost == 6.0
        assert ledger.maintenance_cost_ratio == pytest.approx(3.0)

    def test_merge_combines_noop_moves(self):
        a, b = CostLedger(), CostLedger()
        a.record_noop_move()
        b.record_noop_move()
        b.record_noop_move()
        a.merge(b)
        assert a.noop_moves == 3

    def test_merge_combines_everything(self):
        a = CostLedger()
        a.record_maintenance(4.0, 2.0)
        a.record_query(6.0, 3.0)
        a.record_publish(1.0)
        b = CostLedger()
        b.record_maintenance(8.0, 2.0)
        a.merge(b)
        assert a.maintenance_cost == 12.0
        assert a.maintenance_optimal == 4.0
        assert a.maintenance_ops == 2
        assert a.max_maintenance_ratio == pytest.approx(4.0)
        assert a.publish_cost == 1.0


class TestBatchedDeltas:
    """The columnar engine's reduced-delta recording APIs.

    Regression targets: a zero-op delta must be a strict no-op (an empty
    kernel call cannot skew counts, sums, or the derived means), and the
    batched recorders must agree with their per-op twins.
    """

    def test_zero_op_batches_are_noops(self):
        ledger = CostLedger()
        ledger.record_publish_batch(0.0, 0)
        ledger.record_maintenance_batch(0.0, 0.0, 0, 0)
        ledger.record_query_batch(0.0, 0.0, 0, 0)
        ledger.record_noop_moves(0)
        ledger.record_local_queries(0)
        assert ledger == CostLedger()

    def test_zero_op_batch_with_nonzero_cost_is_dropped(self):
        """ops=0 wins: nothing is charged even if a sum sneaks in."""
        ledger = CostLedger()
        ledger.record_maintenance_batch(5.0, 2.0, 0, 3)
        ledger.record_query_batch(5.0, 2.0, 0, 3)
        assert ledger.maintenance_cost == 0.0
        assert ledger.query_cost == 0.0
        assert ledger.maintenance_messages == 0
        assert ledger.query_messages == 0

    def test_zero_op_batches_do_not_skew_means(self):
        ledger = CostLedger()
        ledger.record_maintenance_batch(12.0, 6.0, 3, 9, 2.0)
        ledger.record_query_batch(8.0, 4.0, 2, 4, 2.0)
        before = per_operation_means(ledger)
        for _ in range(5):
            ledger.record_maintenance_batch(0.0, 0.0, 0, 0)
            ledger.record_query_batch(0.0, 0.0, 0, 0)
        assert per_operation_means(ledger) == before
        assert before["maintenance_cost_per_op"] == pytest.approx(4.0)
        assert before["query_cost_per_op"] == pytest.approx(4.0)

    def test_batched_recording_equals_per_op_recording(self):
        batched, scalar = CostLedger(), CostLedger()
        moves = [(4.0, 2.0, 3), (6.0, 3.0, 5), (0.5, 0.0, 1)]
        for cost, optimal, messages in moves:
            scalar.record_maintenance(cost, optimal, messages)
        batched.record_maintenance_batch(
            sum(c for c, _, _ in moves),
            sum(o for _, o, _ in moves),
            len(moves),
            sum(m for _, _, m in moves),
            max(c / o for c, o, _ in moves if o > 0),
        )
        assert batched.maintenance_cost == pytest.approx(scalar.maintenance_cost)
        assert batched.maintenance_ops == scalar.maintenance_ops
        assert batched.maintenance_messages == scalar.maintenance_messages
        assert batched.max_maintenance_ratio == scalar.max_maintenance_ratio

    @given(
        noops=st.lists(st.integers(min_value=0, max_value=50), max_size=6),
        locals_=st.lists(st.integers(min_value=0, max_value=50), max_size=6),
        split=st.integers(min_value=0, max_value=6),
    )
    def test_merge_conserves_noop_and_local_tallies(self, noops, locals_, split):
        """Shard + batch merges must conserve the do-nothing tallies."""
        shards = [CostLedger() for _ in range(max(1, split))]
        for i, n in enumerate(noops):
            shards[i % len(shards)].record_noop_moves(n)
        for i, n in enumerate(locals_):
            shards[i % len(shards)].record_local_queries(n)
        merged = CostLedger()
        for shard in shards:
            merged.merge(shard)
        assert merged.noop_moves == sum(noops)
        assert merged.local_queries == sum(locals_)

    def test_merge_takes_the_max_of_the_maxima(self):
        a, b, empty = CostLedger(), CostLedger(), CostLedger()
        a.record_maintenance(6.0, 2.0)  # 3.0
        a.record_query(4.0, 4.0)  # 1.0
        b.record_maintenance_batch(10.0, 5.0, 2, 4, 2.5)
        b.record_query_batch(9.0, 3.0, 1, 2, 3.0)
        a.merge(b)
        assert a.max_maintenance_ratio == 3.0  # a's own max survives
        assert a.max_query_ratio == 3.0  # b's larger max wins
        a.merge(empty)  # nothing recorded: no maximum to fold in
        assert (a.max_maintenance_ratio, a.max_query_ratio) == (3.0, 3.0)
        empty.merge(CostLedger())
        assert empty.max_maintenance_ratio == empty.max_query_ratio == 1.0
        # a batch whose ops all had a zero optimum carries no maximum
        empty.record_maintenance_batch(1.0, 0.0, 1, 1, None)
        assert empty.max_maintenance_ratio == 1.0

    def test_maxima_keep_no_per_op_container(self):
        """10^5 recorded ops leave the ledger the size of one."""
        ledger = CostLedger()
        ledger.record_maintenance(3.0, 2.0, 1)
        ledger.record_query(5.0, 4.0, 1)
        one = len(pickle.dumps(ledger))
        for i in range(100_000):
            ledger.record_maintenance(3.0 + i % 7, 2.0, 1)
            ledger.record_query(5.0, 4.0 + i % 3, 1)
        assert ledger.max_maintenance_ratio == 4.5
        assert ledger.max_query_ratio == 1.25
        assert all(
            value is None or isinstance(value, (int, float))
            for value in vars(ledger).values()
        )
        # only the counters' encodings widen; a per-op list would add ~1 MB
        assert len(pickle.dumps(ledger)) < one + 64

    def test_merge_conserves_local_queries_field(self):
        a, b = CostLedger(), CostLedger()
        a.record_local_query()
        b.record_local_queries(4)
        a.merge(b)
        assert a.local_queries == 5


class TestCloseTo:
    def test_equal_and_near_equal(self):
        assert close_to(1.0, 1.0)
        assert close_to(0.1 + 0.2, 0.3)  # the canonical float-noise case
        assert close_to(0.0, 0.0)

    def test_distinct_values_differ(self):
        assert not close_to(1.0, 1.0001)
        assert not close_to(0.0, 1e-3)

    def test_relative_scale_for_large_costs(self):
        big = 1e12
        assert close_to(big, big + big * 1e-12)
        assert not close_to(big, big + 1e4)  # rel threshold is tol·|big| = 1e3

    def test_custom_tolerance(self):
        assert close_to(1.0, 1.5, tol=0.6)
        assert not close_to(1.0, 1.5, tol=0.1)

    def test_symmetry(self):
        assert close_to(0.3, 0.1 + 0.2) == close_to(0.1 + 0.2, 0.3)
        assert close_to(-1.0, -1.0)
