"""Communication-cost accounting (paper §1.1).

The paper measures every operation by the total distance its messages
travel in ``G``. :class:`CostLedger` accumulates those distances per
operation category together with the matching optimal costs, and
reports the aggregate cost ratios

    ``C(E) / C*(E)  =  Σ_j C(E_j) / Σ_j C*(E_j)``

exactly as §4.1 defines them (costs summed across objects, then
divided).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostLedger", "close_to"]

#: default tolerance for :func:`close_to` — generous enough for sums of
#: thousands of float64 edge weights, far below any real cost gap
DEFAULT_TOLERANCE = 1e-9


def close_to(a: float, b: float, tol: float = DEFAULT_TOLERANCE) -> bool:
    """Whether two cost/distance values are equal up to float noise.

    Combined absolute + relative test: ``|a - b| <= tol * max(1, |a|,
    |b|)``. Costs in this package are sums of shortest-path distances —
    never compare them to literals with ``==``/``!=`` (rule RPL004);
    accumulated float error makes exact equality order-dependent.
    """
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class CostLedger:
    """Aggregate communication and optimal costs per operation type."""

    publish_cost: float = 0.0
    maintenance_cost: float = 0.0
    maintenance_optimal: float = 0.0
    maintenance_ops: int = 0
    maintenance_messages: int = 0
    noop_moves: int = 0
    rehome_cost: float = 0.0
    rehome_optimal: float = 0.0
    rehome_ops: int = 0
    query_cost: float = 0.0
    query_optimal: float = 0.0
    query_ops: int = 0
    query_messages: int = 0
    local_queries: int = 0
    #: worst single-op ratios so far (None until a positive optimum):
    #: running maxima, so the ledger's size does not grow with the ops
    _maint_max: float | None = field(default=None, repr=False)
    _query_max: float | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def record_publish(self, cost: float) -> None:
        """Accumulate one publish operation's communication cost."""
        self.publish_cost += cost

    def record_maintenance(self, cost: float, optimal: float, messages: int = 0) -> None:
        """Accumulate one maintenance operation (cost, optimum, hop count)."""
        self.maintenance_cost += cost
        self.maintenance_optimal += optimal
        self.maintenance_ops += 1
        self.maintenance_messages += messages
        if optimal > 0:
            self._maint_max = _max_of(self._maint_max, cost / optimal)

    def record_noop_move(self) -> None:
        """Count a zero-distance move (same proxy) without touching averages.

        No-op moves send no messages and have optimal cost 0, so folding
        them into ``maintenance_ops`` used to deflate per-operation
        averages and message counts. They are tallied separately;
        ``maintenance_ops`` counts only moves that did real work.
        """
        self.noop_moves += 1

    def tag_rehome(self, cost: float, optimal: float) -> None:
        """Tag an already-recorded maintenance op as churn-induced.

        §7 rehomes a departing sensor's objects through ordinary
        maintenance operations; tagging them lets
        :attr:`maintenance_cost_ratio_excluding_rehomes` report the
        mobility-only ratio next to the all-in one."""
        self.rehome_cost += cost
        self.rehome_optimal += optimal
        self.rehome_ops += 1

    def record_query(self, cost: float, optimal: float, messages: int = 0) -> None:
        """Accumulate one query operation (cost, optimum, hop count)."""
        self.query_cost += cost
        self.query_optimal += optimal
        self.query_ops += 1
        self.query_messages += messages
        if optimal > 0:
            self._query_max = _max_of(self._query_max, cost / optimal)

    def record_local_query(self) -> None:
        """Count a local hit (source == proxy) without touching averages.

        Local queries send no messages and cost nothing; recording them
        as ordinary queries used to dilute ``query_cost``/``query_ops``
        per-operation means exactly the way no-op moves once diluted the
        maintenance averages. ``query_ops`` counts only queries that
        walked the structure.
        """
        self.local_queries += 1

    # ------------------------------------------------------------------
    # batched deltas (the columnar engine reduces a kernel call's worth
    # of operations into one delta; zero-op deltas must be no-ops so
    # empty batches cannot skew counts, sums, or the derived means)
    # ------------------------------------------------------------------
    def record_publish_batch(self, total_cost: float, ops: int) -> None:
        """Accumulate ``ops`` publishes costing ``total_cost`` altogether."""
        if ops <= 0:
            return
        self.publish_cost += total_cost

    def record_maintenance_batch(
        self,
        total_cost: float,
        total_optimal: float,
        ops: int,
        messages: int,
        max_ratio: float | None = None,
    ) -> None:
        """Accumulate a batch of maintenance ops as one reduced delta.

        ``max_ratio`` is the batch's largest ``cost / optimal`` over its
        ops with a positive optimum (None when it has none).
        """
        if ops <= 0:
            return
        self.maintenance_cost += total_cost
        self.maintenance_optimal += total_optimal
        self.maintenance_ops += ops
        self.maintenance_messages += messages
        self._maint_max = _max_of(self._maint_max, max_ratio)

    def record_noop_moves(self, count: int) -> None:
        """Tally ``count`` zero-distance moves (see :meth:`record_noop_move`)."""
        if count <= 0:
            return
        self.noop_moves += count

    def record_query_batch(
        self,
        total_cost: float,
        total_optimal: float,
        ops: int,
        messages: int,
        max_ratio: float | None = None,
    ) -> None:
        """Accumulate a batch of executed queries as one reduced delta
        (``max_ratio`` as in :meth:`record_maintenance_batch`)."""
        if ops <= 0:
            return
        self.query_cost += total_cost
        self.query_optimal += total_optimal
        self.query_ops += ops
        self.query_messages += messages
        self._query_max = _max_of(self._query_max, max_ratio)

    def record_local_queries(self, count: int) -> None:
        """Tally ``count`` local query hits (see :meth:`record_local_query`)."""
        if count <= 0:
            return
        self.local_queries += count

    # ------------------------------------------------------------------
    @property
    def maintenance_cost_ratio(self) -> float:
        """Aggregate maintenance ratio ``C(E)/C*(E)`` (§4.1). 1.0 when empty."""
        if self.maintenance_optimal <= 0:
            return 1.0
        return self.maintenance_cost / self.maintenance_optimal

    @property
    def maintenance_cost_ratio_excluding_rehomes(self) -> float:
        """Maintenance ratio over mobility-driven moves only (§7 split).

        Equals :attr:`maintenance_cost_ratio` when no move was tagged
        with :meth:`tag_rehome`; 1.0 when nothing but rehomes ran."""
        optimal = self.maintenance_optimal - self.rehome_optimal
        if optimal <= 0:
            return 1.0
        return (self.maintenance_cost - self.rehome_cost) / optimal

    @property
    def query_cost_ratio(self) -> float:
        """Aggregate query ratio. 1.0 when no nonzero-optimal query was recorded."""
        if self.query_optimal <= 0:
            return 1.0
        return self.query_cost / self.query_optimal

    @property
    def max_maintenance_ratio(self) -> float:
        """Worst single-operation maintenance ratio seen (1.0 when none)."""
        return 1.0 if self._maint_max is None else self._maint_max

    @property
    def max_query_ratio(self) -> float:
        """Worst single-query ratio seen (1.0 when none)."""
        return 1.0 if self._query_max is None else self._query_max

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger into this one (used by repetition averaging)."""
        self.publish_cost += other.publish_cost
        self.maintenance_cost += other.maintenance_cost
        self.maintenance_optimal += other.maintenance_optimal
        self.maintenance_ops += other.maintenance_ops
        self.noop_moves += other.noop_moves
        self.rehome_cost += other.rehome_cost
        self.rehome_optimal += other.rehome_optimal
        self.rehome_ops += other.rehome_ops
        self.query_cost += other.query_cost
        self.query_optimal += other.query_optimal
        self.query_ops += other.query_ops
        self.local_queries += other.local_queries
        self.maintenance_messages += other.maintenance_messages
        self.query_messages += other.query_messages
        self._maint_max = _max_of(self._maint_max, other._maint_max)
        self._query_max = _max_of(self._query_max, other._query_max)


def _max_of(current: float | None, value: float | None) -> float | None:
    """The running maximum ``current`` updated with ``value`` (None: none yet)."""
    if value is None:
        return current
    if current is None or value > current:
        return value
    return current
