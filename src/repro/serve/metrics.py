"""Service-side accounting: latency, queue depth, batching, admissions.

Everything measurable about one service run funnels through a single
:class:`ServiceMetrics` instance, and only there: the service keeps no
copy in the process-wide :data:`repro.perf.PERF` registry, and reports
(:func:`repro.serve.bench.drive_workload`'s JSON, Prometheus text)
read :meth:`as_dict` and :meth:`perf_view`. Distributions reuse :class:`repro.perf.TimerStat`
(count/total/max + reservoir percentiles), so ``p50/p95/p99`` come for
free and behave identically to every other timer in the project.
Shards fold a settled batch in once (:meth:`record_completions`), not
op by op, and admission only appends each op's queue depth to a pending
list that :meth:`record_batch` and every read of :attr:`queue_depth`
fold into the distribution, in admission order.

Units: latency stats are service-clock **seconds** (virtual or wall);
queue-depth and batch-size stats reuse the TimerStat machinery but are
dimensionless counts (the report strips the ``_s`` suffix for them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf import TimerStat

__all__ = ["ServiceMetrics"]


def _count_stat_dict(stat: TimerStat) -> dict[str, float]:
    """A TimerStat re-labelled for dimensionless observations."""
    d = stat.as_dict()
    return {
        "observations": d["count"],
        "mean": d["mean_s"],
        "max": d["max_s"],
        "p50": d["p50_s"],
        "p95": d["p95_s"],
        "p99": d["p99_s"],
    }


@dataclass
class ServiceMetrics:
    """Counters and distributions of one :class:`TrackingService` run."""

    admitted: dict[str, int] = field(default_factory=dict)  # per op kind
    #: bring-up ops (admission-exempt warm-up publishes), kept out of
    #: ``admitted``, ``completed`` and ``latency`` so steady-state SLIs
    #: exclude them
    warmup: dict[str, int] = field(default_factory=dict)
    completed: dict[str, int] = field(default_factory=dict)
    failed: int = 0  # ops whose future carried an exception
    rejected_rate: int = 0
    rejected_queue: int = 0
    queries_executed: int = 0
    queries_coalesced: int = 0
    batches: int = 0
    latency: dict[str, TimerStat] = field(default_factory=dict)  # per op kind
    batch_size: TimerStat = field(default_factory=TimerStat)
    batch_size_hist: dict[int, int] = field(default_factory=dict)
    _queue_depth: TimerStat = field(default_factory=TimerStat, repr=False)
    #: admission depths not yet folded into ``_queue_depth``
    _depths: list[int] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # recording (called by the service / shards)
    # ------------------------------------------------------------------
    def record_admission(self, kind: str, depth: int) -> None:
        """One request passed admission control onto a queue of ``depth``."""
        self.admitted[kind] = self.admitted.get(kind, 0) + 1
        self._depths.append(depth)

    def _fold_depths(self) -> None:
        depths = self._depths
        if depths:
            self._depths = []
            self._queue_depth.add_many(map(float, depths))

    def record_warmup(self, kind: str) -> None:
        """One bring-up request bypassed admission control (warm-up).

        Deliberately *not* :meth:`record_admission`: warm-up publishes
        used to land in ``admitted`` and inflated every rate that
        divides by admitted ops (regression
        ``test_warmup_not_counted_as_admitted``).
        """
        self.warmup[kind] = self.warmup.get(kind, 0) + 1

    def record_rejection(self, reason: str) -> None:
        """One request bounced by admission control (``rate``/``queue``)."""
        if reason == "rate":
            self.rejected_rate += 1
        else:
            self.rejected_queue += 1

    def record_batch(self, size: int) -> None:
        """One shard wakeup drained ``size`` operations; the pending
        admission depths fold in here, so the list stays bounded."""
        self._fold_depths()
        self.batches += 1
        self.batch_size.add(float(size))
        self.batch_size_hist[size] = self.batch_size_hist.get(size, 0) + 1

    def record_completions(
        self, latencies: dict[str, list[float]], coalesced_queries: int
    ) -> None:
        """One settled batch: each kind's service-clock latencies in
        settle order, and how many of its queries were coalesced."""
        for kind, values in latencies.items():
            if not values:
                continue
            self.completed[kind] = self.completed.get(kind, 0) + len(values)
            stat = self.latency.get(kind)
            if stat is None:
                stat = self.latency[kind] = TimerStat()
            stat.add_many(values)
        queries = latencies.get("query")
        if queries:
            self.queries_coalesced += coalesced_queries
            self.queries_executed += len(queries) - coalesced_queries

    def record_failures(self, n: int) -> None:
        """``n`` admitted operations raised instead of completing."""
        self.failed += n

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> TimerStat:
        """Queue depth at admission, with every admission so far folded in."""
        self._fold_depths()
        return self._queue_depth

    @property
    def total_admitted(self) -> int:
        """Admitted operations across all kinds (warm-up excluded)."""
        return sum(self.admitted.values())

    @property
    def total_warmup(self) -> int:
        """Bring-up operations across all kinds."""
        return sum(self.warmup.values())

    @property
    def total_completed(self) -> int:
        """Completed operations across all kinds."""
        return sum(self.completed.values())

    @property
    def total_rejected(self) -> int:
        """Rejections across both admission-control reasons."""
        return self.rejected_rate + self.rejected_queue

    @property
    def counters(self) -> dict[str, int]:
        """Flat dotted-name counters of this run (snapshot-friendly)."""
        out: dict[str, int] = {}
        for kind, n in sorted(self.admitted.items()):
            out[f"serve.admitted.{kind}"] = n
        for kind, n in sorted(self.warmup.items()):
            out[f"serve.warmup.{kind}"] = n
        for kind, n in sorted(self.completed.items()):
            out[f"serve.completed.{kind}"] = n
        out["serve.failed"] = self.failed
        out["serve.rejected.rate"] = self.rejected_rate
        out["serve.rejected.queue"] = self.rejected_queue
        out["serve.queries.executed"] = self.queries_executed
        out["serve.queries.coalesced"] = self.queries_coalesced
        out["serve.batches"] = self.batches
        return out

    def perf_view(self) -> dict:
        """This run's metrics in the registry-report shape.

        Same ``{"counters", "timers"}`` layout as
        :meth:`repro.perf.PerfRegistry.report`, so
        :func:`repro.obs.prometheus.render_prometheus` consumes either.
        The view is per-service and, under a virtual clock, fully
        deterministic.
        """
        timers = {
            f"serve.latency.{kind}": stat.as_dict()
            for kind, stat in sorted(self.latency.items())
        }
        timers["serve.queue_depth"] = self.queue_depth.as_dict()
        timers["serve.batch_size"] = self.batch_size.as_dict()
        return {"counters": self.counters, "timers": timers}

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every counter and distribution."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "warmup": dict(sorted(self.warmup.items())),
            "completed": dict(sorted(self.completed.items())),
            "failed": self.failed,
            "rejected": {
                "rate": self.rejected_rate,
                "queue": self.rejected_queue,
                "total": self.total_rejected,
            },
            "queries": {
                "executed": self.queries_executed,
                "coalesced": self.queries_coalesced,
            },
            "batches": self.batches,
            "latency_s": {
                kind: stat.as_dict() for kind, stat in sorted(self.latency.items())
            },
            "queue_depth": _count_stat_dict(self.queue_depth),
            "batch_size": _count_stat_dict(self.batch_size),
            "batch_size_hist": {
                str(k): v for k, v in sorted(self.batch_size_hist.items())
            },
        }
