"""`TrackingService` — the front door of the MOT structure.

One service instance owns:

- a hierarchy built **once** over the shared :class:`SensorNetwork`,
- ``shards`` :class:`~repro.serve.shard.TrackerShard` front ends,
  whose engines run in process by default or (``workers > 0``) in
  forked worker processes — objects are partitioned with a
  :class:`~repro.serve.hashring.HashRing` (SHA-256-based, so placement
  does not depend on ``PYTHONHASHSEED`` and resizing the fleet moves
  only ~K/n keys),
- admission control: a token-bucket rate limiter over the whole
  service plus a bounded per-shard queue, both rejecting with
  :class:`~repro.serve.protocol.Overloaded` and a ``retry_after`` hint,
- a :class:`~repro.serve.metrics.ServiceMetrics` sink.

Shutdown is graceful: :meth:`stop` releases the clock, drains every
queue to empty, resolves every admitted future, then retires the
workers — no admitted operation is ever dropped. ``stop`` is
idempotent and concurrency-safe: the drain runs once, memoized as a
task every caller awaits.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Hashable, Union

from repro.core.costs import CostLedger, close_to
from repro.core.mot import MOTConfig
from repro.graphs.network import SensorNetwork
from repro.hierarchy.structure import build_hierarchy
from repro.obs.trace import TRACER
from repro.serve.clock import VirtualClock, WallClock
from repro.serve.hashring import HashRing
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import OpResponse, Overloaded, Request, kind_of
from repro.serve.shard import TrackerShard
from repro.serve.worker import WorkerSpec

Node = Hashable

__all__ = ["ServiceConfig", "TokenBucket", "TrackingService", "shard_index"]

#: shared rings for the module-level ``shard_index`` helper — one ring
#: per fleet size, identical to the ring a TrackingService of that size
#: routes with, so helper and service always agree on placement
_DEFAULT_RINGS: dict[int, HashRing] = {}


def shard_index(obj: str, shards: int) -> int:
    """Stable shard of ``obj`` on a ``shards``-sized consistent-hash ring.

    Hash-seed independent (SHA-256 ring points) and identical to
    :meth:`TrackingService.shard_of`'s routing for the same fleet size.
    """
    ring = _DEFAULT_RINGS.get(shards)
    if ring is None:
        ring = _DEFAULT_RINGS[shards] = HashRing(range(shards))
    return ring.shard_for(obj)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of one :class:`TrackingService`.

    - ``shards`` — shard count; objects are partitioned on a
      consistent-hash ring (see :mod:`repro.serve.hashring`).
    - ``workers`` — 0 (default) runs every shard's engine in process;
      ``N > 0`` forks ``N`` worker *processes* for them instead (and
      overrides ``shards`` as the shard count). Worker processes
      require a wall clock — see :mod:`repro.serve.worker`.
    - ``batch_size`` — max operations one shard drains per wakeup and
      applies in one engine call. The default is large enough that a
      saturated shard hands the engine its whole backlog; an idle shard
      still serves each op as it arrives.
    - ``queue_capacity`` — max admitted-but-unserviced ops per shard;
      beyond it, submits are rejected ``Overloaded("queue")``.
    - ``rate_limit`` — service-wide admitted ops/s through a token
      bucket of ``burst`` tokens (``None`` disables the limiter).
      Publishes skip the limiter (they are one-time registrations, not
      steady-state traffic); the queue bound still applies.
    - ``service_time_base_s`` — the virtual-clock service model: each
      executed op occupies its shard for this many seconds (a
      coalesced twin for none). Under a wall clock real compute time
      is the service time, and this value only sizes a full queue's
      ``retry_after`` hint: ``max(1, depth) × service_time_base_s``.
    - ``metrics_snapshot_interval_s`` — with a value, the service takes
      a periodic counters snapshot (see
      :meth:`TrackingService.maybe_snapshot`) no more often than every
      interval seconds of service-clock time; ``None`` disables.
    """

    shards: int = 4
    workers: int = 0
    batch_size: int = 1024
    queue_capacity: int = 64
    rate_limit: float | None = None
    burst: float = 16.0
    service_time_base_s: float = 1e-3
    metrics_snapshot_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process shards)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.service_time_base_s < 0:
            raise ValueError("service_time_base_s must be >= 0")
        if (
            self.metrics_snapshot_interval_s is not None
            and self.metrics_snapshot_interval_s <= 0
        ):
            raise ValueError("metrics_snapshot_interval_s must be positive (or None)")

    @property
    def multiprocess(self) -> bool:
        """Whether shards run as forked worker processes."""
        return self.workers > 0

    @property
    def num_shards(self) -> int:
        """Effective shard count (``workers`` overrides ``shards``)."""
        return self.workers if self.workers > 0 else self.shards


class TokenBucket:
    """Deterministic token-bucket limiter over service-clock time."""

    def __init__(self, rate: float, burst: float, start: float = 0.0) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = start

    def try_admit(self, t: float) -> float:
        """Take one token at time ``t``; returns 0.0 on success, else
        the ``retry_after`` seconds until a token accrues.

        Admission compares with :func:`repro.core.costs.close_to`
        slack: the balance accrues through repeated float
        multiply-adds, so at offered load exactly equal to ``rate`` the
        balance oscillates around 1.0 by a few ulps — strict
        ``>= 1.0`` then rejects admissible operations (tens of
        thousands per 10⁵ arrivals in the regression test). A token
        short by float noise is a token.
        """
        if t > self._last:
            self.tokens = min(self.burst, self.tokens + (t - self._last) * self.rate)
            self._last = t
        if self.tokens >= 1.0 or close_to(self.tokens, 1.0):
            self.tokens = max(0.0, self.tokens - 1.0)
            return 0.0
        return (1.0 - self.tokens) / self.rate


class TrackingService:
    """Sharded, batching, backpressured front end over MOT trackers."""

    def __init__(
        self,
        net: SensorNetwork,
        config: ServiceConfig | None = None,
        seed: int = 0,
        clock: Union[VirtualClock, WallClock, None] = None,
        mot_config: MOTConfig | None = None,
    ) -> None:
        self.net = net
        self.config = config or ServiceConfig()
        self.seed = seed
        # Default to wall time: a live service must never wait for
        # someone to advance a virtual clock. The deterministic
        # VirtualClock is opt-in for loadgen/bench replays, whose
        # arrival process is the clock's driver.
        self.clock = clock if clock is not None else WallClock()
        if self.config.multiprocess and self.clock.virtual:
            raise ValueError(
                "workers > 0 requires a wall clock: virtual-time determinism "
                "needs every transition on one cooperative loop"
            )
        self.mot_config = mot_config or MOTConfig()
        if self.mot_config.use_parent_sets:
            # refused here, before any shard is built or forked: inside
            # a worker the engine would raise before its ready frame
            raise ValueError(
                "the service applies ops through BatchMOTEngine, which "
                "requires use_parent_sets=False; run parent-set ablations "
                "on the sequential MOTTracker"
            )
        self.metrics = ServiceMetrics()
        #: the one hierarchy every shard engine (and the audit
        #: reference) shares — MOT state is per-shard, the overlay is
        #: read-only, and identical overlays make costs comparable
        self.hierarchy = build_hierarchy(
            net,
            seed=seed,
            parent_set_radius_factor=self.mot_config.parent_set_radius_factor,
            special_parent_gap=self.mot_config.special_parent_gap,
        )
        num_shards = self.config.num_shards
        #: object → shard routing; shard ids double as list indices
        self.ring = HashRing(range(num_shards))
        self.shards = [
            TrackerShard(
                WorkerSpec(i, self.hierarchy, self.mot_config),
                clock=self.clock,
                metrics=self.metrics,
                batch_size=self.config.batch_size,
                service_time_base_s=self.config.service_time_base_s,
                process=self.config.multiprocess,
            )
            for i in range(num_shards)
        ]
        self._bucket = (
            TokenBucket(self.config.rate_limit, self.config.burst, self.clock.now)
            if self.config.rate_limit is not None
            else None
        )
        #: periodic counters snapshots (see :meth:`maybe_snapshot`)
        self.snapshots: list[dict] = []
        self._last_snapshot_t: float | None = None
        self._started = False
        self._closed = False
        self._drain_task: asyncio.Future | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start every shard's drain loop (forking its worker process first)."""
        if self._closed:
            raise RuntimeError("service is closed")
        for shard in self.shards:
            shard.start()
        self._started = True

    async def stop(self) -> None:
        """Graceful drain: finish every admitted op, then retire workers.

        Memoizes the drain as a task (claim-before-await, the same
        discipline as :meth:`TrackerShard.stop`): a concurrent second
        ``stop()`` awaits the *same* drain instead of returning while
        shards are still draining, and later calls are no-ops.
        """
        if not self._started:
            self._closed = True
            return
        task = self._drain_task
        if task is None:
            task = self._drain_task = asyncio.ensure_future(self._drain())
        await asyncio.shield(task)

    async def _drain(self) -> None:
        self._closed = True
        self.clock.release()
        for shard in self.shards:
            await shard.stop()

    async def __aenter__(self) -> "TrackingService":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def shard_of(self, obj: str) -> TrackerShard:
        """The shard that owns ``obj`` (consistent-hash routing)."""
        return self.shards[self.ring.shard_for(obj)]

    def submit_nowait(self, req: Request) -> asyncio.Future:
        """Admit + enqueue one request; the open-loop entry point.

        Raises :class:`Overloaded` synchronously when admission control
        rejects; otherwise returns the future of the op's
        :class:`OpResponse`.

        The queue bound is checked **before** the rate limiter takes a
        token: a queue-rejected op must be token-neutral, otherwise
        rejected ops burn tokens that admissible ones never get and
        effective throughput sags below ``rate_limit`` under queue
        pressure (the regression
        ``test_queue_rejection_is_token_neutral`` locks this order in).
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")
        try:
            kind = req.kind
        except AttributeError:
            kind = kind_of(req)  # not a request record: raises TypeError
        t = self.clock.now
        shard = self.shard_of(req.obj)
        depth = shard.depth
        if depth >= self.config.queue_capacity:
            shard.rejected += 1
            self.metrics.record_rejection("queue")
            retry = self._queue_retry_after(shard, t)
            if TRACER.enabled:
                TRACER.event(
                    "serve.reject", obj=str(req.obj), reason="queue", retry_after=retry
                )
            raise Overloaded("queue", retry)
        if self._bucket is not None and kind != "publish":
            retry = self._bucket.try_admit(t)
            if retry > 0.0:
                shard.rejected += 1
                self.metrics.record_rejection("rate")
                if TRACER.enabled:
                    TRACER.event(
                        "serve.reject", obj=str(req.obj), reason="rate", retry_after=retry
                    )
                raise Overloaded("rate", retry)
        fut = shard.submit(req, t, kind=kind)
        self.metrics.record_admission(kind, depth)
        return fut

    def _queue_retry_after(self, shard: TrackerShard, t: float) -> float:
        """A useful ``retry_after`` for a full queue under either clock.

        Virtual mode knows the shard's busy horizon exactly. Under a
        wall clock ``busy_until`` never advances (completions are real
        clock readings), so the old ``busy_until - t`` collapsed to the
        constant ``service_time_base_s`` regardless of backlog; estimate
        instead from what is actually queued: ``depth`` ops at the
        configured per-op service time.
        """
        if self.clock.virtual:
            return max(shard.busy_until - t, self.config.service_time_base_s)
        return max(1, shard.depth) * self.config.service_time_base_s

    async def submit(self, req: Request) -> OpResponse:
        """Admit one request and wait for its completion."""
        return await self.submit_nowait(req)

    def submit_warmup(self, req: Request) -> asyncio.Future:
        """Enqueue ``req`` bypassing admission control entirely.

        Registering the object catalogue before the timed run opens is
        service bring-up, not offered load: it must neither consume
        rate tokens nor bounce off a queue bound sized for steady-state
        traffic. It is counted under the separate ``warmup`` metric —
        **not** ``record_admission`` — and the shard leaves it out of
        the completed counts and latencies, service-wide and per shard,
        so bring-up inflates neither the admitted-ops denominators nor
        any SLI.
        The load generator uses this for its warm-up publishes;
        everything after bring-up goes through :meth:`submit_nowait`.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running")
        shard = self.shard_of(req.obj)
        kind = kind_of(req)
        self.metrics.record_warmup(kind)
        return shard.submit(req, self.clock.now, warmup=True, kind=kind)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    async def healthcheck(self) -> dict:
        """Liveness of every shard plus a service-level verdict.

        For worker processes the probe is a real ``health`` frame
        round-trip through the shard's queue — a hung or dead worker
        fails the probe, not just a dead process handle.
        """
        shards = [await shard.health() for shard in self.shards]
        return {
            "ok": all(s["alive"] for s in shards),
            "multiprocess": self.config.multiprocess,
            "started": self._started,
            "closed": self._closed,
            "depth": self.total_depth,
            "shards": shards,
        }

    def snapshot(self) -> dict:
        """One timestamped copy of the service counters, appended to
        :attr:`snapshots` and returned.

        Timestamps come from the service clock, so a virtual-clock
        replay yields a deterministic snapshot series.
        """
        snap = {
            "t_s": self.clock.now,
            "counters": dict(self.metrics.counters),
            "depth": self.total_depth,
        }
        self.snapshots.append(snap)
        self._last_snapshot_t = self.clock.now
        return snap

    def maybe_snapshot(self) -> dict | None:
        """Take a :meth:`snapshot` if the configured interval elapsed.

        The caller decides *when* to poll (the load generator calls this
        after each clock advance); this method only rate-limits the
        series to ``metrics_snapshot_interval_s``. Returns the new
        snapshot, or ``None`` when disabled or not yet due.
        """
        interval = self.config.metrics_snapshot_interval_s
        if interval is None:
            return None
        now = self.clock.now
        if self._last_snapshot_t is not None and now - self._last_snapshot_t < interval:
            return None
        return self.snapshot()

    def merged_ledger(self) -> CostLedger:
        """All shards' cost ledgers folded into one.

        An in-process shard reads its engine's live ledger, a worker
        shard the ledger its final frame carried home — so in
        multiprocess mode call this after :meth:`stop` (before it, a
        worker shard's ledger raises ``RuntimeError``).
        """
        total = CostLedger()
        for shard in self.shards:
            total.merge(shard.ledger)
        return total

    @property
    def total_depth(self) -> int:
        """Admitted-but-unserviced operations across all shards."""
        return sum(shard.depth for shard in self.shards)
