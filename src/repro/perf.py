"""Lightweight run-time instrumentation: counters and wall-clock timers.

Every run-shaped question the ROADMAP's scaling work keeps asking —
*how hard is the distance oracle being hit? where does an operation's
latency go?* — funnels through this module. It deliberately stays tiny:

- **counters** are plain integer accumulators keyed by dotted names
  (``"oracle.row_miss"``, ``"balanced.embedding_built"``); the
  fault-injection transport charges the ``faults.*`` family —
  ``faults.sent`` / ``faults.delivered`` / ``faults.dropped_loss`` /
  ``faults.dropped_crash`` (per-transmission verdicts from the
  injector), ``faults.retries`` (retransmissions after a timeout),
  ``faults.transmit_failures`` (hops abandoned after the retry cap),
  ``faults.failed_inserts`` / ``faults.failed_deletes`` (operations
  reported failed to the caller) and ``faults.repairs`` (out-of-band
  structure repairs after a terminal failure);
- **timers** accumulate count / total / max wall-clock seconds per
  dotted name (``"mot.move"``) via a context manager, the :func:`timed`
  decorator, or :meth:`PerfRegistry.observe` for durations measured
  elsewhere. Each timer also keeps a bounded reservoir of samples so
  the report can quote p50/p95/p99 — exact up to
  :data:`TimerStat.RESERVOIR_CAP` observations, a seeded uniform
  reservoir beyond (Li's algorithm L, deterministic for a fixed
  observation sequence).

A process-wide singleton :data:`PERF` is what the library instruments;
:meth:`PerfRegistry.report` renders everything as a JSON-ready dict that
``scripts/collect_results.py`` and the ``python -m repro perf``
subcommand emit. Instrumentation overhead is a dict update per event, so
it stays on by default; ``PERF.enabled = False`` turns every probe into
a no-op for microbenchmarks that want a sterile loop.

Typical shape of a report::

    {
      "counters": {"oracle.row_miss": 412, "oracle.row_hit": 96341, ...},
      "timers": {
        "mot.move": {"count": 1000, "total_s": 0.84,
                      "mean_s": 0.00084, "max_s": 0.012,
                      "p50_s": 0.0007, "p95_s": 0.0019, "p99_s": 0.0071},
        ...
      }
    }
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["PerfRegistry", "TimerStat", "PERF", "timed"]

F = TypeVar("F", bound=Callable)


@dataclass
class TimerStat:
    """Accumulated wall-clock statistics of one named timer.

    Besides count/total/max the stat keeps a bounded sample reservoir
    for percentile queries: the first :data:`RESERVOIR_CAP` observations
    are kept verbatim (percentiles are then exact); past the cap, Li's
    algorithm L keeps a uniform sample. It draws how many observations
    to skip before the next replacement instead of one number per
    observation, from a fixed-seed RNG, so replaying the same
    observation sequence yields the same reservoir, and :meth:`add` and
    :meth:`add_many` share the skip state.
    """

    #: sample-reservoir bound: exact percentiles up to this many adds
    RESERVOIR_CAP = 2048

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    samples: list[float] = field(default_factory=list, repr=False)
    _rng: random.Random = field(
        default_factory=lambda: random.Random(0x7E5CA1E), repr=False, compare=False
    )
    #: algorithm L's running weight ``W``
    _w: float = field(default=1.0, repr=False, compare=False)
    #: the observation (1-based count) that replaces a sample next
    _next: int = field(default=0, repr=False, compare=False)

    def _schedule(self, at: int) -> None:
        """Draw the replacement after observation ``at`` (algorithm L)."""
        rand = self._rng.random
        self._w *= math.exp(math.log(1.0 - rand()) / self.RESERVOIR_CAP)
        self._next = at + 1 + int(math.log(1.0 - rand()) / math.log1p(-self._w))

    def add(self, dt: float) -> None:
        """Fold one observation of ``dt`` seconds into the stat."""
        self.count = n = self.count + 1
        self.total_s += dt
        if dt > self.max_s:
            self.max_s = dt
        samples = self.samples
        if len(samples) < self.RESERVOIR_CAP:
            samples.append(dt)
            if len(samples) == self.RESERVOIR_CAP:
                self._schedule(n)
        elif n == self._next:
            samples[self._rng.randrange(self.RESERVOIR_CAP)] = dt
            self._schedule(n)

    def add_many(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order: the exact state of one :meth:`add`
        per value (same count, same sequentially summed ``total_s``,
        same max, same reservoir from the same RNG draws). The count,
        sum and max are C-level folds (``reduce`` adds left to right,
        as :meth:`add` does; ``sum()`` compensates on 3.12); only the
        values that replace a sample cost a Python step."""
        batch = values if isinstance(values, list) else list(values)
        if not batch:
            return
        first = self.count  # observations before this batch
        self.count = last = first + len(batch)
        self.total_s = functools.reduce(operator.add, batch, self.total_s)
        top = max(batch)
        if top > self.max_s:
            self.max_s = top
        samples = self.samples
        cap = self.RESERVOIR_CAP
        room = cap - len(samples)
        if room > 0:
            samples.extend(batch[:room])
            if len(samples) < cap:
                return
            self._schedule(first + room)
        while first < self._next <= last:
            samples[self._rng.randrange(cap)] = batch[self._next - first - 1]
            self._schedule(self._next)

    @property
    def mean_s(self) -> float:
        """Average seconds per observation (0.0 before any observation)."""
        return self.total_s / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] over the reservoir.

        Exact while ``count <= RESERVOIR_CAP``; a uniform-sample
        estimate beyond. 0.0 before any observation.
        """
        if not self.samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
        return ordered[int(rank) - 1]

    @property
    def p50_s(self) -> float:
        """Median seconds per observation."""
        return self.percentile(50.0)

    @property
    def p95_s(self) -> float:
        """95th-percentile seconds per observation."""
        return self.percentile(95.0)

    @property
    def p99_s(self) -> float:
        """99th-percentile seconds per observation."""
        return self.percentile(99.0)

    def as_dict(self) -> dict[str, float]:
        """JSON-ready view of the stat.

        Percentiles come from :meth:`percentile` — the single
        nearest-rank implementation — so the dict can never drift from
        direct ``percentile()`` queries (a re-implemented local helper
        here once skipped the ``[0, 100]`` validation and was one
        rounding tweak away from disagreeing with the method).
        """
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
            "p50_s": self.percentile(50.0),
            "p95_s": self.percentile(95.0),
            "p99_s": self.percentile(99.0),
        }


class PerfRegistry:
    """A named bag of counters and timers (see module docstring)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, int] = {}
        self._timers: dict[str, TimerStat] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, dt: float) -> None:
        """Fold an externally measured duration of ``dt`` seconds into
        timer ``name`` (no-op when disabled), so it lands in the same
        report as context-manager timings."""
        if not self.enabled:
            return
        stat = self._timers.get(name)
        if stat is None:
            stat = self._timers[name] = TimerStat()
        stat.add(dt)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block under timer ``name``."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.add(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def timer_stat(self, name: str) -> TimerStat:
        """Stats of timer ``name`` (zeros if never observed)."""
        return self._timers.get(name, TimerStat())

    def report(self) -> dict:
        """JSON-ready snapshot of every counter and timer."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": {
                name: stat.as_dict()
                for name, stat in sorted(self._timers.items())
            },
        }

    def to_json(self, indent: int = 1) -> str:
        """The report as a JSON string."""
        return json.dumps(self.report(), indent=indent)

    def render_prometheus(self, namespace: str = "repro") -> str:
        """The report in Prometheus text-exposition format.

        Counters become ``<namespace>_<name>_total`` counter metrics,
        timers become summary metrics with p50/p95/p99 quantile labels
        (see :mod:`repro.obs.prometheus` for the exact mapping).
        """
        # imported lazily: repro.obs pulls nothing from repro.perf, but
        # keeping the renderer out of module import keeps perf dependency-free
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(self.report(), namespace=namespace)

    def reset(self) -> None:
        """Drop every counter and timer (a fresh measurement window)."""
        self._counters.clear()
        self._timers.clear()


#: process-wide registry the library instruments
PERF = PerfRegistry()


def timed(name: str, registry: PerfRegistry | None = None) -> Callable[[F], F]:
    """Decorator: time every call of the wrapped function under ``name``.

    Binds to :data:`PERF` at call time unless ``registry`` is given, so
    tests can swap the singleton's state freely.
    """

    def deco(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reg = registry if registry is not None else PERF
            with reg.timer(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco
