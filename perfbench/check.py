"""Answer checking, cost ratios, steady windows and percentiles.

Pure functions over the run's preallocated result arrays, so each can be
tested on synthetic series without a service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import MOVE, QUERY, Inputs

__all__ = [
    "NOT_SENT", "PENDING", "OK", "ERROR", "REFUSED",
    "Check", "Percentile", "Window", "check_answers", "closed_window", "cost_ratios", "percentile",
]

#: per-op status codes in the result array
NOT_SENT, PENDING, OK, ERROR, REFUSED = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Check:
    """Outcome of checking every submitted op's answer."""

    attempted: int
    refused: int
    errored: int
    unanswered: int
    wrong_proxy: int
    below_optimum: int

    @property
    def failed(self) -> int:
        return self.refused + self.errored + self.unanswered + self.wrong_proxy + self.below_optimum

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def check_answers(inputs: Inputs, status: np.ndarray, proxy: np.ndarray, cost: np.ndarray) -> Check:
    """Every answered op must name the replayed position and cost at least the optimum.

    Costs are sums of unit-edge hops, so they are compared exactly.
    """
    sent = status != NOT_SENT
    ok = status == OK
    return Check(
        attempted=int(sent.sum()),
        refused=int((status == REFUSED).sum()),
        errored=int((status == ERROR).sum()),
        unanswered=int((status == PENDING).sum()),
        wrong_proxy=int((ok & (proxy != inputs.expected)).sum()),
        below_optimum=int((ok & (cost < inputs.optimum)).sum()),
    )


def cost_ratios(inputs: Inputs, cost: np.ndarray, upto: int) -> tuple[float, float]:
    """(maintenance, query) cost ratio: Σ answered cost / Σ Manhattan optimum.

    Over the first ``upto`` ops of the stream, coalesced answers included,
    so the ratios depend on the seed only, never on batching or speed.
    """
    kind = inputs.kind[:upto]
    out = []
    for k in (MOVE, QUERY):
        sel = kind == k
        out.append(float(cost[:upto][sel].sum() / inputs.optimum[:upto][sel].sum()))
    return out[0], out[1]


@dataclass(frozen=True)
class Window:
    """A steady measurement window and the completions inside it."""

    start: float
    end: float
    completed: int

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        return self.completed / self.seconds


def closed_window(submit_t: np.ndarray, done_t: np.ndarray, concurrency: int) -> Window:
    """Closed loop: from the C-th completion to the last submission.

    Until the C-th completion the pipeline is still filling; after the last
    submission it drains. In between every completion is replaced by a new
    request, so exactly C are outstanding throughout.
    """
    done = done_t[~np.isnan(done_t)]
    if len(done) < concurrency:
        raise ValueError(f"only {len(done)} completions for a closed loop of {concurrency}")
    start = float(np.partition(done, concurrency - 1)[concurrency - 1])
    end = float(np.nanmax(submit_t))
    if end <= start:
        raise ValueError("the stream ran out before the pipeline was full")
    return Window(start, end, int(((done > start) & (done <= end)).sum()))


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile and the sample count it was taken over."""

    q: float
    value: float
    samples: int


def percentile(values: np.ndarray, q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile; NaN (a failed request) counts as missing any limit."""
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    vals = np.where(np.isnan(values), np.inf, values)
    rank = max(1, math.ceil(n * q / 100.0))
    return Percentile(q, float(np.partition(vals, rank - 1)[rank - 1]), n)
