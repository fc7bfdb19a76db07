"""Prometheus text-exposition rendering of perf/service metrics.

One renderer, two producers: :meth:`repro.perf.PerfRegistry.report`
and :meth:`repro.serve.metrics.ServiceMetrics.perf_view` both emit the
same ``{"counters": {...}, "timers": {...}}`` shape, and
:func:`render_prometheus` turns it into the Prometheus text format —
counters as ``<ns>_<name>_total`` counter metrics, timers as summary
metrics with ``quantile`` labels (p50/p95/p99 from the reservoir),
``_sum`` and ``_count`` series.

Dotted perf names become metric names by replacing every
non-``[a-zA-Z0-9_]`` character with ``_``:
``oracle.row_miss`` → ``repro_oracle_row_miss_total``.

The renderer returns a string; serving or writing it is the caller's
job (``python -m repro perf --prometheus`` prints it). No I/O happens
here (rule RPL007).
"""

from __future__ import annotations

import re
from typing import Any, Mapping

__all__ = ["metric_name", "render_prometheus"]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")

#: quantile label → key of the timer dict the registry reports
_QUANTILES = (("0.5", "p50_s"), ("0.95", "p95_s"), ("0.99", "p99_s"))


def metric_name(namespace: str, dotted: str, suffix: str = "") -> str:
    """``namespace`` + sanitized ``dotted`` (+ ``suffix``) as one metric id."""
    base = _INVALID.sub("_", dotted).strip("_")
    return f"{namespace}_{base}{suffix}"


def render_prometheus(
    report: "Mapping[str, Any]", namespace: str = "repro"
) -> str:
    """The Prometheus text-format exposition of one perf report.

    ``report`` is the ``{"counters": {name: int}, "timers": {name:
    {count, total_s, p50_s, p95_s, p99_s, ...}}}`` shape that
    :meth:`PerfRegistry.report` produces. Output lines are sorted by
    metric name, so equal reports render byte-identically.
    """
    lines: list[str] = []
    counters = report.get("counters", {})
    for name in sorted(counters):
        metric = metric_name(namespace, name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")
    timers = report.get("timers", {})
    for name in sorted(timers):
        stat = timers[name]
        metric = metric_name(namespace, name, "_seconds")
        lines.append(f"# TYPE {metric} summary")
        for q, key in _QUANTILES:
            lines.append(f'{metric}{{quantile="{q}"}} {_fmt(stat.get(key, 0.0))}')
        lines.append(f"{metric}_sum {_fmt(stat.get('total_s', 0.0))}")
        lines.append(f"{metric}_count {int(stat.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Floats with ``repr`` fidelity, ints without a trailing ``.0``."""
    f = float(value)
    if f.is_integer():
        return str(int(f))
    return repr(f)
