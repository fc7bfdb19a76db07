"""Trace export backends: JSONL files, summaries, determinism diffs.

The on-disk format is JSON Lines: one :meth:`SpanEvent.as_dict
<repro.obs.trace.SpanEvent.as_dict>` record per line, serialized with
sorted keys and compact separators so identical events produce
identical bytes — the property ``python -m repro trace diff`` relies
on when it checks two same-seed runs against each other.

Everything here returns data; printing/formatting is the CLI's job
(and rule RPL007 keeps it that way).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro.obs.trace import SpanEvent

__all__ = [
    "JsonlTraceWriter",
    "encode_event",
    "read_trace",
    "write_trace",
    "summarize_trace",
    "diff_traces",
]

#: volatile keys stripped by timing-insensitive comparisons
TIMING_KEYS = ("t0_s", "duration_s")


def encode_event(event: Union[SpanEvent, "dict[str, Any]"]) -> str:
    """One event as its canonical JSONL line (no trailing newline)."""
    record = event.as_dict() if isinstance(event, SpanEvent) else event
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JsonlTraceWriter:
    """A tracer sink appending one JSON line per finished span.

    Usable directly as a sink (instances are callable) and as a
    context manager::

        with JsonlTraceWriter(path) as sink, tracing(sink=sink):
            ...

    The file is line-buffered via explicit writes; :meth:`close` (or
    the ``with`` exit) flushes and releases it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.events_written = 0

    def __call__(self, event: SpanEvent) -> None:
        self._fh.write(encode_event(event) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_trace(path: Union[str, Path]) -> "list[dict[str, Any]]":
    """Parse a JSONL trace file back into event dicts (blank lines ok)."""
    out: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSONL trace line: {exc}"
                ) from exc
    return out


def write_trace(
    path: Union[str, Path],
    events: "Iterable[Union[SpanEvent, dict[str, Any]]]",
) -> Path:
    """Write ``events`` to ``path`` in canonical JSONL (inverse of
    :func:`read_trace`).

    Accepts finished :class:`SpanEvent` objects or already-decoded
    event dicts; each becomes one :func:`encode_event` line, so a
    ``read_trace`` → ``write_trace`` round trip is byte-identical.
    Returns the written path.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(encode_event(ev) + "\n")
    return out


def _matches(
    event: "dict[str, Any]", kind: Optional[str], obj: Optional[str]
) -> bool:
    if kind is not None and event.get("kind") != kind:
        return False
    if obj is not None and event.get("obj") != obj:
        return False
    return True


def summarize_trace(
    events: "Iterable[dict[str, Any]]",
    kind: Optional[str] = None,
    obj: Optional[str] = None,
) -> "dict[str, Any]":
    """Aggregate a trace (optionally filtered by kind / object).

    Per operation kind: event count, summed/mean cost (over events
    that carried one), hop count, and the distribution of ``level``
    values (how high operations climbed — the §4 meeting-level story).
    Message drops and retries (fault-layer point events) are tallied
    from their annotations.
    """
    per_kind: dict[str, dict[str, Any]] = {}
    objects: set[str] = set()
    total_events = 0
    dropped = 0
    retries = 0
    for ev in events:
        if not _matches(ev, kind, obj):
            continue
        total_events += 1
        if ev.get("obj") is not None:
            objects.add(ev["obj"])
        ann = ev.get("annotations", {})
        if ann.get("dropped"):
            dropped += 1
        if ev.get("kind") == "retry":
            retries += 1
        bucket = per_kind.setdefault(
            ev.get("kind", "?"),
            {
                "events": 0,
                "cost_total": 0.0,
                "cost_events": 0,
                "hops": 0,
                "levels": {},
            },
        )
        bucket["events"] += 1
        if ev.get("cost") is not None:
            bucket["cost_total"] += float(ev["cost"])
            bucket["cost_events"] += 1
        bucket["hops"] += len(ev.get("hops", ()))
        if ev.get("level") is not None:
            lv = str(ev["level"])
            bucket["levels"][lv] = bucket["levels"].get(lv, 0) + 1
    for bucket in per_kind.values():
        n = bucket.pop("cost_events")
        bucket["cost_mean"] = bucket["cost_total"] / n if n else 0.0
        bucket["levels"] = dict(sorted(bucket["levels"].items()))
    return {
        "events": total_events,
        "objects": len(objects),
        "dropped_messages": dropped,
        "retries": retries,
        "kinds": dict(sorted(per_kind.items())),
        "filter": {"kind": kind, "obj": obj},
    }


def _strip_timing(event: "dict[str, Any]") -> "dict[str, Any]":
    return {k: v for k, v in event.items() if k not in TIMING_KEYS}


def diff_traces(
    a_path: Union[str, Path],
    b_path: Union[str, Path],
    ignore_timing: bool = False,
) -> "dict[str, Any]":
    """Compare two JSONL traces event-by-event (the determinism check).

    Returns ``{"identical": bool, "events": (len_a, len_b),
    "first_divergence": None | {...}}``. With ``ignore_timing`` the
    volatile ``t0_s``/``duration_s`` keys are stripped before
    comparison (for traces stamped with a wall clock); without it the
    comparison is over the exact serialized content — two same-seed
    virtual-clock ``repro eval --trace`` traces must be byte-identical.
    """
    a = read_trace(a_path)
    b = read_trace(b_path)
    divergence: Optional[dict[str, Any]] = None
    for i, (ea, eb) in enumerate(zip(a, b)):
        ca, cb = (
            (_strip_timing(ea), _strip_timing(eb)) if ignore_timing else (ea, eb)
        )
        if ca != cb:
            fields = sorted(
                k
                for k in set(ca) | set(cb)
                if ca.get(k) != cb.get(k)
            )
            divergence = {
                "index": i,
                "fields": fields,
                "a": encode_event(ca),
                "b": encode_event(cb),
            }
            break
    if divergence is None and len(a) != len(b):
        divergence = {
            "index": min(len(a), len(b)),
            "fields": ["<trailing events>"],
            "a": f"<{len(a)} events>",
            "b": f"<{len(b)} events>",
        }
    return {
        "identical": divergence is None,
        "events": [len(a), len(b)],
        "ignore_timing": ignore_timing,
        "first_divergence": divergence,
    }
