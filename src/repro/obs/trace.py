"""Structured tracing: spans, per-hop message records, point events.

The paper's claims are *cost* claims, so the trace model is built
around cost attribution: a :class:`Span` covers one logical operation
(``publish`` / ``move`` / ``query`` / ``build`` / ``serve.*``) and
accumulates the per-hop ``(u, v, dist)`` message records, the level the
operation reached, its summed message cost, and free-form annotations
(batch size, coalescing, fault retries). Point events — one message
transmission inside the concurrent simulator, one admission-control
rejection — are zero-duration spans emitted in place.

Design constraints, in order:

1. **Zero overhead when disabled.** :data:`TRACER` ships disabled;
   ``TRACER.span(...)`` then returns the shared :data:`NULL_SPAN`
   singleton, which is falsy, so instrumented hot loops guard per-hop
   recording with ``if sp: sp.hop(u, v, d)`` — one truthiness check per
   hop, nothing allocated. The acceptance bar (a measured serve run
   and the 2048-node build within 2% of untraced) is pinned by
   ``benchmarks``/``docs/OBSERVABILITY.md``.
2. **Observational transparency.** Recording never touches RNG streams,
   cost ledgers, or scheduling decisions; the property suite
   (``tests/obs/test_transparency.py``) replays identical seeds with
   the tracer on and off and asserts identical results.
3. **Determinism.** Span ids are a per-tracer monotone counter
   (:meth:`Tracer.reset` rewinds it), and the time source is
   pluggable: a measured serve run stamps spans with its *virtual*
   clock, so two same-seed runs emit byte-identical JSONL traces — the
   property ``python -m repro trace diff`` checks.

Emission is sink-based: a sink is any callable taking a
:class:`SpanEvent`; :class:`~repro.obs.export.JsonlTraceWriter` writes
JSON lines, plain ``list.append`` collects in memory. Nothing in this
package prints (rule RPL007) — rendering is the CLI's job.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Callable, Hashable, Iterator, Optional, Union

__all__ = [
    "SpanEvent",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TRACER",
    "tracing",
]

Node = Hashable
Hop = "tuple[Node, Node, float]"


def json_safe(value: Any) -> Any:
    """``value`` coerced to something :mod:`json` can serialize.

    Sensor ids are usually ints, but general networks may label nodes
    with tuples or arbitrary hashables; those are rendered with
    ``repr`` so traces of any network serialize without surprises.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return repr(value)


class SpanEvent:
    """One finished span (or point event), as sinks receive it.

    Immutable by convention; ``as_dict()`` is the canonical JSONL
    record. Field order in the dict is fixed so serialized traces are
    stable byte-for-byte across runs.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "kind",
        "obj",
        "level",
        "cost",
        "hops",
        "t0_s",
        "duration_s",
        "annotations",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        obj: Optional[str],
        level: Optional[int],
        cost: Optional[float],
        hops: "tuple[tuple[Node, Node, float], ...]",
        t0_s: Optional[float],
        duration_s: Optional[float],
        annotations: "dict[str, Any]",
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.obj = obj
        self.level = level
        self.cost = cost
        self.hops = hops
        self.t0_s = t0_s
        self.duration_s = duration_s
        self.annotations = annotations

    @property
    def hop_cost(self) -> float:
        """Summed distance of the recorded hops."""
        return sum(h[2] for h in self.hops)

    def as_dict(self) -> "dict[str, Any]":
        """JSON-ready record (stable key order, stringified node ids)."""
        out: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "obj": self.obj,
        }
        if self.level is not None:
            out["level"] = self.level
        if self.cost is not None:
            out["cost"] = self.cost
        if self.hops:
            out["hops"] = [
                [json_safe(u), json_safe(v), d] for (u, v, d) in self.hops
            ]
        if self.t0_s is not None:
            out["t0_s"] = self.t0_s
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.annotations:
            out["annotations"] = {
                k: json_safe(v) for k, v in sorted(self.annotations.items())
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanEvent(id={self.span_id}, kind={self.kind!r}, obj={self.obj!r}, "
            f"cost={self.cost}, hops={len(self.hops)})"
        )


class Span:
    """A live span: accumulates hops/annotations until the ``with`` exits.

    Truthiness is the enabled check — a real span is truthy, the
    :data:`NULL_SPAN` placeholder is falsy — so per-hop instrumentation
    costs one branch when tracing is off.
    """

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "kind",
        "obj",
        "level",
        "cost",
        "_hops",
        "_t0",
        "annotations",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        kind: str,
        obj: Optional[str],
        annotations: "dict[str, Any]",
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.obj = obj
        self.level: Optional[int] = None
        self.cost: Optional[float] = None
        self._hops: list[tuple[Node, Node, float]] = []
        self._t0: Optional[float] = None
        self.annotations = annotations

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def hop(self, u: Node, v: Node, dist: float) -> None:
        """Record one message hop ``u → v`` of graph distance ``dist``."""
        self._hops.append((u, v, dist))

    def annotate(self, **kw: Any) -> None:
        """Attach free-form key/value annotations to the span."""
        self.annotations.update(kw)

    def set_result(
        self, cost: Optional[float] = None, level: Optional[int] = None
    ) -> None:
        """Record the operation's summed message cost / level reached."""
        if cost is not None:
            self.cost = cost
        if level is not None:
            self.level = level

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if exc_type is not None:
            self.annotations.setdefault("error", exc_type.__name__)
        self._tracer.finish(self)
        return False


class NullSpan:
    """The disabled-tracer span: falsy, every method a no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def hop(self, u: Node, v: Node, dist: float) -> None:
        pass

    def annotate(self, **kw: Any) -> None:
        pass

    def set_result(
        self, cost: Optional[float] = None, level: Optional[int] = None
    ) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: the shared no-op span every disabled ``span()`` call returns
NULL_SPAN = NullSpan()

Sink = Callable[[SpanEvent], None]


class Tracer:
    """Span factory + sink fan-out (see module docstring).

    One process-wide instance, :data:`TRACER`, is what the library
    instruments — mirroring :data:`repro.perf.PERF`. Tests and the CLI
    enable it through the :func:`tracing` context manager, which also
    restores the previous state on exit.
    """

    def __init__(
        self,
        enabled: bool = False,
        time_source: Optional[Callable[[], float]] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        #: stamps ``t0_s``/``duration_s``; ``None`` disables timing
        #: entirely (content-only traces, deterministic by construction)
        self.time_source = time_source
        self.sinks: list[Sink] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(
        self, kind: str, obj: Optional[str] = None, **annotations: Any
    ) -> Union[Span, NullSpan]:
        """Open a span; use as ``with TRACER.span("move", obj=o) as sp:``.

        Returns :data:`NULL_SPAN` when disabled. The span becomes the
        current parent for spans/events opened before the ``with``
        block exits (operations in this project do not yield mid-span,
        so a plain stack models the nesting exactly).
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(self, self._next_id, parent, kind, obj, dict(annotations))
        self._next_id += 1
        if self.time_source is not None:
            sp._t0 = self.time_source()
        self._stack.append(sp)
        return sp

    def finish(self, span: Span) -> None:
        """Seal ``span`` and fan the event out to every sink.

        Called by ``Span.__exit__``; user code closes spans by leaving
        the ``with`` block rather than calling this directly.
        """
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misnested exit; keep the stack sane
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        t0 = span._t0
        duration = None
        if t0 is not None and self.time_source is not None:
            duration = self.time_source() - t0
        self._emit(
            SpanEvent(
                span_id=span.span_id,
                parent_id=span.parent_id,
                kind=span.kind,
                obj=span.obj,
                level=span.level,
                cost=span.cost,
                hops=tuple(span._hops),
                t0_s=t0,
                duration_s=duration,
                annotations=span.annotations,
            )
        )

    def event(
        self,
        kind: str,
        obj: Optional[str] = None,
        hop: "Optional[tuple[Node, Node, float]]" = None,
        cost: Optional[float] = None,
        level: Optional[int] = None,
        **annotations: Any,
    ) -> None:
        """Emit a zero-duration point event (message hop, rejection…).

        Parented under the currently open span, if any — this is how
        each :meth:`Engine.schedule_message
        <repro.sim.engine.Engine.schedule_message>` call becomes a
        child event of whatever operation is in flight.
        """
        if not self.enabled:
            return
        parent = self._stack[-1].span_id if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        t0 = self.time_source() if self.time_source is not None else None
        self._emit(
            SpanEvent(
                span_id=span_id,
                parent_id=parent,
                kind=kind,
                obj=obj,
                level=level,
                cost=cost,
                hops=(hop,) if hop is not None else (),
                t0_s=t0,
                duration_s=None,
                annotations=annotations,
            )
        )

    # ------------------------------------------------------------------
    # sinks and state
    # ------------------------------------------------------------------
    def _emit(self, event: SpanEvent) -> None:
        for sink in self.sinks:
            sink(event)

    def add_sink(self, sink: Sink) -> None:
        """Register a sink; every finished span/event is passed to it."""
        self.sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        """Unregister a sink (no error if it was never added)."""
        try:
            self.sinks.remove(sink)
        except ValueError:
            pass

    def reset(self) -> None:
        """Rewind span ids and drop any open spans (a fresh trace)."""
        self._stack.clear()
        self._next_id = 1


#: process-wide tracer the library instruments; disabled by default
TRACER = Tracer(enabled=False)


@contextmanager
def tracing(
    sink: Optional[Sink] = None,
    time_source: Optional[Callable[[], float]] = None,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tracer]:
    """Enable ``tracer`` (default :data:`TRACER`) for one block.

    Resets span ids (so two identically-seeded traced runs emit
    identical ids), installs ``sink`` if given, sets the time source
    (``None`` = no timestamps — the deterministic default for traces
    meant to be diffed), and restores everything on exit.
    """
    t = tracer if tracer is not None else TRACER
    saved = (t.enabled, t.time_source, list(t.sinks))
    t.reset()
    t.enabled = True
    t.time_source = time_source
    if sink is not None:
        t.add_sink(sink)
    try:
        yield t
    finally:
        t.enabled, t.time_source, t.sinks = saved[0], saved[1], list(saved[2])
