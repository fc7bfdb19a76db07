"""Span tracing from outside the program: wrappers around layer entry points.

The traced run installs :class:`SpanLog` wrappers, by attribute name, on
the public functions through which the serve path enters each layer
(:data:`TARGETS`). Every call records a span — name, start, end, parent
span and an optional size value — into preallocated arrays. Worker
processes inherit the wrappers across the fork; a hook on
``repro.serve.worker.worker_main`` drops the parent's spans in the child
and flushes the child's own spans before it exits. All spans are
written as gzipped JSONL when the run ends. A layer's self time is its spans'
duration minus the part their child spans cover.

A missing entry point is reported, not fatal: the program is free to
delete or rename functions, and the metrics that depended on them are
then printed as absent with the missing name.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["TARGETS", "SpanLog", "Spans", "install", "load_jsonl"]


def _len_result(_args: tuple, out: object) -> float:
    return float(len(out))  # type: ignore[arg-type]


def _len_arg0(args: tuple, _out: object) -> float:
    return float(len(args[0]))


def _len_arg1(args: tuple, _out: object) -> float:
    return float(len(args[1]))


#: (span name, module, attribute path, size of the call or None)
TARGETS: tuple[tuple[str, str, str, Callable[[tuple, object], float] | None], ...] = (
    ("serve.service.submit_nowait", "repro.serve.service", "TrackingService.submit_nowait", None),
    # looked up in the service module, whose namespace the constructor calls it from
    ("hierarchy.build_hierarchy", "repro.serve.service", "build_hierarchy", None),
    ("core.publish", "repro.core.mot", "MOTTracker.publish", None),
    ("core.move", "repro.core.mot", "MOTTracker.move", None),
    ("core.query", "repro.core.mot", "MOTTracker.query", None),
    ("core.apply_ops", "repro.core.batch", "BatchMOTEngine.apply_ops", _len_result),
    ("graphs.distance", "repro.graphs.network", "SensorNetwork.distance", None),
    ("graphs.consecutive_distances", "repro.graphs.network", "SensorNetwork.consecutive_distances", None),
    ("graphs.distances_from", "repro.graphs.network", "SensorNetwork.distances_from", None),
    ("graphs.distances_to_many", "repro.graphs.network", "SensorNetwork.distances_to_many", None),
    ("graphs.pair_distances", "repro.graphs.network", "SensorNetwork.pair_distances", None),
    ("graphs.pair_index_distances", "repro.graphs.network", "SensorNetwork.pair_index_distances", None),
    ("serve.transport.encode_frame", "repro.serve.transport", "encode_frame", _len_result),
    ("serve.transport.decode_body", "repro.serve.transport", "decode_body", _len_arg0),
    ("serve.worker.handle_batch", "repro.serve.worker", "ShardWorker.handle_batch", _len_arg1),
)

#: the child-process hook: resets spans after fork, flushes them at exit
WORKER_MAIN = ("repro.serve.worker", "worker_main")


class SpanLog:
    """Spans of one process in preallocated arrays (pages touched on use)."""

    def __init__(self, capacity: int = 4_000_000) -> None:
        self.capacity = capacity
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = np.zeros(capacity, dtype=np.int16)
        self.start = np.zeros(capacity)
        self.end = np.zeros(capacity)
        self.parent = np.zeros(capacity, dtype=np.int32)
        self.value = np.zeros(capacity)
        self.n = 0
        self.dropped = 0
        self.stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset(self) -> None:
        """Forget every span (the forked child drops its parent's)."""
        self.n = 0
        self.dropped = 0
        self.stack.clear()

    def open(self, nid: int) -> int:
        """Start a span by name id; returns its index (-1 when full)."""
        i = self.n
        if i >= self.capacity:
            self.dropped += 1
            return -1
        self.n = i + 1
        stack = self.stack
        self.name[i] = nid
        self.parent[i] = stack[-1] if stack else -1
        stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def close(self, i: int, value: float = 0.0) -> None:
        """End the span opened as ``i`` (innermost first)."""
        if i < 0:
            return
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.value[i] = value

    def wrap(self, name: str, fn: Callable, value: Callable[[tuple, object], float] | None) -> Callable:
        """``fn`` recording one span per call."""
        nid = self.intern(name)
        log = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = log.n
            if i >= log.capacity:
                log.dropped += 1
                return fn(*args, **kwargs)
            log.n = i + 1
            stack = log.stack
            log.name[i] = nid
            log.parent[i] = stack[-1] if stack else -1
            stack.append(i)
            log.start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                log.end[i] = clock()
                stack.pop()
            if value is not None:
                log.value[i] = value(args, out)
            return out

        return traced

    def spans(self, pid: int) -> "Spans":
        n = self.n
        return Spans(
            pid=np.full(n, pid, dtype=np.int64),
            names=list(self.names),
            name=self.name[:n].copy(),
            start=self.start[:n].copy(),
            end=self.end[:n].copy(),
            parent=self.parent[:n].copy(),
            value=self.value[:n].copy(),
            dropped=self.dropped,
        )

    def write_jsonl(self, path: Path, header: dict) -> None:
        """Header line, then one line per span: the child-to-parent hand-off."""
        self.spans(os.getpid()).write_jsonl(path, header)


@dataclass
class Spans:
    """Spans of one or more processes, as columns (parent is per-process)."""

    pid: np.ndarray
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    value: np.ndarray
    dropped: int = 0

    @classmethod
    def empty(cls) -> "Spans":
        f, i = np.empty(0), np.empty(0, dtype=np.int32)
        return cls(np.empty(0, dtype=np.int64), [], i.astype(np.int16), f, f, i, f)

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct children (same process)."""
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(self)
        )
        return dur - covered[: len(self)]

    def write_jsonl(self, path: Path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"header": header, "names": self.names, "dropped": self.dropped}) + "\n")
            cols = zip(
                self.pid.tolist(), self.name.tolist(), self.start.tolist(),
                self.end.tolist(), self.parent.tolist(), self.value.tolist(), strict=True,
            )
            for i, (pid, nid, s, e, p, v) in enumerate(cols):
                fh.write(
                    f'{{"pid":{pid},"id":{i},"name":"{self.names[nid]}","start":{s!r},'
                    f'"end":{e!r},"parent":{p},"value":{v!r}}}\n'
                )


def load_jsonl(path: Path) -> tuple[dict, Spans]:
    """Read a :meth:`Spans.write_jsonl` file back (header, spans)."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    names = head["names"]
    ids = {n: k for k, n in enumerate(names)}
    spans = Spans(
        pid=np.array([r["pid"] for r in rows], dtype=np.int64),
        names=names,
        name=np.array([ids[r["name"]] for r in rows], dtype=np.int16),
        start=np.array([r["start"] for r in rows], dtype=np.float64),
        end=np.array([r["end"] for r in rows], dtype=np.float64),
        parent=np.array([r["parent"] for r in rows], dtype=np.int32),
        value=np.array([r["value"] for r in rows], dtype=np.float64),
        dropped=head["dropped"],
    )
    return head["header"], spans


def concat(parts: list[Spans]) -> Spans:
    """Merge spans of several processes under one name table."""
    if not parts:
        return Spans.empty()
    names: list[str] = []
    for part in parts:
        names += [n for n in part.names if n not in names]
    remap = [np.array([names.index(n) for n in p.names] or [0], dtype=np.int16) for p in parts]
    return Spans(
        pid=np.concatenate([p.pid for p in parts]),
        names=names,
        name=np.concatenate([m[p.name] for m, p in zip(remap, parts, strict=True)]),
        start=np.concatenate([p.start for p in parts]),
        end=np.concatenate([p.end for p in parts]),
        # parent indices are per process: shift each part's into the merged array
        parent=np.concatenate([
            np.where(p.parent >= 0, p.parent + offset, -1).astype(np.int32)
            for p, offset in zip(parts, np.cumsum([0] + [len(p) for p in parts]), strict=False)
        ]),
        value=np.concatenate([p.value for p in parts]),
        dropped=sum(p.dropped for p in parts),
    )


def _resolve(module: str, attr: str) -> tuple[object, str] | None:
    """(owner, final attribute name) of ``module:attr``, or None if absent."""
    owner: object = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


def install(log: SpanLog, out_dir: Path) -> tuple[dict[str, str], Callable[[], None]]:
    """Wrap every :data:`TARGETS` entry point and the worker hook.

    Returns the missing entry points (span name → ``module:attr``) and an
    uninstall function restoring the originals.
    """
    missing: dict[str, str] = {}
    restore: list[tuple[object, object, object]] = []
    for name, module, attr, value in TARGETS:
        found = _resolve(module, attr)
        if found is None:
            missing[name] = f"{module}:{attr}"
            continue
        owner, last = found
        original = getattr(owner, last)
        wrapped = log.wrap(name, original, value)
        restore.append((owner, last, original))
        setattr(owner, last, wrapped)
        # a dispatch table built at import (the worker's frame handlers) holds
        # the original function itself: put the wrapper into it as well
        for table in vars(importlib.import_module(module)).values():
            if isinstance(table, dict):
                for key, fn in list(table.items()):
                    if fn is original:
                        restore.append((table, key, original))
                        table[key] = wrapped
    found = _resolve(*WORKER_MAIN)
    if found is None:
        missing["worker_main"] = ":".join(WORKER_MAIN)
    else:
        owner, last = found
        original = getattr(owner, last)
        restore.append((owner, last, original))
        setattr(owner, last, _worker_hook(log, out_dir, original))

    def uninstall() -> None:
        for owner_, key, original_ in reversed(restore):
            if isinstance(owner_, dict):
                owner_[key] = original_
            else:
                setattr(owner_, key, original_)
        restore.clear()

    return missing, uninstall


def _worker_hook(log: SpanLog, out_dir: Path, original: Callable) -> Callable:
    @functools.wraps(original)
    def worker_main(sock, spec, *args, **kwargs):
        log.reset()
        net = spec.hierarchy.net
        oracle_before = dict(net.oracle_stats)
        try:
            return original(sock, spec, *args, **kwargs)
        finally:
            log.write_jsonl(
                out_dir / f"worker-{os.getpid()}.jsonl.gz",
                {"oracle_before": oracle_before, "oracle_after": dict(net.oracle_stats)},
            )

    return worker_main
