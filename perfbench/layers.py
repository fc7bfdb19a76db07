"""Per-layer metrics of a traced pass, from spans and public counters.

Each metric is computed over the pass's measurement window (first timed
submission to last timed completion) and divided by the timed ops in it,
except the set-up metrics, which are medians over the pass's bring-ups.
A metric whose layer did not run reads 0 with a note saying why: the
layer is bypassed on this workload, or its entry point is missing.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from check import percentile
from drive import PassResult
from spans import Spans

__all__ = ["LayerValue", "layer_metrics"]

KERNEL = ("core.publish", "core.move", "core.query", "core.apply_ops")
ORACLE = (
    "graphs.distance", "graphs.consecutive_distances", "graphs.distances_from",
    "graphs.distances_to_many", "graphs.pair_distances", "graphs.pair_index_distances",
)
CODEC = ("serve.transport.encode_frame", "serve.transport.decode_body")
CLIENT = ("loadgen.client", "loadgen.generator")


@dataclass(frozen=True)
class LayerValue:
    value: float
    note: str = ""


class _Window:
    """Spans of one side of the process boundary that start inside the window."""

    def __init__(self, spans: Spans, start: float, end: float) -> None:
        keep = (spans.start >= start) & (spans.start <= end)
        self.names = spans.names
        self.name = spans.name[keep]
        self.self_t = spans.self_time()[keep]
        self.dur = spans.duration[keep]
        self.value = spans.value[keep]

    def _sel(self, names: tuple[str, ...]) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def count(self, *names: str) -> int:
        return int(self._sel(names).sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_t[self._sel(names)].sum())

    def total_self_s(self) -> float:
        return float(self.self_t.sum())

    def durations(self, *names: str) -> np.ndarray:
        return self.dur[self._sel(names)]

    def values(self, *names: str) -> np.ndarray:
        return self.value[self._sel(names)]


def _missing_note(names: tuple[str, ...], missing: dict[str, str]) -> str:
    gone = [missing[n] for n in names if n in missing]
    return f"absent: missing {', '.join(gone)}" if gone else "not exercised on this workload"


def layer_metrics(res: PassResult, parent: Spans, child: Spans, child_oracle: dict[str, float],
                  missing: dict[str, str], loop: str) -> dict[str, LayerValue]:
    """Every per-layer metric of :data:`workloads.PER_LAYER` for one traced pass."""
    w0, w1 = res.layer_window
    window_s = w1 - w0
    ops = max(res.layer_ops, 1)
    par = _Window(parent, w0, w1)
    kid = _Window(child, w0, w1)
    out: dict[str, LayerValue] = {}

    def per_op_us(seconds: float) -> float:
        return seconds / ops * 1e6

    def per_call(name: str, scale: float) -> LayerValue:
        calls = par.count(name) + kid.count(name)
        if calls == 0:
            return LayerValue(0.0, _missing_note((name,), missing))
        return LayerValue((par.self_s(name) + kid.self_s(name)) / calls * scale)

    out["loadgen.busy_share"] = LayerValue(par.self_s(*CLIENT) / window_s)
    if loop == "open" and res.late_ms is not None:
        late = percentile(res.late_ms, 99.0)
        out["loadgen.late_p99_ms"] = LayerValue(late.value, f"{late.samples} samples")
    else:
        out["loadgen.late_p99_ms"] = LayerValue(0.0, "closed loop: requests have no due time")
    out["serve.service.submit_us"] = per_call("serve.service.submit_nowait", 1e6)

    n_batches, batch_ops = res.batches
    out["serve.shard.ops_per_batch"] = (
        LayerValue(batch_ops / n_batches, f"{int(n_batches)} batches") if n_batches
        else LayerValue(0.0, "no batches recorded")
    )
    uncovered = max(res.cpu_s - par.total_self_s(), 0.0)
    out["serve.shard.self_us_per_op"] = LayerValue(
        per_op_us(uncovered), f"service-process CPU {res.cpu_s:.3f} s, spans {par.total_self_s():.3f} s"
    )

    kernel_calls = par.count(*KERNEL) + kid.count(*KERNEL)
    if kernel_calls:
        out["core.kernel_us_per_op"] = LayerValue(per_op_us(par.self_s(*KERNEL) + kid.self_s(*KERNEL)))
        out["core.ops_per_call"] = LayerValue(res.layer_ops / kernel_calls, f"{kernel_calls} calls")
    else:
        note = _missing_note(KERNEL, missing)
        out["core.kernel_us_per_op"] = LayerValue(0.0, note)
        out["core.ops_per_call"] = LayerValue(0.0, note)
    out["core.move_us"] = per_call("core.move", 1e6)
    out["core.query_us"] = per_call("core.query", 1e6)

    oracle_calls = par.count(*ORACLE) + kid.count(*ORACLE)
    out["graphs.oracle_us_per_op"] = (
        LayerValue(per_op_us(par.self_s(*ORACLE) + kid.self_s(*ORACLE)), f"{oracle_calls} calls")
        if oracle_calls else LayerValue(0.0, _missing_note(ORACLE, missing))
    )
    oracle = {k: res.oracle.get(k, 0.0) + child_oracle.get(k, 0.0) for k in set(res.oracle) | set(child_oracle)}
    out["graphs.rows_per_op"] = LayerValue(oracle.get("rows_computed", 0.0) / ops)
    lookups = oracle.get("row_cache_hits", 0.0) + oracle.get("row_cache_misses", 0.0)
    out["graphs.row_cache_hit_ratio"] = (
        LayerValue(oracle["row_cache_hits"] / lookups, f"{int(lookups)} row lookups") if lookups
        else LayerValue(0.0, "no row-cache lookups (matrix-backed oracle)")
    )

    builds = parent.duration[parent.name == parent.names.index("hierarchy.build_hierarchy")] \
        if "hierarchy.build_hierarchy" in parent.names else np.empty(0)
    out["hierarchy.build_s"] = (
        LayerValue(float(np.median(builds)), f"{len(builds)} builds") if len(builds)
        else LayerValue(0.0, _missing_note(("hierarchy.build_hierarchy",), missing))
    )
    for phase, values in res.phases.items():
        out[f"setup.{phase}"] = LayerValue(statistics.median(values), f"{len(values)} bring-ups")

    if par.count(*CODEC):
        out["serve.transport.bytes_per_op"] = LayerValue(float(par.values(*CODEC).sum()) / ops)
        out["serve.transport.codec_us_per_op"] = LayerValue(per_op_us(par.self_s(*CODEC)))
    else:
        note = _missing_note(CODEC, missing)
        out["serve.transport.bytes_per_op"] = LayerValue(0.0, note)
        out["serve.transport.codec_us_per_op"] = LayerValue(0.0, note)

    handled = kid.durations("serve.worker.handle_batch")
    if len(handled):
        out["serve.worker.apply_ms_p50"] = LayerValue(
            float(np.median(handled)) * 1e3, f"{len(handled)} batch frames"
        )
        out["serve.worker.ops_per_batch"] = LayerValue(float(kid.values("serve.worker.handle_batch").mean()))
    else:
        note = _missing_note(("serve.worker.handle_batch",), missing)
        out["serve.worker.apply_ms_p50"] = LayerValue(0.0, note)
        out["serve.worker.ops_per_batch"] = LayerValue(0.0, note)
    return out
