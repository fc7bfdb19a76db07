"""The benchmark's workloads and metric definitions — its one source of truth.

``BENCHMARK.json`` at the repository root repeats the names, units and
directions declared here; ``perfbench/tests/test_manifest.py`` holds the
two in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "LATENCY", "PER_LAYER", "Metric"]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: network, objects, op mix and loop shape."""

    name: str
    #: the network is a ``side × side`` unit grid (node id ``r * side + c``)
    side: int
    objects: int
    #: probability that an op is a move (the rest are queries)
    move_share: float
    #: ``"uniform"`` or ``"zipf"`` object popularity of queries
    popularity: str
    #: ``"closed"`` (``concurrency`` outstanding) or ``"open"`` (Poisson at ``rate``)
    loop: str
    #: forked shard worker processes (0 = in-process shards)
    workers: int = 0
    concurrency: int = 0
    rate: float = 0.0
    #: closed loops: the op stream is sized for this many ops/s over the run,
    #: far above what the service does today
    stream_rate: float = 0.0
    #: closed loops: the cost ratios sum over exactly the first
    #: ``cost_rate × seconds`` ops of the stream (the run goes on until they
    #: are submitted), so they are identical for a seed whatever the speed
    cost_rate: float = 0.0
    why: str = ""
    loads: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()

    def cost_ops(self, seconds: float, stream: int) -> int:
        """Ops whose costs make up the cost ratios in a run of ``seconds``."""
        if self.loop == "open":
            return stream
        return int(self.cost_rate * seconds)


#: Zipf exponent of query popularity on ``zipf`` workloads
ZIPF_EXPONENT = 1.1
#: share of queries that target the head object in flash-crowd bursts:
#: the last ``FLASH_SHARE`` of every ``FLASH_BLOCK`` consecutive queries
FLASH_SHARE = 0.10
FLASH_BLOCK = 1000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="closed-moves-1k",
            side=32,
            objects=2000,
            move_share=0.8,
            popularity="uniform",
            loop="closed",
            concurrency=1024,
            stream_rate=30_000.0,
            cost_rate=5_000.0,
            why=(
                "32x32 grid (full-matrix oracle), 2000 random-walk objects, 4 moves:1 query, "
                "closed loop C=1024 in-process: saturates admission, batching, settlement, move kernel"
            ),
            loads=("serve.service", "serve.shard", "core", "hierarchy"),
            bypasses=("serve.worker", "serve.transport", "graphs row cache (matrix gather only)"),
        ),
        Workload(
            name="open-workers-1k",
            side=32,
            objects=2000,
            move_share=0.5,
            popularity="uniform",
            loop="open",
            workers=2,
            rate=2000.0,
            why=(
                "32x32 grid, 2000 objects, 1 move:1 query, 2 worker processes, open-loop Poisson "
                "2000 ops/s: per-request cost of the process boundary at small batches"
            ),
            loads=("serve.service", "serve.worker", "serve.transport", "core", "hierarchy"),
            bypasses=("graphs row cache (matrix gather only)", "saturation (offered load ~1/5 of capacity)"),
        ),
        Workload(
            name="open-queries-4k",
            side=64,
            objects=500,
            move_share=0.2,
            popularity="zipf",
            loop="open",
            rate=200.0,
            why=(
                "64x64 grid (lazy 256-row oracle), 500 objects, 1 move:4 Zipf(1.1) queries, 10% flash "
                "crowd, in-process, open loop 200 ops/s: oracle row misses; set-up and memory of a big overlay"
            ),
            loads=("graphs", "hierarchy", "core", "serve.service", "serve.shard"),
            bypasses=("serve.worker", "serve.transport", "saturation (offered load ~1/3 of capacity)"),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """One reported metric: name, unit, better direction, and its meaning."""

    name: str
    unit: str
    better: str
    meaning: str
    #: per-layer metrics: the end-to-end metric (and workload) it should move
    moves: str = ""


#: the end-to-end metrics ``BENCHMARK.json`` bounds (reported by untraced runs)
END_TO_END: tuple[Metric, ...] = (
    Metric(
        "throughput_ops_s", "ops/s", "higher",
        "closed: completions in the steady window / its seconds; open: completed ops / "
        "schedule start to last completion",
    ),
    Metric(
        "setup_s", "s", "lower",
        "median over bring-ups: SensorNetwork -> TrackingService -> start+healthcheck -> catalogue published",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "benchmark-process peak RSS once the cost-prefix ops completed (closed) or at window end (open), "
        "plus each worker's VmHWM",
    ),
    Metric(
        "maintenance_cost_ratio", "ratio", "lower",
        "sum of answered move costs / sum of Manhattan optima over the cost prefix",
    ),
    Metric(
        "query_cost_ratio", "ratio", "lower",
        "sum of answered query costs (coalesced included) / sum of Manhattan optima over the cost prefix",
    ),
)

#: printed with their sample counts by every run but not bounded: on a small
#: shared VM, open-loop latency moves by half between runs of the same code
LATENCY: tuple[Metric, ...] = (
    Metric(
        "p50_ms", "ms", "lower",
        "median client-observed latency (open: due time -> resolved; closed: submit -> resolved)",
    ),
    Metric(
        "p99_ms", "ms", "lower",
        "99th-percentile client-observed latency; failed requests count as missing",
    ),
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("loadgen.busy_share", "ratio", "lower",
           "self time of the benchmark's client/generator code / window",
           "guard: if it grows, throughput_ops_s on closed-moves-1k measures the client"),
    Metric("loadgen.late_p99_ms", "ms", "lower",
           "due -> actual submit, 99th percentile (open loop only)",
           "printed p99_ms on the open loops, which it is part of"),
    Metric("serve.service.submit_us", "us", "lower",
           "self time per TrackingService.submit_nowait",
           "throughput_ops_s on closed-moves-1k; printed p50_ms on open-workers-1k"),
    Metric("serve.shard.ops_per_batch", "ops", "higher",
           "service.metrics batch-size mean over the window",
           "throughput_ops_s on closed-moves-1k; must not raise printed p50_ms on open-workers-1k"),
    Metric("serve.shard.self_us_per_op", "us", "lower",
           "service-process CPU time covered by no span (queue, batching, settlement, loop) / op",
           "throughput_ops_s on closed-moves-1k"),
    Metric("core.kernel_us_per_op", "us", "lower",
           "self time in MOTTracker.publish/move/query + BatchMOTEngine.apply_ops / op",
           "throughput_ops_s on closed-moves-1k; printed p50_ms on open-queries-4k"),
    Metric("core.ops_per_call", "ops", "higher",
           "timed ops / kernel calls (about 1 on the scalar path)",
           "throughput_ops_s on closed-moves-1k"),
    Metric("core.move_us", "us", "lower",
           "self time per MOTTracker.move call (scalar path)",
           "throughput_ops_s on closed-moves-1k (4 moves : 1 query)"),
    Metric("core.query_us", "us", "lower",
           "self time per MOTTracker.query call (scalar path)",
           "printed p50_ms on open-queries-4k (1 move : 4 queries)"),
    Metric("graphs.oracle_us_per_op", "us", "lower",
           "self time in SensorNetwork distance entry points / op",
           "printed p50_ms on open-queries-4k; small on closed-moves-1k"),
    Metric("graphs.rows_per_op", "rows", "lower",
           "oracle rows computed over the window / op",
           "printed p50_ms on open-queries-4k"),
    Metric("graphs.row_cache_hit_ratio", "ratio", "higher",
           "row-cache hits / lookups over the window",
           "printed p50_ms on open-queries-4k"),
    Metric("hierarchy.build_s", "s", "lower",
           "build_hierarchy duration per bring-up (median)",
           "setup_s on open-queries-4k (most), closed-moves-1k"),
    Metric("setup.network_s", "s", "lower", "SensorNetwork construction (median)", "setup_s"),
    Metric("setup.service_init_s", "s", "lower", "TrackingService construction (median)", "setup_s"),
    Metric("setup.start_s", "s", "lower",
           "start + healthcheck, fork and ready on worker workloads (median)", "setup_s"),
    Metric("setup.publish_s", "s", "lower", "catalogue publishes until all acknowledged (median)", "setup_s"),
    Metric("serve.transport.bytes_per_op", "B", "lower",
           "parent-side encode_frame output + decode_body input bytes / op",
           "printed p50_ms on open-workers-1k"),
    Metric("serve.transport.codec_us_per_op", "us", "lower",
           "parent self time in encode_frame + decode_body / op",
           "printed p50_ms, p99_ms on open-workers-1k"),
    Metric("serve.worker.apply_ms_p50", "ms", "lower",
           "child-side ShardWorker.handle_batch duration, median",
           "printed p50_ms on open-workers-1k"),
    Metric("serve.worker.ops_per_batch", "ops", "higher",
           "ops per batch frame handled by a worker",
           "printed p50_ms on open-workers-1k (stays small at 2000 ops/s)"),
)
