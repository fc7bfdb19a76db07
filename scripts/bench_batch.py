#!/usr/bin/env python3
"""Columnar batch engine vs scalar tracker throughput, as a JSON artifact.

Runs one identical MOT workload (publishes, then moves, then queries —
the ``execute_one_by_one`` order) through

1. the scalar :class:`~repro.core.mot.MOTTracker`, one call per op, and
2. the columnar :class:`~repro.core.batch.BatchMOTEngine`, one
   ``apply_ops`` call per ``--chunk`` ops; each chunk is an
   :class:`~repro.core.batch.OpBatch` of op columns, built before the
   timed loop as a shard builds its columns at admission,

over the same network, hierarchy seed and op stream, and reports both
ops/s figures plus the speedup. With ``--audit`` (default on) the
engine's op log is then replayed through a fresh sequential tracker
(:func:`~repro.core.batch.audit_batch_core`), so the artifact carries
its own scalar-equivalence proof: a fast-but-wrong kernel fails the
script, not just the separate audit job.

``--min-speedup X`` gates the exit code. CI runs the default chunk and
``--chunk 256`` (the batch a saturated serve shard hands the engine)
with ``--min-speedup 10``, so a kernel regression to scalar-equivalent
performance fails the job instead of silently shipping, and records
``--chunk 1`` (one op per call, the open loops' regime) ungated.

Usage: python scripts/bench_batch.py [--side 32] [--objects 2000]
       [--chunk 8192] [--min-speedup 10] [--out BENCH_batch.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--side", type=int, default=32, help="grid side (side^2 sensors)")
    parser.add_argument("--objects", type=int, default=2000)
    parser.add_argument("--moves", type=int, default=20, help="moves per object")
    parser.add_argument("--queries", type=int, default=20000)
    parser.add_argument("--chunk", type=int, default=8192,
                        help="ops per engine apply_ops() call")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per side; best run counts")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero unless batch/scalar >= this factor")
    parser.add_argument("--no-audit", dest="audit", action="store_false",
                        help="skip the scalar-equivalence audit replay")
    parser.add_argument("--out", default="BENCH_batch.json")
    args = parser.parse_args()

    from repro.core.batch import BatchMOTEngine, OpBatch, audit_batch_core
    from repro.core.mot import MOTConfig, MOTTracker
    from repro.graphs.generators import grid_network
    from repro.sim.workload import make_workload

    net = grid_network(args.side, args.side)
    workload = make_workload(
        net,
        num_objects=args.objects,
        moves_per_object=args.moves,
        num_queries=args.queries,
        seed=args.seed,
    )
    ops = [("publish", obj, start) for obj, start in workload.starts.items()]
    ops += [("move", m.obj, m.new) for m in workload.moves]
    ops += [("query", q.obj, q.source) for q in workload.queries]
    config = MOTConfig()

    # both sides run --repeats times from a fresh tracker/engine and the
    # best run counts, with the cyclic GC paused across each timed
    # stretch (symmetrically), so one scheduling hiccup or a collection
    # landing inside one side cannot skew the ratio
    repeats = max(1, args.repeats)

    # scalar reference: one tracker call per operation
    scalar_s = float("inf")
    for _ in range(repeats):
        tracker = MOTTracker.build(net, config, seed=args.seed)
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        for kind, obj, node in ops:
            if kind == "publish":
                tracker.publish(obj, node)
            elif kind == "move":
                tracker.move(obj, node)
            else:
                tracker.query(obj, node)
        scalar_s = min(scalar_s, time.perf_counter() - t0)
        gc.enable()

    # columnar engine: the same stream, one apply_ops call per chunk
    batches = [
        OpBatch.of(ops[i : i + args.chunk]) for i in range(0, len(ops), args.chunk)
    ]
    batch_s = float("inf")
    for _ in range(repeats):
        engine = BatchMOTEngine.build(net, config, seed=args.seed)
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        for batch in batches:
            errors = engine.apply_ops(batch).errors
            if errors:
                raise SystemExit(f"batch op failed: {errors[min(errors)]!r}")
        batch_s = min(batch_s, time.perf_counter() - t0)
        gc.enable()

    speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    report = {
        "workload": {
            "nodes": net.n,
            "objects": args.objects,
            "moves_per_object": args.moves,
            "queries": args.queries,
            "total_ops": len(ops),
            "chunk": args.chunk,
            "repeats": repeats,
            "seed": args.seed,
        },
        "scalar": {"seconds": scalar_s, "ops_s": len(ops) / scalar_s},
        "batch": {"seconds": batch_s, "ops_s": len(ops) / batch_s},
        "speedup": speedup,
        "min_speedup": args.min_speedup,
    }

    audit_ok = True
    if args.audit:
        audit = audit_batch_core(engine)
        audit_ok = audit.ok
        report["audit"] = audit.as_dict()

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"bench_batch: {len(ops)} ops | scalar {len(ops) / scalar_s:,.0f} ops/s | "
        f"batch {len(ops) / batch_s:,.0f} ops/s | speedup {speedup:.1f}x | "
        f"audit {'ok' if audit_ok else 'FAILED'} -> {args.out}"
    )
    if not audit_ok:
        print("bench_batch: scalar-equivalence audit failed", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"bench_batch: speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
