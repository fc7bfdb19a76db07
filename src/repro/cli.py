"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``figure NAME [--scale S] [--csv PATH]`` — regenerate one paper
  figure (fig4 … fig15), print its table, optionally export CSV;
- ``list`` — list the available figures with their descriptions;
- ``perf [--side N] [--out PATH]`` — run one
  MOT workload with instrumentation on and emit the JSON perf report
  (oracle hit/miss pressure, per-operation timers, ledger summary);
- ``audit backend [--side N] [--geometric-nodes N]`` — check the
  exact-distance contract on small graphs against a dense reference
  solve: rows and pairs bit for bit (every row resident, and a row
  store that evicts), solved ``balls``, k-neighborhoods, the diameter,
  level 0 off the CSR, a build and its batch tables that solve no row,
  and the batch engine's SDL hops (see :mod:`repro.graphs.audit`);
- ``audit batch [--scenario NAME …] [--chunk N]`` — chunk every
  scenario pack's op stream through the columnar batch engine and
  replay it against the sequential reference MOT
  (:func:`repro.core.batch.audit_replay`);
- ``chaos [--loss P] [--jitter J] [--crashes K] …`` — run one workload
  through the concurrent simulator under an injected fault plan
  (message loss, delay jitter, node crashes) and emit the JSON chaos
  report: delivery/retry statistics, failed operations, final-state
  consistency audit, and the §7 churn bridge;
- ``serve-bench [--nodes N] [--shards S] [--rate R] …`` — run one
  load-generated workload through the :mod:`repro.serve` online
  tracking service (sharded workers, batching, backpressure) and emit
  the JSON report: latency percentiles, achieved throughput,
  rejection/coalescing counts, the consistency audit against the
  sequential reference MOT, Prometheus-rendered metrics and periodic
  counters snapshots; ``--trace PATH`` additionally records a JSONL
  span trace of every request (see ``trace``);
- ``trace summarize PATH [--kind K] [--obj O]`` / ``trace diff A B
  [--ignore-timing]`` — aggregate a JSONL span trace, or compare two
  traces event-by-event (the determinism check: two same-seed
  virtual-clock serve-bench traces must be identical);
- ``eval [--scenario NAME …] [--suite smoke|full] [--check [BASELINE]]
  [--write-baseline PATH] …`` — run registered scenario packs through
  the standardized eval harness (sequential reference + serve layer,
  chaos section for fault-plan scenarios) and emit one canonical
  EvalReport; ``--check`` gates the report against committed
  per-scenario baselines with tolerance bands, ``--write-baseline``
  regenerates them, ``--list`` prints the catalog (see
  :mod:`repro.scenarios` and ``docs/EVAL.md``);
- ``serve-demo [--seed N]`` — a guided tour of the service layer
  (sharding, a coalesced query, an ``Overloaded`` rejection);
- ``lint [PATHS…] [--format json|sarif]`` — run the project's per-file
  AST lint rules (RPL001–RPL007, see :mod:`repro.staticcheck`) over
  source trees;
- ``check [PATHS…] [--format json|sarif] [--cache PATH]`` — run the
  project-wide interprocedural analyses (RPL101–RPL103 and RPL105:
  seed taint, await-atomicity races, ledger conservation, worker
  frame-protocol totality; see :mod:`repro.staticcheck.flow`).
  ``--cache`` persists
  the parsed index/call graph keyed on a source hash.

``python -m repro --version`` prints the installed package version
(falling back to the source tree's ``repro.__version__``).

Exit codes (uniform across subcommands):

- ``0`` — success: the command ran and every gated check passed;
- ``1`` — a check failed: lint findings (``lint``/``check``), a failed
  consistency audit (``chaos``, ``serve-bench``, ``audit``, ``eval``),
  diverging traces (``trace diff``), a baseline regression
  (``eval --check``);
- ``2`` — usage error: unknown subcommand/flag (argparse) or an
  invalid argument value caught by the command itself (e.g. an unknown
  figure name);
- ``141`` — the reader of stdout went away (``repro trace diff a b |
  head -3``): the rest of the report is dropped, as a process killed
  by SIGPIPE would, without a traceback.

The guided tour of the tracker and the head-to-head against the
baselines are ``examples/quickstart.py`` and
``examples/baseline_comparison.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

__all__ = ["main"]


def _version() -> str:
    """Installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` (making its directory), or print it."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")


def _usage_error(verb: str, message: str) -> int:
    """Report an invalid argument value of ``verb``; the usage exit code."""
    print(f"repro {verb}: {message}", file=sys.stderr)
    return 2


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.export import cost_sweep_to_csv, loads_to_csv, write_csv
    from repro.experiments.figures import run_figure

    scale = 1.0 if args.full else args.scale
    try:
        result = run_figure(args.name, scale=scale)
    except ValueError as exc:
        return _usage_error("figure", str(exc))
    print(result)
    if args.csv:
        if result.cost_result is not None:
            metric = "maintenance" if "maintenance" in result.description else "query"
            content = cost_sweep_to_csv(result.cost_result, metric)
        else:
            content = loads_to_csv(result.loads)
        path = write_csv(content, args.csv)
        print(f"\nwrote {path}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES

    for name in sorted(FIGURES, key=lambda s: int(s[3:])):
        doc = (FIGURES[name].__doc__ or "").strip().split("\n")[0]
        print(f"{name:>6}  {doc}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.runner import execute_one_by_one, make_tracker
    from repro.graphs.generators import grid_network
    from repro.metrics.ratios import per_operation_means
    from repro.perf import PERF
    from repro.sim.workload import make_workload

    PERF.reset()
    net = grid_network(args.side, args.side)
    wl = make_workload(net, num_objects=args.objects, moves_per_object=args.moves,
                       num_queries=args.queries, seed=args.seed)
    tracker = make_tracker("MOT", net, wl.traffic, seed=args.seed)
    ledger = execute_one_by_one(tracker, wl)
    if args.prometheus:
        _emit(PERF.render_prometheus(), args.out)
        return 0
    report = {
        "run": {
            "grid_side": args.side,
            "sensors": net.n,
            "objects": args.objects,
            "moves_per_object": args.moves,
            "queries": args.queries,
            "seed": args.seed,
        },
        "oracle": net.oracle_stats,
        "ledger": {
            "maintenance_cost_ratio": ledger.maintenance_cost_ratio,
            "query_cost_ratio": ledger.query_cost_ratio,
            **per_operation_means(ledger),
        },
        **PERF.report(),
    }
    _emit(json.dumps(report, indent=1) + "\n", args.out)
    return 0


def _cmd_audit_backend(args: argparse.Namespace) -> int:
    import json

    from repro.graphs.audit import run_backend_audit

    for flag, value in (("--side", args.side), ("--geometric-nodes", args.geometric_nodes)):
        if value < 2:
            return _usage_error("audit backend", f"{flag} must be >= 2, got {value}")
    report = run_backend_audit(
        side=args.side,
        geometric_nodes=args.geometric_nodes,
        seed=args.seed,
    )
    _emit(json.dumps(report, indent=1) + "\n", args.out)
    if not report["ok"]:
        print(f"audit backend: {report['failed']} check(s) failed", file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.chaos import run_chaos
    from repro.experiments.config import ChaosExperiment

    exp = ChaosExperiment(
        side=args.side,
        num_objects=args.objects,
        moves_per_object=args.moves,
        num_queries=args.queries,
        seed=args.seed,
        algorithm=args.algorithm,
        message_loss=args.loss,
        delay_jitter=args.jitter,
        num_crashes=args.crashes,
        crash_duration=args.crash_duration,
        fault_seed=args.fault_seed,
    )
    report = run_chaos(exp)
    _emit(json.dumps(report.as_dict(), indent=1) + "\n", args.out)
    return 0 if report.consistency.ok else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.bench import ServeBenchConfig, run_serve_bench

    # --workers implies a wall clock unless one was chosen explicitly
    # (worker processes cannot run under the deterministic virtual clock)
    clock = args.clock or ("wall" if args.workers > 0 else "virtual")
    try:
        cfg = ServeBenchConfig(
            nodes=args.nodes,
            num_objects=args.objects,
            moves_per_object=args.moves,
            num_queries=args.queries,
            shards=args.shards,
            workers=args.workers,
            rate=args.rate,
            seed=args.seed,
            batch_size=args.batch,
            queue_capacity=args.queue_capacity,
            rate_limit=args.rate_limit,
            service_time_base_s=args.service_time_ms * 1e-3,
            clock=clock,
            metrics_snapshot_interval_s=(
                args.snapshot_interval if args.snapshot_interval > 0 else None
            ),
            trace_path=args.trace,
        )
    except ValueError as exc:
        return _usage_error("serve-bench", str(exc))
    report = run_serve_bench(cfg)
    _emit(json.dumps(report, indent=1) + "\n", args.out)
    return 0 if report["audit"]["ok"] else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        EvalConfig,
        all_scenarios,
        canonical_json,
        compare_eval_reports,
        get_scenario,
        run_suite,
        write_baseline,
    )

    if args.list:
        for name, spec in all_scenarios().items():
            tags = ",".join(spec.tags)
            chaos = " +chaos" if spec.fault_plan else ""
            print(f"{name:>22}  [{tags}]{chaos}  {spec.description}")
        return 0

    # --workers implies a wall clock unless one was chosen explicitly
    # (worker processes cannot run under the deterministic virtual clock)
    clock = args.clock or ("wall" if args.workers > 0 else "virtual")
    try:
        cfg = EvalConfig(
            scale=args.suite,
            seed=args.seed,
            shards=args.shards,
            workers=args.workers,
            clock=clock,
            rate=args.rate,
        )
        names = args.scenario or None
        if names:
            for name in names:
                get_scenario(name)  # unknown names are usage errors, not crashes
        report = run_suite(cfg, names=names)
    except ValueError as exc:
        return _usage_error("eval", str(exc))

    _emit(canonical_json(report) + "\n", args.out)

    if args.write_baseline:
        path = Path(args.write_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(write_baseline(report), indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote baseline {path}")

    ok = all(
        rep["serve"]["audit_ok"]
        and rep.get("chaos", {}).get("consistency_ok", True)
        for rep in report["scenarios"].values()
    )
    if not ok:
        print("repro eval: consistency audit failed", file=sys.stderr)

    if args.check is not None:
        base_path = Path(args.check)
        try:
            baseline = json.loads(base_path.read_text())
        except (OSError, ValueError) as exc:
            return _usage_error("eval", f"cannot read baseline {base_path}: {exc}")
        if baseline.get("version") != report["version"]:
            print(f"repro eval: baseline schema version "
                  f"{baseline.get('version')} != {report['version']} — "
                  f"regenerate with --write-baseline", file=sys.stderr)
            return 1
        result = compare_eval_reports(report, baseline)
        if result["ok"]:
            print(f"eval gate: ok ({result['checked']} checks, "
                  f"{len(report['scenarios'])} scenarios)")
        else:
            for f in result["failures"]:
                where = f"{f['scenario']}" + (f".{f['metric']}" if f["metric"] else "")
                print(f"eval gate: {f['kind']} at {where}: "
                      f"current={f['current']!r} baseline={f['baseline']!r} "
                      f"tolerance={f['tolerance']!r}", file=sys.stderr)
            print(f"eval gate: {len(result['failures'])} failure(s) over "
                  f"{result['checked']} checks", file=sys.stderr)
            return 1

    return 0 if ok else 1


def _cmd_audit_batch(args: argparse.Namespace) -> int:
    """Scenario packs → columnar engine → scalar-equivalence audit.

    Every scenario workload is chunked through
    :class:`~repro.core.batch.BatchMOTEngine.apply_ops` and the engine
    is audited by :func:`~repro.core.batch.audit_replay`. Exit 1 on any
    mismatch.
    """
    import json

    from repro.core.batch import BatchMOTEngine, OpBatch, audit_replay
    from repro.graphs.generators import grid_network
    from repro.scenarios import all_scenarios, get_scenario

    if args.chunk < 1:
        return _usage_error("audit batch", f"--chunk must be >= 1, got {args.chunk}")
    try:
        specs = [get_scenario(n) for n in args.scenario or all_scenarios()]
    except ValueError as exc:
        return _usage_error("audit batch", str(exc))
    report: dict = {"suite": args.suite, "seed": args.seed, "scenarios": {}}
    ok = True
    for spec in specs:
        scale = spec.scale(args.suite)
        net = grid_network(scale.side, scale.side)
        workload = spec.generate(net, scale, args.seed)
        engine = BatchMOTEngine.build(net, seed=args.seed)
        ops = [("publish", obj, start) for obj, start in workload.starts.items()]
        ops += [("move", m.obj, m.new) for m in workload.moves]
        ops += [("query", q.obj, q.source) for q in workload.queries]
        failures = 0
        for i in range(0, len(ops), args.chunk):
            failures += len(engine.apply_ops(OpBatch.of(ops[i : i + args.chunk])).errors)
        audit = audit_replay(engine.hs, engine.config, [engine])
        ok = ok and audit.ok and failures == 0
        report["scenarios"][spec.name] = {
            "ops": len(ops),
            "chunks": (len(ops) + args.chunk - 1) // args.chunk,
            "failed_ops": failures,
            "audit": audit.as_dict(),
        }
        status = "ok" if audit.ok and failures == 0 else "MISMATCH"
        print(f"audit batch {spec.name:>22}: {status} "
              f"({len(ops)} ops, {audit.moves_replayed} moves replayed, "
              f"{audit.queries_checked} queries checked)")
    report["ok"] = ok
    if args.out:
        _emit(json.dumps(report, indent=1, sort_keys=True) + "\n", args.out)
    if not ok:
        print("repro audit batch: scalar-equivalence audit failed", file=sys.stderr)
    return 0 if ok else 1


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    import asyncio

    from repro import grid_network
    from repro.serve import (
        Overloaded,
        QueryRequest,
        ServiceClient,
        ServiceConfig,
        TrackingService,
        shard_index,
    )

    net = grid_network(8, 8)
    config = ServiceConfig(shards=2, batch_size=4, queue_capacity=4)
    service = TrackingService(net, config, seed=args.seed)

    async def tour() -> None:
        async with service:
            client = ServiceClient(service)
            for name, start in (("tiger", 0), ("heron", 63)):
                resp = await client.publish(name, net.node_at(start))
                print(f"published {name!r} at sensor {net.node_at(start)} "
                      f"-> shard {shard_index(name, config.shards)} "
                      f"(cost {resp.cost:.0f})")
            await client.move("tiger", net.node_at(9))
            # two duplicate in-flight queries: submitted back to back so
            # the shard drains them in one batch and answers once
            f1 = service.submit_nowait(QueryRequest("tiger", net.node_at(63)))
            f2 = service.submit_nowait(QueryRequest("tiger", net.node_at(63)))
            r1, r2 = await f1, await f2
            print(f"two concurrent queries for 'tiger': both answered "
                  f"proxy={r1.proxy}; second coalesced={r2.coalesced}")
            # overfill one shard's bounded queue to show backpressure
            rejected = 0
            for k in range(32):
                try:
                    service.submit_nowait(QueryRequest("tiger", net.node_at(k % 64)))
                except Overloaded as exc:
                    if rejected == 0:
                        print(f"backpressure: {exc.reason} rejection, "
                              f"retry after {exc.retry_after_s:.3f}s")
                    rejected += 1
            print(f"admitted {32 - rejected} of 32 burst queries, "
                  f"rejected {rejected} (queue capacity "
                  f"{config.queue_capacity}); draining gracefully...")
    asyncio.run(tour())
    m = service.metrics
    print(f"drained: {m.total_completed} ops completed, "
          f"{m.queries_coalesced} queries coalesced, "
          f"{m.total_rejected} rejected")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import diff_traces, read_trace, summarize_trace

    try:
        if args.trace_cmd == "summarize":
            result = summarize_trace(read_trace(args.path), kind=args.kind, obj=args.obj)
        else:
            result = diff_traces(args.a, args.b, ignore_timing=args.ignore_timing)
    except (OSError, ValueError) as exc:
        return _usage_error("trace", str(exc))
    print(json.dumps(result, indent=1))
    return 0 if args.trace_cmd == "summarize" or result["identical"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck import run

    fmt = "sarif" if args.sarif else args.format
    return run(args.paths or ["src"], fmt=fmt)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.staticcheck.flow import run_check

    fmt = "sarif" if args.sarif else args.format
    try:
        return run_check(args.paths or ["src"], fmt=fmt, cache=args.cache)
    except FileNotFoundError as exc:
        return _usage_error("check", str(exc))


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Near-Optimal Location Tracking Using "
                    "Sensor Networks' (MOT, IJNC 2015)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("name", help="fig4 … fig15")
    p_fig.add_argument("--scale", type=float, default=0.25)
    p_fig.add_argument("--full", action="store_true", help="paper-scale op counts")
    p_fig.add_argument("--csv", help="also export the series to this CSV path")
    p_fig.set_defaults(fn=_cmd_figure)

    p_list = sub.add_parser("list", help="list the available figures")
    p_list.set_defaults(fn=_cmd_list)

    p_perf = sub.add_parser("perf", help="run one MOT workload, emit JSON perf report")
    p_perf.add_argument("--side", type=int, default=16)
    p_perf.add_argument("--objects", type=int, default=10)
    p_perf.add_argument("--moves", type=int, default=50)
    p_perf.add_argument("--queries", type=int, default=50)
    p_perf.add_argument("--seed", type=int, default=1)
    p_perf.add_argument("--prometheus", action="store_true",
                        help="emit Prometheus text exposition instead of JSON")
    p_perf.add_argument("--out", help="write the report here instead of stdout")
    p_perf.set_defaults(fn=_cmd_perf)

    p_au = sub.add_parser("audit", help="run a scalar-equivalence or exact-distance audit")
    au_sub = p_au.add_subparsers(dest="audit_cmd", required=True)
    p_ab = au_sub.add_parser(
        "backend",
        help="check exact distances against a dense reference on small graphs",
    )
    p_ab.add_argument("--side", type=int, default=6, help="grid side of the audit graph")
    p_ab.add_argument("--geometric-nodes", type=int, default=48,
                      help="node count of the random-geometric audit graph")
    p_ab.add_argument("--seed", type=int, default=1)
    p_ab.add_argument("--out", help="write the JSON report here instead of stdout")
    p_ab.set_defaults(fn=_cmd_audit_backend)
    p_ab2 = au_sub.add_parser(
        "batch",
        help="replay every scenario pack through the columnar batch engine "
             "and audit it against the sequential MOT reference",
    )
    p_ab2.add_argument("--scenario", action="append", metavar="NAME",
                       help="audit only this scenario (repeatable; default: all)")
    p_ab2.add_argument("--suite", choices=("smoke", "full"), default="smoke",
                       help="scale ladder rung to audit at")
    p_ab2.add_argument("--seed", type=int, default=7,
                       help="workload + hierarchy seed")
    p_ab2.add_argument("--chunk", type=int, default=256,
                       help="ops per engine apply_ops() call")
    p_ab2.add_argument("--out", help="also write the JSON report here "
                                     "(stdout gets one status line per scenario)")
    p_ab2.set_defaults(fn=_cmd_audit_batch)

    p_chaos = sub.add_parser(
        "chaos", help="run one concurrent workload under fault injection, emit JSON report"
    )
    p_chaos.add_argument("--side", type=int, default=8)
    p_chaos.add_argument("--objects", type=int, default=10)
    p_chaos.add_argument("--moves", type=int, default=40)
    p_chaos.add_argument("--queries", type=int, default=40)
    p_chaos.add_argument("--seed", type=int, default=0, help="workload seed")
    p_chaos.add_argument("--algorithm", default="MOT",
                         choices=("MOT", "MOT-balanced", "STUN", "Z-DAT", "Z-DAT+shortcuts"))
    p_chaos.add_argument("--loss", type=float, default=0.1,
                         help="per-transmission message-loss probability")
    p_chaos.add_argument("--jitter", type=float, default=0.25,
                         help="uniform multiplicative latency jitter bound")
    p_chaos.add_argument("--crashes", type=int, default=1,
                         help="number of scheduled node crashes")
    p_chaos.add_argument("--crash-duration", type=float, default=40.0,
                         help="outage length per crash (0 = never restarts)")
    p_chaos.add_argument("--fault-seed", type=int, default=1,
                         help="seed of the fault plan (crash victims, loss, jitter)")
    p_chaos.add_argument("--out", help="write the JSON report here instead of stdout")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_sb = sub.add_parser(
        "serve-bench",
        help="drive the online tracking service under load, emit JSON report",
    )
    p_sb.add_argument("--nodes", type=int, default=256,
                      help="sensor count (rounded to the nearest square grid)")
    p_sb.add_argument("--objects", type=int, default=64)
    p_sb.add_argument("--moves", type=int, default=20, help="moves per object")
    p_sb.add_argument("--queries", type=int, default=200)
    p_sb.add_argument("--shards", type=int, default=4, help="tracker shard workers")
    p_sb.add_argument("--workers", type=int, default=0,
                      help="fork N shard worker processes (0 = in-process "
                           "asyncio shards; implies --clock wall)")
    p_sb.add_argument("--rate", type=float, default=500.0,
                      help="offered load in ops/s (open-loop Poisson arrivals)")
    p_sb.add_argument("--seed", type=int, default=7,
                      help="workload + arrival-process seed")
    p_sb.add_argument("--batch", type=int, default=16,
                      help="max ops a shard drains per wakeup")
    p_sb.add_argument("--queue-capacity", type=int, default=64,
                      help="bounded per-shard queue (Overloaded beyond)")
    p_sb.add_argument("--rate-limit", type=float, default=None,
                      help="admission token-bucket rate in ops/s (default: off)")
    p_sb.add_argument("--service-time-ms", type=float, default=1.0,
                      help="virtual per-op service time in milliseconds")
    p_sb.add_argument("--clock", choices=("virtual", "wall"), default=None,
                      help="virtual = deterministic replay; wall = real latencies "
                           "(default: virtual, or wall when --workers > 0)")
    p_sb.add_argument("--snapshot-interval", type=float, default=0.5,
                      help="metrics snapshot period in service-clock seconds (0 = off)")
    p_sb.add_argument("--trace", default=None, metavar="PATH",
                      help="record a JSONL span trace of the run to PATH")
    p_sb.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sb.set_defaults(fn=_cmd_serve_bench)

    p_tr = sub.add_parser("trace", help="summarize or diff JSONL span traces")
    tr_sub = p_tr.add_subparsers(dest="trace_cmd", required=True)
    p_tr_sum = tr_sub.add_parser("summarize", help="aggregate one trace file")
    p_tr_sum.add_argument("path", help="JSONL trace (from serve-bench --trace)")
    p_tr_sum.add_argument("--kind", default=None,
                          help="only events of this kind (e.g. query, message)")
    p_tr_sum.add_argument("--obj", default=None,
                          help="only events about this object")
    p_tr_sum.set_defaults(fn=_cmd_trace)
    p_tr_diff = tr_sub.add_parser(
        "diff", help="compare two traces event-by-event (exit 1 on divergence)"
    )
    p_tr_diff.add_argument("a", help="first JSONL trace")
    p_tr_diff.add_argument("b", help="second JSONL trace")
    p_tr_diff.add_argument("--ignore-timing", action="store_true",
                           help="strip t0_s/duration_s before comparing "
                                "(for wall-clock traces)")
    p_tr_diff.set_defaults(fn=_cmd_trace)

    p_ev = sub.add_parser(
        "eval",
        help="run scenario packs through the eval harness, gate on baselines",
    )
    p_ev.add_argument("--scenario", action="append", metavar="NAME",
                      help="run only this scenario (repeatable; default: all)")
    p_ev.add_argument("--suite", choices=("smoke", "full"), default="smoke",
                      help="scale ladder rung to evaluate at")
    p_ev.add_argument("--list", action="store_true",
                      help="list registered scenarios and exit")
    p_ev.add_argument("--seed", type=int, default=7,
                      help="workload + arrival-process + hierarchy seed")
    p_ev.add_argument("--shards", type=int, default=4,
                      help="tracker shard workers of the serve section")
    p_ev.add_argument("--workers", type=int, default=0,
                      help="fork N shard worker processes (0 = in-process "
                           "asyncio shards; implies --clock wall)")
    p_ev.add_argument("--clock", choices=("virtual", "wall"), default=None,
                      help="virtual = deterministic, byte-identical reports; "
                           "wall = real latencies (default: virtual, or wall "
                           "when --workers > 0)")
    p_ev.add_argument("--rate", type=float, default=500.0,
                      help="serve-section offered load in ops/s")
    p_ev.add_argument("--check", nargs="?", metavar="BASELINE",
                      const="benchmarks/eval_baselines.json", default=None,
                      help="gate the report against this committed baseline "
                           "(default path: benchmarks/eval_baselines.json)")
    p_ev.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="distill the report into a baseline file at PATH")
    p_ev.add_argument("--out", help="write the report here instead of stdout")
    p_ev.set_defaults(fn=_cmd_eval)

    p_sd = sub.add_parser("serve-demo", help="guided tour of the service layer")
    p_sd.add_argument("--seed", type=int, default=0,
                      help="seed of the service's hierarchy build")
    p_sd.set_defaults(fn=_cmd_serve_demo)

    p_lint = sub.add_parser("lint", help="run the per-file RPL lint rules")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories (default: src)")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    p_lint.add_argument("--sarif", action="store_true",
                        help="shorthand for --format sarif")
    p_lint.set_defaults(fn=_cmd_lint)

    p_check = sub.add_parser(
        "check", help="run the interprocedural flow analyses (RPL101-RPL103, RPL105)"
    )
    p_check.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directories (default: src)")
    p_check.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text", help="report format")
    p_check.add_argument("--sarif", action="store_true",
                         help="shorthand for --format sarif")
    p_check.add_argument("--cache", metavar="PATH", default=None,
                         help="pickle the parsed index/call graph here, "
                              "keyed on a source hash")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # the reader went away: write nothing more, and exit with the
        # code a shell reports for a process killed by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
