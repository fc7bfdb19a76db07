"""The `repro eval` harness: one scenario → one canonical EvalReport.

Each scenario runs through **both** execution paths the project keeps
equivalent:

1. the sequential reference — :func:`execute_one_by_one` over a fresh
   :class:`~repro.core.mot.MOTTracker` (cost ratios vs the paper's
   optimal baselines, per-node load distribution), and
2. the serve layer — the scenario workload replayed through
   :func:`repro.serve.bench.drive_workload` (open-loop arrivals,
   latency percentiles, admission outcomes, the sequential-replay
   audit). Under the default virtual clock this section is fully
   deterministic; ``workers > 0`` forks real shard processes on the
   wall clock instead (virtual clock + workers is refused, matching
   serve-bench).

Scenarios carrying a ``fault_plan`` additionally run the concurrent
simulator under injected faults and report the chaos/churn section
(delivery stats, consistency audit, §7 churn accounting).

The report is JSON-ready and — on the virtual clock — byte-identical
across same-seed runs (:func:`canonical_json` pins the serialization),
which is what lets CI commit per-scenario baselines and gate on them
(:mod:`repro.scenarios.gate`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.experiments.chaos import check_consistency, replay_churn
from repro.experiments.runner import (
    execute_concurrent,
    execute_one_by_one,
    make_concurrent_tracker,
    make_tracker,
)
from repro.graphs.generators import grid_network
from repro.graphs.network import SensorNetwork
from repro.metrics.load import LoadStats
from repro.scenarios.registry import ScenarioSpec, all_scenarios, get_scenario
from repro.serve.bench import ServeBenchConfig, drive_workload
from repro.sim.workload import Workload, workload_digest

__all__ = ["EvalConfig", "run_scenario", "run_suite", "canonical_json"]

#: report-schema version, bumped when the EvalReport shape changes so a
#: stale committed baseline fails loudly instead of comparing garbage
EVAL_REPORT_VERSION = 1


@dataclass(frozen=True)
class EvalConfig:
    """Parameters of one ``repro eval`` run (suite-wide, scenario-free)."""

    scale: str = "smoke"
    seed: int = 7
    shards: int = 4
    #: 0 = in-process asyncio shards; N > 0 forks N worker processes
    #: (wall clock required, exactly as in serve-bench)
    workers: int = 0
    clock: str = "virtual"  # "virtual" (deterministic) or "wall"
    rate: float = 500.0  # serve-section offered load, ops/s

    def __post_init__(self) -> None:
        if self.clock not in ("virtual", "wall"):
            raise ValueError('clock must be "virtual" or "wall"')
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process shards)")
        if self.workers > 0 and self.clock != "wall":
            raise ValueError('workers > 0 requires clock="wall"')
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def as_dict(self) -> dict:
        """JSON-ready view (the report's ``suite`` header)."""
        return asdict(self)


def _sequential_section(net: SensorNetwork, workload: Workload, seed: int) -> dict:
    tracker = make_tracker("MOT", net, workload.traffic, seed=seed)
    ledger = execute_one_by_one(tracker, workload)
    stats = LoadStats.from_loads(tracker.load_per_node())
    return {
        "maintenance_cost_ratio": ledger.maintenance_cost_ratio,
        "query_cost_ratio": ledger.query_cost_ratio,
        "maintenance_ops": ledger.maintenance_ops,
        "noop_moves": ledger.noop_moves,
        "query_ops": ledger.query_ops,
        "publish_cost": ledger.publish_cost,
        "load": {
            "max_load": stats.max_load,
            "mean_load": stats.mean_load,
            "above_threshold": stats.above_threshold,
            "threshold": stats.threshold,
        },
    }


def _serve_section(net: SensorNetwork, workload: Workload, cfg: EvalConfig) -> dict:
    bench = ServeBenchConfig(
        nodes=net.n,
        num_objects=len(workload.starts),
        moves_per_object=(
            len(workload.moves) // len(workload.starts) if workload.starts else 0
        ),
        num_queries=len(workload.queries),
        shards=cfg.shards,
        workers=cfg.workers,
        rate=cfg.rate,
        seed=cfg.seed,
        clock=cfg.clock,
        metrics_snapshot_interval_s=None,
    )
    report = drive_workload(net, workload, bench)
    # the lean, gate-relevant slice: drop prometheus text, snapshots and
    # worker pids — those belong to serve-bench's full report
    return {
        "loadgen": report["loadgen"],
        "latency_ms": report["latency_ms"],
        "throughput_ops_s": report["achieved_throughput_ops_s"],
        "per_shard": report["per_shard"],
        "ledger": report["ledger"],
        "audit_ok": report["audit"]["ok"],
        "audit": {
            "objects_checked": report["audit"]["objects_checked"],
            "moves_replayed": report["audit"]["moves_replayed"],
            "queries_checked": report["audit"]["queries_checked"],
            "proxy_mismatches": report["audit"]["proxy_mismatches"],
            "cost_mismatches": report["audit"]["cost_mismatches"],
        },
    }


def _chaos_section(
    net: SensorNetwork, workload: Workload, spec: ScenarioSpec, cfg: EvalConfig
) -> dict:
    scale = spec.scale(cfg.scale)
    plan = spec.fault_plan(net, scale, cfg.seed)  # type: ignore[misc]
    tracker = make_concurrent_tracker("MOT", net, workload.traffic, seed=cfg.seed)
    injector = tracker.attach_faults(plan)
    execute_concurrent(tracker, workload)
    consistency = check_consistency(tracker, workload)
    churn = replay_churn(net, plan, workload, seed=cfg.seed) if plan.crashes else {}
    return {
        "plan": {
            "message_loss": plan.message_loss,
            "delay_jitter": plan.delay_jitter,
            "crashes": len(plan.crashes),
        },
        "delivery": injector.stats(),
        "retries": tracker.retries,
        "transmit_failures": tracker.transmit_failures,
        "failed_ops": len(tracker.failed_ops),
        "maintenance_cost_ratio": tracker.ledger.maintenance_cost_ratio,
        "query_cost_ratio": tracker.ledger.query_cost_ratio,
        "consistency_ok": consistency.ok,
        "churn": churn,
    }


def metric_at(report: dict, path: str) -> "tuple[bool, object]":
    """Resolve a dot-separated metric path; ``(found, value)``."""
    node: object = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


def run_scenario(spec: ScenarioSpec, cfg: "EvalConfig | None" = None) -> dict:
    """Evaluate one scenario; return its JSON-ready EvalReport.

    Raises ``RuntimeError`` if the finished report is missing any of the
    scenario's ``expected_metrics`` — a scenario whose schema promise is
    broken must fail the run, not silently emit a thinner report the
    gate would then "pass".
    """
    cfg = cfg or EvalConfig()
    scale = spec.scale(cfg.scale)
    net = grid_network(scale.side, scale.side)
    workload = spec.generate(net, scale, cfg.seed)
    report = {
        "scenario": {
            "name": spec.name,
            "description": spec.description,
            "tags": list(spec.tags),
            "scale": {"name": cfg.scale, **scale.as_dict()},
        },
        "digest": workload_digest(workload),
        "workload": {
            "objects": len(workload.starts),
            "moves": len(workload.moves),
            "queries": len(workload.queries),
        },
        "sequential": _sequential_section(net, workload, cfg.seed),
        "serve": _serve_section(net, workload, cfg),
    }
    if spec.fault_plan is not None:
        report["chaos"] = _chaos_section(net, workload, spec, cfg)
    missing = [p for p in spec.expected_metrics if not metric_at(report, p)[0]]
    if missing:
        raise RuntimeError(
            f"scenario {spec.name!r} report is missing expected metrics: {missing}"
        )
    return report


def run_suite(
    cfg: "EvalConfig | None" = None, names: "list[str] | None" = None
) -> dict:
    """Run a set of scenarios (default: all registered) into one report."""
    cfg = cfg or EvalConfig()
    specs = (
        [get_scenario(n) for n in names]
        if names is not None
        else list(all_scenarios().values())
    )
    return {
        "version": EVAL_REPORT_VERSION,
        "suite": cfg.as_dict(),
        "scenarios": {spec.name: run_scenario(spec, cfg) for spec in specs},
    }


def canonical_json(report: dict) -> str:
    """The report's canonical serialization (sorted keys, 1-indent).

    ``repro eval`` writes exactly this, so two same-seed virtual-clock
    runs produce byte-identical files — the property the determinism
    test and the CI ``cmp`` gate check.
    """
    import json

    return json.dumps(report, indent=1, sort_keys=True)
