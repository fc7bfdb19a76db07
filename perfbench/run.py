"""Repository benchmark: drive TrackingService workloads and check every answer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-moves-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
first runs that untraced pass in a child process, then a traced pass that
wraps each layer's entry points, prints the per-layer metrics and the
tracing overhead of every end-to-end metric, and audits the service
against the sequential reference. ``--workload all`` runs every workload,
each in its own process. The last line of output is one JSON object;
the exit code is 0 only if every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the program under test runs from the checkout's source tree
sys.path.insert(0, str(ROOT / "src"))

import repro.serve  # noqa: E402  (fail before any output if the program is absent)
from repro.serve.audit import audit_service  # noqa: E402

if Path(repro.serve.__file__).resolve().parents[2] != ROOT / "src":
    sys.exit(f"repro was imported from {repro.serve.__file__}, not from this checkout's src/")

from check import percentile  # noqa: E402
from drive import run_pass  # noqa: E402
from inputs import make_inputs  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import SpanLog, concat, install, load_jsonl  # noqa: E402
from workloads import END_TO_END, LATENCY, PER_LAYER, WORKLOADS, Workload  # noqa: E402

#: the untraced child of a --trace 1 run must leave the traced pass time to finish
CHILD_TIMEOUT_S = 100
#: marks the machine-readable latency line an untraced run prints for its parent
LATENCY_TAG = "latency-json"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(res) -> dict[str, dict]:
    """The bounded end-to-end metrics of one pass."""
    values = {
        "throughput_ops_s": res.throughput_ops_s,
        "setup_s": statistics.median(res.setup_s),
        "peak_rss_mb": res.peak_rss_mb,
        "maintenance_cost_ratio": res.maintenance_cost_ratio,
        "query_cost_ratio": res.query_cost_ratio,
    }
    return {m.name: _metric(values[m.name], m.unit) for m in END_TO_END}


def _latency(res) -> dict[str, dict]:
    """The printed, unbounded latency percentiles, with their sample counts."""
    out = {}
    for m, q in zip(LATENCY, (50.0, 99.0), strict=True):
        p = percentile(res.latency_ms, q)
        out[m.name] = {**_metric(p.value, m.unit), "samples": p.samples}
    return out


def _print_metrics(w: Workload, metrics: dict[str, dict]) -> None:
    for name, m in metrics.items():
        samples = f" ({m['samples']} samples)" if "samples" in m else ""
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}{samples}")


def _print_pass(w: Workload, res, label: str) -> None:
    c = res.check
    print(f"{w.name} [{label}] {w.why}; loads {', '.join(w.loads)}; bypasses {', '.join(w.bypasses)}")
    print(f"{w.name} [{label}] inputs sha256={res.digest}")
    print(f"{w.name} [{label}] setups_s={['%.4f' % s for s in res.setup_s]} window_s={res.window_s:.3f}")
    print(
        f"{w.name} [{label}] attempted={c.attempted} refused={c.refused} errored={c.errored} "
        f"unanswered={c.unanswered} wrong_proxy={c.wrong_proxy} below_optimum={c.below_optimum} "
        f"failed_ratio={c.failed_ratio:.6g} ratio"
    )
    print(f"{w.name} [{label}] cost ratios over the first {res.cost_ops} ops")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_untraced(w: Workload, seed: int, seconds: float) -> int:
    inputs = make_inputs(w, seed, seconds)
    res = run_pass(w, inputs, seconds)
    _print_pass(w, res, "untraced")
    metrics = _end_to_end(res)
    latency = _latency(res)
    _print_metrics(w, {**metrics, **latency})
    print(f"{w.name} {LATENCY_TAG} {json.dumps(latency)}")
    print(_result_line(res.check.correct, res.check.attempted, res.check.failed, metrics))
    return 0 if res.check.correct else 1


def _untraced_child(w: Workload, seed: int, seconds: float) -> tuple[int, dict | None]:
    """Run the untraced pass in its own process; its metrics, latency included."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", w.name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    metrics: dict = {}
    tag = f"{w.name} {LATENCY_TAG} "
    for line in lines[:-1]:
        if line.startswith(tag):
            metrics.update(json.loads(line[len(tag):]))
        else:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None
    metrics.update(json.loads(lines[-1])["metrics"])
    return 0, metrics


def run_traced(w: Workload, seed: int, seconds: float) -> int:
    code, untraced = _untraced_child(w, seed, seconds)
    inputs = make_inputs(w, seed, seconds)
    out = ROOT / ".perfbench_out" / f"{w.name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("*.jsonl.gz"):
        stale.unlink()
    log = SpanLog()
    missing, uninstall = install(log, out)
    audit: dict = {}

    def after_stop(service) -> None:
        uninstall()
        audit.update(audit_service(service).as_dict())

    try:
        res = run_pass(w, inputs, seconds, log=log, after_stop=after_stop)
    finally:
        uninstall()
    parent = log.spans(os.getpid())
    children, child_oracle = [], {}
    for path in sorted(out.glob("worker-*.jsonl.gz")):
        header, spans = load_jsonl(path)
        children.append(spans)
        for k, after in header["oracle_after"].items():
            if isinstance(after, (int, float)) and not isinstance(after, bool):
                child_oracle[k] = child_oracle.get(k, 0.0) + float(after) - float(header["oracle_before"][k])
    child = concat(children)
    trace_path = out / "trace.jsonl.gz"
    concat([parent, child]).write_jsonl(
        trace_path, {"workload": w.name, "seed": seed, "window": list(res.layer_window)}
    )

    _print_pass(w, res, "traced")
    dropped = parent.dropped + child.dropped
    print(f"{w.name} [traced] spans={len(parent) + len(child)} written to {trace_path.relative_to(ROOT)}")
    if dropped:
        print(f"{w.name} [traced] WARNING: {dropped} spans past the log's capacity were not recorded; "
              "per-layer values undercount the end of the window")
    if missing:
        print(f"{w.name} [traced] missing entry points: {', '.join(missing.values())}")
    layers = layer_metrics(res, parent, child, child_oracle, missing, w.loop)
    for m in PER_LAYER:
        lv = layers[m.name]
        note = f" ({lv.note})" if lv.note else ""
        print(f"{w.name} {m.name} = {lv.value:.6g} {m.unit}{note}  [should move: {m.moves}]")
    traced = {**_end_to_end(res), **_latency(res)}
    for name, m in traced.items():
        base = untraced[name]["value"] if untraced else float("nan")
        over = (m["value"] - base) / base * 100.0 if base else float("nan")
        print(f"{w.name} tracing overhead {name}: untraced {base:.6g} traced {m['value']:.6g} "
              f"{m['unit']} ({over:+.1f}%)")
    audit_ok = bool(audit.get("ok"))
    print(f"{w.name} audit_service ok={audit_ok} queries_checked={audit.get('queries_checked')} "
          f"moves_replayed={audit.get('moves_replayed')}")
    correct = code == 0 and res.check.correct and audit_ok
    metrics = {m.name: _metric(layers[m.name].value, m.unit) for m in PER_LAYER}
    print(_result_line(correct, res.check.attempted, res.check.failed + (0 if audit_ok else 1), metrics))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process; prints a summary line per workload."""
    summary = {}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        worst = max(worst, 1 if proc.returncode else 0)
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    for name, result in summary.items():
        if result is None:
            print(f"{name}: no result")
            continue
        shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}")
    print(json.dumps(summary))
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    w = WORKLOADS[args.workload]
    if args.trace:
        return run_traced(w, args.seed, args.seconds)
    return run_untraced(w, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
