"""The interprocedural rule families RPL101–RPL103 and RPL105.

Each checker consumes the whole :class:`ProjectIndex` (and the call
graph) instead of one file, so findings can name facts a per-line rule
cannot see: which call site leaves a seed ``None``, which ``await``
makes a read stale, which CFG path lets a cost escape its ledger.
Like the lexical rules, every family is deliberately conservative —
an edge or a path only exists when resolution is statically certain,
so each finding is actionable rather than statistical.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.staticcheck.diagnostics import Diagnostic
from repro.staticcheck.flow.callgraph import CallGraph
from repro.staticcheck.flow.cfg import EXIT, RAISE, build_cfg, forward_dataflow
from repro.staticcheck.flow.modules import (
    _NO_DEFAULT,
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    dotted_name,
)

__all__ = ["FLOW_CHECKERS", "FLOW_RULE_SUMMARIES", "FlowChecker"]


def _own_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a statement itself evaluates (bodies excluded).

    Compound statements (``if``/``while``/``for``/``with``/``try``) own
    only their header expressions — their suites are separate CFG nodes.
    """
    if isinstance(stmt, (ast.Assign, ast.Return, ast.Expr)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg is not None else [])
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []


def _walk_exprs(exprs: Iterable[ast.expr]) -> Iterable[ast.AST]:
    for e in exprs:
        yield from ast.walk(e)


class FlowChecker:
    """Shared reporting plumbing for the interprocedural rules."""

    rule_id: str = ""
    summary: str = ""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def report(self, path: str, node: ast.AST, message: str) -> None:
        diag = Diagnostic(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )
        if diag not in self.diagnostics:
            self.diagnostics.append(diag)

    def check_project(self, index: ProjectIndex, graph: CallGraph) -> None:
        raise NotImplementedError


# ======================================================================
# RPL101 — seed taint
# ======================================================================
class SeedTaintChecker(FlowChecker):
    """RPL101 — an RNG may be constructed from a ``None`` seed.

    The interprocedural generalization of RPL002: RPL002 sees
    ``random.Random()`` with no argument, but ``random.Random(None)``,
    a ``seed: int | None = None`` parameter threaded through helpers,
    or a dataclass field defaulting to ``None`` all construct the same
    irreproducible generator. This rule tracks the seed *value*: an RNG
    constructor whose seed expression is the literal ``None`` is flagged
    directly; one fed from a parameter marks that ``(function, param)``
    as seed-carrying, and every resolved call site that omits the
    parameter (with a ``None`` default) or passes ``None`` — possibly
    through further parameters, to a fixed point — is flagged where the
    seed was actually dropped. Findings inside code reachable from a
    sim/serve/experiments entry point say so.
    """

    rule_id = "RPL101"
    summary = "RNG reachable from a None seed across call boundaries"

    _RNG_TAILS = frozenset({"Random", "default_rng", "RandomState"})

    # -- RNG construction sites ----------------------------------------
    def _is_rng_call(self, call: ast.Call) -> bool:
        dotted = dotted_name(call.func)
        if not dotted:
            return False
        parts = dotted.split(".")
        if parts[-1] not in self._RNG_TAILS:
            return False
        if len(parts) == 1:
            return True
        return parts[0] in ("random", "np", "numpy")

    @staticmethod
    def _seed_expr(call: ast.Call) -> ast.expr | None:
        for kw in call.keywords:
            if kw.arg == "seed":
                return kw.value
        if call.args and not isinstance(call.args[0], ast.Starred):
            return call.args[0]
        return None

    @staticmethod
    def _param_aliases(fn: FunctionInfo) -> dict[str, str]:
        """local name → parameter it copies (``rng_seed = seed`` chains)."""
        params = set(fn.params)
        aliases = {p: p for p in params}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt, val = node.targets[0], node.value
                if isinstance(tgt, ast.Name):
                    if isinstance(val, ast.Name) and val.id in aliases:
                        aliases[tgt.id] = aliases[val.id]
                    elif tgt.id in aliases and tgt.id not in params:
                        del aliases[tgt.id]
        return aliases

    # -- main ----------------------------------------------------------
    def check_project(self, index: ProjectIndex, graph: CallGraph) -> None:
        #: (qualname, param) → description of the RNG it feeds
        seed_params: dict[tuple[str, str], str] = {}
        #: (class qualname, field) → description
        seed_fields: dict[tuple[str, str], str] = {}

        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            aliases = self._param_aliases(fn)
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Call) and self._is_rng_call(node)):
                    continue
                rng = dotted_name(node.func)
                seed = self._seed_expr(node)
                if isinstance(seed, ast.Constant) and seed.value is None:
                    self.report(
                        fn.path, node,
                        f"{rng}(None) constructs an unseeded RNG (seed is the "
                        "literal None); pass a real seed",
                    )
                elif isinstance(seed, ast.Name) and seed.id in aliases:
                    seed_params[(qualname, aliases[seed.id])] = rng
                elif (
                    isinstance(seed, ast.Attribute)
                    and isinstance(seed.value, ast.Name)
                    and seed.value.id == "self"
                    and fn.cls is not None
                ):
                    cls = index.classes.get(f"{fn.module}.{fn.cls}")
                    if cls is not None and seed.attr in cls.fields:
                        seed_fields[(cls.qualname, seed.attr)] = rng

        entry_reach = self._entry_reachability(index, graph)
        self._propagate_params(index, graph, seed_params, entry_reach)
        self._propagate_fields(index, graph, seed_fields, entry_reach)

    def _entry_reachability(
        self, index: ProjectIndex, graph: CallGraph
    ) -> list[tuple[str, set[str]]]:
        """Sorted (entry qualname, reachable set) for sim/serve/experiments."""
        entries = sorted(
            q
            for q, fn in index.functions.items()
            if fn.cls is None
            and not fn.name.startswith("_")
            and fn.module.startswith(("repro.sim", "repro.serve", "repro.experiments"))
        )
        return [(e, graph.reachable_from([e])) for e in entries]

    def _entry_note(
        self, caller: str, entry_reach: list[tuple[str, set[str]]]
    ) -> str:
        for entry, reach in entry_reach:
            if caller in reach and caller != entry:
                return f" (reachable from entry point {entry})"
            if caller == entry:
                return " (a sim/serve/experiments entry point)"
        return ""

    def _propagate_params(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        seed_params: dict[tuple[str, str], str],
        entry_reach: list[tuple[str, set[str]]],
    ) -> None:
        worklist = sorted(seed_params)
        while worklist:
            callee_q, param = worklist.pop(0)
            rng = seed_params[(callee_q, param)]
            callee = index.functions[callee_q]
            for caller_q in graph.callers_of(callee_q):
                caller = index.functions[caller_q]
                aliases = self._param_aliases(caller)
                for call in graph.sites.get((caller_q, callee_q), []):
                    arg = callee.bind_argument(call, param)
                    note = self._entry_note(caller_q, entry_reach)
                    if arg is None:
                        continue
                    if arg is _NO_DEFAULT:
                        if callee.has_none_default(param):
                            self.report(
                                caller.path, call,
                                f"call omits {param!r}, whose default is None: "
                                f"{callee_q} constructs {rng}() from it — pass "
                                f"an explicit seed{note}",
                            )
                    elif isinstance(arg, ast.Constant) and arg.value is None:
                        self.report(
                            caller.path, call,
                            f"passes {param}=None to {callee_q}, which "
                            f"constructs {rng}() from it — pass a real "
                            f"seed{note}",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in aliases:
                        key = (caller_q, aliases[arg.id])
                        if key not in seed_params:
                            seed_params[key] = rng
                            worklist.append(key)

    def _propagate_fields(
        self,
        index: ProjectIndex,
        graph: CallGraph,
        seed_fields: dict[tuple[str, str], str],
        entry_reach: list[tuple[str, set[str]]],
    ) -> None:
        for (cls_q, fname) in sorted(seed_fields):
            rng = seed_fields[(cls_q, fname)]
            cls = index.classes[cls_q]
            # the constructor edge lands on the class itself (dataclasses
            # have no explicit __init__) or on Class.__init__
            for target in (cls_q, f"{cls_q}.__init__"):
                for caller_q in graph.callers_of(target):
                    caller = index.functions[caller_q]
                    aliases = self._param_aliases(caller)
                    for call in graph.sites.get((caller_q, target), []):
                        arg = self._bind_field(cls, call, fname)
                        note = self._entry_note(caller_q, entry_reach)
                        if arg is None:
                            continue
                        if arg is _NO_DEFAULT:
                            default = cls.fields.get(fname)
                            if isinstance(default, ast.Constant) and default.value is None:
                                self.report(
                                    caller.path, call,
                                    f"constructs {cls.name} without {fname!r} "
                                    f"(default None): its methods build {rng}() "
                                    f"from that field — pass an explicit "
                                    f"seed{note}",
                                )
                        elif isinstance(arg, ast.Constant) and arg.value is None:
                            self.report(
                                caller.path, call,
                                f"passes {fname}=None to {cls.name}, whose "
                                f"methods build {rng}() from that field{note}",
                            )

    @staticmethod
    def _bind_field(cls: ClassInfo, call: ast.Call, fname: str):
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return None
        for kw in call.keywords:
            if kw.arg == fname:
                return kw.value
        names = list(cls.fields)
        try:
            pos = names.index(fname)
        except ValueError:
            return None
        if pos < len(call.args):
            return call.args[pos]
        return _NO_DEFAULT


# ======================================================================
# RPL102 — await atomicity
# ======================================================================
_FRESH = 1
_STALE = 2


class AwaitAtomicityChecker(FlowChecker):
    """RPL102 — ``self.*`` read before an ``await``, written stale after.

    asyncio gives atomicity for free *between* awaits: a coroutine
    cannot be preempted except where it awaits. The race class this rule
    catches is exactly the one that breaks when that guarantee is
    relied on across an ``await``: read ``self.x`` (often as a guard),
    suspend, then write ``self.x`` from the pre-await picture — another
    task may have run the same code in between, so both pass the guard
    and both write. The operand of an ``await`` is itself a pre-
    suspension read (``await self._worker`` reads the task, *then*
    suspends), so a write after it is still a stale write.

    A re-read after the latest await makes the state fresh again;
    ``self.x += …`` re-reads at the write site and is not flagged
    (unless its right-hand side itself awaits); writes with no prior
    read are blind initialization and fine. Scoped to ``repro/serve``
    coroutines — the rule that must be green before shards move across
    a process boundary, where every one of these races stops being
    theoretical.
    """

    rule_id = "RPL102"
    summary = "self state read before an await and written stale after it"

    @staticmethod
    def _applies(fn: FunctionInfo) -> bool:
        return (
            fn.is_async
            and "repro/serve" in fn.path.replace("\\", "/")
            and bool(fn.params)
            and fn.params[0] == "self"
        )

    def check_project(self, index: ProjectIndex, graph: CallGraph) -> None:
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            if self._applies(fn):
                self._check_function(fn)

    def _check_function(self, fn: FunctionInfo) -> None:
        cfg = build_cfg(fn.node)

        def transfer(nid, stmt, state, reporter=None):
            st = dict(state)
            if stmt is not None:
                self._stmt(stmt, st, fn, reporter)
            return st

        def join(a, b):
            merged = dict(a)
            for k, v in b.items():
                merged[k] = max(merged.get(k, 0), v)
            return merged

        in_states, _ = forward_dataflow(
            cfg, {}, transfer, join, kinds=("normal", "raise")
        )
        for nid in sorted(cfg.nodes):
            if nid in in_states:
                transfer(nid, cfg.nodes[nid], in_states[nid], reporter=True)

    # -- statement/expression walk (evaluation order) ------------------
    def _stmt(self, stmt: ast.stmt, st: dict, fn: FunctionInfo, reporter) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.AugAssign):
            tgt = stmt.target
            rmw_attr = (
                tgt.attr
                if isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
                else None
            )
            if rmw_attr is not None and self._contains_await(stmt.value):
                # `self.x += await f()` loads self.x *before* the await
                st[rmw_attr] = _FRESH
                self._eval(stmt.value, st)
                if st.get(rmw_attr) == _STALE:
                    self._flag(stmt, rmw_attr, fn, reporter)
            else:
                self._eval(stmt.value, st)
            if rmw_attr is not None:
                st[rmw_attr] = _FRESH
            return
        for expr in _own_exprs(stmt):
            self._eval(expr, st)
        if isinstance(stmt, (ast.AsyncFor, ast.AsyncWith)):
            # each iteration / enter-exit suspends
            self._suspend(st)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for tgt in targets:
                self._store(tgt, st, stmt, fn, reporter)

    @staticmethod
    def _contains_await(expr: ast.expr) -> bool:
        return any(isinstance(n, ast.Await) for n in ast.walk(expr))

    @staticmethod
    def _suspend(st: dict) -> None:
        for k, v in st.items():
            if v == _FRESH:
                st[k] = _STALE

    def _eval(self, node: ast.AST, st: dict) -> None:
        if isinstance(node, ast.Await):
            self._eval(node.value, st)
            self._suspend(st)
            return
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            st[node.attr] = _FRESH
            return
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                self._eval(child, st)

    def _store(self, tgt: ast.expr, st: dict, stmt, fn, reporter) -> None:
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._store(elt, st, stmt, fn, reporter)
            return
        if (
            isinstance(tgt, ast.Attribute)
            and isinstance(tgt.value, ast.Name)
            and tgt.value.id == "self"
        ):
            if st.get(tgt.attr) == _STALE:
                self._flag(stmt, tgt.attr, fn, reporter)
            st[tgt.attr] = _FRESH

    def _flag(self, stmt, attr, fn, reporter) -> None:
        if reporter:
            self.report(
                fn.path, stmt,
                f"'self.{attr}' was read before an await and is written here "
                "from that stale pre-await state; another task may have run in "
                "between — re-read it after the await, or claim-and-write "
                "before the first await",
            )


# ======================================================================
# RPL103 — ledger conservation
# ======================================================================
class LedgerConservationChecker(FlowChecker):
    """RPL103 — a distance-oracle cost must hit exactly one sink per path.

    The paper's cost ratios (§4.1, §8) are only meaningful if every
    cost the oracle hands out is charged exactly once. Three path
    families break that, and all three have bitten dynamically:

    - **never recorded** — a cost variable assigned from the oracle
      (``*.distance(..)``, ``self._dist(..)``, ``pair_distance``,
      ``distance_upper_bound``, ``path_length``) reaches a return or an
      explicit raise on some CFG path without being consumed by
      anything (a silently wasted Dijkstra solve at best, an
      unaccounted cost at worst);
    - **double record** — the same cost variable flows into two
      ledger/perf sinks on one path;
    - **charge then raise** — a sink already fired on a path that then
      reaches an explicit ``raise`` (including a re-raise in an
      ``except`` entered *after* the sink): the caller sees failure,
      retries, and the cost is charged twice. Exception edges are part
      of the analysis, so the handler case is caught.

    Consumption is generous — passing the variable to any call,
    returning it, storing it into an object all count — so the only
    "never recorded" findings are values that some path truly drops.
    """

    rule_id = "RPL103"
    summary = "oracle cost must flow into exactly one ledger sink per path"

    _SOURCES = frozenset(
        {"distance", "pair_distance", "distance_upper_bound", "path_length", "_dist"}
    )
    _SINKS = frozenset(
        {
            "record_publish", "record_maintenance", "record_query",
            "record_noop_move", "tag_rehome", "incr", "observe",
        }
    )

    # -- classification ------------------------------------------------
    def _is_source_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Attribute):
            return f.attr in self._SOURCES
        return isinstance(f, ast.Name) and f.id in self._SOURCES

    def _is_sink_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SINKS
        )

    def _contains_source(self, expr: ast.expr) -> bool:
        return any(self._is_source_call(n) for n in ast.walk(expr))

    def check_project(self, index: ProjectIndex, graph: CallGraph) -> None:
        for qualname in sorted(index.functions):
            fn = index.functions[qualname]
            body_nodes = list(ast.walk(fn.node))
            has_source = any(self._is_source_call(n) for n in body_nodes)
            has_sink = any(self._is_sink_call(n) for n in body_nodes)
            if not (has_source or has_sink):
                continue
            cost_vars = self._cost_vars(fn)
            if has_source and cost_vars:
                self._check_conservation(fn, cost_vars)
            if has_sink:
                self._check_charge_then_raise(fn, cost_vars)

    def _cost_vars(self, fn: FunctionInfo) -> frozenset[str]:
        out = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._contains_source(node.value)
            ):
                out.add(node.targets[0].id)
        return frozenset(out)

    # -- shared transfer -----------------------------------------------
    # state: {"vars": {name: (frozenset[assign line], sink count)},
    #         "rec": bool}
    @staticmethod
    def _join(a, b):
        merged_vars = dict(a["vars"])
        for v, (lines, sinks) in b["vars"].items():
            pl, ps = merged_vars.get(v, (frozenset(), 0))
            merged_vars[v] = (pl | lines, max(ps, sinks))
        return {"vars": merged_vars, "rec": a["rec"] or b["rec"]}

    def _transfer(self, stmt, state, cost_vars, fn, reporter, families):
        st = {"vars": dict(state["vars"]), "rec": state["rec"]}
        if stmt is None or isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return st
        exprs = _own_exprs(stmt)
        sink_calls = [n for n in _walk_exprs(exprs) if self._is_sink_call(n)]
        if isinstance(stmt, ast.Raise) and "raise" in families and st["rec"]:
            if reporter:
                self.report(
                    fn.path, stmt,
                    "a cost was already recorded into a ledger sink on this "
                    "path; raising here hands the caller a failure *after* "
                    "the charge (a retry double-records) — record only after "
                    "the last point that can fail, or roll the charge back",
                )
        if sink_calls:
            st["rec"] = True
        # uses of tracked cost variables
        sink_arg_names: dict[str, int] = {}
        for call in sink_calls:
            names = {
                n.id
                for a in [*call.args, *[kw.value for kw in call.keywords]]
                for n in ast.walk(a)
                if isinstance(n, ast.Name)
            }
            for name in names & cost_vars:
                sink_arg_names[name] = sink_arg_names.get(name, 0) + 1
        sink_spans = {id(n) for call in sink_calls for n in ast.walk(call)}
        for node in _walk_exprs(exprs):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in cost_vars
                and id(node) not in sink_spans
            ):
                lines, sinks = st["vars"].get(node.id, (frozenset(), 0))
                st["vars"][node.id] = (frozenset(), sinks)  # escaped: consumed
        for name, count in sorted(sink_arg_names.items()):
            lines, sinks = st["vars"].get(name, (frozenset(), 0))
            total = sinks + count
            if total >= 2 and "double" in families and reporter:
                self.report(
                    fn.path, stmt,
                    f"cost {name!r} flows into a ledger/perf sink for the "
                    f"{self._nth(total)} time on the same path — each computed "
                    "cost must be recorded exactly once",
                )
            st["vars"][name] = (frozenset(), min(total, 2))
        # (re)definitions
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            name = stmt.targets[0].id
            if name in cost_vars:
                if self._contains_source(stmt.value):
                    st["vars"][name] = (frozenset({stmt.lineno}), 0)
                else:
                    st["vars"][name] = (frozenset(), 0)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if name in cost_vars:
                lines, sinks = st["vars"].get(name, (frozenset(), 0))
                if self._contains_source(stmt.value):
                    st["vars"][name] = (lines | {stmt.lineno}, sinks)
        return st

    @staticmethod
    def _nth(n: int) -> str:
        return {2: "second"}.get(n, f"{n}th")

    # -- family 1 + 2: conservation along normal/explicit-raise paths --
    def _check_conservation(self, fn: FunctionInfo, cost_vars: frozenset[str]) -> None:
        cfg = build_cfg(fn.node)
        init = {"vars": {}, "rec": False}

        def transfer(nid, stmt, state, reporter=None):
            return self._transfer(
                stmt, state, cost_vars, fn, reporter, families=("double",)
            )

        in_states, out_states = forward_dataflow(
            cfg, init, transfer, self._join, kinds=("normal", "raise")
        )
        for nid in sorted(cfg.nodes):
            if nid in in_states:
                transfer(nid, cfg.nodes[nid], in_states[nid], reporter=True)
        for exit_node, how in ((EXIT, "return"), (RAISE, "raise")):
            state = in_states.get(exit_node)
            if state is None:
                continue
            for name in sorted(state["vars"]):
                lines, _ = state["vars"][name]
                for line in sorted(lines):
                    anchor = ast.stmt()
                    anchor.lineno, anchor.col_offset = line, 0
                    self.report(
                        fn.path, anchor,
                        f"distance-oracle cost {name!r} computed here can "
                        f"reach a {how} without flowing into any ledger/perf "
                        "sink — a wasted solve at best, an unaccounted cost "
                        "at worst; record it or move the solve past the "
                        "early exit",
                    )

    # -- family 3: charge-then-raise, exception edges included ---------
    def _check_charge_then_raise(
        self, fn: FunctionInfo, cost_vars: frozenset[str]
    ) -> None:
        cfg = build_cfg(fn.node)
        init = {"vars": {}, "rec": False}

        def transfer(nid, stmt, state, reporter=None):
            return self._transfer(
                stmt, state, cost_vars, fn, reporter, families=("raise",)
            )

        in_states, _ = forward_dataflow(
            cfg, init, transfer, self._join, kinds=("normal", "raise", "exc")
        )
        for nid in sorted(cfg.nodes):
            if nid in in_states:
                transfer(nid, cfg.nodes[nid], in_states[nid], reporter=True)


# ======================================================================
# RPL105 — worker frame-protocol totality
# ======================================================================
class WorkerProtocolChecker(FlowChecker):
    """RPL105 — the worker handler table must mirror the transport protocol.

    The process boundary is a closed protocol: ``repro.serve.transport``
    enumerates the frame kinds, ``repro.serve.worker`` dispatches
    request frames through its module-level ``_HANDLERS`` table. Nothing
    ties the two together at runtime until a frame actually arrives — a
    request kind added to the transport without a handler is a
    ``KeyError`` inside a forked child, surfacing on the parent as an
    opaque :class:`ChannelClosed` after the worker dies. This rule
    closes the gap statically:

    - the handler table's keys must equal ``REQUEST_KINDS`` exactly —
      no uncovered request, no unreachable handler;
    - every literal kind passed to a ``.send(...)`` call in the worker
      module must be an enumerated frame kind (requests + replies), so
      a typo'd frame fails the build instead of the codec check at
      runtime.
    """

    rule_id = "RPL105"
    summary = "worker frame protocol out of sync with the transport kind tables"

    _TRANSPORT_SUFFIX = "serve.transport"
    _WORKER_SUFFIX = "serve.worker"
    _TABLE = "_HANDLERS"

    def check_project(self, index: ProjectIndex, graph: CallGraph) -> None:
        transport = self._module_by_suffix(index, self._TRANSPORT_SUFFIX)
        worker = self._module_by_suffix(index, self._WORKER_SUFFIX)
        if transport is None or worker is None:
            return  # only half the protocol in scope: nothing to hold together
        request_kinds = self._string_tuple(transport.tree, "REQUEST_KINDS")
        reply_kinds = self._string_tuple(transport.tree, "REPLY_KINDS")
        table = self._handler_table(worker.tree)
        if request_kinds is not None and table is not None:
            node, keys = table
            for kind in sorted(set(request_kinds) - set(keys)):
                self.report(
                    worker.path, node,
                    f"request kind {kind!r} has no {self._TABLE} handler — "
                    "it would KeyError inside the worker process",
                )
            for kind in sorted(set(keys) - set(request_kinds)):
                self.report(
                    worker.path, node,
                    f"{self._TABLE} key {kind!r} is not in the transport's "
                    "REQUEST_KINDS — an unreachable handler",
                )
        if request_kinds is None or reply_kinds is None:
            return
        frame_kinds = set(request_kinds) | set(reply_kinds)
        for call, kind in self._send_literals(worker.tree):
            if kind not in frame_kinds:
                self.report(
                    worker.path, call,
                    f"send of unknown frame kind {kind!r} — not in the "
                    "transport's REQUEST_KINDS/REPLY_KINDS",
                )

    # -- the two protocol halves ---------------------------------------
    @staticmethod
    def _module_by_suffix(index: ProjectIndex, suffix: str):
        names = sorted(
            n for n in index.modules if n == suffix or n.endswith("." + suffix)
        )
        return index.modules[names[0]] if names else None

    @staticmethod
    def _string_tuple(tree: ast.Module, name: str) -> tuple[str, ...] | None:
        """A module-level all-string tuple/list constant, if present."""
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == name
            ):
                value = stmt.value
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == name
                and stmt.value is not None
            ):
                value = stmt.value
            else:
                continue
            if isinstance(value, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.elts
            ):
                return tuple(e.value for e in value.elts)
            return None  # computed (e.g. FRAME_KINDS = A + B): not comparable
        return None

    def _handler_table(self, tree: ast.Module):
        """The module-level ``_HANDLERS`` dict with all-string keys."""
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == self._TABLE
                    for t in stmt.targets
                )
                and isinstance(stmt.value, ast.Dict)
            ):
                keys = [
                    k.value
                    for k in stmt.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                ]
                if len(keys) == len(stmt.value.keys):
                    return stmt, tuple(keys)
        return None

    @staticmethod
    def _send_literals(tree: ast.Module):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                yield node, node.args[0].value


#: every interprocedural rule, in id order
FLOW_CHECKERS: tuple[type[FlowChecker], ...] = (
    SeedTaintChecker,
    AwaitAtomicityChecker,
    LedgerConservationChecker,
    WorkerProtocolChecker,
)

#: rule id → one-line summary (docs page and SARIF metadata)
FLOW_RULE_SUMMARIES: dict[str, str] = {c.rule_id: c.summary for c in FLOW_CHECKERS}
