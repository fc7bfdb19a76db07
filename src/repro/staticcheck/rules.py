"""The RPL rule checkers (see the package docstring for the catalogue).

Every checker is an :class:`ast.NodeVisitor` over one parsed module.
Checkers are lexical and deliberately conservative: they flag the
patterns the project has actually regressed on, not every theoretical
variant — a rule that cries wolf gets suppressed wholesale and protects
nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.diagnostics import Diagnostic

__all__ = ["ALL_CHECKERS", "RULE_SUMMARIES", "BaseChecker"]


def _dotted_name(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")``; empty when not a plain name chain."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return tuple(reversed(parts))
    return ()


def _has_seed_argument(call: ast.Call) -> bool:
    """Whether a RNG constructor call passes any seed-like argument."""
    return bool(call.args) or bool(call.keywords)


class BaseChecker(ast.NodeVisitor):
    """Shared reporting plumbing for all RPL rules."""

    rule_id: str = ""
    summary: str = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self.diagnostics: list[Diagnostic] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether the rule runs on ``path`` at all (RPL005 exempts the oracle)."""
        return True

    def check_module(self, tree: ast.AST) -> None:
        """Run the rule over one parsed module (default: a single visit)."""
        self.visit(tree)

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        self.diagnostics.append(
            Diagnostic(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule=self.rule_id,
                message=message,
            )
        )


class PerPairDistanceChecker(BaseChecker):
    """RPL001 — per-pair ``*.distance(...)`` inside loops and reductions.

    One ``distance`` call per iteration is one Dijkstra row per
    iteration in lazy mode: the exact O(n · Dijkstra) pattern PR 1's
    batched oracle API exists to kill. Comprehensions and generator
    expressions (``sum(net.distance(u, v) for …)``) count as loops.
    """

    rule_id = "RPL001"
    summary = "per-pair distance() call in a loop; use the batched oracle API"

    _LOOPS = (ast.For, ast.AsyncFor, ast.While)
    _COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._loop_depth = 0

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, self._LOOPS + self._COMPREHENSIONS):
            self._loop_depth += 1
            self.generic_visit(node)
            self._loop_depth -= 1
        else:
            super().visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self._loop_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr == "distance"
        ):
            self.report(
                node,
                "per-pair distance() call inside a loop/comprehension; batch it "
                "with distances_to_many / pairwise_submatrix / "
                "consecutive_distances / pair_distances",
            )
        self.generic_visit(node)


class UnseededRandomChecker(BaseChecker):
    """RPL002 — randomness that is not reproducible from an explicit seed.

    The paper's cost-ratio tables (§8) are only comparable across runs
    and machines when every workload is replayable; module-level RNG
    state and seedless generators silently break that.
    """

    rule_id = "RPL002"
    summary = "unseeded randomness; thread an explicit seed/rng parameter"

    #: stateful module-level functions of the stdlib ``random`` module
    _STDLIB_STATEFUL = frozenset(
        {
            "random", "randint", "randrange", "getrandbits", "randbytes",
            "choice", "choices", "shuffle", "sample", "uniform", "triangular",
            "betavariate", "expovariate", "gammavariate", "gauss",
            "lognormvariate", "normalvariate", "vonmisesvariate",
            "paretovariate", "weibullvariate", "binomialvariate", "seed",
        }
    )
    #: ``np.random`` attributes that are constructors, not the global RNG
    _NUMPY_CONSTRUCTORS = frozenset(
        {"default_rng", "RandomState", "Generator", "SeedSequence",
         "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "BitGenerator"}
    )
    #: constructors that must receive an explicit seed argument
    _NEEDS_SEED = frozenset({"default_rng", "RandomState", "Random"})
    #: project fault-injection entry points whose RNG must be explicitly
    #: seeded — FaultPlan defaults ``seed=0``, which is deterministic but
    #: silently shares one stream across every unlabelled plan; chaos
    #: results are only replayable/citable with the seed spelled out
    _PROJECT_SEEDED = frozenset({"FaultPlan"})

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted:
            self._check(node, dotted)
        self.generic_visit(node)

    @staticmethod
    def _passes_seed(call: ast.Call) -> bool:
        """Whether a project entry point pins its seed (kw or leading positional)."""
        return bool(call.args) or any(kw.arg == "seed" for kw in call.keywords)

    def _check(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        head, tail = dotted[0], dotted[-1]
        if tail in self._PROJECT_SEEDED:
            if not self._passes_seed(node):
                self.report(
                    node,
                    f"{tail}(...) without an explicit seed; pass seed=... so the "
                    "fault-injection run is replayable",
                )
            return
        if dotted[:-1] == ("random",):
            # stdlib: random.random() etc. share hidden global state;
            # random.Random() without a seed is just as irreproducible
            if tail in self._STDLIB_STATEFUL:
                self.report(
                    node,
                    f"random.{tail}() uses the global RNG; construct "
                    "random.Random(seed) and thread it through",
                )
            elif tail == "Random" and not _has_seed_argument(node):
                self.report(
                    node,
                    "random.Random() without a seed; pass an explicit seed",
                )
        elif len(dotted) == 3 and head in ("np", "numpy") and dotted[1] == "random":
            if tail in self._NEEDS_SEED:
                if not _has_seed_argument(node):
                    self.report(
                        node,
                        f"{head}.random.{tail}() without a seed; pass an "
                        "explicit seed",
                    )
            elif tail not in self._NUMPY_CONSTRUCTORS:
                self.report(
                    node,
                    f"{head}.random.{tail}() uses numpy's global RNG; use "
                    f"{head}.random.default_rng(seed) instead",
                )
        elif dotted == ("default_rng",) and not _has_seed_argument(node):
            self.report(node, "default_rng() without a seed; pass an explicit seed")
        elif dotted == ("Random",) and not _has_seed_argument(node):
            self.report(node, "Random() without a seed; pass an explicit seed")


class PrivateAccessChecker(BaseChecker):
    """RPL003 — private state touched through a foreign object.

    ``obj._rows`` / ``tracker._dl`` reached from another module welds
    callers to representation details the owner is free to change (the
    PR 1 LRU rework changed ``_rows``'s type, for instance). Access via
    ``self``/``cls``/``super()`` is the owner's business and always
    allowed, as is any private name the *current module* itself assigns
    on ``self`` somewhere (the module co-owns that state — e.g.
    ``CostLedger.merge`` reading ``other._maint_max``).
    """

    rule_id = "RPL003"
    summary = "cross-module access to private state; use a public accessor"

    #: namedtuple/dataclass protocol members that are private by spelling only
    _SHARED_PROTOCOL = frozenset(
        {"_replace", "_asdict", "_fields", "_make", "_field_defaults"}
    )

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._owned: set[str] = set()

    @staticmethod
    def _iter_owned_names(tree: ast.AST) -> Iterator[str]:
        """Private attribute names this module defines (and may touch freely)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                    yield node.attr
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        yield stmt.target.id
                    elif isinstance(stmt, ast.Assign):
                        for tgt in stmt.targets:
                            if isinstance(tgt, ast.Name):
                                yield tgt.id
                                if tgt.id == "__slots__" and isinstance(
                                    stmt.value, (ast.Tuple, ast.List)
                                ):
                                    for elt in stmt.value.elts:
                                        if isinstance(elt, ast.Constant) and isinstance(
                                            elt.value, str
                                        ):
                                            yield elt.value

    def check_module(self, tree: ast.AST) -> None:
        """Two passes: collect owned names, then visit for foreign access."""
        self._owned = set(self._iter_owned_names(tree))
        self.visit(tree)

    @staticmethod
    def _receiver_is_owner(value: ast.expr) -> bool:
        if isinstance(value, ast.Name) and value.id in ("self", "cls"):
            return True
        # super()._x — the parent class's state is the subclass's state
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if (
            attr.startswith("_")
            and not (attr.startswith("__") and attr.endswith("__"))
            and attr not in self._SHARED_PROTOCOL
            and attr not in self._owned
            and not self._receiver_is_owner(node.value)
        ):
            self.report(
                node,
                f"access to private attribute {attr!r} on a foreign object; "
                "use a public accessor on the owning class",
            )
        self.generic_visit(node)


class FloatEqualityChecker(BaseChecker):
    """RPL004 — exact equality against float literals / distance results.

    Costs and distances are sums of floats; ``==`` on them is
    platform-dependent noise. :func:`repro.core.costs.close_to` is the
    sanctioned comparison.
    """

    rule_id = "RPL004"
    summary = "float equality on costs/distances; use repro.core.costs.close_to"

    #: oracle/cost methods whose results must never be compared exactly
    _DISTANCE_CALLS = frozenset(
        {
            "distance", "distance_upper_bound", "path_length", "dpath_length",
            "edge_cost", "path_cost", "total_edge_cost", "route_cost",
            "optimal_move_cost", "optimal_query_cost", "optimal_total_maintenance",
        }
    )

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # -1.5 parses as UnaryOp(USub, Constant(1.5))
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )

    def _is_distance_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._DISTANCE_CALLS
        )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[i], operands[i + 1])
            if any(self._is_float_literal(x) for x in pair) or any(
                self._is_distance_call(x) for x in pair
            ):
                self.report(
                    node,
                    "exact ==/!= on a float/distance expression; use "
                    "repro.core.costs.close_to(a, b) instead",
                )
                break
        self.generic_visit(node)


class NetworkxDistanceChecker(BaseChecker):
    """RPL005 — networkx shortest-path machinery outside the oracle.

    ``repro/graphs/network.py`` is the single distance authority: it
    caches, batches, prunes and instruments every shortest-path solve.
    A stray ``nx.shortest_path_length`` elsewhere silently forks that
    authority and dodges both the LRU and the perf counters.
    """

    rule_id = "RPL005"
    summary = "networkx shortest-path call outside graphs/network.py"

    #: the file allowed to talk to networkx about distances
    _ORACLE_SUFFIX = "repro/graphs/network.py"

    _NX_DISTANCE_FUNCS = frozenset(
        {
            "shortest_path", "shortest_path_length", "has_path",
            "single_source_shortest_path", "single_source_shortest_path_length",
            "single_source_dijkstra", "single_source_dijkstra_path",
            "single_source_dijkstra_path_length", "multi_source_dijkstra",
            "dijkstra_path", "dijkstra_path_length", "dijkstra_predecessor_and_distance",
            "bellman_ford_path", "bellman_ford_path_length",
            "all_pairs_shortest_path", "all_pairs_shortest_path_length",
            "all_pairs_dijkstra", "all_pairs_dijkstra_path",
            "all_pairs_dijkstra_path_length", "all_pairs_bellman_ford_path",
            "all_pairs_bellman_ford_path_length", "floyd_warshall",
            "floyd_warshall_numpy", "floyd_warshall_predecessor_and_distance",
            "johnson", "astar_path", "astar_path_length",
            "eccentricity", "diameter", "radius", "center", "periphery",
        }
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return not path.replace("\\", "/").endswith(cls._ORACLE_SUFFIX)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if (
            len(dotted) >= 2
            and dotted[0] in ("nx", "networkx")
            and dotted[-1] in self._NX_DISTANCE_FUNCS
        ):
            self.report(
                node,
                f"networkx {dotted[-1]}() bypasses the SensorNetwork distance "
                "oracle; route distance queries through repro.graphs.network",
            )
        self.generic_visit(node)


class AsyncBlockingChecker(BaseChecker):
    """RPL006 — blocking calls lexically inside ``async def`` bodies.

    The service layer (``repro/serve``) runs one cooperative event
    loop; a single blocking call in a coroutine stalls *every* shard
    worker and the load generator at once. Three families regress
    easily and are flagged when called directly from a coroutine:
    ``time.sleep`` (use ``asyncio.sleep``), synchronous distance-oracle
    solves (``distance`` / ``distances_to_many`` / … — hoist them into
    a sync helper the worker calls, so the batch boundary is explicit),
    and file I/O (``open``, ``Path.read_text`` / ``write_text`` — do it
    outside the loop). Nested ``def`` bodies are exempt: a sync helper
    *defined* inside a coroutine is called on somebody's explicit
    budget, which is exactly the sanctioned structure.

    Scoped to ``repro/serve`` files: the simulators are synchronous by
    design and the rule would be noise there.
    """

    rule_id = "RPL006"
    summary = "blocking call inside async def under repro/serve"

    #: synchronous oracle entry points (each may run a Dijkstra solve)
    _ORACLE_SOLVES = frozenset(
        {
            "distance", "distances_from", "distances_to_many",
            "pairwise_submatrix", "pair_distances", "consecutive_distances",
            "path_length", "diameter", "diameter_bounds",
        }
    )
    #: blocking file-I/O attribute calls (pathlib and raw file objects)
    _FILE_IO = frozenset(
        {"read_text", "write_text", "read_bytes", "write_bytes"}
    )

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._async_depth = 0

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return "repro/serve" in path.replace("\\", "/")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a nested sync def is its caller's business, not the coroutine's
        saved = self._async_depth
        self._async_depth = 0
        self.generic_visit(node)
        self._async_depth = saved

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth > 0:
            dotted = _dotted_name(node.func)
            if dotted == ("time", "sleep"):
                self.report(
                    node,
                    "time.sleep() blocks the event loop; await "
                    "asyncio.sleep() instead",
                )
            elif dotted == ("open",):
                self.report(
                    node,
                    "open() blocks the event loop; do file I/O outside "
                    "async code",
                )
            elif isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in self._ORACLE_SOLVES:
                    self.report(
                        node,
                        f"synchronous oracle solve {attr}() inside async "
                        "def; hoist it into a sync batch helper the worker "
                        "calls explicitly",
                    )
                elif attr in self._FILE_IO:
                    self.report(
                        node,
                        f"{attr}() blocks the event loop; do file I/O "
                        "outside async code",
                    )
        self.generic_visit(node)


class ObsOutputChecker(BaseChecker):
    """RPL007 — direct output from the observability layer.

    ``repro/obs`` sits inside the hot paths of every instrumented
    operation: spans close in the middle of moves, queries and shard
    batches. A stray ``print`` (or an ad-hoc ``logging`` call, or a
    direct ``sys.stdout``/``sys.stderr`` write) there is an I/O stall
    charged to whatever operation happened to be in flight — the exact
    overhead the NULL_SPAN design exists to avoid — and it corrupts the
    machine-readable output of CLI commands that print JSON reports.
    Everything in ``repro/obs`` must emit through tracer sinks or
    return data; rendering is the CLI's job.

    Scoped to ``repro/obs`` files.
    """

    rule_id = "RPL007"
    summary = "direct print/logging in repro/obs; emit through sinks instead"

    #: output attribute calls on the logging module / a logger object
    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return "repro/obs" in path.replace("\\", "/")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "logging" or alias.name.startswith("logging."):
                self.report(
                    node,
                    "the obs layer does not log; emit SpanEvents through "
                    "tracer sinks and let callers render them",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.split(".")[0] == "logging":
            self.report(
                node,
                "the obs layer does not log; emit SpanEvents through "
                "tracer sinks and let callers render them",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted == ("print",):
            self.report(
                node,
                "print() in the obs layer stalls the instrumented hot path "
                "and corrupts JSON-emitting CLI commands; return data or "
                "emit through a sink",
            )
        elif dotted[:2] in (("sys", "stdout"), ("sys", "stderr")):
            self.report(
                node,
                "direct sys.stdout/sys.stderr output in the obs layer; "
                "rendering belongs to the CLI",
            )
        elif (
            len(dotted) == 2
            and dotted[1] in self._LOG_METHODS
            and dotted[0] in ("logging", "logger", "log")
        ):
            self.report(
                node,
                "ad-hoc logging in the obs layer; emit SpanEvents through "
                "tracer sinks instead",
            )
        self.generic_visit(node)


class ColumnarLoopChecker(BaseChecker):
    """RPL008 — per-element python loops over columnar arrays.

    ``repro/core/batch`` is the struct-of-arrays kernel layer: its whole
    reason to exist is that state lives in numpy columns and every op
    touches them with vectorized kernels. Iterating one of those columns
    from python — ``for e in self._epoch``, ``zip(rows, self._proxy[rows])``,
    ``for i in np.flatnonzero(mask)`` — materializes one numpy *scalar*
    per element, each ~100x a plain-int access, and quietly drags a
    kernel back to scalar speed while every test still passes. The
    sanctioned idioms are numpy fancy indexing for bulk work and a
    single ``.tolist()`` conversion when python-object iteration is
    genuinely needed (outcome assembly does exactly that).

    Scoped to ``repro/core/batch``: elsewhere a small python loop over
    an array is usually fine and the rule would be noise.
    """

    rule_id = "RPL008"
    summary = "per-element python loop over a columnar array in repro/core/batch"

    #: the engine's per-object state columns, its log buffers and the
    #: static hierarchy tables
    _COLUMNS = frozenset(
        {
            "_proxy", "_epoch", "_published", "_op_log", "_query_log",
            "chain", "chain_hop", "cum_q", "up_cum", "pub_cost",
            "lift", "sdl_cost",
        }
    )
    #: iteration wrappers whose arguments are what is really iterated
    _WRAPPERS = frozenset({"zip", "enumerate", "reversed", "sorted", "iter"})

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return "repro/core/batch" in path.replace("\\", "/")

    def _columnar(self, node: ast.expr) -> ast.expr | None:
        """The columnar-attribute expression behind ``node``, if any."""
        while isinstance(node, ast.Subscript):
            node = node.value
        dotted = _dotted_name(node)
        if dotted and dotted[-1] in self._COLUMNS:
            return node
        return None

    def _check_iterable(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted and dotted[-1] in self._WRAPPERS:
                for arg in node.args:
                    self._check_iterable(arg)
                return
            if len(dotted) >= 2 and dotted[0] in ("np", "numpy"):
                self.report(
                    node,
                    f"iterating {'.'.join(dotted)}(...) element-wise yields "
                    "one numpy scalar per element; keep it an array "
                    "(vectorize) or convert once with .tolist()",
                )
                return
        target = self._columnar(node)
        if target is not None:
            self.report(
                node,
                "per-element python loop over a columnar array; use numpy "
                "fancy indexing for bulk work or convert once with .tolist()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


#: every rule, in id order — the runner instantiates one of each per file
ALL_CHECKERS: tuple[type[BaseChecker], ...] = (
    PerPairDistanceChecker,
    UnseededRandomChecker,
    PrivateAccessChecker,
    FloatEqualityChecker,
    NetworkxDistanceChecker,
    AsyncBlockingChecker,
    ObsOutputChecker,
    ColumnarLoopChecker,
)

#: rule id → one-line summary (docs page and ``--format json`` metadata)
RULE_SUMMARIES: dict[str, str] = {c.rule_id: c.summary for c in ALL_CHECKERS}
