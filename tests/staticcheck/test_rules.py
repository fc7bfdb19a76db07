"""Per-rule fixture tests for the RPL checkers.

Every rule gets four angles: a positive fixture (fires, with the right
file:line), a negative fixture (stays silent on the batched/seeded/
tolerant idiom), a suppressed fixture (same-line directive silences
it), and an unused-suppression fixture (the directive itself is
reported as RPL000).
"""

import textwrap

from repro.staticcheck import lint_source
from repro.staticcheck.runner import PARSE_ERROR_RULE
from repro.staticcheck.suppressions import UNUSED_SUPPRESSION_RULE


def rules_at(source, path="src/repro/fake.py"):
    """[(rule, line), ...] for a dedented source snippet."""
    diags = lint_source(textwrap.dedent(source), path)
    return [(d.rule, d.line) for d in diags]


# ----------------------------------------------------------------------
# RPL001 — per-pair distance() in loops
# ----------------------------------------------------------------------
class TestRPL001:
    def test_for_loop_fires(self):
        src = """\
        def total(net, pairs):
            cost = 0.0
            for u, v in pairs:
                cost += net.distance(u, v)
            return cost
        """
        assert ("RPL001", 4) in rules_at(src)

    def test_comprehension_and_sum_fire(self):
        src = """\
        def totals(net, pairs, seq):
            a = [net.distance(u, v) for u, v in pairs]
            b = sum(net.distance(x, y) for x, y in zip(seq, seq[1:], strict=False))
            return a, b
        """
        got = rules_at(src)
        assert ("RPL001", 2) in got
        assert ("RPL001", 3) in got

    def test_while_loop_fires(self):
        src = """\
        def walk(net, frontier):
            while frontier:
                u, v = frontier.pop()
                d = net.distance(u, v)
        """
        assert ("RPL001", 4) in rules_at(src)

    def test_single_call_outside_loop_is_fine(self):
        src = """\
        def one(net, u, v):
            return net.distance(u, v)
        """
        assert rules_at(src) == []

    def test_batched_calls_inside_loops_are_fine(self):
        src = """\
        def batched(net, groups):
            out = []
            for pairs in groups:
                out.append(net.pair_distances(pairs).sum())
                out.append(net.distances_to_many([pairs[0][0]], None).max())
            return out
        """
        assert rules_at(src) == []

    def test_suppressed(self):
        src = """\
        def total(net, pairs):
            cost = 0.0
            for u, v in pairs:
                cost += net.distance(u, v)  # repro-lint: disable=RPL001
            return cost
        """
        assert rules_at(src) == []

    def test_unused_suppression_reported(self):
        src = """\
        def one(net, u, v):
            return net.distance(u, v)  # repro-lint: disable=RPL001
        """
        assert rules_at(src) == [(UNUSED_SUPPRESSION_RULE, 2)]


# ----------------------------------------------------------------------
# RPL002 — unseeded randomness
# ----------------------------------------------------------------------
class TestRPL002:
    def test_module_level_random_functions_fire(self):
        src = """\
        import random
        x = random.random()
        y = random.choice([1, 2])
        """
        got = rules_at(src)
        assert ("RPL002", 2) in got
        assert ("RPL002", 3) in got

    def test_seedless_rng_constructors_fire(self):
        src = """\
        import random
        import numpy as np
        r = random.Random()
        g = np.random.default_rng()
        """
        got = rules_at(src)
        assert ("RPL002", 3) in got
        assert ("RPL002", 4) in got

    def test_module_level_numpy_random_fires(self):
        src = """\
        import numpy as np
        x = np.random.rand(3)
        """
        assert ("RPL002", 2) in rules_at(src)

    def test_seeded_constructors_are_fine(self):
        src = """\
        import random
        import numpy as np
        r = random.Random(7)
        g = np.random.default_rng(7)
        v = r.random()
        """
        assert rules_at(src) == []

    def test_suppressed_and_unused(self):
        src = """\
        import random
        x = random.random()  # repro-lint: disable=RPL002
        r = random.Random(3)  # repro-lint: disable=RPL002
        """
        assert rules_at(src) == [(UNUSED_SUPPRESSION_RULE, 3)]

    def test_unseeded_fault_plan_fires(self):
        src = """\
        from repro.sim.faults import FaultPlan
        plan = FaultPlan(message_loss=0.1)
        """
        assert ("RPL002", 2) in rules_at(src)

    def test_seeded_fault_plan_is_fine(self):
        src = """\
        from repro.sim import faults
        a = faults.FaultPlan(seed=3, message_loss=0.1)
        b = faults.FaultPlan(7)
        """
        assert rules_at(src) == []

    def test_unseeded_fault_plan_suppressible(self):
        src = """\
        from repro.sim.faults import FaultPlan
        plan = FaultPlan()  # repro-lint: disable=RPL002
        """
        assert rules_at(src) == []


# ----------------------------------------------------------------------
# RPL003 — cross-module private-state access
# ----------------------------------------------------------------------
class TestRPL003:
    def test_foreign_private_access_fires(self):
        src = """\
        def peek(net):
            return net._rows, net._dl
        """
        got = rules_at(src)
        assert ("RPL003", 2) in got
        assert len([r for r, _ in got if r == "RPL003"]) == 2

    def test_self_access_is_fine(self):
        src = """\
        class Tracker:
            def __init__(self):
                self._cache = {}

            def load(self):
                return self._cache
        """
        assert rules_at(src) == []

    def test_same_module_ownership_is_fine(self):
        src = """\
        class Ledger:
            def __init__(self):
                self._ratios = []

            def merge(self, other):
                self._ratios.extend(other._ratios)
        """
        assert rules_at(src) == []

    def test_namedtuple_protocol_is_fine(self):
        src = """\
        def bump(record):
            return record._replace(cost=0.0)
        """
        assert rules_at(src) == []

    def test_suppressed(self):
        src = """\
        def peek(net):
            return net._rows  # repro-lint: disable=RPL003
        """
        assert rules_at(src) == []


# ----------------------------------------------------------------------
# RPL004 — exact float equality on distances/costs
# ----------------------------------------------------------------------
class TestRPL004:
    def test_float_literal_comparison_fires(self):
        src = """\
        def check(cost):
            return cost == 1.5
        """
        assert ("RPL004", 2) in rules_at(src)

    def test_distance_call_comparison_fires(self):
        src = """\
        def check(net, u, v, w):
            if net.distance(u, v) != w:
                return False
        """
        assert ("RPL004", 2) in rules_at(src)

    def test_int_comparison_is_fine(self):
        src = """\
        def check(count):
            return count == 3
        """
        assert rules_at(src) == []

    def test_close_to_is_fine(self):
        src = """\
        from repro.core.costs import close_to

        def check(cost):
            return close_to(cost, 1.5)
        """
        assert rules_at(src) == []

    def test_suppressed_and_unused(self):
        src = """\
        def check(cost, count):
            a = cost == 1.5  # repro-lint: disable=RPL004
            b = count == 3  # repro-lint: disable=RPL004
            return a, b
        """
        assert rules_at(src) == [(UNUSED_SUPPRESSION_RULE, 3)]


# ----------------------------------------------------------------------
# RPL005 — networkx shortest paths outside graphs/network.py
# ----------------------------------------------------------------------
class TestRPL005:
    def test_nx_shortest_path_fires(self):
        src = """\
        import networkx as nx

        def hops(g, u, v):
            return nx.shortest_path_length(g, u, v)
        """
        assert ("RPL005", 4) in rules_at(src, path="src/repro/baselines/fake.py")

    def test_nx_diameter_fires(self):
        src = """\
        import networkx as nx

        def span(g):
            return nx.diameter(g)
        """
        assert ("RPL005", 4) in rules_at(src)

    def test_exempt_in_network_module(self):
        src = """\
        import networkx as nx

        def hops(g, u, v):
            return nx.shortest_path(g, u, v)
        """
        assert rules_at(src, path="src/repro/graphs/network.py") == []

    def test_oracle_api_is_fine(self):
        src = """\
        def hops(net, u, v):
            return net.shortest_path(u, v)
        """
        assert rules_at(src) == []

    def test_suppressed(self):
        src = """\
        import networkx as nx

        def hops(g, u, v):
            return nx.shortest_path(g, u, v)  # repro-lint: disable=RPL005
        """
        assert rules_at(src) == []


# ----------------------------------------------------------------------
# RPL006 — blocking calls inside async def under repro/serve
# ----------------------------------------------------------------------
SERVE_PATH = "src/repro/serve/fake.py"


class TestRPL006:
    def test_time_sleep_in_coroutine_fires(self):
        src = """\
        import time

        async def worker(queue):
            while await queue.get():
                time.sleep(0.1)
        """
        assert ("RPL006", 5) in rules_at(src, path=SERVE_PATH)

    def test_sync_oracle_solve_in_coroutine_fires(self):
        src = """\
        async def answer(net, u, v):
            return net.distance(u, v)
        """
        assert ("RPL006", 2) in rules_at(src, path=SERVE_PATH)

    def test_open_and_file_io_fire(self):
        src = """\
        async def dump(path, report):
            with open(path) as fh:
                fh.read()
            path.write_text(report)
        """
        got = rules_at(src, path=SERVE_PATH)
        assert ("RPL006", 2) in got
        assert ("RPL006", 4) in got

    def test_asyncio_sleep_is_fine(self):
        src = """\
        import asyncio

        async def worker(queue):
            await asyncio.sleep(0.1)
        """
        assert rules_at(src, path=SERVE_PATH) == []

    def test_nested_sync_def_is_exempt(self):
        src = """\
        async def worker(net, batch):
            def apply(ops):
                return [net.pair_distances(ops)]

            return apply(batch)
        """
        assert rules_at(src, path=SERVE_PATH) == []

    def test_sync_module_code_is_exempt(self):
        src = """\
        import time

        def warm_up(net, u, v):
            time.sleep(0.1)
            return net.distance(u, v)
        """
        assert rules_at(src, path=SERVE_PATH) == []

    def test_outside_serve_is_exempt(self):
        src = """\
        import time

        async def worker(queue):
            time.sleep(0.1)
        """
        assert rules_at(src, path="src/repro/sim/fake.py") == []

    def test_suppressed_and_unused(self):
        src = """\
        import time

        async def worker(net, u, v):
            time.sleep(0.1)  # repro-lint: disable=RPL006
            return await net.lookup(u, v)  # repro-lint: disable=RPL006
        """
        assert rules_at(src, path=SERVE_PATH) == [(UNUSED_SUPPRESSION_RULE, 5)]


# ----------------------------------------------------------------------
# RPL007 — direct output inside repro/obs
# ----------------------------------------------------------------------
OBS_PATH = "src/repro/obs/fake.py"


class TestRPL007:
    def test_print_fires(self):
        src = """\
        def emit(event):
            print(event.as_dict())
        """
        assert ("RPL007", 2) in rules_at(src, path=OBS_PATH)

    def test_logging_import_and_call_fire(self):
        src = """\
        import logging

        def emit(event):
            logging.info("span %s", event.span_id)
        """
        got = rules_at(src, path=OBS_PATH)
        assert ("RPL007", 1) in got
        assert ("RPL007", 4) in got

    def test_logger_object_and_stderr_fire(self):
        src = """\
        import sys

        def emit(logger, event):
            logger.warning("dropped")
            sys.stderr.write("oops\\n")
        """
        got = rules_at(src, path=OBS_PATH)
        assert ("RPL007", 4) in got
        assert ("RPL007", 5) in got

    def test_sink_file_write_is_fine(self):
        src = """\
        def emit(fh, line):
            fh.write(line + "\\n")
        """
        assert rules_at(src, path=OBS_PATH) == []

    def test_outside_obs_is_exempt(self):
        src = """\
        def render(report):
            print(report)
        """
        assert rules_at(src, path="src/repro/cli.py") == []

    def test_suppressed_and_unused(self):
        src = """\
        def emit(event):
            print(event)  # repro-lint: disable=RPL007
            return event  # repro-lint: disable=RPL007
        """
        assert rules_at(src, path=OBS_PATH) == [(UNUSED_SUPPRESSION_RULE, 3)]


# ----------------------------------------------------------------------
# RPL008 — per-element loops over columnar arrays in repro/core/batch
# ----------------------------------------------------------------------
BATCH_PATH = "src/repro/core/batch.py"


class TestRPL008:
    def test_for_over_column_fires(self):
        src = """\
        def bump(self):
            for e in self._epoch:
                use(e)
        """
        assert ("RPL008", 2) in rules_at(src, path=BATCH_PATH)

    def test_subscripted_column_and_zip_fire(self):
        src = """\
        def walk(self, rows):
            for s in self._proxy[rows]:
                use(s)
            for r, e in zip(rows, self._epoch[rows]):
                use(r, e)
            for rec in self._query_log[: self._n_queries]:
                use(rec)
        """
        got = rules_at(src, path=BATCH_PATH)
        assert ("RPL008", 2) in got
        assert ("RPL008", 4) in got
        assert ("RPL008", 6) in got

    def test_comprehension_over_numpy_result_fires(self):
        src = """\
        def pick(self, mask):
            return [int(i) for i in np.flatnonzero(mask)]
        """
        assert ("RPL008", 2) in rules_at(src, path=BATCH_PATH)

    def test_tolist_and_plain_sequences_are_fine(self):
        src = """\
        def assemble(self, rows, objs):
            el = self._epoch[rows].tolist()
            return [make(o, el[k]) for k, o in enumerate(objs)]
        """
        assert rules_at(src, path=BATCH_PATH) == []

    def test_outside_batch_module_is_exempt(self):
        src = """\
        def bump(self):
            for e in self._epoch:
                use(e)
        """
        assert rules_at(src, path="src/repro/core/mot.py") == []

    def test_suppressed_and_unused(self):
        src = """\
        def bump(self):
            for e in self._epoch:  # repro-lint: disable=RPL008
                use(e)
            return 0  # repro-lint: disable=RPL008
        """
        assert rules_at(src, path=BATCH_PATH) == [(UNUSED_SUPPRESSION_RULE, 4)]


# ----------------------------------------------------------------------
# cross-cutting machinery
# ----------------------------------------------------------------------
class TestMachinery:
    def test_syntax_error_reported_as_rpl999(self):
        got = rules_at("def broken(:\n")
        assert got and got[0][0] == PARSE_ERROR_RULE

    def test_multi_rule_directive(self):
        src = """\
        import random

        def noisy(net, pairs):
            for u, v in pairs:
                d = net.distance(u, v) * random.random()  # repro-lint: disable=RPL001,RPL002
        """
        assert rules_at(src) == []

    def test_directive_in_docstring_is_not_a_suppression(self):
        src = '''\
        def documented():
            """Example: x = 1  # repro-lint: disable=RPL001"""
            return 0
        '''
        assert rules_at(src) == []

    def test_diagnostics_are_sorted_and_positioned(self):
        src = """\
        import random

        def f(net, pairs):
            x = random.random()
            for u, v in pairs:
                d = net.distance(u, v)
        """
        diags = lint_source(textwrap.dedent(src), "src/repro/fake.py")
        assert [d.rule for d in sorted(diags)] == ["RPL002", "RPL001"]
        assert all(d.path == "src/repro/fake.py" for d in diags)
        assert all(d.line > 0 and d.col >= 0 for d in diags)
