"""Fixture tests for the interprocedural families RPL101–RPL103 and RPL105.

Each fixture is a tiny in-memory project handed to
:func:`repro.staticcheck.flow.check_sources` under synthetic
``src/repro/...`` paths, so path-scoped rules (RPL102 only watches
``repro/serve``) and cross-module resolution behave exactly as on the
real tree. Positive fixtures reproduce the *shapes that were actually
found and fixed* in this repository — the original ``TrackerShard.stop``
race and the charge-before-guard query pattern — so the rules keep
guarding against their reintroduction.
"""

import textwrap

from repro.staticcheck.flow import check_sources


def check(**files):
    """[(rule, path, line), ...] over ``{dotted_suffix: source}`` fixtures."""
    sources = [
        ("src/repro/" + dotted.replace(".", "/") + ".py", textwrap.dedent(src))
        for dotted, src in files.items()
    ]
    return [(d.rule, d.path, d.line) for d in check_sources(sources)]


def rules_of(found):
    return [r for r, _p, _l in found]


# ----------------------------------------------------------------------
# RPL101 — seed taint
# ----------------------------------------------------------------------
class TestRPL101:
    def test_literal_none_seed_fires(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def build():
                    return random.Random(None)
                """
            }
        )
        assert ("RPL101", "src/repro/sim/a.py", 4) in found

    def test_none_passed_across_a_call_boundary_fires_at_the_call(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def make_rng(seed):
                    return random.Random(seed)

                def scenario():
                    return make_rng(None)
                """
            }
        )
        assert ("RPL101", "src/repro/sim/a.py", 7) in found

    def test_omitted_param_with_none_default_fires(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def make_rng(seed=None):
                    return random.Random(seed)

                def scenario():
                    return make_rng()
                """
            }
        )
        assert ("RPL101", "src/repro/sim/a.py", 7) in found

    def test_taint_is_transitive_through_helpers(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def make_rng(seed):
                    return random.Random(seed)

                def build_world(world_seed):
                    return make_rng(world_seed)

                def scenario():
                    return build_world(None)
                """
            }
        )
        assert ("RPL101", "src/repro/sim/a.py", 10) in found

    def test_cross_module_taint_names_the_entry_point(self):
        found_diags = check_sources(
            [
                (
                    "src/repro/core/rngutil.py",
                    textwrap.dedent(
                        """\
                        import random

                        def make_rng(seed):
                            return random.Random(seed)
                        """
                    ),
                ),
                (
                    "src/repro/sim/scenario.py",
                    textwrap.dedent(
                        """\
                        from repro.core.rngutil import make_rng

                        def run_scenario():
                            return make_rng(None)
                        """
                    ),
                ),
            ]
        )
        assert [d.rule for d in found_diags] == ["RPL101"]
        assert "entry point" in found_diags[0].message

    def test_dataclass_seed_field_left_none_fires(self):
        found = check(
            **{
                "sim.a": """\
                import random
                from dataclasses import dataclass

                @dataclass
                class Plan:
                    rate: float
                    seed: int | None = None

                    def rng(self):
                        return random.Random(self.seed)

                def scenario():
                    return Plan(0.5)
                """
            }
        )
        assert ("RPL101", "src/repro/sim/a.py", 13) in found

    def test_seeded_chain_is_clean(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def make_rng(seed):
                    return random.Random(seed)

                def scenario(seed=7):
                    explicit = make_rng(1234)
                    threaded = make_rng(seed)
                    return explicit, threaded
                """
            }
        )
        assert found == []

    def test_suppression_silences_and_is_tracked(self):
        found = check(
            **{
                "sim.a": """\
                import random

                def build():
                    return random.Random(None)  # repro-lint: disable=RPL101
                """
            }
        )
        assert found == []


# ----------------------------------------------------------------------
# RPL102 — await atomicity
# ----------------------------------------------------------------------
class TestRPL102:
    #: the exact shape of the original TrackerShard.stop bug (fixed in
    #: this PR): guard-read, await, stale write
    STOP_RACE = """\
    class Shard:
        async def stop(self):
            await self._queue.join()
            if self._worker is not None:
                self._queue.put_nowait(STOP)
                await self._worker
                self._worker = None
    """

    def test_original_shard_stop_race_fires(self):
        found = check(**{"serve.shard": self.STOP_RACE})
        assert ("RPL102", "src/repro/serve/shard.py", 7) in found

    def test_same_code_outside_serve_is_exempt(self):
        found = check(**{"core.shard": self.STOP_RACE})
        assert found == []

    def test_claim_and_clear_before_await_is_clean(self):
        found = check(
            **{
                "serve.shard": """\
                class Shard:
                    async def stop(self):
                        await self._queue.join()
                        worker = self._worker
                        if worker is None:
                            return
                        self._worker = None
                        self._queue.put_nowait(STOP)
                        await worker
                """
            }
        )
        assert found == []

    def test_re_read_after_await_is_clean(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    async def bump(self):
                        if self.depth > 0:
                            await self.flush()
                            if self.depth > 0:
                                self.depth = 0
                """
            }
        )
        assert found == []

    def test_read_await_write_fires_even_without_a_guard(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    async def shift(self):
                        snapshot = self.horizon
                        await self.clock.sleep(1.0)
                        self.horizon = snapshot + 1.0
                """
            }
        )
        assert ("RPL102", "src/repro/serve/a.py", 5) in found

    def test_augassign_without_await_is_atomic(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    async def count(self):
                        self.depth += 1
                        await self.flush()
                        self.depth -= 1
                """
            }
        )
        assert found == []

    def test_augassign_whose_rhs_awaits_fires(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    async def charge(self):
                        self.total += await self.next_cost()
                """
            }
        )
        assert ("RPL102", "src/repro/serve/a.py", 3) in found

    def test_blind_write_after_await_is_clean(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    async def close(self):
                        await self.drain()
                        self._closed = True
                """
            }
        )
        assert found == []

    def test_sync_methods_are_exempt(self):
        found = check(
            **{
                "serve.a": """\
                class S:
                    def tick(self):
                        v = self.horizon
                        self.horizon = v + 1
                """
            }
        )
        assert found == []


# ----------------------------------------------------------------------
# RPL103 — ledger conservation
# ----------------------------------------------------------------------
class TestRPL103:
    def test_charge_before_guard_early_return_fires(self):
        # the exact query shape fixed in mot.py/tree.py this PR
        found = check(
            **{
                "core.a": """\
                class Tracker:
                    def query(self, obj, source):
                        proxy = self.proxy_of(obj)
                        optimal = self.net.distance(source, proxy)
                        if source == proxy:
                            self.ledger.record_query(0.0, 0.0)
                            return None
                        cost = self.walk(source, proxy)
                        self.ledger.record_query(cost, optimal)
                        return cost
                """
            }
        )
        assert ("RPL103", "src/repro/core/a.py", 4) in found

    def test_guard_first_then_solve_is_clean(self):
        found = check(
            **{
                "core.a": """\
                class Tracker:
                    def query(self, obj, source):
                        proxy = self.proxy_of(obj)
                        if source == proxy:
                            self.ledger.record_query(0.0, 0.0)
                            return None
                        optimal = self.net.distance(source, proxy)
                        cost = self.walk(source, proxy)
                        self.ledger.record_query(cost, optimal)
                        return cost
                """
            }
        )
        assert found == []

    def test_double_record_on_one_path_fires(self):
        found = check(
            **{
                "core.a": """\
                class Tracker:
                    def move(self, u, v):
                        cost = self.net.pair_distance(u, v)
                        self.ledger.record_maintenance(cost, cost)
                        if cost > 10:
                            self.ledger.record_maintenance(cost, cost)
                """
            }
        )
        assert ("RPL103", "src/repro/core/a.py", 6) in found

    def test_recording_then_reraising_fires_at_the_raise(self):
        found = check(
            **{
                "core.a": """\
                class Tracker:
                    def move(self, u, v):
                        cost = self.net.pair_distance(u, v)
                        try:
                            self.ledger.record_maintenance(cost, cost)
                            self.apply(u, v)
                        except KeyError:
                            raise ValueError(u)
                """
            }
        )
        assert ("RPL103", "src/repro/core/a.py", 8) in found

    def test_raise_before_any_recording_is_clean(self):
        found = check(
            **{
                "core.a": """\
                class Tracker:
                    def move(self, u, v):
                        if u == v:
                            raise ValueError(u)
                        cost = self.net.pair_distance(u, v)
                        self.ledger.record_maintenance(cost, cost)
                """
            }
        )
        assert found == []

    def test_returning_the_cost_counts_as_consumption(self):
        found = check(
            **{
                "core.a": """\
                def lookup(net, u, v):
                    d = net.distance(u, v)
                    return d
                """
            }
        )
        assert found == []

    def test_passing_the_cost_onward_counts_as_consumption(self):
        found = check(
            **{
                "core.a": """\
                def lookup(net, u, v, out):
                    d = net.distance(u, v)
                    out.append(d)
                """
            }
        )
        assert found == []


# ----------------------------------------------------------------------
# RPL105 — worker frame-protocol totality
# ----------------------------------------------------------------------
_TRANSPORT = """\
REQUEST_KINDS = ("batch", "health", "stop")
REPLY_KINDS = ("ready", "results", "healthy", "final")
FRAME_KINDS = REQUEST_KINDS + REPLY_KINDS
"""

_WORKER = """\
class Worker:
    def handle_batch(self, payload):
        return "results", payload
    def handle_health(self, payload):
        return "healthy", None
    def handle_stop(self, payload):
        return "final", None

_HANDLERS = {
    "batch": Worker.handle_batch,
    "health": Worker.handle_health,
    "stop": Worker.handle_stop,
}

def worker_main(chan):
    chan.send("ready", None)
    while True:
        kind, payload = chan.recv()
        reply_kind, reply = _HANDLERS[kind](Worker(), payload)
        chan.send(reply_kind, reply)
        if kind == "stop":
            return
"""


class TestRPL105:
    def test_in_sync_protocol_is_clean(self):
        found = check(
            **{"serve.transport": _TRANSPORT, "serve.worker": _WORKER}
        )
        assert found == []

    def test_uncovered_request_kind_fires_at_the_table(self):
        transport = _TRANSPORT.replace(
            '"batch", "health", "stop"', '"batch", "health", "snapshot", "stop"'
        )
        found = check(**{"serve.transport": transport, "serve.worker": _WORKER})
        # the _HANDLERS assignment is the anchor: that is where the
        # missing "snapshot" handler belongs
        assert ("RPL105", "src/repro/serve/worker.py", 9) in found
        assert rules_of(found) == ["RPL105"]

    def test_unreachable_handler_key_fires(self):
        worker = _WORKER.replace(
            '"stop": Worker.handle_stop,',
            '"stop": Worker.handle_stop,\n    "teleport": Worker.handle_stop,',
        )
        found = check(**{"serve.transport": _TRANSPORT, "serve.worker": worker})
        assert ("RPL105", "src/repro/serve/worker.py", 9) in found
        assert rules_of(found) == ["RPL105"]

    def test_unknown_send_literal_fires(self):
        worker = _WORKER.replace(
            'chan.send("ready", None)', 'chan.send("raedy", None)'
        )
        found = check(**{"serve.transport": _TRANSPORT, "serve.worker": worker})
        assert ("RPL105", "src/repro/serve/worker.py", 16) in found
        assert rules_of(found) == ["RPL105"]

    def test_reply_kind_send_literals_are_allowed(self):
        worker = _WORKER.replace(
            'chan.send("ready", None)', 'chan.send("healthy", None)'
        )
        found = check(**{"serve.transport": _TRANSPORT, "serve.worker": worker})
        assert found == []

    def test_rule_stands_down_without_both_modules(self):
        assert check(**{"serve.transport": _TRANSPORT}) == []
        assert check(**{"serve.worker": _WORKER}) == []

    def test_rpl102_covers_the_worker_module(self):
        # the new module lives under repro/serve, so the await-atomicity
        # family watches it too: the classic claim-after-await race in a
        # ProcessShardHandle-shaped class must still be flagged
        found = check(
            **{
                "serve.worker": """\
                class Handle:
                    async def stop(self):
                        pump = self._pump
                        await pump
                        self._pump = None
                """
            }
        )
        assert ("RPL102", "src/repro/serve/worker.py", 5) in found


# ----------------------------------------------------------------------
# engine-level behaviour shared by every family
# ----------------------------------------------------------------------
class TestEngineBehaviour:
    def test_syntax_error_reported_as_rpl999(self):
        found = check(**{"core.bad": "def f(:\n"})
        assert rules_of(found) == ["RPL999"]

    def test_unused_check_suppression_reported_as_rpl000(self):
        found = check(
            **{
                "core.a": """\
                def fine():  # repro-lint: disable=RPL103
                    return 1
                """
            }
        )
        assert found == [("RPL000", "src/repro/core/a.py", 1)]

    def test_lint_rule_suppressions_are_not_this_tools_business(self):
        found = check(
            **{
                "core.a": """\
                import random

                def noisy():
                    return random.random()  # repro-lint: disable=RPL002
                """
            }
        )
        assert found == []
