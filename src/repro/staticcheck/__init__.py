"""``repro.staticcheck`` — project-specific AST lint rules (``repro lint``).

Generic linters cannot know that ``net.distance`` inside a loop is an
O(n · Dijkstra) regression, that unseeded randomness invalidates the
paper's cost-ratio tables, or that ``networkx`` shortest paths bypass
the batched distance oracle. This package encodes those invariants as
eight fixture-tested AST rules (stdlib :mod:`ast` only, no third-party
dependencies):

========  ============================================================
RPL001    per-pair ``*.distance(...)`` inside a loop / comprehension /
          ``sum()``-style reduction — use the batched oracle API
          (``distances_to_many`` / ``pairwise_submatrix`` /
          ``consecutive_distances`` / ``pair_distances``)
RPL002    unseeded randomness (``random.random()``, module-level
          ``np.random.*``, ``random.Random()`` or ``default_rng()``
          without an explicit seed) — thread a ``seed``/``rng`` param
RPL003    cross-module access to private state (``obj._rows`` and
          friends on a receiver other than ``self``/``cls``) — add or
          use a public accessor instead
RPL004    ``==`` / ``!=`` between distance/cost expressions and float
          literals — use :func:`repro.core.costs.close_to`
RPL005    ``networkx`` shortest-path / all-pairs calls outside
          ``repro/graphs/network.py`` — the ``SensorNetwork`` oracle is
          the single distance authority
RPL006    blocking calls (``time.sleep``, synchronous oracle solves,
          file I/O) lexically inside ``async def`` bodies under
          ``repro/serve`` — one blocking call stalls every shard; hoist
          the work into a sync helper or use ``asyncio`` equivalents
RPL007    direct output (``print``, ``logging``, raw
          ``sys.stdout``/``sys.stderr`` writes) inside ``repro/obs`` —
          the tracing layer sits on instrumented hot paths and must
          emit through sinks; rendering belongs to the CLI
RPL008    per-element python loops over columnar arrays inside
          ``repro/core/batch`` — element-wise iteration materializes
          one numpy scalar per element and drags a vectorized kernel
          back to scalar speed; use fancy indexing or one ``.tolist()``
========  ============================================================

A finding on one line is silenced with a same-line comment::

    d = net.distance(u, v)  # repro-lint: disable=RPL001

A suppression applies to the whole statement its line belongs to (so a
directive on any line of a multi-line call, or on a decorator, works).
Suppressions that silence nothing are themselves reported (RPL000), so
stale ones cannot accumulate. The CLI entry point is
``python -m repro lint [paths…] [--format json|sarif]``; see
:mod:`repro.staticcheck.runner` for the library interface.

The **interprocedural** families RPL101–RPL103 and RPL105 (seed taint
across call boundaries, await-atomicity races, ledger conservation along
CFG paths, worker frame-protocol totality) live in
:mod:`repro.staticcheck.flow` behind the separate ``repro check`` verb —
they need the whole source tree at once, not one file at a time.
"""

from repro.staticcheck.diagnostics import Diagnostic, render_sarif
from repro.staticcheck.rules import ALL_CHECKERS, RULE_SUMMARIES
from repro.staticcheck.runner import lint_file, lint_paths, lint_source, run

__all__ = [
    "ALL_CHECKERS",
    "Diagnostic",
    "RULE_SUMMARIES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_sarif",
    "run",
]
