"""``repro.staticcheck.flow`` — the project-wide interprocedural engine.

Where :mod:`repro.staticcheck.rules` looks at one line of one file at a
time, this package sees the whole source tree at once:

- :mod:`~repro.staticcheck.flow.modules` parses every file into a
  :class:`ProjectIndex` — module symbol tables (functions by qualified
  name, classes with their base lists and dataclass fields, import
  alias maps);
- :mod:`~repro.staticcheck.flow.callgraph` resolves call sites against
  the index into a :class:`CallGraph` over ``repro.*`` functions;
- :mod:`~repro.staticcheck.flow.cfg` builds a per-function control-flow
  graph **with exception edges** and runs forward worklist dataflow
  over it;
- :mod:`~repro.staticcheck.flow.flowrules` implements the
  interprocedural rule families RPL101–RPL103 and RPL105 on top of
  all three;
- :mod:`~repro.staticcheck.flow.engine` is the ``repro check`` driver:
  index → call graph → rules → suppression filtering → report, with an
  optional on-disk cache of the parsed index keyed on a source hash.

The rule catalogue (see ``docs/LINT.md`` § Deep analysis):

========  ==============================================================
RPL101    seed-taint: an RNG may be constructed from a ``None`` seed
          reachable through call boundaries / dataclass fields
RPL102    await-atomicity: ``self.*`` state read before an ``await``
          and written after it without a re-read (asyncio race)
RPL103    ledger conservation: a distance-oracle cost must flow into
          exactly one ledger/perf sink on every CFG path
RPL105    worker protocol totality: the ``repro.serve.worker`` handler
          table must mirror the transport's frame-kind tables
========  ==============================================================
"""

from __future__ import annotations

from repro.staticcheck.flow.callgraph import CallGraph, build_call_graph
from repro.staticcheck.flow.cfg import CFG, build_cfg, forward_dataflow
from repro.staticcheck.flow.engine import FLOW_RULE_IDS, check_paths, check_sources, run_check
from repro.staticcheck.flow.flowrules import FLOW_CHECKERS, FLOW_RULE_SUMMARIES
from repro.staticcheck.flow.modules import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = [
    "CFG",
    "CallGraph",
    "FLOW_CHECKERS",
    "FLOW_RULE_IDS",
    "FLOW_RULE_SUMMARIES",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_call_graph",
    "build_cfg",
    "check_paths",
    "check_sources",
    "forward_dataflow",
    "run_check",
]
