"""The project must pass its own linter *and* checker — and honestly.

Clean via suppression is not clean: the oracle-batching (RPL001) and
determinism (RPL002) invariants must hold with zero directives in
``src/``, so a regression cannot be waved through. The same bar applies
to the interprocedural families — the await-atomicity (RPL102) and
ledger-conservation (RPL103) findings fixed in PR 7 must stay fixed,
not suppressed.
"""

import io
import json
import re
from pathlib import Path

from repro.staticcheck import lint_paths, run
from repro.staticcheck.flow import check_paths, run_check

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_is_lint_clean():
    assert lint_paths([SRC]) == []


def test_run_reports_clean_text_and_json():
    out = io.StringIO()
    assert run([SRC], fmt="text", stream=out) == 0
    assert "all checks passed" in out.getvalue()

    out = io.StringIO()
    assert run([SRC], fmt="json", stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload == {"diagnostics": [], "count": 0}


def test_no_rpl001_or_rpl002_suppressions_in_src():
    directive = re.compile(r"repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "staticcheck" in path.parts:
            continue  # the linter's own sources document the syntax
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            m = directive.search(line)
            if m and {"RPL001", "RPL002"} & {r.strip() for r in m.group(1).split(",")}:
                offenders.append(f"{path}:{lineno}")
    assert offenders == []


def test_src_is_check_clean():
    assert check_paths([SRC]) == []


def test_run_check_reports_clean_and_deterministically():
    out1, out2 = io.StringIO(), io.StringIO()
    assert run_check([SRC], fmt="json", stream=out1) == 0
    assert run_check([SRC], fmt="json", stream=out2) == 0
    assert out1.getvalue() == out2.getvalue()
    assert json.loads(out1.getvalue()) == {"diagnostics": [], "count": 0}


def test_no_flow_rule_suppressions_in_src():
    """RPL101–RPL103 and RPL105 must hold organically, with zero directives."""
    directive = re.compile(r"repro-lint:\s*disable=([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "staticcheck" in path.parts:
            continue  # the checker's own sources document the syntax
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            m = directive.search(line)
            if m and any(
                r.strip().startswith("RPL1") for r in m.group(1).split(",")
            ):
                offenders.append(f"{path}:{lineno}")
    assert offenders == []
