"""Self-lint: the analyzer's house rules applied to our own source.

A stdlib-``ast`` pass over every module in ``src/repro`` enforcing
three rules that have each caused real bugs in serving stacks, plus one
layering rule:

* **no bare ``except:``** — swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch ``Exception`` (with a justification comment)
  at minimum.
* **no mutable default arguments** — a ``def f(x=[])`` default is
  shared across calls; use ``None`` + fill-in.
* **no ``time.time()``** — budget/deadline arithmetic must use
  ``time.monotonic()``; wall-clock time jumps under NTP and breaks
  TTL/timeout math.  The rule is enforced repo-wide: modules that
  legitimately need wall-clock timestamps don't exist here, so any
  appearance is a defect.
* **no ``repro.sql.normalize`` imports** — that module only re-exports
  :mod:`repro.sql.canonical` for the serving benchmark; library code
  imports the canonicalizer directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def repro_modules() -> list[Path]:
    return sorted(SRC_ROOT.rglob("*.py"))


def test_source_tree_is_substantial():
    # Guard against the walker silently scanning the wrong directory.
    assert len(repro_modules()) > 40


def _findings(check) -> list[str]:
    findings = []
    for path in repro_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            message = check(node)
            if message:
                findings.append(
                    f"{path.relative_to(SRC_ROOT.parent)}:{node.lineno}: {message}"
                )
    return findings


def test_no_bare_except():
    def check(node):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            return "bare `except:` — name the exception class"

    assert _findings(check) == []


def test_no_mutable_default_arguments():
    def check(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, MUTABLE_NODES):
                return (
                    f"mutable default argument in `{node.name}` — "
                    "use None and fill in"
                )

    assert _findings(check) == []


def test_no_wall_clock_time():
    def check(node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "time"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            return "time.time() — use time.monotonic() for budgets/deadlines"
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "time"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and isinstance(getattr(node, "ctx", None), ast.Load)
        ):
            # Also catch `clock=time.time` style injection defaults.
            return "time.time reference — use time.monotonic"

    assert _findings(check) == []


def _imports_normalize_module(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.sql.normalize" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module == "repro.sql.normalize":
            return True
        # ``from repro.sql import normalize`` names the function when the
        # package exports it, but the rule keeps the spelling unambiguous.
        return node.module == "repro.sql" and any(
            alias.name == "normalize" for alias in node.names
        )
    return False


def test_no_normalize_module_imports():
    def check(node):
        if _imports_normalize_module(node):
            return "import from repro.sql.canonical, not repro.sql.normalize"

    assert _findings(check) == []


class TestLintRulesDetect:
    """The rules themselves must catch seeded defects (meta-mutation)."""

    @pytest.mark.parametrize(
        "source, attr, bad",
        [
            ("try:\n    pass\nexcept:\n    pass\n", "type", True),
            ("try:\n    pass\nexcept ValueError:\n    pass\n", "type", False),
        ],
    )
    def test_bare_except_rule(self, source, attr, bad):
        handlers = [
            n
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ExceptHandler)
        ]
        assert (handlers[0].type is None) is bad

    def test_mutable_default_rule(self):
        tree = ast.parse("def f(x=[]):\n    pass\n")
        func = tree.body[0]
        assert any(isinstance(d, MUTABLE_NODES) for d in func.args.defaults)

    @pytest.mark.parametrize(
        "source, bad",
        [
            ("import repro.sql.normalize\n", True),
            ("from repro.sql.normalize import canonical_sql\n", True),
            ("from repro.sql import normalize\n", True),
            ("from repro.sql.canonical import normalize\n", False),
            ("from repro.sql import canonical_sql\n", False),
        ],
    )
    def test_normalize_import_rule(self, source, bad):
        node = ast.parse(source).body[0]
        assert _imports_normalize_module(node) is bad

    def test_wall_clock_rule(self):
        tree = ast.parse("import time\nt = time.time()\n")
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert calls[0].func.attr == "time"
