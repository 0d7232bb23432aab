"""Self-lint: the analyzer's house rules applied to our own source.

A stdlib-``ast`` pass over every module in ``src/repro`` enforcing
three rules that have each caused real bugs in serving stacks, plus
five layering rules:

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
* **no naive executor in ``serving/`` or ``runtime/``** — runtime SQL
  runs through ``DBPal.execute`` (``DBPal.backend``, the planned
  session by default); :func:`repro.db.executor.execute` is the
  differential-test oracle only.
* **no ``PerfRecorder`` in ``serving/`` outside the registry** — each
  serving tier has one telemetry sink, its ``MetricsRegistry``, and
  stage timings reach it under the registry's one lock, folded from a
  request's ``RequestTrace`` or through ``record_stage``.  Only
  ``serving/metrics.py``, where the registry keeps its stage recorder,
  imports it.
* **no private name imported across packages** — an underscore name
  (``_results_match``) is private to its package (``repro.sql``,
  ``repro.db``, …); a module in another package imports only public
  names, so a private helper can change without breaking a caller it
  never knew about.  ``import … as _alias`` stays allowed: the alias is
  the importer's own name.
* **no module-level ``scipy`` or ``networkx`` imports** — together they
  would be most of ``import repro``'s resident memory.  Only
  ``WordEmbeddings.fit`` needs scipy, and it imports it inside the
  function; networkx is a test-only oracle.  Serving a question after
  a set-up on a single-table or a multi-table schema loads neither.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _findings(check, packages: tuple[str, ...] = ()) -> list[str]:
    """``check`` over every module, or only those under ``packages``."""
    findings = []
    for path in repro_modules():
        if packages and path.relative_to(SRC_ROOT).parts[0] not in packages:
            continue
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


def _imports_naive_executor(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.db.executor" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module == "repro.db.executor":
            return True
        return node.module == "repro.db" and any(
            alias.name in ("executor", "execute") for alias in node.names
        )
    return False


def test_no_naive_executor_on_runtime_paths():
    def check(node):
        if _imports_naive_executor(node):
            return "execute through DBPal.execute, not the naive executor"

    assert _findings(check, packages=("serving", "runtime")) == []


#: The one serving module that may hold a ``PerfRecorder``: the registry.
STAGE_SINK = "repro/serving/metrics.py"


def _imports_perf_recorder(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("repro.perf") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return any(
            alias.name in ("PerfRecorder", "instrumentation") for alias in node.names
        )
    return False


def test_serving_records_stages_only_through_the_registry():
    def check(node):
        if _imports_perf_recorder(node):
            return "record stage timings through the MetricsRegistry"

    findings = _findings(check, packages=("serving",))
    assert [f for f in findings if not f.startswith(f"{STAGE_SINK}:")] == []
    # The exemption must still name a module that does import it.
    assert any(f.startswith(f"{STAGE_SINK}:") for f in findings)


def _package_of(module: str) -> str:
    """``repro.sql.equivalence`` -> ``repro.sql``; top-level modules
    (``repro.errors``) are their own package."""
    return ".".join(module.split(".")[:2])


def _private_cross_package_imports(source: str, module: str) -> list[str]:
    """Underscore names ``module``'s source imports from another
    ``repro`` package (dunder names such as ``__version__`` are public)."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = node.module or ""
        if node.level:
            base = module.split(".")[: -node.level]
            target = ".".join(base + ([target] if target else []))
        if target.split(".")[0] != "repro":
            continue
        if _package_of(target) == _package_of(module):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                findings.append(f"{node.lineno}: {target}.{name}")
    return findings


def _module_name(path: Path) -> str:
    # A package's ``__init__`` keeps its name part, so that a relative
    # import's first level strips it and lands on the package.
    return ".".join(path.relative_to(SRC_ROOT.parent).with_suffix("").parts)


def test_no_private_imports_across_packages():
    findings = [
        f"{path.relative_to(SRC_ROOT.parent)}:{finding} — make it public "
        "or keep it in its package"
        for path in repro_modules()
        for finding in _private_cross_package_imports(
            path.read_text(encoding="utf-8"), _module_name(path)
        )
    ]
    assert findings == []


HEAVY_MODULES = ("scipy", "networkx")


def _heavy_import(node) -> str | None:
    """The heavy module ``node`` imports, if it is an import of one."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return None
    return next((n for n in names if n.split(".")[0] in HEAVY_MODULES), None)


def _import_time_statements(body):
    """Statements that run when the module is imported.

    Function bodies run later, and ``if TYPE_CHECKING:`` blocks never.
    """
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            yield from _import_time_statements(stmt.orelse)
            continue
        yield stmt
        for name in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(stmt, name, []))


def _heavy_module_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return [
        f"{stmt.lineno}: {module}"
        for stmt in _import_time_statements(tree.body)
        if (module := _heavy_import(stmt))
    ]


def test_no_module_level_heavy_imports():
    findings = [
        f"{path.relative_to(SRC_ROOT.parent)}:{finding} — import it where it is used"
        for path in repro_modules()
        for finding in _heavy_module_imports(path.read_text(encoding="utf-8"))
    ]
    assert findings == []


#: Loaded only by the sharded tier's asyncio front door, never by serving
#: a question in process.  Not in ``HEAVY_MODULES``: ``front_door.py``
#: imports asyncio at module level by design.
FRONT_DOOR_MODULES = ("asyncio", "ssl")


def test_serving_a_question_imports_neither_heavy_module():
    # flights has several tables, so its set-up runs the schema lint's
    # join-graph check (L404); patients has one table and skips it.
    script = """
import sys
from repro.core import GenerationConfig
from repro.db import populate
from repro.neural import RetrievalModel
from repro.runtime import DBPal
from repro.schema import load_schema
from repro.serving import TranslationService

for name, question in (
    ("patients", "show me the names of all patients with age 80"),
    ("flights", "how many flights are there"),
):
    nlidb = DBPal(populate(load_schema(name), rows_per_table=20, seed=3))
    nlidb.train(RetrievalModel(), config=GenerationConfig(size_slotfills=2), seed=0)
    with TranslationService(nlidb) as service:
        service.query(question)
print(sorted(m for m in MODULES if m in sys.modules))
"""
    modules = HEAVY_MODULES + FRONT_DOOR_MODULES
    result = subprocess.run(
        [sys.executable, "-c", f"MODULES = {modules!r}\n" + script],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC_ROOT.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


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

    @pytest.mark.parametrize(
        "source, bad",
        [
            ("import repro.db.executor\n", True),
            ("from repro.db.executor import execute\n", True),
            ("from repro.db import execute\n", True),
            ("from repro.db import executor\n", True),
            ("from repro.db import ExecutorSession, populate\n", False),
            ("from repro.db.planner import ExecutorSession\n", False),
        ],
    )
    def test_naive_executor_import_rule(self, source, bad):
        node = ast.parse(source).body[0]
        assert _imports_naive_executor(node) is bad

    @pytest.mark.parametrize(
        "source, bad",
        [
            ("from repro.perf.instrumentation import PerfRecorder\n", True),
            ("from repro.perf import PerfRecorder, StageTimer\n", True),
            ("from ..perf.instrumentation import PerfRecorder\n", True),
            ("from repro.perf import instrumentation\n", True),
            ("import repro.perf.instrumentation\n", True),
            ("from repro.serving.metrics import MetricsRegistry\n", False),
            ("import threading\n", False),
        ],
    )
    def test_perf_recorder_import_rule(self, source, bad):
        node = ast.parse(source).body[0]
        assert _imports_perf_recorder(node) is bad

    @pytest.mark.parametrize(
        "source, module, bad",
        [
            ("from repro.sql.equivalence import _results_match\n", "repro.analysis.x", True),
            ("from repro.sql import ast, _private\n", "repro.analysis.x", True),
            ("from repro.errors import _code\n", "repro.cli", True),
            ("from ..sql.edits import _map_query\n", "repro.runtime.postprocess", True),
            ("def f():\n    from repro.db import _helper\n", "repro.sql.x", True),
            ("from repro.db.executor import _star_label\n", "repro.db.vectorized", False),
            ("from .executor import _star_label\n", "repro.db.vectorized", False),
            ("from .planner import _cost\n", "repro.db.__init__", False),
            ("from ..sql import _helper\n", "repro.db.__init__", True),
            ("from repro.sql.edits import map_placeholders\n", "repro.analysis.x", False),
            ("import repro.sql.ast as _ast\n", "repro.analysis.x", False),
            ("from repro.sql import ast as _ast\n", "repro.analysis.x", False),
            ("from repro import __version__\n", "repro.cli", False),
            ("from numpy import _globals\n", "repro.db.vectorized", False),
        ],
    )
    def test_private_import_rule(self, source, module, bad):
        assert bool(_private_cross_package_imports(source, module)) is bad

    @pytest.mark.parametrize(
        "source, bad",
        [
            ("import scipy.sparse as sp\n", True),
            ("from scipy.sparse.linalg import svds\n", True),
            ("import networkx as nx\n", True),
            ("try:\n    import networkx\nexcept ImportError:\n    pass\n", True),
            ("class C:\n    import networkx\n", True),
            ("def f():\n    import networkx as nx\n", False),
            ("if TYPE_CHECKING:\n    import networkx as nx\n", False),
            ("import numpy as np\n", False),
            ("from .networkx import shim\n", False),
        ],
    )
    def test_heavy_import_rule(self, source, bad):
        assert bool(_heavy_module_imports(source)) is bad

    def test_wall_clock_rule(self):
        tree = ast.parse("import time\nt = time.time()\n")
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert calls[0].func.attr == "time"
