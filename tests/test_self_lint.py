"""Self-lint: the analyzer's house rules applied to our own source.

A stdlib-``ast`` pass over every module in ``src/repro`` enforcing
three rules that have each caused real bugs in serving stacks, six
layering rules, one rule on code compiled at run time, one on
starting processes, and one on imports:

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
* **no ``exec``/``eval``/``compile`` outside the row builder** — code
  made at run time is code no reader reviewed.  The one exemption is
  ``_row_builder`` in ``repro/db/storage.py``, which compiles a row
  constructor whose source comes from an arity alone; labels reach it
  only as arguments.
* **no ``Process(`` or ``Pipe(`` outside the lifecycle module** — a
  worker process needs its pipe's child end closed in the parent, a
  check in the child that its parent still lives, and a kill-and-join
  on teardown; ``repro/core/workers.py`` does all three for synthesis
  and serving, and a hand-rolled copy that skips the parent check
  leaves orphans holding a model when the parent is killed.  The rule
  matches the call by its name, so ``multiprocessing.Process(...)`` and
  ``mp.get_context().Pipe()`` are both caught.
* **no ``except ImportError``** — every dependency the package imports
  is declared, and none is optional, so a fallback for a missing module
  is a branch that cannot run and that no test reaches.  A declared
  dependency is imported plainly.
* **``repro.sql`` imports only ``repro.sql``, ``repro.errors`` and
  ``repro.schema``** — the SQL layer sits under the engine
  (``repro.db`` imports it), so a ``repro.sql`` module that reached into
  ``repro.db``, ``repro.perf`` or any higher layer would need a lazy
  import to dodge the cycle.  Function-level and ``TYPE_CHECKING``
  imports count too: a lazy import is still a dependency.
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


IMPORT_ERRORS = ("ImportError", "ModuleNotFoundError")


def _catches_import_error(node) -> bool:
    """Whether ``node`` is an ``except`` clause naming an import error,
    alone or in a tuple, bare or as ``builtins.<name>``."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(
        (t.id if isinstance(t, ast.Name) else getattr(t, "attr", None))
        in IMPORT_ERRORS
        for t in types
    )


def test_no_import_fallbacks():
    def check(node):
        if _catches_import_error(node):
            return "`except ImportError` — import a declared dependency plainly"

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
    """``repro.sql.canonical`` -> ``repro.sql``; top-level modules
    (``repro.errors``) are their own package."""
    return ".".join(module.split(".")[:2])


def _import_from_target(node: ast.ImportFrom, module: str) -> str:
    """The absolute module a ``from … import`` in ``module`` reads from."""
    target = node.module or ""
    if node.level:
        base = module.split(".")[: -node.level]
        target = ".".join(base + ([target] if target else []))
    return target


def _private_cross_package_imports(source: str, module: str) -> list[str]:
    """Underscore names ``module``'s source imports from another
    ``repro`` package (dunder names such as ``__version__`` are public)."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = _import_from_target(node, module)
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


#: The ``repro`` packages a ``repro.sql`` module may import from.
SQL_LAYER_DEPENDENCIES = ("repro.sql", "repro.errors", "repro.schema")


def _sql_layer_violations(source: str, module: str) -> list[str]:
    """``repro`` modules outside :data:`SQL_LAYER_DEPENDENCIES` that
    ``module``'s source imports anywhere: at module level, inside a
    function or under ``TYPE_CHECKING``."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            target = _import_from_target(node, module)
            # ``from repro import db`` names a package, not a symbol.
            targets = (
                [f"repro.{alias.name}" for alias in node.names]
                if target == "repro"
                else [target]
            )
        else:
            continue
        for target in targets:
            if target.split(".")[0] != "repro":
                continue
            if not any(
                target == allowed or target.startswith(allowed + ".")
                for allowed in SQL_LAYER_DEPENDENCIES
            ):
                findings.append(f"{node.lineno}: {target}")
    return findings


def test_sql_layer_imports_only_sql_errors_and_schema():
    findings = [
        f"{path.relative_to(SRC_ROOT.parent)}:{finding} — repro.sql may "
        "import only repro.sql, repro.errors and repro.schema"
        for path in repro_modules()
        if path.relative_to(SRC_ROOT).parts[0] == "sql"
        for finding in _sql_layer_violations(
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


DYNAMIC_CODE_BUILTINS = ("exec", "eval", "compile")

#: The one function that may compile code at run time.
DYNAMIC_CODE_HOME = ("repro/db/storage.py", "_row_builder")


def _dynamic_code_calls(source: str) -> list[tuple[int, str, str]]:
    """``(line, enclosing function, builtin)`` for every call of
    ``exec``, ``eval`` or ``compile``, bare or as ``builtins.<name>``.
    A method such as ``re.compile`` is not the builtin."""
    calls = []

    def visit(node, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            ):
                name = func.attr
            if name in DYNAMIC_CODE_BUILTINS:
                calls.append((node.lineno, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return calls


def test_code_is_compiled_at_run_time_only_by_the_row_builder():
    home, builder = DYNAMIC_CODE_HOME
    allowed, findings = [], []
    for path in repro_modules():
        module = path.relative_to(SRC_ROOT.parent).as_posix()
        for line, function, name in _dynamic_code_calls(
            path.read_text(encoding="utf-8")
        ):
            if (module, function) == (home, builder):
                allowed.append(name)
            else:
                where = function or "<module>"
                findings.append(f"{module}:{line}: {name}() in `{where}`")
    assert findings == []
    # The exemption must still name a function that does compile code.
    assert allowed


PROCESS_CONSTRUCTORS = ("Process", "Pipe")

#: The one module that may start worker processes and their pipes.
PROCESS_HOME = "repro/core/workers.py"


def _process_constructor(node) -> str | None:
    """``Process``/``Pipe`` if ``node`` calls one, bare or as an attribute
    of any object (the ``multiprocessing`` module or a context)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name if name in PROCESS_CONSTRUCTORS else None


def test_processes_are_started_only_by_the_lifecycle_module():
    def check(node):
        if name := _process_constructor(node):
            return f"{name}() — start workers through repro.core.workers.spawn"

    findings = _findings(check)
    assert [f for f in findings if not f.startswith(f"{PROCESS_HOME}:")] == []
    # The exemption must still name a module that does start processes.
    assert any(f.startswith(f"{PROCESS_HOME}:") for f in findings)


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

    @pytest.mark.parametrize(
        "source, bad",
        [
            ("try:\n    import numpy as np\nexcept ImportError:\n    np = None\n", True),
            ("try:\n    import x\nexcept ModuleNotFoundError:\n    pass\n", True),
            ("try:\n    import x\nexcept (ValueError, ImportError):\n    pass\n", True),
            ("try:\n    import x\nexcept builtins.ImportError:\n    pass\n", True),
            ("try:\n    f()\nexcept ValueError:\n    pass\n", False),
            ("try:\n    f()\nexcept Exception:\n    pass\n", False),
            ("try:\n    f()\nexcept:\n    pass\n", False),
        ],
    )
    def test_import_fallback_rule(self, source, bad):
        nodes = ast.walk(ast.parse(source))
        assert any(_catches_import_error(n) for n in nodes) is bad

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
        "source, module, bad",
        [
            ("from repro.db.planner import ExecutorSession\n", "repro.sql.x", True),
            ("def f():\n    from repro.db.storage import Database\n", "repro.sql.x", True),
            (
                "if TYPE_CHECKING:\n    from repro.perf.instrumentation import PerfRecorder\n",
                "repro.sql.x",
                True,
            ),
            ("import repro.db.planner\n", "repro.sql.x", True),
            ("from repro import db\n", "repro.sql.x", True),
            ("from ..db import populate\n", "repro.sql.x", True),
            ("from repro.sql.ast import Query\n", "repro.sql.x", False),
            ("from .canonical import normalize\n", "repro.sql.x", False),
            ("from repro.errors import SqlError\n", "repro.sql.x", False),
            ("from repro.schema.schema import Schema\n", "repro.sql.x", False),
            ("from repro import errors\n", "repro.sql.x", False),
            ("import re\nfrom typing import TYPE_CHECKING\n", "repro.sql.x", False),
            ("from repro.sqlite import x\n", "repro.sql.x", True),
        ],
    )
    def test_sql_layer_rule(self, source, module, bad):
        assert bool(_sql_layer_violations(source, module)) is bad

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

    @pytest.mark.parametrize(
        "source, found",
        [
            ("exec('x = 1')\n", [(1, "", "exec")]),
            ("def f():\n    return eval('1')\n", [(2, "f", "eval")]),
            (
                "def _row_builder(n):\n    exec(compile(s, 'f', 'exec'), ns)\n",
                [(2, "_row_builder", "exec"), (2, "_row_builder", "compile")],
            ),
            ("import builtins\nbuiltins.exec('x')\n", [(2, "", "exec")]),
            (
                "class C:\n    def m(self):\n        async def g():\n"
                "            compile('1', 'f', 'eval')\n",
                [(4, "g", "compile")],
            ),
            ("import re\nPATTERN = re.compile('x')\n", []),
            ("def f(ns):\n    return ns.exec('x')\n", []),
        ],
    )
    def test_dynamic_code_rule(self, source, found):
        assert _dynamic_code_calls(source) == found

    @pytest.mark.parametrize(
        "source, found",
        [
            ("import multiprocessing\nmultiprocessing.Process(target=f)\n", "Process"),
            ("from multiprocessing import Pipe\nPipe()\n", "Pipe"),
            ("import multiprocessing as mp\nmp.get_context().Pipe(duplex=True)\n", "Pipe"),
            ("ctx = mp.get_context('fork')\nctx.Process(target=f, daemon=True)\n", "Process"),
            ("from repro.core.workers import spawn\nspawn(f, name='w')\n", None),
            ("import multiprocessing\nkind = multiprocessing.Process\n", None),
        ],
    )
    def test_process_constructor_rule(self, source, found):
        names = [_process_constructor(n) for n in ast.walk(ast.parse(source))]
        assert next(filter(None, names), None) == found

    def test_wall_clock_rule(self):
        tree = ast.parse("import time\nt = time.time()\n")
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert calls[0].func.attr == "time"
