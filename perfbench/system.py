"""Set-up of the system under test, and grading of its answers.

Set-up is what ``setup_s`` times: populate each schema's database,
build the :class:`~repro.runtime.DBPal` facade (which builds the value
index), run DBPal's synthesis and augmentation pipeline, fit a
:class:`~repro.neural.RetrievalModel` on the corpus, and start one
:class:`~repro.serving.TranslationService` per schema.

Grading runs between requests, outside every timed region.  Gold
rows come from the gold query with ``@JOIN`` expanded and the
question's own constants bound, executed on the reference executor
:func:`repro.db.executor.execute`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import GenerationConfig, TrainingPipeline
from repro.db import populate
from repro.db.executor import execute
from repro.errors import ReproError
from repro.neural import RetrievalModel
from repro.runtime import DBPal
from repro.runtime.postprocess import PostProcessor
from repro.schema import load_schema
from repro.serving import ServingConfig, TranslationService
from repro.sql.normalize import canonical_sql
from repro.sql.printer import to_sql

#: Database content is fixed per schema; only the question stream
#: depends on ``--seed``.
DB_SEED = 3
TRAIN_SEED = 42


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run."""

    rows_patients: int = 40
    rows_spider: int = 200
    size_slotfills: int = 6
    setups: int = 3  # set-ups per run; setup_s is their median

    def rows_for(self, schema_name: str) -> int:
        return self.rows_patients if schema_name == "patients" else self.rows_spider


SMOKE = Scale(rows_spider=30, size_slotfills=2, setups=1)


def databases(schema_names, scale: Scale) -> dict:
    """Populated databases, identical in content to the served ones."""
    return {
        name: populate(load_schema(name), scale.rows_for(name), seed=DB_SEED)
        for name in schema_names
    }


@dataclass
class System:
    """Everything one set-up built: a started service per schema."""

    services: dict[str, TranslationService]
    phases: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0

    def stop(self) -> None:
        for service in self.services.values():
            service.stop()


@contextmanager
def _timed_generate(phases: dict):
    """Time ``TrainingPipeline.generate`` (synthesis + augmentation)."""
    original = TrainingPipeline.generate

    def generate(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            phases["synthesis"] += time.perf_counter() - t0

    TrainingPipeline.generate = generate
    try:
        yield
    finally:
        TrainingPipeline.generate = original


def build_system(schema_names, scale: Scale) -> System:
    """One full set-up; ``System.seconds`` is its wall time."""
    phases = dict.fromkeys(("populate", "index", "synthesis", "fit"), 0.0)
    services = {}
    started = time.perf_counter()
    with _timed_generate(phases):
        for name in schema_names:
            t0 = time.perf_counter()
            database = populate(load_schema(name), scale.rows_for(name), seed=DB_SEED)
            t1 = time.perf_counter()
            nlidb = DBPal(database)
            phases["populate"] += t1 - t0
            phases["index"] += time.perf_counter() - t1
            model = RetrievalModel()
            fit = model.fit

            def timed_fit(*args, _fit=fit, **kwargs):
                t0 = time.perf_counter()
                try:
                    return _fit(*args, **kwargs)
                finally:
                    phases["fit"] += time.perf_counter() - t0

            model.fit = timed_fit
            nlidb.train(
                model,
                config=GenerationConfig(size_slotfills=scale.size_slotfills),
                seed=TRAIN_SEED,
            )
            del model.fit
            services[name] = TranslationService(nlidb, ServingConfig()).start()
    return System(services, phases, time.perf_counter() - started)


# ----------------------------------------------------------------------
# Grading
# ----------------------------------------------------------------------


def _norm_value(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def row_tuples(rows) -> list[tuple]:
    return [tuple(_norm_value(v) for v in row.values()) for row in rows]


def rows_equal(served: list[tuple], gold: list[tuple], ordered: bool) -> bool:
    if ordered:
        return served == gold
    return Counter(served) == Counter(gold)


class Grader:
    """Gold queries and reference rows, memoized by SQL text."""

    def __init__(self, databases_by_schema: dict) -> None:
        self._databases = databases_by_schema
        self._post = {
            name: PostProcessor(db.schema) for name, db in databases_by_schema.items()
        }
        self._gold: dict = {}
        self._rows: dict = {}

    def gold(self, request):
        """(gold query, canonical text) for one request."""
        key = (request.schema, request.item, request.bindings)
        if key not in self._gold:
            processed = self._post[request.schema].process(
                to_sql(request.gold), request.gold_bindings()
            )
            query = processed.query if processed is not None else None
            canonical = canonical_sql(query) if query is not None else None
            self._gold[key] = (query, canonical)
        return self._gold[key]

    def reference_rows(self, schema: str, query) -> list[tuple] | None:
        """Rows of ``query`` on the reference executor (None if it raises)."""
        key = (schema, to_sql(query))
        if key not in self._rows:
            try:
                self._rows[key] = row_tuples(execute(query, self._databases[schema]))
            except ReproError:
                self._rows[key] = None
        return self._rows[key]
