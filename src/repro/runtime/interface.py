"""The end-to-end NLIDB facade (paper Figure 1).

:class:`DBPal` wires the full lifecycle of an NL query: pre-processing
(parameter handling + lemmatization) → neural translation →
post-processing (repairs + constant restoration) → execution against
the DBMS, returning tabular results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import GenerationConfig
from repro.core.pipeline import TrainingCorpus, TrainingPipeline
from repro.db.planner import ExecutorSession
from repro.db.storage import Database, Row
from repro.errors import BackendError, TranslationError
from repro.neural.base import TranslationModel
from repro.runtime.postprocess import PostProcessor, ProcessedQuery
from repro.runtime.preprocess import PreprocessedQuery, Preprocessor
from repro.sql.ast import Query


@dataclass
class TranslationResult:
    """Everything produced while translating one NL question."""

    nl: str
    model_input: str
    model_output: str | None
    sql: str | None
    query: Query | None
    bindings: list = field(default_factory=list)
    repaired: bool = False

    @property
    def ok(self) -> bool:
        return self.query is not None


class DBPal:
    """A natural-language interface over one database.

    Parameters
    ----------
    database:
        The target database (schema + sample rows).
    model:
        A fitted :class:`~repro.neural.base.TranslationModel`; if
        omitted, call :meth:`train` first.
    backend:
        Execution target for :meth:`execute`, always set after
        construction: ``None`` (default) resolves to :attr:`executor`,
        the planned in-memory session, whose rows are returned exactly;
        ``"memory"``/``"sqlite"`` select a :mod:`repro.adapters` backend
        by name (sqlite mirrors ``database`` into an in-process engine),
        and a :class:`~repro.adapters.BackendAdapter` instance is used
        as-is.  Adapter-backed results are normalized
        (:func:`repro.adapters.normalize_rows`: floats keep 12
        significant digits), which is why the default is the session
        itself rather than a ``MemoryAdapter`` over it.
    """

    def __init__(
        self,
        database: Database,
        model: TranslationModel | None = None,
        backend=None,
    ) -> None:
        self.database = database
        self.model = model
        self.preprocessor = Preprocessor(database)
        self.postprocessor = PostProcessor(database.schema)
        # Planned executor session: hash joins + pushdown, per-column
        # equality indexes (pre-screened by the parameter handler's
        # value index), and a bounded result cache for repeat queries.
        self.executor = ExecutorSession(
            database, value_index=self.preprocessor.value_index
        )
        self.backend = self._resolve_backend(backend)

    def _resolve_backend(self, backend):
        from repro.adapters import BackendAdapter, MemoryAdapter, SqliteAdapter

        if backend is None:
            return self.executor
        if isinstance(backend, BackendAdapter):
            return backend
        if backend == "memory":
            return MemoryAdapter(self.executor)
        if backend == "sqlite":
            return SqliteAdapter.from_database(self.database)
        raise BackendError(
            f"unknown backend {backend!r}; expected 'memory', 'sqlite', "
            "or a BackendAdapter instance"
        )

    # ------------------------------------------------------------------

    def train(
        self,
        model: TranslationModel,
        config: GenerationConfig | None = None,
        manual_pairs=(),
        seed: int = 0,
        **fit_kwargs,
    ) -> TrainingCorpus:
        """Train ``model`` with DBPal's pipeline on this database's schema."""
        pipeline = TrainingPipeline(self.database.schema, config=config, seed=seed)
        corpus = pipeline.train(model, manual_pairs=manual_pairs, **fit_kwargs)
        self.model = model
        return corpus

    # ------------------------------------------------------------------

    def translate(self, nl: str) -> TranslationResult:
        """Translate one NL question to SQL (without executing it)."""
        if self.model is None:
            raise TranslationError("no model: train or supply one first")
        pre: PreprocessedQuery = self.preprocessor.preprocess(nl)
        model_output = self.model.translate(pre.model_input)
        processed: ProcessedQuery | None = self.postprocessor.process(
            model_output, pre.bindings
        )
        return TranslationResult(
            nl=nl,
            model_input=pre.model_input,
            model_output=model_output,
            sql=processed.sql if processed else None,
            query=processed.query if processed else None,
            bindings=pre.bindings,
            repaired=processed.repaired if processed else False,
        )

    def execute(self, query: Query, max_rows: int | None = None) -> list[Row]:
        """Run ``query`` on :attr:`backend`: the one engine choice behind
        :meth:`query`, serving ``query()`` and serving repair."""
        return self.backend.execute(query, max_rows=max_rows)

    def query(self, nl: str, max_rows: int | None = None) -> list[Row]:
        """Translate, then :meth:`execute`; raises on untranslatable questions."""
        result = self.translate(nl)
        if not result.ok:
            raise TranslationError(
                f"could not translate {nl!r} (model output: {result.model_output!r})"
            )
        return self.execute(result.query, max_rows=max_rows)

    def explain(self, nl: str) -> str:
        """Human-readable trace of the translation pipeline for ``nl``."""
        result = self.translate(nl)
        lines = [
            f"NL question : {result.nl}",
            f"model input : {result.model_input}",
            f"model output: {result.model_output}",
            f"final SQL   : {result.sql}",
        ]
        if result.bindings:
            bound = ", ".join(
                f"@{b.placeholder}={b.value!r}" for b in result.bindings
            )
            lines.insert(2, f"bindings    : {bound}")
        if result.repaired:
            lines.append("(post-processor repaired the FROM clause)")
        return "\n".join(lines)
