"""Exception hierarchy and error-code taxonomy for the DBPal reproduction.

Every error raised by this package derives from :class:`ReproError` so
that callers can catch the whole family with a single ``except`` clause
while still being able to discriminate by subsystem.

Machine-readable failures additionally carry a **stable error code**
from the :data:`ERROR_CODES` taxonomy (``E_SHARD_TIMEOUT``,
``E_CORPUS_CORRUPT``, ...).  Codes — not exception class names or
message strings — are the contract for anything that persists or
transmits failures: synthesis quarantine reports, corpus manifests, and
the serving layer's ``ServingResponse.failure`` all draw from this one
table, so a dashboard (or a test) can match on ``code`` regardless of
which subsystem produced the failure.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Stable error codes (the cross-subsystem failure taxonomy)
# ----------------------------------------------------------------------

#: Synthesis fault tolerance ------------------------------------------
E_SHARD_TIMEOUT = "E_SHARD_TIMEOUT"
E_SHARD_CRASH = "E_SHARD_CRASH"
E_WORKER_DIED = "E_WORKER_DIED"
E_CORPUS_CORRUPT = "E_CORPUS_CORRUPT"
E_MANIFEST_MISMATCH = "E_MANIFEST_MISMATCH"
E_INTERRUPTED = "E_INTERRUPTED"
E_FAULT_INJECTED = "E_FAULT_INJECTED"

#: Static analysis ----------------------------------------------------
E_LINT = "E_LINT"

#: Serving ------------------------------------------------------------
E_RATE_LIMITED = "E_RATE_LIMITED"
E_QUEUE_FULL = "E_QUEUE_FULL"
E_TIMEOUT = "E_TIMEOUT"
E_MODEL_UNAVAILABLE = "E_MODEL_UNAVAILABLE"
E_UNTRANSLATABLE = "E_UNTRANSLATABLE"

#: SQL subset ---------------------------------------------------------
E_SQL_PARSE = "E_SQL_PARSE"

#: Backend adapters ---------------------------------------------------
E_BACKEND = "E_BACKEND"
E_DIALECT = "E_DIALECT"

#: Serving-tier repair loop (see :mod:`repro.serving.repair`) ----------
E_REPAIR_BUDGET = "E_REPAIR_BUDGET"
E_REPAIR_UNFIXABLE = "E_REPAIR_UNFIXABLE"
E_REPAIR_OSCILLATION = "E_REPAIR_OSCILLATION"
E_REPAIR_EXEC = "E_REPAIR_EXEC"

#: code -> human description.  The single registry; every code used in
#: a quarantine report, manifest, or ServingResponse appears here.
ERROR_CODES: dict[str, str] = {
    E_SHARD_TIMEOUT: "synthesis shard exceeded its wall-clock budget",
    E_SHARD_CRASH: "synthesis shard raised an exception",
    E_WORKER_DIED: "synthesis worker process died mid-shard",
    E_CORPUS_CORRUPT: "corpus file disagrees with its manifest",
    E_MANIFEST_MISMATCH: "manifest was written by an incompatible run",
    E_INTERRUPTED: "run interrupted; resumable from checkpoint",
    E_FAULT_INJECTED: "failure injected by the fault harness",
    E_LINT: "static analysis reported lint errors (see repro.analysis)",
    E_RATE_LIMITED: "admission rate exceeded",
    E_QUEUE_FULL: "admission queue is full",
    E_TIMEOUT: "no answer within the request deadline",
    E_MODEL_UNAVAILABLE: "translation model unavailable or degraded",
    E_UNTRANSLATABLE: "input cannot be translated",
    E_SQL_PARSE: "SQL text is outside the supported subset",
    E_BACKEND: "backend adapter failed to connect, execute, or introspect",
    E_DIALECT: "construct is not expressible in the target SQL dialect",
    E_REPAIR_BUDGET: "repair budget exhausted before a verified candidate",
    E_REPAIR_UNFIXABLE: "no repair strategy applies to the diagnostics",
    E_REPAIR_OSCILLATION: "repair loop revisited a candidate it already tried",
    E_REPAIR_EXEC: "repaired candidate failed execution verification",
}

#: Serving wire codes (``ServiceFailure.code``, kept short for the API
#: surface) -> canonical taxonomy code.
_SERVING_WIRE_CODES = {
    "rate_limited": E_RATE_LIMITED,
    "queue_full": E_QUEUE_FULL,
    "timeout": E_TIMEOUT,
    "model_unavailable": E_MODEL_UNAVAILABLE,
    "untranslatable": E_UNTRANSLATABLE,
    "backend_error": E_BACKEND,
    "worker_died": E_WORKER_DIED,
    "unsupported_dialect": E_DIALECT,
}


def canonical_code(code: str) -> str:
    """Map any failure code (wire or canonical) to its ``E_*`` form.

    Unknown codes pass through unchanged so forward-compatible callers
    never crash on a code minted after they shipped.
    """
    if code in ERROR_CODES:
        return code
    return _SERVING_WIRE_CODES.get(code, code)


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``code`` is the taxonomy code (``E_*``) when the error has a stable
    machine-readable identity; ``None`` for purely programmatic errors.
    Subclasses may fix a class-level default, and any instance can
    override it via the ``code=`` keyword.
    """

    code: str | None = None

    def __init__(self, *args, code: str | None = None) -> None:
        super().__init__(*args)
        if code is not None:
            self.code = code


class SchemaError(ReproError):
    """Invalid schema definition or lookup of a missing schema element."""


class SqlError(ReproError):
    """Base class for SQL subsystem errors."""


class SqlLexError(SqlError):
    """The SQL lexer encountered a character it cannot tokenize."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SqlParseError(SqlError):
    """The SQL parser rejected the token stream."""

    code = E_SQL_PARSE


class ExecutionError(ReproError):
    """The in-memory executor could not evaluate a query."""


class TemplateError(ReproError):
    """A seed template is malformed or cannot be instantiated."""


class GenerationError(ReproError):
    """The training-data generator could not produce a corpus."""


class TranslationError(ReproError):
    """The runtime phase could not translate a natural-language query."""


class ModelError(ReproError):
    """A neural model was used incorrectly (e.g. predict before fit)."""


class BenchmarkError(ReproError):
    """A benchmark dataset could not be constructed or loaded."""


class ServingError(ReproError):
    """The query-serving layer was misconfigured or misused.

    Runtime trouble (model failures, overload, timeouts) is *not*
    reported through exceptions: the service degrades and returns a
    structured response instead (see :mod:`repro.serving.service`).
    """


class CorpusIntegrityError(GenerationError):
    """A corpus file does not match the manifest that describes it."""

    code = E_CORPUS_CORRUPT


class ManifestMismatchError(GenerationError):
    """``--resume`` against a manifest from an incompatible run.

    Raised when the stored run fingerprint (seed, config, schemas,
    templates, format) differs from the current invocation — resuming
    would silently splice two different corpora together.
    """

    code = E_MANIFEST_MISMATCH


class FaultInjected(ReproError):
    """Deliberate failure raised by :mod:`repro.core.faults`.

    Distinct from any organic error class so tests can assert that a
    quarantined shard failed for exactly the injected reason.
    """

    code = E_FAULT_INJECTED


class BackendError(ReproError):
    """A backend adapter failed to connect, execute, or bulk-load.

    Raised by :mod:`repro.adapters` implementations; the underlying
    driver exception (e.g. ``sqlite3.Error``) is chained as the cause so
    callers can still inspect engine-specific detail, while anything
    that persists the failure matches on :data:`E_BACKEND`.
    """

    code = E_BACKEND


class IntrospectionError(BackendError):
    """A live database could not be introspected into a valid Schema.

    Carries the introspection diagnostics (``L5xx`` codes from
    :mod:`repro.analysis.diagnostics`) that explain *why* — a backend
    must either produce a correct :class:`~repro.schema.Schema` or fail
    with named diagnostics, never return a silently wrong one.
    """

    def __init__(self, *args, diagnostics=(), code: str | None = None) -> None:
        super().__init__(*args, code=code)
        self.diagnostics = list(diagnostics)


class DialectError(SqlError):
    """A query uses a construct the target SQL dialect cannot express.

    Distinct from :class:`BackendError`: the adapter never reached the
    engine — the emitter refused first.
    """

    code = E_DIALECT


class GracefulExit(ReproError):
    """SIGTERM/SIGINT converted to an exception for orderly shutdown.

    The CLI installs a signal handler that raises this; long-running
    loops catch it, flush their checkpoints, and exit nonzero with a
    "resumable" message instead of a traceback.
    """

    code = E_INTERRUPTED
