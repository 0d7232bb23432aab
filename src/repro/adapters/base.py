"""The backend adapter protocol: what it means to be a DBPal backend.

DBPal's pluggability claim (paper §1) is that the pipeline only needs a
schema and an engine to execute against.  This module pins that claim
down as a small protocol — :class:`BackendAdapter` — so every layer
that used to assume the in-memory engine (:class:`repro.runtime.DBPal`,
the equivalence checker, corpus synthesis, the CLI) can run against
either backend: :class:`~repro.adapters.MemoryAdapter` or
:class:`~repro.adapters.SqliteAdapter`, which ``DBPal(backend=...)``
and ``repro db explain --backend`` call ``"memory"`` and ``"sqlite"``.

The contract:

* ``connect()`` / ``close()`` bracket the adapter's lifetime; adapters
  are context managers, and ``close()`` is idempotent.
* ``execute(query, max_rows=None)`` runs one AST query and returns
  *normalized* result rows: a list of dicts keyed by the reference
  executor's output labels, in the reference executor's deterministic
  output order, with floats canonicalized by :func:`normalize_rows`.
  Two correct backends therefore return ``==``-comparable values — the
  property the cross-backend differential suite enforces.
* ``introspect()`` reads the live database into a
  :class:`repro.schema.Schema` (synthesizing NL annotations), or raises
  :class:`~repro.errors.IntrospectionError` carrying ``L5xx``
  diagnostics.  It must never return a silently wrong schema.
* ``load(database)`` bulk-loads a populated in-memory
  :class:`~repro.db.storage.Database` (e.g. from
  :func:`repro.db.datagen.populate`), preserving insertion order.

Failures surface as :class:`~repro.errors.BackendError` (code
``E_BACKEND``) with the driver exception chained, or
:class:`~repro.errors.DialectError` (``E_DIALECT``) when the emitter
refused before reaching the engine.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

from repro.schema.schema import Schema
from repro.sql.ast import Query

Row = dict[str, Any]


class BackendAdapter(abc.ABC):
    """Abstract base for database backends (see module docstring)."""

    # -- lifecycle -----------------------------------------------------

    @abc.abstractmethod
    def connect(self) -> "BackendAdapter":
        """Open the underlying connection; returns ``self`` for chaining."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the connection.  Idempotent."""

    def __enter__(self) -> "BackendAdapter":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the three verbs -----------------------------------------------

    @abc.abstractmethod
    def execute(self, query: Query, max_rows: int | None = None) -> list[Row]:
        """Run ``query``; return normalized rows (see module docstring)."""

    @abc.abstractmethod
    def introspect(self) -> Schema:
        """Read the live database into a :class:`Schema`."""

    @abc.abstractmethod
    def load(self, database) -> None:
        """Bulk-load an in-memory :class:`~repro.db.storage.Database`."""

    # -- conveniences --------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this adapter executes against."""
        raise NotImplementedError


def normalize_rows(rows: list[Mapping[str, Any]]) -> list[Row]:
    """Canonicalize result rows for cross-backend comparison.

    Floats are rounded to 12 significant digits: aggregate accumulation
    order differs between engines (e.g. SUM over a join), so the last
    couple of ulps of a float are engine noise, not signal.  Everything
    else — ints, strings, None, and row/column order — passes through
    untouched, which is exactly what "bit-identical normalized results"
    quantifies over.
    """
    normalized: list[Row] = []
    for row in rows:
        record: Row = {}
        for label, value in row.items():
            if isinstance(value, float):
                value = float(f"{value:.12g}")
            record[label] = value
        normalized.append(record)
    return normalized

