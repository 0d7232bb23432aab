"""The in-memory backend: the reference engine behind the adapter protocol.

A thin wrapper giving :mod:`repro.db` (storage + planner/executor) the
same face as a real engine, so callers written against
:class:`~repro.adapters.base.BackendAdapter` run unchanged on either.
This is also the differential suite's ground-truth arm: its results
*define* correct normalized output for the other backends.
"""

from __future__ import annotations

from repro.adapters.base import BackendAdapter, Row, normalize_rows
from repro.db.planner import ExecutorSession
from repro.db.storage import Database
from repro.errors import BackendError
from repro.schema.schema import Schema
from repro.sql.ast import Query


class MemoryAdapter(BackendAdapter):
    """Adapter over the in-memory engine.

    Accepts a :class:`~repro.db.storage.Database` (``load`` adds rows
    to it) or an existing :class:`~repro.db.planner.ExecutorSession`
    (to share its caches).
    """

    def __init__(self, source: Database | ExecutorSession) -> None:
        if isinstance(source, ExecutorSession):
            self.session = source
            self.database = source.database
        elif isinstance(source, Database):
            self.database = source
            self.session = ExecutorSession(source)
        else:
            raise BackendError(
                f"MemoryAdapter needs a Database or an ExecutorSession, "
                f"not {type(source).__name__}"
            )

    # -- lifecycle -----------------------------------------------------

    def connect(self) -> "MemoryAdapter":
        return self

    def close(self) -> None:  # nothing to release
        return None

    # -- verbs ---------------------------------------------------------

    def execute(self, query: Query, max_rows: int | None = None) -> list[Row]:
        return normalize_rows(self.session.execute(query, max_rows=max_rows))

    def introspect(self) -> Schema:
        return self.database.schema

    def load(self, database: Database) -> None:
        """Copy every table of ``database`` into this adapter's store."""
        if database.schema.table_names != self.database.schema.table_names:
            raise BackendError(
                f"cannot load schema {database.schema.name!r} into a "
                f"{self.database.schema.name!r} backend"
            )
        for table in database.schema.table_names:
            self.database.insert_many(table, database.rows(table))

    @property
    def schema(self) -> Schema:
        return self.database.schema
