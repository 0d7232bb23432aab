"""The adapter protocol itself: lifecycle, sources, normalization, and
the seam that consumes adapters (DBPal).
"""

from __future__ import annotations

import pytest

from repro.adapters import (
    BackendAdapter,
    MemoryAdapter,
    SqliteAdapter,
    normalize_rows,
)
from repro.db import Database
from repro.db.planner import ExecutorSession
from repro.errors import E_DIALECT, BackendError, DialectError
from repro.schema import load_schema
from repro.sql.parser import parse

pytestmark = pytest.mark.adapters


# ----------------------------------------------------------------------
# Lifecycle and sources
# ----------------------------------------------------------------------


def test_adapters_are_context_managers(patients_db):
    with SqliteAdapter.from_database(patients_db) as adapter:
        assert isinstance(adapter, BackendAdapter)
        assert adapter.execute(parse("SELECT COUNT(*) FROM patients"))
        # A query outside the sqlite emitter's subset is refused before
        # it reaches the engine, with a stable code.
        with pytest.raises(DialectError) as refused:
            adapter.execute(
                parse(
                    "SELECT DISTINCT name FROM patients WHERE age > "
                    "(SELECT DISTINCT age FROM patients ORDER BY age LIMIT 1)"
                )
            )
        assert refused.value.code == E_DIALECT
    adapter.close()  # idempotent after __exit__


def test_memory_adapter_rejects_wrong_source():
    with pytest.raises(BackendError, match="MemoryAdapter needs"):
        MemoryAdapter(42)


def test_memory_adapter_shares_session_caches(patients_db):
    session = ExecutorSession(patients_db)
    adapter = MemoryAdapter(session)
    query = parse("SELECT name FROM patients WHERE age > 40")
    adapter.execute(query)
    adapter.execute(query)
    assert session.cache_hits >= 1


def test_memory_load_requires_matching_schema(patients_db, geography_db):
    adapter = MemoryAdapter(Database(load_schema("patients")))
    with pytest.raises(BackendError, match="cannot load"):
        adapter.load(geography_db)
    adapter.load(patients_db)
    assert adapter.execute(parse("SELECT COUNT(*) FROM patients")) == [
        {"COUNT(*)": 30}
    ]


# ----------------------------------------------------------------------
# Row normalization
# ----------------------------------------------------------------------


def test_normalize_rows_canonicalizes_floats_only():
    rows = normalize_rows(
        [{"a": 0.1 + 0.2, "b": 3, "c": "x", "d": None}]
    )
    assert rows == [{"a": 0.3, "b": 3, "c": "x", "d": None}]
    assert isinstance(rows[0]["b"], int)


def test_normalize_rows_preserves_order():
    rows = normalize_rows([{"z": 1, "a": 2}])
    assert list(rows[0]) == ["z", "a"]


# ----------------------------------------------------------------------
# DBPal facade threading
# ----------------------------------------------------------------------


def test_dbpal_backend_by_name_matches_default(retrieval_nlidb, patients_db):
    from repro.runtime import DBPal

    question = "show the name of all patients"
    baseline = retrieval_nlidb.query(question, max_rows=5)
    for backend in ("memory", "sqlite"):
        nlidb = DBPal(patients_db, retrieval_nlidb.model, backend=backend)
        assert nlidb.query(question, max_rows=5) == normalize_rows(baseline)


def test_dbpal_accepts_adapter_instance(retrieval_nlidb, patients_db):
    from repro.runtime import DBPal

    with SqliteAdapter.from_database(patients_db) as adapter:
        nlidb = DBPal(patients_db, retrieval_nlidb.model, backend=adapter)
        assert nlidb.backend is adapter
        assert nlidb.query("how many patients are there")


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_unresolved_placeholder_is_named_by_every_backend(patients_db, backend):
    from repro.errors import ReproError
    from repro.runtime import DBPal

    nlidb = DBPal(patients_db, backend=backend)
    query = parse("SELECT name FROM patients WHERE age = @AGE")
    with pytest.raises(ReproError, match="unresolved placeholder @AGE"):
        nlidb.execute(query)


def test_dbpal_rejects_unknown_backend(patients_db):
    from repro.runtime import DBPal

    with pytest.raises(BackendError, match="unknown backend"):
        DBPal(patients_db, backend="oracle")
