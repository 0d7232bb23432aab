"""Cross-backend differential suite: memory ≡ sqlite, bit-identically.

The adapter contract (:mod:`repro.adapters.base`) says two correct
backends return ``==``-comparable normalized rows — same values, same
labels, same order.  This suite holds the sqlite adapter to that
against the in-memory reference engine over:

* the **seed corpora** of two schemas (every distinct canonical query
  the training pipeline synthesizes, ``@JOIN`` expanded, placeholders
  bound to constants present in the database), and
* **randomized databases**: every built-in schema populated at several
  seeds, probed with the same join/filter/aggregate query generator
  the executor differential uses.

Divergence rules: when the reference engine raises, the sqlite arm
must fail inside the Repro exception hierarchy (``E_BACKEND`` /
``E_DIALECT`` / execution errors) — never a silently different result,
never a raw ``sqlite3`` exception.
"""

from __future__ import annotations

import pytest

from repro.adapters import MemoryAdapter, SqliteAdapter
from repro.db import populate
from repro.errors import ReproError
from repro.schema import SCHEMA_FACTORIES, load_schema
from repro.sql.canonical import canonical_sql
from tests.test_db_executor_diff import corpus_queries, schema_probe_queries

pytestmark = pytest.mark.adapters


@pytest.fixture(scope="module")
def patients_backends(patients_db):
    with SqliteAdapter.from_database(patients_db) as sqlite_arm:
        yield MemoryAdapter(patients_db), sqlite_arm


@pytest.fixture(scope="module")
def geography_backends(geography_db):
    with SqliteAdapter.from_database(geography_db) as sqlite_arm:
        yield MemoryAdapter(geography_db), sqlite_arm


def assert_backends_agree(query, memory, sqlite_arm) -> bool:
    """Sqlite output must be ``==`` to memory output whenever the
    reference succeeds; otherwise sqlite must stay inside ReproError.

    Returns whether the query was actually compared (both arms ran).
    """
    try:
        expected = memory.execute(query)
    except ReproError:
        with pytest.raises(ReproError):
            sqlite_arm.execute(query)
        return False
    try:
        actual = sqlite_arm.execute(query)
    except ReproError:
        # The sqlite emitter may refuse a query the reference engine
        # interprets (e.g. DISTINCT subqueries with LIMIT); a named
        # refusal is allowed, a wrong answer is not.
        return False
    assert actual == expected, canonical_sql(query)
    return True


# ----------------------------------------------------------------------
# Seed-corpus differentials
# ----------------------------------------------------------------------


def test_patients_corpus_cross_backend(patients_corpus, patients_db, patients_backends):
    memory, sqlite_arm = patients_backends
    queries = corpus_queries(patients_corpus, patients_db)
    assert len(queries) > 50
    compared = sum(
        assert_backends_agree(query, memory, sqlite_arm) for query in queries
    )
    # Nearly every corpus query must actually run on both arms — the
    # differential is vacuous otherwise.
    assert compared >= len(queries) * 0.9


def test_geography_corpus_cross_backend(
    geography_corpus, geography_db, geography_backends
):
    memory, sqlite_arm = geography_backends
    queries = corpus_queries(geography_corpus, geography_db)
    assert len(queries) > 50
    compared = sum(
        assert_backends_agree(query, memory, sqlite_arm) for query in queries
    )
    assert compared >= len(queries) * 0.9


def test_geography_cross_backend_exercises_joins(
    geography_corpus, geography_db, geography_backends
):
    memory, sqlite_arm = geography_backends
    joins = [
        q
        for q in corpus_queries(geography_corpus, geography_db)
        if len(q.from_tables) > 1
    ]
    assert joins, "corpus differential never exercised a join"
    compared = sum(
        assert_backends_agree(query, memory, sqlite_arm) for query in joins
    )
    assert compared > 0


# ----------------------------------------------------------------------
# Randomized schemas and databases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("schema_name", sorted(SCHEMA_FACTORIES))
@pytest.mark.parametrize("seed", [0, 17])
def test_randomized_database_cross_backend(schema_name, seed):
    database = populate(load_schema(schema_name), rows_per_table=25, seed=seed)
    memory = MemoryAdapter(database)
    with SqliteAdapter.from_database(database) as sqlite_arm:
        compared = 0
        for query in schema_probe_queries(database):
            compared += assert_backends_agree(query, memory, sqlite_arm)
        assert compared > 0
