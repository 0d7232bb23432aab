"""Differential property tests: naive ≡ planned ≡ columnar execution.

The planner (:mod:`repro.db.planner`) claims bit-identical results —
row values *and* row order — to the naive cross-product executor on
every query both arms can run, and the vectorized columnar engine
(:mod:`repro.db.vectorized`) claims the same against the planned row
arm even when *forced* on tables below its row-count threshold.  This
suite checks those claims over:

* the **seed corpora** of two schemas (every distinct canonical query
  the training pipeline synthesizes, with ``@JOIN`` expanded through
  the post-processor and placeholders bound to constants that actually
  occur in the database), and
* **randomized databases**: every built-in schema populated at several
  seeds, probed with join/filter/aggregate queries derived from its
  foreign keys and columns.

Divergence rules: when naive execution raises ``ExecutionError`` the
planner may either raise too or succeed (it short-circuits predicates
the naive arm evaluates eagerly and survives cross products the naive
guard refuses); it must never crash with a non-Repro exception.
"""

from __future__ import annotations

import pytest

from repro.db import populate
from repro.db.executor import execute
from repro.db.planner import ExecutorSession, execute_planned
from repro.errors import ExecutionError, ReproError
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import SCHEMA_FACTORIES, load_schema
from repro.sql.canonical import canonical_sql
from repro.sql.parser import parse
from repro.sql.printer import to_sql


class _ConstantBinder:
    """Duck-typed resolver: placeholders → constants present in the DB."""

    def __init__(self, database):
        self._database = database

    def resolve(self, placeholder):
        schema = self._database.schema
        column = placeholder.column
        table = placeholder.table
        if table is None or table not in schema:
            candidates = schema.tables_with_column(column)
            if not candidates:
                return None
            table = candidates[0].name
        if column not in schema.table(table):
            return None
        values = [
            v
            for v in self._database.column_values(table, column)
            if v is not None
        ]
        return values[0] if values else None


def corpus_queries(corpus, database):
    """Distinct executable queries: @JOIN expanded, constants bound."""
    post = PostProcessor(database.schema)
    binder = _ConstantBinder(database)
    queries, seen = [], set()
    for pair in corpus.pairs:
        processed = post.process(to_sql(pair.sql))
        if processed is None:
            continue
        query = _transform_query(processed.query, binder)
        key = canonical_sql(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
    return queries


def assert_arms_agree(query, database, session=None, columnar_session=None):
    """Planned and forced-columnar output must equal naive output
    whenever naive succeeds; the arms must agree on errors otherwise."""
    try:
        expected = execute(query, database)
    except ExecutionError:
        # Naive refused (guard / eager predicate): the planner may
        # succeed, but any failure must stay inside the Repro
        # exception hierarchy — and the columnar arm must mirror the
        # planned arm exactly, success or error message alike.
        try:
            planned = execute_planned(query, database)
        except ReproError as exc:
            planned, planned_error = None, str(exc)
        else:
            planned_error = None
        try:
            columnar = execute_planned(query, database, columnar=True)
        except ReproError as exc:
            columnar, columnar_error = None, str(exc)
        else:
            columnar_error = None
        assert columnar == planned, canonical_sql(query)
        assert columnar_error == planned_error, canonical_sql(query)
        return False
    assert execute_planned(query, database) == expected, canonical_sql(query)
    assert (
        execute_planned(query, database, columnar=True) == expected
    ), canonical_sql(query)
    if session is not None:
        assert session.execute(query) == expected, canonical_sql(query)
    if columnar_session is not None:
        assert columnar_session.execute(query) == expected, canonical_sql(query)
    return True


# ----------------------------------------------------------------------
# Seed-corpus differentials
# ----------------------------------------------------------------------


def test_patients_corpus_differential(patients_corpus, patients_db):
    queries = corpus_queries(patients_corpus, patients_db)
    assert len(queries) > 50
    session = ExecutorSession(patients_db)
    columnar_session = ExecutorSession(patients_db, columnar=True)
    compared = sum(
        assert_arms_agree(query, patients_db, session, columnar_session)
        for query in queries
    )
    # The overwhelming majority of corpus queries must actually execute
    # on all arms — the differential is vacuous otherwise.
    assert compared >= len(queries) * 0.9
    # Forcing columnar on a 30-row database must actually vectorize
    # work, not silently fall back on every step.
    assert columnar_session.columnar_vectorized_steps > 0


def test_geography_corpus_differential(geography_corpus, geography_db):
    queries = corpus_queries(geography_corpus, geography_db)
    assert len(queries) > 50
    session = ExecutorSession(geography_db)
    columnar_session = ExecutorSession(geography_db, columnar=True)
    compared = sum(
        assert_arms_agree(query, geography_db, session, columnar_session)
        for query in queries
    )
    assert compared >= len(queries) * 0.9
    assert columnar_session.columnar_vectorized_steps > 0


def test_geography_corpus_has_real_joins(geography_corpus, geography_db):
    queries = corpus_queries(geography_corpus, geography_db)
    joins = [q for q in queries if len(q.from_tables) > 1]
    assert joins, "corpus differential never exercised a join"


# ----------------------------------------------------------------------
# Randomized schemas and databases
# ----------------------------------------------------------------------


def schema_probe_queries(database):
    """Join/filter/aggregate probes derived from the schema itself."""
    schema = database.schema
    queries = []
    for table in schema.tables:
        first = table.column_names[0]
        numeric = next((c.name for c in table.columns if c.is_numeric), None)
        queries.append(parse(f"SELECT * FROM {table.name}"))
        values = [
            v for v in database.column_values(table.name, first) if v is not None
        ]
        if values:
            constant = values[len(values) // 2]
            rendered = f"'{constant}'" if isinstance(constant, str) else constant
            queries.append(
                parse(
                    f"SELECT {first} FROM {table.name} WHERE {first} = {rendered}"
                )
            )
        if numeric:
            queries.append(
                parse(f"SELECT COUNT(*) FROM {table.name} WHERE {numeric} > 0")
            )
            queries.append(
                parse(
                    f"SELECT {first}, {numeric} FROM {table.name} "
                    f"ORDER BY {numeric} DESC, {first} LIMIT 7"
                )
            )
    for fk in schema.foreign_keys:
        join = (
            f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
        )
        left_col = f"{fk.table}.{schema.table(fk.table).column_names[0]}"
        right_col = (
            f"{fk.ref_table}.{schema.table(fk.ref_table).column_names[0]}"
        )
        queries.append(
            parse(
                f"SELECT {left_col}, {right_col} "
                f"FROM {fk.table}, {fk.ref_table} WHERE {join}"
            )
        )
        queries.append(
            parse(
                f"SELECT {right_col}, COUNT(*) "
                f"FROM {fk.table}, {fk.ref_table} WHERE {join} "
                f"GROUP BY {right_col} ORDER BY {right_col}"
            )
        )
    return queries


@pytest.mark.parametrize("schema_name", sorted(SCHEMA_FACTORIES))
@pytest.mark.parametrize("seed", [0, 17])
def test_randomized_database_differential(schema_name, seed):
    database = populate(load_schema(schema_name), rows_per_table=25, seed=seed)
    session = ExecutorSession(database)
    columnar_session = ExecutorSession(database, columnar=True)
    for query in schema_probe_queries(database):
        assert_arms_agree(query, database, session, columnar_session)
