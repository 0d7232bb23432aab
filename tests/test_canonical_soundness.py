"""The canonicalizer soundness gate (differential fuzz).

Hard contract from the canonicalization design: the canonicalizer must
**never merge queries that can produce different results**.  This gate
attacks that claim two ways:

1. **Randomized schemas** — every catalog schema is populated at fixed
   seeds; schema-derived probe queries are expanded with
   equivalence-preserving syntactic shuffles (conjunct/disjunct
   reversal, ``BETWEEN`` ↔ chained comparison, ``IN`` ↔ ``OR``-of-=,
   operand flips, GROUP BY reorder).  Every pair of queries that lands
   on one ``canonical_key`` is executed and must agree exactly.
2. **Seed corpora** — every executable query both training corpora
   synthesize, shuffled the same way, grouped by canonical key, and
   differentially executed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.equivalence import _ConstantBinder
from repro.db import populate
from repro.db.planner import execute_planned
from repro.errors import ReproError
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import SCHEMA_FACTORIES, load_schema
from repro.sql.ast import And, Between, Comparison, CompOp, InPredicate, Not, Or
from repro.sql.canonical import canonical_key
from repro.sql.parser import parse
from repro.sql.printer import to_sql

pytestmark = pytest.mark.canonical


# ----------------------------------------------------------------------
# Equivalence-preserving shuffles (each sound by SQL semantics; the
# canonicalizer claims to absorb every one of them).
# ----------------------------------------------------------------------


def _shuffle_predicate(pred):
    if isinstance(pred, And):
        return And(tuple(reversed([_shuffle_predicate(p) for p in pred.operands])))
    if isinstance(pred, Or):
        return Or(tuple(reversed([_shuffle_predicate(p) for p in pred.operands])))
    if isinstance(pred, Not):
        return Not(_shuffle_predicate(pred.operand))
    if isinstance(pred, Between):
        return And(
            (
                Comparison(pred.column, CompOp.GE, pred.low),
                Comparison(pred.column, CompOp.LE, pred.high),
            )
        )
    if (
        isinstance(pred, InPredicate)
        and pred.subquery is None
        and not pred.negated
        and len(pred.values) >= 2
    ):
        return Or(
            tuple(
                Comparison(pred.column, CompOp.EQ, value)
                for value in reversed(pred.values)
            )
        )
    if isinstance(pred, Comparison):
        return Comparison(pred.right, pred.op.flipped(), pred.left)
    return pred


def equivalent_variants(query):
    """Syntactic shuffles of ``query`` with provably identical results."""
    variants = []
    if query.where is not None:
        variants.append(replace(query, where=_shuffle_predicate(query.where)))
    if len(query.group_by) > 1:
        variants.append(
            replace(query, group_by=tuple(reversed(query.group_by)))
        )
    return [v for v in variants if v != query]


# ----------------------------------------------------------------------
# Differential execution over canonical-key groups
# ----------------------------------------------------------------------


def _normalized_result(query, database):
    """(error-or-None, result values) — order kept only under ORDER BY."""
    try:
        rows = execute_planned(query, database)
    except ReproError as exc:
        return type(exc).__name__, None
    values = [tuple(row.values()) for row in rows]
    if not query.order_by:
        values = sorted(values, key=repr)
    return None, values


def assert_group_agrees(members, database):
    """Queries sharing a canonical key must be indistinguishable."""
    baseline = _normalized_result(members[0], database)
    for member in members[1:]:
        outcome = _normalized_result(member, database)
        assert outcome == baseline, (
            f"canonical key merged distinguishable queries:\n"
            f"  {to_sql(members[0])}\n  {to_sql(member)}"
        )


def _group_by_canonical_key(queries, schema):
    groups: dict[str, list] = {}
    seen: dict[str, set] = {}
    for query in queries:
        for candidate in (query, *equivalent_variants(query)):
            key = canonical_key(candidate, schema)
            text = to_sql(candidate)
            if text in seen.setdefault(key, set()):
                continue
            seen[key].add(text)
            groups.setdefault(key, []).append(candidate)
    return groups


# ----------------------------------------------------------------------
# 1. Randomized databases over every catalog schema
# ----------------------------------------------------------------------


def _probe_queries(database):
    """Filter/IN/BETWEEN/join/aggregate probes with real DB constants."""
    schema = database.schema
    queries = []

    def render(value):
        return f"'{value}'" if isinstance(value, str) else value

    for table in schema.tables:
        first = table.column_names[0]
        numeric = next((c.name for c in table.columns if c.is_numeric), None)
        queries.append(parse(f"SELECT * FROM {table.name}"))
        values = [
            v for v in database.column_values(table.name, first) if v is not None
        ]
        if values:
            a, b = render(values[0]), render(values[len(values) // 2])
            queries.append(
                parse(f"SELECT {first} FROM {table.name} WHERE {first} = {a}")
            )
            queries.append(
                parse(
                    f"SELECT {first} FROM {table.name} "
                    f"WHERE {first} = {a} OR {first} = {b}"
                )
            )
            queries.append(
                parse(
                    f"SELECT {first} FROM {table.name} "
                    f"WHERE {first} IN ({a}, {b})"
                )
            )
        if numeric:
            numbers = sorted(
                v
                for v in database.column_values(table.name, numeric)
                if v is not None
            )
            if numbers:
                lo, hi = numbers[0], numbers[-1]
                queries.append(
                    parse(
                        f"SELECT {first} FROM {table.name} "
                        f"WHERE {numeric} BETWEEN {lo} AND {hi}"
                    )
                )
            queries.append(
                parse(f"SELECT COUNT(*) FROM {table.name} WHERE {numeric} > 0")
            )
    for fk in schema.foreign_keys:
        join = f"{fk.table}.{fk.column} = {fk.ref_table}.{fk.ref_column}"
        left_col = f"{fk.table}.{schema.table(fk.table).column_names[0]}"
        right_col = f"{fk.ref_table}.{schema.table(fk.ref_table).column_names[0]}"
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
                f"GROUP BY {right_col}"
            )
        )
    return queries


def test_catalog_has_eleven_schemas():
    assert len(SCHEMA_FACTORIES) == 11


@pytest.mark.parametrize("schema_name", sorted(SCHEMA_FACTORIES))
@pytest.mark.parametrize("seed", [0, 17])
def test_randomized_schema_soundness(schema_name, seed):
    schema = load_schema(schema_name)
    database = populate(schema, rows_per_table=25, seed=seed)
    groups = _group_by_canonical_key(_probe_queries(database), schema)
    merged = [members for members in groups.values() if len(members) >= 2]
    # The shuffles must actually land in the same canonical groups —
    # otherwise this gate proves nothing.
    assert merged, f"no canonical merges exercised on {schema_name}"
    for members in merged:
        assert_group_agrees(members, database)


# ----------------------------------------------------------------------
# 2. Seed corpora of both training schemas
# ----------------------------------------------------------------------


def _executable_corpus_queries(corpus, database):
    post = PostProcessor(database.schema)
    binder = _ConstantBinder(database)
    queries, seen = [], set()
    for pair in corpus.pairs:
        processed = post.process(to_sql(pair.sql))
        if processed is None:
            continue
        query = _transform_query(processed.query, binder)
        if query.placeholders():
            continue  # unbindable slot: nothing to execute
        text = to_sql(query)
        if text not in seen:
            seen.add(text)
            queries.append(query)
    return queries


@pytest.mark.parametrize(
    "corpus_fixture, db_fixture",
    [
        ("patients_corpus", "patients_db"),
        ("geography_corpus", "geography_db"),
    ],
)
def test_corpus_soundness(request, corpus_fixture, db_fixture):
    corpus = request.getfixturevalue(corpus_fixture)
    database = request.getfixturevalue(db_fixture)
    queries = _executable_corpus_queries(corpus, database)
    assert len(queries) > 50
    groups = _group_by_canonical_key(queries, database.schema)
    merged = [members for members in groups.values() if len(members) >= 2]
    assert merged, "corpus gate is vacuous: no canonical merges"
    for members in merged:
        assert_group_agrees(members, database)

