"""Placeholder restoration against the hand-written walk it replaced.

Constant restoration (``restore_placeholders``) and the equivalence
oracle's probe binding both go through :func:`repro.sql.edits.
map_placeholders`.  The walk below is the earlier restoration code,
kept verbatim as the reference: it rebuilt only WHERE and HAVING, while
``map_placeholders`` maps every clause and keeps node spans.  Since
placeholders parse only inside predicates, both must give equal queries
and print equal SQL, and must ask the stateful resolver about the same
placeholders in the same order, on every Patients and Spider-substitute
training and test query, with and without bindings.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.analysis.equivalence import _ConstantBinder
from repro.bench import (
    build_patients_benchmark,
    spider_schemas,
    spider_test_workload,
    spider_train_pairs,
)
from repro.core import GenerationConfig, TrainingPipeline
from repro.db import populate
from repro.runtime.parameter_handler import Binding
from repro.runtime.postprocess import _Resolver, _transform_query
from repro.schema import load_schema, patients_schema
from repro.sql.ast import (
    And,
    Between,
    Comparison,
    Exists,
    InPredicate,
    Like,
    Literal,
    Not,
    Or,
    Placeholder,
    Predicate,
    Query,
    Subquery,
)
from repro.sql.printer import to_sql


# -- the reference walk ------------------------------------------------


def _old_transform_query(query: Query, resolver) -> Query:
    where = _old_transform_pred(query.where, resolver) if query.where else None
    having = _old_transform_pred(query.having, resolver) if query.having else None
    return dc_replace(query, where=where, having=having)


def _old_transform_operand(operand, resolver):
    if isinstance(operand, Placeholder):
        value = resolver.resolve(operand)
        if value is None:
            return operand  # leave unresolved placeholders visible
        return Literal(value)
    if isinstance(operand, Subquery):
        return Subquery(_old_transform_query(operand.query, resolver))
    return operand


def _old_transform_pred(pred: Predicate, resolver) -> Predicate:
    if isinstance(pred, Comparison):
        return Comparison(
            _old_transform_operand(pred.left, resolver),
            pred.op,
            _old_transform_operand(pred.right, resolver),
        )
    if isinstance(pred, Between):
        return Between(
            pred.column,
            _old_transform_operand(pred.low, resolver),
            _old_transform_operand(pred.high, resolver),
        )
    if isinstance(pred, InPredicate):
        subquery = (
            Subquery(_old_transform_query(pred.subquery.query, resolver))
            if pred.subquery is not None
            else None
        )
        values = tuple(_old_transform_operand(v, resolver) for v in pred.values)
        return InPredicate(pred.column, values, subquery, pred.negated)
    if isinstance(pred, Like):
        return Like(
            pred.column, _old_transform_operand(pred.pattern, resolver), pred.negated
        )
    if isinstance(pred, Exists):
        return Exists(
            Subquery(_old_transform_query(pred.subquery.query, resolver)),
            pred.negated,
        )
    if isinstance(pred, Not):
        return Not(_old_transform_pred(pred.operand, resolver))
    if isinstance(pred, And):
        return And(tuple(_old_transform_pred(p, resolver) for p in pred.operands))
    if isinstance(pred, Or):
        return Or(tuple(_old_transform_pred(p, resolver) for p in pred.operands))
    return pred


# -- the corpus --------------------------------------------------------


class _Recording:
    """Wraps a resolver and logs the placeholders it is asked about."""

    def __init__(self, resolver) -> None:
        self._resolver = resolver
        self.asked: list[str] = []

    def resolve(self, placeholder):
        self.asked.append(placeholder.name)
        return self._resolver.resolve(placeholder)


@pytest.fixture(scope="module")
def corpus() -> list[tuple[str, Query]]:
    """Every distinct (schema, SQL) of the Patients and Spider-substitute
    training and test sets."""
    train_schemas, test_schemas = spider_schemas()
    config = GenerationConfig(size_slotfills=6)
    sources = [
        [(p.schema_name, p.sql) for p in spider_train_pairs(150, seed=100)],
        [(i.schema_name, i.sql) for i in spider_test_workload(24, seed=200)],
        [(i.schema_name, i.sql) for i in build_patients_benchmark()],
        [
            (p.schema_name, p.sql)
            for p in TrainingPipeline(patients_schema(), config, seed=10)
            .generate()
            .pairs
        ],
        [
            (p.schema_name, p.sql)
            for p in TrainingPipeline(train_schemas + test_schemas, config, seed=10)
            .generate()
            .pairs
        ],
    ]
    distinct: dict[tuple[str, str], Query] = {}
    for source in sources:
        assert source
        for schema_name, query in source:
            distinct.setdefault((schema_name, to_sql(query)), query)
    return [(schema_name, query) for (schema_name, _), query in distinct.items()]


def _binding_sets(query: Query) -> list[list[Binding]]:
    """Binding maps that reach each of ``_Resolver``'s three rules."""
    slots = query.placeholders()
    values = (7, 2.5, "x'y", 0, -3)
    exact = [
        Binding(p.name.upper(), values[i % len(values)], column=p.column)
        for i, p in enumerate(slots)
    ]
    by_column = [
        Binding("SLOT", values[i % len(values)], column=p.column)
        for i, p in enumerate(slots)
    ]
    positional = [Binding(f"OTHER{i}", i) for i in range(len(slots))]
    return [
        [],
        exact,
        list(reversed(exact)),
        exact[:-1],
        by_column,
        positional,
        exact + positional,
    ]


def _assert_same(query: Query, old_resolver, new_resolver) -> None:
    old_log, new_log = _Recording(old_resolver), _Recording(new_resolver)
    old = _old_transform_query(query, old_log)
    new = _transform_query(query, new_log)
    assert new == old, to_sql(query)
    assert to_sql(new) == to_sql(old), to_sql(query)
    assert new_log.asked == old_log.asked, to_sql(query)


def test_corpus_reaches_every_placeholder_position(corpus):
    # Guard: the corpus must exercise nested and multi-slot queries.
    with_slots = [q for _, q in corpus if q.placeholders()]
    assert len(corpus) > 1000
    assert len(with_slots) > 500
    assert any(len(q.placeholders()) >= 2 for q in with_slots)
    assert any("SELECT" in to_sql(q)[1:] and q.placeholders() for q in with_slots)


def test_restore_matches_reference_walk_on_binding_maps(corpus):
    for _, query in corpus:
        for bindings in _binding_sets(query):
            _assert_same(query, _Resolver(bindings), _Resolver(bindings))


def test_restore_matches_reference_walk_on_database_constants(corpus):
    databases = {}
    for schema_name, query in corpus:
        if schema_name not in databases:
            schema = load_schema(schema_name)
            databases[schema_name] = populate(schema, rows_per_table=10, seed=0)
        binder = _ConstantBinder(databases[schema_name])
        _assert_same(query, binder, binder)
