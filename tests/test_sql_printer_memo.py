"""The SQL text memoized on each ``Query``.

``to_sql(query)`` stores its text in the query's ``__dict__``, so one served answer is printed once although
post-processing, the repair loop and the executor's cache key all ask
for it.  The memo is sound only while a ``Query`` cannot change after it
is printed: every AST dataclass must be frozen and hold no list, dict or
set.  These tests pin that, the memo's text on both benchmark corpora,
and that the sqlite emitter, the one printer subclass, never reads it.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
import threading
import types
import typing

import pytest

import repro.sql.ast as sql_ast
from repro.adapters import compile_select
from repro.adapters.sqlite3_adapter import ExecutableSqlitePrinter
from repro.analysis.equivalence import _ConstantBinder
from repro.bench import (
    build_patients_benchmark,
    spider_schemas,
    spider_test_workload,
    spider_train_pairs,
)
from repro.db import populate
from repro.runtime.postprocess import PostProcessor, _transform_query
from repro.schema import patients_schema
from repro.sql.ast import Query
from repro.sql.parser import parse
from repro.sql.printer import SqlPrinter, to_sql

MEMO = "_default_sql"


def _fresh(query: Query) -> str:
    return SqlPrinter().query(query)


def _nested(query: Query):
    yield query
    for sub in query.walk_subqueries():
        yield from _nested(sub)


@pytest.fixture(scope="module")
def corpus() -> list[Query]:
    """Patients and Spider-substitute SQL as written and as served:
    ``@JOIN`` expanded and constants bound to database values."""
    train_schemas, test_schemas = spider_schemas()
    schemas = {s.name: s for s in (*train_schemas, *test_schemas, patients_schema())}
    items = [
        *build_patients_benchmark(),
        *spider_test_workload(),
        *spider_train_pairs(150, seed=100),
    ]
    databases: dict = {}
    queries = []
    for item in items:
        # A parsed copy carries no memo of the source's printing.
        queries.append(parse(to_sql(item.sql)))
        name = item.schema_name
        if name not in databases:
            databases[name] = populate(schemas[name], 20, seed=3)
        processed = PostProcessor(databases[name].schema).process(to_sql(item.sql))
        if processed is not None:
            queries.append(
                _transform_query(processed.query, _ConstantBinder(databases[name]))
            )
    return queries


def test_memo_equals_a_fresh_printer_on_both_corpora(corpus):
    assert len(corpus) > 500
    for query in corpus:
        # Post-processing already printed the served queries once.
        text = to_sql(query)
        assert text == _fresh(query)
        assert query.__dict__[MEMO] is text
        assert to_sql(query) is text
        for sub in _nested(query):
            assert to_sql(sub) == _fresh(sub)


def test_a_replaced_copy_prints_its_own_text():
    query = parse("SELECT name FROM patients WHERE age > 30")
    before = to_sql(query)
    for changes in (
        {"limit": 5},
        {"distinct": True},
        {"where": None},
        {"from_tables": ("patient",)},
    ):
        copy = dataclasses.replace(query, **changes)
        assert MEMO not in copy.__dict__
        assert to_sql(copy) == _fresh(copy) != before
    assert to_sql(query) == before


def test_threads_racing_to_print_one_query_agree(corpus):
    # Many threads print the same unprinted queries at once: the memo's
    # check-then-store may run twice, but both stores hold equal text.
    queries = [parse(to_sql(query)) for query in corpus[:200]]
    expected = [_fresh(query) for query in queries]
    errors: list[Exception] = []

    def worker() -> None:
        try:
            for query, text in zip(queries, expected):
                assert to_sql(query) == text
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(q.__dict__[MEMO] == text for q, text in zip(queries, expected))


def test_the_sqlite_emitter_never_reads_the_memo():
    # Subqueries with and without a LIMIT take the emitter's two paths.
    sql = (
        "SELECT name FROM patients WHERE age > "
        "(SELECT age FROM patients ORDER BY age LIMIT 1) AND age IN "
        "(SELECT age FROM patients WHERE age < 60) ORDER BY age DESC LIMIT 3"
    )
    schema = patients_schema()
    extents = {"patients": 40}
    expected = compile_select(parse(sql), schema, extents).sql
    printer = ExecutableSqlitePrinter(schema, extents)
    expected_text = printer.query(parse(sql))
    query = parse(sql)
    queries = list(_nested(query))
    assert len(queries) == 3
    for sub in queries:
        to_sql(sub)
        sub.__dict__[MEMO] = "poisoned"
    assert compile_select(query, schema, extents).sql == expected
    assert printer.query(query) == expected_text
    assert "poisoned" not in expected + expected_text
    assert all(sub.__dict__[MEMO] == "poisoned" for sub in queries)


def _ast_dataclasses():
    return [
        obj
        for obj in vars(sql_ast).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == sql_ast.__name__
    ]


def _leaf_types(hint):
    """The types a field annotation can hold, through unions and tuples.

    Any other generic (``list[...]``, ``dict[...]``, ``set[...]``)
    comes back as its origin, which no allowed leaf matches.
    """
    origin = typing.get_origin(hint)
    if origin is None:
        yield hint
    elif origin in (tuple, typing.Union, types.UnionType):
        for arg in typing.get_args(hint):
            if arg is not Ellipsis:
                yield from _leaf_types(arg)
    else:
        yield origin


def test_every_ast_node_is_frozen_and_holds_no_mutable_container():
    nodes = _ast_dataclasses()
    assert Query in nodes and len(nodes) >= 15
    allowed_scalars = (int, float, str, bool, type(None))
    for node in nodes:
        assert node.__dataclass_params__.frozen, node.__name__
        hints = typing.get_type_hints(node)
        for field in dataclasses.fields(node):
            for leaf in _leaf_types(hints[field.name]):
                assert (
                    leaf in allowed_scalars
                    or leaf in nodes
                    or (isinstance(leaf, type) and issubclass(leaf, enum.Enum))
                ), f"{node.__name__}.{field.name}: {leaf!r}"


def test_the_container_check_catches_a_mutable_field():
    @dataclasses.dataclass(frozen=True)
    class Bad:
        items: list[int]
        pairs: tuple[dict[str, int], ...]

    hints = typing.get_type_hints(Bad)
    assert list(_leaf_types(hints["items"])) == [list]
    assert list(_leaf_types(hints["pairs"])) == [dict]
