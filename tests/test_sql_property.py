"""Property-based tests for the SQL subsystem (hypothesis).

Random ASTs are built from a recursive strategy; the key invariants:

* print -> parse is the identity on ASTs;
* normalization is idempotent and preserved by print/parse;
* pattern signatures are invariant under identifier renaming;
* the grammar automaton accepts every printed query's token stream.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.neural.base import sql_to_tokens
from repro.neural.grammar import SqlDecodingAutomaton
from repro.sql import normalize, parse, pattern_signature, to_sql
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    And,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    InPredicate,
    Like,
    Literal,
    Or,
    OrderItem,
    Placeholder,
    Query,
    Star,
    Subquery,
)

_names = st.sampled_from(["age", "name", "size", "price", "city", "kind"])
_tables = st.sampled_from(["alpha", "beta", "gamma"])


def _columns(qualified: bool):
    if qualified:
        return st.builds(ColumnRef, _names, _tables)
    return st.builds(ColumnRef, _names)


_literals = st.one_of(
    st.integers(min_value=-999, max_value=999).map(Literal),
    st.sampled_from(["x", "flu", "a'b"]).map(Literal),
)
_placeholders = st.sampled_from(["AGE", "NAME", "STATE.NAME", "AGE.LOW"]).map(
    Placeholder
)
_values = st.one_of(_literals, _placeholders)
_ops = st.sampled_from(list(CompOp))


def _comparisons(qualified: bool):
    return st.builds(Comparison, _columns(qualified), _ops, _values)


def _atoms(qualified: bool):
    return st.one_of(
        _comparisons(qualified),
        st.builds(
            Between,
            _columns(qualified),
            st.integers(0, 50).map(Literal),
            st.integers(51, 99).map(Literal),
        ),
        st.builds(
            Like,
            _columns(qualified),
            st.sampled_from(["a%", "_x"]).map(Literal),
            st.booleans(),
        ),
        st.builds(
            InPredicate,
            _columns(qualified),
            st.lists(_literals, min_size=2, max_size=3, unique_by=str).map(tuple),
            st.none(),
            st.booleans(),
        ),
    )


def _predicates(qualified: bool):
    """Alternating And/Or nesting.

    ``And`` directly inside ``And`` (and Or in Or) is avoided: the
    printer emits flat chains for those, so the parser rightly returns
    the flattened AST and identity-roundtrip cannot hold for the
    nested spelling.  Alternating nesting is the canonical form.
    """
    atoms = _atoms(qualified)
    ors = st.lists(atoms, min_size=2, max_size=3).map(tuple).map(Or)
    ands = (
        st.lists(st.one_of(atoms, ors), min_size=2, max_size=3)
        .map(tuple)
        .map(And)
    )
    return st.one_of(atoms, ors, ands)


# ``*`` is an aggregate argument only in plain ``COUNT(*)``.
_aggregates = st.one_of(
    st.builds(
        Aggregate,
        st.sampled_from(list(AggFunc)),
        st.builds(ColumnRef, _names),
        st.booleans(),
    ),
    st.just(Aggregate(AggFunc.COUNT, Star())),
)


@st.composite
def queries(draw) -> Query:
    multi = draw(st.booleans())
    if multi:
        from_tables = tuple(sorted(draw(st.sets(_tables, min_size=2, max_size=3))))
    else:
        from_tables = (draw(_tables),)
    qualified = multi
    n_items = draw(st.integers(1, 2))
    select = tuple(
        draw(st.one_of(_columns(qualified), _aggregates)) for _ in range(n_items)
    )
    where = draw(st.one_of(st.none(), _predicates(qualified)))
    group_by = ()
    having = None
    if draw(st.booleans()) and not multi:
        group_by = (draw(_columns(False)),)
        if draw(st.booleans()):
            having = Comparison(
                Aggregate(AggFunc.COUNT, Star()), draw(_ops), Literal(draw(st.integers(0, 9)))
            )
    order_by = ()
    if draw(st.booleans()):
        order_by = (OrderItem(draw(_columns(qualified)), draw(st.booleans())),)
    limit = draw(st.one_of(st.none(), st.integers(1, 99)))
    return Query(
        select=select,
        from_tables=from_tables,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        distinct=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(queries())
def test_print_parse_roundtrip(query: Query):
    assert parse(to_sql(query)) == query


@settings(max_examples=100, deadline=None)
@given(queries())
def test_normalize_idempotent(query: Query):
    once = normalize(query)
    assert normalize(once) == once


@settings(max_examples=100, deadline=None)
@given(queries())
def test_normalized_form_survives_roundtrip(query: Query):
    normalized = normalize(query)
    assert normalize(parse(to_sql(normalized))) == normalized


@settings(max_examples=100, deadline=None)
@given(queries())
def test_grammar_automaton_accepts_printed_queries(query: Query):
    tokens = sql_to_tokens(to_sql(query))
    assert SqlDecodingAutomaton().accepts(tokens), to_sql(query)


_RENAME = {"age": "years", "name": "label", "size": "extent", "price": "fee",
           "city": "town", "kind": "sort_of", "alpha": "one", "beta": "two",
           "gamma": "three"}


@settings(max_examples=80, deadline=None)
@given(queries())
def test_pattern_signature_invariant_under_renaming(query: Query):
    sql = to_sql(query)
    renamed = sql
    for old, new in _RENAME.items():
        renamed = renamed.replace(old, new)
    assert pattern_signature(parse(sql)) == pattern_signature(parse(renamed))
