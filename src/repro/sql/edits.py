"""Generic AST edit helpers for targeted query repair.

The repair pipeline (:mod:`repro.serving.repair`) fixes near-miss model
output by rewriting small parts of an otherwise-sound query: rename a
misspelled column, re-qualify an ambiguous reference, move an aggregate
conjunct from WHERE to HAVING, extend GROUP BY.  Because every AST node
is a frozen dataclass, each helper rebuilds the affected spine with
:func:`dataclasses.replace` and shares every untouched subtree — edits
are cheap and the input query is never mutated.

All helpers accept and return :class:`~repro.sql.ast.Query`; they apply
recursively through subqueries unless documented otherwise.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable

from repro.sql.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
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
    Star,
    Subquery,
    conjoin,
    conjuncts,
)

#: Rewrites one column reference (return the input to leave it alone).
RefFn = Callable[[ColumnRef], ColumnRef]
#: Rewrites one placeholder, e.g. into the literal it stands for
#: (return the input to leave it alone).
PlaceholderFn = Callable[[Placeholder], "Placeholder | Literal"]


# ----------------------------------------------------------------------
# Structural map over every ColumnRef / Placeholder in a query
# ----------------------------------------------------------------------


def map_column_refs(query: Query, fn: RefFn) -> Query:
    """Apply ``fn`` to every column reference, everywhere in ``query``.

    Covers SELECT items, aggregate arguments, all predicate positions,
    GROUP BY, ORDER BY, and subqueries.  Identity results share the
    original subtree, so an all-identity map returns an equal query.
    """
    return _map_query(query, fn, lambda p: p)


def map_placeholders(query: Query, fn: PlaceholderFn) -> Query:
    """Apply ``fn`` to every constant placeholder in ``query``."""
    return _map_query(query, lambda r: r, fn)


def _map_query(query: Query, ref_fn: RefFn, ph_fn: PlaceholderFn) -> Query:
    select = tuple(
        item if isinstance(item, Star) else _map_operand(item, ref_fn, ph_fn)
        for item in query.select
    )
    where = _map_pred(query.where, ref_fn, ph_fn) if query.where else None
    having = _map_pred(query.having, ref_fn, ph_fn) if query.having else None
    group_by = tuple(ref_fn(ref) for ref in query.group_by)
    order_by = tuple(
        dc_replace(item, expr=_map_operand(item.expr, ref_fn, ph_fn))
        for item in query.order_by
    )
    return dc_replace(
        query,
        select=select,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
    )


def _map_operand(operand, ref_fn: RefFn, ph_fn: PlaceholderFn):
    if isinstance(operand, ColumnRef):
        return ref_fn(operand)
    if isinstance(operand, Placeholder):
        return ph_fn(operand)
    if isinstance(operand, Aggregate):
        if isinstance(operand.arg, ColumnRef):
            return dc_replace(operand, arg=ref_fn(operand.arg))
        return operand
    if isinstance(operand, Subquery):
        return Subquery(_map_query(operand.query, ref_fn, ph_fn))
    return operand


def _map_pred(pred: Predicate, ref_fn: RefFn, ph_fn: PlaceholderFn) -> Predicate:
    if isinstance(pred, Comparison):
        return dc_replace(
            pred,
            left=_map_operand(pred.left, ref_fn, ph_fn),
            right=_map_operand(pred.right, ref_fn, ph_fn),
        )
    if isinstance(pred, Between):
        return dc_replace(
            pred,
            column=ref_fn(pred.column),
            low=_map_operand(pred.low, ref_fn, ph_fn),
            high=_map_operand(pred.high, ref_fn, ph_fn),
        )
    if isinstance(pred, InPredicate):
        return dc_replace(
            pred,
            column=ref_fn(pred.column),
            values=tuple(_map_operand(v, ref_fn, ph_fn) for v in pred.values),
            subquery=(
                Subquery(_map_query(pred.subquery.query, ref_fn, ph_fn))
                if pred.subquery is not None
                else None
            ),
        )
    if isinstance(pred, Like):
        return dc_replace(
            pred,
            column=ref_fn(pred.column),
            pattern=_map_operand(pred.pattern, ref_fn, ph_fn),
        )
    if isinstance(pred, Exists):
        return dc_replace(
            pred, subquery=Subquery(_map_query(pred.subquery.query, ref_fn, ph_fn))
        )
    if isinstance(pred, Not):
        return Not(_map_pred(pred.operand, ref_fn, ph_fn))
    if isinstance(pred, And):
        return And(tuple(_map_pred(p, ref_fn, ph_fn) for p in pred.operands))
    if isinstance(pred, Or):
        return Or(tuple(_map_pred(p, ref_fn, ph_fn) for p in pred.operands))
    return pred


# ----------------------------------------------------------------------
# Targeted renames
# ----------------------------------------------------------------------


def rename_column(
    query: Query,
    old: str,
    new_column: str,
    new_table: str | None = None,
    old_table: str | None = None,
) -> Query:
    """Rename every reference to column ``old`` to ``new_column``.

    ``old_table`` (when given) restricts the rename to references with
    that exact qualifier; ``new_table`` sets the qualifier of the
    rewritten reference (``None`` keeps the original qualifier).
    Placeholders whose column segment equals ``old`` are renamed too,
    so ``@NMAE`` follows its column to ``@NAME``.
    """

    def fix_ref(ref: ColumnRef) -> ColumnRef:
        if ref.column != old:
            return ref
        if old_table is not None and ref.table != old_table:
            return ref
        table = new_table if new_table is not None else ref.table
        return ColumnRef(new_column, table=table)

    def fix_placeholder(ph: Placeholder) -> Placeholder:
        if ph.column != old.lower():
            return ph
        head, _, tail = ph.name.rpartition(".")
        del tail
        new_name = (head + "." if head else "") + new_column.upper()
        return Placeholder(new_name)

    return _map_query(query, fix_ref, fix_placeholder)


def rename_table(query: Query, old: str, new: str) -> Query:
    """Rename table ``old`` to ``new`` in FROM, qualifiers, placeholders."""

    def fix_ref(ref: ColumnRef) -> ColumnRef:
        if ref.table != old:
            return ref
        return ColumnRef(ref.column, table=new)

    def fix_placeholder(ph: Placeholder) -> Placeholder:
        if ph.table != old.lower():
            return ph
        return Placeholder(new.upper() + "." + ph.name.split(".", 1)[1])

    renamed = _map_query(query, fix_ref, fix_placeholder)
    from_tables = tuple(new if t == old else t for t in renamed.from_tables)
    return dc_replace(renamed, from_tables=from_tables)


def qualify_column(query: Query, column: str, table: str) -> Query:
    """Add a table qualifier to every unqualified ``column`` reference."""

    def fix_ref(ref: ColumnRef) -> ColumnRef:
        if ref.column != column or ref.table is not None:
            return ref
        return ColumnRef(column, table=table)

    return _map_query(query, fix_ref, lambda p: p)


def set_from(query: Query, tables: tuple[str, ...]) -> Query:
    """Replace the FROM clause (this level only, no recursion)."""
    return dc_replace(query, from_tables=tables)


# ----------------------------------------------------------------------
# Grouping / aggregate clause surgery
# ----------------------------------------------------------------------


def _contains_aggregate(pred: Predicate) -> bool:
    if isinstance(pred, Comparison):
        return isinstance(pred.left, Aggregate) or isinstance(pred.right, Aggregate)
    if isinstance(pred, (And, Or)):
        return any(_contains_aggregate(p) for p in pred.operands)
    if isinstance(pred, Not):
        return _contains_aggregate(pred.operand)
    return False


def move_aggregate_conjuncts_to_having(query: Query) -> Query:
    """Move every top-level WHERE conjunct containing an aggregate to HAVING.

    The L107 repair: ``WHERE AVG(age) > 30`` becomes
    ``HAVING AVG(age) > 30``; non-aggregate conjuncts stay in WHERE.
    """
    keep: list[Predicate] = []
    moved: list[Predicate] = []
    for conjunct in conjuncts(query.where):
        (moved if _contains_aggregate(conjunct) else keep).append(conjunct)
    if not moved:
        return query
    having = conjoin(conjuncts(query.having) + moved)
    return dc_replace(query, where=conjoin(keep), having=having)


def move_having_to_where(query: Query) -> Query:
    """Fold an aggregate-free HAVING into WHERE (one L109 repair)."""
    if query.having is None or _contains_aggregate(query.having):
        return query
    where = conjoin(conjuncts(query.where) + conjuncts(query.having))
    return dc_replace(query, where=where, having=None)


def add_group_by(query: Query, refs: tuple[ColumnRef, ...]) -> Query:
    """Append ``refs`` to GROUP BY (skipping keys already present)."""
    present = {(r.table, r.column) for r in query.group_by}
    extra = tuple(
        ColumnRef(r.column, table=r.table)
        for r in refs
        if (r.table, r.column) not in present
    )
    if not extra:
        return query
    return dc_replace(query, group_by=query.group_by + extra)


def replace_aggregate_func(query: Query, old: Aggregate, new: Aggregate) -> Query:
    """Replace one aggregate expression with another, everywhere it appears."""

    def fix_item(item):
        return new if item == old else item

    select = tuple(fix_item(item) for item in query.select)
    order_by = tuple(
        dc_replace(item, expr=fix_item(item.expr)) for item in query.order_by
    )

    def fix_pred(pred: Predicate) -> Predicate:
        if isinstance(pred, Comparison):
            return dc_replace(
                pred, left=fix_item(pred.left), right=fix_item(pred.right)
            )
        if isinstance(pred, (And, Or)):
            rebuilt = tuple(fix_pred(p) for p in pred.operands)
            return type(pred)(rebuilt)
        if isinstance(pred, Not):
            return Not(fix_pred(pred.operand))
        return pred

    having = fix_pred(query.having) if query.having is not None else None
    where = fix_pred(query.where) if query.where is not None else None
    return dc_replace(
        query, select=select, where=where, having=having, order_by=order_by
    )
