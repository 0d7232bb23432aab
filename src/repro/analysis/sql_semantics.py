"""Pass 1: semantic analysis of a parsed SQL query against a schema.

Resolves every table and column reference, type-checks predicates and
comparatives, validates aggregate placement, checks that multi-table
FROM clauses (including the ``@JOIN`` placeholder form, §5.1) are
connected in the foreign-key graph, and verifies that every constant
placeholder names a real schema element.  Findings use the ``L1xx``
range of :data:`repro.analysis.diagnostics.LINT_CODES`.

Subqueries are analyzed recursively, each level with its own FROM
scope (the SQL subset has no correlated references).
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, FixHint, make
from repro.errors import SchemaError
from repro.schema.column import Column, ColumnType
from repro.schema.schema import Schema
from repro.schema.table import Table
from repro.sql.ast import (
    JOIN_PLACEHOLDER,
    AggFunc,
    Aggregate,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    Exists,
    InPredicate,
    Like,
    Literal,
    Placeholder,
    Predicate,
    Query,
    Span,
    Star,
)

#: Comparison operators that require an ordered (non-text) domain.
_ORDERING_OPS = frozenset((CompOp.LT, CompOp.LE, CompOp.GT, CompOp.GE))

#: Placeholder names with no schema binding (generic numeric constants).
_GENERIC_PLACEHOLDERS = frozenset(("num",))

#: Dotted-placeholder suffixes of the BETWEEN bound scheme (``@AGE.LOW``).
_BOUND_SUFFIXES = frozenset(("low", "high"))


def analyze_query(
    query: Query, schema: Schema, location: str = ""
) -> list[Diagnostic]:
    """Semantic diagnostics for ``query`` resolved against ``schema``."""
    analyzer = _Analyzer(schema, location)
    analyzer.check(query)
    return analyzer.diagnostics


def analyze_sql(sql: str, schema: Schema, location: str = "") -> list[Diagnostic]:
    """Parse ``sql`` and analyze it; a parse failure raises ``SqlError``."""
    from repro.sql.parser import parse

    return analyze_query(parse(sql), schema, location=location)


class _Analyzer:
    def __init__(self, schema: Schema, location: str) -> None:
        self.schema = schema
        self.location = location
        self.diagnostics: list[Diagnostic] = []

    def emit(
        self,
        code: str,
        message: str,
        span: Span | None = None,
        hint: str = "",
        fix: FixHint | None = None,
    ) -> None:
        self.diagnostics.append(
            make(code, message, location=self.location, span=span, hint=hint, fix=fix)
        )

    # ------------------------------------------------------------------

    def check(self, query: Query) -> None:
        scope = self._resolve_scope(query)
        if scope is not None:
            self._check_select(query, scope)
            self._check_grouping(query, scope)
            if query.where is not None:
                self._check_predicate(query.where, scope, in_where=True)
            if query.having is not None:
                self._check_predicate(query.having, scope, in_where=False)
            for item in query.order_by:
                if isinstance(item.expr, ColumnRef):
                    self._resolve(item.expr, scope)
                else:
                    self._check_aggregate(item.expr, scope)
        for sub in query.walk_subqueries():
            self.check(sub)

    # -- scope ----------------------------------------------------------

    def _resolve_scope(self, query: Query) -> list[Table] | None:
        """The tables visible to this query level, or None when FROM is broken."""
        names = [t for t in query.from_tables if t != JOIN_PLACEHOLDER]
        if query.uses_join_placeholder:
            implied = list(names)
            for table in query.referenced_tables():
                if table not in implied:
                    implied.append(table)
            for placeholder in self._own_placeholders(query):
                table = placeholder.table
                if (
                    table
                    and placeholder.column not in _BOUND_SUFFIXES
                    and table not in implied
                ):
                    implied.append(table)
            unknown = [t for t in implied if t not in self.schema]
            for table in unknown:
                self.emit(
                    "L101",
                    f"@JOIN query references unknown table {table!r} "
                    f"in schema {self.schema.name!r}",
                    span=query.span,
                    fix=FixHint("unknown_table", subject=table),
                )
            implied = [t for t in implied if t not in unknown]
            if not implied:
                self.emit(
                    "L110",
                    "@JOIN query references no known table, so the join "
                    "path cannot be inferred",
                    span=query.span,
                    hint="qualify at least one column or placeholder with its table",
                )
                return None
            try:
                names = self.schema.join_tables(implied)
            except SchemaError as exc:
                self.emit(
                    "L110",
                    f"@JOIN cannot be expanded: {exc}",
                    span=query.span,
                    hint="add a foreign key connecting the referenced tables",
                    fix=FixHint("join_path", alternatives=tuple(implied)),
                )
                return None
        else:
            unknown = [t for t in names if t not in self.schema]
            for table in unknown:
                self.emit(
                    "L101",
                    f"FROM references unknown table {table!r} "
                    f"in schema {self.schema.name!r}",
                    span=query.span,
                    fix=FixHint("unknown_table", subject=table),
                )
            names = [t for t in names if t not in unknown]
            if not names:
                return None
            if len(names) >= 2:
                try:
                    self.schema.join_path(names)
                except SchemaError as exc:
                    self.emit(
                        "L110",
                        f"FROM tables cannot be joined: {exc}",
                        span=query.span,
                        hint="add a foreign key connecting the tables",
                        fix=FixHint("join_path", alternatives=tuple(names)),
                    )
        return [self.schema.table(name) for name in names]

    # -- reference resolution -------------------------------------------

    def _resolve(self, ref: ColumnRef, scope: list[Table]) -> Column | None:
        if ref.table is not None:
            if ref.table not in self.schema:
                self.emit(
                    "L101",
                    f"reference {ref} names unknown table {ref.table!r}",
                    span=ref.span,
                    fix=FixHint("unknown_table", subject=ref.table),
                )
                return None
            table = self.schema.table(ref.table)
            if all(t.name != ref.table for t in scope):
                self.emit(
                    "L104",
                    f"reference {ref} names table {ref.table!r} which is "
                    f"not in the FROM scope",
                    span=ref.span,
                    hint="add the table to FROM or drop the qualifier",
                    fix=FixHint(
                        "table_not_in_scope", subject=ref.column, table=ref.table
                    ),
                )
            if ref.column not in table:
                self.emit(
                    "L102",
                    f"table {ref.table!r} has no column {ref.column!r}",
                    span=ref.span,
                    fix=FixHint("unknown_column", subject=ref.column, table=ref.table),
                )
                return None
            return table.column(ref.column)
        owners = [t for t in scope if ref.column in t]
        if not owners:
            self.emit(
                "L102",
                f"column {ref.column!r} exists in no FROM table "
                f"({', '.join(t.name for t in scope)})",
                span=ref.span,
                fix=FixHint("unknown_column", subject=ref.column),
            )
            return None
        if len(owners) > 1:
            self.emit(
                "L103",
                f"column {ref.column!r} is ambiguous: present in "
                f"{', '.join(t.name for t in owners)}",
                span=ref.span,
                hint="qualify the reference with its table",
                fix=FixHint(
                    "ambiguous_column",
                    subject=ref.column,
                    alternatives=tuple(t.name for t in owners),
                ),
            )
            return None
        return owners[0].column(ref.column)

    # -- select / grouping ----------------------------------------------

    def _check_select(self, query: Query, scope: list[Table]) -> None:
        for item in query.select:
            if isinstance(item, ColumnRef):
                self._resolve(item, scope)
            elif isinstance(item, Aggregate):
                self._check_aggregate(item, scope)

    def _check_aggregate(self, agg: Aggregate, scope: list[Table]) -> None:
        if isinstance(agg.arg, Star):
            return
        column = self._resolve(agg.arg, scope)
        if (
            column is not None
            and agg.func in (AggFunc.SUM, AggFunc.AVG)
            and not column.is_numeric
        ):
            self.emit(
                "L112",
                f"{agg.func.value} needs a numeric argument but "
                f"{agg.arg} has type {column.ctype.value}",
                span=agg.span,
                fix=FixHint(
                    "aggregate_nonnumeric",
                    subject=agg.arg.column,
                    table=agg.arg.table or "",
                ),
            )

    def _check_grouping(self, query: Query, scope: list[Table]) -> None:
        if query.having is not None and not query.group_by:
            self.emit(
                "L109",
                "HAVING requires a GROUP BY clause",
                span=query.span,
                fix=FixHint("having_without_group_by"),
            )
        if query.group_by or any(isinstance(i, Aggregate) for i in query.select):
            for item in query.select:
                if isinstance(item, Star):
                    self.emit(
                        "L115",
                        "SELECT * cannot stand beside GROUP BY or an aggregate",
                        span=item.span,
                        hint="list the columns to return",
                    )
        if not query.group_by:
            return
        group_keys = set()
        for ref in query.group_by:
            column = self._resolve(ref, scope)
            group_keys.add(self._identity(ref, column))
        for item in query.select:
            if isinstance(item, (Aggregate, Star)):
                continue
            column = self._resolve(item, scope)
            if self._identity(item, column) not in group_keys:
                self.emit(
                    "L108",
                    f"select item {item} is neither aggregated nor in "
                    f"GROUP BY",
                    span=item.span,
                    hint="add the column to GROUP BY or wrap it in an aggregate",
                    fix=FixHint(
                        "ungrouped_select_item",
                        subject=item.column,
                        table=item.table or "",
                    ),
                )

    @staticmethod
    def _identity(ref: ColumnRef, column: Column | None) -> tuple[str | None, str]:
        # Resolved refs compare by column object identity so that
        # `name` and `t.name` group together; unresolved fall back to text.
        if column is not None:
            return (None, str(id(column)))
        return (ref.table, ref.column)

    # -- predicates ------------------------------------------------------

    def _check_predicate(
        self, predicate: Predicate, scope: list[Table], in_where: bool
    ) -> None:
        from repro.sql.ast import And, Not, Or

        if isinstance(predicate, (And, Or)):
            for operand in predicate.operands:
                self._check_predicate(operand, scope, in_where)
        elif isinstance(predicate, Not):
            self._check_predicate(predicate.operand, scope, in_where)
        elif isinstance(predicate, Comparison):
            self._check_comparison(predicate, scope, in_where)
        elif isinstance(predicate, Between):
            self._check_between(predicate, scope)
        elif isinstance(predicate, InPredicate):
            self._check_in(predicate, scope)
        elif isinstance(predicate, Like):
            self._check_like(predicate, scope)
        elif isinstance(predicate, Exists):
            pass  # inner query handled by the subquery recursion

    def _check_comparison(
        self, pred: Comparison, scope: list[Table], in_where: bool
    ) -> None:
        for side in (pred.left, pred.right):
            if isinstance(side, Aggregate):
                if in_where:
                    self.emit(
                        "L107",
                        f"aggregate {side} is not allowed in WHERE",
                        span=pred.span,
                        hint="move the condition to HAVING",
                        fix=FixHint("aggregate_in_where"),
                    )
                self._check_aggregate(side, scope)
            elif isinstance(side, Placeholder):
                self._check_placeholder(side, scope)
        column: Column | None = None
        other = None
        if isinstance(pred.left, ColumnRef):
            column = self._resolve(pred.left, scope)
            other = pred.right
            if isinstance(pred.right, ColumnRef):
                self._resolve(pred.right, scope)
                other = None  # column-to-column (join condition): no literal check
        elif isinstance(pred.right, ColumnRef):
            column = self._resolve(pred.right, scope)
            other = pred.left
        if column is None:
            return
        if pred.op in _ORDERING_OPS and column.ctype is ColumnType.TEXT:
            self.emit(
                "L105",
                f"ordering comparison {pred.op.value} on text column "
                f"{column.name!r}",
                span=pred.span,
                hint="text columns support only = and <>",
                fix=FixHint("ordering_on_text", subject=column.name),
            )
        if isinstance(other, Literal):
            self._check_literal(column, other)

    def _check_literal(self, column: Column, literal: Literal) -> None:
        if isinstance(literal.value, str) and column.is_numeric:
            self.emit(
                "L106",
                f"string literal {literal} compared with numeric column "
                f"{column.name!r}",
                span=literal.span,
            )
        elif (
            isinstance(literal.value, (int, float))
            and column.ctype is ColumnType.TEXT
        ):
            self.emit(
                "L106",
                f"numeric literal {literal} compared with text column "
                f"{column.name!r}",
                span=literal.span,
            )

    def _check_between(self, pred: Between, scope: list[Table]) -> None:
        column = self._resolve(pred.column, scope)
        if column is not None and column.ctype is ColumnType.TEXT:
            self.emit(
                "L111",
                f"BETWEEN on text column {column.name!r}",
                span=pred.span,
                hint="BETWEEN needs an ordered (numeric or date) column",
                fix=FixHint("between_on_text", subject=column.name),
            )
        for bound in (pred.low, pred.high):
            if isinstance(bound, Placeholder):
                self._check_placeholder(bound, scope)
            elif column is not None and isinstance(bound, Literal):
                self._check_literal(column, bound)

    def _check_in(self, pred: InPredicate, scope: list[Table]) -> None:
        column = self._resolve(pred.column, scope)
        for value in pred.values:
            if isinstance(value, Placeholder):
                self._check_placeholder(value, scope)
            elif column is not None and isinstance(value, Literal):
                self._check_literal(column, value)

    def _check_like(self, pred: Like, scope: list[Table]) -> None:
        column = self._resolve(pred.column, scope)
        if column is not None and column.ctype is not ColumnType.TEXT:
            self.emit(
                "L113",
                f"LIKE on {column.ctype.value} column {column.name!r}",
                span=pred.span,
                fix=FixHint("like_on_nontext", subject=column.name),
            )
        if isinstance(pred.pattern, Placeholder):
            self._check_placeholder(pred.pattern, scope)

    # -- placeholders ----------------------------------------------------

    def _check_placeholder(self, placeholder: Placeholder, scope: list[Table]) -> None:
        name = placeholder.name.lower()
        if name in _GENERIC_PLACEHOLDERS:
            return
        if "." in name:
            first, last = name.split(".", 1)
            if last in _BOUND_SUFFIXES:
                # @COL.LOW / @COL.HIGH — the BETWEEN bound scheme.
                if not any(first in t for t in scope):
                    self.emit(
                        "L114",
                        f"placeholder {placeholder} names unknown column "
                        f"{first!r}",
                        span=placeholder.span,
                        fix=FixHint("unknown_placeholder", subject=placeholder.name),
                    )
                return
            # @TABLE.COL — the qualified constant scheme of join templates.
            if first not in self.schema:
                self.emit(
                    "L114",
                    f"placeholder {placeholder} names unknown table {first!r}",
                    span=placeholder.span,
                    fix=FixHint(
                        "unknown_placeholder", subject=placeholder.name, table=first
                    ),
                )
                return
            if last not in self.schema.table(first):
                self.emit(
                    "L114",
                    f"placeholder {placeholder} names unknown column "
                    f"{last!r} of table {first!r}",
                    span=placeholder.span,
                    fix=FixHint(
                        "unknown_placeholder", subject=placeholder.name, table=first
                    ),
                )
            return
        if not any(name in t for t in scope):
            self.emit(
                "L114",
                f"placeholder {placeholder} names unknown column {name!r}",
                span=placeholder.span,
                fix=FixHint("unknown_placeholder", subject=placeholder.name),
            )

    def _own_placeholders(self, query: Query) -> list[Placeholder]:
        """Placeholders of this query level only (no subquery interiors)."""
        found: list[Placeholder] = []

        def scan(operand) -> None:
            if isinstance(operand, Placeholder):
                found.append(operand)

        for pred in query.walk_predicates():
            if isinstance(pred, Comparison):
                scan(pred.left)
                scan(pred.right)
            elif isinstance(pred, Between):
                scan(pred.low)
                scan(pred.high)
            elif isinstance(pred, InPredicate):
                for value in pred.values:
                    scan(value)
            elif isinstance(pred, Like):
                scan(pred.pattern)
        return found
