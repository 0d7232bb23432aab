"""Render SQL ASTs back to SQL text, parameterized by dialect.

The printer is the single source of truth for SQL surface syntax in the
reproduction: generated training pairs, model outputs, and benchmark
gold queries are all rendered through :func:`to_sql` in the ``default``
dialect, so exact-match comparison over printed text is well-defined.
Backend adapters (:mod:`repro.adapters`) render through the same
machinery with a different :class:`~repro.sql.dialects.Dialect` — and
may subclass :class:`SqlPrinter` to hook emission (e.g. the sqlite
adapter's NULL-collapsing executable emitter overrides :meth:`atom`).

Identifiers that collide with reserved words or contain characters the
lexer would not read back as a single identifier are double-quoted, so
``parse(to_sql(q)) == q`` holds for any printable query, not just the
catalog's well-behaved names.
"""

from __future__ import annotations

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
    OrderItem,
    Placeholder,
    Predicate,
    Query,
    Star,
)
from repro.sql.ast import Subquery as SubqueryNode
from repro.sql.dialects import LIMIT_SUFFIX, LIMIT_TOP, Dialect, get_dialect


class SqlPrinter:
    """Dialect-aware AST-to-text emitter.

    Every syntactic construct is a method, so a backend can subclass and
    override just the piece its engine disagrees on.  The instance is
    stateless between calls and safe to reuse.
    """

    def __init__(self, dialect: str | Dialect = "default") -> None:
        self.dialect = get_dialect(dialect)

    # -- queries -------------------------------------------------------

    def query(self, query: Query) -> str:
        """Render ``query`` as a single-line SQL string."""
        parts = ["SELECT"]
        if query.limit is not None and self.dialect.limit_style == LIMIT_TOP:
            parts.append(f"TOP {query.limit}")
        if query.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self.item(i) for i in query.select))
        parts.append("FROM")
        parts.append(", ".join(self.table(t) for t in query.from_tables))
        if query.where is not None:
            parts.append("WHERE")
            parts.append(self.predicate(query.where))
        if query.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(self.column_ref(c) for c in query.group_by))
        if query.having is not None:
            parts.append("HAVING")
            parts.append(self.predicate(query.having))
        if query.order_by:
            parts.append("ORDER BY")
            parts.append(", ".join(self.order(o) for o in query.order_by))
        if query.limit is not None and self.dialect.limit_style == LIMIT_SUFFIX:
            parts.append(f"LIMIT {query.limit}")
        return " ".join(parts)

    # -- names and values ----------------------------------------------

    def table(self, name: str) -> str:
        if name.startswith("@"):  # the @JOIN FROM placeholder (§5.1)
            return name
        return self.dialect.identifier(name)

    def column_ref(self, ref: ColumnRef) -> str:
        column = self.dialect.identifier(ref.column)
        if ref.table:
            return f"{self.dialect.identifier(ref.table)}.{column}"
        return column

    def literal(self, lit: Literal) -> str:
        if isinstance(lit.value, str):
            return self.dialect.string_literal(lit.value)
        return str(lit.value)

    def aggregate(self, agg: Aggregate) -> str:
        arg = "*" if isinstance(agg.arg, Star) else self.column_ref(agg.arg)
        inner = ("DISTINCT " if agg.distinct else "") + arg
        return f"{self.dialect.function(agg.func.value)}({inner})"

    def item(self, item) -> str:
        if isinstance(item, Star):
            return "*"
        if isinstance(item, ColumnRef):
            return self.column_ref(item)
        if isinstance(item, Aggregate):
            return self.aggregate(item)
        raise TypeError(f"unsupported select item: {item!r}")

    def operand(self, operand) -> str:
        if isinstance(operand, SubqueryNode):
            return "(" + self.query(operand.query) + ")"
        if isinstance(operand, ColumnRef):
            return self.column_ref(operand)
        if isinstance(operand, Literal):
            return self.literal(operand)
        if isinstance(operand, Placeholder):
            return str(operand)
        if isinstance(operand, Aggregate):
            return self.aggregate(operand)
        raise TypeError(f"unsupported operand: {operand!r}")

    # -- predicates ----------------------------------------------------

    def atom(self, rendered: str) -> str:
        """Hook applied to every atomic predicate's rendered text.

        The identity here; the sqlite executable emitter overrides it to
        collapse NULL to false the way the reference engine does.
        """
        return rendered

    def predicate(self, pred: Predicate, parent: str = "") -> str:
        if isinstance(pred, Comparison):
            left, right = self.operand(pred.left), self.operand(pred.right)
            return self.atom(f"{left} {pred.op.value} {right}")
        if isinstance(pred, Between):
            column = self.column_ref(pred.column)
            low, high = self.operand(pred.low), self.operand(pred.high)
            return self.atom(f"{column} BETWEEN {low} AND {high}")
        if isinstance(pred, InPredicate):
            column = self.column_ref(pred.column)
            neg = "NOT " if pred.negated else ""
            if pred.subquery is not None:
                inner = self.query(pred.subquery.query)
            else:
                inner = ", ".join(self.operand(v) for v in pred.values)
            return self.atom(f"{column} {neg}IN ({inner})")
        if isinstance(pred, Like):
            column = self.column_ref(pred.column)
            neg = "NOT " if pred.negated else ""
            return self.atom(f"{column} {neg}LIKE {self.operand(pred.pattern)}")
        if isinstance(pred, Exists):
            neg = "NOT " if pred.negated else ""
            return self.atom(f"{neg}EXISTS ({self.query(pred.subquery.query)})")
        if isinstance(pred, Not):
            return f"NOT ({self.predicate(pred.operand)})"
        if isinstance(pred, And):
            rendered = " AND ".join(
                self.predicate(p, parent="and") for p in pred.operands
            )
            return f"({rendered})" if parent == "or" else rendered
        if isinstance(pred, Or):
            rendered = " OR ".join(
                self.predicate(p, parent="or") for p in pred.operands
            )
            # OR binds weaker than AND, so parenthesize inside an AND.
            return f"({rendered})" if parent == "and" else rendered
        raise TypeError(f"unsupported predicate: {pred!r}")

    def order(self, item: OrderItem) -> str:
        expr = (
            self.aggregate(item.expr)
            if isinstance(item.expr, Aggregate)
            else self.column_ref(item.expr)
        )
        return f"{expr} DESC" if item.desc else expr


#: Shared default-dialect printer; its output is the canonical surface.
_DEFAULT_PRINTER = SqlPrinter("default")


def to_sql(query: Query, dialect: str | Dialect = "default") -> str:
    """Render ``query`` as a single-line SQL string in ``dialect``.

    The default-dialect text is memoized in the query's ``__dict__``
    (fields stay frozen), as ``TrainingPair`` memoizes its SQL: one
    served answer is printed by post-processing, the repair loop and the
    executor's cache key.  Every AST node is frozen and holds only
    tuples, so the text cannot go stale; other dialects never read it.
    """
    if dialect == "default":
        memo = query.__dict__
        text = memo.get("_default_sql")
        if text is None:
            text = memo["_default_sql"] = _DEFAULT_PRINTER.query(query)
        return text
    return SqlPrinter(dialect).query(query)


def predicate_to_sql(pred: Predicate, dialect: str | Dialect = "default") -> str:
    """Render one predicate (used by the planner's EXPLAIN output)."""
    if dialect == "default":
        return _DEFAULT_PRINTER.predicate(pred)
    return SqlPrinter(dialect).predicate(pred)
