"""Render SQL ASTs back to SQL text.

The printer is the single source of truth for SQL surface syntax in the
reproduction: generated training pairs, model outputs, and benchmark
gold queries are all rendered through :func:`to_sql`, so exact-match
comparison over printed text is well-defined.  The sqlite backend
(:mod:`repro.adapters.sqlite3_adapter`) subclasses :class:`SqlPrinter`
to hook emission: its executable emitter overrides :meth:`~SqlPrinter.atom`
to collapse NULL and :meth:`~SqlPrinter.query` to add deterministic
tiebreaks, and quotes DDL names through :func:`quote_identifier`.

Identifiers that collide with reserved words or contain characters the
lexer would not read back as a single identifier are double-quoted, so
``parse(to_sql(q)) == q`` holds for any printable query, not just the
catalog's well-behaved names.
"""

from __future__ import annotations

import re

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
from repro.sql.lexer import KEYWORDS

#: Identifiers matching this render bare; anything else must be quoted.
_PLAIN_IDENTIFIER = re.compile(r"[a-z_][a-z0-9_]*$")


def quote_identifier(name: str) -> str:
    """Always-quoted form of ``name`` (double quotes doubled inside)."""
    return '"' + name.replace('"', '""') + '"'


def identifier(name: str) -> str:
    """``name`` bare when unambiguous, quoted when it collides with one
    of the lexer's keywords or contains characters the lexer would not
    read back as one identifier."""
    if name.lower() in KEYWORDS or not _PLAIN_IDENTIFIER.match(name):
        return quote_identifier(name)
    return name


def string_literal(value: str) -> str:
    """``value`` as a single-quoted SQL string literal.

    Single quotes are doubled; backslashes are *not* escape characters
    in standard SQL (nor in sqlite), so they pass through verbatim and
    round-trip the lexer unchanged.
    """
    return "'" + value.replace("'", "''") + "'"


class SqlPrinter:
    """AST-to-text emitter.

    Every syntactic construct is a method, so a backend can subclass and
    override just the piece its engine disagrees on.  The instance is
    stateless between calls and safe to reuse.
    """

    # -- queries -------------------------------------------------------

    def query(self, query: Query) -> str:
        """Render ``query`` as a single-line SQL string."""
        parts = ["SELECT"]
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
        if query.limit is not None:
            parts.append(f"LIMIT {query.limit}")
        return " ".join(parts)

    # -- names and values ----------------------------------------------

    def table(self, name: str) -> str:
        if name.startswith("@"):  # the @JOIN FROM placeholder (§5.1)
            return name
        return identifier(name)

    def column_ref(self, ref: ColumnRef) -> str:
        column = identifier(ref.column)
        if ref.table:
            return f"{identifier(ref.table)}.{column}"
        return column

    def literal(self, lit: Literal) -> str:
        if isinstance(lit.value, str):
            return string_literal(lit.value)
        return str(lit.value)

    def aggregate(self, agg: Aggregate) -> str:
        arg = "*" if isinstance(agg.arg, Star) else self.column_ref(agg.arg)
        inner = ("DISTINCT " if agg.distinct else "") + arg
        return f"{agg.func.value}({inner})"

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


#: Shared printer behind :func:`to_sql` and :func:`predicate_to_sql`.
_PRINTER = SqlPrinter()


def to_sql(query: Query) -> str:
    """Render ``query`` as a single-line SQL string.

    The text is memoized in the query's ``__dict__`` (fields stay
    frozen), as ``TrainingPair`` memoizes its SQL: one served answer is
    printed by post-processing, the repair loop and the executor's cache
    key.  Every AST node is frozen and holds only tuples, so the text
    cannot go stale.  Printer subclasses never read the memo.
    """
    memo = query.__dict__
    text = memo.get("_default_sql")
    if text is None:
        text = memo["_default_sql"] = _PRINTER.query(query)
    return text


def predicate_to_sql(pred: Predicate) -> str:
    """Render one predicate (used by the planner's EXPLAIN output)."""
    return _PRINTER.predicate(pred)
