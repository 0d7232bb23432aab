"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    query      := SELECT [DISTINCT] items FROM tables [WHERE or_pred]
                  [GROUP BY colrefs] [HAVING or_pred]
                  [ORDER BY order_items] [LIMIT number]
    items      := item (',' item)*
    item       := '*' | aggregate | colref
    aggregate  := FUNC '(' [DISTINCT] ('*' | colref) ')'
    tables     := name (',' name)*         -- a name may be @JOIN
    or_pred    := and_pred (OR and_pred)*
    and_pred   := unary_pred (AND unary_pred)*
    unary_pred := NOT unary_pred | '(' or_pred ')' | atom
    atom       := operand OP operand
                | colref [NOT] BETWEEN operand AND operand
                | colref [NOT] IN '(' (query | operand (',' operand)*) ')'
                | colref [NOT] LIKE operand
                | [NOT] EXISTS '(' query ')'
    operand    := literal | placeholder | aggregate | colref
                | '(' query ')'

The parser builds the frozen AST of :mod:`repro.sql.ast`.  It is the
inverse of :func:`repro.sql.printer.to_sql` up to normalization of
keyword case and redundant parentheses.
"""

from __future__ import annotations

from repro.errors import SqlParseError
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    CompOp,
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
    Span,
    Star,
    Subquery,
)
from repro.sql.lexer import Token, TokenType, tokenize

_AGG_NAMES = {f.value.lower() for f in AggFunc}


class _Parser:
    def __init__(self, tokens: list[Token], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0

    # -- token helpers --------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _check(self, ttype: TokenType, value: str | None = None) -> bool:
        return self._current.matches(ttype, value)

    def _accept(self, ttype: TokenType, value: str | None = None) -> Token | None:
        if self._check(ttype, value):
            return self._advance()
        return None

    def _expect(self, ttype: TokenType, value: str | None = None) -> Token:
        token = self._accept(ttype, value)
        if token is None:
            got = self._current
            want = value or ttype.value
            raise SqlParseError(
                f"expected {want!r} but found {got.value!r} at position "
                f"{got.position} in {self._text!r}"
            )
        return token

    def _keyword(self, word: str) -> bool:
        return self._accept(TokenType.KEYWORD, word) is not None

    def _span_from(self, start_index: int) -> Span:
        """Span covering tokens ``start_index`` .. the last one consumed."""
        start = self._tokens[start_index]
        last = self._tokens[max(start_index, self._index - 1)]
        return Span(start.position, last.end)

    # -- grammar --------------------------------------------------------

    def parse_query(self) -> Query:
        start = self._index
        self._expect(TokenType.KEYWORD, "select")
        distinct = self._keyword("distinct")
        select = self._parse_select_items()
        self._expect(TokenType.KEYWORD, "from")
        from_tables = self._parse_tables()
        where = None
        if self._keyword("where"):
            where = self._parse_or()
        group_by: tuple[ColumnRef, ...] = ()
        if self._keyword("group"):
            self._expect(TokenType.KEYWORD, "by")
            group_by = self._parse_column_list()
        having = None
        if self._keyword("having"):
            having = self._parse_or()
        order_by: tuple[OrderItem, ...] = ()
        if self._keyword("order"):
            self._expect(TokenType.KEYWORD, "by")
            order_by = self._parse_order_items()
        limit = None
        if self._keyword("limit"):
            limit = self._parse_limit()
        return Query(
            select=select,
            from_tables=from_tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            span=self._span_from(start),
        )

    def _parse_limit(self) -> int:
        """A non-negative integer literal.  ``LIMIT 2.5`` and ``LIMIT -1``
        are refused here, because the engines would disagree on them
        (a slice drops the last row where sqlite reads "no limit")."""
        token = self._current
        value = token.value
        if not (token.type is TokenType.NUMBER and value.isascii() and value.isdigit()):
            raise SqlParseError(
                f"LIMIT takes a non-negative integer but found {value!r} at "
                f"position {token.position} in {self._text!r}"
            )
        self._advance()
        return int(value)

    def _parse_select_items(self):
        items = [self._parse_select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self):
        start = self._index
        if self._accept(TokenType.STAR):
            return Star(span=self._span_from(start))
        if self._current.type is TokenType.KEYWORD and self._current.value in _AGG_NAMES:
            return self._parse_aggregate()
        return self._parse_column_ref()

    def _parse_aggregate(self) -> Aggregate:
        start = self._index
        func = AggFunc(self._advance().value.upper())
        self._expect(TokenType.PUNCT, "(")
        distinct = self._keyword("distinct")
        if self._check(TokenType.STAR):
            inner = self._index
            self._advance()
            arg: ColumnRef | Star = Star(span=self._span_from(inner))
        else:
            arg = self._parse_column_ref()
        self._expect(TokenType.PUNCT, ")")
        return Aggregate(func, arg, distinct, span=self._span_from(start))

    def _parse_column_ref(self) -> ColumnRef:
        start = self._index
        first = self._expect(TokenType.IDENT).value
        if self._accept(TokenType.PUNCT, "."):
            second = self._expect(TokenType.IDENT).value
            return ColumnRef(second, table=first, span=self._span_from(start))
        return ColumnRef(first, span=self._span_from(start))

    def _parse_column_list(self) -> tuple[ColumnRef, ...]:
        cols = [self._parse_column_ref()]
        while self._accept(TokenType.PUNCT, ","):
            cols.append(self._parse_column_ref())
        return tuple(cols)

    def _parse_tables(self) -> tuple[str, ...]:
        tables = [self._parse_table_name()]
        while self._accept(TokenType.PUNCT, ","):
            tables.append(self._parse_table_name())
        return tuple(tables)

    def _parse_table_name(self) -> str:
        placeholder = self._accept(TokenType.PLACEHOLDER)
        if placeholder is not None:
            return "@" + placeholder.value
        return self._expect(TokenType.IDENT).value

    def _parse_order_items(self) -> tuple[OrderItem, ...]:
        items = [self._parse_order_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderItem:
        if self._current.type is TokenType.KEYWORD and self._current.value in _AGG_NAMES:
            expr: ColumnRef | Aggregate = self._parse_aggregate()
        else:
            expr = self._parse_column_ref()
        desc = False
        if self._keyword("desc"):
            desc = True
        else:
            self._keyword("asc")
        return OrderItem(expr, desc)

    # -- predicates ------------------------------------------------------

    def _parse_or(self) -> Predicate:
        operands = [self._parse_and()]
        while self._keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _parse_and(self) -> Predicate:
        operands = [self._parse_unary()]
        while self._keyword("and"):
            operands.append(self._parse_unary())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _parse_unary(self) -> Predicate:
        if self._check(TokenType.KEYWORD, "not"):
            # NOT EXISTS is handled in the atom for a tidier AST.
            next_token = self._tokens[self._index + 1]
            if not next_token.matches(TokenType.KEYWORD, "exists"):
                self._advance()
                return Not(self._parse_unary())
        if self._check(TokenType.PUNCT, "("):
            # Either a parenthesized predicate or a scalar subquery
            # comparison; look ahead for SELECT.
            next_token = self._tokens[self._index + 1]
            if not next_token.matches(TokenType.KEYWORD, "select"):
                self._advance()
                inner = self._parse_or()
                self._expect(TokenType.PUNCT, ")")
                return inner
        return self._parse_atom()

    def _parse_atom(self) -> Predicate:
        start = self._index
        negated = self._keyword("not")
        if self._keyword("exists"):
            self._expect(TokenType.PUNCT, "(")
            sub = self.parse_query()
            self._expect(TokenType.PUNCT, ")")
            return Exists(Subquery(sub), negated=negated, span=self._span_from(start))
        if negated:
            raise SqlParseError(
                f"NOT must be followed by EXISTS or a predicate in {self._text!r}"
            )
        left = self._parse_operand()
        if self._check(TokenType.KEYWORD, "not") or self._check(TokenType.KEYWORD, "between") \
                or self._check(TokenType.KEYWORD, "in") or self._check(TokenType.KEYWORD, "like"):
            if not isinstance(left, ColumnRef):
                raise SqlParseError(
                    f"BETWEEN/IN/LIKE require a column on the left in {self._text!r}"
                )
            negated = self._keyword("not")
            if self._keyword("between"):
                low = self._parse_operand()
                self._expect(TokenType.KEYWORD, "and")
                high = self._parse_operand()
                between = Between(left, low, high, span=self._span_from(start))
                return Not(between) if negated else between
            if self._keyword("in"):
                return self._parse_in_tail(left, negated, start)
            if self._keyword("like"):
                pattern = self._parse_operand()
                return Like(left, pattern, negated=negated, span=self._span_from(start))
            raise SqlParseError(f"dangling NOT in {self._text!r}")
        op_token = self._expect(TokenType.OP)
        op = CompOp(op_token.value)
        right = self._parse_operand()
        return Comparison(left, op, right, span=self._span_from(start))

    def _parse_in_tail(
        self, column: ColumnRef, negated: bool, start: int
    ) -> InPredicate:
        self._expect(TokenType.PUNCT, "(")
        if self._check(TokenType.KEYWORD, "select"):
            sub = self.parse_query()
            self._expect(TokenType.PUNCT, ")")
            return InPredicate(
                column,
                subquery=Subquery(sub),
                negated=negated,
                span=self._span_from(start),
            )
        values = [self._parse_operand()]
        while self._accept(TokenType.PUNCT, ","):
            values.append(self._parse_operand())
        self._expect(TokenType.PUNCT, ")")
        return InPredicate(
            column,
            values=tuple(values),
            negated=negated,
            span=self._span_from(start),
        )

    def _parse_operand(self):
        token = self._current
        span = Span(token.position, token.end)
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            return Literal(float(text) if "." in text else int(text), span=span)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value, span=span)
        if token.type is TokenType.PLACEHOLDER:
            self._advance()
            return Placeholder(token.value, span=span)
        if token.type is TokenType.KEYWORD and token.value in _AGG_NAMES:
            return self._parse_aggregate()
        if token.matches(TokenType.PUNCT, "("):
            self._advance()
            sub = self.parse_query()
            self._expect(TokenType.PUNCT, ")")
            return Subquery(sub)
        if token.type is TokenType.IDENT:
            return self._parse_column_ref()
        raise SqlParseError(
            f"unexpected token {token.value!r} at position {token.position} "
            f"in {self._text!r}"
        )

    def finish(self) -> None:
        if not self._check(TokenType.EOF):
            token = self._current
            raise SqlParseError(
                f"trailing input {token.value!r} at position {token.position} "
                f"in {self._text!r}"
            )


def parse(sql: str) -> Query:
    """Parse ``sql`` into a :class:`~repro.sql.ast.Query`.

    Raises :class:`~repro.errors.SqlParseError` (or
    :class:`~repro.errors.SqlLexError`) on invalid input.
    """
    parser = _Parser(tokenize(sql), sql)
    query = parser.parse_query()
    parser.finish()
    return query


def try_parse(sql: str) -> Query | None:
    """Parse ``sql`` or return None when it is not valid in the subset.

    Model outputs are frequently malformed; the runtime post-processor
    uses this to distinguish repairable from unrepairable translations.
    """
    from repro.errors import SqlError

    try:
        return parse(sql)
    except SqlError:
        return None
