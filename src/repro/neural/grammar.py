"""A token-level SQL grammar automaton for constrained decoding.

Our SyntaxSQLNet stand-in (DESIGN.md substitution #2) augments the
seq2seq decoder with syntax awareness: at every decoding step, the
automaton computes which target tokens may legally follow the decoded
prefix, and the decoder masks out everything else.  This mirrors the
role of SyntaxSQLNet's syntax-tree decoder — the network never has the
opportunity to emit structurally invalid SQL.

The automaton tracks clause order (SELECT → FROM → WHERE → GROUP BY →
HAVING → ORDER BY → LIMIT), item/predicate structure, and a frame stack
for subqueries and parenthesized predicate groups.  It accepts exactly
the token streams produced by :func:`repro.neural.base.sql_to_tokens`
over the supported SQL subset (verified by property tests).
"""

from __future__ import annotations

import re

import numpy as np

from repro.nlp.vocab import Vocab
from repro.sql.ast import JOIN_PLACEHOLDER

# Symbol categories.
IDENT = "IDENT"
PLACEHOLDER = "PLACEHOLDER"
NUMBER = "NUMBER"
STRING = "STRING"
JOIN_PH = "JOIN_PH"
OP = "OP"
END = "END"

_AGG_KEYWORDS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})
_KEYWORDS = frozenset(
    """
    SELECT DISTINCT FROM WHERE GROUP BY HAVING ORDER LIMIT
    AND OR NOT BETWEEN IN LIKE EXISTS ASC DESC
    """.split()
) | _AGG_KEYWORDS
_PUNCT = frozenset({"(", ")", ",", ".", "*"})
_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")

#: States in which '(' pushes a subquery or predicate-group frame.
_FRAME_OPENING_STATES = frozenset(
    {"pred_start", "pred_not", "pred_value", "exists_open"}
)

#: Clauses that may follow a completed FROM/WHERE/... section, in order.
_TAIL = ("WHERE", "GROUP", "ORDER", "LIMIT")


def classify(token: str) -> str:
    """Map a target token to its grammar symbol."""
    if token == JOIN_PLACEHOLDER:
        return JOIN_PH
    if token.startswith("@"):
        return PLACEHOLDER
    if token in _KEYWORDS:
        return token
    if token in _PUNCT:
        return token
    if token in _OPS:
        return OP
    if _NUMBER_RE.match(token):
        return NUMBER
    if token.startswith("'"):
        return STRING
    return IDENT


class _Frame:
    """One query frame (top-level query, subquery, or predicate group)."""

    __slots__ = (
        "state",
        "kind",
        "done_clauses",
        "pred_context",
        "agg_origin",
        "agg_keyword",
    )

    def __init__(self, kind: str = "query") -> None:
        # kind: "query" (top level), "subquery", "group" (pred parens)
        self.kind = kind
        self.state = "start" if kind != "group" else "pred_start"
        self.done_clauses: set[str] = set()
        # "where" or "having": whether aggregates may start a predicate.
        self.pred_context = "where"
        # Where the aggregate being decoded came from: "" (select item),
        # "pred" (HAVING predicate), or "order" (ORDER BY key).
        self.agg_origin = ""
        # The keyword of the aggregate being decoded: only a plain
        # ``COUNT (`` may take ``*``.
        self.agg_keyword = ""


class GrammarViolation(Exception):
    """Internal: the prefix cannot be extended by the given token."""


class SqlDecodingAutomaton:
    """Incrementally validates/constrains a target token stream.

    ``max_depth`` bounds the frame stack (query + nested subqueries /
    predicate groups).  The paper's SQL subset only uses single-level
    uncorrelated nesting (§5.2), and the bound keeps a looping decoder
    from recursing until truncation.
    """

    def __init__(self, max_depth: int = 3) -> None:
        self._stack = [_Frame("query")]
        self._max_depth = max_depth

    # -- public API ------------------------------------------------------

    def advance(self, token: str) -> None:
        """Consume one token; raises :class:`GrammarViolation` if illegal."""
        symbol = classify(token)
        if symbol not in self.allowed_symbols():
            raise GrammarViolation(f"token {token!r} ({symbol}) not allowed")
        self._transition(symbol)

    def allowed_symbols(self) -> frozenset[str]:
        """Symbols that may come next (END = end of sequence)."""
        frame = self._stack[-1]
        allowed = set(self._allowed_for(frame))
        if len(self._stack) >= self._max_depth:
            # At maximum depth no further frames may open: block a
            # parenthesis that would open one and the tokens that
            # inevitably lead to one (NOT -> EXISTS -> '(' and IN's
            # nested SELECT).  An aggregate's or an IN list's '(' opens
            # no frame and stays allowed.
            if frame.state in _FRAME_OPENING_STATES:
                allowed.discard("(")
            if frame.state == "pred_start":
                allowed.discard("EXISTS")
                allowed.discard("NOT")
            if frame.state == "in_first":
                allowed.discard("SELECT")
        return frozenset(allowed)

    def accepts(self, tokens: list[str]) -> bool:
        """Whether the full token list is a valid complete query."""
        automaton = SqlDecodingAutomaton()
        try:
            for token in tokens:
                automaton.advance(token)
        except GrammarViolation:
            return False
        return END in automaton.allowed_symbols()

    # -- allowed-symbol computation ---------------------------------------

    _CLAUSE_ORDER = {"WHERE": 0, "GROUP": 1, "HAVING": 2, "ORDER": 3, "LIMIT": 4}

    def _tail_symbols(self, frame: _Frame) -> set[str]:
        """Clause keywords that may still open, plus frame terminators."""
        if frame.kind == "group":
            # A parenthesized predicate group only closes or continues
            # with AND/OR (handled by the predicate states).
            return {")"}
        highest = max(
            (self._CLAUSE_ORDER[c] for c in frame.done_clauses), default=-1
        )
        allowed = {c for c, rank in self._CLAUSE_ORDER.items() if rank > highest}
        if "GROUP" not in frame.done_clauses:
            allowed.discard("HAVING")
        if frame.kind == "query":
            allowed.add(END)
        else:
            allowed.add(")")
        return allowed

    def _allowed_for(self, frame: _Frame) -> set[str]:
        state = frame.state
        if state == "start":
            return {"SELECT"}
        if state == "post_select":
            return {"DISTINCT", IDENT, "*"} | _AGG_KEYWORDS
        if state == "item_start":
            return {IDENT, "*"} | _AGG_KEYWORDS
        if state == "item_star":
            return {",", "FROM"}
        if state == "item_ident":
            return {".", ",", "FROM"}
        if state == "item_ident_dot":
            return {IDENT}
        if state == "item_ident_done":
            return {",", "FROM"}
        if state == "agg_open":
            return {"("}
        if state == "agg_arg":
            if frame.agg_keyword == "COUNT":
                return {"DISTINCT", IDENT, "*"}
            return {"DISTINCT", IDENT}
        if state == "agg_arg_nodistinct":
            return {IDENT}
        if state == "agg_ident":
            return {".", ")"}
        if state == "agg_ident_dot":
            return {IDENT}
        if state == "agg_ident_done":
            return {")"}
        if state == "agg_star":
            return {")"}
        if state == "from":
            return {IDENT, JOIN_PH}
        if state == "from_table":
            return {","} | self._tail_symbols(frame)
        if state == "pred_start":
            allowed = {IDENT, "NOT", "EXISTS", "("}
            if frame.pred_context == "having":
                allowed |= _AGG_KEYWORDS
            return allowed
        if state == "pred_not":
            return {"EXISTS", "("}
        if state == "pred_col":
            return {".", OP, "BETWEEN", "IN", "LIKE", "NOT"}
        if state == "pred_col_dot":
            return {IDENT}
        if state == "pred_col_done":
            return {OP, "BETWEEN", "IN", "LIKE", "NOT"}
        if state == "pred_col_not":
            return {"BETWEEN", "IN", "LIKE"}
        if state == "pred_value":
            return {PLACEHOLDER, NUMBER, STRING, IDENT, "("}
        if state == "pred_value_ident":
            return {".", "AND", "OR"} | self._tail_symbols(frame)
        if state == "pred_value_ident_dot":
            return {IDENT}
        if state == "pred_done":
            return {"AND", "OR"} | self._tail_symbols(frame)
        if state == "between_low":
            return {PLACEHOLDER, NUMBER}
        if state == "between_and":
            return {"AND"}
        if state == "between_high":
            return {PLACEHOLDER, NUMBER}
        if state == "in_open":
            return {"("}
        if state == "in_first":
            return {"SELECT", PLACEHOLDER, NUMBER, STRING}
        if state == "in_value":
            return {",", ")"}
        if state == "in_next":
            return {PLACEHOLDER, NUMBER, STRING}
        if state == "like_value":
            return {STRING, PLACEHOLDER}
        if state == "exists_open":
            return {"("}
        if state == "group":
            return {"BY"}
        if state == "group_col":
            return {IDENT}
        if state == "group_col_ident":
            return {".", ","} | self._tail_symbols(frame)
        if state == "group_col_dot":
            return {IDENT}
        if state == "group_col_done":
            return {","} | self._tail_symbols(frame)
        if state == "having_agg_done":
            return {OP}
        if state == "order":
            return {"BY"}
        if state == "order_col":
            return {IDENT} | _AGG_KEYWORDS
        if state == "order_ident":
            return {".", "DESC", "ASC", ","} | self._tail_symbols(frame)
        if state == "order_ident_dot":
            return {IDENT}
        if state == "order_done":
            return {"DESC", "ASC", ","} | self._tail_symbols(frame)
        if state == "order_final":
            return {","} | self._tail_symbols(frame)
        if state == "limit":
            return {NUMBER}
        if state == "limit_done":
            return self._tail_symbols(frame) - set(_TAIL) - {"HAVING"}
        raise AssertionError(f"unknown state {state!r}")

    # -- transitions -------------------------------------------------------

    def _transition(self, symbol: str) -> None:
        frame = self._stack[-1]
        state = frame.state

        # Frame termination and tail clauses are shared across states.
        if symbol == ")" and state in (
            "from_table",
            "pred_done",
            "pred_value_ident",
            "group_col_ident",
            "group_col_done",
            "order_ident",
            "order_done",
            "order_final",
            "limit_done",
            "in_value",
        ):
            if state == "in_value":
                frame.state = "pred_done"
                return
            self._pop_frame()
            return
        if symbol in ("WHERE", "GROUP", "ORDER", "LIMIT", "HAVING") and state in (
            "from_table",
            "pred_done",
            "pred_value_ident",
            "group_col_ident",
            "group_col_done",
            "order_ident",
            "order_done",
            "order_final",
        ):
            frame.done_clauses.add(symbol if symbol != "HAVING" else "HAVING")
            if symbol == "WHERE":
                frame.pred_context = "where"
                frame.state = "pred_start"
            elif symbol == "GROUP":
                frame.state = "group"
            elif symbol == "HAVING":
                frame.pred_context = "having"
                frame.state = "pred_start"
            elif symbol == "ORDER":
                frame.state = "order"
            else:
                frame.state = "limit"
            return

        handler = getattr(self, "_on_" + state, None)
        if handler is None:
            raise GrammarViolation(f"no transition from {state!r} on {symbol!r}")
        handler(frame, symbol)

    def _pop_frame(self) -> None:
        if len(self._stack) <= 1:
            raise GrammarViolation("unbalanced )")
        self._stack.pop()
        parent = self._stack[-1]
        # Returning from a subquery or predicate group completes a
        # predicate (scalar comparison, IN, EXISTS, group).
        parent.state = "pred_done"

    # Individual state handlers -------------------------------------------

    def _on_start(self, frame, symbol):
        frame.state = "post_select"

    def _on_post_select(self, frame, symbol):
        if symbol == "DISTINCT":
            frame.state = "item_start"
        else:
            self._begin_item(frame, symbol)

    def _on_item_start(self, frame, symbol):
        self._begin_item(frame, symbol)

    def _begin_item(self, frame, symbol):
        if symbol == "*":
            frame.state = "item_star"
        elif symbol == IDENT:
            frame.state = "item_ident"
        elif symbol in _AGG_KEYWORDS:
            self._open_agg(frame, symbol, "")
        else:
            raise GrammarViolation(f"bad item start {symbol!r}")

    def _on_item_star(self, frame, symbol):
        self._after_item(frame, symbol)

    def _on_item_ident(self, frame, symbol):
        if symbol == ".":
            frame.state = "item_ident_dot"
        else:
            self._after_item(frame, symbol)

    def _on_item_ident_dot(self, frame, symbol):
        frame.state = "item_ident_done"

    def _on_item_ident_done(self, frame, symbol):
        self._after_item(frame, symbol)

    def _after_item(self, frame, symbol):
        if symbol == ",":
            frame.state = "item_start"
        elif symbol == "FROM":
            frame.state = "from"
        else:
            raise GrammarViolation(f"bad token after item: {symbol!r}")

    def _open_agg(self, frame, keyword, origin):
        frame.agg_keyword, frame.agg_origin = keyword, origin
        frame.state = "agg_open"

    def _on_agg_open(self, frame, symbol):
        frame.state = "agg_arg"

    def _on_agg_arg(self, frame, symbol):
        if symbol == "DISTINCT":
            frame.state = "agg_arg_nodistinct"
        elif symbol == IDENT:
            frame.state = "agg_ident"
        else:
            frame.state = "agg_star"

    def _on_agg_arg_nodistinct(self, frame, symbol):
        frame.state = "agg_ident"

    def _on_agg_ident(self, frame, symbol):
        if symbol == ".":
            frame.state = "agg_ident_dot"
        else:
            self._close_agg(frame)

    def _on_agg_ident_dot(self, frame, symbol):
        frame.state = "agg_ident_done"

    def _on_agg_ident_done(self, frame, symbol):
        self._close_agg(frame)

    def _on_agg_star(self, frame, symbol):
        self._close_agg(frame)

    def _close_agg(self, frame):
        origin, frame.agg_origin, frame.agg_keyword = frame.agg_origin, "", ""
        if origin == "pred":
            frame.state = "having_agg_done"
        elif origin == "order":
            frame.state = "order_done"
        else:
            frame.state = "item_ident_done"

    def _on_from(self, frame, symbol):
        frame.state = "from_table"

    def _on_from_table(self, frame, symbol):
        if symbol == ",":
            frame.state = "from"
        else:
            raise GrammarViolation(f"bad token after FROM table: {symbol!r}")

    def _on_pred_start(self, frame, symbol):
        if symbol == IDENT:
            frame.state = "pred_col"
        elif symbol == "NOT":
            frame.state = "pred_not"
        elif symbol == "EXISTS":
            frame.state = "exists_open"
        elif symbol == "(":
            self._stack.append(_Frame("group"))
        elif symbol in _AGG_KEYWORDS:
            self._open_agg(frame, symbol, "pred")
        else:
            raise GrammarViolation(f"bad predicate start {symbol!r}")

    def _on_pred_not(self, frame, symbol):
        if symbol == "EXISTS":
            frame.state = "exists_open"
        else:
            self._stack.append(_Frame("group"))

    def _on_pred_col(self, frame, symbol):
        if symbol == ".":
            frame.state = "pred_col_dot"
        else:
            self._after_pred_col(frame, symbol)

    def _on_pred_col_dot(self, frame, symbol):
        frame.state = "pred_col_done"

    def _on_pred_col_done(self, frame, symbol):
        self._after_pred_col(frame, symbol)

    def _after_pred_col(self, frame, symbol):
        if symbol == OP:
            frame.state = "pred_value"
        elif symbol == "BETWEEN":
            frame.state = "between_low"
        elif symbol == "IN":
            frame.state = "in_open"
        elif symbol == "LIKE":
            frame.state = "like_value"
        elif symbol == "NOT":
            frame.state = "pred_col_not"
        else:
            raise GrammarViolation(f"bad token after predicate column: {symbol!r}")

    def _on_pred_col_not(self, frame, symbol):
        if symbol == "BETWEEN":
            frame.state = "between_low"
        elif symbol == "IN":
            frame.state = "in_open"
        else:
            frame.state = "like_value"

    def _on_pred_value(self, frame, symbol):
        if symbol == "(":
            self._stack.append(_Frame("subquery"))
        elif symbol == IDENT:
            frame.state = "pred_value_ident"
        else:
            frame.state = "pred_done"

    def _on_pred_value_ident(self, frame, symbol):
        if symbol == ".":
            frame.state = "pred_value_ident_dot"
        else:
            self._on_pred_done(frame, symbol)

    def _on_pred_value_ident_dot(self, frame, symbol):
        frame.state = "pred_done"

    def _on_pred_done(self, frame, symbol):
        if symbol in ("AND", "OR"):
            frame.state = "pred_start"
        else:
            raise GrammarViolation(f"bad token after predicate: {symbol!r}")

    def _on_between_low(self, frame, symbol):
        frame.state = "between_and"

    def _on_between_and(self, frame, symbol):
        frame.state = "between_high"

    def _on_between_high(self, frame, symbol):
        frame.state = "pred_done"

    def _on_in_open(self, frame, symbol):
        frame.state = "in_first"

    def _on_in_first(self, frame, symbol):
        if symbol == "SELECT":
            frame.state = "pred_done"  # will be overwritten on pop
            sub = _Frame("subquery")
            sub.state = "post_select"
            self._stack.append(sub)
        else:
            frame.state = "in_value"

    def _on_in_value(self, frame, symbol):
        if symbol == ",":
            frame.state = "in_next"
        else:
            raise GrammarViolation(f"bad token in IN list: {symbol!r}")

    def _on_in_next(self, frame, symbol):
        frame.state = "in_value"

    def _on_like_value(self, frame, symbol):
        frame.state = "pred_done"

    def _on_exists_open(self, frame, symbol):
        self._stack.append(_Frame("subquery"))

    def _on_group(self, frame, symbol):
        frame.state = "group_col"

    def _on_group_col(self, frame, symbol):
        frame.state = "group_col_ident"

    def _on_group_col_ident(self, frame, symbol):
        if symbol == ".":
            frame.state = "group_col_dot"
        elif symbol == ",":
            frame.state = "group_col"
        else:
            raise GrammarViolation(f"bad token in GROUP BY: {symbol!r}")

    def _on_group_col_dot(self, frame, symbol):
        frame.state = "group_col_done"

    def _on_group_col_done(self, frame, symbol):
        if symbol == ",":
            frame.state = "group_col"
        else:
            raise GrammarViolation(f"bad token in GROUP BY: {symbol!r}")

    def _on_having_agg_done(self, frame, symbol):
        frame.state = "pred_value"

    def _on_order(self, frame, symbol):
        frame.state = "order_col"

    def _on_order_col(self, frame, symbol):
        if symbol in _AGG_KEYWORDS:
            self._open_agg(frame, symbol, "order")
        else:
            frame.state = "order_ident"

    def _on_order_ident(self, frame, symbol):
        if symbol == ".":
            frame.state = "order_ident_dot"
        elif symbol in ("DESC", "ASC"):
            frame.state = "order_final"
        elif symbol == ",":
            frame.state = "order_col"
        else:
            raise GrammarViolation(f"bad token in ORDER BY: {symbol!r}")

    def _on_order_ident_dot(self, frame, symbol):
        frame.state = "order_done"

    def _on_order_done(self, frame, symbol):
        if symbol in ("DESC", "ASC"):
            frame.state = "order_final"
        elif symbol == ",":
            frame.state = "order_col"
        else:
            raise GrammarViolation(f"bad token in ORDER BY: {symbol!r}")

    def _on_order_final(self, frame, symbol):
        if symbol == ",":
            frame.state = "order_col"
        else:
            raise GrammarViolation(f"bad token after ORDER item: {symbol!r}")

    def _on_limit(self, frame, symbol):
        frame.state = "limit_done"

    def _on_limit_done(self, frame, symbol):
        raise GrammarViolation(f"bad token after LIMIT: {symbol!r}")


class GrammarMask:
    """Caches vocab classification and produces next-token masks."""

    def __init__(self, vocab: Vocab) -> None:
        self._vocab = vocab
        self._symbols = [classify(t) for t in vocab.tokens]
        # Special tokens get impossible symbols so they're never allowed
        # except EOS, which maps to END.
        from repro.nlp.vocab import BOS, EOS, PAD, UNK

        for index, token in enumerate(vocab.tokens):
            if token == EOS:
                self._symbols[index] = END
            elif token in (PAD, BOS, UNK):
                self._symbols[index] = "__special__"
        # Allowed-symbol set -> read-only vocabulary mask.
        self._masks: dict[frozenset[str], np.ndarray] = {}

    def mask_for(self, decoded: list[str]) -> np.ndarray | None:
        """Boolean vocab mask for the next token after ``decoded``.

        Returns None (no constraint) if the prefix itself is invalid —
        defensive, should not happen when decoding under the mask.  The
        mask is shared by every prefix with the same allowed symbols, so
        it is read-only.
        """
        automaton = SqlDecodingAutomaton()
        try:
            for token in decoded:
                automaton.advance(token)
        except GrammarViolation:
            return None
        allowed = automaton.allowed_symbols()
        mask = self._masks.get(allowed)
        if mask is None:
            mask = np.array([s in allowed for s in self._symbols])
            mask.flags.writeable = False
            self._masks[allowed] = mask
        return mask
