"""Budgeted execute–verify–repair pipeline for the serving tier.

A trained NL2SQL model still emits near-miss queries: a misspelled
column, a FROM clause the join graph cannot connect, an aggregate in
WHERE, a placeholder that never got a constant.  This module turns the
serving tier's first guess into a verified answer in three stages:

1. **verify** — run the candidate through the semantic analyzer
   (:func:`repro.analysis.analyze_query`); ``L1xx`` codes name the
   broken clause, :class:`~repro.analysis.diagnostics.FixHint` names the
   broken identifier;
2. **repair** — apply targeted AST edits keyed on the diagnostic code
   (:mod:`repro.sql.edits`): unknown column → nearest schema synonym
   via the value index / NL annotations, missing join path → FK-path
   inference over the schema join graph, aggregate/grouping misuse →
   clause rewrite, unbound placeholder → constant re-binding from the
   anonymization map — then re-lint and iterate;
3. **re-rank** — execute surviving lint-clean candidates against the
   sampled database through the :class:`~repro.adapters.BackendAdapter`
   protocol, preferring candidates that execute cleanly and return
   non-degenerate results.

The whole loop runs under a :class:`RepairBudget` (attempts, wall-clock
deadline, per-stage execute timeout) that charges every lint/repair/
execute step.  Degradation order: repaired → best-unverified → the
caller's existing stale-cache/keyword-fallback chain.  ``run`` **never
raises**: every outcome — including budget-exhausted and fault-injected
runs — is a :class:`RepairReport` carrying a structured per-step
:class:`RepairTrace`.

Stage timeouts are cooperative, not pre-emptive: an execute step that
overruns ``execute_timeout`` is not killed, its verdict is demoted to
``timeout`` and the loop degrades — honest semantics for in-thread
work, and exactly reproducible through the :data:`~repro.core.faults.
SLOW_EXECUTE` fault hook, which charges *virtual* seconds.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, FixHint, Severity
from repro.analysis.sql_semantics import analyze_query
from repro.core.faults import (
    ADAPTER_CRASH,
    NO_REPAIR_FAULTS,
    REPAIR_OSCILLATE,
    SLOW_EXECUTE,
    RepairFaultPlan,
)
from repro.db.index import ValueIndex
from repro.db.similarity import TrigramPhrase, jaccard_trigram
from repro.errors import (
    E_REPAIR_BUDGET,
    E_REPAIR_EXEC,
    E_REPAIR_OSCILLATION,
    E_REPAIR_UNFIXABLE,
    SchemaError,
    ServingError,
)
from repro.schema.schema import Schema
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    Between,
    ColumnRef,
    CompOp,
    Comparison,
    InPredicate,
    Like,
    Literal,
    Predicate,
    Query,
    conjoin,
    conjuncts,
)
from repro.sql.edits import (
    add_group_by,
    map_column_refs,
    map_placeholders,
    move_aggregate_conjuncts_to_having,
    move_having_to_where,
    qualify_column,
    rename_column,
    rename_table,
    replace_aggregate_func,
)
from repro.sql.printer import to_sql

#: Repair outcomes (terminal, exactly one per run).
CLEAN = "clean"  # first guess lint-clean; no repair needed
REPAIRED = "repaired"  # a repaired candidate is being served
ABANDONED = "abandoned"  # no strategy / oscillation / execution refuted
EXHAUSTED = "budget_exhausted"  # attempts or deadline ran out first

#: Execution verdicts for one candidate.
EXEC_OK = "ok"  # executed cleanly, non-degenerate rows
EXEC_EMPTY = "empty"  # executed cleanly but degenerate (no rows)
EXEC_TIMEOUT = "timeout"  # ran past the per-stage execute timeout
EXEC_ERROR = "error"  # raised (including injected adapter crashes)

#: Verdict preference for re-ranking (lower is better).
_VERDICT_RANK = {EXEC_OK: 0, EXEC_EMPTY: 1, EXEC_TIMEOUT: 2, EXEC_ERROR: 3}

#: Minimum trigram similarity for a rename candidate.
_SIMILARITY_FLOOR = 0.3
#: Second-best candidates within this margin spawn an alternate variant.
_ALTERNATE_MARGIN = 0.15
#: Distinct candidates each verdict memo remembers per pipeline.
_MEMO_SIZE = 4096


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RepairBudget:
    """Hard resource bounds for one repair run.

    ``max_attempts`` bounds repair→re-lint cycles, ``deadline`` bounds
    the whole run's wall-clock, ``execute_timeout`` disqualifies any
    single execution step that overruns it, ``max_candidates`` bounds
    the re-rank pool, and ``max_rows`` caps rows pulled per execution.
    """

    max_attempts: int = 2
    deadline: float = 0.25
    execute_timeout: float = 0.1
    max_candidates: int = 2
    max_rows: int = 100

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ServingError("max_attempts must be >= 0")
        if self.deadline <= 0:
            raise ServingError("deadline must be > 0")
        if self.execute_timeout <= 0:
            raise ServingError("execute_timeout must be > 0")
        if self.max_candidates < 1:
            raise ServingError("max_candidates must be >= 1")
        if self.max_rows < 1:
            raise ServingError("max_rows must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 0

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "deadline": self.deadline,
            "execute_timeout": self.execute_timeout,
            "max_candidates": self.max_candidates,
            "max_rows": self.max_rows,
        }


class _BudgetClock:
    """Per-run charge meter: real seconds + fault-injected virtual ones."""

    def __init__(self, budget: RepairBudget) -> None:
        self.budget = budget
        self.spent = 0.0
        self.attempts_used = 0

    def charge(self, seconds: float) -> None:
        self.spent += max(0.0, seconds)

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.budget.deadline

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.budget.max_attempts,
            "deadline": self.budget.deadline,
            "attempts_used": self.attempts_used,
            "spent_seconds": round(self.spent, 6),
            "exhausted": self.exhausted,
        }


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------


@dataclass
class RepairStep:
    """One charged step of a repair run (lint, repair, or execute)."""

    stage: str  # verify | repair | execute
    action: str
    detail: str = ""
    codes: tuple[str, ...] = ()
    seconds: float = 0.0

    def to_dict(self) -> dict:
        record: dict = {
            "stage": self.stage,
            "action": self.action,
            "seconds": round(self.seconds, 6),
        }
        if self.detail:
            record["detail"] = self.detail
        if self.codes:
            record["codes"] = list(self.codes)
        return record


@dataclass
class RepairTrace:
    """Structured per-step account of one repair run.

    Attached (as a plain dict) to every :class:`ServingResponse` the
    pipeline touched, surfaced in ``stats()`` and ``--stats-json``.
    """

    outcome: str = CLEAN
    verified: bool = False  # an execution verdict backs the answer
    error_code: str | None = None  # E_REPAIR_* when not clean/repaired
    reason: str = ""
    codes_tried: list[str] = field(default_factory=list)
    edits: list[dict] = field(default_factory=list)
    executions: list[dict] = field(default_factory=list)
    steps: list[RepairStep] = field(default_factory=list)
    budget: dict = field(default_factory=dict)

    def step(
        self,
        stage: str,
        action: str,
        detail: str = "",
        codes: tuple[str, ...] = (),
        seconds: float = 0.0,
    ) -> None:
        self.steps.append(RepairStep(stage, action, detail, codes, seconds))
        for code in codes:
            if code not in self.codes_tried:
                self.codes_tried.append(code)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "verified": self.verified,
            "error_code": self.error_code,
            "reason": self.reason,
            "codes_tried": list(self.codes_tried),
            "edits": list(self.edits),
            "executions": list(self.executions),
            "steps": [s.to_dict() for s in self.steps],
            "budget": dict(self.budget),
        }


@dataclass
class RepairReport:
    """Terminal result of one pipeline run.

    A clean-verdict memo hit carries no trace object, only its probe's
    ``(budget, seconds)``: :meth:`trace_dict` writes its one-step
    account straight into a dict, and :attr:`trace` builds the
    :class:`RepairTrace` only when a caller asks for one.
    """

    query: Query
    sql: str
    outcome: str
    verified: bool
    _trace: RepairTrace | None = field(default=None, repr=False)
    _probe: tuple[RepairBudget, float] | None = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        """Whether the caller should serve ``query`` in place of its input."""
        return self.outcome == REPAIRED

    @property
    def trace(self) -> RepairTrace:
        if self._trace is None:  # a memo hit
            trace = RepairTrace(outcome=CLEAN, budget=self.trace_dict()["budget"])
            trace.step("verify", "lint", detail="0 error(s)", seconds=self._probe[1])
            self._trace = trace
        return self._trace

    def trace_dict(self) -> dict:
        """A fresh ``trace.to_dict()``, built without the trace objects
        on a memo hit."""
        if self._trace is not None:
            return self._trace.to_dict()
        budget, seconds = self._probe
        spent = max(0.0, seconds)
        return {
            "outcome": CLEAN,
            "verified": False,
            "error_code": None,
            "reason": "",
            "codes_tried": [],
            "edits": [],
            "executions": [],
            "steps": [
                {
                    "stage": "verify",
                    "action": "lint",
                    "seconds": round(seconds, 6),
                    "detail": "0 error(s)",
                }
            ],
            "budget": {
                "max_attempts": budget.max_attempts,
                "deadline": budget.deadline,
                "attempts_used": 0,
                "spent_seconds": round(spent, 6),
                "exhausted": spent >= budget.deadline,
            },
        }


@dataclass(frozen=True)
class RepairEdit:
    """One applied AST edit, keyed on the diagnostic it answers."""

    code: str
    action: str
    detail: str

    def to_dict(self) -> dict:
        return {"code": self.code, "action": self.action, "detail": self.detail}


# ----------------------------------------------------------------------
# Stage 2: targeted AST repairs keyed on diagnostic codes
# ----------------------------------------------------------------------


class QueryRepairer:
    """Proposes AST-level fixes for ``L1xx`` diagnostics.

    ``propose`` returns candidate rewrites best-first: the primary
    candidate applies the top-scored fix for every repairable
    diagnostic; when the best identifier match is closely contested, a
    single alternate candidate takes the runner-up for the contested
    edit so the execution re-rank — not string similarity alone — gets
    to pick the winner.
    """

    def __init__(self, schema: Schema, value_index: ValueIndex | None = None) -> None:
        self.schema = schema
        self.value_index = value_index

    # -- candidate scoring ---------------------------------------------

    @staticmethod
    def _edit_ratio(a: str, b: str) -> float:
        """Normalized Levenshtein similarity; catches short transpositions
        (``nmae`` → ``name``) that trigram overlap scores at zero."""
        a, b = a.lower(), b.lower()
        if a == b:
            return 1.0
        if not a or not b:
            return 0.0
        previous = list(range(len(b) + 1))
        for i, ca in enumerate(a, start=1):
            row = [i]
            for j, cb in enumerate(b, start=1):
                row.append(
                    min(
                        previous[j] + 1,
                        row[j - 1] + 1,
                        previous[j - 1] + (ca != cb),
                    )
                )
            previous = row
        return 1.0 - previous[-1] / max(len(a), len(b))

    @classmethod
    def _phrase_score(cls, needle: str, name: str, phrases) -> float:
        target = TrigramPhrase(needle.replace("_", " "))
        score = max(jaccard_trigram(needle, name), cls._edit_ratio(needle, name))
        for phrase in phrases:
            score = max(score, target.score(phrase))
        return score

    def _table_candidates(self, name: str) -> list[tuple[float, str]]:
        scored = [
            (self._phrase_score(name, t.name, t.nl_phrases), t.name)
            for t in self.schema.tables
        ]
        return sorted(
            (s for s in scored if s[0] >= _SIMILARITY_FLOOR), reverse=True
        )

    def _column_candidates(
        self, name: str, tables, boost: set[tuple[str, str]] = frozenset()
    ) -> list[tuple[float, str, str]]:
        scored = []
        for table in tables:
            for column in table.columns:
                score = self._phrase_score(name, column.name, column.nl_phrases)
                if (table.name, column.name) in boost:
                    score = max(score, 0.99)
                if score >= _SIMILARITY_FLOOR:
                    scored.append((score, table.name, column.name))
        return sorted(scored, reverse=True)

    def _value_boost(self, query: Query, column: str) -> set[tuple[str, str]]:
        """Columns the value index attributes the column's literals to.

        When the broken column is compared against a constant, the
        constant itself often identifies the intended column — "find the
        column that actually contains 'Alice'" beats any name-similarity
        guess.
        """
        if self.value_index is None:
            return set()
        literals: list = []
        for pred in query.walk_predicates():
            if isinstance(pred, Comparison):
                sides = (pred.left, pred.right)
                if any(
                    isinstance(s, ColumnRef) and s.column == column for s in sides
                ):
                    literals.extend(
                        s.value for s in sides if isinstance(s, Literal)
                    )
            elif isinstance(pred, (Between, InPredicate, Like)):
                if pred.column.column != column:
                    continue
                if isinstance(pred, Between):
                    values = (pred.low, pred.high)
                elif isinstance(pred, InPredicate):
                    values = pred.values
                else:
                    values = (pred.pattern,)
                literals.extend(v.value for v in values if isinstance(v, Literal))
        boost: set[tuple[str, str]] = set()
        for value in literals:
            for hit in self.value_index.lookup(str(value)):
                boost.add((hit.table, hit.column))
        return boost

    # -- scope helpers --------------------------------------------------

    def _scope_tables(self, query: Query):
        names = [t for t in query.from_tables if t in self.schema]
        if query.uses_join_placeholder:
            for t in query.referenced_tables():
                if t in self.schema and t not in names:
                    names.append(t)
        return [self.schema.table(n) for n in names]

    def _ensure_table(self, query: Query, table: str) -> Query:
        """Extend FROM so ``table`` is in scope (join closure + FK conds)."""
        if table in query.from_tables or query.uses_join_placeholder:
            return query
        wanted = [t for t in query.from_tables if t in self.schema] + [table]
        try:
            closure = self.schema.join_tables(wanted)
        except SchemaError:
            return query
        conditions: list[Predicate] = [
            Comparison(
                ColumnRef(fk.column, table=fk.table),
                CompOp.EQ,
                ColumnRef(fk.ref_column, table=fk.ref_table),
            )
            for fk in self.schema.join_path(closure)
        ]
        where = conjoin(conjuncts(query.where) + conditions)
        from dataclasses import replace as dc_replace

        return dc_replace(query, from_tables=tuple(closure), where=where)

    # -- proposal -------------------------------------------------------

    def propose(
        self, query: Query, diagnostics: list[Diagnostic]
    ) -> list[tuple[Query, list[RepairEdit]]]:
        """Candidate rewrites for ``diagnostics``, best first (may be empty)."""
        primary = query
        primary_edits: list[RepairEdit] = []
        seen_fixes: set = set()
        for diag in diagnostics:
            if diag.severity is not Severity.ERROR:
                continue
            fix_key = (diag.code, diag.fix)
            if fix_key in seen_fixes:
                continue
            seen_fixes.add(fix_key)
            applied = self._apply(primary, diag, diag.fix, use_alternate=False)
            if applied is None:
                continue
            primary, edit, _contested = applied
            primary_edits.append(edit)
        alternate, alternate_edits = self._alternate(query, diagnostics)
        candidates = []
        if primary_edits:
            candidates.append((primary, primary_edits))
        if alternate is not None and alternate_edits:
            candidates.append((alternate, alternate_edits))
        return candidates

    def _alternate(
        self, query: Query, diagnostics: list[Diagnostic]
    ) -> tuple[Query | None, list[RepairEdit]]:
        """One variant taking the runner-up for the first contested edit."""
        current = query
        edits: list[RepairEdit] = []
        used_alternate = False
        seen_fixes: set = set()
        for diag in diagnostics:
            if diag.severity is not Severity.ERROR:
                continue
            fix_key = (diag.code, diag.fix)
            if fix_key in seen_fixes:
                continue
            seen_fixes.add(fix_key)
            applied = self._apply(
                current, diag, diag.fix, use_alternate=not used_alternate
            )
            if applied is None:
                continue
            current, edit, contested = applied
            if contested and not used_alternate:
                used_alternate = True
            edits.append(edit)
        if not used_alternate:
            return None, []
        return current, edits

    def _apply(
        self, query: Query, diag: Diagnostic, fix: FixHint | None, use_alternate: bool
    ) -> tuple[Query, RepairEdit, bool] | None:
        """Apply one fix; returns (new_query, edit, was_contested) or None."""
        if fix is None:
            return None
        kind = fix.kind
        if kind == "unknown_table":
            ranked = self._table_candidates(fix.subject)
            pick, contested = self._pick(ranked, use_alternate)
            if pick is None:
                return None
            new_table = pick[-1]
            return (
                rename_table(query, fix.subject, new_table),
                RepairEdit(diag.code, "rename_table", f"{fix.subject} -> {new_table}"),
                contested,
            )
        if kind == "unknown_column":
            scope = self._scope_tables(query)
            if fix.table and fix.table in self.schema:
                tables = [self.schema.table(fix.table)]
            else:
                tables = scope or list(self.schema.tables)
            boost = self._value_boost(query, fix.subject)
            ranked = self._column_candidates(fix.subject, tables, boost)
            pick, contested = self._pick(ranked, use_alternate)
            if pick is None:
                return None
            _score, table, column = pick
            in_scope = any(t.name == table for t in scope)
            repaired = rename_column(
                query,
                fix.subject,
                column,
                new_table=None if in_scope and not fix.table else table,
                old_table=fix.table or None,
            )
            if not in_scope:
                repaired = self._ensure_table(repaired, table)
            return (
                repaired,
                RepairEdit(
                    diag.code, "rename_column", f"{fix.subject} -> {table}.{column}"
                ),
                contested,
            )
        if kind == "ambiguous_column":
            options = list(fix.alternatives)
            if not options:
                return None
            index = 1 if use_alternate and len(options) > 1 else 0
            table = options[index]
            return (
                qualify_column(query, fix.subject, table),
                RepairEdit(
                    diag.code, "qualify_column", f"{fix.subject} -> {table}.{fix.subject}"
                ),
                len(options) > 1,
            )
        if kind == "table_not_in_scope":
            if fix.table not in self.schema:
                return None
            repaired = self._ensure_table(query, fix.table)
            if repaired == query:
                return None
            return (
                repaired,
                RepairEdit(diag.code, "extend_from", f"join in {fix.table}"),
                False,
            )
        if kind == "join_path":
            return self._repair_join_path(query, diag)
        if kind == "aggregate_in_where":
            repaired = move_aggregate_conjuncts_to_having(query)
            if repaired == query:
                return None
            repaired = self._default_group_by(repaired)
            return (
                repaired,
                RepairEdit(diag.code, "where_to_having", "moved aggregate conjunct"),
                False,
            )
        if kind == "having_without_group_by":
            repaired = move_having_to_where(query)
            action = "having_to_where"
            if repaired == query:
                repaired = self._default_group_by(query)
                action = "add_group_by"
            if repaired == query:
                return None
            return (
                repaired,
                RepairEdit(diag.code, action, "rebalanced grouping clauses"),
                False,
            )
        if kind == "ungrouped_select_item":
            ref = ColumnRef(fix.subject, table=fix.table or None)
            repaired = add_group_by(query, (ref,))
            if repaired == query:
                return None
            return (
                repaired,
                RepairEdit(diag.code, "add_group_by", str(ref)),
                False,
            )
        if kind == "aggregate_nonnumeric":
            for agg in query.aggregates():
                if (
                    agg.func in (AggFunc.SUM, AggFunc.AVG)
                    and isinstance(agg.arg, ColumnRef)
                    and agg.arg.column == fix.subject
                ):
                    new = Aggregate(AggFunc.COUNT, agg.arg, distinct=agg.distinct)
                    return (
                        replace_aggregate_func(query, agg, new),
                        RepairEdit(diag.code, "sum_to_count", f"{agg} -> {new}"),
                        False,
                    )
            return None
        if kind == "unknown_placeholder":
            return self._repair_placeholder(query, diag, fix, use_alternate)
        if kind == "ordering_on_text":
            repaired = self._ordering_to_equality(query, fix.subject)
            if repaired == query:
                return None
            return (
                repaired,
                RepairEdit(diag.code, "ordering_to_equality", fix.subject),
                False,
            )
        return None

    @staticmethod
    def _pick(ranked: list, use_alternate: bool):
        """Best (or contested runner-up) candidate from a scored list."""
        if not ranked:
            return None, False
        contested = (
            len(ranked) > 1 and ranked[0][0] - ranked[1][0] <= _ALTERNATE_MARGIN
        )
        if use_alternate and contested:
            return ranked[1], contested
        return ranked[0], contested

    def _default_group_by(self, query: Query) -> Query:
        if query.group_by:
            return query
        plain = tuple(
            item for item in query.select if isinstance(item, ColumnRef)
        )
        if not plain:
            return query
        return add_group_by(query, plain)

    def _repair_join_path(self, query: Query, diag: Diagnostic):
        """L110: keep only tables real references need, re-close over FKs."""
        needed: list[str] = []
        for ref in query.column_refs():
            if ref.table and ref.table in self.schema and ref.table not in needed:
                needed.append(ref.table)
        for ph in query.placeholders():
            table = ph.table
            if table and table in self.schema and table not in needed:
                needed.append(table)
        for column in {r.column for r in query.column_refs() if r.table is None}:
            if any(column in self.schema.table(t) for t in needed):
                continue
            owners = self.schema.tables_with_column(column)
            if owners and owners[0].name not in needed:
                needed.append(owners[0].name)
        if not needed:
            return None
        try:
            closure = self.schema.join_tables(needed)
        except SchemaError:
            return None
        conditions: list[Predicate] = [
            Comparison(
                ColumnRef(fk.column, table=fk.table),
                CompOp.EQ,
                ColumnRef(fk.ref_column, table=fk.ref_table),
            )
            for fk in self.schema.join_path(closure)
        ]
        kept = [
            c
            for c in conjuncts(query.where)
            if not self._is_foreign_join_condition(c, set(closure))
        ]
        from dataclasses import replace as dc_replace

        repaired = dc_replace(
            query,
            from_tables=tuple(closure),
            where=conjoin(kept + conditions),
        )
        if repaired == query:
            return None
        return (
            repaired,
            RepairEdit(diag.code, "infer_join_path", " JOIN ".join(closure)),
            False,
        )

    @staticmethod
    def _is_foreign_join_condition(pred: Predicate, tables: set[str]) -> bool:
        """A col=col condition naming a table outside the new closure."""
        if not isinstance(pred, Comparison) or pred.op is not CompOp.EQ:
            return False
        if not (
            isinstance(pred.left, ColumnRef) and isinstance(pred.right, ColumnRef)
        ):
            return False
        named = {
            side.table
            for side in (pred.left, pred.right)
            if side.table is not None
        }
        return bool(named) and not named.issubset(tables)

    def _repair_placeholder(
        self, query: Query, diag: Diagnostic, fix: FixHint, use_alternate: bool
    ):
        old_name = fix.subject
        column_part = old_name.rsplit(".", 1)[-1].lower()
        scope = self._scope_tables(query) or list(self.schema.tables)
        ranked = self._column_candidates(column_part, scope)
        pick, contested = self._pick(ranked, use_alternate)
        if pick is None:
            return None
        _score, table, column = pick
        dotted = "." in old_name
        new_name = f"{table.upper()}.{column.upper()}" if dotted else column.upper()

        def fix_placeholder(ph):
            from repro.sql.ast import Placeholder

            if ph.name != old_name:
                return ph
            return Placeholder(new_name)

        repaired = map_placeholders(query, fix_placeholder)
        if repaired == query:
            return None
        return (
            repaired,
            RepairEdit(diag.code, "rename_placeholder", f"@{old_name} -> @{new_name}"),
            contested,
        )

    def _ordering_to_equality(self, query: Query, column: str) -> Query:
        ordering = {CompOp.LT, CompOp.LE, CompOp.GT, CompOp.GE}

        def fix_pred(pred):
            if (
                isinstance(pred, Comparison)
                and pred.op in ordering
                and (
                    (isinstance(pred.left, ColumnRef) and pred.left.column == column)
                    or (
                        isinstance(pred.right, ColumnRef)
                        and pred.right.column == column
                    )
                )
            ):
                from dataclasses import replace as dc_replace

                return dc_replace(pred, op=CompOp.EQ)
            return pred

        from dataclasses import replace as dc_replace

        where = query.where
        if where is not None:
            rebuilt = conjoin([fix_pred(c) for c in conjuncts(where)])
            query = dc_replace(query, where=rebuilt)
        return query


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class RepairPipeline:
    """Verify → repair → execution-re-rank under a hard budget.

    Parameters
    ----------
    schema:
        Schema the candidates are resolved against.
    adapter:
        The execution arm over the sampled database: anything with
        ``execute(query, max_rows=)``, such as a
        :class:`~repro.adapters.BackendAdapter` or ``DBPal.backend``;
        ``None`` skips stage 3 (repaired candidates are served
        lint-clean but unverified).
    budget:
        Resource bounds; see :class:`RepairBudget`.
    value_index:
        Optional value index for constant→column attribution.
    bind:
        Optional callable ``(query, bindings) -> query`` re-binding
        constants after placeholder renames (the anonymization-map arm);
        defaults to the post-processor's restoration pass.
    faults:
        Deterministic fault plan (see :mod:`repro.core.faults`).
    """

    def __init__(
        self,
        schema: Schema,
        adapter=None,
        budget: RepairBudget | None = None,
        value_index: ValueIndex | None = None,
        bind=None,
        faults: RepairFaultPlan = NO_REPAIR_FAULTS,
        clock=time.monotonic,
    ) -> None:
        self.schema = schema
        self.adapter = adapter
        self.budget = budget or RepairBudget()
        self.repairer = QueryRepairer(schema, value_index)
        self.faults = faults
        self._clock = clock
        self._runs = 0
        self._lock = threading.Lock()
        # Printed SQL of candidates already linted clean (bounded LRU,
        # guarded by ``_lock``).  Keyed on text, not the AST: literals
        # ``5`` and ``5.0`` compare and hash equal, so an AST key could
        # hand one query the other's verdict.
        self._clean_sql: OrderedDict[str, None] = OrderedDict()
        # (printed SQL, location) of candidates whose first repair
        # proposal came back empty -> their lint errors (bounded LRU,
        # guarded by ``_lock``).  A run that finds its candidate here
        # replays the lint and the empty proposal instead of redoing
        # them; every timed decision still runs.
        self._unfixable: OrderedDict[tuple[str, str], list[Diagnostic]] = OrderedDict()
        if bind is None:
            from repro.runtime.postprocess import restore_placeholders

            bind = restore_placeholders
        self._bind = bind

    # ------------------------------------------------------------------

    def run(self, query: Query, bindings=(), location: str = "serving") -> RepairReport:
        """Repair one candidate; never raises.

        The lock hold that takes the run index also probes the
        clean-verdict memo: a candidate whose printed SQL already linted
        clean is ``CLEAN`` at once, and no trace objects are built.  It
        then probes the unfixable memo: a candidate the repairer had no
        proposal for reuses its lint errors and that empty proposal,
        unless a ``REPAIR_OSCILLATE`` fault is planned for this run.
        """
        sql = to_sql(query)
        t0 = self._clock()
        with self._lock:
            run_index = self._runs
            self._runs += 1
            hit = sql in self._clean_sql
            if hit:
                self._clean_sql.move_to_end(sql)
            else:
                known = self._unfixable.get((sql, location))
                if known is not None:
                    self._unfixable.move_to_end((sql, location))
        if hit:
            return RepairReport(
                query, sql, CLEAN, False, _probe=(self.budget, self._clock() - t0)
            )
        if known is not None and self.faults.find(REPAIR_OSCILLATE, run_index, 0):
            known = None  # an injected proposal: run the full path
        trace = RepairTrace()
        meter = _BudgetClock(self.budget)
        try:
            report = self._run(
                query, sql, list(bindings), location, run_index, trace, meter, known
            )
        except Exception as exc:  # noqa: BLE001 — the pipeline never raises
            trace.step("repair", "crash", detail=f"{type(exc).__name__}: {exc}")
            trace.outcome = ABANDONED
            trace.reason = "internal error"
            trace.error_code = E_REPAIR_UNFIXABLE
            report = RepairReport(query, sql, ABANDONED, False, trace)
        trace.budget = meter.to_dict()
        return report

    # ------------------------------------------------------------------

    def _canonical_guard_key(self, query: Query) -> str:
        """Canonical text of a (possibly still broken) candidate.

        Candidates mid-repair may reference unknown tables or columns;
        the canonicalizer degrades to schema-independent rewrites for
        those, and any other trouble falls back to the printed form —
        the guard must never raise or under-dedupe to nothing.
        """
        from repro.sql.canonical import canonical_text

        try:
            return canonical_text(query, self.schema)
        except Exception:  # noqa: BLE001 — guard key must never raise
            return to_sql(query)

    def _lint(
        self,
        query: Query,
        location: str,
        meter: _BudgetClock,
        trace: RepairTrace,
        known: list[Diagnostic] | None = None,
    ):
        """Charged lint step; ``known`` errors (from the unfixable memo)
        stand in for the analyzer."""
        t0 = self._clock()
        if known is None:
            diagnostics = analyze_query(query, self.schema, location=location)
            errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        else:
            errors = known
        dt = self._clock() - t0
        meter.charge(dt)
        trace.step(
            "verify",
            "lint",
            detail=f"{len(errors)} error(s)",
            codes=tuple(dict.fromkeys(d.code for d in errors)),
            seconds=dt,
        )
        return errors

    def _run(
        self,
        query: Query,
        sql: str,
        bindings: list,
        location: str,
        run_index: int,
        trace: RepairTrace,
        meter: _BudgetClock,
        known: list[Diagnostic] | None = None,
    ) -> RepairReport:
        errors = self._lint(query, location, meter, trace, known)
        if not errors:
            with self._lock:
                self._clean_sql[sql] = None
                if len(self._clean_sql) > _MEMO_SIZE:
                    self._clean_sql.popitem(last=False)
            trace.outcome = CLEAN
            return RepairReport(query, sql, CLEAN, False, trace)

        current, current_errors = query, errors
        carried: list[RepairEdit] = []
        # Oscillation guard and candidate dedupe key on *canonical*
        # forms (PR 10): a proposal that differs from an already-tried
        # candidate only by a result-invariant rewrite would re-spend
        # lint and execution budget on a query we have already judged.
        # The seed key is built when the first proposal is checked: a
        # run whose repairer proposes nothing never compares it.
        seen: set[str] | None = None
        candidates: list[tuple[Query, list[RepairEdit]]] = []
        outcome = None
        for attempt in range(self.budget.max_attempts):
            if meter.exhausted:
                outcome, trace.reason = EXHAUSTED, "deadline before repair"
                break
            meter.attempts_used += 1
            t0 = self._clock()
            if self.faults.find(REPAIR_OSCILLATE, run_index, attempt) is not None:
                proposals = [(current, [RepairEdit("L000", "noop", "injected")])]
            elif known is not None and attempt == 0:
                proposals = []
            else:
                proposals = self.repairer.propose(current, current_errors)
                if attempt == 0 and not proposals:
                    self._remember_unfixable(sql, location, errors)
            dt = self._clock() - t0
            meter.charge(dt)
            trace.step(
                "repair",
                "propose",
                detail=f"attempt {attempt}: {len(proposals)} candidate(s)",
                seconds=dt,
            )
            if not proposals:
                outcome, trace.reason = ABANDONED, "no repair strategy"
                trace.error_code = E_REPAIR_UNFIXABLE
                break
            if seen is None:
                seen = {self._canonical_guard_key(query)}
            next_state = None
            pruned = 0
            for candidate, edits in proposals:
                if bindings and candidate.placeholders():
                    candidate = self._bind(candidate, list(bindings))
                key = self._canonical_guard_key(candidate)
                if key in seen:
                    pruned += 1
                    continue
                seen.add(key)
                candidate_errors = self._lint(candidate, location, meter, trace)
                if not candidate_errors:
                    candidates.append((candidate, carried + edits))
                elif next_state is None and len(candidate_errors) <= len(
                    current_errors
                ):
                    next_state = (candidate, candidate_errors, edits)
            if pruned:
                trace.step(
                    "repair",
                    "dedupe",
                    detail=f"{pruned} canonically duplicate candidate(s) pruned",
                )
            if candidates:
                break
            if next_state is None:
                outcome, trace.reason = ABANDONED, "repair oscillation"
                trace.error_code = E_REPAIR_OSCILLATION
                break
            current, current_errors, partial_edits = next_state
            carried = carried + partial_edits
        else:
            if not candidates:
                outcome, trace.reason = EXHAUSTED, "attempt budget spent"

        if not candidates:
            if outcome is None:  # defensive; loop always sets it
                outcome, trace.reason = ABANDONED, "no candidate"
            trace.outcome = outcome
            if outcome == EXHAUSTED:
                trace.error_code = E_REPAIR_BUDGET
            return RepairReport(query, sql, outcome, False, trace)

        return self._rerank(query, candidates, run_index, trace, meter)

    def _remember_unfixable(
        self, sql: str, location: str, errors: list[Diagnostic]
    ) -> None:
        with self._lock:
            self._unfixable[(sql, location)] = errors
            if len(self._unfixable) > _MEMO_SIZE:
                self._unfixable.popitem(last=False)

    # -- stage 3: execution re-rank ------------------------------------

    def _rerank(
        self,
        original: Query,
        candidates: list[tuple[Query, list[RepairEdit]]],
        run_index: int,
        trace: RepairTrace,
        meter: _BudgetClock,
    ) -> RepairReport:
        pool = candidates[: self.budget.max_candidates]
        if self.adapter is None:
            chosen, edits = pool[0]
            trace.outcome, trace.verified = REPAIRED, False
            trace.reason = "no execution backend; serving lint-clean candidate"
            trace.edits = [e.to_dict() for e in edits]
            return RepairReport(chosen, to_sql(chosen), REPAIRED, False, trace)
        verdicts: list[tuple[int, int]] = []  # (rank, candidate index)
        for index, (candidate, _edits) in enumerate(pool):
            if meter.exhausted:
                trace.step(
                    "execute",
                    "skip",
                    detail=f"deadline exhausted before candidate {index}",
                )
                break
            verdict, detail, seconds = self._execute(candidate, run_index, index, meter)
            trace.executions.append(
                {
                    "candidate": index,
                    "sql": to_sql(candidate),
                    "verdict": verdict,
                    "detail": detail,
                    "seconds": round(seconds, 6),
                }
            )
            trace.step(
                "execute", verdict, detail=detail or f"candidate {index}", seconds=seconds
            )
            verdicts.append((_VERDICT_RANK[verdict], index))
            if verdict == EXEC_OK:
                break  # can't do better; don't spend budget on runners-up
        if not verdicts:
            # Deadline hit before any execution: serve best-unverified.
            chosen, edits = pool[0]
            trace.outcome, trace.verified = REPAIRED, False
            trace.reason = "budget exhausted mid-execute; serving unverified"
            trace.edits = [e.to_dict() for e in edits]
            return RepairReport(chosen, to_sql(chosen), REPAIRED, False, trace)
        rank, index = min(verdicts)
        if rank >= _VERDICT_RANK[EXEC_ERROR]:
            # Every executed candidate raised: repair refuted; degrade to
            # the caller's original answer (pre-repair behavior).
            trace.outcome = ABANDONED
            trace.reason = "execution refuted every candidate"
            trace.error_code = E_REPAIR_EXEC
            return RepairReport(original, to_sql(original), ABANDONED, False, trace)
        chosen, edits = pool[index]
        verified = rank <= _VERDICT_RANK[EXEC_EMPTY]
        trace.outcome, trace.verified = REPAIRED, verified
        if not verified:
            trace.reason = "execution timed out; serving unverified"
        trace.edits = [e.to_dict() for e in edits]
        return RepairReport(chosen, to_sql(chosen), REPAIRED, verified, trace)

    def _execute(self, candidate: Query, run_index: int, step: int, meter: _BudgetClock):
        """One charged execution; returns (verdict, detail, seconds)."""
        virtual = 0.0
        slow = self.faults.find(SLOW_EXECUTE, run_index, step)
        if slow is not None:
            virtual = slow.slow_seconds
        t0 = self._clock()
        try:
            if self.faults.find(ADAPTER_CRASH, run_index, step) is not None:
                from repro.errors import FaultInjected

                raise FaultInjected("injected adapter crash mid-re-rank")
            rows = self.adapter.execute(candidate, max_rows=self.budget.max_rows)
        except Exception as exc:  # noqa: BLE001 — any crash is a verdict
            seconds = (self._clock() - t0) + virtual
            meter.charge(seconds)
            return EXEC_ERROR, f"{type(exc).__name__}: {exc}", seconds
        seconds = (self._clock() - t0) + virtual
        meter.charge(seconds)
        if seconds > self.budget.execute_timeout:
            return EXEC_TIMEOUT, f"{seconds:.3f}s > execute_timeout", seconds
        degenerate = not rows or all(
            all(value is None for value in row.values()) for row in rows
        )
        if degenerate:
            return EXEC_EMPTY, f"{len(rows)} row(s)", seconds
        return EXEC_OK, f"{len(rows)} row(s)", seconds
