"""Three-verdict SQL equivalence oracle over canonical forms.

The verdict lattice is deliberately asymmetric (the soundness
contract):

* ``EQUIVALENT`` — *proved*, and only ever proved, by canonical-form
  equality (:func:`repro.sql.canonical.canonicalize`).  Differential
  agreement is never sufficient.
* ``DISTINCT`` — *disproved* by a differential counterexample: a
  seeded randomized database over the schema on which the two queries
  produce different result values.
* ``UNKNOWN`` — everything else: probes agree but prove nothing, or
  the queries could not be executed.  ``UNKNOWN`` is **never upgraded
  to EQUIVALENT** by any caller; consumers that need a safe default
  must treat it as "not equivalent".

Every outcome is reported as ``L6xx`` diagnostics (PR 5 contract —
stable codes, spans where available, machine-readable fix hints), so
``repro canonical`` and the eval harness surface the oracle's
reasoning, not just its verdict:

* ``L601`` (info) — proven equivalent by canonical form;
* ``L602`` (error) — differential counterexample found;
* ``L603`` (warning) — undecided: all probes agreed, no proof;
* ``L604`` (warning) — a probe was skipped (execution failed);
* ``L605`` (info) — canonicalization rewrote a query (its canonical
  form differs from its normalized form);
* ``L606`` (error) — a placeholder could not be bound to any database
  constant, blocking differential execution.

Differential probes reuse the PR 3/6/7 machinery: databases come from
:func:`repro.db.populate` at fixed seeds, each probe database gets one
cached planned :class:`~repro.db.planner.ExecutorSession` (all sharing
one :class:`~repro.perf.PerfRecorder`), and placeholders are bound to
constants that actually occur in the probe database (the same binding
rule as the executor differential suite), so both queries see
identical constants for identically-named slots.

:meth:`EquivalenceOracle.probe` is the package's one loop that runs two
queries on the same probe databases.  :meth:`~EquivalenceOracle.check`
reads it with bound pairs; the Patients metric,
:func:`repro.eval.metrics.semantic_match`, reads it with the queries as
written and applies its own, looser acceptance rule.

Probe rows are compared exactly, as multisets (in order only when both
queries order their output), and not through
:func:`repro.adapters.normalize_rows`'s rounding to 12 significant
digits.  That rounding absorbs float noise *between engines*; every
probe here runs on the one reference engine, so there is no such noise
to absorb, and Table 3's semantic-equivalence accuracy is defined on
exact rows: rounding could turn a counterexample that differs in the
13th digit into agreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic, FixHint, LintReport, make
from repro.db.datagen import populate
from repro.db.planner import ExecutorSession
from repro.errors import ReproError
from repro.perf.instrumentation import PerfRecorder
from repro.sql.ast import Literal, Query
from repro.sql.canonical import canonical_sql, canonical_text
from repro.sql.edits import map_placeholders

#: The three verdicts.  ``EQUIVALENT`` requires a canonical-form proof.
EQUIVALENT = "EQUIVALENT"
DISTINCT = "DISTINCT"
UNKNOWN = "UNKNOWN"

VERDICTS = (EQUIVALENT, DISTINCT, UNKNOWN)


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe database's outcome for a query pair.

    ``seed`` is the probe database's seed, or its position in the
    caller's ``databases=`` list when the caller supplied the databases.
    ``executed`` is false when a query could not run there (``detail``
    holds the reason); otherwise ``agreed`` says whether the result
    values matched, and a disagreement's ``detail`` gives both row
    counts.
    """

    seed: int
    executed: bool
    agreed: bool | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        record: dict = {"seed": self.seed, "executed": self.executed}
        if self.agreed is not None:
            record["agreed"] = self.agreed
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class EquivalenceResult:
    """Verdict plus the evidence trail that produced it."""

    verdict: str
    left_canonical: str
    right_canonical: str
    report: LintReport = field(default_factory=LintReport)
    probes: list[ProbeOutcome] = field(default_factory=list)

    @property
    def is_equivalent(self) -> bool:
        return self.verdict == EQUIVALENT

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "left_canonical": self.left_canonical,
            "right_canonical": self.right_canonical,
            "probes": [p.to_dict() for p in self.probes],
            "diagnostics": [d.to_dict() for d in self.report.sorted()],
        }


class _ConstantBinder:
    """Duck-typed placeholder resolver: slots → constants in the DB."""

    def __init__(self, database) -> None:
        self._database = database

    def bind(self, placeholder):
        """``placeholder`` as a literal constant, or itself when none fits."""
        value = self.resolve(placeholder)
        return placeholder if value is None else Literal(value)

    def resolve(self, placeholder):
        schema = self._database.schema
        column = placeholder.column
        table = placeholder.table
        if table is None or table not in schema:
            candidates = schema.tables_with_column(column)
            if not candidates:
                return None
            table = candidates[0].name
        if column not in schema.table(table):
            return None
        values = [
            v
            for v in self._database.column_values(table, column)
            if v is not None
        ]
        return values[0] if values else None


class EquivalenceOracle:
    """Canonical-form proof first, bounded differential testing second.

    Parameters
    ----------
    schema:
        The schema both queries are interpreted against.
    databases:
        Optional pre-built ``repro.db.Database`` probe arms; when
        omitted, ``populate(schema, rows_per_table, seed)`` builds one
        per entry in ``seeds`` lazily (and caches it on the oracle).
    seeds / rows_per_table:
        Differential probe budget — the same seeds the executor
        differential suite uses by default.

    Each probe database runs its queries through one planned
    :class:`~repro.db.planner.ExecutorSession`, built once, whose
    results are cached on the printed SQL: a gold query repeated across
    an eval report executes once per database, and a repeated
    :meth:`check` is answered from the cache.
    """

    def __init__(
        self,
        schema,
        databases=None,
        seeds: tuple[int, ...] = (0, 17),
        rows_per_table: int = 25,
    ) -> None:
        self.schema = schema
        self.seeds = tuple(seeds)
        self.rows_per_table = rows_per_table
        self._databases = list(databases) if databases is not None else None
        # Caller-supplied databases were never built from ``seeds``.
        self._seeded = databases is None
        self.recorder = PerfRecorder()
        self._sessions: list[ExecutorSession] | None = None

    # -- probe arms ----------------------------------------------------

    def _probe_databases(self) -> list:
        if self._databases is None:
            self._databases = [
                populate(self.schema, rows_per_table=self.rows_per_table, seed=seed)
                for seed in self.seeds
            ]
        return self._databases

    def _probe_sessions(self) -> list[ExecutorSession]:
        """One cached planned session per probe database (built once)."""
        if self._sessions is None:
            self._sessions = [
                ExecutorSession(database, recorder=self.recorder)
                for database in self._probe_databases()
            ]
        return self._sessions

    def _label(self, index: int) -> int:
        """The seed (or supplied position) of probe database ``index``."""
        return self.seeds[index] if self._seeded else index

    def probe(
        self, left: Query, right: Query, bound: Iterable | None = None
    ) -> Iterator[ProbeOutcome]:
        """Run both queries on each probe database in turn, lazily.

        ``bound``, when given, holds the ``(left, right)`` pair to run
        on each database instead (:meth:`check` binds placeholders to
        each probe database's own constants); probing stops after its
        last pair.
        """
        order_sensitive = bool(left.order_by) and bool(right.order_by)
        pairs = itertools.repeat((left, right)) if bound is None else bound
        for index, (session, (left_query, right_query)) in enumerate(
            zip(self._probe_sessions(), pairs)
        ):
            seed = self._label(index)
            try:
                left_rows = session.execute(left_query)
                right_rows = session.execute(right_query)
            except ReproError as exc:
                # Outside the executable subset (or another schema's
                # query): this database can neither agree nor disagree.
                yield ProbeOutcome(seed, executed=False, detail=str(exc))
                continue
            if _rows_match(left_rows, right_rows, order_sensitive):
                yield ProbeOutcome(seed, executed=True, agreed=True)
            else:
                yield ProbeOutcome(
                    seed,
                    executed=True,
                    agreed=False,
                    detail=f"{len(left_rows)} vs {len(right_rows)} result rows",
                )

    def perf_report(self) -> dict:
        """Executor stage timings + result-cache counters over all probes."""
        sessions = self._sessions or ()
        hits = sum(session.cache_hits for session in sessions)
        misses = sum(session.cache_misses for session in sessions)
        total = hits + misses
        return {
            "stages": self.recorder.report(),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / total) if total else 0.0,
        }

    # -- the oracle ----------------------------------------------------

    def check(self, left: Query, right: Query, location: str = "") -> EquivalenceResult:
        """Decide ``left`` vs ``right``; never raises on query trouble."""
        report = LintReport()
        left_canonical = canonical_text(left, self.schema)
        right_canonical = canonical_text(right, self.schema)
        for side, query, canonical in (
            ("left", left, left_canonical),
            ("right", right, right_canonical),
        ):
            if canonical != canonical_sql(query):
                report.extend(
                    [
                        make(
                            "L605",
                            f"{side} query was rewritten by canonicalization",
                            location=location,
                            span=query.span,
                            hint=f"canonical form: {canonical}",
                            fix=FixHint(kind="use_canonical_form", subject=canonical),
                        )
                    ]
                )

        result = EquivalenceResult(UNKNOWN, left_canonical, right_canonical, report)
        if left_canonical == right_canonical:
            result.verdict = EQUIVALENT
            report.extend(
                [
                    make(
                        "L601",
                        "queries share one canonical form",
                        location=location,
                        span=left.span,
                        hint=left_canonical,
                    )
                ]
            )
            return result

        self._differential(left, right, result, location)
        return result

    def _differential(
        self, left: Query, right: Query, result: EquivalenceResult, location: str
    ) -> None:
        """Probe for a counterexample; fills verdict/probes/diagnostics."""
        report = result.report
        # Bind every probe database's constants up to the first one that
        # cannot bind; an unbindable placeholder blocks *every* later arm.
        pairs = []
        blocked: Diagnostic | None = None
        for database in self._probe_databases():
            pair, blocked = self._bind(left, right, database, location)
            if blocked is not None:
                break
            pairs.append(pair)
        agreed_probes = 0
        for run in self.probe(left, right, pairs):
            result.probes.append(run)
            probe = f"seed={run.seed}" if self._seeded else f"#{run.seed}"
            if not run.executed:
                report.extend(
                    [
                        make(
                            "L604",
                            f"probe {probe} skipped: {run.detail}",
                            location=location,
                            hint="the query is outside the executable subset "
                            "on this probe database",
                        )
                    ]
                )
                continue
            if run.agreed:
                agreed_probes += 1
                continue
            result.verdict = DISTINCT
            report.extend(
                [
                    make(
                        "L602",
                        f"results diverge on probe database {probe}",
                        location=location,
                        span=right.span,
                        hint="the queries are not equivalent; inspect the "
                        "canonical forms in this report",
                        fix=FixHint(
                            kind="differential_counterexample",
                            subject=str(run.seed),
                        ),
                    )
                ]
            )
            return
        result.verdict = UNKNOWN
        if blocked is not None:
            report.extend([blocked])
            result.probes.append(
                ProbeOutcome(
                    self._label(len(pairs)), executed=False, detail=blocked.message
                )
            )
            return
        if agreed_probes:
            report.extend(
                [
                    make(
                        "L603",
                        f"{agreed_probes} probe(s) agree but equivalence "
                        "remains unproven",
                        location=location,
                        hint="agreement on sample databases is evidence, "
                        "not proof; UNKNOWN must not be treated as EQUIVALENT",
                    )
                ]
            )

    def _bind(self, left: Query, right: Query, database, location: str):
        """Both queries with placeholders bound to ``database``'s
        constants, or ``None`` and an L606 diagnostic for the first side
        that cannot be bound."""
        binder = _ConstantBinder(database)
        pair = []
        for side, query in (("left", left), ("right", right)):
            if query.placeholders():
                query = map_placeholders(query, binder.bind)
            unresolved = query.placeholders()
            if unresolved:
                names = ", ".join(sorted({"@" + p.name for p in unresolved}))
                return None, make(
                    "L606",
                    f"{side} query has unresolvable placeholder(s) {names}",
                    location=location,
                    span=unresolved[0].span,
                    hint="no probe constant exists for this slot; bind it "
                    "explicitly before asking for a differential verdict",
                    fix=FixHint(kind="bind_placeholder", subject=unresolved[0].name),
                )
            pair.append(query)
        return tuple(pair), None


def _rows_match(left_rows, right_rows, order_sensitive: bool) -> bool:
    """Exact result-value comparison (column labels excluded on purpose)."""
    left_values = [tuple(row.values()) for row in left_rows]
    right_values = [tuple(row.values()) for row in right_rows]
    if order_sensitive:
        return left_values == right_values
    return sorted(left_values, key=repr) == sorted(right_values, key=repr)


__all__ = [
    "EQUIVALENT",
    "DISTINCT",
    "UNKNOWN",
    "VERDICTS",
    "EquivalenceOracle",
    "EquivalenceResult",
    "ProbeOutcome",
]
