"""Semantic equivalence checking for SQL queries.

The Patients benchmark "tests instead for semantic equivalence" (paper
§6.2.1); the paper manually enumerates equivalent answers and points to
Cosette as the general tool.  Our stand-in combines two sound-in-
practice checks:

1. **Normalized-form equality** — normalize both ASTs
   (:func:`repro.sql.canonical.normalize`) and compare structurally.
   This proves equivalence for commutativity, comparison flips, double
   negation, single-value ``IN``, and redundant qualification.
2. **Execution equivalence** — execute both queries against one or more
   sample databases and compare result multisets (order-sensitive only
   when the queries order their output).  Agreement on all probes is
   accepted as equivalence; any disagreement is a proof of
   *non*-equivalence.

Check 2 is a randomized decision procedure: equal outputs on sample
data do not *prove* equivalence in general, but with adversarial probe
data generated from the query constants, it matches the manual
"enumerated equivalent answers" protocol of the paper.

The three-verdict oracle that never upgrades probe agreement to
equivalence is :class:`repro.analysis.equivalence.EquivalenceOracle`;
it reads its probe results from :meth:`EquivalenceChecker.probe`, the
package's one loop that runs two queries on the same probe arms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.sql.ast import Query
from repro.sql.canonical import normalize


def structurally_equivalent(left: Query, right: Query) -> bool:
    """Whether the two queries normalize to the same AST."""
    return normalize(left) == normalize(right)


@dataclass(frozen=True)
class ProbeRun:
    """One probe arm's outcome for a query pair.

    ``error`` holds the message when either query failed on the arm;
    otherwise ``agreed`` says whether the result values matched and
    ``rows`` gives both queries' row counts.
    """

    agreed: bool = False
    rows: tuple[int, int] = (0, 0)
    error: str = ""


class EquivalenceChecker:
    """Decides semantic equivalence using canonical forms and execution.

    Parameters
    ----------
    databases:
        Probe arms: ``repro.db.Database`` instances (wrapped in cached
        executor sessions), pre-built sessions, or
        :class:`repro.adapters.BackendAdapter` instances — so execution
        match can be scored on a real engine (e.g. the sqlite backend)
        as well as the reference one.  More probes means a sharper
        execution check.  When empty, only the structural check runs.
    recorder:
        Optional :class:`~repro.perf.PerfRecorder` shared by every
        probe session; the eval harness passes one so its summary can
        report per-stage executor timings.

    Probe queries on a ``Database`` arm run through the planned executor
    (:class:`repro.db.planner.ExecutorSession`), whose results are cached
    on the printed SQL, so a gold query repeated across an eval report
    executes once per database, not once per prediction.
    """

    def __init__(self, databases: Iterable = (), recorder=None) -> None:
        from repro.db.planner import ExecutorSession  # lazy imports:
        from repro.db.storage import Database  # db depends on sql

        if recorder is None:
            from repro.perf.instrumentation import PerfRecorder

            recorder = PerfRecorder()
        self.recorder = recorder
        self._arms = [
            ExecutorSession(arm, recorder=recorder)
            if isinstance(arm, Database)
            else arm
            for arm in databases
        ]

    def probe(
        self, left: Query, right: Query, bound: Iterable | None = None
    ) -> Iterator[ProbeRun]:
        """Run both queries on each probe arm in turn; one outcome per arm.

        ``bound``, when given, holds the ``(left, right)`` pair to run
        on each arm instead (the oracle binds placeholders to each
        probe database's own constants); probing stops after its last
        pair.  Result values are compared as multisets, in order only
        when both queries order their output.
        """
        order_sensitive = bool(left.order_by) and bool(right.order_by)
        pairs = itertools.repeat((left, right)) if bound is None else bound
        for arm, (left_query, right_query) in zip(self._arms, pairs):
            try:
                left_rows = arm.execute(left_query)
                right_rows = arm.execute(right_query)
            except ReproError as exc:
                # Outside the executable subset (or another schema's
                # query): this arm can neither agree nor disagree.
                yield ProbeRun(error=str(exc))
                continue
            yield ProbeRun(
                agreed=_results_match(left_rows, right_rows, order_sensitive),
                rows=(len(left_rows), len(right_rows)),
            )

    def equivalent(self, left: Query, right: Query) -> bool:
        """Structurally equivalent, or every probe arm (at least one)
        executed both queries and agreed."""
        if structurally_equivalent(left, right):
            return True
        agreed = False
        for run in self.probe(left, right):
            if not run.agreed:
                return False
            agreed = True
        return agreed

    def perf_report(self) -> dict:
        """Executor stage timings + cache counters over all probes."""
        # Adapter probes have no result cache; count them as zero.
        hits = sum(getattr(arm, "cache_hits", 0) for arm in self._arms)
        misses = sum(getattr(arm, "cache_misses", 0) for arm in self._arms)
        total = hits + misses
        return {
            "stages": self.recorder.report(),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / total) if total else 0.0,
        }


def _results_match(left_rows, right_rows, order_sensitive: bool) -> bool:
    """Result-value comparison (column labels excluded on purpose)."""
    left_values = [tuple(row.values()) for row in left_rows]
    right_values = [tuple(row.values()) for row in right_rows]
    if order_sensitive:
        return left_values == right_values
    return sorted(left_values, key=repr) == sorted(right_values, key=repr)
