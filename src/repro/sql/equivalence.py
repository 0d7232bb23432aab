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
it shares :func:`_results_match` with this checker.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ExecutionError, ReproError
from repro.sql.ast import Query
from repro.sql.canonical import normalize


def structurally_equivalent(left: Query, right: Query) -> bool:
    """Whether the two queries normalize to the same AST."""
    return normalize(left) == normalize(right)


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
    cache_size:
        Per-database result-cache capacity.  Probe queries run through
        the planned executor (:class:`repro.db.planner.ExecutorSession`)
        with results cached on canonical SQL, so a gold query repeated
        across an eval report executes once per database, not once per
        prediction.
    """

    def __init__(
        self, databases: Iterable = (), recorder=None, cache_size: int = 256
    ) -> None:
        self._databases = list(databases)
        self._cache_size = cache_size
        self._sessions: list | None = None
        if recorder is None:
            from repro.perf.instrumentation import PerfRecorder

            recorder = PerfRecorder()
        self.recorder = recorder

    def _probe_sessions(self) -> list:
        """Build one cached executor session per probe database."""
        if self._sessions is None:
            from repro.adapters.base import BackendAdapter  # lazy imports:
            from repro.db.planner import ExecutorSession  # db depends on sql

            self._sessions = [
                database
                if isinstance(database, (ExecutorSession, BackendAdapter))
                else ExecutorSession(
                    database,
                    cache_size=self._cache_size,
                    recorder=self.recorder,
                )
                for database in self._databases
            ]
        return self._sessions

    def equivalent(self, left: Query, right: Query) -> bool:
        """Whether ``left`` and ``right`` are semantically equivalent."""
        if structurally_equivalent(left, right):
            return True
        if not self._databases:
            return False

        order_sensitive = bool(left.order_by) and bool(right.order_by)
        agreed = False
        for session in self._probe_sessions():
            try:
                left_rows = session.execute(left)
                right_rows = session.execute(right)
            except (ExecutionError, ReproError):
                # A query outside the executable subset (or referencing
                # other schemas) cannot be certified by execution.
                return False
            if not _results_match(left_rows, right_rows, order_sensitive):
                return False
            agreed = True
        return agreed

    def perf_report(self) -> dict:
        """Executor stage timings + cache counters over all probes."""
        sessions = self._sessions or []
        # Adapter probes have no result cache; count them as zero.
        hits = sum(getattr(s, "cache_hits", 0) for s in sessions)
        misses = sum(getattr(s, "cache_misses", 0) for s in sessions)
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
