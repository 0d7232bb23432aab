"""The budgeted execute–verify–repair loop (:mod:`repro.serving.repair`).

Covers the pipeline's three stages and every terminal outcome, the
deterministic fault hooks (slow-execute, oscillation, adapter crash),
the service integration (counters, accounting identities, trace
plumbing, zero-attempt bit-identity), the lint-gated keyword fallback,
and the cross-shard repair rollup.
"""

import json
import pickle
import threading

import pytest

from repro.adapters import MemoryAdapter
from repro.analysis import FixHint, Severity, analyze_query
from repro.core.faults import (
    ADAPTER_CRASH,
    NO_REPAIR_FAULTS,
    REPAIR_OSCILLATE,
    SLOW_EXECUTE,
    RepairFaultPlan,
    RepairFaultSpec,
)
from repro.db import populate
from repro.db.index import ValueIndex
from repro.db.planner import ExecutorSession
from repro.errors import (
    E_REPAIR_BUDGET,
    E_REPAIR_EXEC,
    E_REPAIR_OSCILLATION,
    E_REPAIR_UNFIXABLE,
    ServingError,
)
from repro.neural.base import TranslationModel
from repro.runtime import DBPal
from repro.schema import load_schema
from repro.serving import (
    KeywordFallback,
    RepairBudget,
    RepairPipeline,
    ServingConfig,
    TranslationService,
    merge_shard_stats,
)
from repro.sql import parse, to_sql

pytestmark = pytest.mark.repair


@pytest.fixture(scope="module")
def university():
    return load_schema("university")


@pytest.fixture(scope="module")
def university_db(university):
    return populate(university, rows_per_table=25, seed=4)


def make_pipeline(db, **kwargs):
    kwargs.setdefault("adapter", MemoryAdapter(db))
    kwargs.setdefault("value_index", ValueIndex(db))
    return RepairPipeline(db.schema, **kwargs)


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------


class TestRepairBudget:
    def test_defaults_enabled(self):
        assert RepairBudget().enabled

    def test_zero_attempts_disables(self):
        assert not RepairBudget(max_attempts=0).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": -1},
            {"deadline": 0.0},
            {"execute_timeout": 0.0},
            {"max_candidates": 0},
            {"max_rows": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            RepairBudget(**kwargs)


class TestRepairFaultSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RepairFaultSpec("meteor_strike")

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            RepairFaultSpec(SLOW_EXECUTE, attempts=0)

    def test_matching(self):
        spec = RepairFaultSpec(ADAPTER_CRASH, run_index=3, attempts=2)
        assert spec.matches(3, 0) and spec.matches(3, 1)
        assert not spec.matches(3, 2)  # step past attempts
        assert not spec.matches(4, 0)  # wrong run
        plan = RepairFaultPlan((spec,))
        assert plan and plan.find(ADAPTER_CRASH, 3, 0) is spec
        assert plan.find(SLOW_EXECUTE, 3, 0) is None
        assert not NO_REPAIR_FAULTS


# ----------------------------------------------------------------------
# Fix hints (machine-readable repair keys on diagnostics)
# ----------------------------------------------------------------------


class TestFixHints:
    def test_unknown_column_hint(self, patients):
        diags = analyze_query(parse("SELECT nmae FROM patients"), patients)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors and errors[0].fix == FixHint("unknown_column", subject="nmae")
        assert errors[0].to_dict()["fix"]["kind"] == "unknown_column"

    def test_unknown_table_hint(self, patients):
        diags = analyze_query(parse("SELECT x FROM starships"), patients)
        kinds = {d.fix.kind for d in diags if d.fix is not None}
        assert "unknown_table" in kinds

    def test_scope_hint_names_table(self, university):
        diags = analyze_query(parse("SELECT student.name FROM course"), university)
        hints = [d.fix for d in diags if d.fix is not None]
        assert any(
            h.kind == "table_not_in_scope" and h.table == "student" for h in hints
        )


# ----------------------------------------------------------------------
# Pipeline outcomes
# ----------------------------------------------------------------------


class TestPipelineOutcomes:
    def test_clean_passthrough(self, patients_db):
        pipe = make_pipeline(patients_db)
        report = pipe.run(parse("SELECT COUNT(*) FROM patients"))
        assert report.outcome == "clean" and not report.accepted
        assert report.trace.to_dict()["outcome"] == "clean"
        assert report.trace.budget["attempts_used"] == 0

    def test_clean_verdict_memo_replays_the_same_report(self, patients_db):
        pipe = make_pipeline(patients_db)
        query = parse("SELECT name FROM patients WHERE age > 30")
        for _ in range(2):  # the second run takes the verdict from the memo
            report = pipe.run(query)
            assert (report.query, report.sql, report.outcome, report.verified) == (
                query,
                to_sql(query),
                "clean",
                False,
            )
            steps = [(s.stage, s.action, s.detail, s.codes) for s in report.trace.steps]
            assert steps == [("verify", "lint", "0 error(s)", ())]
            assert report.trace.budget["attempts_used"] == 0
        assert list(pipe._clean_sql) == [to_sql(query)]

    def test_only_clean_verdicts_are_memoized(self, patients_db):
        pipe = make_pipeline(patients_db)
        for _ in range(2):
            report = pipe.run(parse("SELECT nmae FROM patients"))
            assert report.outcome == "repaired"
            assert report.trace.codes_tried == ["L102"]
        assert list(pipe._clean_sql) == []

    def test_clean_verdict_memo_is_thread_safe(self, patients_db):
        import sys

        queries = [parse(f"SELECT name FROM patients WHERE age > {a}") for a in range(5)]
        pipe = make_pipeline(patients_db)
        outcomes: list[str] = []

        def worker(offset: int) -> None:
            for i in range(50):
                report = pipe.run(queries[(offset + i) % len(queries)])
                outcomes.append(report.outcome)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == ["clean"] * 400
        assert set(pipe._clean_sql) == {to_sql(q) for q in queries}

    def test_unknown_column_repaired_and_verified(self, patients_db):
        pipe = make_pipeline(patients_db)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "repaired" and report.verified
        assert report.sql == "SELECT name FROM patients"
        trace = report.trace.to_dict()
        assert trace["codes_tried"] == ["L102"]
        assert trace["edits"][0]["action"] == "rename_column"
        assert trace["executions"][0]["verdict"] == "ok"
        assert trace["budget"]["attempts_used"] >= 1

    def test_unknown_table_repaired(self, patients_db):
        pipe = make_pipeline(patients_db)
        report = pipe.run(parse("SELECT COUNT(*) FROM patient"))
        assert report.outcome == "repaired" and report.verified
        assert report.sql == "SELECT COUNT(*) FROM patients"

    def test_sum_on_text_becomes_count(self, patients_db):
        pipe = make_pipeline(patients_db)
        report = pipe.run(parse("SELECT SUM(name) FROM patients"))
        assert report.outcome == "repaired"
        assert report.sql == "SELECT COUNT(name) FROM patients"

    def test_aggregate_in_where_moves_to_having(self, patients_db):
        pipe = make_pipeline(patients_db)
        report = pipe.run(parse("SELECT name FROM patients WHERE COUNT(*) > 2"))
        assert report.outcome == "repaired"
        assert "HAVING COUNT(*) > 2" in report.sql
        assert "GROUP BY name" in report.sql

    def test_out_of_scope_table_joined_in(self, university_db):
        pipe = make_pipeline(university_db)
        report = pipe.run(parse("SELECT student.name FROM department"))
        assert report.outcome == "repaired"
        assert "student" in report.query.from_tables
        # The FK equality condition was inferred, not a cross product.
        assert "WHERE" in report.sql

    def test_unfixable_abandons_with_original(self, patients_db):
        pipe = make_pipeline(patients_db)
        original = "SELECT warp_core FROM starships"
        report = pipe.run(parse(original))
        assert report.outcome == "abandoned" and not report.accepted
        assert report.sql == original  # never downgrades the caller's answer
        assert report.trace.error_code == E_REPAIR_UNFIXABLE

    def test_run_never_raises(self, patients_db):
        class ExplodingAdapter:
            def execute(self, query, max_rows=None):
                raise RuntimeError("boom")

        pipe = make_pipeline(patients_db, adapter=ExplodingAdapter())
        report = pipe.run(parse("SELECT nmae FROM patients"))
        # Execution refuted the candidate; the original is served.
        assert report.outcome == "abandoned"
        assert report.trace.error_code == E_REPAIR_EXEC
        assert report.sql == "SELECT nmae FROM patients"

    def test_all_null_row_loses_to_a_later_candidate_with_rows(self, patients_db):
        # ``MAX(nage)`` is contested: MAX(name) first, MAX(age) runner-up.
        # A row whose every value is NULL answers nothing, so the first
        # candidate ranks empty and the runner-up that returns a value
        # wins.
        class Scripted:
            def __init__(self):
                self.executed = []

            def execute(self, query, max_rows=None):
                sql = to_sql(query)
                self.executed.append(sql)
                label = sql[len("SELECT ") : sql.index(" FROM")]
                return [{label: None if "name" in label else 80}]

        adapter = Scripted()
        pipe = make_pipeline(patients_db, adapter=adapter)
        report = pipe.run(parse("SELECT MAX(nage) FROM patients"))
        assert adapter.executed == [
            "SELECT MAX(name) FROM patients",
            "SELECT MAX(age) FROM patients",
        ]
        verdicts = [e["verdict"] for e in report.trace.to_dict()["executions"]]
        assert verdicts == ["empty", "ok"]
        assert report.outcome == "repaired" and report.verified
        assert report.sql == "SELECT MAX(age) FROM patients"

    def test_no_adapter_serves_unverified(self, patients_db):
        pipe = make_pipeline(patients_db, adapter=None)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "repaired" and not report.verified
        assert report.trace.executions == []


# ----------------------------------------------------------------------
# Budget exhaustion and fault hooks
# ----------------------------------------------------------------------


class TestBudgetEdges:
    def test_deadline_before_repair_exhausts(self, patients_db):
        ticks = iter(i * 0.3 for i in range(100))
        pipe = make_pipeline(
            patients_db,
            budget=RepairBudget(max_attempts=2, deadline=0.25),
            clock=lambda: next(ticks),
        )
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "budget_exhausted"
        assert report.trace.error_code == E_REPAIR_BUDGET
        assert report.trace.budget["exhausted"]
        assert report.sql == "SELECT nmae FROM patients"

    def test_slow_execute_charges_virtual_time_no_sleep(self, patients_db):
        faults = RepairFaultPlan(
            (RepairFaultSpec(SLOW_EXECUTE, slow_seconds=3600.0),)
        )
        pipe = make_pipeline(patients_db, faults=faults)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        # The candidate's execution "took an hour": verdict demoted to
        # timeout, but the lint-clean candidate is still served
        # (best-unverified beats nothing).
        assert report.outcome == "repaired" and not report.verified
        assert report.trace.executions[0]["verdict"] == "timeout"
        assert report.trace.budget["spent_seconds"] >= 3600.0
        assert report.trace.budget["exhausted"]

    def test_oscillation_fault_abandons(self, patients_db):
        faults = RepairFaultPlan((RepairFaultSpec(REPAIR_OSCILLATE, attempts=5),))
        pipe = make_pipeline(patients_db, faults=faults)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "abandoned"
        assert report.trace.error_code == E_REPAIR_OSCILLATION

    def test_adapter_crash_fault_mid_rerank(self, patients_db):
        faults = RepairFaultPlan((RepairFaultSpec(ADAPTER_CRASH, attempts=5),))
        pipe = make_pipeline(patients_db, faults=faults)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "abandoned"
        assert report.trace.error_code == E_REPAIR_EXEC
        assert "FaultInjected" in report.trace.executions[0]["detail"]

    def test_fault_scoped_to_one_run(self, patients_db):
        faults = RepairFaultPlan((RepairFaultSpec(ADAPTER_CRASH, run_index=0),))
        pipe = make_pipeline(patients_db, faults=faults)
        first = pipe.run(parse("SELECT nmae FROM patients"))
        second = pipe.run(parse("SELECT nmae FROM patients"))
        assert first.outcome == "abandoned"
        assert second.outcome == "repaired" and second.verified


class TestGuardSeedKey:
    """The oscillation guard's seed key is built at the first proposal."""

    NO_PROPOSAL = "SELECT SUM(age) FROM patients WHERE gender = 33"

    def _spy(self, pipe, monkeypatch):
        calls = []
        real = pipe._canonical_guard_key

        def counted(query):
            calls.append(to_sql(query))
            return real(query)

        monkeypatch.setattr(pipe, "_canonical_guard_key", counted)
        return calls

    def test_a_run_with_no_proposal_builds_no_key(self, patients_db, monkeypatch):
        pipe = make_pipeline(patients_db)
        calls = self._spy(pipe, monkeypatch)
        report = pipe.run(parse(self.NO_PROPOSAL))
        record = report.trace_dict()
        assert calls == []
        assert (report.outcome, report.sql) == ("abandoned", self.NO_PROPOSAL)
        assert record["reason"] == "no repair strategy"
        assert record["error_code"] == E_REPAIR_UNFIXABLE
        assert [(s["stage"], s["action"]) for s in record["steps"]] == [
            ("verify", "lint"),
            ("repair", "propose"),
        ]
        assert record["steps"][1]["detail"] == "attempt 0: 0 candidate(s)"

    def test_a_proposing_run_seeds_the_guard_with_the_original(
        self, patients_db, monkeypatch
    ):
        pipe = make_pipeline(patients_db)
        calls = self._spy(pipe, monkeypatch)
        report = pipe.run(parse("SELECT nmae FROM patients"))
        assert report.outcome == "repaired"
        assert calls[0] == "SELECT nmae FROM patients" and len(calls) >= 2

    def test_the_seed_key_still_prunes_a_proposal_of_the_original(self, patients_db):
        faults = RepairFaultPlan((RepairFaultSpec(REPAIR_OSCILLATE, attempts=5),))
        report = make_pipeline(patients_db, faults=faults).run(
            parse("SELECT nmae FROM patients")
        )
        steps = report.trace_dict()["steps"]
        assert report.trace.error_code == E_REPAIR_OSCILLATION
        assert [s["action"] for s in steps] == ["lint", "propose", "dedupe"]


# ----------------------------------------------------------------------
# Clean-verdict memo hits
# ----------------------------------------------------------------------


def _untimed(trace: dict) -> dict:
    """A trace dict with its clock readings zeroed."""
    record = json.loads(json.dumps(trace))
    for step in record["steps"]:
        step["seconds"] = 0.0
    record["budget"]["spent_seconds"] = 0.0
    return record


class TestCleanMemoHit:
    def test_a_hit_builds_no_trace_objects(self, patients_db, monkeypatch):
        import repro.serving.repair as repair

        pipe = make_pipeline(patients_db)
        query = parse("SELECT name FROM patients WHERE age > 30")
        pipe.run(query)  # miss: fills the memo
        built = []
        for name in ("RepairTrace", "RepairStep", "_BudgetClock"):
            cls = getattr(repair, name)

            def counted(*args, _name=name, _cls=cls, **kwargs):
                built.append(_name)
                return _cls(*args, **kwargs)

            monkeypatch.setattr(repair, name, counted)
        report = pipe.run(query)
        record = report.trace_dict()
        assert report.outcome == "clean" and built == []
        assert record["steps"][0]["seconds"] == record["budget"]["spent_seconds"]

    def test_a_hit_reports_what_its_miss_did(self, patients_db):
        pipe = make_pipeline(patients_db)
        query = parse("SELECT name FROM patients WHERE age > 30")
        miss, hit = pipe.run(query), pipe.run(query)
        assert (hit.query, hit.sql, hit.outcome, hit.verified, hit.accepted) == (
            miss.query,
            miss.sql,
            miss.outcome,
            miss.verified,
            miss.accepted,
        )
        fast, slow = hit.trace_dict(), miss.trace_dict()
        assert list(fast) == list(slow)
        assert list(fast["budget"]) == list(slow["budget"])
        assert list(fast["steps"][0]) == list(slow["steps"][0])
        assert _untimed(fast) == _untimed(slow)
        # The trace object, built on demand, serialises to the same dict.
        assert hit.trace.to_dict() == hit.trace_dict()
        assert hit.trace_dict() is not hit.trace_dict()

    def test_a_hit_past_the_deadline_reads_exhausted(self, patients_db):
        ticks = iter(i * 0.3 for i in range(100))
        pipe = make_pipeline(
            patients_db,
            budget=RepairBudget(deadline=0.25),
            clock=lambda: next(ticks),
        )
        query = parse("SELECT name FROM patients")
        pipe.run(query)
        hit = pipe.run(query)
        assert hit.trace_dict()["budget"]["exhausted"]
        assert hit.trace.to_dict() == hit.trace_dict()

    @pytest.mark.parametrize("warm", [False, True])
    def test_a_hit_advances_the_run_index(self, patients_db, warm):
        faults = RepairFaultPlan((RepairFaultSpec(ADAPTER_CRASH, run_index=2),))
        pipe = make_pipeline(patients_db, faults=faults)
        clean = [
            parse("SELECT name FROM patients"),
            parse("SELECT name FROM patients" if warm else "SELECT age FROM patients"),
        ]
        assert [pipe.run(q).outcome for q in clean] == ["clean", "clean"]
        assert len(pipe._clean_sql) == (1 if warm else 2)
        aimed = pipe.run(parse("SELECT nmae FROM patients"))
        after = pipe.run(parse("SELECT nmae FROM patients"))
        assert aimed.outcome == "abandoned"
        assert "FaultInjected" in aimed.trace.executions[0]["detail"]
        assert after.outcome == "repaired" and after.verified


#: The one hot_repeat answer the repairer has no proposal for (L106).
UNFIXABLE = "SELECT SUM(age) FROM patients WHERE gender = 33"


class TestUnfixableMemo:
    """A candidate the repairer had no proposal for is linted and
    proposed for once; later runs replay both and redo the timed rest."""

    @staticmethod
    def _count_lint_and_propose(pipe, monkeypatch):
        import repro.serving.repair as repair

        calls = {"analyze_query": 0, "propose": 0}
        analyze, propose = repair.analyze_query, pipe.repairer.propose

        def counted_analyze(*args, **kwargs):
            calls["analyze_query"] += 1
            return analyze(*args, **kwargs)

        def counted_propose(*args, **kwargs):
            calls["propose"] += 1
            return propose(*args, **kwargs)

        monkeypatch.setattr(repair, "analyze_query", counted_analyze)
        monkeypatch.setattr(pipe.repairer, "propose", counted_propose)
        return calls

    def test_many_runs_lint_and_propose_once(self, patients_db, monkeypatch):
        pipe = make_pipeline(patients_db)
        calls = self._count_lint_and_propose(pipe, monkeypatch)
        query = parse(UNFIXABLE)
        reports = [pipe.run(query) for _ in range(2000)]
        assert calls == {"analyze_query": 1, "propose": 1}
        assert {r.outcome for r in reports} == {"abandoned"}
        assert {r.trace.error_code for r in reports} == {E_REPAIR_UNFIXABLE}
        assert pipe._runs == 2000
        assert list(pipe._unfixable) == [(UNFIXABLE, "serving")]

    def test_a_warm_run_reports_what_its_miss_did(self, patients_db):
        pipe = make_pipeline(patients_db)
        query = parse(UNFIXABLE)
        miss, hit = pipe.run(query), pipe.run(query)
        assert (hit.query, hit.sql, hit.outcome, hit.verified) == (
            miss.query,
            miss.sql,
            miss.outcome,
            miss.verified,
        )
        fast, slow = hit.trace_dict(), miss.trace_dict()
        assert _untimed(fast) == _untimed(slow)
        assert fast["codes_tried"] == ["L106"]
        assert [(s["stage"], s["action"]) for s in fast["steps"]] == [
            ("verify", "lint"),
            ("repair", "propose"),
        ]
        assert fast["budget"]["attempts_used"] == 1

    def test_a_fault_planned_for_a_warm_run_still_fires(
        self, patients_db, monkeypatch
    ):
        faults = RepairFaultPlan((RepairFaultSpec(REPAIR_OSCILLATE, run_index=3),))
        pipe = make_pipeline(patients_db, faults=faults)
        calls = self._count_lint_and_propose(pipe, monkeypatch)
        query = parse(UNFIXABLE)
        codes = [pipe.run(query).trace.error_code for _ in range(5)]
        assert codes == [E_REPAIR_UNFIXABLE] * 3 + [
            E_REPAIR_OSCILLATION,
            E_REPAIR_UNFIXABLE,
        ]
        # Run 3 took the full path: its own lint, no memo stand-in.
        assert calls["analyze_query"] == 2

    def test_a_warm_run_still_checks_the_deadline(self, patients_db):
        class SteppingClock:
            def __init__(self):
                self.now, self.step = 0.0, 0.0

            def __call__(self):
                self.now += self.step
                return self.now

        traces = {}
        for memo in ("warm", "cold"):
            clock = SteppingClock()
            pipe = make_pipeline(
                patients_db, budget=RepairBudget(deadline=0.25), clock=clock
            )
            if memo == "warm":
                pipe.run(parse(UNFIXABLE))
            clock.step = 0.3
            report = pipe.run(parse(UNFIXABLE))
            assert report.outcome == "budget_exhausted"
            traces[memo] = report.trace_dict()
        assert _untimed(traces["warm"]) == _untimed(traces["cold"])
        assert traces["warm"]["reason"] == "deadline before repair"

    def test_the_memo_is_keyed_on_location_and_bounded(
        self, patients_db, monkeypatch
    ):
        import repro.serving.repair as repair

        monkeypatch.setattr(repair, "_MEMO_SIZE", 2)
        pipe = make_pipeline(patients_db)
        for gender in (33, 34, 35):
            pipe.run(parse(f"SELECT SUM(age) FROM patients WHERE gender = {gender}"))
        pipe.run(parse(UNFIXABLE), location="offline")
        assert list(pipe._unfixable) == [
            ("SELECT SUM(age) FROM patients WHERE gender = 35", "serving"),
            (UNFIXABLE, "offline"),
        ]


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class ScriptedModel(TranslationModel):
    def __init__(self, sql="SELECT COUNT(*) FROM patients"):
        self.sql = sql
        self.mode = "ok"
        self._lock = threading.Lock()

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        return self.translate_batch([nl])[0]

    def translate_batch(self, nls):
        if self.mode == "crash":
            raise RuntimeError("injected model crash")
        return [self.sql for _ in nls]


def make_service(patients_db, sql="SELECT COUNT(*) FROM patients", **config_kwargs):
    model = ScriptedModel(sql)
    defaults = dict(workers=2, request_timeout=5.0)
    defaults.update(config_kwargs)
    service = TranslationService(DBPal(patients_db, model), ServingConfig(**defaults))
    return service, model


class TestServiceIntegration:
    def test_clean_output_untouched(self, patients_db):
        service, _ = make_service(patients_db)
        with service:
            response = service.translate("how many patients are there")
        assert response.ok and response.sql == "SELECT COUNT(*) FROM patients"
        assert response.repair is not None
        assert response.repair["outcome"] == "clean"
        assert service.metrics.counter("repair.clean") == 1
        assert service.metrics.counter("repair.attempted") == 0

    def test_broken_output_repaired(self, patients_db):
        service, _ = make_service(patients_db, sql="SELECT nmae FROM patients")
        with service:
            response = service.translate("show the name of every patient")
        assert response.ok and response.sql == "SELECT name FROM patients"
        assert response.result.repaired
        assert response.repair["outcome"] == "repaired"
        assert response.repair["verified"]
        assert service.metrics.counter("repair.repaired") == 1
        record = response.to_dict()
        assert record["repair"]["outcome"] == "repaired"
        json.dumps(record)  # trace must be JSON-ready

    def test_a_memo_hit_response_carries_its_miss_trace(self, patients_db):
        # Two questions, one answer: the second request misses the
        # translation cache but hits the clean-verdict memo.
        service, _ = make_service(patients_db)
        with service:
            miss = service.translate("how many patients are there")
            hit = service.translate("count the patients")
            stats = service.stats()
        assert len(service._repair._clean_sql) == 1
        assert list(hit.repair) == list(miss.repair)
        assert list(hit.repair["budget"]) == list(miss.repair["budget"])
        assert _untimed(hit.repair) == _untimed(miss.repair)
        assert hit.repair is not miss.repair
        assert stats["repair"]["last_trace"] is hit.repair
        assert stats["counters"]["repair.clean"] == 2
        assert stats["accounting"]["consistent"]

    def test_repair_executes_on_the_facade_session(self, patients_db, monkeypatch):
        # The repair arm is DBPal.backend itself (the facade's planned
        # session by default), not a second adapter wrapped around it.
        import repro.runtime.interface as interface

        class RecordingSession(ExecutorSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.executed = []

            def execute(self, query, max_rows=None):
                self.executed.append((to_sql(query), max_rows))
                return super().execute(query, max_rows=max_rows)

        monkeypatch.setattr(interface, "ExecutorSession", RecordingSession)
        service, _ = make_service(patients_db, sql="SELECT nmae FROM patients")
        session = service.nlidb.executor
        assert isinstance(session, RecordingSession)
        with service:
            response = service.translate("show the name of every patient")
        assert response.repair["outcome"] == "repaired"
        assert response.repair["verified"]
        assert service._repair.adapter is session
        assert session.executed == [
            ("SELECT name FROM patients", service.config.repair_max_rows)
        ]

    def test_response_with_trace_pickles(self, patients_db):
        # Sharded serving ships responses through a process pipe.
        service, _ = make_service(patients_db, sql="SELECT nmae FROM patients")
        with service:
            response = service.translate("show the name of every patient")
        clone = pickle.loads(pickle.dumps(response))
        assert clone.repair == response.repair

    def test_zero_attempt_budget_is_bit_identical(self, patients_db):
        enabled, _ = make_service(patients_db)
        disabled, _ = make_service(patients_db, repair_attempts=0)
        question = "how many patients are there"
        with enabled, disabled:
            on = enabled.translate(question)
            off = disabled.translate(question)
        assert off.repair is None
        assert "repair" not in off.to_dict()
        assert on.payload() == off.payload()
        # And the whole JSON view matches a pre-repair service's,
        # modulo the per-process request id and latency.
        off_record = off.to_dict()
        assert set(off_record) == {
            "request_id", "nl", "status", "source", "sql", "failure", "latency",
        }
        # Disabled loop: no pipeline, no counters, no identities.
        stats = disabled.stats()
        assert stats["repair"] is None
        assert all(
            not item["identity"].startswith("repair.")
            for item in stats["accounting"]["identities"]
        )

    def test_accounting_identities_hold(self, patients_db):
        service, model = make_service(patients_db, sql="SELECT nmae FROM patients")
        with service:
            service.translate("show the name of every patient")
            model.sql = "SELECT warp_core FROM starships"
            service.translate("how many patients are there")
        stats = service.stats()
        names = [i["identity"] for i in stats["accounting"]["identities"]]
        assert "repair.requests == repair.clean + repair.attempted" in names
        assert (
            "repair.attempted == repair.repaired + repair.abandoned"
            " + repair.budget_exhausted" in names
        )
        assert stats["accounting"]["consistent"], stats["accounting"]
        counters = stats["counters"]
        assert counters["repair.requests"] == 2
        assert counters["repair.repaired"] == 1
        assert counters["repair.abandoned"] == 1
        assert stats["repair"]["enabled"]
        assert stats["repair"]["last_trace"]["outcome"] == "abandoned"

    def test_repair_runs_under_tripped_breaker(self, patients_db):
        # Model down, breaker open: the fallback leg still goes through
        # the repair pipeline and every response stays structured.
        service, model = make_service(patients_db, failure_threshold=1)
        model.mode = "crash"
        with service:
            first = service.translate("show the age of all patients")
            second = service.translate("show the diagnosis of all patients")
        assert first.status == "degraded" and second.status == "degraded"
        assert service.breaker.stats()["state"] == "open"
        assert service.metrics.counter("repair.requests") == 2
        stats = service.stats()
        assert stats["accounting"]["consistent"]

    def test_service_with_faulted_repair_never_raises(self, patients_db):
        from repro.serving.service import TranslationService as Svc

        model = ScriptedModel("SELECT nmae FROM patients")
        faults = RepairFaultPlan((RepairFaultSpec(ADAPTER_CRASH, attempts=5),))
        service = Svc(
            DBPal(patients_db, model),
            ServingConfig(workers=2),
            repair_faults=faults,
        )
        with service:
            response = service.translate("show the name of every patient")
        # Repair refuted by the injected crash: original answer served.
        assert response.ok and response.sql == "SELECT nmae FROM patients"
        assert response.repair["outcome"] == "abandoned"


# ----------------------------------------------------------------------
# Lint-gated keyword fallback (satellite)
# ----------------------------------------------------------------------


class TestFallbackLintGate:
    def test_verify_accepts_clean(self, patients):
        fallback = KeywordFallback(patients)
        assert fallback._verify("SELECT name FROM patients")

    def test_verify_rejects_unknown_column(self, patients):
        fallback = KeywordFallback(patients)
        assert not fallback._verify("SELECT warp_core FROM patients")
        assert not fallback._verify("SELECT name FROM starships")
        assert not fallback._verify("SELECT FROM WHERE")

    def test_translate_output_is_always_lint_clean(self, patients):
        fallback = KeywordFallback(patients)
        questions = [
            "show the name of every patient",
            "what is the average age",
            "diagnosis and length of stay",
            "colorless green ideas sleep furiously",
        ]
        produced = 0
        for question in questions:
            sql = fallback.translate(question)
            if sql is None:
                continue
            produced += 1
            diags = analyze_query(parse(sql), patients)
            assert not any(d.severity is Severity.ERROR for d in diags), sql
        assert produced > 0  # the gate must not silence everything


# ----------------------------------------------------------------------
# Cross-shard rollup
# ----------------------------------------------------------------------


class TestShardMerge:
    def test_repair_counters_roll_up(self):
        def snap(requests, clean, repaired, abandoned, exhausted):
            return {
                "counters": {
                    "requests_total": requests,
                    "repair.requests": requests,
                    "repair.clean": clean,
                    "repair.attempted": repaired + abandoned + exhausted,
                    "repair.repaired": repaired,
                    "repair.abandoned": abandoned,
                    "repair.budget_exhausted": exhausted,
                },
                "repair": {"enabled": True},
                "latency_samples": [0.01],
            }

        merged = merge_shard_stats(
            [snap(10, 6, 3, 1, 0), snap(6, 2, 2, 1, 1)], elapsed=1.0
        )
        rollup = merged["repair"]
        assert rollup["requests"] == 16
        assert rollup["clean"] == 8
        assert rollup["repaired"] == 5
        assert rollup["abandoned"] == 2
        assert rollup["budget_exhausted"] == 1
        assert rollup["repair_rate"] == round(5 / 16, 4)

    def test_no_repair_section_when_disabled(self):
        merged = merge_shard_stats(
            [{"counters": {"requests_total": 3}, "repair": None}], elapsed=1.0
        )
        assert merged["repair"] is None
