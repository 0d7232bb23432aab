"""End-to-end TranslationService behavior: statuses, degradation,
admission control, timeouts, async submission, the execution path of
``query()``, and the CLI wiring.
"""

import json
import threading
import time

import pytest

from repro.adapters import MemoryAdapter, normalize_rows
from repro.db.executor import execute
from repro.errors import ExecutionError, ReproError, TranslationError
from repro.neural.base import TranslationModel
from repro.runtime import DBPal
from repro.serving import ServingConfig, TranslationService
from repro.sql.printer import to_sql


class ScriptedModel(TranslationModel):
    """A model whose behavior per call is scripted by the test."""

    def __init__(self) -> None:
        self.mode = "ok"  # ok | none | crash | block
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        return "SELECT COUNT(*) FROM patients"

    def translate_batch(self, nls):
        with self._lock:
            self.calls += 1
        if self.mode == "crash":
            raise RuntimeError("injected model crash")
        if self.mode == "none":
            return [None] * len(nls)
        if self.mode == "block":
            self.release.wait(timeout=10.0)
        return [self.translate(nl) for nl in nls]


def make_service(patients_db, **config_kwargs) -> tuple[TranslationService, ScriptedModel]:
    model = ScriptedModel()
    defaults = dict(workers=2, request_timeout=5.0)
    defaults.update(config_kwargs)
    service = TranslationService(
        DBPal(patients_db, model), ServingConfig(**defaults)
    )
    return service, model


# Distinct questions (distinct anonymized keys) for cache-busting.
QUESTIONS = [
    "what is the average age of all patients",
    "how many patients are there",
    "show the name of every patient",
    "what is the maximum length of stay of all patients",
    "list the diagnosis of each patient",
    "what is the minimum age of all patients",
]


class TestHappyPath:
    def test_ok_response_shape(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            response = service.translate(QUESTIONS[0])
        assert response.ok and response.status == "ok"
        assert response.source == "model"
        assert response.sql == "SELECT COUNT(*) FROM patients"
        assert response.failure is None
        assert response.latency > 0
        assert response.request_id >= 1
        payload = response.to_dict()
        assert payload["status"] == "ok" and payload["failure"] is None
        json.dumps(payload)  # must be JSON-serializable

    def test_untrained_dbpal_rejected(self, patients_db):
        from repro.errors import ServingError

        with pytest.raises(ServingError):
            TranslationService(DBPal(patients_db))

    def test_submit_is_asynchronous(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            futures = [service.submit(q) for q in QUESTIONS[:4]]
            responses = [f.result(timeout=10.0) for f in futures]
        assert [r.ok for r in responses] == [True] * 4
        assert len({r.request_id for r in responses}) == 4

    def test_query_executes_rows(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            rows = service.query(QUESTIONS[1], max_rows=5)
        assert rows and "COUNT(*)" in rows[0]

    def test_perf_stages_recorded(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            service.translate(QUESTIONS[0])
            service.translate(QUESTIONS[0])  # cache hit: no model stage
        stages = service.stats()["stages"]
        assert stages["preprocess"]["calls"] == 2
        assert stages["model_batch"]["items"] == 1
        assert stages["postprocess"]["calls"] == 2


class TestGracefulDegradation:
    def test_model_crash_yields_structured_degraded_response(self, patients_db):
        service, model = make_service(patients_db, failure_threshold=100)
        model.mode = "crash"
        with service:
            response = service.translate("show the age of all patients")
        # Keyword fallback produced runnable SQL; no exception escaped.
        assert response.status == "degraded"
        assert response.source == "fallback"
        assert response.result is not None and "FROM patients" in response.sql
        assert service.metrics.counter("degraded") == 1
        assert service.metrics.counter("model.failures") == 1

    def test_unmatchable_question_yields_structured_error(self, patients_db):
        service, model = make_service(patients_db, failure_threshold=100)
        model.mode = "crash"
        with service:
            response = service.translate("colorless green ideas sleep furiously")
        assert response.status == "error"
        assert response.failure is not None
        assert response.failure.code == "model_unavailable"

    def test_stale_cache_served_when_model_down(self, patients_db):
        service, model = make_service(
            patients_db, cache_ttl=0.01, failure_threshold=100
        )
        with service:
            fresh = service.translate(QUESTIONS[0])
            assert fresh.ok
            time.sleep(0.03)  # let the entry expire
            model.mode = "crash"
            degraded = service.translate(QUESTIONS[0])
        assert degraded.status == "degraded"
        assert degraded.source == "cache"
        assert degraded.sql == fresh.sql

    def test_model_none_output_falls_back(self, patients_db):
        service, model = make_service(patients_db)
        model.mode = "none"
        with service:
            response = service.translate("show the age of all patients")
        assert response.status == "degraded" and response.source == "fallback"
        # Not a model outage: breaker stays closed, not retryable-coded.
        assert service.breaker.state == "closed"


class TestAdmissionControl:
    def test_rate_limit_rejects_structured(self, patients_db):
        service, _model = make_service(patients_db, rate_limit=0.001, burst=2)
        with service:
            statuses = [service.translate(QUESTIONS[i % 3]).status for i in range(4)]
        assert statuses[:2] == ["ok", "ok"]
        assert statuses[2:] == ["rejected", "rejected"]
        stats = service.stats()
        assert stats["counters"]["status.rejected"] == 2

    def test_queue_full_sheds_structured(self, patients_db):
        service, model = make_service(
            patients_db,
            workers=1,
            max_batch_size=1,
            queue_capacity=1,
            request_timeout=10.0,
        )
        model.mode = "block"

        def wait_for(condition):
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not condition():
                time.sleep(0.002)
            assert condition()

        with service:
            first = service.submit(QUESTIONS[0])
            # The single worker dequeues the first request and blocks
            # inside the model ...
            wait_for(lambda: model.calls == 1)
            second = service.submit(QUESTIONS[1])
            # ... so the second parks in the queue, filling it ...
            wait_for(service._batcher._queue.full)
            # ... and a third has nowhere to go: shed, not queued.
            overflow = service.translate(QUESTIONS[2])
            model.release.set()
            results = [f.result(timeout=10.0) for f in (first, second)]
        assert overflow.status == "rejected"
        assert overflow.failure is not None and overflow.failure.code == "queue_full"
        assert all(r.ok for r in results)
        assert service.metrics.counter("shed.queue_full") == 1

    def test_timeout_returns_structured_response(self, patients_db):
        service, model = make_service(patients_db, request_timeout=0.05)
        model.mode = "block"
        with service:
            response = service.translate(QUESTIONS[0])
            model.release.set()
        assert response.status == "timeout"
        assert response.failure is not None and response.failure.code == "timeout"
        assert service.metrics.counter("timeouts") == 1


class TestStatsSnapshot:
    def test_snapshot_sections(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            for question in QUESTIONS[:3]:
                service.translate(question)
            snap = service.stats()
        assert snap["requests_total"] == 3
        assert snap["qps"] > 0
        assert snap["latency"]["p50"] > 0
        assert snap["breaker"]["state"] == "closed"
        assert snap["cache"]["size"] == 3
        assert snap["config"]["workers"] == 2
        assert "preprocess" in snap["stages"]
        json.dumps(snap)  # the whole snapshot must be JSON-ready

    def test_idle_service_snapshots_cleanly(self, patients_db):
        service, _model = make_service(patients_db)
        snap = service.stats()  # never started, zero requests
        assert snap["requests_total"] == 0
        assert snap["qps"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
        json.dumps(snap)


class TestCounterAccounting:
    """The counter-reconciliation satellite (ISSUE 8).

    The seed BENCH showed ``batches_total: 5`` while the histogram
    summed to 7 items and ``model.calls`` read 7 — three numbers
    describing one batcher with no recorded relationship.  ``stats()``
    now carries explicit identities tying every counter to its
    neighbors; these tests regress them over workloads exercising
    every path (hit, miss, coalesce, crash, shed, disabled cache).
    """

    @staticmethod
    def _assert_consistent(snap):
        accounting = snap["accounting"]
        assert accounting["consistent"], accounting["identities"]
        return accounting

    def test_identities_after_mixed_workload(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            for question in QUESTIONS:
                service.translate(question)
            for question in QUESTIONS:  # pure cache hits
                service.translate(question)
            # A concurrent burst on one cold key: coalescing + late hits.
            futures = [
                service.submit("how many patients have length of stay 3")
                for _ in range(8)
            ]
            for future in futures:
                future.result(timeout=10.0)
            snap = service.stats()
        accounting = self._assert_consistent(snap)
        # The exact BENCH regression: batch histogram vs model counters.
        counters = snap["counters"]
        histogram = snap["batch_size_histogram"]
        assert sum(int(s) * n for s, n in histogram.items()) == counters[
            "model.batched_inputs"
        ]
        assert sum(histogram.values()) == counters["batches_total"]
        assert counters["model.batched_inputs"] == counters["model.calls"]
        # Every cache miss is tied to a terminal outcome.
        assert counters["cache.misses"] == (
            counters.get("flights.opened", 0)
            + counters.get("singleflight.coalesced", 0)
            + counters.get("cache.late_hits", 0)
        )
        assert len(accounting["identities"]) >= 8

    def test_identities_with_model_failures(self, patients_db):
        service, model = make_service(patients_db, failure_threshold=2)
        model.mode = "crash"
        with service:
            for question in QUESTIONS:
                service.translate(question)
            snap = service.stats()
        self._assert_consistent(snap)
        counters = snap["counters"]
        # Failed inputs + breaker short-circuits cover every batched
        # input; model.calls stays 0.
        assert counters.get("model.calls", 0) == 0
        assert counters["model.batched_inputs"] == (
            counters.get("model.failed_inputs", 0)
            + counters.get("breaker.short_circuited", 0)
        )

    def test_identities_with_cache_disabled(self, patients_db):
        service, _model = make_service(patients_db, cache_capacity=0)
        with service:
            for question in QUESTIONS[:4]:
                service.translate(question)
            snap = service.stats()
        accounting = self._assert_consistent(snap)
        # Cache identities are simply absent, not trivially true.
        names = [item["identity"] for item in accounting["identities"]]
        assert not any("cache_object" in name for name in names)

    def test_identities_survive_queue_shedding(self, patients_db):
        service, model = make_service(
            patients_db,
            workers=1,
            max_batch_size=1,
            queue_capacity=1,
            request_timeout=10.0,
        )
        model.mode = "block"
        with service:
            first = service.submit(QUESTIONS[0])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and model.calls < 1:
                time.sleep(0.002)
            second = service.submit(QUESTIONS[1])
            deadline = time.monotonic() + 5.0
            while (
                time.monotonic() < deadline
                and not service._batcher._queue.full()
            ):
                time.sleep(0.002)
            shed = service.translate(QUESTIONS[2])
            model.release.set()
            first.result(timeout=10.0)
            second.result(timeout=10.0)
            snap = service.stats()
        assert shed.status == "rejected"
        self._assert_consistent(snap)
        assert snap["counters"]["shed.queue_full"] == 1


class TestStageTimings:
    """Busy-vs-wall per-stage timing satellite (ISSUE 8).

    The seed BENCH reported ``preprocess: 5.99s`` inside a 0.94s run —
    correct (summed across 8 client threads) but unlabeled.  Stage
    reports now carry both numbers, told apart explicitly, plus a
    legend in the snapshot.
    """

    def test_stages_report_busy_and_wall(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            service.translate(QUESTIONS[0])
            time.sleep(0.05)
            service.translate(QUESTIONS[1])
            snap = service.stats()
        for stats in snap["stages"].values():
            assert stats["busy_seconds"] == stats["seconds"]  # legacy alias
            assert stats["wall_seconds"] >= 0.0
        # Two sequential preprocess calls 50ms apart: the wall span
        # includes the idle gap, the busy sum does not.
        preprocess = snap["stages"]["preprocess"]
        assert preprocess["calls"] == 2
        assert preprocess["wall_seconds"] >= 0.05
        assert preprocess["wall_seconds"] > preprocess["busy_seconds"]

    def test_busy_exceeds_wall_under_concurrency(self, patients_db):
        from repro.perf.instrumentation import PerfRecorder

        recorder = PerfRecorder()
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait()
            with recorder.stage("hot"):
                time.sleep(0.05)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = recorder.report()["hot"]
        # 4 overlapping 50ms spans: ~200ms busy inside a ~50ms wall.
        assert report["busy_seconds"] >= 0.15
        assert report["wall_seconds"] < report["busy_seconds"]

    def test_snapshot_carries_stage_legend(self, patients_db):
        service, _model = make_service(patients_db)
        snap = service.stats()
        assert set(snap["stages_legend"]) == {"busy_seconds", "wall_seconds"}
        assert "summed across" in snap["stages_legend"]["busy_seconds"]


class TestModelReload:
    def test_reload_swaps_model_atomically(self, patients_db):
        service, _model = make_service(patients_db)
        replacement = ScriptedModel()
        with service:
            before = service.translate(QUESTIONS[0])
            assert before.ok
            service.reload_model(replacement)
            # A *new* key must be served by the new model (the old
            # key's cache entry stays valid — outputs, not state).
            after = service.translate(QUESTIONS[1])
        assert after.ok
        assert replacement.calls == 1
        assert service.metrics.counter("model.reloads") == 1

    def test_reload_rejects_none(self, patients_db):
        from repro.errors import ServingError

        service, _model = make_service(patients_db)
        with pytest.raises(ServingError):
            service.reload_model(None)


class TestCliServe(object):
    def test_serve_command_stdin(self, tmp_path, monkeypatch, capsys):
        import io

        from repro import GenerationConfig, RetrievalModel, TrainingPipeline
        from repro.cli import main
        from repro.neural import save_model
        from repro.schema import patients_schema

        # RetrievalModel isn't checkpointable; train + save a tiny seq2seq.
        from repro.neural import Seq2SeqModel

        corpus = TrainingPipeline(
            patients_schema(), GenerationConfig(size_slotfills=2), seed=0
        ).generate()
        model = Seq2SeqModel(embed_dim=8, hidden_dim=12, epochs=1, seed=0)
        model.fit(corpus.subsample(80, seed=0).pairs)
        checkpoint = tmp_path / "ckpt.npz"
        save_model(model, str(checkpoint))

        stats_path = tmp_path / "stats.json"
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("show me the names of all patients\n\n"),
        )
        code = main(
            [
                "serve",
                "patients",
                "--checkpoint",
                str(checkpoint),
                "--stats",
                "--stats-json",
                str(stats_path),
                "--workers",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SQL:" in out and "serving stats" in out
        written = json.loads(stats_path.read_text())
        assert written["requests_total"] == 1
        assert written["breaker"]["state"] in ("closed", "open", "half_open")


# ----------------------------------------------------------------------
# Execution path: query() runs on DBPal.execute
# ----------------------------------------------------------------------

class RecordingAdapter(MemoryAdapter):
    """A memory backend that remembers every query it executed."""

    def __init__(self, source) -> None:
        super().__init__(source)
        self.executed: list[str] = []

    def execute(self, query, max_rows=None):
        self.executed.append(to_sql(query))
        return super().execute(query, max_rows=max_rows)


class GoldModel(TranslationModel):
    """Answers each known model input with its item's gold SQL."""

    def __init__(self, answers: dict[str, str]) -> None:
        self.answers = answers

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        return self.answers.get(nl)


def _ground(nl: str, database) -> str:
    """Replace each ``@NAME`` token by a value of the column it names."""
    tokens = nl.split()
    for position, token in enumerate(tokens):
        if not token.startswith("@") or len(token) < 2:
            continue
        column = token[1:].lower().split(".")[-1]
        owners = database.schema.tables_with_column(column)
        values = database.column_values(owners[0].name, column) if owners else []
        values = [v for v in values if v is not None]
        tokens[position] = str(values[len(values) // 2]) if values else "3"
    return " ".join(tokens)


def _served_rows(database, items, backend):
    """(served SQL, served rows or error class, oracle rows or error class)."""
    nlidb = DBPal(database, backend=backend)
    questions = [_ground(item.nl, database) for item in items]
    answers: dict[str, str] = {}
    for question, item in zip(questions, items):
        model_input = nlidb.preprocessor.preprocess(question).model_input
        answers.setdefault(model_input, item.sql_text)
    nlidb.model = GoldModel(answers)

    def outcome(run):
        try:
            return run()
        except ReproError as error:
            return type(error).__name__

    results = []
    with TranslationService(nlidb, ServingConfig(workers=1)) as service:
        for question in questions:
            response = service.translate(question)
            if not response.ok:
                with pytest.raises(TranslationError):
                    service.query(question)
                continue
            served = response.result.query
            results.append(
                (
                    to_sql(served),
                    outcome(lambda: service.query(question)),
                    outcome(lambda: execute(served, database)),
                )
            )
    return results


class TestExecutionPath:
    def test_query_executes_through_configured_backend(self, patients_db):
        backend = RecordingAdapter(patients_db)
        nlidb = DBPal(patients_db, ScriptedModel(), backend=backend)
        with TranslationService(nlidb, ServingConfig(workers=1)) as service:
            rows = service.query(QUESTIONS[1])
        assert backend.executed == ["SELECT COUNT(*) FROM patients"]
        assert rows == normalize_rows(
            execute(nlidb.translate(QUESTIONS[1]).query, patients_db)
        )

    def test_default_query_runs_on_the_planned_session(self, patients_db):
        service, _model = make_service(patients_db)
        with service:
            service.query(QUESTIONS[1])
            service.query(QUESTIONS[1])
        session = service.nlidb.executor
        assert (session.cache_misses, session.cache_hits) == (1, 1)

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_a_repeated_failing_answer_raises_every_time(
        self, patients_db, planner_runs, backend
    ):
        class PlaceholderModel(ScriptedModel):
            """Keeps an ``@AGE`` that the question binds to nothing."""

            def translate(self, nl):
                return "SELECT name FROM patients WHERE age = @AGE"

        nlidb = DBPal(patients_db, PlaceholderModel(), backend=backend)
        messages = set()
        with TranslationService(nlidb, ServingConfig(workers=1)) as service:
            for _attempt in range(50):
                with pytest.raises(ReproError) as info:
                    service.query(QUESTIONS[2])
                messages.add(str(info.value))
        assert len(messages) == 1
        if backend is None:
            assert info.type is ExecutionError
            assert "@AGE" in info.value.args[0]
            # Planned once; the session replays the other 49 failures.
            assert planner_runs == ["SELECT name FROM patients WHERE age = @AGE"]
            assert nlidb.executor.cache_hits == 49
        else:
            assert planner_runs == []

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_patients_rows_match_the_oracle(self, patients_db, backend):
        from repro.bench.patients import build_patients_benchmark

        self._check(patients_db, list(build_patients_benchmark()), backend)

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_spider_substitute_rows_match_the_oracle(self, backend):
        from repro.bench.spider import spider_test_workload
        from repro.db import populate
        from repro.schema import load_schema

        workload = spider_test_workload()
        for schema_name in dict.fromkeys(item.schema_name for item in workload):
            database = populate(load_schema(schema_name), rows_per_table=20, seed=3)
            self._check(database, list(workload.by_schema(schema_name)), backend)

    @staticmethod
    def _check(database, items, backend):
        results = _served_rows(database, items, backend)
        answered = [r for r in results if isinstance(r[1], list)]
        assert len(answered) >= len(items) // 2
        assert any(rows for _sql, rows, _oracle in answered)
        for sql, rows, oracle in results:
            if backend is None:
                assert rows == oracle, sql
            elif isinstance(oracle, list):
                assert rows == normalize_rows(oracle), sql
            else:  # engines name the failure differently; both must fail
                assert isinstance(rows, str), sql


class TestRequestTrace:
    """A request records into its own trace; the registry folds the
    finished trace, its latency and its status in one call."""

    def test_cache_hit_makes_one_registry_call(self, patients_db):
        from repro.serving import MetricsRegistry

        service, _model = make_service(patients_db)
        calls = []
        with service:
            service.translate(QUESTIONS[0])  # miss: fills the cache
            for name in dir(MetricsRegistry):
                method = getattr(service.metrics, name)
                if name.startswith("_") or not callable(method):
                    continue

                def counted(*args, _name=name, _method=method, **kwargs):
                    calls.append(_name)
                    return _method(*args, **kwargs)

                setattr(service.metrics, name, counted)
            response = service.translate(QUESTIONS[0])
        assert response.source == "cache" and response.repair is not None
        assert calls == ["record_request"]
        snap = service.metrics.snapshot()
        assert snap["counters"]["cache.hits"] == 1
        assert snap["counters"]["repair.requests"] == 2
        for stage in ("preprocess", "postprocess", "repair"):
            assert snap["stages"][stage]["calls"] == 2

    def test_stats_show_a_request_only_once_it_returns(self, patients_db):
        seen = []

        class PeekingModel(ScriptedModel):
            def translate_batch(self, nls):
                seen.append(service.stats())
                return super().translate_batch(nls)

        service = TranslationService(
            DBPal(patients_db, PeekingModel()), ServingConfig(workers=1)
        )
        with service:
            response = service.translate(QUESTIONS[0])
            after = service.stats()
        assert response.ok and len(seen) == 1
        during = seen[0]
        assert during["requests_total"] == 0
        for name in ("cache.misses", "cache.recheck_misses", "flights.opened"):
            assert name not in during["counters"]
            assert after["counters"][name] == 1
        assert "preprocess" not in during["stages"]
        assert after["requests_total"] == 1
        for stage in ("preprocess", "postprocess", "repair"):
            assert after["stages"][stage]["calls"] == 1
        assert after["accounting"]["consistent"]

    def test_a_raising_request_folds_its_trace_but_counts_no_request(
        self, patients_db
    ):
        service, _model = make_service(patients_db)

        def broken_postprocess(*args):
            raise RuntimeError("injected postprocess crash")

        service._postprocess = broken_postprocess
        with service:
            with pytest.raises(RuntimeError, match="injected"):
                service.translate(QUESTIONS[0])
            snap = service.stats()
        assert snap["stages"]["preprocess"]["calls"] == 1
        assert snap["counters"]["cache.misses"] == 1
        assert snap["counters"]["flights.opened"] == 1
        assert snap["requests_total"] == 0
        assert "requests_total" not in snap["counters"]
        assert snap["latency"]["samples"] == 0

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_a_fractional_limit_answer_gets_a_structured_response(
        self, patients_db, backend
    ):
        class FractionalLimitModel(ScriptedModel):
            def translate(self, nl):
                return "SELECT name FROM patients LIMIT 2.5"

        nlidb = DBPal(patients_db, FractionalLimitModel(), backend=backend)
        with TranslationService(nlidb, ServingConfig(workers=1)) as service:
            response = service.translate(QUESTIONS[2])
        assert response.status in ("degraded", "error")
        if response.status == "degraded":
            assert response.source == "fallback"
            assert "LIMIT" not in response.sql
        else:
            assert response.failure.code == "untranslatable"


def _hot_repeat_pool(database) -> list[str]:
    """The benchmark's ``hot_repeat`` questions, bound from ``database``."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "_perfbench_workloads"
    workloads = sys.modules.get(name)
    if workloads is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[name] = workloads  # its dataclasses look the module up
        spec.loader.exec_module(workloads)
    stream = workloads.build_stream("hot_repeat", 1, {"patients": database})
    return list(dict.fromkeys(request.nl for request in stream))


class TestCleanMemoOnTheServedPath:
    """A clean-verdict memo hit serves what a cold memo serves."""

    def test_hot_repeat_pool_served_twice_matches_a_cold_memo(
        self, patients_db, retrieval_nlidb
    ):
        from collections import OrderedDict

        class Forgetful(OrderedDict):
            def __setitem__(self, key, value):
                pass

        pool = _hot_repeat_pool(patients_db)
        assert len(pool) == 48
        runs = {}
        for memo in ("warm", "cold"):
            service = TranslationService(retrieval_nlidb, ServingConfig(workers=1))
            if memo == "cold":
                service._repair._clean_sql = Forgetful()
            with service:
                responses = [service.translate(nl) for nl in pool + pool]
                stats = service.stats()
            runs[memo] = (
                [r.payload() for r in responses],
                [None if r.repair is None else r.repair["outcome"] for r in responses],
                {k: v for k, v in stats["counters"].items() if k.startswith("repair.")},
            )
            assert stats["accounting"]["consistent"]
        assert runs["warm"] == runs["cold"]
        outcomes = runs["warm"][1]
        assert outcomes[: len(pool)] == outcomes[len(pool) :]
        assert {"clean", "abandoned"} <= set(outcomes)
