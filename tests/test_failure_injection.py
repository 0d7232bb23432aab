"""Failure-injection tests: the runtime must survive broken model output.

Real models emit truncated, token-dropped, or shuffled SQL.  The
post-processor and evaluation harness must never crash on such input —
they either repair it or report a clean failure (None / incorrect).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GenerationConfig, Generator
from repro.eval import exact_match, semantic_match
from repro.neural.base import sql_to_tokens, tokens_to_sql
from repro.runtime import PostProcessor
from repro.schema import load_schema, patients_schema
from repro.sql import parse

_GEO = load_schema("geography")
_PATIENTS = patients_schema()
_POOL = [
    p.sql_text
    for p in Generator(_GEO, GenerationConfig(size_slotfills=3), seed=21).generate()
] + [
    p.sql_text
    for p in Generator(_PATIENTS, GenerationConfig(size_slotfills=3), seed=22).generate()
]


def _corrupt(sql_text: str, rng: np.random.Generator) -> str:
    tokens = sql_to_tokens(sql_text)
    mode = rng.integers(4)
    if mode == 0 and len(tokens) > 2:  # truncate
        cut = int(rng.integers(1, len(tokens)))
        tokens = tokens[:cut]
    elif mode == 1 and len(tokens) > 2:  # drop a random token
        drop = int(rng.integers(len(tokens)))
        tokens = tokens[:drop] + tokens[drop + 1 :]
    elif mode == 2 and len(tokens) > 3:  # swap two adjacent tokens
        i = int(rng.integers(len(tokens) - 1))
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    else:  # duplicate a token
        i = int(rng.integers(len(tokens)))
        tokens = tokens[: i + 1] + [tokens[i]] + tokens[i + 1 :]
    return tokens_to_sql(tokens)


class TestPostProcessorRobustness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_never_crashes_on_corrupted_output(self, seed):
        rng = np.random.default_rng(seed)
        sql_text = _POOL[int(rng.integers(len(_POOL)))]
        corrupted = _corrupt(sql_text, rng)
        for schema in (_GEO, _PATIENTS):
            post = PostProcessor(schema)
            processed = post.process(corrupted)
            # Either a clean failure or parseable repaired SQL.
            if processed is not None:
                assert parse(processed.sql) is not None

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_metrics_never_crash_on_corrupted_output(self, seed):
        rng = np.random.default_rng(seed)
        sql_text = _POOL[int(rng.integers(len(_POOL)))]
        corrupted = _corrupt(sql_text, rng)
        gold = parse(_POOL[int(rng.integers(len(_POOL)))])
        # Must return a bool, never raise.
        assert exact_match(corrupted, gold) in (True, False)
        assert semantic_match(corrupted, gold) in (True, False)

    def test_garbage_strings(self):
        post = PostProcessor(_PATIENTS)
        for garbage in ("", "    ", "SELECT", "???", "select from where", "@JOIN"):
            result = post.process(garbage)
            assert result is None or parse(result.sql) is not None


# ----------------------------------------------------------------------
# Serving-layer failure injection (ISSUE 2): a flaky/slow model must
# trip the circuit breaker, degrade through the fallback chain, and
# recover after the cool-down — never surfacing a raw exception.
# ----------------------------------------------------------------------


class FlakyModel:
    """Wraps a fitted model; fails the first ``fail_first`` batch calls,
    optionally sleeping ``delay`` seconds per call (slow-model mode)."""

    def __init__(self, inner, fail_first: int = 0, delay: float = 0.0) -> None:
        self.inner = inner
        self.fail_first = fail_first
        self.delay = delay
        self.calls = 0

    def fit(self, pairs, **kwargs):
        self.inner.fit(pairs, **kwargs)

    def translate(self, nl):
        return self.inner.translate(nl)

    def translate_batch(self, nls):
        import time as _time

        self.calls += 1
        if self.delay:
            _time.sleep(self.delay)
        if self.calls <= self.fail_first:
            raise RuntimeError(f"injected failure #{self.calls}")
        return self.inner.translate_batch(nls)


class TestServingFailureInjection:
    QUESTIONS = [
        "what is the average age of all patients",
        "how many patients are there",
        "show the name of every patient",
        "what is the minimum length of stay of all patients",
    ]

    def _service(self, retrieval_nlidb, model, **knobs):
        from repro.runtime import DBPal
        from repro.serving import ServingConfig, TranslationService

        nlidb = DBPal(retrieval_nlidb.database, model)
        defaults = dict(
            workers=1, request_timeout=5.0,
            failure_threshold=2, cooldown=0.1,
        )
        defaults.update(knobs)
        return TranslationService(nlidb, ServingConfig(**defaults))

    def test_breaker_opens_degrades_and_recovers(self, retrieval_nlidb):
        import time

        model = FlakyModel(retrieval_nlidb.model, fail_first=2)
        service = self._service(retrieval_nlidb, model)
        with service:
            # Two injected failures: both degrade, second opens the breaker.
            for question in self.QUESTIONS[:2]:
                response = service.translate(question)
                assert response.status in ("degraded", "error")
                assert response.result is not None or response.failure is not None
            assert service.breaker.state == "open"
            assert model.calls == 2

            # While open the model is short-circuited: no third call.
            during = service.translate(self.QUESTIONS[2])
            assert during.status in ("degraded", "error")
            assert model.calls == 2
            assert service.metrics.counter("breaker.short_circuited") >= 1

            # After the cool-down one probe goes through, heals, closes.
            time.sleep(0.12)
            recovered = service.translate(self.QUESTIONS[3])
            assert recovered.status == "ok" and recovered.source == "model"
            assert service.breaker.state == "closed"
            assert model.calls == 3

            snapshot = service.stats()
        assert snapshot["counters"]["model.failures"] == 2
        assert snapshot["counters"]["degraded"] >= 3
        assert snapshot["breaker"]["opened_count"] == 1

    def test_degraded_responses_are_structured_not_raised(self, retrieval_nlidb):
        model = FlakyModel(retrieval_nlidb.model, fail_first=10_000)
        service = self._service(retrieval_nlidb, model, failure_threshold=3)
        with service:
            for index in range(8):
                question = self.QUESTIONS[index % len(self.QUESTIONS)]
                response = service.translate(question)  # must never raise
                assert response.status in ("degraded", "error")
                if response.status == "degraded":
                    # Fallback SQL is parseable, runnable SQL.
                    assert parse(response.sql) is not None
            snapshot = service.stats()
        assert snapshot["counters"]["status.degraded"] >= 1
        assert snapshot["counters"]["degraded"] == 8
        assert snapshot["breaker"]["state"] == "open"

    def test_slow_model_times_out_then_recovers(self, retrieval_nlidb):
        model = FlakyModel(retrieval_nlidb.model, delay=0.3)
        service = self._service(retrieval_nlidb, model, request_timeout=0.05)
        with service:
            slow = service.translate(self.QUESTIONS[0])
            assert slow.status == "timeout"
            assert slow.failure is not None and slow.failure.code == "timeout"
            model.delay = 0.0
            # The timed-out flight still landed in the cache; repeats are instant.
            deadline = __import__("time").monotonic() + 5.0
            while __import__("time").monotonic() < deadline:
                fast = service.translate(self.QUESTIONS[0])
                if fast.status == "ok":
                    break
            assert fast.status == "ok" and fast.source in ("cache", "model")
