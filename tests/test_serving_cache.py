"""Serving-cache correctness: anonymized keys, per-request constants,
single-flight coalescing.

The cache key is the *anonymized* model input, so distinct questions
("age 4" / "age 5") share one entry — these tests pin down that a hit
still restores each request's own constants, and that a concurrent
burst of identical questions costs exactly one model call.
"""

import threading
import time

import pytest

from repro.neural.base import TranslationModel
from repro.runtime import DBPal
from repro.serving import ServingConfig, TranslationService


class CountingModel(TranslationModel):
    """Deterministic placeholder-template model with call accounting."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.batch_calls: list[list[str]] = []
        self._lock = threading.Lock()

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        if "@age" in nl.lower():
            return "SELECT name FROM patients WHERE age = @AGE"
        if "average" in nl:
            return "SELECT AVG(age) FROM patients"
        return None

    def translate_batch(self, nls):
        with self._lock:
            self.batch_calls.append(list(nls))
        if self.delay:
            time.sleep(self.delay)
        return [self.translate(nl) for nl in nls]

    @property
    def model_inputs_seen(self) -> list[str]:
        return [nl for batch in self.batch_calls for nl in batch]


@pytest.fixture
def counting_service(patients_db):
    model = CountingModel()
    nlidb = DBPal(patients_db, model)
    config = ServingConfig(workers=2, request_timeout=10.0)
    with TranslationService(nlidb, config) as service:
        yield service, model


class TestAnonymizedKeySharing:
    def test_shared_key_restores_per_request_constants(
        self, counting_service, patients_db
    ):
        service, model = counting_service
        age_a, age_b = sorted(set(patients_db.column_values("patients", "age")))[:2]
        first = service.translate(f"show me the names of all patients with age {age_a}")
        second = service.translate(f"show me the names of all patients with age {age_b}")
        # Both anonymize to the same model input -> one cache entry.
        assert first.result.model_input == second.result.model_input
        assert len(model.model_inputs_seen) == 1  # second request hit the cache
        assert second.source == "cache" and second.ok
        # ... yet each response carries ITS OWN constant.
        assert first.sql == f"SELECT name FROM patients WHERE age = {age_a}"
        assert second.sql == f"SELECT name FROM patients WHERE age = {age_b}"

    def test_cache_stats_recorded(self, counting_service, patients_db):
        service, _model = counting_service
        ages = sorted(set(patients_db.column_values("patients", "age")))[:3]
        for age in ages:
            service.translate(f"show me the names of all patients with age {age}")
        stats = service.stats()
        assert stats["counters"]["cache.hits"] == len(ages) - 1
        assert stats["counters"]["cache.misses"] == 1
        assert stats["cache"]["size"] == 1
        assert stats["cache_hit_rate"] == pytest.approx(
            (len(ages) - 1) / len(ages), abs=1e-3
        )

    def test_negative_entries_skip_the_model(self, counting_service):
        service, model = counting_service
        for _ in range(3):
            response = service.translate("colorless green ideas sleep furiously")
            assert response.status in ("degraded", "error")
        # The model was consulted once; repeats hit the negative entry.
        assert len(model.model_inputs_seen) == 1


class TestSingleFlight:
    def test_concurrent_identical_burst_costs_one_model_call(self, patients_db):
        model = CountingModel(delay=0.05)  # widen the race window
        nlidb = DBPal(patients_db, model)
        config = ServingConfig(workers=4, request_timeout=10.0)
        with TranslationService(nlidb, config) as service:
            barrier = threading.Barrier(8)
            responses = []
            responses_lock = threading.Lock()

            def client():
                barrier.wait(timeout=5.0)
                response = service.translate(
                    "what is the average age of all patients"
                )
                with responses_lock:
                    responses.append(response)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)

            assert len(responses) == 8
            assert all(r.ok for r in responses)
            assert len({r.sql for r in responses}) == 1
            # The whole burst triggered exactly one model call.
            assert len(model.model_inputs_seen) == 1
            coalesced = service.metrics.counter("singleflight.coalesced")
            hits = service.metrics.counter("cache.hits")
            late_hits = service.metrics.counter("cache.late_hits")
            assert coalesced + hits + late_hits == 7

    def test_sequential_repeats_also_one_model_call(self, counting_service):
        service, model = counting_service
        for _ in range(5):
            assert service.translate("what is the average age of all patients").ok
        assert len(model.model_inputs_seen) == 1
