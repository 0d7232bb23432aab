"""Unit tests for the serving-layer building blocks.

Everything time-dependent is driven by a fake clock — no sleeps.
"""

import queue
import threading

import pytest

from repro.errors import ServingError
from repro.serving import (
    BatchRequest,
    CircuitBreaker,
    KeywordFallback,
    MetricsRegistry,
    MicroBatcher,
    ServingConfig,
    TokenBucket,
    TranslationCache,
    percentile,
)
from repro.serving.limits import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.workers >= 1
        assert set(config.to_dict()) >= {"workers", "max_batch_size", "cache_ttl"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_batch_size": 0},
            {"queue_capacity": -1},
            {"request_timeout": 0},
            {"rate_limit": -1.0},
            {"burst": 0},
            {"failure_threshold": 0},
            {"cooldown": -1.0},
            {"cache_capacity": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServingError):
            ServingConfig(**kwargs)


class TestTranslationCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = TranslationCache(capacity=2, ttl=0)
        cache.put("a", "SQL A")
        cache.put("b", "SQL B")
        assert cache.get("a").value == "SQL A"  # refreshes a's recency
        cache.put("c", "SQL C")  # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a").value == "SQL A"
        assert cache.get("c").value == "SQL C"
        assert cache.evictions == 1

    def test_ttl_expiry_and_stale_serving(self):
        clock = FakeClock()
        cache = TranslationCache(capacity=8, ttl=10.0, clock=clock)
        cache.put("k", "SQL")
        clock.advance(9.9)
        assert cache.get("k").value == "SQL"
        clock.advance(0.2)
        assert cache.get("k") is None  # expired
        stale = cache.get("k", allow_expired=True)
        assert stale is not None and stale.stale and stale.value == "SQL"

    def test_negative_entries_cached(self):
        cache = TranslationCache(capacity=4, ttl=0)
        cache.put("k", None)
        hit = cache.get("k")
        assert hit is not None and hit.value is None

    def test_stats_zero_guarded(self):
        cache = TranslationCache(capacity=4)
        stats = cache.stats()
        assert stats["hit_rate"] == 0.0 and stats["size"] == 0


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [True] * 3
        assert not bucket.try_acquire()
        clock.advance(0.5)  # +1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_disabled_when_rate_zero(self):
        bucket = TokenBucket(rate=0.0, burst=1)
        assert all(bucket.try_acquire() for _ in range(100))


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)
        assert breaker.state == CLOSED
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # half-open probe slot
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.stats()["opened_count"] == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED


class TestMetricsRegistry:
    def test_idle_snapshot_is_all_zeros(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        snap = registry.snapshot()  # elapsed == 0: every rate must guard
        assert snap["qps"] == 0.0
        assert snap["latency"]["p50"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
        assert snap["mean_batch_size"] == 0.0

    def test_percentiles_and_qps(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        for i in range(100):
            registry.record_request("ok", "model", seconds=(i + 1) / 1000.0)
        clock.advance(10.0)
        snap = registry.snapshot()
        assert snap["qps"] == pytest.approx(10.0)
        assert snap["latency"]["p50"] == pytest.approx(0.050)
        assert snap["latency"]["p99"] == pytest.approx(0.099)
        assert snap["latency"]["max"] == pytest.approx(0.100)
        assert snap["counters"]["status.ok"] == 100

    def test_batch_histogram(self):
        registry = MetricsRegistry()
        for size in (1, 4, 4, 8):
            registry.record_batch(size)
        snap = registry.snapshot()
        assert snap["batch_size_histogram"] == {"1": 1, "4": 2, "8": 1}
        assert snap["mean_batch_size"] == pytest.approx((1 + 4 + 4 + 8) / 4)

    def test_percentile_edge_cases(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0
        assert percentile([1.0, 2.0], 0) == 1.0

    def test_percentile_is_nearest_rank(self):
        import random

        def reference(values, q):
            # The smallest sample that at least q% of the samples do not exceed.
            ordered = sorted(values)
            n = len(ordered)
            return next(v for i, v in enumerate(ordered, 1) if i * 100 >= q * n)

        assert percentile([1, 2, 3, 4, 5], 50) == 3
        assert percentile(list(range(1, 12)), 95) == 11
        rng = random.Random(7)
        for n in range(1, 201):
            values = [rng.random() for _ in range(n)]
            for q in (0, 50, 95, 99, 100):
                assert percentile(values, q) == reference(values, q), (n, q)

    def test_format_table_idle(self):
        assert "requests" in MetricsRegistry().format_table()

    def test_snapshot_carries_stages(self):
        registry = MetricsRegistry()
        registry.record_stage("model_batch", 0.002, items=3)
        registry.record_stage("model_batch", 0.001)
        stage = registry.snapshot()["stages"]["model_batch"]
        assert set(stage) == {
            "seconds", "busy_seconds", "wall_seconds",
            "calls", "items", "items_per_second",
        }
        assert stage["calls"] == 2
        assert stage["items"] == 4
        assert stage["busy_seconds"] == pytest.approx(0.003)

    def test_concurrent_records_snapshot_consistently(self):
        import sys

        registry = MetricsRegistry()
        threads, rounds = 8, 200

        def worker() -> None:
            for _ in range(rounds):
                registry.record_stage("preprocess", 0.0001)
                registry.record_request("ok", "cache", 0.0001)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            # Snapshots taken mid-run see samples and counters together.
            while any(thread.is_alive() for thread in pool):
                snap = registry.snapshot(include_samples=True)
                assert len(snap["latency_samples"]) == snap["requests_total"]
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        snap = registry.snapshot(include_samples=True)
        assert snap["requests_total"] == threads * rounds
        assert snap["stages"]["preprocess"]["calls"] == threads * rounds
        assert snap["stages"]["preprocess"]["items"] == threads * rounds

    def test_concurrent_traces_fold_all_or_nothing(self):
        import sys

        from repro.serving.metrics import RequestTrace

        registry = MetricsRegistry()
        threads, rounds = 8, 200

        def worker() -> None:
            for i in range(rounds):
                trace = RequestTrace(i)
                trace.span("preprocess", 1.0, 1.5)
                trace.count("cache.hits")
                registry.record_request("ok", "cache", 0.0001, trace)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            # A snapshot sees each request with its whole trace or not at all.
            while any(thread.is_alive() for thread in pool):
                snap = registry.snapshot()
                total = snap["requests_total"]
                assert snap["counters"].get("cache.hits", 0) == total
                assert snap["stages"].get("preprocess", {}).get("calls", 0) == total
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        snap = registry.snapshot()
        assert snap["requests_total"] == threads * rounds
        preprocess = snap["stages"]["preprocess"]
        assert preprocess["busy_seconds"] == pytest.approx(0.5 * threads * rounds)
        assert preprocess["wall_seconds"] == pytest.approx(0.5)


class TestKeywordFallback:
    def test_matches_table_and_columns(self, patients_db):
        fallback = KeywordFallback(patients_db.schema)
        sql = fallback.translate("show the age of all patient")
        assert sql is not None and "FROM patients" in sql and "age" in sql

    def test_parseable_output(self, patients_db, geography_db):
        from repro.sql.parser import try_parse

        for db, question in (
            (patients_db, "name of every patient"),
            (geography_db, "what city have the biggest population"),
        ):
            sql = KeywordFallback(db.schema).translate(question)
            assert sql is not None and try_parse(sql) is not None

    def test_no_match_returns_none(self, patients_db):
        fallback = KeywordFallback(patients_db.schema)
        assert fallback.translate("quux flibber zot") is None
        assert fallback.translate("") is None


class TestMicroBatcher:
    def test_batches_respect_max_size(self):
        seen: list[list[str]] = []
        done = threading.Event()

        def process(batch):
            seen.append([r.key for r in batch])
            for request in batch:
                request.future.set_result(("model_ok", request.key.upper()))
            if sum(len(b) for b in seen) >= 10:
                done.set()

        batcher = MicroBatcher(process, workers=1, max_batch_size=4)
        # Queue everything before the worker starts, so batches form
        # from what is already waiting, not from timing.
        requests = [BatchRequest(key=f"q{i}", model_input=f"q{i}") for i in range(10)]
        for request in requests:
            batcher._queue.put(request)
        batcher.start()
        try:
            done.wait(timeout=5.0)
            results = [r.future.result(timeout=5.0) for r in requests]
        finally:
            batcher.stop()
        assert [value for _status, value in results] == [f"Q{i}" for i in range(10)]
        assert max(len(batch) for batch in seen) <= 4
        # The queued requests coalesced into at least one multi-request batch.
        assert any(len(batch) > 1 for batch in seen)

    def test_lone_request_is_not_held_for_a_batch(self):
        class RecordingQueue(queue.Queue):
            def __init__(self) -> None:
                super().__init__()
                self.timed_gets: list[float] = []

            def get(self, block=True, timeout=None):
                if timeout is not None:
                    self.timed_gets.append(timeout)
                return super().get(block, timeout)

        batcher = MicroBatcher(lambda batch: None, workers=1, max_batch_size=8)
        batcher._queue = RecordingQueue()
        request = BatchRequest(key="k", model_input="k")
        batcher._queue.put(request)
        assert batcher._gather_batch() == [request]
        assert batcher._queue.timed_gets == []

    def test_crashing_callback_resolves_futures(self):
        def process(batch):
            raise RuntimeError("boom")

        batcher = MicroBatcher(process, workers=1, max_batch_size=2)
        batcher.start()
        try:
            request = BatchRequest(key="k", model_input="k")
            batcher.submit(request)
            with pytest.raises(RuntimeError):
                request.future.result(timeout=5.0)
        finally:
            batcher.stop()

    def test_queue_full_sheds(self):
        release = threading.Event()

        def process(batch):
            release.wait(timeout=5.0)
            for request in batch:
                request.future.set_result(("model_ok", None))

        batcher = MicroBatcher(process, workers=1, max_batch_size=1, queue_capacity=1)
        batcher.start()
        try:
            first = BatchRequest(key="a", model_input="a")
            assert batcher.submit(first)
            first_running = False
            # Wait until the worker picked up the first request.
            for _ in range(200):
                if batcher._queue.empty():
                    first_running = True
                    break
                release.wait(timeout=0.005)
            assert first_running
            assert batcher.submit(BatchRequest(key="b", model_input="b"))
            assert not batcher.submit(BatchRequest(key="c", model_input="c"))
        finally:
            release.set()
            batcher.stop()

    def test_submit_requires_start(self):
        batcher = MicroBatcher(lambda batch: None)
        with pytest.raises(ServingError):
            batcher.submit(BatchRequest(key="k", model_input="k"))
