"""The registry's signature fold against a by-name reference fold.

``MetricsRegistry`` counts a finished request by its signature (status,
source, trace counters) and expands the named counters only when they
are read.  ``ReferenceFold`` below writes every counter by name as it
is recorded, the way the registry once did.  The same calls go through
both, scripted and from a live ``TranslationService``, and everything
the snapshots, the counter identities and the shard merge read must
come out equal.
"""

import time
from collections import Counter

import pytest

from repro.perf.instrumentation import PerfRecorder
from repro.serving import MetricsRegistry, merge_shard_stats
from repro.serving.metrics import RequestTrace
from tests.test_serving_service import QUESTIONS, make_service


class ReferenceFold:
    """Every counter written by name, every span through PerfRecorder.add."""

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.batch_sizes: Counter[int] = Counter()
        self.stages = PerfRecorder()
        self.latencies: list[float] = []

    def increment(self, name, amount=1):
        self.counters[name] += amount

    def record_request(self, status, source, seconds, trace=None):
        if trace is not None:
            self.record_trace(trace)
        self.counters["requests_total"] += 1
        self.counters[f"status.{status}"] += 1
        self.counters[f"source.{source}"] += 1
        self.latencies.append(seconds)

    def record_trace(self, trace):
        for name in trace.counters:
            self.counters[name] += 1
        for name, start, end in trace.spans:
            self.stages.add(name, end - start, 1, end)

    def record_batch(self, size):
        self.counters["batches_total"] += 1
        self.counters["model.batched_inputs"] += size
        self.batch_sizes[size] += 1

    def record_stage(self, name, seconds, items=1):
        self.stages.add(name, seconds, items=items)

    def snapshot(self) -> dict:
        return {
            "requests_total": self.counters.get("requests_total", 0),
            "counters": dict(sorted(self.counters.items())),
            "stages": self.stages.report(),
            "batch_size_histogram": {
                str(k): v for k, v in sorted(self.batch_sizes.items())
            },
            "latency_samples": [round(s, 6) for s in self.latencies],
        }


class TeeRegistry(MetricsRegistry):
    """A registry that passes every recording on to a reference fold."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.reference = ReferenceFold()

    def increment(self, name, amount=1):
        super().increment(name, amount)
        self.reference.increment(name, amount)

    def record_request(self, status, source, seconds, trace=None):
        super().record_request(status, source, seconds, trace)
        self.reference.record_request(status, source, seconds, trace)

    def record_trace(self, trace):
        super().record_trace(trace)
        self.reference.record_trace(trace)

    def record_batch(self, size):
        super().record_batch(size)
        self.reference.record_batch(size)

    def record_stage(self, name, seconds, items=1):
        super().record_stage(name, seconds, items)
        self.reference.record_stage(name, seconds, items)


def _trace(at: float, counters, spans=("preprocess", "repair", "postprocess")):
    trace = RequestTrace(0)
    for offset, name in enumerate(spans):
        # Dyadic clock readings: both folds' brackets are exact.
        trace.span(name, at + offset * 0.125, at + offset * 0.125 + 0.0625)
    for name in counters:
        trace.count(name)
    return trace


_MISS = ["cache.misses", "cache.recheck_misses", "flights.opened"]
_CLEAN = ["repair.requests", "repair.clean"]


def _script(registry, at: float) -> None:
    """One of every request kind the serving tiers fold."""
    registry.record_request("ok", "model", 0.5, _trace(at, _MISS + _CLEAN))
    registry.record_batch(1)
    registry.record_stage("model_batch", 0.25, items=1)
    registry.increment("model.calls", 1)
    registry.record_request("ok", "cache", 0.25, _trace(at + 1, ["cache.hits"] + _CLEAN))
    registry.record_request(
        "ok", "model", 0.5,
        _trace(at + 2, ["cache.misses", "singleflight.coalesced"] + _CLEAN),
    )
    registry.record_request(
        "ok", "model", 0.5, _trace(at + 3, ["cache.misses", "cache.late_hits"] + _CLEAN)
    )
    registry.record_request(
        "degraded", "cache", 0.75,
        _trace(at + 4, _MISS + ["degraded", "cache.stale_hits"],
               ("preprocess", "fallback")),
    )
    registry.record_request(
        "degraded", "fallback", 0.75,
        _trace(at + 5, _MISS + ["degraded", "cache.stale_misses"],
               ("preprocess", "fallback")),
    )
    registry.record_batch(3)
    registry.increment("model.failures")
    registry.increment("model.failed_inputs", 3)
    registry.record_request("rejected", "none", 0.125, RequestTrace(0))
    registry.record_request(
        "rejected", "none", 0.125, _trace(at + 6, _MISS + ["shed.queue_full"], ())
    )
    registry.record_request(
        "timeout", "none", 1.0, _trace(at + 7, _MISS + ["timeouts"], ("preprocess",))
    )
    registry.record_trace(_trace(at + 8, _MISS, ("preprocess",)))
    registry.record_request("error", "none", 0.0625)
    registry.increment("model.reloads")
    registry.increment("supervisor.redispatched", 0)


def _untimed_stages(stages: dict) -> dict:
    return {
        name: (stats["calls"], stats["items"], stats["busy_seconds"])
        for name, stats in stages.items()
    }


class TestScriptedFold:
    @pytest.fixture
    def registry(self):
        registry = TeeRegistry()
        # Later passes start earlier and end later: brackets widen both ways.
        for at in (64.0, 32.0, 128.0):
            _script(registry, at)
        return registry

    def test_counters_equal_the_reference(self, registry):
        snap, ref = registry.snapshot(), registry.reference.snapshot()
        assert list(snap["counters"].items()) == list(ref["counters"].items())
        assert snap["requests_total"] == ref["requests_total"] == 3 * 10
        assert snap["counters"]["supervisor.redispatched"] == 0
        for name in list(ref["counters"]) + ["never.counted"]:
            assert registry.counter(name) == ref["counters"].get(name, 0)

    def test_stages_equal_the_reference(self, registry):
        snap, ref = registry.snapshot(), registry.reference.snapshot()
        assert list(snap["stages"]) == list(ref["stages"])
        assert _untimed_stages(snap["stages"]) == _untimed_stages(ref["stages"])
        mine, theirs = registry._stages.stages, registry.reference.stages.stages
        for name in ("preprocess", "repair", "postprocess", "fallback"):
            assert (mine[name].first_start, mine[name].last_end) == (
                theirs[name].first_start,
                theirs[name].last_end,
            )
        assert snap["batch_size_histogram"] == ref["batch_size_histogram"]

    def test_shard_merge_equals_the_reference(self):
        shards = [TeeRegistry(), TeeRegistry()]
        _script(shards[0], 8.0)
        _script(shards[1], 16.0)
        _script(shards[1], 4.0)
        merged = merge_shard_stats(
            [shard.snapshot(include_samples=True) for shard in shards], 1.0
        )
        ref = merge_shard_stats([shard.reference.snapshot() for shard in shards], 1.0)
        assert list(merged["counters"].items()) == list(ref["counters"].items())
        assert merged["requests_total"] == ref["requests_total"] == 3 * 10
        assert _untimed_stages(merged["stages"]) == _untimed_stages(ref["stages"])
        assert merged["latency"] == ref["latency"]
        assert merged["batch_size_histogram"] == ref["batch_size_histogram"]


# ----------------------------------------------------------------------
# A live service, teed
# ----------------------------------------------------------------------


def _mixed(service, model):
    for question in QUESTIONS[:3] * 2:  # misses, then hits
        service.translate(question)
    burst = [service.submit("how many patients have length of stay 3") for _ in range(8)]
    for future in burst:  # coalesced waiters and late hits
        future.result(timeout=10.0)
    model.mode = "none"
    service.translate(QUESTIONS[4])  # fallback
    model.mode = "ok"

    def broken_postprocess(*args):
        raise RuntimeError("injected postprocess crash")

    service._postprocess = broken_postprocess
    with pytest.raises(RuntimeError, match="injected"):
        service.translate(QUESTIONS[5])


def _stale(service, model):
    service.translate(QUESTIONS[0])
    time.sleep(0.03)  # let the entry expire
    model.mode = "crash"
    service.translate(QUESTIONS[0])  # stale hit
    service.translate("show the age of all patients")  # keyword fallback


def _rejected(service, model):
    for i in range(4):
        service.translate(QUESTIONS[i % 3])


def _timeout(service, model):
    model.mode = "block"
    service.translate(QUESTIONS[0])
    model.release.set()


@pytest.mark.parametrize(
    "script, config, seen",
    [
        (_mixed, {}, ("cache.hits", "source.fallback")),
        (_stale, {"cache_ttl": 0.01, "failure_threshold": 100}, ("cache.stale_hits",)),
        (_rejected, {"rate_limit": 0.001, "burst": 2}, ("status.rejected",)),
        (_timeout, {"request_timeout": 0.05}, ("timeouts",)),
    ],
    ids=["mixed", "stale", "rejected", "timeout"],
)
def test_service_accounting_equals_the_reference(patients_db, script, config, seen):
    service, model = make_service(patients_db, **config)
    service.metrics = TeeRegistry()
    with service:
        script(service, model)
    stats = service.stats()
    ref = service.metrics.reference.snapshot()
    assert list(stats["counters"].items()) == list(ref["counters"].items())
    assert all(stats["counters"].get(name) for name in seen)
    assert stats["requests_total"] == ref["requests_total"]
    assert _untimed_stages(stats["stages"]) == _untimed_stages(ref["stages"])
    ref["cache"] = stats["cache"]
    assert stats["accounting"] == service._accounting(ref)
    assert stats["accounting"]["consistent"]
