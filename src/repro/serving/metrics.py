"""Serving observability: counters, latency percentiles, batch histogram,
per-stage timings.

A :class:`MetricsRegistry` is the single sink every serving component
reports into.  It is deliberately boring — one lock, some counters, a
bounded latency window, a stage recorder — because it sits on the hot
path of every request.  A request does not report as it goes: it
writes its stage spans and counters into its own :class:`RequestTrace`,
and the registry folds the finished trace in one lock hold (see
:meth:`MetricsRegistry.record_request`); counters are kept per
request signature and expanded by name only when read.  ``snapshot()``
produces the JSON-ready report surfaced by ``repro serve --stats`` and
written into ``BENCH_serving.json``; every derived rate in it is
zero-guarded so an idle service snapshots cleanly.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, deque
from typing import Callable, Sequence

from repro.perf.instrumentation import PerfRecorder, StageStats

#: What the two per-stage time columns of ``snapshot()["stages"]`` mean
#: (surfaced verbatim in ``--stats`` / ``--stats-json`` so a
#: 600%-looking utilization is never misread as a measurement bug).
STAGES_LEGEND = {
    "busy_seconds": (
        "time spent inside the stage summed across all worker "
        "threads; under concurrency this exceeds wall-clock"
    ),
    "wall_seconds": (
        "wall-clock span from the stage's first entry to its last "
        "exit; bounded by the service's uptime"
    ),
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input.

    The smallest sample that at least ``q`` percent of the samples do
    not exceed: 1-based rank ``ceil(q * n / 100)``, and the minimum at
    ``q <= 0``.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) / 100)))
    return ordered[rank - 1]


class RequestTrace:
    """What one request records while it is served.

    The request's thread owns its trace, so recording takes no lock:
    ``span`` keeps a timed stage (start and end on the serving tier's
    clock) and ``count`` keeps a counter increment.  The registry folds
    both when the request finishes, so a snapshot shows all of a
    request's telemetry or none of it.
    """

    __slots__ = ("request_id", "spans", "counters")

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self.spans: list[tuple[str, float, float]] = []
        self.counters: list[str] = []

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    def count(self, name: str) -> None:
        self.counters.append(name)


class MetricsRegistry:
    """Thread-safe accumulator of serving metrics.

    A finished request is counted by its *signature*: its status, its
    source and the counters its trace recorded, in order.  A serving
    tier sees a handful of distinct signatures, so folding a request is
    one increment of one ``Counter`` entry, and the named counters
    (``requests_total``, ``status.*``, ``source.*`` and every trace
    counter) are expanded from the signatures only when ``snapshot()``
    or ``counter()`` reads them.  Counters that belong to no request
    (the batch path's, reloads) are kept by name.

    Parameters
    ----------
    latency_window:
        How many recent request latencies feed the percentile
        estimates (a ring buffer: old samples age out under load).
    clock:
        Monotonic time source for the QPS denominator.
    """

    def __init__(
        self,
        latency_window: int = 4096,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started = clock()
        self._counters: Counter[str] = Counter()
        # (status, source, trace counters) -> requests folded with that
        # signature; status and source are None for a request that raised.
        self._signatures: Counter[tuple] = Counter()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._batch_sizes: Counter[int] = Counter()
        self._stages = PerfRecorder()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def record_request(
        self,
        status: str,
        source: str,
        seconds: float,
        trace: RequestTrace | None = None,
    ) -> None:
        """Fold one finished request, and its trace, into the registry."""
        if trace is None:
            signature, spans = (status, source, ()), ()
        else:
            signature, spans = (status, source, tuple(trace.counters)), trace.spans
        with self._lock:
            self._signatures[signature] += 1
            if spans:
                self._fold_spans(spans)
            self._latencies.append(seconds)

    def record_trace(self, trace: RequestTrace) -> None:
        """Fold the stages and counters of a request that raised instead
        of finishing; no request is counted."""
        signature = (None, None, tuple(trace.counters))
        with self._lock:
            self._signatures[signature] += 1
            self._fold_spans(trace.spans)

    def _fold_spans(self, spans: list[tuple[str, float, float]]) -> None:
        # The caller holds the lock.  PerfRecorder.add, inlined: one
        # call and one item per span, its wall bracket widened to it.
        stages = self._stages.stages
        for name, start, end in spans:
            stats = stages.get(name)
            if stats is None:
                stages[name] = StageStats(end - start, 1, 1, start, end)
                continue
            stats.seconds += end - start
            stats.calls += 1
            stats.items += 1
            if start < stats.first_start:
                stats.first_start = start
            if end > stats.last_end:
                stats.last_end = end

    def record_batch(self, size: int) -> None:
        """Fold one micro-batch into the registry.

        ``batches_total`` counts batches, ``model.batched_inputs``
        counts the requests inside them — keeping both makes the
        batch-size histogram reconcile against ``model.calls`` (see
        ``TranslationService.stats()["accounting"]``).
        """
        with self._lock:
            self._counters["batches_total"] += 1
            self._counters["model.batched_inputs"] += size
            self._batch_sizes[size] += 1

    def record_stage(self, name: str, seconds: float, items: int = 1) -> None:
        """Fold one timed span of stage ``name`` that belongs to no single
        request (a model batch) into the registry."""
        with self._lock:
            self._stages.add(name, seconds, items=items)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _named_counters(self) -> Counter[str]:
        """Every counter by name, expanded from the request signatures
        (the caller holds the lock)."""
        counters = self._counters.copy()
        for (status, source, names), requests in self._signatures.items():
            if status is not None:
                counters["requests_total"] += requests
                counters["status." + status] += requests
                counters["source." + source] += requests
            for name in names:
                counters[name] += requests
        return counters

    def counter(self, name: str) -> int:
        with self._lock:
            return self._named_counters().get(name, 0)

    def snapshot(self, include_samples: bool = False) -> dict:
        """JSON-ready report; safe to call at any moment, even idle.

        Everything in it is read under one lock hold, so counters,
        latencies and ``stages`` describe the same instant.
        ``include_samples=True`` attaches the raw latency window under
        ``latency_samples`` so an aggregator can compute *merged*
        percentiles across registries (averaging per-shard p99s would
        be wrong; pooling the samples is exact up to window aging).
        """
        with self._lock:
            elapsed = self._clock() - self._started
            named = self._named_counters()
            total = named.get("requests_total", 0)
            latencies = list(self._latencies)
            batch_sizes = dict(sorted(self._batch_sizes.items()))
            counters = dict(sorted(named.items()))
            stages = self._stages.report()
        batched = sum(size * n for size, n in batch_sizes.items())
        batches = sum(batch_sizes.values())
        hits = counters.get("cache.hits", 0)
        lookups = hits + counters.get("cache.misses", 0)
        snap = {
            "uptime_seconds": round(elapsed, 3),
            "requests_total": total,
            "qps": round(total / elapsed, 3) if elapsed > 0 else 0.0,
            "latency": {
                "samples": len(latencies),
                "p50": round(percentile(latencies, 50), 6),
                "p95": round(percentile(latencies, 95), 6),
                "p99": round(percentile(latencies, 99), 6),
                "max": round(max(latencies), 6) if latencies else 0.0,
            },
            "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "batch_size_histogram": {str(k): v for k, v in batch_sizes.items()},
            "mean_batch_size": round(batched / batches, 3) if batches else 0.0,
            "counters": counters,
            "stages": stages,
        }
        if include_samples:
            snap["latency_samples"] = [round(s, 6) for s in latencies]
        return snap

    def format_table(self, title: str = "serving stats") -> str:
        """Fixed-width terminal rendering of :meth:`snapshot`."""
        snap = self.snapshot()
        lines = [
            f"{title}:",
            f"  requests      {snap['requests_total']}",
            f"  qps           {snap['qps']:.1f}",
            f"  latency p50   {snap['latency']['p50'] * 1000:.2f} ms",
            f"  latency p95   {snap['latency']['p95'] * 1000:.2f} ms",
            f"  latency p99   {snap['latency']['p99'] * 1000:.2f} ms",
            f"  cache hitrate {snap['cache_hit_rate']:.1%}",
            f"  mean batch    {snap['mean_batch_size']:.2f}",
        ]
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<24s}{value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Cross-shard aggregation
# ----------------------------------------------------------------------

def merge_shard_stats(shard_stats: Sequence[dict], elapsed: float) -> dict:
    """Merge per-shard ``TranslationService.stats()`` snapshots into one
    cluster view.

    * **counters** are summed;
    * **latency quantiles** are recomputed over the *pooled* raw sample
      windows (each shard sends ``stats(include_samples=True)``) —
      pooling is exact, averaging per-shard percentiles would not be;
    * **batch histograms** are added bucket-wise;
    * **cache** fields are summed — every numeric field a shard's
      cache reports, so a new cache counter merges without being
      listed here — and the aggregate hit rate is recomputed from the
      sums (this is the number the shard-exclusive routing is supposed
      to keep at the single-process level);
    * **repair** per-shard counters are summed (they ride the counter
      merge) and additionally rolled up into a ``repair`` section with a
      cluster-wide repair rate, present whenever any shard reports the
      loop enabled;
    * **stages** sum ``busy_seconds``/``calls``/``items`` across shards
      and take the max ``wall_seconds`` (per-process clocks do not
      share an epoch, so spans cannot be unioned across processes);
    * ``qps`` uses the front door's ``elapsed`` as the one shared
      denominator.

    Shards that failed to report (dead/respawning) are simply absent;
    the caller records how many answered under ``shards_reporting``.
    """
    counters: Counter[str] = Counter()
    samples: list[float] = []
    batch_sizes: Counter[str] = Counter()
    cache_totals: Counter[str] = Counter()
    stages: dict[str, dict[str, float]] = {}
    cache_seen = False
    repair_seen = False
    for snap in shard_stats:
        if snap.get("repair"):
            repair_seen = True
        counters.update(snap.get("counters", {}))
        samples.extend(snap.get("latency_samples", []))
        batch_sizes.update(snap.get("batch_size_histogram", {}))
        cache = snap.get("cache")
        if cache:
            cache_seen = True
            cache_totals.update(
                {field: value for field, value in cache.items() if field != "hit_rate"}
            )
        for name, stats in snap.get("stages", {}).items():
            merged = stages.setdefault(
                name,
                {"busy_seconds": 0.0, "wall_seconds": 0.0,
                 "calls": 0, "items": 0},
            )
            merged["busy_seconds"] += stats["busy_seconds"]
            merged["wall_seconds"] = max(
                merged["wall_seconds"], stats["wall_seconds"]
            )
            merged["calls"] += stats["calls"]
            merged["items"] += stats["items"]
    total = counters.get("requests_total", 0)
    hits = counters.get("cache.hits", 0)
    lookups = hits + counters.get("cache.misses", 0)
    batched = sum(int(size) * n for size, n in batch_sizes.items())
    batches = sum(batch_sizes.values())
    merged_cache = None
    if cache_seen:
        obj_lookups = (
            cache_totals["hits"] + cache_totals["misses"]
            + cache_totals["stale_hits"]
        )
        merged_cache = dict(cache_totals)
        merged_cache["hit_rate"] = (
            round(cache_totals["hits"] / obj_lookups, 4) if obj_lookups else 0.0
        )
    merged_repair = None
    if repair_seen:
        requests = counters.get("repair.requests", 0)
        merged_repair = {
            "requests": requests,
            "clean": counters.get("repair.clean", 0),
            "attempted": counters.get("repair.attempted", 0),
            "repaired": counters.get("repair.repaired", 0),
            "abandoned": counters.get("repair.abandoned", 0),
            "budget_exhausted": counters.get("repair.budget_exhausted", 0),
            "verified": counters.get("repair.verified", 0),
            "repair_rate": (
                round(counters.get("repair.repaired", 0) / requests, 4)
                if requests
                else 0.0
            ),
        }
    return {
        "shards_reporting": len(shard_stats),
        "uptime_seconds": round(elapsed, 3),
        "requests_total": total,
        "qps": round(total / elapsed, 3) if elapsed > 0 else 0.0,
        "latency": {
            "samples": len(samples),
            "p50": round(percentile(samples, 50), 6),
            "p95": round(percentile(samples, 95), 6),
            "p99": round(percentile(samples, 99), 6),
            "max": round(max(samples), 6) if samples else 0.0,
        },
        "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "cache": merged_cache,
        "repair": merged_repair,
        "batch_size_histogram": {
            str(k): v for k, v in sorted(batch_sizes.items(), key=lambda i: int(i[0]))
        },
        "mean_batch_size": round(batched / batches, 3) if batches else 0.0,
        "counters": dict(sorted(counters.items())),
        "stages": {
            name: {
                "busy_seconds": round(stats["busy_seconds"], 6),
                "wall_seconds": round(stats["wall_seconds"], 6),
                "calls": stats["calls"],
                "items": stats["items"],
            }
            for name, stats in stages.items()
        },
    }
