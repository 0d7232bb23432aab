"""The concurrent query service over a :class:`~repro.runtime.interface.DBPal`.

Request lifecycle (one thread per in-flight request, workers batching
the model calls)::

    admission (token bucket)
      └─ preprocess (anonymize + lemmatize)  ── per-request bindings
           └─ translation cache (keyed on the anonymized model input)
                ├─ hit  ──────────────────────────────┐
                └─ miss → single-flight coalescing     │
                     └─ micro-batcher → circuit breaker → translate_batch
                          └─ on failure: stale cache → keyword fallback
                               └─ structured ServiceFailure (never a raw
                                  exception)           │
                                                       ▼
                                postprocess (restore THIS request's constants)
                                     └─ query() only: DBPal.execute (DBPal.backend:
                                        the planned ExecutorSession by default)

Two properties matter and are tested:

* **cache soundness** — the cache stores model output with placeholders
  still in it, so requests sharing an anonymized key each restore their
  own constants;
* **single-flight** — N concurrent identical questions cost exactly one
  model call: the first creates a *flight*, the rest await its future.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.faults import NO_REPAIR_FAULTS, RepairFaultPlan
from repro.errors import ServingError, TranslationError
from repro.neural.base import TranslationModel
from repro.runtime.interface import DBPal, TranslationResult
from repro.runtime.preprocess import PreprocessedQuery
from repro.serving.batcher import BatchRequest, MicroBatcher
from repro.serving.cache import TranslationCache
from repro.serving.config import ServingConfig
from repro.serving.fallback import KeywordFallback
from repro.serving.limits import CircuitBreaker, TokenBucket
from repro.serving.metrics import STAGES_LEGEND, MetricsRegistry, RequestTrace
from repro.serving.repair import (
    ABANDONED as REPAIR_ABANDONED,
    CLEAN as REPAIR_CLEAN,
    EXHAUSTED as REPAIR_EXHAUSTED,
    REPAIRED as REPAIR_REPAIRED,
    RepairBudget,
    RepairPipeline,
)

#: Response statuses.
OK = "ok"
DEGRADED = "degraded"
REJECTED = "rejected"
TIMEOUT = "timeout"
ERROR = "error"

#: Response sources (which stage of the chain produced the SQL).
SOURCE_CACHE = "cache"
SOURCE_MODEL = "model"
SOURCE_FALLBACK = "fallback"
SOURCE_NONE = "none"

#: Entries in each serving tier's preprocess memo (keyed on the raw
#: question; see ``TranslationService.__init__``).
PREPROCESS_MEMO_SIZE = 4096


@dataclass(frozen=True)
class ServiceFailure:
    """Structured failure descriptor attached to non-ok responses.

    ``code`` is the short wire code (stable API surface);
    :attr:`error_code` maps it into the package-wide ``E_*`` taxonomy
    of :data:`repro.errors.ERROR_CODES`, so serving failures and
    synthesis quarantine reports can be aggregated on one axis.
    """

    code: str  # rate_limited | queue_full | timeout | model_unavailable | untranslatable
    message: str
    retryable: bool = True

    @property
    def error_code(self) -> str:
        """Canonical taxonomy code (``E_RATE_LIMITED``, ...)."""
        from repro.errors import canonical_code

        return canonical_code(self.code)


@dataclass
class ServingResponse:
    """Everything the service says about one request.

    ``result`` is a full :class:`TranslationResult` whenever any stage
    of the chain produced SQL; ``failure`` is set for every non-``ok``
    status so callers can branch on ``code`` without string-matching
    messages.
    """

    request_id: int
    nl: str
    status: str
    source: str
    result: TranslationResult | None = None
    failure: ServiceFailure | None = None
    latency: float = 0.0
    #: Structured trace of the execute–verify–repair loop (a plain dict,
    #: see :class:`repro.serving.repair.RepairTrace`); ``None`` whenever
    #: the loop did not touch this response — disabled, no SQL to
    #: verify, or a failure short-circuited before post-processing.
    repair: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def sql(self) -> str | None:
        return self.result.sql if self.result is not None else None

    def payload(self) -> dict:
        """Deterministic projection for differential testing.

        Excludes everything timing- or deployment-dependent —
        ``request_id`` (per-process counters), ``latency``, and
        ``source`` (a request racing a landing flight may be answered
        from the cache or the flight depending on scheduling) — leaving
        exactly the fields that must be bit-identical between a
        single-process service and any sharded deployment serving the
        same workload with the same model.
        """
        return {
            "nl": self.nl,
            "status": self.status,
            "sql": self.sql,
            "failure_code": None if self.failure is None else self.failure.code,
        }

    def to_dict(self) -> dict:
        """JSON-ready view (for the CLI's machine-readable output)."""
        record = {
            "request_id": self.request_id,
            "nl": self.nl,
            "status": self.status,
            "source": self.source,
            "sql": self.sql,
            "failure": None
            if self.failure is None
            else {
                "code": self.failure.code,
                "error_code": self.failure.error_code,
                "message": self.failure.message,
                "retryable": self.failure.retryable,
            },
            "latency": round(self.latency, 6),
        }
        # Only present when the repair loop ran: a zero-attempt budget
        # must keep this view byte-identical to a pre-repair service.
        if self.repair is not None:
            record["repair"] = self.repair
        return record


class ServingTier:
    """What both serving tiers share: the context-manager lifecycle, and
    :meth:`query`, which runs the served SQL through ``nlidb.execute``."""

    nlidb: DBPal

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def query(self, nl: str, max_rows: int | None = None):
        """Translate, then :meth:`DBPal.execute` (raises on failure)."""
        response = self.translate(nl)
        if response.result is None or not response.result.ok:
            detail = response.failure.message if response.failure else "no SQL produced"
            raise TranslationError(f"could not serve {nl!r}: {detail}")
        return self.nlidb.execute(response.result.query, max_rows=max_rows)


#: Flight outcome statuses (model side of a single-flight future).
_MODEL_OK = "model_ok"
_MODEL_DOWN = "model_down"


@dataclass
class _Flight:
    """One in-flight model translation shared by coalesced requests."""

    future: Future = field(default_factory=Future)
    coalesced: int = 0  # extra requests riding this flight


class TranslationService(ServingTier):
    """Concurrent, cached, degradable serving over a ``DBPal`` facade.

    Parameters
    ----------
    nlidb:
        The single-shot facade to serve (database + fitted model).
    config:
        Serving knobs; defaults are sensible for tests and demos.

    Use as a context manager, or call :meth:`start`/:meth:`stop`::

        with TranslationService(nlidb) as service:
            response = service.translate("patients older than 30")
    """

    def __init__(
        self,
        nlidb: DBPal,
        config: ServingConfig | None = None,
        clock=time.monotonic,
        repair_faults: RepairFaultPlan = NO_REPAIR_FAULTS,
    ) -> None:
        if nlidb.model is None:
            raise ServingError("cannot serve an untrained DBPal (model is None)")
        self.nlidb = nlidb
        self.config = config or ServingConfig()
        self.metrics = MetricsRegistry(clock=clock)
        self._clock = clock
        cfg = self.config
        self.cache = (
            TranslationCache(cfg.cache_capacity, cfg.cache_ttl, clock=clock)
            if cfg.cache_capacity > 0
            else None
        )
        self.breaker = CircuitBreaker(cfg.failure_threshold, cfg.cooldown, clock=clock)
        self._bucket = TokenBucket(cfg.rate_limit, cfg.burst, clock=clock)
        self._fallback = KeywordFallback(nlidb.database.schema)
        self._last_repair_trace: dict | None = None
        if cfg.repair_attempts > 0:
            self._repair: RepairPipeline | None = RepairPipeline(
                nlidb.database.schema,
                adapter=nlidb.backend,
                budget=RepairBudget(
                    max_attempts=cfg.repair_attempts,
                    deadline=cfg.repair_deadline,
                    execute_timeout=cfg.repair_execute_timeout,
                    max_rows=cfg.repair_max_rows,
                ),
                value_index=nlidb.preprocessor.value_index,
                faults=repair_faults,
                clock=clock,
            )
        else:
            self._repair = None
        # Preprocessing is deterministic over a fixed database, so the
        # raw question string is a sound memo key; lru_cache is
        # thread-safe and cheap enough for the admission path.
        self._preprocess = lru_cache(maxsize=PREPROCESS_MEMO_SIZE)(
            nlidb.preprocessor.preprocess
        )
        self._batcher = MicroBatcher(
            self._process_batch,
            workers=cfg.workers,
            max_batch_size=cfg.max_batch_size,
            queue_capacity=cfg.queue_capacity,
        )
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._executor: ThreadPoolExecutor | None = None
        self._lifecycle_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._batcher.running

    def start(self) -> "TranslationService":
        self._batcher.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._batcher.stop(timeout=timeout)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def translate(self, nl: str, timeout: float | None = None) -> ServingResponse:
        """Serve one question synchronously (never raises on model trouble).

        ``timeout`` overrides ``config.request_timeout`` for this call.
        """
        if not self.running:
            self.start()
        trace = RequestTrace(next(self._ids))
        started = self._clock()
        try:
            response = self._serve(nl, timeout, trace)
        except BaseException:
            # Nothing was served: keep what the request recorded, but
            # count no request.
            self.metrics.record_trace(trace)
            raise
        response.latency = self._clock() - started
        self.metrics.record_request(
            response.status, response.source, response.latency, trace
        )
        return response

    def _serve(
        self, nl: str, timeout: float | None, trace: RequestTrace
    ) -> ServingResponse:
        """The request pipeline behind :meth:`translate`; every stage
        records into ``trace``."""
        request_id = trace.request_id
        if not self._bucket.try_acquire():
            return ServingResponse(
                request_id,
                nl,
                status=REJECTED,
                source=SOURCE_NONE,
                failure=ServiceFailure("rate_limited", "admission rate exceeded"),
            )

        try:
            t0 = self._clock()
            pre = self._preprocess(nl)
            trace.span("preprocess", t0, self._clock())
        except Exception as exc:  # noqa: BLE001 — malformed input, not a crash
            return ServingResponse(
                request_id,
                nl,
                status=ERROR,
                source=SOURCE_NONE,
                failure=ServiceFailure(
                    "untranslatable", f"preprocessing failed: {exc}", retryable=False
                ),
            )
        key = pre.model_input

        # -- translation cache (fresh entries only) ---------------------
        if self.cache is not None:
            hit = self.cache.get(key)
            trace.count("cache.hits" if hit else "cache.misses")
            if hit is not None:
                return self._respond(trace, nl, pre, hit.value, SOURCE_CACHE)

        # -- single-flight + micro-batched model call -------------------
        outcome = self._await_model(key, timeout, trace)
        if outcome is None:
            return ServingResponse(
                request_id,
                nl,
                status=TIMEOUT,
                source=SOURCE_NONE,
                failure=ServiceFailure(
                    "timeout",
                    f"no translation within {timeout or self.config.request_timeout}s",
                ),
            )
        status, output = outcome
        if status == "queue_full":
            return ServingResponse(
                request_id,
                nl,
                status=REJECTED,
                source=SOURCE_NONE,
                failure=ServiceFailure("queue_full", "admission queue is full"),
            )
        if status == _MODEL_DOWN:
            return self._degrade(trace, nl, pre)
        return self._respond(trace, nl, pre, output, SOURCE_MODEL)

    def submit(self, nl: str, timeout: float | None = None) -> Future:
        """Asynchronous :meth:`translate`; resolves to a ServingResponse."""
        if not self.running:
            self.start()
        with self._lifecycle_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(4, self.config.workers * 4),
                    thread_name_prefix="repro-serving-frontend",
                )
            executor = self._executor
        return executor.submit(self.translate, nl, timeout)

    def reload_model(self, model: TranslationModel) -> None:
        """Swap the serving model without dropping in-flight requests.

        The swap is one atomic reference assignment: batches already
        dispatched finish on the old weights, every later batch reads
        the new reference (``_process_batch`` re-reads
        ``self.nlidb.model`` per batch).  Cache entries produced by the
        old model stay valid until TTL expiry — the cache stores model
        *outputs*, not model state.  The sharded tier's rolling reload
        (see :mod:`repro.serving.front_door`) calls this shard-by-shard.
        """
        if model is None:
            raise ServingError("cannot reload to a None model")
        self.nlidb.model = model
        self.metrics.increment("model.reloads")

    def stats(self, include_samples: bool = False) -> dict:
        """Combined metrics / cache / breaker / per-stage perf snapshot.

        ``include_samples`` is passed to :meth:`MetricsRegistry.snapshot`:
        a shard sets it so its raw latency window comes from the same
        lock hold as its counters.
        """
        snap = self.metrics.snapshot(include_samples=include_samples)
        snap["cache"] = self.cache.stats() if self.cache is not None else None
        snap["breaker"] = self.breaker.stats()
        snap["repair"] = (
            None
            if self._repair is None
            else {
                "enabled": True,
                "budget": self._repair.budget.to_dict(),
                "last_trace": self._last_repair_trace,
            }
        )
        snap["stages_legend"] = dict(STAGES_LEGEND)
        snap["accounting"] = self._accounting(snap)
        snap["config"] = self.config.to_dict()
        return snap

    def _accounting(self, snap: dict) -> dict:
        """Cross-counter consistency identities (the reconciliation).

        Every model call, coalesced waiter, late cache hit, and shed
        request is tied back to the cache-miss count that produced it,
        and every input that entered the batcher is tied to a terminal
        counter — so ``model.calls`` can never silently disagree with
        the batch histogram again.  The identities hold exactly when
        the service is quiescent (no request mid-flight); a snapshot
        taken under load may show transient slack, which is reported,
        not hidden.
        """
        c = snap["counters"]

        def identity(name: str, lhs: int, rhs: int) -> dict:
            return {"identity": name, "lhs": lhs, "rhs": rhs, "ok": lhs == rhs}

        histogram = snap["batch_size_histogram"]
        identities = [
            identity(
                "flights.opened == model.batched_inputs + shed.queue_full",
                c.get("flights.opened", 0),
                c.get("model.batched_inputs", 0) + c.get("shed.queue_full", 0),
            ),
            identity(
                "model.batched_inputs == model.calls + model.failed_inputs"
                " + breaker.short_circuited",
                c.get("model.batched_inputs", 0),
                c.get("model.calls", 0)
                + c.get("model.failed_inputs", 0)
                + c.get("breaker.short_circuited", 0),
            ),
            identity(
                "sum(batch_size_histogram sizes) == model.batched_inputs",
                sum(int(size) * count for size, count in histogram.items()),
                c.get("model.batched_inputs", 0),
            ),
            identity(
                "sum(batch_size_histogram counts) == batches_total",
                sum(histogram.values()),
                c.get("batches_total", 0),
            ),
        ]
        if self.cache is not None:
            cache = snap["cache"]
            identities.extend(
                [
                    identity(
                        "cache.misses == flights.opened"
                        " + singleflight.coalesced + cache.late_hits",
                        c.get("cache.misses", 0),
                        c.get("flights.opened", 0)
                        + c.get("singleflight.coalesced", 0)
                        + c.get("cache.late_hits", 0),
                    ),
                    identity(
                        "cache_object.hits == cache.hits + cache.late_hits"
                        " + cache.degrade_hits",
                        cache["hits"],
                        c.get("cache.hits", 0)
                        + c.get("cache.late_hits", 0)
                        + c.get("cache.degrade_hits", 0),
                    ),
                    identity(
                        "cache_object.misses == cache.misses"
                        " + cache.recheck_misses + cache.stale_misses",
                        cache["misses"],
                        c.get("cache.misses", 0)
                        + c.get("cache.recheck_misses", 0)
                        + c.get("cache.stale_misses", 0),
                    ),
                    identity(
                        "cache_object.stale_hits == cache.stale_hits",
                        cache["stale_hits"],
                        c.get("cache.stale_hits", 0),
                    ),
                ]
            )
        if self._repair is not None:
            identities.extend(
                [
                    identity(
                        "repair.requests == repair.clean + repair.attempted",
                        c.get("repair.requests", 0),
                        c.get("repair.clean", 0) + c.get("repair.attempted", 0),
                    ),
                    identity(
                        "repair.attempted == repair.repaired + repair.abandoned"
                        " + repair.budget_exhausted",
                        c.get("repair.attempted", 0),
                        c.get("repair.repaired", 0)
                        + c.get("repair.abandoned", 0)
                        + c.get("repair.budget_exhausted", 0),
                    ),
                ]
            )
        return {
            "identities": identities,
            "consistent": all(item["ok"] for item in identities),
        }

    # ------------------------------------------------------------------
    # Model path (single-flight + batcher)
    # ------------------------------------------------------------------

    def _await_model(
        self, key: str, timeout: float | None, trace: RequestTrace
    ) -> tuple[str, str | None] | None:
        """Join or create the flight for ``key``; wait for its outcome.

        Returns ``(status, model_output)``, a ``("queue_full", None)``
        marker, or ``None`` on timeout.
        """
        with self._flights_lock:
            flight = self._flights.get(key)
            owner = flight is None
            if owner:
                # Re-check the cache before opening a new flight: a prior
                # flight for this key may have landed between our cache
                # miss and here, and re-translating it would break the
                # one-model-call-per-key guarantee.
                if self.cache is not None:
                    hit = self.cache.get(key)
                    if hit is not None:
                        trace.count("cache.late_hits")
                        return (_MODEL_OK, hit.value)
                    trace.count("cache.recheck_misses")
                flight = self._flights[key] = _Flight()
                trace.count("flights.opened")
            else:
                flight.coalesced += 1
                trace.count("singleflight.coalesced")
        if owner:
            accepted = self._batcher.submit(
                BatchRequest(key=key, model_input=key, future=flight.future)
            )
            if not accepted:
                with self._flights_lock:
                    self._flights.pop(key, None)
                trace.count("shed.queue_full")
                # Coalesced waiters (if any raced in) must not hang.
                if not flight.future.done():
                    flight.future.set_result((_MODEL_DOWN, None))
                return ("queue_full", None)
        try:
            return flight.future.result(
                timeout=self.config.request_timeout if timeout is None else timeout
            )
        except TimeoutError:
            trace.count("timeouts")
            return None
        except Exception:  # noqa: BLE001 — batcher crashed; treat as outage
            return (_MODEL_DOWN, None)

    def _process_batch(self, batch: list[BatchRequest]) -> None:
        """Worker-side: one guarded ``translate_batch`` for the batch."""
        self.metrics.record_batch(len(batch))
        if not self.breaker.allow():
            self.metrics.increment("breaker.short_circuited", len(batch))
            self._resolve(batch, _MODEL_DOWN, [None] * len(batch))
            return
        model: TranslationModel = self.nlidb.model
        inputs = [request.model_input for request in batch]
        t0 = self._clock()
        try:
            outputs = model.translate_batch(inputs)
            if len(outputs) != len(inputs):
                raise ServingError(
                    f"translate_batch contract violation: {len(inputs)} in, "
                    f"{len(outputs)} out"
                )
        except Exception:  # noqa: BLE001 — any model crash trips the breaker
            self.breaker.record_failure()
            self.metrics.increment("model.failures")
            self.metrics.increment("model.failed_inputs", len(batch))
            self._resolve(batch, _MODEL_DOWN, [None] * len(batch))
            return
        self.metrics.record_stage("model_batch", self._clock() - t0, items=len(batch))
        self.breaker.record_success()
        self.metrics.increment("model.calls", len(batch))
        self._resolve(batch, _MODEL_OK, outputs)

    def _resolve(
        self, batch: list[BatchRequest], status: str, outputs: list[str | None]
    ) -> None:
        """Populate the cache, retire the flights, wake the waiters."""
        for request, output in zip(batch, outputs):
            if status == _MODEL_OK and self.cache is not None:
                self.cache.put(request.key, output)
            with self._flights_lock:
                self._flights.pop(request.key, None)
            if not request.future.done():
                request.future.set_result((status, output))

    # ------------------------------------------------------------------
    # Response assembly + graceful degradation
    # ------------------------------------------------------------------

    def _respond(
        self,
        trace: RequestTrace,
        nl: str,
        pre: PreprocessedQuery,
        model_output: str | None,
        source: str,
    ) -> ServingResponse:
        """Post-process one model/cache output into a response.

        A ``None`` or unparseable output falls through to the fallback
        chain — the service never surfaces "the model shrugged" as an
        unstructured failure.
        """
        if model_output is not None:
            response = self._answer(trace, nl, pre, model_output, OK, source)
            if response is not None:
                return response
        return self._degrade(trace, nl, pre, model_down=False)

    def _degrade(
        self,
        trace: RequestTrace,
        nl: str,
        pre: PreprocessedQuery,
        model_down: bool = True,
    ) -> ServingResponse:
        """Fallback chain: stale cache → schema keywords → structured error.

        While the model is down, expired cache entries are served too.
        """
        trace.count("degraded")
        t0 = self._clock()
        try:
            if model_down and self.cache is not None:
                stale = self.cache.get(pre.model_input, allow_expired=True)
                if stale is None:
                    trace.count("cache.stale_misses")
                elif stale.stale:
                    trace.count("cache.stale_hits")
                else:
                    trace.count("cache.degrade_hits")
                if stale is not None and stale.value is not None:
                    response = self._answer(
                        trace, nl, pre, stale.value, DEGRADED, SOURCE_CACHE
                    )
                    if response is not None:
                        return response
            fallback_sql = self._fallback.translate(pre.model_input)
            if fallback_sql is not None:
                response = self._answer(
                    trace, nl, pre, fallback_sql, DEGRADED, SOURCE_FALLBACK
                )
                if response is not None:
                    return response
        finally:
            trace.span("fallback", t0, self._clock())
        code = "model_unavailable" if model_down else "untranslatable"
        message = (
            "model unavailable and no fallback matched"
            if model_down
            else "model produced no translation and no fallback matched"
        )
        return ServingResponse(
            trace.request_id,
            nl,
            status=ERROR,
            source=SOURCE_NONE,
            failure=ServiceFailure(code, message, retryable=model_down),
        )

    def _answer(
        self,
        trace: RequestTrace,
        nl: str,
        pre: PreprocessedQuery,
        output: str,
        status: str,
        source: str,
    ) -> ServingResponse | None:
        """Post-process ``output``, repair it, and build the response;
        ``None`` when post-processing yields no query."""
        result = self._postprocess(nl, pre, output, trace)
        if result.query is None:
            return None
        repair = self._maybe_repair(result, trace)
        return ServingResponse(
            trace.request_id, nl, status=status, source=source, result=result,
            repair=repair,
        )

    def _maybe_repair(
        self, result: TranslationResult, trace: RequestTrace
    ) -> dict | None:
        """Run the execute–verify–repair loop over one translated result.

        Mutates ``result`` in place when a repaired candidate is
        accepted; returns the structured trace dict for the response (or
        ``None`` when the loop is disabled).  Never raises — the
        pipeline converts every internal failure into an ``abandoned``
        trace, and abandonment serves the original answer unchanged.
        """
        if self._repair is None or result.query is None:
            return None
        t0 = self._clock()
        report = self._repair.run(
            result.query, bindings=result.bindings, location="serving"
        )
        trace.span("repair", t0, self._clock())
        trace.count("repair.requests")
        if report.outcome == REPAIR_CLEAN:
            trace.count("repair.clean")
        else:
            trace.count("repair.attempted")
            trace.count(
                {
                    REPAIR_REPAIRED: "repair.repaired",
                    REPAIR_ABANDONED: "repair.abandoned",
                    REPAIR_EXHAUSTED: "repair.budget_exhausted",
                }[report.outcome]
            )
            if report.verified:
                trace.count("repair.verified")
        if report.accepted:
            result.query = report.query
            result.sql = report.sql
            result.repaired = True
        repair = report.trace_dict()
        self._last_repair_trace = repair
        return repair

    def _postprocess(
        self,
        nl: str,
        pre: PreprocessedQuery,
        model_output: str,
        trace: RequestTrace,
    ) -> TranslationResult:
        """Restore *this* request's constants into a (possibly shared) output."""
        t0 = self._clock()
        processed = self.nlidb.postprocessor.process(model_output, pre.bindings)
        trace.span("postprocess", t0, self._clock())
        return TranslationResult(
            nl=nl,
            model_input=pre.model_input,
            model_output=model_output,
            sql=processed.sql if processed else None,
            query=processed.query if processed else None,
            # The PreprocessedQuery may be memo-shared between requests:
            # hand each result its own list.
            bindings=list(pre.bindings),
            repaired=processed.repaired if processed else False,
        )
