"""Asyncio front door over N shared-nothing serving shards.

:class:`ShardedService` scales :class:`~repro.serving.service.
TranslationService` horizontally: it forks ``replicas`` shard processes
(each a complete service replica — own model, cache, batcher, breaker;
see :mod:`repro.serving.shard`) and routes every request over a
consistent-hash ring keyed on the **anonymized question** — the same
string the per-shard :class:`~repro.serving.cache.TranslationCache`
keys on.  Routing on the cache key is what keeps scale-out from
diluting the cache: each key lives on exactly one shard, so the
aggregate hit rate matches a single process within the noise of
single-flight races, and the union of shard caches holds zero
duplicate entries (audited by :meth:`cache_keys`).

One event loop (in a dedicated daemon thread) owns all shard state:
pipes are registered with ``loop.add_reader``, and every mutation of
the ring, the shard table, or a shard's pending map happens on the
loop thread — callers reach it through ``call_soon_threadsafe``.  The
dispatch executor runs preprocessing (CPU-bound, and the routing key
depends on it) off the loop so a slow question never stalls I/O.

Supervision mirrors the synthesis tier's shard supervisor
(:mod:`repro.core.parallel`): a shard whose pipe hits EOF is declared
dead, its in-flight requests are **re-dispatched** (each request gets
``max_request_attempts`` lives before failing with the stable
``worker_died`` code), and the shard is respawned up to
``max_respawns`` times before being **quarantined** — removed from the
ring, so only its keys remap onto the survivors (bounded by the
consistent-hash property).

Rolling checkpoint reload (:meth:`rolling_reload`) walks the shards
*sequentially*: each shard builds the new model in a background thread
and swaps it atomically while its siblings — and its own recv loop —
keep serving, so a fleet-wide model upgrade completes with zero failed
responses.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

from repro.errors import ServingError
from repro.serving.config import ServingConfig, ShardedConfig
from repro.serving.hashring import HashRing
from repro.serving.limits import TokenBucket
from repro.serving.metrics import (
    STAGES_LEGEND,
    MetricsRegistry,
    RequestTrace,
    merge_shard_stats,
)
from repro.serving.service import (
    ERROR,
    PREPROCESS_MEMO_SIZE,
    REJECTED,
    SOURCE_NONE,
    ServiceFailure,
    ServingResponse,
    ServingTier,
)
from repro.serving.shard import ShardSpec, shard_main

#: Seconds between drain-progress checks while stopping.
_DRAIN_POLL = 0.05
#: Seconds to wait for a shard's stats reply before reporting without it.
_STATS_TIMEOUT = 5.0


@dataclass
class _Pending:
    """One accepted request, from admission until its future resolves.

    ``trace`` collects the request's front-door stages and counters;
    :meth:`ShardedService._finish` folds it into the registry.
    """

    trace: RequestTrace
    nl: str
    key: str
    timeout: float | None
    future: Future
    started: float
    attempts: int = 0


@dataclass
class _Shard:
    """Loop-thread-owned state of one shard process."""

    name: str
    process: multiprocessing.Process
    conn: object
    pending: dict[int, _Pending] = field(default_factory=dict)
    respawns: int = 0
    quarantined: bool = False
    ready: Future = field(default_factory=Future)
    stopped: bool = False
    waiters: dict[int, Future] = field(default_factory=dict)  # stats/reload/...


class ShardedService(ServingTier):
    """N shard processes behind a consistent-hash-routing async front door.

    Parameters
    ----------
    spec:
        How each shard builds its replica (module-level factory +
        picklable args) and the per-shard :class:`ServingConfig`.  The
        front door enforces the token bucket itself, so shards run
        with ``rate_limit=0`` regardless of what the spec says.
    config:
        Topology and supervision knobs (:class:`ShardedConfig`).

    The public surface mirrors :class:`TranslationService` —
    ``translate`` / ``submit`` / ``query`` / ``stats`` / context
    manager — so callers and the CLI treat 1 process and N processes
    uniformly.
    """

    def __init__(
        self, spec: ShardSpec, config: ShardedConfig | None = None
    ) -> None:
        self.config = config or ShardedConfig()
        # Shards never rate-limit: admission is a front-door concern
        # (a per-shard bucket would make the effective rate depend on
        # the key distribution).
        self.spec = spec.with_config(replace(spec.config, rate_limit=0.0))
        self.serving_config = spec.config
        self.metrics = MetricsRegistry()
        self._bucket = TokenBucket(spec.config.rate_limit, spec.config.burst)
        self._ids = itertools.count(1)
        self._wire_ids = itertools.count(1)
        self._msg_ids = itertools.count(1)
        self._shard_seq = itertools.count(0)
        self._ring = HashRing(vnodes=self.config.vnodes)
        self._shards: dict[str, _Shard] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._dispatch: ThreadPoolExecutor | None = None
        self.nlidb = None
        self._preprocess = None
        self._running = False
        self._stopping = False
        self._started = 0.0
        self._lifecycle_lock = threading.Lock()
        # Accepted-but-unfinished requests (admitted by submit(), not
        # yet resolved by _finish()): the drain-on-stop condition.
        # Counts requests still in the dispatch executor too, which
        # shard.pending alone would miss.
        self._accepted = 0
        self._accepted_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "ShardedService":
        with self._lifecycle_lock:
            if self._running:
                return self
            # The front door needs its own preprocessor: the routing key
            # *is* the anonymized question.  One extra replica build in
            # the parent also gives ``query()`` a facade to execute on.
            self.nlidb = self.spec.build()
            self._preprocess = lru_cache(maxsize=PREPROCESS_MEMO_SIZE)(
                self.nlidb.preprocessor.preprocess
            )
            self._dispatch = ThreadPoolExecutor(
                max_workers=self.config.dispatch_threads,
                thread_name_prefix="repro-front-door",
            )
            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._loop.run_forever,
                name="repro-front-door-loop",
                daemon=True,
            )
            self._loop_thread.start()
            self._started = time.monotonic()
            shards = [self._spawn_shard() for _ in range(self.config.replicas)]
            self._call(self._register_shards, shards)
            self._running = True
        try:
            for shard in shards:
                outcome = shard.ready.result(timeout=self.config.boot_timeout)
                if outcome is not True:
                    raise ServingError(
                        f"shard {shard.name} failed to boot: {outcome}"
                    )
        except Exception:
            self.stop()
            raise
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Drain in-flight requests, then stop every shard and the loop."""
        with self._lifecycle_lock:
            if self._loop is None:
                return
            self._running = False
            drain = self.config.drain_timeout if timeout is None else timeout
            self._call(self._set_stopping)
            deadline = time.monotonic() + drain
            while time.monotonic() < deadline:
                with self._accepted_lock:
                    drained = self._accepted == 0
                if drained:
                    break
                time.sleep(_DRAIN_POLL)
            self._call(self._send_stop_all)
            grace_deadline = time.monotonic() + self.config.grace
            processes = [s.process for s in self._shards.values()]
            while time.monotonic() < grace_deadline:
                if not any(p.is_alive() for p in processes):
                    break
                time.sleep(_DRAIN_POLL)
            self._call(self._teardown_shards)
            if self._dispatch is not None:
                self._dispatch.shutdown(wait=True)
                self._dispatch = None
            loop = self._loop
            self._loop = None
            loop.call_soon_threadsafe(loop.stop)
            self._loop_thread.join(timeout=5.0)
            loop.close()
            self._loop_thread = None

    # ------------------------------------------------------------------
    # Public API (mirrors TranslationService)
    # ------------------------------------------------------------------

    def translate(self, nl: str, timeout: float | None = None) -> ServingResponse:
        return self.submit(nl, timeout).result()

    def submit(self, nl: str, timeout: float | None = None) -> Future:
        """Route one question to its shard; resolves to a ServingResponse."""
        if not self._running:
            raise ServingError("sharded service is not running")
        pending = _Pending(RequestTrace(next(self._ids)), nl, key="",
                           timeout=timeout, future=Future(),
                           started=time.monotonic())
        with self._accepted_lock:
            self._accepted += 1
        if not self._bucket.try_acquire():
            self._finish(
                ServingResponse(
                    pending.trace.request_id,
                    nl,
                    status=REJECTED,
                    source=SOURCE_NONE,
                    failure=ServiceFailure("rate_limited", "admission rate exceeded"),
                ),
                pending,
            )
        else:
            self._dispatch.submit(self._preprocess_and_route, pending)
        return pending.future

    def rolling_reload(self, loader: Callable, *args, **kwargs) -> list[dict]:
        """Swap every shard's model, one shard at a time, zero downtime.

        ``loader(*args, **kwargs)`` must be a module-level callable
        returning a :class:`~repro.neural.base.TranslationModel`; it
        runs inside each shard.  Shards are walked sequentially so at
        most one is busy building at any moment; requests keep flowing
        to all of them throughout (the build happens off the shard's
        recv loop).  Returns one ``{"shard", "generation"}`` record per
        reloaded shard; raises if any shard's reload fails.
        """
        if not self._running:
            raise ServingError("sharded service is not running")
        results = []
        for name in list(self._call(self._live_shard_names)):
            waiter = self._call(
                self._send_control, name, "reload", (loader, args, kwargs)
            )
            if waiter is None:
                continue  # shard died between listing and send; respawn handles it
            outcome = waiter.result(timeout=self.config.boot_timeout)
            if isinstance(outcome, Exception):
                raise ServingError(f"reload failed on {name}: {outcome}")
            results.append({"shard": name, "generation": outcome})
            self.metrics.increment("supervisor.reloads")
        return results

    def shard_pids(self) -> dict[str, int]:
        """PID per live shard (fault-injection tests kill these)."""
        return self._call(
            lambda: {
                name: shard.process.pid
                for name, shard in self._shards.items()
                if not shard.quarantined and not shard.stopped
            }
        )

    def cache_keys(self) -> dict[str, list[str]]:
        """Resident cache keys per shard (the shard-exclusivity audit)."""
        if not self._running:
            raise ServingError("sharded service is not running")
        waiters = {}
        for name in self._call(self._live_shard_names):
            waiter = self._call(self._send_control, name, "cache_keys", None)
            if waiter is not None:
                waiters[name] = waiter
        return {
            name: waiter.result(timeout=_STATS_TIMEOUT)
            for name, waiter in waiters.items()
        }

    def stats(self) -> dict:
        """Front-door, per-shard, and merged cluster metrics in one view."""
        elapsed = time.monotonic() - self._started if self._started else 0.0
        shard_snaps: dict[str, dict] = {}
        if self._running:
            waiters = {}
            for name in self._call(self._live_shard_names):
                waiter = self._call(self._send_control, name, "stats", None)
                if waiter is not None:
                    waiters[name] = waiter
            for name, waiter in waiters.items():
                try:
                    shard_snaps[name] = waiter.result(timeout=_STATS_TIMEOUT)
                except Exception:  # noqa: BLE001 — shard died mid-query
                    continue
        front = self.metrics.snapshot()
        supervisor = {
            name: front["counters"].get(f"supervisor.{name}", 0)
            for name in ("respawns", "quarantined", "redispatched", "failed_requests")
        }
        return {
            "replicas": self.config.replicas,
            "front": front,
            "cluster": merge_shard_stats(list(shard_snaps.values()), elapsed),
            "shards": shard_snaps,
            "ring": self._call(self._ring_stats) if self._running else self._ring.stats(),
            "supervisor": supervisor,
            "stages_legend": dict(STAGES_LEGEND),
            "config": {
                "sharded": self.config.to_dict(),
                "serving": self.serving_config.to_dict(),
            },
        }

    # ------------------------------------------------------------------
    # Dispatch path (executor threads → loop thread)
    # ------------------------------------------------------------------

    def _preprocess_and_route(self, pending: _Pending) -> None:
        try:
            t0 = time.monotonic()
            pre = self._preprocess(pending.nl)
            pending.trace.span("preprocess", t0, time.monotonic())
        except Exception as exc:  # noqa: BLE001 — malformed input
            self._finish(
                ServingResponse(
                    pending.trace.request_id,
                    pending.nl,
                    status=ERROR,
                    source=SOURCE_NONE,
                    failure=ServiceFailure(
                        "untranslatable",
                        f"preprocessing failed: {exc}",
                        retryable=False,
                    ),
                ),
                pending,
            )
            return
        pending.key = pre.model_input
        loop = self._loop
        if loop is None:
            self._fail(pending, "worker_died", "service stopped during dispatch")
            return
        loop.call_soon_threadsafe(self._route_and_send, pending)

    def _route_and_send(self, pending: _Pending) -> None:
        """Loop thread: place ``pending`` on its shard (or shed/fail it).

        Draining (``_stopping``) does not short-circuit here: a request
        accepted before stop() still gets routed and served — only
        *new* submissions are refused (submit() checks ``running``).
        """
        if len(self._ring) == 0:
            self._fail(
                pending, "worker_died",
                "no shards available (all quarantined)",
            )
            return
        name = self._ring.route(pending.key)
        shard = self._shards[name]
        if len(shard.pending) >= self.config.max_inflight_per_shard:
            pending.trace.count("shed.queue_full")
            self._finish(
                ServingResponse(
                    pending.trace.request_id,
                    pending.nl,
                    status=REJECTED,
                    source=SOURCE_NONE,
                    failure=ServiceFailure(
                        "queue_full", f"shard {name} is at max in-flight"
                    ),
                ),
                pending,
            )
            return
        pending.attempts += 1
        wid = next(self._wire_ids)
        shard.pending[wid] = pending
        try:
            shard.conn.send(("translate", wid, pending.nl, pending.timeout))
        except (BrokenPipeError, OSError):
            shard.pending.pop(wid, None)
            self._on_shard_death(shard, redispatch=[pending])

    def _finish(self, response: ServingResponse, pending: _Pending) -> None:
        """Restamp latency end-to-end, fold the request's trace, resolve
        the caller's future."""
        response.latency = time.monotonic() - pending.started
        self.metrics.record_request(
            response.status, response.source, response.latency, pending.trace
        )
        with self._accepted_lock:
            self._accepted -= 1
        if not pending.future.done():
            pending.future.set_result(response)

    def _fail(self, pending: _Pending, code: str, message: str) -> None:
        self.metrics.increment("supervisor.failed_requests")
        self._finish(
            ServingResponse(
                pending.trace.request_id,
                pending.nl,
                status=ERROR,
                source=SOURCE_NONE,
                failure=ServiceFailure(code, message),
            ),
            pending,
        )

    # ------------------------------------------------------------------
    # Loop-thread helpers (all shard/ring state is confined here)
    # ------------------------------------------------------------------

    def _call(self, fn, *args):
        """Run ``fn`` on the loop thread and wait for its result."""
        loop = self._loop
        if loop is None:
            raise ServingError("sharded service is not running")
        waiter: Future = Future()

        def runner() -> None:
            try:
                waiter.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001
                waiter.set_exception(exc)

        loop.call_soon_threadsafe(runner)
        return waiter.result(timeout=30.0)

    def _set_stopping(self) -> None:
        self._stopping = True

    def _live_shard_names(self) -> list[str]:
        return [n for n, s in self._shards.items()
                if not s.quarantined and not s.stopped]

    def _ring_stats(self) -> dict:
        stats = self._ring.stats()
        stats["quarantined"] = sorted(
            n for n, s in self._shards.items() if s.quarantined
        )
        return stats

    def _send_control(self, name: str, kind: str, extra) -> Future | None:
        """Send a control message; returns the reply waiter (or None)."""
        shard = self._shards.get(name)
        if shard is None or shard.quarantined or shard.stopped:
            return None
        mid = next(self._msg_ids)
        waiter: Future = Future()
        shard.waiters[mid] = waiter
        if kind == "reload":
            loader, args, kwargs = extra
            message = ("reload", mid, loader, args, kwargs)
        else:
            message = (kind, mid)
        try:
            shard.conn.send(message)
        except (BrokenPipeError, OSError):
            shard.waiters.pop(mid, None)
            self._on_shard_death(shard)
            return None
        return waiter

    def _spawn_shard(self) -> _Shard:
        """Fork one shard process (callable from any thread pre-registration)."""
        name = f"shard-{next(self._shard_seq)}"
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=shard_main,
            args=(child_conn, name, self.spec),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Shard(name=name, process=process, conn=parent_conn)

    def _register_shards(self, shards: list[_Shard]) -> None:
        for shard in shards:
            self._shards[shard.name] = shard
            self._ring.add(shard.name)
            self._loop.add_reader(
                shard.conn.fileno(), self._on_readable, shard
            )

    def _on_readable(self, shard: _Shard) -> None:
        try:
            while shard.conn.poll():
                self._on_message(shard, shard.conn.recv())
        except (EOFError, OSError):
            self._on_shard_death(shard)

    def _on_message(self, shard: _Shard, message: tuple) -> None:
        kind = message[0]
        if kind == "response":
            _, wid, response = message
            pending = shard.pending.pop(wid, None)
            if pending is None:
                return  # re-dispatched after a presumed death; drop dup
            response.request_id = pending.trace.request_id
            self._finish(response, pending)
        elif kind == "response_error":
            _, wid, detail = message
            pending = shard.pending.pop(wid, None)
            if pending is not None:
                self._fail(pending, "worker_died", detail)
        elif kind in ("stats", "cache_keys", "reloaded"):
            _, mid, payload = message
            waiter = shard.waiters.pop(mid, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(payload)
        elif kind == "reload_error":
            _, mid, detail = message
            waiter = shard.waiters.pop(mid, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(ServingError(detail))
        elif kind == "ready":
            if not shard.ready.done():
                shard.ready.set_result(True)
        elif kind == "boot_error":
            if not shard.ready.done():
                shard.ready.set_result(message[1])
            else:
                # A respawn failed to boot: counts as another death.
                self._on_shard_death(shard)
        elif kind == "stopped":
            shard.stopped = True

    def _on_shard_death(self, shard: _Shard, redispatch: list | None = None) -> None:
        """Loop thread: detect, respawn-or-quarantine, re-dispatch."""
        if shard.stopped or self._shards.get(shard.name) is not shard:
            return  # orderly stop, or already replaced
        if not shard.ready.done():
            # Died before the ready handshake: surface it to start().
            shard.ready.set_result(f"shard {shard.name} process died during boot")
        try:
            self._loop.remove_reader(shard.conn.fileno())
        except (ValueError, OSError):
            pass
        try:
            shard.conn.close()
        except OSError:
            pass
        outstanding = list(shard.pending.values()) + list(redispatch or ())
        shard.pending.clear()
        for waiter in shard.waiters.values():
            if not waiter.done():
                waiter.set_exception(ServingError(f"shard {shard.name} died"))
        shard.waiters.clear()
        if self._stopping:
            for pending in outstanding:
                self._fail(pending, "worker_died", f"shard {shard.name} died")
            return
        if shard.respawns >= self.config.max_respawns:
            shard.quarantined = True
            self._shards[shard.name] = shard
            if shard.name in self._ring:
                self._ring.remove(shard.name)
            self.metrics.increment("supervisor.quarantined")
        else:
            self.metrics.increment("supervisor.respawns")
            fresh = self._spawn_shard_as(shard.name, shard.respawns + 1)
            self._shards[shard.name] = fresh
            self._loop.add_reader(
                fresh.conn.fileno(), self._on_readable, fresh
            )
        # Re-dispatch the dead shard's in-flight requests.  On respawn
        # they land back on the same (fresh) shard; after quarantine
        # the ring has already remapped their keys onto survivors.
        for pending in outstanding:
            if pending.attempts >= self.config.max_request_attempts:
                self._fail(
                    pending, "worker_died",
                    f"shard {shard.name} died {pending.attempts} times"
                    " while serving this request",
                )
            else:
                self.metrics.increment("supervisor.redispatched")
                self._route_and_send(pending)

    def _spawn_shard_as(self, name: str, respawns: int) -> _Shard:
        """Respawn under an existing ring name, preserving the respawn count."""
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=shard_main,
            args=(child_conn, name, self.spec),
            name=f"repro-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Shard(
            name=name, process=process, conn=parent_conn, respawns=respawns
        )

    def _send_stop_all(self) -> None:
        for shard in self._shards.values():
            if shard.quarantined or shard.stopped:
                continue
            try:
                shard.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass

    def _teardown_shards(self) -> None:
        for shard in self._shards.values():
            try:
                self._loop.remove_reader(shard.conn.fileno())
            except (ValueError, OSError):
                pass
            for pending in shard.pending.values():
                self._fail(pending, "worker_died", "service stopped")
            shard.pending.clear()
            for waiter in shard.waiters.values():
                if not waiter.done():
                    waiter.set_exception(ServingError("service stopped"))
            shard.waiters.clear()
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.process.is_alive():
                shard.process.terminate()
            shard.process.join(timeout=2.0)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join(timeout=2.0)
