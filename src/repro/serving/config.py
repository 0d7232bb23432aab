"""Serving-layer knobs, one frozen dataclass.

Mirrors :class:`repro.core.config.GenerationConfig` in spirit: every
operational parameter of the online query service lives here with a
production-ish default, validated on construction, and convertible to a
plain dict for CLI flags and JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ServingError


@dataclass(frozen=True)
class ServingConfig:
    """All knobs of the concurrent query-serving layer.

    Batching
    --------
    workers:
        Micro-batch worker threads draining the admission queue.
    max_batch_size:
        Upper bound on requests coalesced into one
        :meth:`~repro.neural.base.TranslationModel.translate_batch` call.
        A batch holds only requests already queued when a worker picks
        up its first one; no worker waits for a batch to fill.
    queue_capacity:
        Admission-queue bound; requests beyond it are shed with a
        structured ``queue_full`` rejection. ``0`` means unbounded.

    Robustness
    ----------
    request_timeout:
        Seconds a request waits for its translation before giving up
        with a structured ``timeout`` response.
    rate_limit:
        Sustained requests/second admitted by the token bucket
        (``0`` disables rate limiting).
    burst:
        Token-bucket capacity: how many requests may arrive back-to-back
        before the sustained rate applies.
    failure_threshold:
        Consecutive model failures that open the circuit breaker.
    cooldown:
        Seconds the breaker stays open before letting one probe through.

    Caching
    -------
    cache_capacity:
        LRU entries in the translation cache (``0`` disables caching).
    cache_ttl:
        Seconds an entry stays fresh (``<= 0`` means never expires).
        Expired entries are still served while the model is unavailable
        (graceful degradation).

    Repair (see :mod:`repro.serving.repair`)
    ----------------------------------------
    repair_attempts:
        Repair→re-lint cycles allowed per candidate (``0`` disables the
        execute–verify–repair loop entirely; responses are then
        byte-identical to a service built without it).
    repair_deadline:
        Wall-clock budget in seconds for one whole repair run (lint +
        repair + execution re-rank); the loop degrades when it expires.
    repair_execute_timeout:
        Seconds one execution-verification step may take before its
        verdict is demoted to ``timeout``.
    repair_max_rows:
        Row cap per execution-verification query.
    """

    workers: int = 2
    max_batch_size: int = 8
    queue_capacity: int = 256
    request_timeout: float = 10.0
    rate_limit: float = 0.0
    burst: int = 16
    failure_threshold: int = 5
    cooldown: float = 30.0
    cache_capacity: int = 2048
    cache_ttl: float = 300.0
    repair_attempts: int = 2
    repair_deadline: float = 0.25
    repair_execute_timeout: float = 0.1
    repair_max_rows: int = 100

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServingError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        if self.queue_capacity < 0:
            raise ServingError("queue_capacity must be >= 0")
        if self.request_timeout <= 0:
            raise ServingError("request_timeout must be > 0")
        if self.rate_limit < 0:
            raise ServingError("rate_limit must be >= 0")
        if self.burst < 1:
            raise ServingError("burst must be >= 1")
        if self.failure_threshold < 1:
            raise ServingError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ServingError("cooldown must be >= 0")
        if self.cache_capacity < 0:
            raise ServingError("cache_capacity must be >= 0")
        if self.repair_attempts < 0:
            raise ServingError("repair_attempts must be >= 0")
        if self.repair_deadline <= 0:
            raise ServingError("repair_deadline must be > 0")
        if self.repair_execute_timeout <= 0:
            raise ServingError("repair_execute_timeout must be > 0")
        if self.repair_max_rows < 1:
            raise ServingError("repair_max_rows must be >= 1")

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-ready, same field order as declared)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ShardedConfig:
    """Knobs of the multi-process sharded serving tier.

    Topology
    --------
    replicas:
        Shared-nothing shard processes, each hosting a full
        :class:`~repro.serving.service.TranslationService` replica.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring (see
        :mod:`repro.serving.hashring`).

    Supervision
    -----------
    max_respawns:
        Times a crashing shard is restarted before it is quarantined
        (removed from the ring; its keys remap onto survivors).
    max_request_attempts:
        Times one request may be re-dispatched after shard deaths
        before it fails with ``worker_died``.
    boot_timeout:
        Seconds to wait for a shard's ready handshake before treating
        the spawn as failed.

    Flow control
    ------------
    dispatch_threads:
        Front-door executor threads running preprocessing before ring
        routing (preprocessing is CPU-bound Python; these also keep a
        slow question from stalling the event loop).
    max_inflight_per_shard:
        Outstanding requests allowed per shard pipe before new arrivals
        are shed with ``queue_full`` (mirrors the single-process
        admission queue bound).
    drain_timeout:
        Seconds ``stop()`` waits for in-flight requests to finish
        before shards are terminated anyway.
    grace:
        Seconds a stopping shard gets between ``stop`` message and
        ``terminate()``.
    """

    replicas: int = 2
    vnodes: int = 96
    max_respawns: int = 3
    max_request_attempts: int = 3
    boot_timeout: float = 60.0
    dispatch_threads: int = 8
    max_inflight_per_shard: int = 512
    drain_timeout: float = 10.0
    grace: float = 2.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ServingError("replicas must be >= 1")
        if self.vnodes < 1:
            raise ServingError("vnodes must be >= 1")
        if self.max_respawns < 0:
            raise ServingError("max_respawns must be >= 0")
        if self.max_request_attempts < 1:
            raise ServingError("max_request_attempts must be >= 1")
        if self.boot_timeout <= 0:
            raise ServingError("boot_timeout must be > 0")
        if self.dispatch_threads < 1:
            raise ServingError("dispatch_threads must be >= 1")
        if self.max_inflight_per_shard < 1:
            raise ServingError("max_inflight_per_shard must be >= 1")
        if self.drain_timeout < 0:
            raise ServingError("drain_timeout must be >= 0")
        if self.grace < 0:
            raise ServingError("grace must be >= 0")

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-ready, same field order as declared)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
