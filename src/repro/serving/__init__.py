"""Concurrent query-serving layer over the DBPal runtime.

PR 1 made the *offline* pipeline fast; this package makes the *online*
path production-shaped: an admission queue and worker pool micro-batch
concurrent questions into one ``translate_batch`` call, an
anonymization-keyed TTL+LRU cache with single-flight coalescing
deduplicates the model work, and a token bucket + circuit breaker +
fallback chain keep the service answering (degraded, never crashed)
while the model misbehaves.  See DESIGN.md §"Serving layer".

The sharded tier scales that service horizontally: ``ShardedService``
forks N shared-nothing replicas and routes requests over a
consistent-hash ring keyed on the anonymized question, so each cache
key lives on exactly one shard.  See DESIGN.md §"Sharded serving tier".
``ShardedService`` is loaded on first use: its front door runs on
asyncio, which (with ssl) a single in-process service never needs.
"""

from repro.serving.batcher import BatchRequest, MicroBatcher
from repro.serving.cache import CacheHit, TranslationCache
from repro.serving.config import ServingConfig, ShardedConfig
from repro.serving.fallback import KeywordFallback
from repro.serving.hashring import HashRing
from repro.serving.limits import CircuitBreaker, TokenBucket
from repro.serving.metrics import MetricsRegistry, merge_shard_stats, percentile
from repro.serving.repair import (
    QueryRepairer,
    RepairBudget,
    RepairPipeline,
    RepairReport,
    RepairTrace,
)
from repro.serving.service import (
    ServiceFailure,
    ServingResponse,
    TranslationService,
)
from repro.serving.shard import ShardSpec

__all__ = [
    "BatchRequest",
    "CacheHit",
    "CircuitBreaker",
    "HashRing",
    "KeywordFallback",
    "MetricsRegistry",
    "MicroBatcher",
    "QueryRepairer",
    "RepairBudget",
    "RepairPipeline",
    "RepairReport",
    "RepairTrace",
    "ServiceFailure",
    "ServingConfig",
    "ServingResponse",
    "ShardSpec",
    "ShardedConfig",
    "ShardedService",
    "TokenBucket",
    "TranslationCache",
    "TranslationService",
    "merge_shard_stats",
    "percentile",
]


def __getattr__(name: str):
    if name == "ShardedService":
        from repro.serving.front_door import ShardedService

        return ShardedService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
