"""Thread-safe TTL+LRU cache over *anonymized* translations.

The cache key is the pre-processed model input — constants already
replaced by typed placeholders — so ``"patients older than 30"`` and
``"patients older than 50"`` share one entry: both anonymize to
``patient old than @AGE``.  The cached value is the raw model output
*with placeholders still in it*; each request re-runs post-processing
with its own bindings, which is what makes key-sharing sound (two hits
on one entry restore different constants).

``None`` model outputs are cached too: a model that cannot translate a
question is deterministic about it, and the negative entry lets repeat
questions skip straight to the fallback chain.

Expired entries are kept until LRU eviction claims them so the service
can serve them *stale* while the circuit breaker is open
(``get(..., allow_expired=True)``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class CacheHit:
    """A successful lookup (``value`` may be ``None`` — a negative entry)."""

    value: str | None
    stale: bool = False


class TranslationCache:
    """LRU cache with per-entry TTL; every method is thread-safe.

    Parameters
    ----------
    capacity:
        Maximum entries; the least-recently-used entry is evicted first.
    ttl:
        Seconds an entry stays fresh; ``<= 0`` disables expiry.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 2048,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[str | None, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, allow_expired: bool = False) -> CacheHit | None:
        """Look up ``key``; ``None`` means miss (or expired-and-disallowed)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, stored_at = entry
            fresh = self.ttl <= 0 or (now - stored_at) < self.ttl
            if fresh:
                self._entries.move_to_end(key)
                self.hits += 1
                return CacheHit(value)
            if allow_expired:
                self.stale_hits += 1
                return CacheHit(value, stale=True)
            self.misses += 1
            return None

    def put(self, key: str, value: str | None) -> None:
        """Insert or refresh an entry, evicting LRU entries over capacity."""
        now = self._clock()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, now)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def keys(self) -> list[str]:
        """Snapshot of the resident keys (LRU order, oldest first).

        The sharded tier uses this to audit shard-exclusive placement:
        the union of every shard's ``keys()`` must contain no duplicates
        when routing is keyed on the anonymized question.
        """
        with self._lock:
            return list(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fresh-hit fraction of all lookups (0.0 when none yet)."""
        total = self.hits + self.misses + self.stale_hits
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready counters snapshot."""
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
