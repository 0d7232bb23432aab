"""Per-stage wall-clock timers and throughput counters.

Synthesis performance work needs numbers before it needs opinions, so
the pipeline (and anything else with stages) can carry a
:class:`PerfRecorder`: a tiny accumulator of per-stage wall-clock time,
item counts, and derived items/sec rates.  Recording is cheap enough to
leave on in production paths — a recorder is only consulted when the
caller passes one.

Parallel synthesis workers time their own stages and return plain
``{stage: seconds}`` dicts; the parent merges them with
:meth:`PerfRecorder.add`, so a report over a multi-process run shows
aggregate CPU seconds per stage next to the observed wall-clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class StageTimer:
    """Context manager measuring one wall-clock span.

    >>> with StageTimer() as timer:
    ...     work()
    >>> timer.seconds
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: float | None = None

    def __enter__(self) -> "StageTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass
class StageStats:
    """Accumulated numbers for one named stage.

    ``seconds`` is **cumulative busy time**: spans are summed across
    every thread that reports into the stage, so under concurrency it
    can exceed wall-clock (8 worker threads preprocessing for 1s each
    inside a 1s window report 8s).  ``first_start``/``last_end``
    bracket the stage's activity on this process's ``perf_counter``
    timeline; their difference (:attr:`wall_seconds`) is the wall-clock
    span — the two are reported side by side so a >100% "utilization"
    reads as concurrency, not as a broken timer.
    """

    seconds: float = 0.0
    calls: int = 0
    items: int = 0
    first_start: float | None = None
    last_end: float | None = None

    @property
    def wall_seconds(self) -> float:
        """Wall-clock span from first entry to last exit (0.0 if idle)."""
        if self.first_start is None or self.last_end is None:
            return 0.0
        return max(0.0, self.last_end - self.first_start)

    def observe_span(self, start: float, end: float) -> None:
        """Widen the wall-clock bracket to include [start, end]."""
        if self.first_start is None or start < self.first_start:
            self.first_start = start
        if self.last_end is None or end > self.last_end:
            self.last_end = end

    @property
    def items_per_second(self) -> float:
        """Throughput; 0.0 for idle stages (zero items *or* zero time).

        Serving snapshots consult this on live, possibly-empty stages
        (an idle service has recorded no items and no seconds), so both
        degenerate cases must yield a clean 0.0 rather than divide.
        """
        if self.items <= 0 or self.seconds <= 0:
            return 0.0
        return self.items / self.seconds


@dataclass
class PerfRecorder:
    """Accumulates per-stage wall-clock time and throughput counters."""

    stages: dict[str, StageStats] = field(default_factory=dict)

    def _stats(self, stage: str) -> StageStats:
        stats = self.stages.get(stage)
        if stats is None:
            stats = self.stages[stage] = StageStats()
        return stats

    def add(
        self, stage: str, seconds: float, items: int = 0, end: float | None = None
    ) -> None:
        """Fold one measurement into ``stage``'s running totals.

        ``end`` is when the span ended, on the clock the caller timed it
        with.  Without it the span is approximated as ending now on
        ``perf_counter`` (callers report a duration immediately after
        measuring it), which is accurate enough for the wall-clock
        bracket.
        """
        stats = self._stats(stage)
        stats.seconds += seconds
        stats.calls += 1
        stats.items += items
        if end is None:
            end = time.perf_counter()
        stats.observe_span(end - max(0.0, seconds), end)

    @contextmanager
    def stage(self, name: str):
        """Time a ``with`` block as one call of stage ``name``.

        Yields the :class:`StageStats` so the block can attach an item
        count: ``with recorder.stage("merge") as s: ...; s.items += n``.
        """
        stats = self._stats(name)
        start = time.perf_counter()
        try:
            yield stats
        finally:
            end = time.perf_counter()
            stats.seconds += end - start
            stats.calls += 1
            stats.observe_span(start, end)

    def merge(self, other: "PerfRecorder") -> None:
        """Fold another recorder's totals into this one.

        Used to aggregate stage timings across process lifetimes — e.g.
        an interrupted synthesis run plus its ``--resume`` continuation
        report as one logical run.
        """
        for name, stats in other.stages.items():
            mine = self._stats(name)
            mine.seconds += stats.seconds
            mine.calls += stats.calls
            mine.items += stats.items
            if stats.first_start is not None and stats.last_end is not None:
                mine.observe_span(stats.first_start, stats.last_end)

    def report(self) -> dict[str, dict[str, float]]:
        """Plain-dict snapshot (JSON-ready, for BENCH files and logs)."""
        return {
            name: {
                # "seconds" predates the busy/wall split and is kept as
                # an alias of busy_seconds for existing consumers.
                "seconds": round(stats.seconds, 6),
                "busy_seconds": round(stats.seconds, 6),
                "wall_seconds": round(stats.wall_seconds, 6),
                "calls": stats.calls,
                "items": stats.items,
                "items_per_second": round(stats.items_per_second, 3),
            }
            for name, stats in self.stages.items()
        }

    def format_table(self, title: str = "perf") -> str:
        """A small fixed-width table for terminal output."""
        lines = [f"{title}:"]
        width = max((len(n) for n in self.stages), default=5)
        for name, stats in self.stages.items():
            rate = (
                f"  {stats.items_per_second:>10.1f} items/s" if stats.items else ""
            )
            lines.append(
                f"  {name:<{width}}  {stats.seconds:>8.3f}s"
                f"  x{stats.calls:<5d}{rate}"
            )
        return "\n".join(lines)
