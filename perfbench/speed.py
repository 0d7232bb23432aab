"""CPU-speed probe that puts timings on a reference-speed scale.

The benchmark runs on shared machines whose speed drifts by up to
±20 % within seconds (the probe kernel alone, timed in a loop, moves
that much).  Every timing the benchmark reports is therefore scaled by
``REFERENCE_S / probe``, where ``probe`` is the median duration of a
fixed pure-Python kernel timed close to the measurement: a request on a
machine running 20 % slow is reported as if the machine ran at
reference speed.  The kernel never calls into the program, so a change
to the program moves the reported times and a change in machine speed
does not.  Raw, unscaled times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Probe duration (seconds) that maps to a scale factor of 1.0; the
#: median probe on the shared 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = 0.45e-3
#: Seconds between probes, and probes per median.
EVERY_S = 0.02
WINDOW = 15

_WORDS = [f"{w}{i}" for i in range(20) for w in ("alpha", "flights", "texas", "kansas", "ohio")]


def _kernel() -> float:
    """Trigram-set Jaccard over fixed strings: the interpreter work the
    anonymizer does, without touching the program."""
    grams = [{w[i : i + 3] for i in range(len(w) - 2)} for w in _WORDS]
    best = 0.0
    for a in grams[:3]:
        for b in grams:
            best = max(best, len(a & b) / len(a | b))
    return best


class SpeedProbe:
    """Samples the kernel every ``EVERY_S`` seconds of caller time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._due = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.times.append(time.perf_counter())
        self.samples.append(self.times[-1] - t0)

    def tick(self, now: float) -> None:
        """Sample when due (``now`` is the caller's ``perf_counter``)."""
        if now >= self._due:
            self.sample()
            self._due = now + EVERY_S

    def factor_at(self, moment: float) -> float:
        """Scale factor for a time measured at ``moment``, from the
        ``WINDOW`` samples centred on it (half before, half after)."""
        k = bisect.bisect_left(self.times, moment)
        lo = max(0, k - WINDOW // 2)
        return REFERENCE_S / statistics.median(self.samples[lo : lo + WINDOW])

    def factor(self) -> float:
        """Scale factor for a time measured now: reference / local speed."""
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])
