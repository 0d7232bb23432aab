"""Synthesis throughput benchmark — writes ``BENCH_synthesis.json``.

Measures corpus-synthesis throughput (pairs/sec) in three arms under
the same code version:

* ``sequential_uncached`` — the shard loop with every hot-path cache
  disabled (:func:`repro.perf.uncached_hot_paths`): the pre-engine
  baseline cost model;
* ``sequential`` — ``workers=0`` with caches on (isolates the caching
  speedup);
* ``parallel_wN`` — ``workers=N`` on supervised worker processes.

All arms produce bit-identical corpora (asserted), so the ratios are
pure execution-speed comparisons.  Numbers are hardware-dependent —
``cpu_count`` is recorded with the results; on a single-core host the
parallel arms measure pool overhead, not speedup, and the caching
ratios are the meaningful signal.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--profile full]
        [--workers 2 4] [--output BENCH_synthesis.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.core import GenerationConfig, TrainingPipeline
from repro.perf import PerfRecorder, uncached_hot_paths
from repro.schema import load_schema

#: Mirrors benchmarks/_common.py profiles (kept standalone so the perf
#: entry point has no pytest dependencies).
PROFILE_SLOTFILLS = {"fast": 6, "full": 16}
PROFILE_SCHEMAS = {
    "fast": ("patients", "geography"),
    "full": ("patients", "geography", "retail", "flights"),
}

#: Synthesis seed for all arms (identical corpora across arms).
SEED = 42


def _clear_global_caches() -> None:
    """Reset process-wide caches so each arm starts cold."""
    from repro.nlp.lemmatizer import lemmatize_token, lemmatize_word

    for cache in (lemmatize_word, lemmatize_token):
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()


def _run_arm(schemas, config, workers: int | None, uncached: bool = False):
    """One measured synthesis run; returns (corpus, stats dict)."""
    _clear_global_caches()
    pipeline = TrainingPipeline(schemas, config, seed=SEED)
    recorder = PerfRecorder()
    start = time.perf_counter()
    if uncached:
        with uncached_hot_paths():
            corpus = pipeline.generate(workers=0, recorder=recorder)
    else:
        corpus = pipeline.generate(workers=workers or 0, recorder=recorder)
    elapsed = time.perf_counter() - start
    pairs_per_second = len(corpus) / elapsed if elapsed > 0 else 0.0
    return corpus, {
        "seconds": round(elapsed, 3),
        "pairs": len(corpus),
        "pairs_per_second": round(pairs_per_second, 1),
        "stages": recorder.report(),
    }


def run_benchmark(
    profile: str = "fast", workers: tuple[int, ...] = (2, 4)
) -> dict:
    """Run all arms and return the BENCH record (not yet written)."""
    schemas = [load_schema(name) for name in PROFILE_SCHEMAS[profile]]
    config = GenerationConfig(size_slotfills=PROFILE_SLOTFILLS[profile])

    modes: dict[str, dict] = {}
    baseline_corpus, modes["sequential_uncached"] = _run_arm(
        schemas, config, workers=0, uncached=True
    )
    cached_corpus, modes["sequential"] = _run_arm(schemas, config, workers=0)
    corpora = {"sequential": cached_corpus}
    for n in workers:
        corpus, modes[f"parallel_w{n}"] = _run_arm(schemas, config, workers=n)
        corpora[f"parallel_w{n}"] = corpus

    # Throughput ratios only mean anything over identical corpora.
    baseline_keys = [p.key() for p in baseline_corpus.pairs]
    for name, corpus in corpora.items():
        assert [p.key() for p in corpus.pairs] == baseline_keys, (
            f"{name} corpus diverged from baseline"
        )

    baseline_pps = modes["sequential_uncached"]["pairs_per_second"]
    sequential_pps = modes["sequential"]["pairs_per_second"]

    def ratio(a: float, b: float) -> float:
        return round(a / b, 2) if b > 0 else 0.0

    speedups = {
        # "Caching alone": same shard loop, caches on vs off.
        "caching_alone": ratio(sequential_pps, baseline_pps),
    }
    for n in workers:
        parallel_pps = modes[f"parallel_w{n}"]["pairs_per_second"]
        # Headline number: the engine (caches + sharding) at N workers
        # vs the uncached sequential baseline.
        speedups[f"workers{n}_vs_baseline"] = ratio(parallel_pps, baseline_pps)
        speedups[f"workers{n}_vs_sequential"] = ratio(
            parallel_pps, sequential_pps
        )

    return {
        "benchmark": "corpus_synthesis_throughput",
        "profile": profile,
        "schemas": list(PROFILE_SCHEMAS[profile]),
        "size_slotfills": PROFILE_SLOTFILLS[profile],
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "corpora_identical_across_modes": True,
        "modes": modes,
        "speedups": speedups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILE_SLOTFILLS), default="full")
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_synthesis.json"),
    )
    args = parser.parse_args(argv)
    record = run_benchmark(profile=args.profile, workers=tuple(args.workers))
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    for mode, stats in record["modes"].items():
        print(
            f"  {mode:<22} {stats['seconds']:>8.3f}s"
            f"  {stats['pairs_per_second']:>9.1f} pairs/s"
        )
    for name, value in record["speedups"].items():
        print(f"  speedup {name:<24} {value:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
