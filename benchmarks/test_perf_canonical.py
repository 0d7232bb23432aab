"""Canonicalization benchmark gate over ``BENCH_canonical.json``.

Marked ``canonical``-and-``perf`` and excluded from tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_canonical.py -m perf

Re-runs ``benchmarks/run_canonical.py`` and asserts the headline
claims: keying on the canonical form recognizes strictly more repeated
queries than exact-text matching on a paraphrase-heavy workload,
semantic dedupe collapses a substantial share of a paraphrase-
augmented corpus, and per-query canonicalization latency stays in
interactive-serving territory.  The recognition/dedupe ratios are
deterministic (fixed seeds) and asserted unconditionally; wall-clock
bounds are gated behind ``speedup_assertable``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from _common import speedup_assertable
from run_canonical import run_benchmark

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_canonical.json"

#: Canonicalizing one query must stay far below a single model call;
#: 5ms p95 is an order of magnitude of headroom on any non-starved box.
P95_BUDGET_US = 5000.0


@pytest.mark.perf
@pytest.mark.canonical
def test_canonical_uplift_recorded():
    record = run_benchmark()
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, result in record["results"].items():
        cache, dedupe, latency = (
            result["cache"],
            result["dedupe"],
            result["latency"],
        )

        # -- cache: deterministic ratios, asserted unconditionally ------
        assert cache["puts"] > 1000, name
        assert cache["canonical_repeats"] > cache["exact_repeats"], (name, cache)
        assert cache["hit_rate_uplift"] > 0, (name, cache)
        # Reconciliation: every put is accounted for.
        assert cache["puts"] == (
            cache["interned_hits"]
            + cache["variants_preserved"]
            + cache["canonical_index_size"]
            + cache["skipped"]
        ), (name, cache)

        # -- dedupe density ---------------------------------------------
        # The raw corpus is near-canonical already (templates rarely
        # collide); the paraphrase-augmented arm is where semantic
        # dedupe earns its keep — at least a quarter of the augmented
        # corpus must collapse.
        assert dedupe["augmented_dedupe_density"] >= 0.25, (name, dedupe)
        assert (
            dedupe["augmented_semantic_deduped"]
            < dedupe["augmented_exact_deduped"]
        ), (name, dedupe)
        # Semantic dedupe never drops below... exact on the raw corpus.
        assert dedupe["semantic_deduped"] <= dedupe["exact_deduped"]

        # -- latency: hardware-dependent, gated -------------------------
        if speedup_assertable(rows=latency["samples"], min_rows=100):
            assert latency["p95_us"] <= P95_BUDGET_US, (name, latency)
            assert latency["p50_us"] <= latency["p95_us"] <= latency["max_us"]
