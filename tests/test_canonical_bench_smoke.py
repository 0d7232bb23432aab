"""Tier-1 smoke run of the canonicalization benchmark.

``benchmarks/run_canonical.py`` is executed end-to-end in miniature
(``--smoke`` shrinks the corpora and repeats) so the benchmark script
cannot rot out from under the canonicalizer: it synthesizes both seed
corpora, counts the paraphrase workload's repeats by exact text and by
canonical key, runs exact-vs-semantic dedupe, times
``canonical_key_for_sql``, and must emit a well-formed record whose
deterministic properties (uplift non-negative, puts reconciled,
augmented dedupe density positive) hold even at smoke scale.  No latency assertion — that gate lives in
``benchmarks/test_perf_canonical.py``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

pytestmark = pytest.mark.canonical


def test_smoke_run_writes_valid_record(tmp_path):
    sys.path.insert(0, str(BENCHMARKS_DIR))
    try:
        from run_canonical import main
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))

    output = tmp_path / "BENCH_canonical.json"
    exit_code = main(["--smoke", "--output", str(output)])
    assert exit_code == 0

    record = json.loads(output.read_text(encoding="utf-8"))
    assert record["benchmark"] == "canonicalization"
    assert set(record["results"]) == {"patients", "geography"}
    for name, result in record["results"].items():
        cache = result["cache"]
        dedupe = result["dedupe"]
        latency = result["latency"]
        assert result["corpus_pairs"] > 0, name
        assert cache["puts"] == result["workload_outputs"]
        # The canonical key can only recognize MORE repeats than
        # exact-text matching, never fewer.
        assert cache["canonical_repeats"] >= cache["exact_repeats"], (name, cache)
        assert cache["hit_rate_uplift"] >= 0, (name, cache)
        assert cache["puts"] == (
            cache["interned_hits"]
            + cache["variants_preserved"]
            + cache["canonical_index_size"]
            + cache["skipped"]
        ), (name, cache)
        # Semantic dedupe collapses re-spelled pairs even at smoke scale.
        assert dedupe["augmented_dedupe_density"] > 0, (name, dedupe)
        assert dedupe["semantic_deduped"] <= dedupe["exact_deduped"]
        assert latency["samples"] >= latency["queries"] > 0
        assert 0 <= latency["p50_us"] <= latency["p95_us"] <= latency["max_us"]
