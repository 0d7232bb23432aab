"""Canonicalization benchmark — writes ``BENCH_canonical.json``.

Three numbers, one record:

* **Recognized-repeat uplift** on a paraphrase-heavy workload: every
  corpus query is emitted under several equivalence-preserving
  spellings (conjunct reversal, ``BETWEEN``/chain, ``IN``/``OR``-of-=,
  comparison flips — the same rewrite classes the soundness gate
  fuzzes), simulating a model whose surface form wobbles between
  requests.  The exact-text arm only recognizes bit-identical repeats;
  keying on ``canonical_key_for_sql`` also recognizes re-spellings.
  The uplift is the recognized-repeat rate delta.
* **Corpus dedupe density**: how much of each seed corpus
  ``dedupe_pairs(semantic=True)`` removes beyond exact-key dedupe.
* **Canonicalization latency**: p50/p95 of ``canonical_key_for_sql``
  over every distinct corpus query (the price of keying one query).

Usage::

    PYTHONPATH=src python benchmarks/run_canonical.py [--smoke]
        [--slotfills 8] [--repeats 3] [--output BENCH_canonical.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

from repro.core import GenerationConfig, TrainingPipeline, dedupe_pairs
from repro.schema import load_schema
from repro.sql.ast import And, Between, Comparison, CompOp, InPredicate, Not, Or
from repro.sql.canonical import canonical_key_for_sql
from repro.sql.printer import to_sql

SEED = 31
CORPUS_SCHEMAS = ("patients", "geography")


# ----------------------------------------------------------------------
# Equivalence-preserving re-spellings (mirrors the soundness gate)
# ----------------------------------------------------------------------


def _respell(pred):
    if isinstance(pred, And):
        return And(tuple(reversed([_respell(p) for p in pred.operands])))
    if isinstance(pred, Or):
        return Or(tuple(reversed([_respell(p) for p in pred.operands])))
    if isinstance(pred, Not):
        return Not(_respell(pred.operand))
    if isinstance(pred, Between):
        return And(
            (
                Comparison(pred.column, CompOp.GE, pred.low),
                Comparison(pred.column, CompOp.LE, pred.high),
            )
        )
    if (
        isinstance(pred, InPredicate)
        and pred.subquery is None
        and not pred.negated
        and len(pred.values) >= 2
    ):
        return Or(
            tuple(
                Comparison(pred.column, CompOp.EQ, value)
                for value in reversed(pred.values)
            )
        )
    if isinstance(pred, Comparison):
        return Comparison(pred.right, pred.op.flipped(), pred.left)
    return pred


def spellings(query) -> list[str]:
    """The original plus distinct re-spelled surface forms."""
    texts = [to_sql(query)]
    if query.where is not None:
        respelled = to_sql(replace(query, where=_respell(query.where)))
        if respelled not in texts:
            texts.append(respelled)
    return texts


# ----------------------------------------------------------------------
# Arms
# ----------------------------------------------------------------------


def paraphrase_workload(corpus) -> list[str]:
    """Model outputs for a paraphrase-heavy request stream."""
    outputs: list[str] = []
    for pair in corpus.pairs:
        outputs.extend(spellings(pair.sql))
    return outputs


def run_cache_arm(schema, outputs: list[str]) -> dict:
    """Repeats recognized by exact text vs by ``canonical_key_for_sql``.

    Walks the workload once with a map from canonical key to first-seen
    text: a ``None`` key (unparseable) is skipped, a repeat with equal
    text is an interned hit, and a repeat with different text is a
    preserved variant.
    """
    first_seen: dict[str, str] = {}
    exact_seen: set[str] = set()
    exact_repeats = interned_hits = variants_preserved = skipped = 0
    for text in outputs:
        if text in exact_seen:
            exact_repeats += 1
        exact_seen.add(text)
        canonical = canonical_key_for_sql(text, schema)
        if canonical is None:
            skipped += 1
            continue
        existing = first_seen.get(canonical)
        if existing is None:
            first_seen[canonical] = text
        elif existing == text:
            interned_hits += 1
        else:
            variants_preserved += 1

    puts = len(outputs)
    canonical_repeats = interned_hits + variants_preserved
    exact_rate = exact_repeats / puts if puts else 0.0
    canonical_rate = canonical_repeats / puts if puts else 0.0
    return {
        "puts": puts,
        "exact_repeats": exact_repeats,
        "canonical_repeats": canonical_repeats,
        "exact_recognized_rate": round(exact_rate, 4),
        "canonical_recognized_rate": round(canonical_rate, 4),
        "hit_rate_uplift": round(canonical_rate - exact_rate, 4),
        "canonical_index_size": len(first_seen),
        "interned_hits": interned_hits,
        "variants_preserved": variants_preserved,
        "skipped": skipped,
    }


def run_dedupe_arm(schema, corpus) -> dict:
    """Exact vs semantic dedupe, raw and under paraphrase pressure.

    The raw corpus is already exact-deduplicated by the pipeline, so
    its density isolates canonical collisions between *templates*.
    The augmented arm re-spells every pair's SQL under the same NL —
    the shape a paraphrasing augmenter or a wobbly model produces —
    which only semantic dedupe can collapse.
    """
    def density(pairs):
        exact = dedupe_pairs(list(pairs))
        semantic = dedupe_pairs(
            list(pairs), semantic=True, schemas={schema.name: schema}
        )
        ratio = 1.0 - (len(semantic) / len(exact)) if exact else 0.0
        return len(exact), len(semantic), round(ratio, 4)

    augmented = []
    for pair in corpus.pairs:
        augmented.append(pair)
        if pair.sql.where is not None:
            respelled = replace(pair.sql, where=_respell(pair.sql.where))
            if respelled != pair.sql:
                augmented.append(replace(pair, sql=respelled))

    raw_exact, raw_semantic, raw_density = density(corpus.pairs)
    aug_exact, aug_semantic, aug_density = density(augmented)
    return {
        "pairs": len(corpus.pairs),
        "exact_deduped": raw_exact,
        "semantic_deduped": raw_semantic,
        "dedupe_density": raw_density,
        "augmented_pairs": len(augmented),
        "augmented_exact_deduped": aug_exact,
        "augmented_semantic_deduped": aug_semantic,
        "augmented_dedupe_density": aug_density,
    }


def run_latency_arm(schema, outputs: list[str], repeats: int) -> dict:
    distinct = sorted(set(outputs))
    samples: list[float] = []
    for _ in range(repeats):
        for text in distinct:
            start = time.perf_counter()
            canonical_key_for_sql(text, schema)
            samples.append(time.perf_counter() - start)
    samples.sort()

    def quantile(q: float) -> float:
        return samples[min(int(q * (len(samples) - 1)), len(samples) - 1)]

    return {
        "queries": len(distinct),
        "samples": len(samples),
        "p50_us": round(quantile(0.50) * 1e6, 2),
        "p95_us": round(quantile(0.95) * 1e6, 2),
        "max_us": round(samples[-1] * 1e6, 2),
    }


def run_benchmark(slotfills: int = 8, repeats: int = 3) -> dict:
    per_schema = {}
    config = GenerationConfig(size_slotfills=slotfills)
    for schema_name in CORPUS_SCHEMAS:
        schema = load_schema(schema_name)
        corpus = TrainingPipeline(schema, config, seed=SEED).generate()
        outputs = paraphrase_workload(corpus)
        per_schema[schema_name] = {
            "corpus_pairs": len(corpus.pairs),
            "workload_outputs": len(outputs),
            "cache": run_cache_arm(schema, outputs),
            "dedupe": run_dedupe_arm(schema, corpus),
            "latency": run_latency_arm(schema, outputs, repeats),
        }
    return {
        "benchmark": "canonicalization",
        "schemas": list(CORPUS_SCHEMAS),
        "slotfills": slotfills,
        "repeats": repeats,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "results": per_schema,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slotfills", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run wired into the test suite so this script cannot rot",
    )
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_canonical.json"
        ),
    )
    args = parser.parse_args(argv)
    slotfills = 3 if args.smoke else args.slotfills
    repeats = 1 if args.smoke else args.repeats
    record = run_benchmark(slotfills=slotfills, repeats=repeats)
    Path(args.output).write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for schema_name, result in record["results"].items():
        cache, dedupe, latency = (
            result["cache"],
            result["dedupe"],
            result["latency"],
        )
        print(
            f"{schema_name}: uplift {cache['hit_rate_uplift']:+.1%} "
            f"(exact {cache['exact_recognized_rate']:.1%} -> canonical "
            f"{cache['canonical_recognized_rate']:.1%}), "
            f"dedupe density {dedupe['dedupe_density']:.1%} raw / "
            f"{dedupe['augmented_dedupe_density']:.1%} augmented, "
            f"canonical p95 {latency['p95_us']:.0f}us"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
