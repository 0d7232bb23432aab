"""Cross-layer wiring of the canonical analyzer (PR contract).

One static pass, four consumers: the serving cache's coalescing tier
and its accounting identity, corpus ``dedupe_pairs(semantic=True)``
(plus the pipeline flag), the eval harness's ``semantic`` column, and
the repair loop's canonical oscillation/dedupe guard.  Each class here
pins one consumer to the shared canonicalizer.
"""

import pickle
import threading
import time

import pytest

from repro.core import GenerationConfig, TrainingPipeline, dedupe_pairs
from repro.core.templates import Family, TrainingPair
from repro.neural.base import TranslationModel
from repro.runtime import DBPal
from repro.schema import load_schema
from repro.serving import ServingConfig, TranslationService
from repro.serving.metrics import merge_shard_stats
from repro.sql.parser import parse

pytestmark = pytest.mark.canonical


class ParaphraseModel(TranslationModel):
    """Returns canonically-equal but textually-varied SQL per phrasing."""

    SPELLINGS = {
        "show": "SELECT name FROM patients WHERE age = @AGE",
        "list": "SELECT name FROM patients WHERE age = @AGE",  # same text
        "display": "SELECT name FROM patients WHERE @AGE = age",  # variant
    }

    def __init__(self) -> None:
        self.batch_calls: list[list[str]] = []
        self._lock = threading.Lock()

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        for cue, sql in self.SPELLINGS.items():
            if cue in nl:
                return sql
        return None

    def translate_batch(self, nls):
        with self._lock:
            self.batch_calls.append(list(nls))
        return [self.translate(nl) for nl in nls]


def _service(patients_db, model, **overrides):
    config = ServingConfig(
        workers=2, batch_window=0.002, request_timeout=10.0, **overrides
    )
    return TranslationService(DBPal(patients_db, model), config)


class TestServingCanonicalTier:
    def test_canonical_counters_and_accounting(self, patients_db):
        age = sorted(set(patients_db.column_values("patients", "age")))[0]
        with _service(patients_db, ParaphraseModel()) as service:
            # Three phrasings -> three distinct anonymized cache keys,
            # one canonical query.
            service.translate(f"show the patients with age {age}")
            service.translate(f"list the patients with age {age}")
            service.translate(f"display the patients with age {age}")
            stats = service.stats()
        cache = stats["cache"]
        assert cache["canonical_probes"] == 3
        assert cache["canonical_new"] == 1
        assert cache["canonical_hits"] == 1  # identical text interned
        assert cache["canonical_variants"] == 1  # flipped spelling kept
        assert cache["canonical_index_size"] == 1
        names = [i["identity"] for i in stats["accounting"]["identities"]]
        assert (
            "cache.canonical_probes == canonical_hits + canonical_variants"
            " + canonical_new + canonical_skipped" in names
        )
        assert stats["accounting"]["consistent"], stats["accounting"]

    def test_payloads_survive_coalescing(self, patients_db):
        ages = sorted(set(patients_db.column_values("patients", "age")))[:2]
        with _service(patients_db, ParaphraseModel()) as service:
            flipped = service.translate(f"display the patients with age {ages[0]}")
            straight = service.translate(f"show the patients with age {ages[1]}")
        # The variant's own text is served verbatim — coalescing only
        # interns bit-identical payloads, it never rewrites them.
        assert flipped.ok and straight.ok
        assert flipped.sql != straight.sql
        assert str(ages[0]) in flipped.sql

    def test_unparseable_output_counts_skipped(self, patients_db):
        class BrokenModel(ParaphraseModel):
            SPELLINGS = {"show": "THIS IS NOT SQL ((("}

        age = sorted(set(patients_db.column_values("patients", "age")))[0]
        with _service(patients_db, BrokenModel()) as service:
            service.translate(f"show the patients with age {age}")
            stats = service.stats()
        cache = stats["cache"]
        assert cache["canonical_skipped"] >= 1
        assert stats["accounting"]["consistent"], stats["accounting"]

    def test_merge_shard_stats_sums_canonical_fields(self):
        def snap(probes, hits, variants, new, skipped):
            return {
                "counters": {},
                "latency_samples": [],
                "batch_size_histogram": {},
                "cache": {
                    "size": 1,
                    "capacity": 8,
                    "hits": 0,
                    "misses": 1,
                    "stale_hits": 0,
                    "evictions": 0,
                    "hit_rate": 0.0,
                    "canonical_probes": probes,
                    "canonical_hits": hits,
                    "canonical_variants": variants,
                    "canonical_new": new,
                    "canonical_skipped": skipped,
                    "canonical_index_size": new,
                },
            }

        merged = merge_shard_stats(
            [snap(3, 1, 1, 1, 0), snap(2, 0, 0, 1, 1)], elapsed=1.0
        )
        cache = merged["cache"]
        assert cache["canonical_probes"] == 5
        assert cache["canonical_hits"] == 1
        assert cache["canonical_variants"] == 1
        assert cache["canonical_new"] == 2
        assert cache["canonical_skipped"] == 1


def _pair(nl, sql, schema_name="patients"):
    return TrainingPair(
        nl=nl,
        sql=parse(sql),
        template_id="t0",
        family=Family.SELECT,
        schema_name=schema_name,
    )


class TestSemanticDedupe:
    def test_semantic_mode_collapses_canonical_duplicates(self, patients):
        pairs = [
            _pair("count young patients", "SELECT name FROM patients WHERE age IN (20, 30)"),
            _pair("count young patients", "SELECT name FROM patients WHERE age = 30 OR age = 20"),
            _pair("count young patients", "SELECT name FROM patients WHERE age IN (20, 40)"),
        ]
        exact = dedupe_pairs(pairs)
        assert len(exact) == 3  # textually all distinct
        semantic = dedupe_pairs(
            pairs, semantic=True, schemas={"patients": patients}
        )
        assert semantic == [pairs[0], pairs[2]]

    def test_semantic_mode_keeps_distinct_nl(self, patients):
        pairs = [
            _pair("first phrasing", "SELECT name FROM patients WHERE age IN (20, 30)"),
            _pair("second phrasing", "SELECT name FROM patients WHERE age = 30 OR age = 20"),
        ]
        semantic = dedupe_pairs(
            pairs, semantic=True, schemas={"patients": patients}
        )
        # The NL side is part of the key: different questions survive.
        assert semantic == pairs

    def test_default_mode_unchanged_without_flag(self, patients_corpus):
        assert dedupe_pairs(patients_corpus.pairs) == list(patients_corpus.pairs)

    def test_semantic_key_memoized_and_unpickled_clean(self, patients):
        pair = _pair("q", "SELECT name FROM patients WHERE age BETWEEN 1 AND 2")
        key = pair.semantic_key(patients)
        assert pair.semantic_key(patients) is key
        assert key[1] == "SELECT name FROM patients WHERE age <= 2 AND age >= 1"
        clone = pickle.loads(pickle.dumps(pair))
        assert "_semantic_key" not in clone.__dict__
        assert clone.semantic_key(patients) == key

    def test_pipeline_default_bit_identical(self, patients, patients_corpus):
        config = GenerationConfig(size_slotfills=4)
        again = TrainingPipeline(patients, config, seed=1).generate()
        assert again.pairs == patients_corpus.pairs


class TestEvalSemanticColumn:
    def test_semantic_match_beats_exact_on_paraphrase(self, patients):
        from repro.bench.workloads import Workload, WorkloadItem
        from repro.eval.harness import evaluate

        class VariantModel:
            def translate(self, nl):
                return "SELECT name FROM patients WHERE age = 30 OR age = 20"

        workload = Workload(
            name="w",
            items=[
                WorkloadItem(
                    nl="some question",
                    sql=parse("SELECT name FROM patients WHERE age IN (20, 30)"),
                    schema_name="patients",
                )
            ],
        )
        result = evaluate(
            VariantModel(), workload, metric="exact", postprocess=False
        )
        [record] = result.records
        assert not record.correct  # textual mismatch
        assert record.semantic  # canonical forms agree
        assert result.accuracy == 0.0
        assert result.semantic_accuracy == 1.0
        assert "semantic 1.000" in result.summary()

    def test_semantic_at_least_exact(self, patients):
        from repro.bench.workloads import Workload, WorkloadItem
        from repro.eval.harness import evaluate

        class EchoModel:
            def translate(self, nl):
                return nl  # the item NL *is* the gold SQL text

        items = [
            WorkloadItem(
                nl="SELECT name FROM patients",
                sql=parse("SELECT name FROM patients"),
                schema_name="patients",
            ),
            WorkloadItem(
                nl="SELECT age FROM patients",
                sql=parse("SELECT COUNT(*) FROM patients"),
                schema_name="patients",
            ),
        ]
        result = evaluate(
            EchoModel(),
            Workload(name="w", items=items),
            metric="exact",
            postprocess=False,
        )
        for record in result.records:
            assert record.semantic >= record.correct
        assert result.semantic_accuracy >= result.accuracy


class TestRepairCanonicalGuard:
    def test_guard_key_is_canonical(self, patients):
        from repro.serving.repair import RepairPipeline

        loop = RepairPipeline(patients)
        a = loop._canonical_guard_key(
            parse("SELECT name FROM patients WHERE age IN (20, 30)")
        )
        b = loop._canonical_guard_key(
            parse("SELECT name FROM patients WHERE age = 30 OR age = 20")
        )
        c = loop._canonical_guard_key(
            parse("SELECT name FROM patients WHERE age IN (20, 40)")
        )
        assert a == b
        assert a != c

    def test_guard_key_survives_broken_candidates(self, patients):
        from repro.serving.repair import RepairPipeline

        loop = RepairPipeline(patients)
        # Unknown table/column: canonicalizer degrades, never raises.
        broken = parse("SELECT nosuch FROM phantom WHERE x = 1")
        assert loop._canonical_guard_key(broken)

    def test_repair_run_still_clean_end_to_end(self, patients):
        from repro.serving.repair import RepairPipeline

        loop = RepairPipeline(patients)
        report = loop.run(parse("SELECT name FROM patients WHERE age > 30"))
        assert report.sql == "SELECT name FROM patients WHERE age > 30"
        assert report.outcome != "abandoned"


class TestMonotonicClockDiscipline:
    def test_service_clocks_are_monotonic(self):
        # Budget/deadline arithmetic must never consult wall-clock
        # time; the self-lint test enforces this statically, this pins
        # the two live defaults.
        import inspect

        from repro.serving.cache import TranslationCache
        from repro.serving.repair import RepairPipeline

        assert (
            inspect.signature(TranslationCache.__init__)
            .parameters["clock"]
            .default
            is time.monotonic
        )
        assert (
            inspect.signature(RepairPipeline.__init__)
            .parameters["clock"]
            .default
            is time.monotonic
        )
