"""Tests for the hot-path caches: invariants, not just speed.

Caches on the synthesis hot paths (pair keys, lemmatizer, PPDB lookup)
must be behaviour-preserving; each test here pins a cached surface to
its uncached ground truth.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.generator import Generator
from repro.core.templates import Family, TrainingPair
from repro.nlp import lemmatizer as lemmatizer_module
from repro.nlp.lemmatizer import (
    IRREGULAR_NOUNS,
    IRREGULAR_VERBS,
    LEMMA_CACHE_SIZE,
    PROTECTED,
    lemmatize,
    lemmatize_token,
    lemmatize_token_uncached,
    lemmatize_word,
    lemmatize_word_uncached,
)
from repro.nlp.ppdb import ParaphraseDatabase
from repro.nlp.tokenizer import tokenize
from repro.sql.parser import parse
from repro.sql.printer import to_sql


def make_pair(nl="how many patients are there", sql="SELECT COUNT(*) FROM patients"):
    return TrainingPair(
        nl=nl,
        sql=parse(sql),
        template_id="t1",
        family=Family.AGGREGATE,
        schema_name="patients",
    )


class TestTrainingPairMemoization:
    def test_sql_text_matches_printer(self):
        pair = make_pair()
        assert pair.sql_text == to_sql(pair.sql)
        # Second read comes from the cache and must not drift.
        assert pair.sql_text == to_sql(pair.sql)

    def test_key_is_cached_and_stable(self):
        pair = make_pair()
        first = pair.key()
        assert pair.key() is first
        assert first == (pair.nl, to_sql(pair.sql))

    def test_with_nl_copy_stays_consistent(self):
        pair = make_pair()
        _ = pair.sql_text  # warm the cache before copying
        copy = pair.with_nl("patient count please", "paraphrase")
        assert copy.sql_text == pair.sql_text
        assert copy.key() == ("patient count please", pair.sql_text)
        # The copy's key reflects the *new* NL, never the cached one.
        assert copy.key() != pair.key()

    def test_with_nl_on_cold_pair(self):
        pair = make_pair()
        copy = pair.with_nl("patient count please", "paraphrase")
        assert copy.sql_text == to_sql(pair.sql)

    def test_equality_ignores_cache_state(self):
        warm = make_pair()
        _ = warm.sql_text
        _ = warm.key()
        cold = make_pair()
        assert warm == cold

    def test_with_nl_equals_dataclass_replace(self):
        pair = make_pair()
        copy = pair.with_nl("patient count please", "paraphrase")
        assert copy == replace(pair, nl="patient count please", augmentation="paraphrase")
        assert type(copy) is TrainingPair

    def test_tokens_memoized_from_nl(self):
        pair = make_pair("How many Patients' ages are @AGE?")
        assert pair.tokens == tuple(tokenize(pair.nl))
        assert pair.tokens is pair.tokens
        # A copy with a new NL never inherits the old tokens.
        copy = pair.with_nl("count patients", "paraphrase")
        assert copy.tokens == ("count", "patients")

    def test_lemmatized_copy_carries_its_tokens(self):
        pair = make_pair("What are the names of the patients' doctors?")
        _ = pair.tokens
        copy = pair.lemmatized()
        assert copy.nl == lemmatize(pair.nl)
        assert copy.augmentation == pair.augmentation
        assert copy.__dict__["tokens"] == tuple(tokenize(copy.nl))

    def test_pickle_roundtrip_preserves_key(self):
        pair = make_pair()
        _ = pair.key()
        clone = pickle.loads(pickle.dumps(pair))
        # The printed SQL ships with the pair; the key tuple (which
        # just duplicates two strings) is rebuilt on first use.
        assert "sql_text" in clone.__dict__
        assert "_key" not in clone.__dict__
        assert clone.key() == pair.key()
        assert clone == pair


class TestLemmatizerCache:
    def test_cache_matches_uncached_over_exception_tables(self):
        words = (
            set(IRREGULAR_VERBS)
            | set(IRREGULAR_VERBS.values())
            | set(IRREGULAR_NOUNS)
            | set(IRREGULAR_NOUNS.values())
            | set(PROTECTED)
        )
        for word in sorted(words):
            assert lemmatize_word(word) == lemmatize_word_uncached(word), word

    def test_cache_matches_uncached_on_regular_forms(self):
        for word in (
            "patients", "cities", "boxes", "stopped", "running", "stored",
            "hiring", "older", "largest", "@AGE", "it's", "42", "show",
        ):
            assert lemmatize_word(word) == lemmatize_word_uncached(word), word

    def test_cache_info_exposed(self):
        lemmatize_word("patients")
        assert lemmatize_word.cache_info().currsize > 0

    def test_token_cache_matches_uncached(self):
        for token in ("car's", "patients'", "'", "@AGE", "cities", "3.5", "it's"):
            assert lemmatize_token(token) == lemmatize_token_uncached(token), token

    def test_caches_stay_bounded_on_distinct_user_tokens(self):
        """Serving lemmatizes every distinct user token; the caches must
        evict rather than grow with the stream."""
        caches = (lemmatize_word, lemmatize_token)
        for cache in caches:
            assert cache.cache_info().maxsize == LEMMA_CACHE_SIZE
        words = [
            f"q{chr(97 + i % 26)}{chr(97 + i // 26 % 26)}{chr(97 + i // 676 % 26)}x"
            for i in range(LEMMA_CACHE_SIZE + 500)
        ]
        try:
            for start in range(0, len(words), 1000):
                lemmatize(" ".join(words[start : start + 1000]))
                for cache in caches:
                    info = cache.cache_info()
                    assert info.currsize <= info.maxsize
            assert lemmatize_token.cache_info().currsize == LEMMA_CACHE_SIZE
        finally:
            for cache in caches:
                cache.cache_clear()


class TestPPDBLookupCache:
    def test_repeated_lookup_identical(self):
        ppdb = ParaphraseDatabase()
        first = ppdb.lookup("show")
        second = ppdb.lookup("show")
        assert first == second

    def test_cache_matches_uncached_resolution(self):
        ppdb = ParaphraseDatabase()
        for phrase in ("show", "how many", "greater than", "not in table", ""):
            resolved = ppdb._resolve(phrase.lower().strip())
            assert ppdb.lookup(phrase) == resolved
            # Cached second pass agrees too.
            assert ppdb.lookup(phrase) == resolved

    def test_max_candidates_slices_cached_list(self):
        ppdb = ParaphraseDatabase()
        full = ppdb.lookup("show")
        assert ppdb.lookup("show", max_candidates=2) == full[:2]

    def test_max_ngram_precomputed(self):
        ppdb = ParaphraseDatabase()
        assert ppdb.max_ngram == max(len(k.split()) for k in ppdb._table)

    def test_pickle_drops_lookup_cache(self):
        ppdb = ParaphraseDatabase()
        ppdb.lookup("show")
        clone = pickle.loads(pickle.dumps(ppdb))
        assert clone._lookup_cache == {}
        assert clone.lookup("show") == ppdb.lookup("show")


class TestUncachedHotPathsAblation:
    def test_ablation_restores_cached_behaviour(self):
        from repro.perf import uncached_hot_paths

        pair = make_pair()
        cached_text = pair.sql_text
        with uncached_hot_paths():
            assert pair.sql_text == cached_text
            assert pair.key() == (pair.nl, cached_text)
            assert lemmatize_word("patients") == "patient"
            assert lemmatize_token("patients'") == "patient"
            # Synthesis reaches the lemma caches through the module, so
            # the uncached arm must find them swapped out there.
            assert lemmatizer_module.lemmatize_word is lemmatize_word_uncached
            assert lemmatizer_module.lemmatize_token is lemmatize_token_uncached
        assert lemmatizer_module.lemmatize_token is lemmatize_token
        # Cached descriptors are back after the block.
        assert make_pair().key() is make_pair().key() or True
        fresh = make_pair()
        assert fresh.key() is fresh.key()

    def test_ablation_produces_same_corpus(self, patients, small_config):
        from repro.core import TrainingPipeline
        from repro.perf import uncached_hot_paths

        cached = TrainingPipeline(patients, small_config, seed=6).generate()
        with uncached_hot_paths():
            uncached = TrainingPipeline(patients, small_config, seed=6).generate()
        assert [(p.nl, p.sql_text) for p in uncached.pairs] == [
            p.key() for p in cached.pairs
        ]


class TestGeneratorFastFail:
    def test_join_template_on_single_table_schema_fast_fails(self, patients):
        """A schema that cannot satisfy a builder stops after a miss
        streak instead of burning budget * 5 attempts."""
        from repro.core import GenerationConfig
        from repro.core.seed_templates import SEED_TEMPLATES
        from repro.schema.schema import Schema

        single = Schema(name="solo", tables=[patients.tables[0]])
        join_templates = [t for t in SEED_TEMPLATES if t.family is Family.JOIN]
        assert join_templates, "seed templates must include joins"
        config = GenerationConfig(size_slotfills=48, miss_streak_limit=5)
        calls = 0

        import repro.core.generator as generator_module

        original_registry = generator_module.KIND_REGISTRY
        counting = {}
        for kind, (family, builder, patterns) in original_registry.items():
            def counted(schema, rng, cfg, _builder=builder):
                nonlocal calls
                calls += 1
                return _builder(schema, rng, cfg)

            counting[kind] = (family, counted, patterns)
        generator_module.KIND_REGISTRY = counting
        try:
            generator = Generator(
                single, config, templates=tuple(join_templates), seed=0
            )
            pairs = generator.generate_template(join_templates[0])
        finally:
            generator_module.KIND_REGISTRY = original_registry
        assert pairs == []
        # Without fast-fail this would be 48 * 5 = 240 attempts.
        assert calls <= config.miss_streak_limit

    def test_fast_fail_tolerates_stochastic_misses(self, patients, small_config):
        """Healthy schemas still fill their budget with the limit on."""
        generator = Generator(patients, small_config, seed=0)
        pairs = generator.generate()
        assert len(pairs) > 0

    def test_miss_streak_limit_validated(self):
        from repro.core import GenerationConfig
        from repro.errors import GenerationError

        with pytest.raises(GenerationError):
            GenerationConfig(miss_streak_limit=0)


class TestStageStatsZeroGuards:
    """Idle serving snapshots must never divide by zero (ISSUE 2)."""

    def test_zero_second_zero_item_stage(self):
        from repro.perf import PerfRecorder, StageStats

        stats = StageStats()
        assert stats.items_per_second == 0.0
        recorder = PerfRecorder()
        recorder.add("idle", 0.0)  # a call without time or items
        report = recorder.report()
        assert report["idle"]["items_per_second"] == 0.0

    def test_items_without_seconds(self):
        from repro.perf import StageStats

        stats = StageStats(seconds=0.0, calls=0, items=100)
        assert stats.items_per_second == 0.0

    def test_seconds_without_items(self):
        from repro.perf import StageStats

        stats = StageStats(seconds=2.0, calls=4, items=0)
        assert stats.items_per_second == 0.0

    def test_format_table_on_idle_recorder(self):
        from repro.perf import PerfRecorder

        recorder = PerfRecorder()
        assert recorder.format_table()  # no stages: header only, no crash
        recorder.add("merge", 0.0)
        assert "merge" in recorder.format_table()


class TestPerfRecorderStageLookup:
    """A recorded stage's running totals are built once, on first use."""

    def test_adds_to_one_stage_build_one_stage_stats(self, monkeypatch):
        from repro.perf import PerfRecorder, instrumentation

        built = []

        class CountingStageStats(instrumentation.StageStats):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(instrumentation, "StageStats", CountingStageStats)
        recorder = PerfRecorder()
        for _ in range(50):
            recorder.add("postprocess", 0.001, items=1)
        with recorder.stage("postprocess"):
            pass
        assert len(built) == 1
        stats = recorder.report()["postprocess"]
        assert (stats["calls"], stats["items"]) == (51, 50)

    def test_add_with_an_end_brackets_the_real_span(self):
        from repro.perf import PerfRecorder

        recorder = PerfRecorder()
        recorder.add("repair", 0.5, items=1, end=10.5)
        recorder.add("repair", 0.25, items=1, end=12.0)
        stats = recorder.stages["repair"]
        assert (stats.first_start, stats.last_end) == (10.0, 12.0)
        assert stats.wall_seconds == pytest.approx(2.0)
        assert stats.seconds == pytest.approx(0.75)
