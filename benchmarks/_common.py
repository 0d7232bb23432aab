"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench trains the same class of model — a cross-domain,
grammar-constrained seq2seq (the SyntaxSQLNet stand-in) — under one of
the paper's three training configurations (§6.1.2):

* ``baseline``     — the human-annotated (Spider-substitute) training
  set only;
* ``dbpal_train``  — baseline + DBPal synthesis over the *training*
  schemas;
* ``dbpal_full``   — baseline + DBPal synthesis over training *and*
  test schemas (schemas only — never test NL-SQL pairs).

Scale profile: ``REPRO_PROFILE=fast`` (default) keeps corpora and
epochs small enough for a laptop run of the full suite;
``REPRO_PROFILE=full`` scales everything up for tighter numbers.
Models are trained once per configuration and cached for the whole
pytest session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bench import spider_schemas, spider_train_pairs
from repro.core import GenerationConfig, TrainingPipeline
from repro.neural import CrossDomainModel, SyntaxAwareModel
from repro.schema import patients_schema

PROFILE = os.environ.get("REPRO_PROFILE", "fast")

#: Below this many rows, columnar-vs-row speedup ratios measure
#: per-query constant factors (numpy setup, plan dispatch), not the
#: kernels — the same reason PR 1 gated parallel-synthesis speedup
#: assertions on ``cpu_count``.  Benchmarks at smaller scales assert
#: only the ``identical`` property.
SPEEDUP_MIN_ROWS = 2000


def speedup_assertable(
    rows: int | None = None,
    min_rows: int = SPEEDUP_MIN_ROWS,
    cores: int | None = None,
) -> bool:
    """Whether a speedup-ratio assertion is meaningful on this run.

    Guard benchmark assertions with this instead of hard-failing runs
    where the ratio cannot physically materialize; the bit-identity
    property is asserted unconditionally either way.  Two independent
    gates, both optional:

    * ``rows`` — below ``min_rows`` the ratio measures per-query
      constant factors (numpy setup, plan dispatch), not the kernels;
    * ``cores`` — process-level scale-out (parallel synthesis, the
      sharded serving tier) needs at least this many cores before a
      >1x sustained-rate ratio is expected; a 1-core CI runner time-
      slices the shards and measures scheduling overhead instead.
    """
    if rows is not None and rows < min_rows:
        return False
    if cores is not None and (os.cpu_count() or 1) < cores:
        return False
    return True


@dataclass(frozen=True)
class Profile:
    spider_pairs_per_schema: int
    synth_size_slotfills: int
    corpus_cap: int
    patients_corpus_cap: int
    embed_dim: int
    hidden_dim: int
    step_budget: int  # epochs are chosen so steps ~ step_budget
    search_trials: int  # Figure 4 random-search trials
    test_items_per_schema: int


PROFILES = {
    "fast": Profile(
        spider_pairs_per_schema=150,
        synth_size_slotfills=6,
        corpus_cap=6000,
        patients_corpus_cap=4000,
        embed_dim=48,
        hidden_dim=96,
        step_budget=25_000,
        search_trials=8,
        test_items_per_schema=24,
    ),
    "full": Profile(
        spider_pairs_per_schema=400,
        synth_size_slotfills=16,
        corpus_cap=20_000,
        patients_corpus_cap=12_000,
        embed_dim=64,
        hidden_dim=128,
        step_budget=80_000,
        search_trials=20,
        test_items_per_schema=40,
    ),
}

CURRENT = PROFILES.get(PROFILE, PROFILES["fast"])

CONFIGURATIONS = ("baseline", "dbpal_train", "dbpal_full")

#: Display names matching the paper's tables.
CONFIGURATION_LABELS = {
    "baseline": "SyntaxSQLNet",
    "dbpal_train": "DBPal (Train)",
    "dbpal_full": "DBPal (Full)",
}

_CACHE: dict[str, object] = {}


def epochs_for(corpus_size: int) -> int:
    """Scale epochs so every configuration trains to rough convergence."""
    if corpus_size <= 0:
        return 1
    return max(5, min(40, CURRENT.step_budget // corpus_size))


def new_model(corpus_size: int, seed: int = 1, default_schema=None):
    """A fresh SyntaxSQLNet stand-in sized for ``corpus_size``."""
    train, test = spider_schemas()
    return CrossDomainModel(
        SyntaxAwareModel(
            embed_dim=CURRENT.embed_dim,
            hidden_dim=CURRENT.hidden_dim,
            epochs=epochs_for(corpus_size),
            batch_size=64,
            seed=seed,
        ),
        train + test + [patients_schema()],
        default_schema=default_schema,
    )


def manual_spider_pairs():
    """The human-annotated training set (lemmatized once, cached)."""
    if "spider" not in _CACHE:
        raw = spider_train_pairs(
            pairs_per_schema=CURRENT.spider_pairs_per_schema, seed=100
        )
        _CACHE["spider"] = [p.lemmatized() for p in raw]
    return _CACHE["spider"]


def synth_corpus(schemas, cap: int, seed: int = 10, config: GenerationConfig | None = None):
    """DBPal synthesis over ``schemas`` (cached by schema-name key)."""
    key = ("synth", tuple(s.name for s in schemas), cap, seed, config)
    if key not in _CACHE:
        pipeline = TrainingPipeline(
            schemas,
            config or GenerationConfig(size_slotfills=CURRENT.synth_size_slotfills),
            seed=seed,
        )
        _CACHE[key] = pipeline.generate().subsample(cap, seed=seed)
    return _CACHE[key]


def training_pairs_for(configuration: str, include_patients: bool = False):
    """Assemble the training pairs of one paper configuration.

    ``include_patients`` adds the Patients schema to the "test schema"
    pool, which is what DBPal (Full) means for the Table 3 evaluation.
    """
    spider = list(manual_spider_pairs())
    train_schemas, test_schemas = spider_schemas()
    if configuration == "baseline":
        return spider
    if configuration == "dbpal_train":
        corpus = synth_corpus(train_schemas, CURRENT.corpus_cap)
        return spider + corpus.pairs
    if configuration == "dbpal_full":
        # "Full" adds the *target* (test) schemas: the Spider test
        # schemas for the Spider evaluation, the Patients schema for
        # the Patients evaluation (§6.1.2, §6.2.2).
        if include_patients:
            pool = train_schemas + [patients_schema()]
        else:
            pool = train_schemas + test_schemas
        # Scale the cap with the schema pool so per-schema coverage
        # matches the dbpal_train configuration.
        cap = int(CURRENT.corpus_cap * len(pool) / len(train_schemas))
        corpus = synth_corpus(pool, cap)
        return spider + corpus.pairs
    raise ValueError(f"unknown configuration {configuration!r}")


def trained_model(configuration: str, include_patients: bool = False):
    """Train (or fetch from cache) the model of one configuration."""
    key = ("model", configuration, include_patients)
    if key not in _CACHE:
        pairs = training_pairs_for(configuration, include_patients)
        model = new_model(len(pairs))
        model.fit(pairs)
        _CACHE[key] = model
    return _CACHE[key]


def schemas_by_name():
    train_schemas, test_schemas = spider_schemas()
    mapping = {s.name: s for s in train_schemas + test_schemas}
    patients = patients_schema()
    mapping[patients.name] = patients
    return mapping
