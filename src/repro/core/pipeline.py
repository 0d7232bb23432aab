"""The DBPal training pipeline: generate → augment → lemmatize (§2.2).

:class:`TrainingPipeline` is the package's headline API.  Given only
database schemas (plus the reusable seed templates and lexicons), it
synthesizes a training corpus and trains any *pluggable* translation
model on it — optionally mixed with existing manually curated pairs,
exactly as the paper's DBPal (Train) configuration augments Spider's
human-annotated training set.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import GenerationConfig
from repro.errors import E_LINT, GenerationError
from repro.core.parallel import SynthesisEngine
from repro.core.seed_templates import SEED_TEMPLATES
from repro.core.templates import SeedTemplate, TrainingPair
from repro.nlp.lemmatizer import lemmatize
from repro.nlp.ppdb import ParaphraseDatabase
from repro.schema.schema import Schema

logger = logging.getLogger("repro.analysis")


@dataclass
class TrainingCorpus:
    """An ordered, deduplicated collection of training pairs."""

    pairs: list[TrainingPair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def nl_texts(self) -> list[str]:
        return [p.nl for p in self.pairs]

    def sql_texts(self) -> list[str]:
        return [p.sql_text for p in self.pairs]

    def family_counts(self) -> dict[str, int]:
        """Training pairs per query family (for balance diagnostics)."""
        return dict(Counter(p.family.value for p in self.pairs))

    def augmentation_counts(self) -> dict[str, int]:
        """Training pairs per augmentation provenance."""
        return dict(Counter(p.augmentation for p in self.pairs))

    def merged_with(self, extra: Iterable[TrainingPair]) -> "TrainingCorpus":
        """This corpus plus ``extra`` pairs (deduplicated, order kept)."""
        seen = {p.key() for p in self.pairs}
        merged = list(self.pairs)
        for pair in extra:
            if pair.key() not in seen:
                seen.add(pair.key())
                merged.append(pair)
        return TrainingCorpus(merged)

    def subsample(self, n: int, seed: int = 0) -> "TrainingCorpus":
        """A uniform random subsample of at most ``n`` pairs."""
        if n >= len(self.pairs):
            return TrainingCorpus(list(self.pairs))
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self.pairs), size=n, replace=False)
        return TrainingCorpus([self.pairs[i] for i in sorted(idx)])

    def split(self, test_fraction: float, seed: int = 0):
        """Random (train, test) split — the §3.3 automatic test workload."""
        rng = np.random.default_rng(seed)
        indices = rng.permutation(len(self.pairs))
        cut = int(len(self.pairs) * (1.0 - test_fraction))
        train = TrainingCorpus([self.pairs[i] for i in sorted(indices[:cut])])
        test = TrainingCorpus([self.pairs[i] for i in sorted(indices[cut:])])
        return train, test


class TrainingPipeline:
    """Generate → augment → lemmatize, then train any pluggable model.

    Synthesis runs on the sharded :class:`SynthesisEngine`: the corpus
    is the order-stable merge of per-(schema, template) shards, each
    with its own ``SeedSequence``-derived RNG streams.  ``workers``
    selects the execution strategy only — ``0`` (default) runs the
    shard loop inline in this process, ``N > 0`` fans shards out over a
    process pool — and never changes the corpus: for a given seed and
    configuration every worker count produces bit-identical output.
    """

    def __init__(
        self,
        schemas: Schema | Sequence[Schema],
        config: GenerationConfig | None = None,
        templates: Sequence[SeedTemplate] = SEED_TEMPLATES,
        ppdb: ParaphraseDatabase | None = None,
        apply_lemmatizer: bool = True,
        seed: int = 0,
        pos_aware_dropout: bool = False,
        workers: int = 0,
        lint: bool = True,
    ) -> None:
        if isinstance(schemas, Schema):
            schemas = [schemas]
        self.schemas = list(schemas)
        self.config = config or GenerationConfig()
        self.templates = tuple(templates)
        self._ppdb = ppdb or ParaphraseDatabase()
        self._apply_lemmatizer = apply_lemmatizer
        self._seed = seed
        self._pos_aware_dropout = pos_aware_dropout
        self._workers = workers
        self._lint = lint

    # ------------------------------------------------------------------
    # Pre-generation lint gate
    # ------------------------------------------------------------------

    def lint_report(self):
        """The static-analysis report over this pipeline's inputs.

        Memoized per input fingerprint (see
        :func:`repro.analysis.lint_pipeline_inputs`), so repeated
        pipelines over the same schemas/templates pay once.
        """
        from repro.analysis import lint_pipeline_inputs

        return lint_pipeline_inputs(
            self.schemas, self.templates, config=self.config
        )

    def _lint_gate(self) -> None:
        """Refuse to generate from inputs with lint errors (fail fast).

        Errors abort before any shard is scheduled; warnings are logged
        and generation proceeds.  ``lint=False`` disables the gate.
        The gate never touches generation RNG streams, so it cannot
        change the corpus for inputs that pass.
        """
        if not self._lint:
            return
        report = self.lint_report()
        for diag in report.warnings:
            logger.warning("lint: %s", diag)
        errors = report.errors
        if errors:
            shown = "; ".join(str(d) for d in errors[:5])
            more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
            raise GenerationError(
                f"refusing to generate: {len(errors)} lint error(s): "
                f"{shown}{more}",
                code=E_LINT,
            )

    # ------------------------------------------------------------------
    # Corpus synthesis
    # ------------------------------------------------------------------

    def _engine(self) -> SynthesisEngine:
        return SynthesisEngine(
            self.schemas,
            self.config,
            self.templates,
            ppdb=self._ppdb,
            seed=self._seed,
            apply_lemmatizer=self._apply_lemmatizer,
            pos_aware_dropout=self._pos_aware_dropout,
        )

    def generate_stream(
        self, workers: int | None = None, recorder=None
    ) -> Iterator[list[TrainingPair]]:
        """Stream the corpus as globally deduplicated per-shard batches.

        Batches arrive in the canonical corpus order, so writing them
        as they come (see :func:`repro.core.corpus_io.save_jsonl`)
        produces the same file as materializing the whole corpus first —
        without holding more than one shard's pairs at a time on the
        consumer side.  ``workers=None`` uses the pipeline's configured
        worker count; ``recorder`` is an optional
        :class:`repro.perf.PerfRecorder` fed per-stage timings.
        """
        self._lint_gate()
        effective = self._workers if workers is None else workers
        return self._engine().iter_batches(workers=effective, recorder=recorder)

    def generate(
        self, workers: int | None = None, recorder=None
    ) -> TrainingCorpus:
        """Run the three pipeline stages and return the corpus."""
        pairs: list[TrainingPair] = []
        for batch in self.generate_stream(workers=workers, recorder=recorder):
            pairs.extend(batch)
        return TrainingCorpus(pairs)

    def generate_checkpointed(
        self,
        output,
        fmt: str = "jsonl",
        workers: int | None = None,
        resume: bool = False,
        resilience=None,
        faults=None,
        recorder=None,
        on_batch=None,
        flush_every: int = 0,
    ):
        """Crash-safe synthesis straight to ``output`` with a manifest.

        The fault-tolerant counterpart of streaming
        :meth:`generate_stream` into :func:`repro.core.corpus_io.save_jsonl`:
        shards are committed to the file in canonical order alongside a
        ``<output-stem>.manifest.json`` progress manifest, crashed or
        hung shards are retried and eventually quarantined instead of
        killing the run, and ``resume=True`` skips already-committed
        shards, producing a file bit-identical to an uninterrupted run.
        Returns a :class:`repro.core.checkpoint.GenerationReport`.
        """
        from repro.core.checkpoint import generate_checkpointed
        from repro.core.faults import NO_FAULTS

        self._lint_gate()
        effective = self._workers if workers is None else workers
        return generate_checkpointed(
            self._engine(),
            output,
            fmt=fmt,
            workers=effective,
            resume=resume,
            resilience=resilience,
            faults=faults or NO_FAULTS,
            recorder=recorder,
            on_batch=on_batch,
            flush_every=flush_every,
        )

    # ------------------------------------------------------------------
    # Pluggable model training
    # ------------------------------------------------------------------

    def train(self, model, manual_pairs: Iterable[TrainingPair] = (), **fit_kwargs):
        """Synthesize a corpus and fit ``model`` on it.

        ``model`` may be any object with a
        ``fit(pairs: list[TrainingPair], **kwargs)`` method — this is
        the paper's pluggability contract.  ``manual_pairs`` mixes in
        existing manually curated training data (§1: "such data can
        still be used to complement our proposed data generation
        pipeline"); manual pairs are lemmatized like generated ones.
        """
        corpus = self.generate()
        manual = [
            pair.with_nl(
                lemmatize(pair.nl) if self._apply_lemmatizer else pair.nl,
                pair.augmentation,
            )
            for pair in manual_pairs
        ]
        corpus = corpus.merged_with(manual)
        model.fit(corpus.pairs, **fit_kwargs)
        return corpus
