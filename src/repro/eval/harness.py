"""The evaluation harness: run a model over a workload, break down accuracy.

Produces the numbers behind every table of §6: overall accuracy,
per-difficulty (Table 2), per-linguistic-category (Table 3), and raw
per-item records for the pattern-coverage analysis (Table 4).

The harness optionally routes model output through the runtime
post-processor (JOIN expansion + FROM repair) before comparison — the
paper's system always does; ablating it quantifies the repair step's
contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bench.workloads import Workload, WorkloadItem
from repro.eval.metrics import exact_match, semantic_match
from repro.nlp.lemmatizer import lemmatize
from repro.perf.instrumentation import PerfRecorder
from repro.runtime.postprocess import PostProcessor
from repro.schema.schema import Schema
from repro.sql.difficulty import DIFFICULTY_ORDER, Difficulty

if TYPE_CHECKING:
    from repro.analysis.equivalence import EquivalenceOracle


@dataclass
class ItemResult:
    """Evaluation record for one workload item.

    ``correct`` scores the workload's configured metric; ``semantic``
    is always additionally reported (canonical-form equivalence, plus
    probe-certified execution agreement when an oracle was passed).
    ``semantic >= correct`` holds when the metric is ``"exact"`` —
    canonicalization subsumes normalization.
    """

    item: WorkloadItem
    prediction: str | None
    correct: bool
    semantic: bool = False


@dataclass
class EvalResult:
    """Accuracy breakdowns over one workload."""

    workload_name: str
    records: list[ItemResult] = field(default_factory=list)
    #: Harness stage timings (translate/postprocess/score) plus, for
    #: execution-match scoring, the oracle's executor stage timings
    #: (scan/join/group/sort) and result-cache counters.
    perf: dict = field(default_factory=dict)
    #: Static-analysis summary over the evaluated schemas (filled when
    #: ``evaluate(..., lint=True)``): finding counts, per-code tallies,
    #: and the rendered diagnostics.  Empty dict when lint was off.
    lint: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def accuracy(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def semantic_accuracy(self) -> float:
        """Accuracy under the ``semantic_match`` column."""
        if not self.records:
            return 0.0
        return sum(r.semantic for r in self.records) / len(self.records)

    def accuracy_where(self, predicate) -> float:
        subset = [r for r in self.records if predicate(r.item)]
        if not subset:
            return float("nan")
        return sum(r.correct for r in subset) / len(subset)

    def by_difficulty(self) -> dict[Difficulty, float]:
        return {
            d: self.accuracy_where(lambda item, d=d: item.difficulty is d)
            for d in DIFFICULTY_ORDER
        }

    def by_category(self) -> dict[str, float]:
        categories: list[str] = []
        for record in self.records:
            if record.item.category and record.item.category not in categories:
                categories.append(record.item.category)
        return {
            c: self.accuracy_where(lambda item, c=c: item.category == c)
            for c in categories
        }

    def failures(self, limit: int | None = None) -> list[ItemResult]:
        failed = [r for r in self.records if not r.correct]
        return failed[:limit] if limit is not None else failed

    def summary(self) -> str:
        """Accuracy plus per-stage timings, as a small text report."""
        lines = [
            f"{self.workload_name}: {len(self.records)} items, "
            f"accuracy {self.accuracy:.3f} "
            f"(semantic {self.semantic_accuracy:.3f})"
        ]
        stages = dict(self.perf.get("stages", {}))
        stages.update(
            {f"exec/{k}": v for k, v in self.perf.get("executor", {}).items()}
        )
        if stages:
            width = max(len(name) for name in stages)
            for name, stats in stages.items():
                lines.append(
                    f"  {name:<{width}}  {stats['seconds']:>8.3f}s"
                    f"  x{stats['calls']}"
                )
        cache = self.perf.get("executor_cache")
        if cache:
            lines.append(
                f"  gold/result cache: {cache['cache_hits']} hits / "
                f"{cache['cache_misses']} misses "
                f"({cache['cache_hit_rate']:.1%} hit rate)"
            )
        if self.lint:
            lines.append(
                f"  lint: {self.lint['errors']} error(s), "
                f"{self.lint['warnings']} warning(s) over "
                f"{self.lint['schemas']} schema(s)"
            )
        return "\n".join(lines)


def evaluate(
    model,
    workload: Workload,
    metric: str = "exact",
    oracle: EquivalenceOracle | None = None,
    schemas: dict[str, Schema] | None = None,
    postprocess: bool = True,
    lint: bool = False,
) -> EvalResult:
    """Evaluate ``model`` on ``workload``.

    ``metric`` is ``"exact"`` (Spider protocol) or ``"semantic"``
    (Patients protocol, needs an ``oracle`` for execution-based
    equivalence; see :func:`~repro.eval.metrics.semantic_match`).
    ``schemas`` enables post-processing repair per item schema; items
    whose schema is missing skip repair.  ``lint=True``
    additionally runs the static analyzer over ``schemas`` and the
    shipped seed templates, attaching the summary to
    :attr:`EvalResult.lint` — accuracy numbers for inputs that fail
    lint should not be trusted.
    """
    if metric not in ("exact", "semantic"):
        raise ValueError(f"unknown metric {metric!r}")
    postprocessors: dict[str, PostProcessor] = {}
    if postprocess and schemas:
        postprocessors = {
            name: PostProcessor(schema) for name, schema in schemas.items()
        }
    recorder = PerfRecorder()
    result = EvalResult(workload_name=workload.name)
    for item in workload:
        # Mirror the runtime pre-processing: benchmark NL is already
        # anonymized, but must still be lemmatized before translation.
        # Cross-domain models additionally receive the item's schema.
        schema = (schemas or {}).get(item.schema_name)
        with recorder.stage("translate"):
            if schema is not None:
                raw = model.translate_for_schema(lemmatize(item.nl), schema)
            else:
                raw = model.translate(lemmatize(item.nl))
        prediction: str | None = raw
        gold: object = item.sql
        post = postprocessors.get(item.schema_name)
        if post is not None:
            with recorder.stage("postprocess"):
                processed = post.process(raw)
                if processed is not None:
                    prediction = processed.sql
                # Gold queries may use the @JOIN form too; run them
                # through the same repair so both sides are in
                # executable form.
                gold_processed = post.process(item.sql_text)
                if gold_processed is not None:
                    gold = gold_processed.query
        with recorder.stage("score"):
            semantic = semantic_match(prediction, gold, oracle, schema=schema)
            if metric == "exact":
                correct = exact_match(prediction, gold)
            else:
                correct = semantic
        result.records.append(
            ItemResult(
                item=item,
                prediction=prediction,
                correct=correct,
                semantic=semantic,
            )
        )
    result.perf = {"stages": recorder.report()}
    if oracle is not None and metric == "semantic":
        # Execution-match scoring runs through the oracle's planned,
        # cached executor sessions; surface its stage timings too.
        oracle_report = oracle.perf_report()
        result.perf["executor"] = oracle_report["stages"]
        result.perf["executor_cache"] = {
            k: v for k, v in oracle_report.items() if k != "stages"
        }
    if lint and schemas:
        from repro.analysis import lint_pipeline_inputs
        from repro.core.seed_templates import SEED_TEMPLATES

        report = lint_pipeline_inputs(list(schemas.values()), SEED_TEMPLATES)
        result.lint = {
            **report.counts(),
            "schemas": len(schemas),
            "by_code": report.by_code(),
            "diagnostics": [d.to_dict() for d in report.sorted()],
        }
    return result
