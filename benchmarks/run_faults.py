"""Fault-tolerance benchmark — writes ``BENCH_faults.json``.

Measures what the crash-safety layer costs and what it buys, in four
arms over identical synthesis work (same seed → same corpus bytes):

* ``plain``        — the streaming path: ``generate_stream`` into an
  atomic ``save_jsonl``.  It runs shards on the same runner as the
  checkpointed arm and skips only the manifest and its commits.  The
  baseline the ≤5% checkpointing-overhead target is judged against (the
  same arm ``BENCH_synthesis.json`` measures as
  ``sequential``/``parallel``).
* ``checkpointed`` — :func:`generate_checkpointed`: per-shard commit
  protocol (flush + fsync + atomic manifest rename) and the resilient
  executor, no faults injected.

  After one untimed warm-up run, the two arms run as
  :data:`OVERHEAD_RUNS` back-to-back pairs, the first arm alternating,
  and the overhead is the median of the pairs' time ratios: one run of
  each spreads ±15–30% on a shared 1–2 core machine, far more than the
  target.
* ``recovery``     — a run interrupted at a shard boundary (injected
  :data:`~repro.core.faults.INTERRUPT` fault) and then resumed;
  measures recovery latency (wall-clock of the resumed leg) and
  asserts the spliced file is byte-identical to ``checkpointed``.
* ``quarantine``   — one poisoned template (persistent injected crash):
  the run must complete anyway, with the failure named in the report.

Usage::

    PYTHONPATH=src python benchmarks/run_faults.py [--profile full]
        [--workers 0] [--smoke] [--output BENCH_faults.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.core import (
    FaultPlan,
    FaultSpec,
    GenerationConfig,
    ResilienceConfig,
    TrainingPipeline,
)
from repro.core import faults as fault_kinds
from repro.core.checkpoint import STATUS_QUARANTINE, manifest_path_for
from repro.core.corpus_io import save_jsonl
from repro.core.seed_templates import SEED_TEMPLATES
from repro.errors import GracefulExit
from repro.perf import PerfRecorder
from repro.schema import load_schema

#: Arm parameters per profile (smoke = tiny but exercises every arm).
PROFILES = {
    "smoke": {"size_slotfills": 2, "schemas": ("patients",), "templates": 8},
    "fast": {"size_slotfills": 6, "schemas": ("patients", "geography"), "templates": None},
    "full": {
        "size_slotfills": 16,
        "schemas": ("patients", "geography", "retail", "flights"),
        "templates": None,
    },
}

SEED = 42
#: Plain/checkpointed pairs the overhead is judged from.
OVERHEAD_RUNS = 7


def _clear_global_caches() -> None:
    """Reset process-wide caches so each timed arm starts cold."""
    from repro.nlp.lemmatizer import lemmatize_token, lemmatize_word

    for cache in (lemmatize_word, lemmatize_token):
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()


def _pipeline(profile: dict) -> TrainingPipeline:
    schemas = [load_schema(name) for name in profile["schemas"]]
    templates = SEED_TEMPLATES
    if profile["templates"] is not None:
        templates = SEED_TEMPLATES[: profile["templates"]]
    config = GenerationConfig(size_slotfills=profile["size_slotfills"])
    return TrainingPipeline(schemas, config, templates=templates, seed=SEED)


def _arm_stats(seconds: float, pairs: int) -> dict:
    return {
        "seconds": round(seconds, 3),
        "pairs": pairs,
        "pairs_per_second": round(pairs / seconds, 1) if seconds > 0 else 0.0,
    }


def run_benchmark(profile_name: str, workers: int) -> dict:
    profile = PROFILES[profile_name]
    pipeline = _pipeline(profile)
    shard_count = pipeline._engine().shard_count
    resilience = ResilienceConfig(shard_timeout=120.0, backoff_base=0.01)
    modes: dict[str, dict] = {}

    with TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # -- plain (streaming write, no manifest) and checkpointed (no
        # faults), OVERHEAD_RUNS pairs with the first arm alternating.
        # The last checkpointed file is the reference the recovery arm
        # must reproduce.
        plain_out = tmp_path / "plain.jsonl"
        ckpt_out = tmp_path / "checkpointed.jsonl"

        def plain() -> float:
            _clear_global_caches()
            start = time.perf_counter()
            save_jsonl(
                (
                    pair
                    for batch in pipeline.generate_stream(workers=workers)
                    for pair in batch
                ),
                plain_out,
            )
            return time.perf_counter() - start

        def checkpointed() -> float:
            nonlocal recorder, report
            recorder = PerfRecorder()
            _clear_global_caches()
            start = time.perf_counter()
            report = pipeline.generate_checkpointed(
                ckpt_out,
                workers=workers,
                resilience=resilience,
                recorder=recorder,
            )
            return time.perf_counter() - start

        recorder = report = None
        plain()  # warm-up: the process's first run pays one-time costs
        runs: dict[str, list[float]] = {"plain": [], "checkpointed": []}
        for pair_index in range(OVERHEAD_RUNS):
            for path in (plain_out, ckpt_out, manifest_path_for(ckpt_out)):
                path.unlink(missing_ok=True)
            arms = (plain, checkpointed)
            for arm in arms if pair_index % 2 == 0 else reversed(arms):
                runs[arm.__name__].append(arm())
            assert plain_out.read_bytes() == ckpt_out.read_bytes(), (
                "checkpointed corpus diverged from the plain streaming write"
            )
        for mode, seconds in runs.items():
            modes[mode] = _arm_stats(statistics.median(seconds), report.new_pairs)
            modes[mode]["runs_seconds"] = [round(t, 3) for t in seconds]
        modes["checkpointed"]["status"] = report.status
        modes["checkpointed"]["stages"] = recorder.report()
        # Each pair ran back to back, so its ratio cancels the drift
        # between pairs that the two arms' own medians would carry.
        ratios = [c / p for p, c in zip(runs["plain"], runs["checkpointed"])]
        overhead_pct = round((statistics.median(ratios) - 1.0) * 100.0, 2)

        # -- recovery: interrupt at a shard boundary, then resume -------
        rec_out = tmp_path / "recovery.jsonl"
        interrupt_at = shard_count // 2
        plan = FaultPlan(
            (FaultSpec(fault_kinds.INTERRUPT, shard_index=interrupt_at),)
        )
        first_leg = PerfRecorder()
        start = time.perf_counter()
        try:
            pipeline.generate_checkpointed(
                rec_out,
                workers=workers,
                resilience=resilience,
                faults=plan,
                recorder=first_leg,
            )
            raise AssertionError("injected interrupt did not fire")
        except GracefulExit:
            pass
        interrupted_seconds = time.perf_counter() - start
        resumed_leg = PerfRecorder()
        start = time.perf_counter()
        resumed = pipeline.generate_checkpointed(
            rec_out,
            workers=workers,
            resume=True,
            resilience=resilience,
            recorder=resumed_leg,
        )
        recovery_seconds = time.perf_counter() - start
        first_leg.merge(resumed_leg)  # one logical run across both legs
        assert rec_out.read_bytes() == ckpt_out.read_bytes(), (
            "resumed corpus is not byte-identical to the uninterrupted run"
        )
        modes["recovery"] = {
            "interrupted_after_shards": interrupt_at + 1,
            "interrupted_seconds": round(interrupted_seconds, 3),
            "recovery_seconds": round(recovery_seconds, 3),
            "resumed_shards_skipped": resumed.resumed_shards,
            "pairs_total": resumed.pairs_written,
            "byte_identical": True,
            "stages": first_leg.report(),
        }

        # -- quarantine: one poisoned template never aborts the run -----
        poison_out = tmp_path / "quarantine.jsonl"
        poison_shard = min(3, shard_count - 1)
        plan = FaultPlan(
            (FaultSpec(fault_kinds.CRASH, shard_index=poison_shard, attempts=99),)
        )
        start = time.perf_counter()
        qreport = pipeline.generate_checkpointed(
            poison_out,
            workers=workers,
            resilience=ResilienceConfig(max_attempts=2, backoff_base=0.01),
            faults=plan,
        )
        assert qreport.status == STATUS_QUARANTINE, qreport.status
        assert len(qreport.quarantined) == 1
        failure = qreport.quarantined[0]
        modes["quarantine"] = {
            "seconds": round(time.perf_counter() - start, 3),
            "status": qreport.status,
            "completed_shards": qreport.completed_shards,
            "quarantined": [f.to_dict() for f in qreport.quarantined],
            "run_survived": True,
        }
        assert failure.schema_name and failure.template_id

    return {
        "benchmark": "fault_tolerance",
        "profile": profile_name,
        "seed": SEED,
        "workers": workers,
        "shard_count": shard_count,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "modes": modes,
        "overhead_runs": OVERHEAD_RUNS,
        "checkpoint_overhead_pct": overhead_pct,
        "overhead_target_pct": 5.0,
        "overhead_within_target": overhead_pct <= 5.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=("fast", "full"), default="full"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload exercising every arm (overrides --profile)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="synthesis workers per arm (0 = inline; identical output)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_faults.json"),
    )
    args = parser.parse_args(argv)
    profile = "smoke" if args.smoke else args.profile
    record = run_benchmark(profile, workers=args.workers)
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    for mode in ("plain", "checkpointed"):
        stats = record["modes"][mode]
        print(
            f"  {mode:<14} {stats['seconds']:>8.3f}s"
            f"  {stats['pairs_per_second']:>9.1f} pairs/s"
        )
    recovery = record["modes"]["recovery"]
    print(
        f"  recovery       interrupted after {recovery['interrupted_after_shards']}"
        f" shards, resumed in {recovery['recovery_seconds']:.3f}s"
        f" (skipped {recovery['resumed_shards_skipped']})"
    )
    quarantine = record["modes"]["quarantine"]
    failure = quarantine["quarantined"][0]
    print(
        f"  quarantine     run survived; [{failure['code']}] "
        f"schema={failure['schema']} template={failure['template_id']}"
    )
    print(
        f"  checkpoint overhead {record['checkpoint_overhead_pct']:+.2f}% "
        f"(target <= {record['overhead_target_pct']:.0f}%)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
