"""Serving throughput benchmark — writes ``BENCH_serving.json``.

Measures the online query path under a realistic repeated-question
workload (distinct constants, shared anonymized shapes) in three arms
over the *same* fitted model and database:

* ``naive``          — the PR-1 runtime: a sequential
  ``DBPal.translate`` loop, one model call per question;
* ``serving_closed`` — closed-loop load through
  :class:`repro.serving.TranslationService`: C client threads, each
  issuing its next question as soon as the previous answers (measures
  sustainable throughput with caching + micro-batching + coalescing);
* ``serving_open``   — open-loop load: requests dispatched on a fixed
  arrival schedule regardless of completions (measures latency under a
  target offered rate, the millions-of-users shape);
* ``sharded_open``   — the same open-loop workload against
  :class:`repro.serving.ShardedService` at 1, 2, and 4 replicas (the
  scale-out ladder): sustained rate and p99 per replica count, plus a
  bit-identity check of every response payload against a sequential
  single-process reference and a zero-duplicate audit of the shard
  caches.  Scaling ratios only mean anything with as many cores as
  replicas (see ``_common.speedup_assertable``); the identity and
  exclusivity properties are asserted at any scale.

The serving arms share one anonymization-keyed translation cache, so
their steady-state cost per question is preprocess + cache hit +
postprocess — the model is consulted once per distinct question
*shape*.  The acceptance bar (ISSUE 2): cached/batched serving ≥ 2×
the naive loop on the same workload.

Usage::

    PYTHONPATH=src python benchmarks/run_serving.py [--smoke]
        [--requests 600] [--clients 8] [--output BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
from pathlib import Path

from dataclasses import replace

from repro.core import GenerationConfig
from repro.db import populate
from repro.neural import RetrievalModel
from repro.runtime import DBPal
from repro.schema import load_schema
from repro.serving import (
    ServingConfig,
    ShardSpec,
    ShardedConfig,
    ShardedService,
    TranslationService,
)

#: Question shapes; ``{}`` slots are filled with constants drawn from
#: the populated database, so anonymization maps them onto shared keys.
TEMPLATES = (
    "show me the names of all patients with age {age}",
    "how many patients have age {age}",
    "show me all patients with length of stay {los}",
    "what is the average age of all patients",
    "how many patients are there",
    "what is the maximum length of stay of all patients",
)

SEED = 42


def build_workload(database, requests: int) -> list[str]:
    """Deterministic question list cycling templates × DB constants."""
    import numpy as np

    ages = sorted(set(database.column_values("patients", "age")))
    stays = sorted(set(database.column_values("patients", "length_of_stay")))
    rng = np.random.default_rng(SEED)
    questions = []
    for index in range(requests):
        template = TEMPLATES[index % len(TEMPLATES)]
        questions.append(
            template.format(
                age=ages[int(rng.integers(len(ages)))],
                los=stays[int(rng.integers(len(stays)))],
            )
        )
    return questions


def build_nlidb(size_slotfills: int) -> DBPal:
    """Patients DB + retrieval translator (deterministic, instant fit)."""
    schema = load_schema("patients")
    database = populate(schema, rows_per_table=40, seed=3)
    nlidb = DBPal(database)
    nlidb.train(
        RetrievalModel(),
        config=GenerationConfig(size_slotfills=size_slotfills),
        seed=SEED,
    )
    return nlidb


def run_naive(nlidb: DBPal, questions: list[str]) -> dict:
    """Sequential one-at-a-time DBPal.translate loop (the baseline)."""
    ok = 0
    start = time.perf_counter()
    for question in questions:
        if nlidb.translate(question).ok:
            ok += 1
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 3),
        "requests": len(questions),
        "ok": ok,
        "qps": round(len(questions) / seconds, 1) if seconds > 0 else 0.0,
    }


def _drain(service: TranslationService, questions: list[str], clients: int) -> int:
    """Closed-loop: ``clients`` threads pull questions off one iterator."""
    iterator = iter(questions)
    lock = threading.Lock()
    ok = [0]

    def client() -> None:
        while True:
            with lock:
                question = next(iterator, None)
            if question is None:
                return
            if service.translate(question).ok:
                with lock:
                    ok[0] += 1

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ok[0]


def run_serving_closed(
    nlidb: DBPal, questions: list[str], clients: int, config: ServingConfig
) -> dict:
    with TranslationService(nlidb, config) as service:
        start = time.perf_counter()
        ok = _drain(service, questions, clients)
        seconds = time.perf_counter() - start
        stats = service.stats()
    return {
        "seconds": round(seconds, 3),
        "requests": len(questions),
        "ok": ok,
        "clients": clients,
        "qps": round(len(questions) / seconds, 1) if seconds > 0 else 0.0,
        "stats": stats,
    }


def run_serving_open(
    nlidb: DBPal, questions: list[str], rate: float, config: ServingConfig
) -> dict:
    """Open-loop: dispatch on a fixed schedule, gather all completions."""
    with TranslationService(nlidb, config) as service:
        interval = 1.0 / rate if rate > 0 else 0.0
        futures = []
        start = time.perf_counter()
        for index, question in enumerate(questions):
            target = start + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(service.submit(question))
        responses = [future.result() for future in futures]
        seconds = time.perf_counter() - start
        stats = service.stats()
    return {
        "seconds": round(seconds, 3),
        "requests": len(questions),
        "ok": sum(1 for r in responses if r.ok),
        "offered_qps": round(rate, 1),
        "achieved_qps": round(len(questions) / seconds, 1) if seconds > 0 else 0.0,
        "stats": stats,
    }


def _prebuilt(nlidb: DBPal) -> DBPal:
    """Module-level shard factory: hand back an already-built replica.

    Shards inherit ``nlidb`` through ``fork`` (copy-on-write), so each
    gets its own private copy post-fork without re-running populate +
    fit in every process; the front door's own ``spec.build()`` returns
    the parent's instance.
    """
    return nlidb


def reference_payloads(nlidb: DBPal, questions: list[str]) -> list[dict]:
    """Sequential single-process pass: the bit-identity ground truth."""
    config = ServingConfig(workers=1, request_timeout=60.0)
    with TranslationService(nlidb, config) as service:
        return [service.translate(q).payload() for q in questions]


def run_sharded_open(
    nlidb: DBPal,
    questions: list[str],
    rate: float,
    config: ServingConfig,
    replicas: int,
    reference: list[dict],
) -> dict:
    """One ladder arm: open-loop workload against ``replicas`` shards."""
    # The arm must complete every accepted request for the identity
    # check to be meaningful, so shedding is configured away: unbounded
    # admission queues and a generous in-flight cap.  Capacity then
    # shows up where it should — in achieved qps and p99.
    shard_config = replace(config, queue_capacity=0, request_timeout=60.0)
    spec = ShardSpec(_prebuilt, (nlidb,), config=shard_config)
    sharded = ShardedConfig(replicas=replicas, max_inflight_per_shard=4096)
    with ShardedService(spec, sharded) as service:
        interval = 1.0 / rate if rate > 0 else 0.0
        futures = []
        start = time.perf_counter()
        for index, question in enumerate(questions):
            target = start + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(service.submit(question))
        responses = [future.result() for future in futures]
        seconds = time.perf_counter() - start
        stats = service.stats()
        keys_by_shard = service.cache_keys()
    payloads = [response.payload() for response in responses]
    all_keys = [key for keys in keys_by_shard.values() for key in keys]
    latencies = sorted(response.latency for response in responses)
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return {
        "replicas": replicas,
        "seconds": round(seconds, 3),
        "requests": len(questions),
        "ok": sum(1 for r in responses if r.ok),
        "offered_qps": round(rate, 1),
        "achieved_qps": round(len(questions) / seconds, 1) if seconds > 0 else 0.0,
        "p99_seconds": round(p99, 6) if latencies else 0.0,
        "identical": payloads == reference,
        "duplicate_cache_keys": len(all_keys) - len(set(all_keys)),
        "cache_keys_per_shard": {
            name: len(keys) for name, keys in sorted(keys_by_shard.items())
        },
        "aggregate_hit_rate": stats["cluster"]["cache_hit_rate"],
        "respawns": stats["supervisor"]["respawns"],
        "quarantined": stats["supervisor"]["quarantined"],
    }


def run_benchmark(
    requests: int = 600,
    clients: int = 8,
    size_slotfills: int = 6,
    max_replicas: int = 4,
) -> dict:
    try:
        from _common import speedup_assertable
    except ModuleNotFoundError:  # imported from outside benchmarks/
        import sys

        sys.path.insert(0, str(Path(__file__).resolve().parent))
        try:
            from _common import speedup_assertable
        finally:
            sys.path.remove(str(Path(__file__).resolve().parent))

    nlidb = build_nlidb(size_slotfills)
    questions = build_workload(nlidb.database, requests)
    config = ServingConfig(workers=2, request_timeout=30.0)

    naive = run_naive(nlidb, questions)
    closed = run_serving_closed(nlidb, questions, clients, config)
    # Offer the open-loop arm twice the naive throughput: sustainable
    # only because of the cache, which is exactly the claim under test.
    open_rate = max(20.0, naive["qps"] * 2.0)
    open_loop = run_serving_open(nlidb, questions, open_rate, config)

    # --- scale-out ladder -------------------------------------------
    # One sequential single-process pass is the payload ground truth
    # every arm must reproduce bit-identically; the offered rate is
    # deliberately past single-replica capacity so the ladder measures
    # *sustained* rate (completion throughput), not arrival rate.
    reference = reference_payloads(nlidb, questions)
    ladder = [r for r in (1, 2, 4) if r <= max_replicas]
    sharded_rate = max(40.0, naive["qps"] * 4.0)
    arms = {
        str(replicas): run_sharded_open(
            nlidb, questions, sharded_rate, config, replicas, reference
        )
        for replicas in ladder
    }

    def ratio(a: float, b: float) -> float:
        return round(a / b, 2) if b > 0 else 0.0

    def arm_ratio(high: str, low: str) -> float:
        if high not in arms or low not in arms:
            return 0.0
        return ratio(arms[high]["achieved_qps"], arms[low]["achieved_qps"])

    return {
        "benchmark": "serving_throughput",
        "requests": requests,
        "distinct_questions": len(set(questions)),
        "clients": clients,
        "size_slotfills": size_slotfills,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "serving_config": config.to_dict(),
        "modes": {
            "naive": naive,
            "serving_closed": closed,
            "serving_open": open_loop,
            "sharded_open": {
                "offered_qps": round(sharded_rate, 1),
                "arms": arms,
            },
        },
        "speedups": {
            "serving_closed_vs_naive": ratio(closed["qps"], naive["qps"]),
            "serving_open_vs_naive": ratio(open_loop["achieved_qps"], naive["qps"]),
            "sharded_2_vs_1": arm_ratio("2", "1"),
            "sharded_4_vs_1": arm_ratio("4", "1"),
        },
        "scaling_assertable": {
            "2_vs_1": speedup_assertable(cores=2),
            "4_vs_1": speedup_assertable(cores=4),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--size-slotfills", type=int, default=6)
    parser.add_argument(
        "--replicas",
        type=int,
        default=4,
        help="cap on the scale-out ladder (arms run at 1, 2, 4 up to this)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run wired into the test suite so this script cannot rot",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests = min(args.requests, 60)
        args.clients = min(args.clients, 4)
        args.size_slotfills = min(args.size_slotfills, 2)
        args.replicas = min(args.replicas, 2)
    record = run_benchmark(
        requests=args.requests,
        clients=args.clients,
        size_slotfills=args.size_slotfills,
        max_replicas=args.replicas,
    )
    output = Path(args.output)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    modes = record["modes"]
    print(f"  naive           {modes['naive']['qps']:>8.1f} qps")
    print(f"  serving_closed  {modes['serving_closed']['qps']:>8.1f} qps")
    print(f"  serving_open    {modes['serving_open']['achieved_qps']:>8.1f} qps")
    for replicas, arm in modes["sharded_open"]["arms"].items():
        print(
            f"  sharded x{replicas}      {arm['achieved_qps']:>8.1f} qps"
            f"  p99 {arm['p99_seconds'] * 1000:>7.1f} ms"
            f"  identical={arm['identical']}"
            f"  dup_keys={arm['duplicate_cache_keys']}"
        )
    for name, value in record["speedups"].items():
        print(f"  speedup {name:<26} {value:.2f}x")
    hit_rate = modes["serving_closed"]["stats"]["cache_hit_rate"]
    print(f"  closed-loop cache hit rate {hit_rate:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
