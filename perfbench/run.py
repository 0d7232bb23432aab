"""End-to-end question -> rows serving benchmark with a traced per-layer breakdown.

Drives natural-language questions through ``TranslationService.query``
(question in, rows out) from one client thread in a closed loop: the
next question is sent when the previous answer arrives.  The model is a
``RetrievalModel`` trained through ``DBPal.train``, so DBPal's synthesis
and augmentation pipeline runs inside set-up.

Usage (from the repository root)::

    python3 perfbench/run.py --workload patients --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` serves the workload untraced for a third of ``--seconds``,
replays the same requests on a fresh set-up with every layer's entry
point wrapped (see ``tracing.py``), then once more untraced on another
fresh set-up; tracing overhead compares the last two, which run with
the same process-wide caches warm.  It reports the per-layer metrics,
reconciles the spans with the service's own counters (a mismatch fails
the run), and writes the spans as JSON lines under ``perfbench/out/``.  ``--smoke`` runs all three workloads, untraced and
traced, on a small fixed number of requests.  ``peak_rss_mb`` is the
process's peak, so with ``--workload all`` it accumulates across
workloads; run one workload per process to compare it.

A run lasts ``--seconds`` of request loop and at least ``MIN_REQUESTS``
requests, whole passes over the workload's questions (each phase of a
traced run needs 200).  Accuracy is graded over
whole passes.  Gold rows, exact match and answer hashes are computed
between requests with the run clock paused.  Every reported time is
scaled to a reference CPU speed by the probe in ``speed.py``; the raw
times are printed alongside.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts operational failures: timeouts, shed or rate-limited requests,
an unavailable model or backend, and exceptions outside the package's
error hierarchy.  A question the system answers with SQL that does not
execute, or cannot translate, is a wrong answer: it lowers
``exec_accuracy`` and shows in the printed ``error_rate`` and per-code
tally.  ``correct`` holds when every served row set equals the
reference executor's rows for the served SQL, nothing failed, every
service's counter identities hold, and (traced) the traced answers
equal the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "throughput_qps": "1/s",
    "exec_accuracy": "ratio",
    "exact_match": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "serving.cache_hit_rate": "ratio",
    "serving.memo_hit_rate": "ratio",
    "serving.model_calls_per_request": "count",
    "serving.self_ms": "ms",
    "serving.self_share": "ratio",
    "preprocess.p50_ms": "ms",
    "preprocess.p95_ms": "ms",
    "preprocess.share": "ratio",
    "preprocess.tokenize_ms": "ms",
    "preprocess.lemmatize_ms": "ms",
    "preprocess.self_ms": "ms",
    "index.lookup_per_request": "count",
    "index.fuzzy_per_request": "count",
    "index.fuzzy_p50_us": "us",
    "index.fuzzy_share": "ratio",
    "index.text_values": "count",
    "model.calls": "count",
    "model.p50_ms": "ms",
    "model.share": "ratio",
    "postprocess.p50_us": "us",
    "postprocess.share": "ratio",
    "canonical.calls": "count",
    "canonical.p50_us": "us",
    "canonical.share": "ratio",
    "repair.p50_us": "us",
    "repair.share": "ratio",
    "repair.clean": "count",
    "repair.repaired": "count",
    "repair.abandoned": "count",
    "repair.budget_exhausted": "count",
    "execute.p50_ms": "ms",
    "execute.p95_ms": "ms",
    "execute.share": "ratio",
    "execute.calls_per_request": "count",
    "planner.cache_hit_rate": "ratio",
    "setup.populate_s": "s",
    "setup.index_s": "s",
    "setup.synthesis_s": "s",
    "setup.fit_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}

#: Fewest requests per run: whole passes over the base questions (2 x 399
#: Patients, 5 x 92 Spider-substitute), so runs on a faster or slower
#: machine serve the same mix of first-sight and repeated questions, and
#: >= 200 everywhere so p95 has >= 10 samples beyond it.  The answer
#: digest covers exactly these.
MIN_REQUESTS = {"patients": 798, "spider_join": 460, "hot_repeat": 200}
#: Questions per pass.  Accuracy is graded over whole passes only, so it
#: does not depend on how far into a pass the run happened to stop.
PASS = {"patients": 399, "spider_join": 92, "hot_repeat": 1}
SMOKE_REQUESTS = 24

#: Error codes that mean the request was not served at all.
OPERATIONAL = {
    "E_RATE_LIMITED",
    "E_QUEUE_FULL",
    "E_TIMEOUT",
    "E_MODEL_UNAVAILABLE",
    "E_WORKER_DIED",
    "E_BACKEND",
}

#: Warm-up requests sent to the first (never measured) set-up, so
#: first-call imports are not billed to measured requests.
WARMUP = 8


def _bootstrap() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import logging

    # Synthesis logs template-lint warnings on every set-up.
    logging.getLogger("repro").setLevel(logging.ERROR)


def _pct(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _error_code(response, exc) -> str:
    """``E_*`` code of a raised request; the class name when it has none."""
    from repro.errors import ReproError

    if response is not None and response.failure is not None:
        return response.failure.error_code
    if isinstance(exc, ReproError) and exc.code:
        return exc.code
    if isinstance(exc, ReproError):
        return type(exc).__name__
    return f"foreign:{type(exc).__name__}"


class Phase:
    """One measured phase: the closed loop plus between-request grading."""

    def __init__(self, system, grader, tracer=None) -> None:
        from speed import SpeedProbe

        self.system = system
        self.grader = grader
        self.tracer = tracer
        self.latencies: list[float] = []
        self.answers: list[str] = []  # per-request answer hash
        self.errors: Counter = Counter()
        self.row_mismatches = 0
        self.exec_ok: list[bool] = []  # rows equal gold rows, per request
        self.exact_ok: list[bool] = []  # SQL canonically equal to gold
        self.joins = 0
        self.shapes_seen: set = set()
        self.shape_repeats = 0
        self.questions: set = set()
        self.wall = 0.0  # request loop seconds, grading excluded
        self.scaled_wall = 0.0  # the same at reference speed
        self.graded = 0.0  # seconds spent grading, outside ``wall``
        self.probe = SpeedProbe()
        self.factors: list[float] = []  # speed scale factor per request
        self.ends: list[float] = []  # when each request returned
        self.loop_times: list[float] = []  # loop seconds per request
        self._memo: dict = {}

    def serve(self, stream, seconds: float, min_requests: int, max_requests=None) -> None:
        """Closed loop until ``seconds`` and ``min_requests`` are both met
        (or exactly ``max_requests`` requests when given).

        ``seconds`` counts reference-speed time (see ``speed.py``), so
        how many requests a run serves, and hence its mix of first-sight
        and repeated questions, does not drift with the machine's speed.
        """
        from speed import WINDOW

        box = [None]
        services = self.system.services
        for service in services.values():

            def capture(nl, timeout=None, _translate=service.translate):
                box[0] = _translate(nl, timeout)
                return box[0]

            service.translate = capture
        tracer = self.tracer
        perf = time.perf_counter
        gc.collect()
        gc.freeze()  # the stream and set-up objects are not the program's garbage
        for _ in range(WINDOW):
            self.probe.sample()
        begin = resume = perf()
        try:
            for index, request in enumerate(stream):
                if max_requests is not None:
                    if index >= max_requests:
                        break
                elif index >= min_requests and self.scaled_wall >= seconds:
                    break
                service = services[request.schema]
                box[0] = exc = rows = None
                if tracer is not None:
                    tracer.request = index
                t0 = perf()
                try:
                    rows = service.query(request.nl)
                except Exception as error:  # noqa: BLE001 — every raise is graded
                    exc = error
                t1 = perf()
                self.latencies.append(t1 - t0)
                self._grade(request, box[0], rows, exc)
                self.probe.tick(t1)
                self.ends.append(t1)
                self.loop_times.append(t1 - resume)
                self.scaled_wall += (t1 - resume) * self.probe.factor()
                resume = perf()
            self.wall = sum(self.loop_times)
            self.graded = perf() - begin - self.wall
            for _ in range(WINDOW // 2):
                self.probe.sample()
            # Rescale with probes taken on both sides of each request;
            # the running factor above only decided when to stop.
            self.factors = [self.probe.factor_at(end) for end in self.ends]
            self.scaled_wall = sum(t * f for t, f in zip(self.loop_times, self.factors))
        finally:
            gc.unfreeze()
            for service in services.values():
                del service.translate

    def _grade(self, request, response, rows, exc) -> None:
        from repro.sql.normalize import canonical_sql
        from system import row_tuples, rows_equal

        result = response.result if response is not None else None
        self.questions.add(request.nl)
        shape = result.model_input if result is not None else request.nl
        self.shape_repeats += shape in self.shapes_seen
        self.shapes_seen.add(shape)
        gold_query, gold_canonical = self.grader.gold(request)
        self.joins += bool(gold_query is not None and len(gold_query.from_tables) > 1)
        if exc is not None:
            code = _error_code(response, exc)
            self.errors[code] += 1
            self.answers.append(code)
            self.exec_ok.append(False)
            self.exact_ok.append(False)
            return
        served = row_tuples(rows)
        key = (request.schema, request.nl, result.sql)
        if key not in self._memo:
            gold_rows = (
                self.grader.reference_rows(request.schema, gold_query)
                if gold_query is not None
                else None
            )
            self._memo[key] = (
                self.grader.reference_rows(request.schema, result.query),
                gold_rows,
                bool(gold_query is not None and gold_query.order_by),
                canonical_sql(result.query) == gold_canonical,
            )
        reference, gold_rows, ordered, exact = self._memo[key]
        self.row_mismatches += served != reference
        self.exec_ok.append(gold_rows is not None and rows_equal(served, gold_rows, ordered))
        self.exact_ok.append(exact)
        self.answers.append(
            hashlib.sha256(
                json.dumps([request.nl, result.sql, served], default=repr).encode()
            ).hexdigest()
        )

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        return [lat * f for lat, f in zip(self.latencies, self.factors)]

    def factor(self) -> float:
        """The phase's median speed factor."""
        return statistics.median(self.factors)

    def accuracy(self, flags: list[bool], per_pass: int) -> float:
        """Share of true ``flags`` over the whole passes served."""
        graded = max(per_pass, len(flags) // per_pass * per_pass)
        return sum(flags[:graded]) / len(flags[:graded])

    @property
    def failed(self) -> int:
        return sum(
            count
            for code, count in self.errors.items()
            if code in OPERATIONAL or code.startswith("foreign:")
        )

    def answers_sha256(self, count: int) -> str:
        digest = hashlib.sha256()
        for answer in self.answers[:count]:
            digest.update(answer.encode())
        return digest.hexdigest()

    def accounting_ok(self) -> bool:
        return all(
            service.stats()["accounting"]["consistent"]
            for service in self.system.services.values()
        )


def _setups(schemas, scale, warmup_stream):
    """``scale.setups`` set-ups; the last one is kept for measuring.

    Returns (system, median set-up seconds, median per-phase seconds,
    median raw set-up seconds), each set-up scaled by the speed probe
    sampled just before and after it.
    """
    from speed import REFERENCE_S, WINDOW, SpeedProbe
    from system import build_system

    kept, totals, phases, raw = None, [], [], []
    for attempt in range(scale.setups):
        if kept is not None:
            # Release the previous set-up first, so the peak memory is
            # one system's, not two systems' and the garbage between.
            kept.stop()
            kept = None
            gc.collect()
        probe = SpeedProbe()
        for _ in range(WINDOW):
            probe.sample()
        system = build_system(schemas, scale)
        for _ in range(WINDOW):
            probe.sample()
        factor = REFERENCE_S / statistics.median(probe.samples)
        raw.append(system.seconds)
        totals.append(system.seconds * factor)
        phases.append({name: value * factor for name, value in system.phases.items()})
        if attempt == 0 and scale.setups > 1:
            for request in warmup_stream:
                try:
                    system.services[request.schema].query(request.nl)
                except Exception:  # noqa: BLE001 — warm-up answers are not graded
                    pass
        kept = system
    median_phases = {
        name: statistics.median(p[name] for p in phases) for name in phases[0]
    }
    return kept, statistics.median(totals), median_phases, statistics.median(raw)


def _text_values(dbs: dict) -> int:
    """Distinct text values over every text column (what fuzzy lookup scans)."""
    return sum(
        len({v for v in db.column_values(t.name, c.name) if v is not None})
        for db in dbs.values()
        for t in db.schema.tables
        for c in t.columns
        if not c.is_numeric
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale, smoke=False):
    """One workload; returns (result with ``properties``, printable lines)."""
    from system import Grader, build_system, databases
    from tracing import Tracer, per_layer_metrics, reconcile
    from workloads import SCHEMAS, build_stream, stream_digest

    schemas = SCHEMAS[workload]
    dbs = databases(schemas, scale)
    stream = build_stream(workload, seed, dbs)
    text_values = _text_values(dbs)
    digest_requests = SMOKE_REQUESTS if smoke else MIN_REQUESTS[workload]
    # A traced run serves each request three times, so each phase needs
    # only enough requests for the per-layer p95s.
    min_requests = 200 if trace else digest_requests
    # Smoke runs a fixed request count: twice as many when traced, so
    # each traced phase covers the requests of an untraced smoke run.
    max_requests = (2 if trace else 1) * digest_requests if smoke else None

    system, setup_s, setup_phases, setup_raw = _setups(schemas, scale, stream[-WARMUP:])
    grader = Grader({name: s.nlidb.database for name, s in system.services.items()})
    untraced = Phase(system, grader)
    untraced.serve(stream, seconds / 3 if trace else seconds, min_requests, max_requests)
    correct = untraced.accounting_ok()
    system.stop()
    lines = []
    if not trace:
        latencies = untraced.scaled_latencies()
        values = {
            "request_p50_ms": _pct(latencies, 0.50) * 1e3,
            "request_p95_ms": _pct(latencies, 0.95) * 1e3,
            "throughput_qps": untraced.attempted / untraced.scaled_wall,
            "exec_accuracy": untraced.accuracy(untraced.exec_ok, PASS[workload]),
            "exact_match": untraced.accuracy(untraced.exact_ok, PASS[workload]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units, measured = END_TO_END, untraced
        lines.append(
            f"  raw (unscaled): p50 {_pct(untraced.latencies, 0.5) * 1e3:.4f} ms"
            f"  p95 {_pct(untraced.latencies, 0.95) * 1e3:.4f} ms"
            f"  {untraced.attempted / untraced.wall:.2f} qps  setup {setup_raw:.4f} s"
            f"  speed factor {untraced.factor():.4f}"
        )
    else:
        tracer = Tracer()
        with tracer.installed():
            traced_system = build_system(schemas, scale)
            for service in traced_system.services.values():
                tracer.attach(service)
            tracer.spans.clear()  # set-up calls are not requests
            # Same content as the untraced databases, so one grader serves.
            traced = Phase(traced_system, grader, tracer)
            traced.serve(stream, 0.0, 0, max_requests=untraced.attempted)
        traced_system.stop()
        problems = reconcile(tracer.spans, traced_system.services)
        if problems:
            raise SystemExit("span/counter reconciliation failed: " + "; ".join(problems))
        replay_system = build_system(schemas, scale)
        replay = Phase(replay_system, grader)
        replay.serve(stream, 0.0, 0, max_requests=untraced.attempted)
        replay_system.stop()
        identical = traced.answers == untraced.answers == replay.answers
        correct = correct and identical and traced.accounting_ok() and replay.accounting_ok()
        values = per_layer_metrics(
            tracer.spans,
            traced_system.services,
            traced.wall,
            traced.factor(),
            replay.scaled_latencies(),
            traced.scaled_latencies(),
            setup_phases,
            text_values,
        )
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        lines += [
            f"  traced answers identical to both untraced phases: {identical}",
            "  reconciliation (preprocess spans, model items, accounting): ok",
            f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
        ]
        units, measured = PER_LAYER, traced
    correct = (
        correct
        and untraced.row_mismatches == 0
        and untraced.failed == 0
        and untraced.attempted >= min(min_requests, max_requests or min_requests)
    )
    properties = {
        "stream_sha256": stream_digest(stream),
        "answers_sha256": untraced.answers_sha256(digest_requests),
        "answers_digest_requests": min(digest_requests, untraced.attempted),
        "distinct_questions": len(untraced.questions),
        "shape_seen_share": untraced.shape_repeats / untraced.attempted,
        "index.text_values": text_values,
        "join_share": untraced.joins / untraced.attempted,
        "rows_per_table": {name: scale.rows_for(name) for name in schemas},
        "error_rate": sum(untraced.errors.values()) / untraced.attempted,
        "errors": dict(sorted(untraced.errors.items())),
        "row_mismatches": untraced.row_mismatches,
    }
    lines[:0] = [
        f"{workload}  seed={seed}  trace={int(trace)}  requests={measured.attempted}"
        f"  measured={measured.wall:.3f}s  graded={measured.graded:.3f}s  correct={correct}",
        *(f"  {name:<34} {values[name]:>14.6f} {unit}" for name, unit in units.items()),
        *(f"  {name:<34} {value}" for name, value in properties.items()),
    ]
    result = {
        "correct": bool(correct),
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
        "properties": properties,
    }
    return result, lines


def run(workloads, seed: int, seconds: float, trace: bool, scale, smoke=False) -> dict:
    """Run ``workloads`` in order and print each; returns the result line
    (metric names prefixed ``<workload>/`` when there is more than one)."""
    results = {}
    for workload in workloads:
        result, lines = run_workload(workload, seed, seconds, trace, scale, smoke)
        print("\n".join(lines), flush=True)
        results[workload] = result
    prefix = len(results) > 1
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{workload}/{name}" if prefix else name): metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="all workloads, untraced and traced, on a few requests each",
    )
    args = parser.parse_args(argv)
    _bootstrap()
    from system import SMOKE, Scale
    from workloads import WORKLOADS

    if args.smoke:
        untraced = run(WORKLOADS, args.seed, 0.0, False, SMOKE, smoke=True)
        traced = run(WORKLOADS, args.seed, 0.0, True, SMOKE, smoke=True)
        result = {
            **untraced,
            "correct": untraced["correct"] and traced["correct"],
            "metrics": {**untraced["metrics"], **traced["metrics"]},
        }
    else:
        if args.workload != "all" and args.workload not in WORKLOADS:
            parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        result = run(workloads, args.seed, args.seconds, bool(args.trace), Scale())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
