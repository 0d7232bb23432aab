"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``schemas``   — list the built-in schemas;
* ``generate``  — synthesize a training corpus for a schema and write
  it to JSONL/TSV.  Generation is checkpointed: a shard-progress
  manifest is committed alongside the output, ``--resume`` continues an
  interrupted run bit-identically, ``--shard-timeout`` and
  ``--max-attempts`` bound how long a misbehaving shard may stall the
  run before it is quarantined.  Exit status: 0 complete, 3 complete
  with quarantined shards, 130 interrupted (resumable);
* ``train``     — synthesize + train a model, saving a checkpoint;
* ``translate`` — load a checkpoint and answer questions (one-shot or
  interactive REPL) against a populated sample database;
* ``serve``     — the same, through the concurrent serving layer
  (micro-batching, translation cache, circuit breaker) with an
  optional metrics snapshot (``--stats`` / ``--stats-json``);
* ``benchmark`` — evaluate a checkpoint on the Patients benchmark;
* ``lint``      — run the static analyzer (:mod:`repro.analysis`) over
  schemas and seed templates (default), or over a generated corpus
  file (``--corpus PATH``; ``--introspect DB`` resolves the corpus
  against a live sqlite database's schema).  Exit status: 0 clean, 4
  findings (errors; with ``--strict`` warnings count too), 1 internal
  error;
* ``repair``    — run one SQL candidate through the serving tier's
  execute–verify–repair loop (:mod:`repro.serving.repair`) against a
  populated sample database, printing the repaired SQL and the full
  per-step trace.  Exit status: 0 clean or repaired, 4 findings remain
  (abandoned / budget exhausted), 1 internal error;
* ``introspect`` — read a sqlite database file into a schema
  (:mod:`repro.adapters`), printing tables/columns/keys and any
  ``L5xx`` introspection diagnostics;
* ``db explain`` — show the planner's execution plan for a SQL query
  against a populated sample database (``--execute`` also runs it and
  prints per-stage timings and, when the columnar arm ran, the arm each
  step took; ``--backend sqlite`` compiles for and runs on the sqlite
  adapter instead).

``generate``/``train`` normally name a built-in schema; ``generate
--introspect path.db`` builds the schema from a live database instead,
which is the paper's pluggability story end to end: point the pipeline
at a database, get a corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys

from repro.core import GenerationConfig, TrainingPipeline
from repro.db import populate
from repro.errors import GracefulExit, ReproError
from repro.schema import SCHEMA_FACTORIES, load_schema

#: Exit statuses (``generate`` documents these as its contract).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_QUARANTINE = 3
EXIT_LINT_FINDINGS = 4
EXIT_INTERRUPTED = 130


@contextlib.contextmanager
def _graceful_sigterm():
    """Convert SIGTERM into :class:`GracefulExit` for orderly shutdown.

    Lets long-running commands flush checkpoints and print a one-line
    "resumable" message instead of dying with a traceback (SIGINT
    already arrives as ``KeyboardInterrupt``).
    """

    def _handler(signum, frame):  # noqa: ARG001 - signal signature
        raise GracefulExit("terminated")

    previous = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("generation parameters (Table 1)")
    for name, default in GenerationConfig().to_dict().items():
        kind = type(default)
        group.add_argument(f"--{name.replace('_', '-')}", type=kind, default=default)


def _config_from(args: argparse.Namespace) -> GenerationConfig:
    fields = GenerationConfig().to_dict()
    return GenerationConfig(**{name: getattr(args, name) for name in fields})


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.serving import ServingConfig

    group = parser.add_argument_group("serving parameters")
    for name, default in ServingConfig().to_dict().items():
        group.add_argument(
            f"--{name.replace('_', '-')}", type=type(default), default=default
        )


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (an empty sample database would
    make every probe agree, and every plan trivial)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated non-negative integer seeds."""
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        seeds = ()
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative integers, got {text!r}"
        )
    return seeds


def _serving_config_from(args: argparse.Namespace):
    from repro.serving import ServingConfig

    fields = ServingConfig().to_dict()
    return ServingConfig(**{name: getattr(args, name) for name in fields})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DBPal NL2SQL training pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemas", help="list built-in schemas")

    generate = sub.add_parser("generate", help="synthesize a training corpus")
    generate.add_argument(
        "schema",
        nargs="?",
        default=None,
        help="schema name (see `schemas`); omit with --introspect",
    )
    generate.add_argument(
        "--introspect",
        metavar="DB",
        default=None,
        help="build the schema from a live sqlite database file "
        "instead of a built-in schema",
    )
    generate.add_argument("--output", required=True, help="output path")
    generate.add_argument(
        "--format", choices=("jsonl", "tsv"), default="jsonl"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pos-aware-dropout", action="store_true")
    generate.add_argument(
        "--workers",
        type=int,
        default=0,
        help="synthesis worker processes (0 = in-process; output is "
        "identical for every worker count)",
    )
    generate.add_argument(
        "--perf",
        action="store_true",
        help="print per-stage wall-clock timings and pairs/sec",
    )
    fault = generate.add_argument_group("fault tolerance")
    fault.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from its manifest (skips "
        "completed shards; output is bit-identical to an uninterrupted run)",
    )
    fault.add_argument(
        "--shard-timeout",
        type=float,
        default=0.0,
        help="wall-clock budget per shard attempt in seconds "
        "(0 = unlimited; enforced with --workers >= 1)",
    )
    fault.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per shard before it is quarantined",
    )
    fault.add_argument(
        "--flush-every",
        type=int,
        default=0,
        help="commit the manifest every N shards (0 = adaptive: commit "
        "at most every ~0.5s; uncommitted shards regenerate on resume)",
    )
    fault.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="disable the manifest/resume machinery (plain streaming write)",
    )
    _add_config_arguments(generate)

    train = sub.add_parser("train", help="synthesize data and train a model")
    train.add_argument("schema")
    train.add_argument("--output", required=True, help="checkpoint path (.npz)")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--embed-dim", type=int, default=48)
    train.add_argument("--hidden-dim", type=int, default=96)
    train.add_argument("--corpus-cap", type=int, default=6000)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--model",
        choices=("seq2seq", "syntax"),
        default="syntax",
        help="plain seq2seq or grammar-constrained",
    )
    _add_config_arguments(train)

    translate = sub.add_parser("translate", help="answer NL questions")
    translate.add_argument("schema")
    translate.add_argument("--checkpoint", required=True)
    translate.add_argument(
        "--ask", default="", help="one-shot question (omit for a REPL)"
    )
    translate.add_argument("--rows", type=int, default=10, help="max rows to print")
    translate.add_argument("--seed", type=int, default=7, help="sample-data seed")

    serve = sub.add_parser(
        "serve", help="answer NL questions through the concurrent serving layer"
    )
    serve.add_argument("schema")
    serve.add_argument("--checkpoint", required=True)
    serve.add_argument(
        "--rows", type=int, default=0, help="also execute, printing up to N rows"
    )
    serve.add_argument("--seed", type=int, default=7, help="sample-data seed")
    serve.add_argument(
        "--stats", action="store_true", help="print a metrics snapshot on exit"
    )
    serve.add_argument(
        "--stats-json", default="", help="write the machine-readable snapshot here"
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="serve from N shared-nothing shard processes behind a "
        "consistent-hash-routing front door (0 = single process; "
        "scale-out needs as many cores)",
    )
    serve.add_argument(
        "--reload",
        default="",
        metavar="CKPT",
        help="after startup, hot-swap this checkpoint into the running "
        "service (with --replicas: rolling, shard-by-shard, zero "
        "dropped requests)",
    )
    _add_serving_arguments(serve)

    bench = sub.add_parser("benchmark", help="evaluate on the Patients benchmark")
    bench.add_argument("--checkpoint", required=True)
    bench.add_argument("--category", default="", help="restrict to one category")

    lint = sub.add_parser(
        "lint",
        help="statically analyze schemas, seed templates, or a corpus",
    )
    lint.add_argument(
        "--schema",
        default="",
        help="restrict to one built-in schema (default: all)",
    )
    lint.add_argument(
        "--templates",
        action="store_true",
        help="lint the seed templates only (skip the schema pass)",
    )
    lint.add_argument(
        "--corpus",
        default="",
        metavar="PATH",
        help="audit a generated JSONL/TSV corpus file instead",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="warnings also count as findings (exit 4)",
    )
    lint.add_argument(
        "--introspect",
        metavar="DB",
        default="",
        help="resolve --corpus pairs against a sqlite database's "
        "introspected schema",
    )

    repair = sub.add_parser(
        "repair",
        help="run one SQL candidate through the execute-verify-repair loop",
    )
    repair.add_argument("schema", help="schema name (see `schemas`)")
    repair.add_argument("sql", help="candidate SQL text to verify and repair")
    repair.add_argument(
        "--rows-per-table", type=_positive_int, default=30, help="sample-data size"
    )
    repair.add_argument("--seed", type=int, default=7, help="sample-data seed")
    repair.add_argument(
        "--attempts", type=int, default=2, help="repair/re-lint cycles allowed"
    )
    repair.add_argument(
        "--deadline",
        type=float,
        default=0.25,
        help="wall-clock budget in seconds for the whole run",
    )
    repair.add_argument(
        "--json", action="store_true", help="machine-readable trace"
    )

    canonical = sub.add_parser(
        "canonical",
        help="print a query's canonical form/key, or decide two-query "
        "equivalence (EQUIVALENT | DISTINCT | UNKNOWN)",
    )
    canonical.add_argument("schema", help="schema name (see `schemas`)")
    canonical.add_argument("sql", help="SQL text (@JOIN form accepted)")
    canonical.add_argument(
        "sql2",
        nargs="?",
        default=None,
        help="second SQL text; when given, run the equivalence oracle",
    )
    canonical.add_argument(
        "--rows-per-table",
        type=_positive_int,
        default=25,
        help="differential probe database size",
    )
    canonical.add_argument(
        "--seeds",
        type=_seed_list,
        default="0,17",
        help="comma-separated probe database seeds",
    )
    canonical.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    introspect = sub.add_parser(
        "introspect",
        help="read a sqlite database file into a schema",
    )
    introspect.add_argument("database", help="path to a sqlite database file")
    introspect.add_argument(
        "--name", default="", help="schema name (default: from file name)"
    )
    introspect.add_argument(
        "--json", action="store_true", help="machine-readable schema dump"
    )

    db = sub.add_parser("db", help="database/executor utilities")
    db_sub = db.add_subparsers(dest="db_command", required=True)
    db_explain = db_sub.add_parser(
        "explain", help="show the planner's execution plan for a SQL query"
    )
    db_explain.add_argument("schema", help="schema name (see `schemas`)")
    db_explain.add_argument("sql", help="SQL text (@JOIN form accepted)")
    db_explain.add_argument(
        "--rows-per-table", type=_positive_int, default=30, help="sample-data size"
    )
    db_explain.add_argument("--seed", type=int, default=7, help="sample-data seed")
    db_explain.add_argument(
        "--execute",
        action="store_true",
        help="also run the query, printing rows, per-stage timings and "
        "the arm each columnar step took",
    )
    db_explain.add_argument(
        "--columnar",
        choices=("auto", "on", "off"),
        default="auto",
        help="vectorized execution arm: auto (row-count threshold), "
        "on (force), off (row path only)",
    )
    db_explain.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="execution backend: memory (planned reference executor) "
        "or sqlite (compiled SQL on the sqlite3 adapter)",
    )
    return parser


def cmd_schemas(_args) -> int:
    for name in sorted(SCHEMA_FACTORIES):
        schema = load_schema(name)
        tables = ", ".join(schema.table_names)
        print(f"{name:12s} tables: {tables}")
    return 0


def _introspected_schema(path: str, name: str = ""):
    """Introspect a sqlite database file, printing any warnings.

    Error-severity findings raise ``IntrospectionError`` inside the
    adapter; ``main`` maps that to exit 1 with the diagnostics in the
    message.
    """
    from repro.adapters import SqliteAdapter
    from repro.errors import IntrospectionError

    adapter = SqliteAdapter(path, schema_name=name or None)
    try:
        try:
            schema = adapter.introspect()
        except IntrospectionError as exc:
            for finding in exc.diagnostics:
                print(
                    f"introspect: [{finding.code}] {finding.message}",
                    file=sys.stderr,
                )
            raise
        report = adapter.last_introspection
    finally:
        adapter.close()
    for finding in report.diagnostics:
        print(
            f"introspect: [{finding.code}] {finding.message}",
            file=sys.stderr,
        )
    return schema


def cmd_generate(args) -> int:
    import time
    from collections import Counter
    from itertools import chain

    from repro.core import ResilienceConfig, manifest_path_for
    from repro.core.checkpoint import STATUS_COMPLETE
    from repro.core.corpus_io import save_jsonl, save_tsv
    from repro.perf import PerfRecorder

    if bool(args.schema) == bool(args.introspect):
        print(
            "error: give exactly one schema source — a built-in schema "
            "name or --introspect DB",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if args.introspect:
        schema = _introspected_schema(args.introspect)
        print(
            f"introspected schema {schema.name!r} "
            f"({len(schema.table_names)} table(s)) from {args.introspect}"
        )
    else:
        schema = load_schema(args.schema)
    pipeline = TrainingPipeline(
        schema,
        _config_from(args),
        seed=args.seed,
        pos_aware_dropout=args.pos_aware_dropout,
        workers=args.workers,
    )
    recorder = PerfRecorder() if args.perf else None
    families: Counter = Counter()
    augmentations: Counter = Counter()

    def tally_batch(batch) -> None:
        # Corpus batches stream straight to disk; only counters stay.
        for pair in batch:
            families[pair.family.value] += 1
            augmentations[pair.augmentation] += 1

    resilience = ResilienceConfig(
        shard_timeout=args.shard_timeout, max_attempts=args.max_attempts
    )
    start = time.perf_counter()
    if args.no_checkpoint:
        if args.resume:
            print("error: --resume requires checkpointing", file=sys.stderr)
            return EXIT_ERROR

        def tally(batches):
            for batch in batches:
                tally_batch(batch)
                yield batch

        stream = chain.from_iterable(
            tally(pipeline.generate_stream(recorder=recorder, resilience=resilience))
        )
        writer = save_jsonl if args.format == "jsonl" else save_tsv
        written = writer(stream, args.output)
        report = None
        status = STATUS_COMPLETE
    else:
        try:
            with _graceful_sigterm():
                report = pipeline.generate_checkpointed(
                    args.output,
                    fmt=args.format,
                    resume=args.resume,
                    resilience=resilience,
                    recorder=recorder,
                    on_batch=tally_batch,
                    flush_every=args.flush_every,
                )
        except (KeyboardInterrupt, GracefulExit):
            manifest = manifest_path_for(args.output)
            print(
                f"interrupted — resumable from checkpoint {manifest} "
                f"(rerun with --resume)",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        written = report.new_pairs
        status = report.status

    elapsed = time.perf_counter() - start
    print(f"wrote {written} pairs to {args.output}")
    if report is not None and report.resumed_shards:
        print(
            f"resumed from checkpoint: {report.resumed_shards} shard(s) "
            f"skipped, {report.pairs_written} pairs total"
        )
    print(f"families: {dict(families)}")
    print(f"augmentations: {dict(augmentations)}")
    if report is not None and report.quarantined:
        print(
            f"quarantined {len(report.quarantined)} shard(s) "
            f"({status}):", file=sys.stderr
        )
        for failure in report.quarantined:
            print(f"  {failure}", file=sys.stderr)
    if recorder is not None:
        print(recorder.format_table(title="synthesis perf"))
        rate = written / elapsed if elapsed > 0 else 0.0
        print(f"wall-clock: {elapsed:.3f}s ({rate:.1f} pairs/sec, "
              f"workers={args.workers})")
    return EXIT_OK if status == STATUS_COMPLETE else EXIT_QUARANTINE


def cmd_train(args) -> int:
    from repro.neural import Seq2SeqModel, SyntaxAwareModel, save_model

    schema = load_schema(args.schema)
    pipeline = TrainingPipeline(schema, _config_from(args), seed=args.seed)
    corpus = pipeline.generate().subsample(args.corpus_cap, seed=args.seed)
    model_cls = Seq2SeqModel if args.model == "seq2seq" else SyntaxAwareModel
    model = model_cls(
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        epochs=args.epochs,
        seed=args.seed,
    )
    print(f"training {args.model} model on {len(corpus)} pairs ...")
    model.fit(corpus.pairs)
    save_model(model, args.output)
    print(f"saved checkpoint to {args.output} "
          f"(final loss/token {model.loss_history[-1]:.4f})")
    return 0


def cmd_translate(args) -> int:
    from repro.neural import load_model
    from repro.runtime import DBPal

    schema = load_schema(args.schema)
    database = populate(schema, rows_per_table=30, seed=args.seed)
    nlidb = DBPal(database, load_model(args.checkpoint))

    def answer(question: str) -> None:
        result = nlidb.translate(question)
        print(f"SQL: {result.sql}")
        if result.ok:
            try:
                for row in nlidb.execute(result.query, max_rows=args.rows):
                    print(" ", row)
            except ReproError as exc:
                print(f"  (execution failed: {exc})")

    if args.ask:
        answer(args.ask)
        return 0
    print("DBPal REPL — empty line to exit")
    while True:
        try:
            question = input("nl> ").strip()
        except EOFError:
            break
        if not question:
            break
        answer(question)
    return 0


def _build_serving_nlidb(schema_name: str, checkpoint: str, seed: int):
    """Build one complete serving replica (module-level: shard factory).

    Runs inside each shard process under ``repro serve --replicas N``,
    so every shard gets its own database, model, and pre/post
    processors — shared-nothing by construction.
    """
    from repro.neural import load_model
    from repro.runtime import DBPal

    schema = load_schema(schema_name)
    database = populate(schema, rows_per_table=30, seed=seed)
    return DBPal(database, load_model(checkpoint))


def _load_checkpoint_model(path: str):
    """Module-level checkpoint loader (rolling-reload runs it per shard)."""
    from repro.neural import load_model

    return load_model(path)


def _print_stage_table(stages: dict) -> None:
    """Per-stage timings with busy and wall clearly told apart."""
    if not stages:
        return
    print("  per-stage timings (busy = summed across threads; "
          "wall = first entry to last exit):")
    width = max(len(name) for name in stages)
    for name, stats in stages.items():
        print(
            f"    {name:<{width}}  busy {stats['busy_seconds']:>8.3f}s"
            f"  wall {stats['wall_seconds']:>8.3f}s"
            f"  x{stats['calls']}"
        )


def _print_serve_stats(service, stats: dict, sharded: bool) -> None:
    if sharded:
        cluster = stats["cluster"]
        front = stats["front"]
        print("sharded serving stats:")
        print(f"  replicas      {stats['replicas']}")
        print(f"  requests      {front['requests_total']}")
        print(f"  qps           {front['qps']:.1f}")
        print(f"  latency p50   {front['latency']['p50'] * 1000:.2f} ms")
        print(f"  latency p99   {front['latency']['p99'] * 1000:.2f} ms")
        print(f"  cache hitrate {cluster['cache_hit_rate']:.1%} (aggregate)")
        supervisor = stats["supervisor"]
        print(f"  respawns      {supervisor['respawns']}"
              f"  quarantined {supervisor['quarantined']}")
        for name, snap in sorted(stats["shards"].items()):
            print(f"  {name:<12}  requests {snap['requests_total']}"
                  f"  hitrate {snap['cache_hit_rate']:.1%}")
        _print_stage_table(cluster["stages"])
    else:
        print(service.metrics.format_table())
        cache = stats.get("cache")
        if cache:
            print(f"  cache size    {cache['size']}/{cache['capacity']}")
        print(f"  breaker       {stats['breaker']['state']}")
        repair = stats.get("repair")
        if repair:
            counters = stats.get("counters", {})
            print(
                f"  repair        {counters.get('repair.repaired', 0)} repaired"
                f" / {counters.get('repair.requests', 0)} checked"
                f" ({counters.get('repair.abandoned', 0)} abandoned,"
                f" {counters.get('repair.budget_exhausted', 0)} exhausted)"
            )
        _print_stage_table(stats["stages"])
        accounting = stats.get("accounting")
        if accounting:
            tag = "consistent" if accounting["consistent"] else "INCONSISTENT"
            print(f"  counters      {tag} "
                  f"({len(accounting['identities'])} identities checked)")


def cmd_serve(args) -> int:
    import json

    sharded = args.replicas >= 1
    config = _serving_config_from(args)
    if sharded:
        from repro.serving import ShardSpec, ShardedConfig, ShardedService

        spec = ShardSpec(
            _build_serving_nlidb,
            (args.schema, args.checkpoint, args.seed),
            config=config,
        )
        service_cm = ShardedService(spec, ShardedConfig(replicas=args.replicas))
    else:
        from repro.neural import load_model
        from repro.runtime import DBPal
        from repro.serving import TranslationService

        schema = load_schema(args.schema)
        database = populate(schema, rows_per_table=30, seed=args.seed)
        nlidb = DBPal(database, load_model(args.checkpoint))
        service_cm = TranslationService(nlidb, config)
    interactive = sys.stdin.isatty()

    interrupted = False
    # The context manager drains in-flight requests and stops the
    # worker pool (all shards, in sharded mode) on exit, interrupt
    # included — no accepted request is dropped mid-batch, and an
    # interrupt exits with a one-liner, not a traceback.
    with _graceful_sigterm(), service_cm as service:
        if args.reload:
            if sharded:
                reloaded = service.rolling_reload(
                    _load_checkpoint_model, args.reload
                )
                for record in reloaded:
                    print(f"reloaded {record['shard']} "
                          f"(generation {record['generation']})")
            else:
                service.reload_model(_load_checkpoint_model(args.reload))
                print("reloaded model")
        if interactive:
            print("DBPal serving REPL — empty line to exit")
        try:
            while True:
                try:
                    question = input("nl> " if interactive else "").strip()
                except EOFError:
                    break
                if not question:
                    if interactive:
                        break
                    continue
                response = service.translate(question)
                tag = response.status if response.status != "ok" else response.source
                print(f"[{response.request_id}] ({tag}) SQL: {response.sql}")
                if response.failure is not None:
                    print(f"    {response.failure.code}: {response.failure.message}")
                elif args.rows and response.result is not None and response.result.ok:
                    try:
                        for row in service.query(question, max_rows=args.rows):
                            print(" ", row)
                    except ReproError as exc:
                        print(f"  (execution failed: {exc})")
        except (KeyboardInterrupt, GracefulExit):
            interrupted = True
        stats = service.stats()
    if args.stats:
        _print_serve_stats(service, stats, sharded)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
        print(f"wrote stats to {args.stats_json}")
    if interrupted:
        drained = "all shards drained" if sharded else "workers drained"
        print(
            f"interrupted — {drained}, service stopped cleanly",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 0


def cmd_benchmark(args) -> int:
    from repro.bench import build_patients_benchmark
    from repro.eval import evaluate, format_table
    from repro.neural import load_model
    from repro.schema import patients_schema

    workload = build_patients_benchmark()
    if args.category:
        workload = workload.by_category(args.category)
    model = load_model(args.checkpoint)
    schema = patients_schema()
    result = evaluate(model, workload, metric="exact", schemas={schema.name: schema})
    by_category = result.by_category()
    rows = [[c, by_category[c]] for c in workload.categories()]
    rows.append(["overall", result.accuracy])
    print(format_table(["Category", "Accuracy"], rows, title="Patients benchmark"))
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import (
        LintReport,
        audit_corpus,
        lint_schema,
        lint_templates,
    )
    from repro.core.seed_templates import SEED_TEMPLATES
    from repro.schema.catalog import all_schemas

    if args.schema:
        schemas = [load_schema(args.schema)]
    else:
        schemas = all_schemas()

    report = LintReport()
    if args.introspect and not args.corpus:
        print(
            "error: --introspect requires --corpus PATH", file=sys.stderr
        )
        return EXIT_ERROR
    if args.corpus:
        named_schemas = None
        if args.introspect:
            live = _introspected_schema(args.introspect)
            # The live schema is authoritative for pairs naming it and
            # the fallback for pairs naming nothing resolvable.
            named_schemas = {live.name: live}
            default_schema = live
        else:
            default_schema = schemas[0] if args.schema else None
        try:
            report.extend(
                audit_corpus(
                    args.corpus,
                    schemas=named_schemas,
                    default_schema=default_schema,
                )
            )
        except OSError as exc:
            print(f"error: cannot read corpus: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        if not args.templates:
            for schema in schemas:
                report.extend(lint_schema(schema))
        report.extend(lint_templates(schemas, SEED_TEMPLATES))

    if args.json:
        print(report.to_json())
    else:
        print(report.format_text())
    return EXIT_LINT_FINDINGS if report.has_findings(args.strict) else EXIT_OK


def cmd_db(args) -> int:
    from repro.db.planner import ExecutorSession, explain
    from repro.errors import SqlError
    from repro.perf import PerfRecorder
    from repro.runtime.postprocess import PostProcessor
    from repro.sql.parser import parse

    schema = load_schema(args.schema)
    database = populate(schema, rows_per_table=args.rows_per_table, seed=args.seed)
    # Accept the @JOIN shorthand the translator emits: route the SQL
    # through the post-processor so plans reflect what actually runs.
    processed = PostProcessor(schema).process(args.sql)
    if processed is not None:
        query = processed.query
    else:
        try:
            query = parse(args.sql)
        except SqlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.backend == "sqlite":
        return _db_explain_sqlite(query, database, execute=args.execute)
    print(explain(query, database))
    if args.execute:
        recorder = PerfRecorder()
        columnar = {"auto": None, "on": True, "off": False}[args.columnar]
        session = ExecutorSession(database, recorder=recorder, columnar=columnar)
        rows = session.execute(query)
        print(f"\n{len(rows)} row(s)")
        for row in rows[:20]:
            print(" ", row)
        if len(rows) > 20:
            print(f"  ... ({len(rows) - 20} more)")
        print(recorder.format_table(title="executor perf"))
        trace = session.last_columnar_trace
        if trace is not None:
            print("columnar trace:")
            for stage, arm, reason in trace.steps:
                print(f"  {stage}: {arm}" + (f" ({reason})" if reason else ""))
            summary = (
                f"columnar steps: {trace.vectorized_steps} vectorized, "
                f"{trace.row_steps} row"
            )
            reasons = trace.fallback_reasons()
            if reasons:
                details = ", ".join(
                    f"{reason} (x{count})" for reason, count in sorted(reasons.items())
                )
                summary += f"; fallbacks: {details}"
            print(summary)
    return 0


def _db_explain_sqlite(query, database, execute: bool) -> int:
    """Show the sqlite adapter's compiled SQL and query plan."""
    import time

    from repro.adapters import SqliteAdapter
    from repro.adapters.sqlite3_adapter import compile_select

    with SqliteAdapter.from_database(database) as adapter:
        extents = adapter._extents(database.schema.table_names)
        compiled = compile_select(query, database.schema, extents)
        print("compiled SQL (sqlite dialect):")
        print(f"  {compiled.sql}")
        if compiled.client_distinct:
            print("  (DISTINCT/LIMIT applied client-side)")
        plan = adapter.connection.execute(
            f"EXPLAIN QUERY PLAN {compiled.sql}"
        ).fetchall()
        print("sqlite query plan:")
        for row in plan:
            print(f"  {row[-1]}")
        if execute:
            start = time.perf_counter()
            rows = adapter.execute(query)
            elapsed = time.perf_counter() - start
            print(f"\n{len(rows)} row(s) in {elapsed * 1000:.2f} ms")
            for row in rows[:20]:
                print(" ", row)
            if len(rows) > 20:
                print(f"  ... ({len(rows) - 20} more)")
    return 0


def cmd_repair(args) -> int:
    """One-shot execute–verify–repair run over a SQL candidate.

    Exit status: 0 when the candidate is clean or was repaired, 4 when
    findings remain (abandoned / budget exhausted), 1 on internal error
    (unparseable SQL, unknown schema).
    """
    import json as json_module

    from repro.adapters import MemoryAdapter
    from repro.db.index import ValueIndex
    from repro.errors import SqlError
    from repro.runtime.postprocess import PostProcessor
    from repro.serving import RepairBudget, RepairPipeline
    from repro.sql.parser import parse

    schema = load_schema(args.schema)
    database = populate(schema, rows_per_table=args.rows_per_table, seed=args.seed)
    # Accept the @JOIN shorthand the translator emits, like `db explain`.
    processed = PostProcessor(schema).process(args.sql)
    if processed is not None and processed.query is not None:
        query = processed.query
    else:
        try:
            query = parse(args.sql)
        except SqlError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    pipeline = RepairPipeline(
        schema,
        adapter=MemoryAdapter(database),
        budget=RepairBudget(max_attempts=args.attempts, deadline=args.deadline),
        value_index=ValueIndex(database),
    )
    report = pipeline.run(query, location="cli")
    if args.json:
        print(
            json_module.dumps(
                {
                    "outcome": report.outcome,
                    "verified": report.verified,
                    "sql": report.sql,
                    "trace": report.trace.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"outcome:  {report.outcome} (verified: {report.verified})")
        print(f"sql:      {report.sql}")
        trace = report.trace
        if trace.codes_tried:
            print(f"codes:    {', '.join(trace.codes_tried)}")
        for edit in trace.edits:
            print(f"edit:     [{edit['code']}] {edit['action']}: {edit['detail']}")
        for execution in trace.executions:
            print(
                f"execute:  candidate {execution['candidate']}"
                f" -> {execution['verdict']} ({execution['detail']})"
            )
        budget = trace.budget
        print(
            f"budget:   {budget.get('attempts_used', 0)}"
            f"/{budget.get('max_attempts', 0)} attempts,"
            f" {budget.get('spent_seconds', 0.0):.4f}s"
            f"/{budget.get('deadline', 0.0)}s"
        )
        if trace.error_code:
            print(f"error:    {trace.error_code} ({trace.reason})")
    return EXIT_OK if report.outcome in ("clean", "repaired") else EXIT_LINT_FINDINGS


def cmd_canonical(args) -> int:
    """Canonical form / equivalence oracle one-shot (PR 10).

    One query: print its canonical text and stable key; exit 0.  Two
    queries: run the three-verdict oracle — exit 0 for EQUIVALENT
    (canonical-form proof), 4 for DISTINCT (differential
    counterexample, an L602 finding), 3 for UNKNOWN (undecided; never
    silently upgraded).
    """
    import json as json_module

    from repro.analysis.equivalence import DISTINCT, EQUIVALENT, EquivalenceOracle
    from repro.errors import SqlError
    from repro.runtime.postprocess import PostProcessor
    from repro.sql.canonical import canonical_key, canonical_text
    from repro.sql.parser import parse

    schema = load_schema(args.schema)
    post = PostProcessor(schema)

    def load_query(sql: str):
        # Accept the @JOIN shorthand the translator emits.
        processed = post.process(sql)
        if processed is not None and processed.query is not None:
            return processed.query
        return parse(sql)

    try:
        query = load_query(args.sql)
        other = load_query(args.sql2) if args.sql2 is not None else None
    except SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if other is None:
        text = canonical_text(query, schema)
        key = canonical_key(query, schema)
        if args.json:
            print(
                json_module.dumps(
                    {"schema": schema.name, "canonical": text, "key": key},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(f"canonical: {text}")
            print(f"key:       {key}")
        return EXIT_OK

    oracle = EquivalenceOracle(
        schema, seeds=args.seeds, rows_per_table=args.rows_per_table
    )
    result = oracle.check(query, other)
    if args.json:
        print(json_module.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"verdict:   {result.verdict}")
        print(f"left:      {result.left_canonical}")
        print(f"right:     {result.right_canonical}")
        for diag in result.report.sorted():
            print(f"{diag.severity.value:<7}    {diag}")
    if result.verdict == EQUIVALENT:
        return EXIT_OK
    if result.verdict == DISTINCT:
        return EXIT_LINT_FINDINGS
    return EXIT_QUARANTINE


def cmd_introspect(args) -> int:
    import json as json_module

    schema = _introspected_schema(args.database, name=args.name)
    if args.json:
        dump = {
            "name": schema.name,
            "tables": [
                {
                    "name": table.name,
                    "annotation": table.annotation,
                    "columns": [
                        {
                            "name": column.name,
                            "type": column.ctype.value,
                            "primary_key": column.primary_key,
                            "annotation": column.annotation,
                        }
                        for column in table.columns
                    ],
                }
                for table in schema.tables
            ],
            "foreign_keys": [
                {
                    "table": fk.table,
                    "column": fk.column,
                    "ref_table": fk.ref_table,
                    "ref_column": fk.ref_column,
                }
                for fk in schema.foreign_keys
            ],
        }
        print(json_module.dumps(dump, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"schema {schema.name!r} ({len(schema.table_names)} table(s))")
    for table in schema.tables:
        print(f"\n{table.name}  [{table.annotation}]")
        for column in table.columns:
            flags = " pk" if column.primary_key else ""
            print(
                f"  {column.name:24s} {column.ctype.value}{flags}"
                f"  [{column.annotation}]"
            )
    if schema.foreign_keys:
        print("\nforeign keys:")
        for fk in schema.foreign_keys:
            print(f"  {fk}")
    return EXIT_OK


_COMMANDS = {
    "schemas": cmd_schemas,
    "generate": cmd_generate,
    "train": cmd_train,
    "translate": cmd_translate,
    "serve": cmd_serve,
    "benchmark": cmd_benchmark,
    "lint": cmd_lint,
    "repair": cmd_repair,
    "canonical": cmd_canonical,
    "introspect": cmd_introspect,
    "db": cmd_db,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:  # unknown schema etc.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
