"""Parallel, deterministic corpus synthesis (the scale-out engine).

The paper's pipeline (generate → augment → lemmatize) is embarrassingly
parallel once it is expressed as independent *shards*: one shard per
(schema, template) pair runs the full three-stage pipeline for that
template's instances.  This module provides that sharded engine:

* **Deterministic seeding.**  Every shard derives its RNG streams from
  ``np.random.SeedSequence(seed)`` with the shard index as spawn key
  (one child each for generation and augmentation), so shard outputs
  are independent of scheduling, process boundaries, and worker count.
* **Order-stable merge.**  Shards are merged in shard-index order
  (schema-major, template-minor) and globally deduplicated with one
  shared key set, making the corpus for ``workers=N`` **bit-identical**
  to ``workers=0`` for the same seed and configuration.
* **One runner, inline or supervised.**  Every shard runs through
  :meth:`SynthesisEngine.iter_outcomes`: ``workers=0`` runs the shard
  loop in the calling process (no processes, no pickling);
  ``workers>0`` runs shards on supervised worker processes, each handed
  the immutable engine state once when it is started, so per-task
  messages are a shard index and an attempt number.

Workers also time their own stages (generate/augment/lemmatize) and
return ``{stage: seconds}`` alongside the pairs, so a
:class:`repro.perf.PerfRecorder` can aggregate per-stage CPU time even
for multi-process runs.

The runner is fault-tolerant on both paths: per-shard execution with
bounded retry and exponential backoff, and quarantine — a shard that
keeps failing is reported as a :class:`ShardFailure` naming its
(schema, template, seed) triple.  Supervised workers add a wall-clock
timeout per shard and detect a worker's death and re-dispatch its
shard.  Because retries rerun a shard with the same
``SeedSequence``-derived streams, resilience never changes the corpus,
only whether the run survives.  :meth:`SynthesisEngine.iter_batches`
is the one merge step over those outcomes; the streaming pipeline
raises a quarantined shard as a :class:`~repro.errors.GenerationError`,
the checkpointed writer records it and carries on.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as _conn_wait
from typing import Iterator, Sequence

import numpy as np

from repro.core.augmenter import Augmenter
from repro.core.config import GenerationConfig, ResilienceConfig
from repro.core.faults import NO_FAULTS, SHARD_KINDS, FaultPlan, fire_shard_fault
from repro.core.generator import Generator
from repro.core.seed_templates import SEED_TEMPLATES
from repro.core.templates import SeedTemplate, TrainingPair, dedupe_pairs
from repro.errors import (
    E_SHARD_CRASH,
    E_SHARD_TIMEOUT,
    E_WORKER_DIED,
    GenerationError,
)
from repro.nlp.ppdb import ParaphraseDatabase
from repro.perf.instrumentation import StageTimer
from repro.schema.schema import Schema


@dataclass(frozen=True)
class EngineState:
    """Everything a shard needs; immutable and picklable.

    Handed to each supervised worker once, when the worker starts,
    after which tasks are identified by their shard index alone.
    """

    schemas: tuple[Schema, ...]
    config: GenerationConfig
    templates: tuple[SeedTemplate, ...]
    ppdb: ParaphraseDatabase
    seed: int
    apply_lemmatizer: bool = True
    pos_aware_dropout: bool = False

    @property
    def shard_count(self) -> int:
        return len(self.schemas) * len(self.templates)

    def shard_coords(self, shard_index: int) -> tuple[Schema, SeedTemplate]:
        """(schema, template) of one shard, schema-major order."""
        schema = self.schemas[shard_index // len(self.templates)]
        template = self.templates[shard_index % len(self.templates)]
        return schema, template


def synthesize_shard(
    state: EngineState,
    shard_index: int,
    attempt: int = 0,
    faults: FaultPlan = NO_FAULTS,
) -> tuple[list[TrainingPair], dict[str, float]]:
    """Run generate → augment → lemmatize for one (schema, template).

    Returns the shard's locally deduplicated pairs plus per-stage
    wall-clock seconds.  Deterministic: the RNG streams depend only on
    ``state.seed`` and ``shard_index`` — ``SeedSequence`` spawn keys
    guarantee independence between shards and reproducibility across
    processes.  ``attempt`` never feeds the RNG (retried shards are
    bit-identical); it only selects fault-injection rules.
    """
    schema, template = state.shard_coords(shard_index)
    if faults:
        spec = faults.find(
            SHARD_KINDS, shard_index, schema.name, template.tid, attempt
        )
        if spec is not None:
            fire_shard_fault(spec, shard_index)
    shard_seq = np.random.SeedSequence(
        entropy=state.seed, spawn_key=(shard_index,)
    )
    generate_seq, augment_seq = shard_seq.spawn(2)
    timings: dict[str, float] = {}

    with StageTimer() as timer:
        generator = Generator(
            schema, state.config, state.templates, seed=generate_seq
        )
        pairs = generator.generate_template(template)
    timings["generate"] = timer.seconds

    with StageTimer() as timer:
        augmenter = Augmenter(
            [schema],
            state.config,
            state.ppdb,
            seed=augment_seq,
            pos_aware_dropout=state.pos_aware_dropout,
        )
        pairs = augmenter.augment(pairs)
    timings["augment"] = timer.seconds

    with StageTimer() as timer:
        if state.apply_lemmatizer:
            pairs = [pair.lemmatized() for pair in pairs]
            pairs = dedupe_pairs(pairs)
    timings["lemmatize"] = timer.seconds
    return pairs, timings


# ----------------------------------------------------------------------
# Fault-tolerance layer: outcomes, supervised workers, retry/quarantine
# ----------------------------------------------------------------------

OUTCOME_OK = "ok"
OUTCOME_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class ShardFailure:
    """Why one shard was quarantined — the report's unit record.

    Names the offending (schema, template, seed) triple so the failure
    is independently reproducible:
    ``SeedSequence(entropy=seed_entropy, spawn_key=tuple(seed_spawn_key))``
    recreates the exact RNG streams of the failing shard.
    """

    shard_index: int
    schema_name: str
    template_id: str
    seed_entropy: int
    seed_spawn_key: tuple[int, ...]
    code: str  # E_SHARD_CRASH | E_SHARD_TIMEOUT | E_WORKER_DIED
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "shard_index": self.shard_index,
            "schema": self.schema_name,
            "template_id": self.template_id,
            "seed": {
                "entropy": self.seed_entropy,
                "spawn_key": list(self.seed_spawn_key),
            },
            "code": self.code,
            "message": self.message,
            "attempts": self.attempts,
        }

    def __str__(self) -> str:
        return (
            f"[{self.code}] schema={self.schema_name} "
            f"template={self.template_id} "
            f"seed=(entropy={self.seed_entropy}, "
            f"spawn_key={list(self.seed_spawn_key)}) "
            f"after {self.attempts} attempt(s): {self.message}"
        )

    def error(self) -> GenerationError:
        """The coded error a run that cannot skip shards raises."""
        return GenerationError(
            f"shard {self.shard_index} failed: {self}", code=self.code
        )


@dataclass(frozen=True)
class ShardOutcome:
    """Terminal result of one shard under the fault-tolerance layer."""

    shard_index: int
    status: str  # OUTCOME_OK | OUTCOME_QUARANTINED
    pairs: list[TrainingPair] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    attempts: int = 1
    failure: ShardFailure | None = None

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK


#: How often an idle supervised worker checks that its parent lives.
_PARENT_CHECK_SECONDS = 1.0


def _worker_main(conn: Connection, state: EngineState, faults: FaultPlan) -> None:
    """Supervised worker loop: recv (shard, attempt), send the result.

    Runs in a child process.  Any exception a shard raises — organic or
    injected — is reported over the pipe and the worker stays alive for
    the next task; only process death (KILL faults, real crashes of the
    interpreter) ends the loop, which the parent detects as EOF.  An
    idle worker whose parent was killed outright exits too: no "stop"
    comes, and under ``fork`` the workers started after it hold its
    pipe open, so no EOF comes either.
    """
    parent = os.getppid()
    try:
        while True:
            if not conn.poll(_PARENT_CHECK_SECONDS):
                if os.getppid() != parent:
                    return
                continue
            message = conn.recv()
            if message[0] == "stop":
                return
            _, shard_index, attempt = message
            try:
                pairs, timings = synthesize_shard(
                    state, shard_index, attempt=attempt, faults=faults
                )
                conn.send(("ok", shard_index, attempt, pairs, timings))
            except Exception as exc:  # noqa: BLE001 — reported, not fatal
                detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
                conn.send(("error", shard_index, attempt, detail))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass


@dataclass
class _Worker:
    """Parent-side handle for one supervised worker process."""

    process: mp.process.BaseProcess
    conn: Connection
    shard: int | None = None  # currently dispatched shard
    attempt: int = 0
    deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.shard is not None

    def dispatch(self, shard: int, attempt: int, timeout: float) -> None:
        self.shard = shard
        self.attempt = attempt
        self.deadline = (time.monotonic() + timeout) if timeout > 0 else None
        self.conn.send(("run", shard, attempt))

    def clear(self) -> None:
        self.shard = None
        self.deadline = None

    def destroy(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.process.join()
        self.conn.close()


class _ShardSupervisor:
    """Runs shards on supervised workers with timeout/retry/quarantine.

    The supervisor owns each worker process individually, so one dead
    or hung worker never takes the pool with it: a shard that exceeds
    its deadline gets its worker killed and replaced, a worker that
    dies mid-shard is detected via pipe EOF and its shard
    re-dispatched, and a shard that exhausts its attempt budget is
    quarantined while the rest of the run proceeds.
    """

    def __init__(
        self,
        state: EngineState,
        workers: int,
        resilience: ResilienceConfig,
        faults: FaultPlan,
    ) -> None:
        self._state = state
        self._resilience = resilience
        self._faults = faults
        self._ctx = mp.get_context()
        self._workers = [self._spawn() for _ in range(workers)]
        # Per-run state, shared by run() and _fail_attempt().
        self._pending: list[tuple[float, int]] = []
        self._attempts: dict[int, int] = {}
        self._results: dict[int, ShardOutcome] = {}

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._state, self._faults),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        return _Worker(process=process, conn=parent_conn)

    def _replace(self, worker: _Worker) -> None:
        """Kill ``worker`` and start a fresh one in its place."""
        self._workers.remove(worker)
        worker.destroy()
        self._workers.append(self._spawn())

    def shutdown(self) -> None:
        for worker in self._workers:
            worker.destroy()
        self._workers = []

    # -- attempt bookkeeping -------------------------------------------

    def _fail_attempt(self, shard: int, code: str, message: str) -> None:
        failed = self._attempts[shard] = self._attempts.get(shard, 0) + 1
        if failed >= self._resilience.max_attempts:
            self._results[shard] = _quarantine_outcome(
                self._state, shard, code, message, failed
            )
            return
        not_before = time.monotonic() + self._resilience.backoff_delay(failed)
        heapq.heappush(self._pending, (not_before, shard))

    # -- main loop ------------------------------------------------------

    def run(self, shards: Sequence[int]) -> Iterator[ShardOutcome]:
        """Yield a terminal :class:`ShardOutcome` per shard, in order."""
        order = list(shards)
        pending, attempts, results = self._pending, self._attempts, self._results
        # A heap of (not-before time, shard): its top is the next shard
        # to dispatch, lowest index first among those ready.
        pending.extend((0.0, s) for s in order)
        heapq.heapify(pending)
        yield_at = 0

        while yield_at < len(order):
            now = time.monotonic()
            # Dispatch eligible shards (lowest index first) to idle workers.
            for worker in [w for w in self._workers if not w.busy]:
                if not pending or pending[0][0] > now:
                    break
                _, shard = heapq.heappop(pending)
                try:
                    worker.dispatch(
                        shard,
                        attempts.get(shard, 0),
                        self._resilience.shard_timeout,
                    )
                except OSError:  # worker died while idle — replace it
                    self._replace(worker)
                    heapq.heappush(pending, (now, shard))

            # Surface every terminally-resolved shard in shard order.
            while yield_at < len(order) and order[yield_at] in results:
                yield results.pop(order[yield_at])
                yield_at += 1
            if yield_at >= len(order):
                break

            # Wait for the next event: a result, a deadline, or backoff
            # expiry that frees a pending shard for an idle worker.
            busy = [w for w in self._workers if w.busy]
            wakeups = [w.deadline for w in busy if w.deadline is not None]
            if pending and any(not w.busy for w in self._workers):
                wakeups.append(pending[0][0])
            timeout = None
            if wakeups:
                timeout = max(0.0, min(wakeups) - time.monotonic())
            ready_conns = (
                _conn_wait([w.conn for w in busy], timeout) if busy else []
            )

            for worker in list(self._workers):
                if worker.conn not in ready_conns:
                    continue
                shard = worker.shard
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-shard (e.g. SIGKILL). Replace it.
                    self._replace(worker)
                    self._fail_attempt(
                        shard,
                        E_WORKER_DIED,
                        f"worker process died while running shard {shard}",
                    )
                    continue
                worker.clear()
                if message[0] == "ok":
                    _, shard_index, attempt, pairs, timings = message
                    results[shard_index] = ShardOutcome(
                        shard_index,
                        OUTCOME_OK,
                        pairs=pairs,
                        timings=timings,
                        attempts=attempt + 1,
                    )
                else:
                    _, shard_index, _attempt, detail = message
                    self._fail_attempt(shard_index, E_SHARD_CRASH, detail)

            # Enforce per-shard deadlines: kill and replace the worker,
            # charge the shard one failed attempt.
            now = time.monotonic()
            for worker in list(self._workers):
                if not worker.busy or worker.deadline is None:
                    continue
                if worker.conn in ready_conns or now < worker.deadline:
                    continue
                shard = worker.shard
                self._replace(worker)
                self._fail_attempt(
                    shard,
                    E_SHARD_TIMEOUT,
                    f"shard {shard} exceeded "
                    f"{self._resilience.shard_timeout:g}s timeout",
                )


def _quarantine_outcome(
    state: EngineState, shard: int, code: str, message: str, attempts: int
) -> ShardOutcome:
    schema, template = state.shard_coords(shard)
    failure = ShardFailure(
        shard_index=shard,
        schema_name=schema.name,
        template_id=template.tid,
        seed_entropy=state.seed,
        seed_spawn_key=(shard,),
        code=code,
        message=message,
        attempts=attempts,
    )
    return ShardOutcome(
        shard, OUTCOME_QUARANTINED, attempts=attempts, failure=failure
    )


class SynthesisEngine:
    """Shards corpus synthesis by (schema, template) and merges stably."""

    def __init__(
        self,
        schemas: Schema | Sequence[Schema],
        config: GenerationConfig | None = None,
        templates: Sequence[SeedTemplate] = SEED_TEMPLATES,
        ppdb: ParaphraseDatabase | None = None,
        seed: int = 0,
        apply_lemmatizer: bool = True,
        pos_aware_dropout: bool = False,
    ) -> None:
        if isinstance(schemas, Schema):
            schemas = [schemas]
        if not schemas:
            raise GenerationError("no schemas supplied")
        self.state = EngineState(
            schemas=tuple(schemas),
            config=config or GenerationConfig(),
            templates=tuple(templates),
            ppdb=ppdb or ParaphraseDatabase(),
            seed=seed,
            apply_lemmatizer=apply_lemmatizer,
            pos_aware_dropout=pos_aware_dropout,
        )
        if not self.state.templates:
            raise GenerationError("no seed templates supplied")

    @property
    def shard_count(self) -> int:
        return self.state.shard_count

    def iter_outcomes(
        self,
        workers: int = 0,
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan = NO_FAULTS,
        skip: frozenset[int] | set[int] = frozenset(),
    ) -> Iterator[ShardOutcome]:
        """Fault-tolerant shard execution: one terminal outcome per shard.

        Yields a :class:`ShardOutcome` for every shard not in ``skip``,
        in ascending shard order (the order the checkpointed writer
        commits them).  A shard that crashes is retried with
        exponential backoff up to ``resilience.max_attempts`` times and
        then **quarantined** — reported as a failure outcome naming its
        (schema, template, seed) triple — rather than aborting the run.
        With ``workers >= 1`` shards run on individually supervised
        worker processes: a hung shard is killed at
        ``resilience.shard_timeout`` and a dead worker is detected and
        replaced, its shard re-dispatched; no more workers are started
        than there are shards to run.  The inline path (``workers=0``)
        retries and quarantines crashes but cannot preempt hangs or
        survive process death.

        Retried shards rerun with identical RNG streams, so for any
        fault plan that eventually lets every shard succeed the merged
        corpus is bit-identical to a fault-free run.
        """
        resilience = resilience or ResilienceConfig()
        shards = [i for i in range(self.state.shard_count) if i not in skip]
        if workers <= 0 or not shards:
            for shard_index in shards:
                yield self._run_inline(shard_index, resilience, faults)
            return
        supervisor = _ShardSupervisor(
            self.state, min(workers, len(shards)), resilience, faults
        )
        try:
            yield from supervisor.run(shards)
        finally:
            supervisor.shutdown()

    def _run_inline(
        self,
        shard_index: int,
        resilience: ResilienceConfig,
        faults: FaultPlan,
    ) -> ShardOutcome:
        failed = 0
        while True:
            try:
                pairs, timings = synthesize_shard(
                    self.state, shard_index, attempt=failed, faults=faults
                )
            except Exception as exc:  # noqa: BLE001 — retried/quarantined
                detail = traceback.format_exception_only(type(exc), exc)[-1]
                failed += 1
                if failed >= resilience.max_attempts:
                    return _quarantine_outcome(
                        self.state,
                        shard_index,
                        E_SHARD_CRASH,
                        detail.strip(),
                        failed,
                    )
                time.sleep(resilience.backoff_delay(failed))
                continue
            return ShardOutcome(
                shard_index,
                OUTCOME_OK,
                pairs=pairs,
                timings=timings,
                attempts=failed + 1,
            )

    def iter_batches(
        self,
        workers: int = 0,
        recorder=None,
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan = NO_FAULTS,
        skip: frozenset[int] | set[int] = frozenset(),
        seen: set[tuple[str, str]] | None = None,
    ) -> Iterator[tuple[ShardOutcome, list[TrainingPair]]]:
        """Each shard's outcome with its merged batch, in shard order.

        The one merge step over :meth:`iter_outcomes`: a shard's pairs
        are deduplicated against ``seen``, the keys of everything
        merged so far (a resumed run passes the keys of the prefix it
        kept), so concatenating the batches gives the canonical corpus.
        ``recorder`` (a :class:`repro.perf.PerfRecorder`) aggregates
        the workers' stage timings and the merge time when provided.
        A quarantined shard comes with an empty batch.
        """
        seen = set() if seen is None else seen
        for outcome in self.iter_outcomes(workers, resilience, faults, skip):
            if not outcome.ok:
                yield outcome, []
            elif recorder is None:
                yield outcome, dedupe_pairs(outcome.pairs, seen)
            else:
                for stage, seconds in outcome.timings.items():
                    recorder.add(stage, seconds, items=len(outcome.pairs))
                with recorder.stage("merge") as stats:
                    batch = dedupe_pairs(outcome.pairs, seen)
                    stats.items += len(batch)
                yield outcome, batch
