"""Checkpointed, crash-resumable corpus synthesis.

A multi-hour generation run that dies at 92% and restarts from zero is
the worst operational failure mode a corpus-is-the-system pipeline can
have.  This module makes synthesis **crash-safe**: streaming corpus
output is paired with a shard-level progress manifest
(``corpus.manifest.json`` for ``corpus.jsonl``) so an interrupted run
resumes exactly where it stopped — and, because shard RNG streams are
pure functions of (seed, shard index), the resumed corpus is
**bit-identical** to one produced by an uninterrupted run.

The commit protocol, per shard (shards are committed in ascending
shard order — the canonical corpus order):

1. the shard's globally-deduplicated pairs are appended to the output
   file and flushed;
2. a shard record ``{index, pairs, bytes_end, sha256, seed}`` is added
   to the manifest, where ``sha256`` is the hash of the **entire file
   prefix** up to ``bytes_end``;
3. the manifest is written to a temporary sibling and atomically
   renamed (``os.replace``).

The manifest is the commit record: on ``--resume``, the longest file
prefix whose cumulative hash matches a shard record is kept (anything
beyond it — a partial shard write, a torn line — is truncated away),
the global dedupe key set is rebuilt from the kept prefix, and
generation continues from the first unfinished shard.  A manifest whose
run fingerprint (seed, config, schemas, templates, format) differs from
the current invocation is refused with
:class:`~repro.errors.ManifestMismatchError` rather than silently
splicing two different corpora.

Quarantined shards (see :meth:`SynthesisEngine.iter_outcomes`) are
recorded in the manifest's ``failed_shards`` report and are **not**
retried by ``--resume``: appending a previously-skipped shard's pairs
after later shards would break the canonical order.  To retry
quarantined shards, regenerate from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.config import ResilienceConfig
from repro.core.faults import NO_FAULTS, PARTIAL_WRITE, WRITER_KINDS, FaultPlan
from repro.core.parallel import EngineState, ShardFailure, SynthesisEngine
from repro.core.templates import TrainingPair
from repro.errors import (
    CorpusIntegrityError,
    GenerationError,
    GracefulExit,
    ManifestMismatchError,
)

MANIFEST_VERSION = 1

#: Adaptive commit cadence (``flush_every=0``): the manifest is
#: committed when at least this much wall-clock has passed since the
#: last commit.  Bounds work lost to a crash by ~this many seconds
#: while keeping fsync/rename cost off the per-shard hot path.
FLUSH_INTERVAL_SECONDS = 0.5

#: Run statuses recorded in the manifest.
STATUS_IN_PROGRESS = "in-progress"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"
STATUS_QUARANTINE = "complete-with-quarantine"


def manifest_path_for(output: str | Path) -> Path:
    """``corpus.jsonl`` -> ``corpus.manifest.json`` (same directory)."""
    output = Path(output)
    return output.with_name(f"{output.stem}.manifest.json")


def run_fingerprint(state: EngineState, fmt: str) -> str:
    """Hash of everything that determines the corpus bytes.

    Two invocations share a fingerprint iff an uninterrupted run would
    write byte-identical output files — the precondition for resuming
    one run's file under another run's engine.
    """
    payload = {
        "seed": state.seed,
        "format": fmt,
        "schemas": [schema.name for schema in state.schemas],
        "templates": [template.tid for template in state.templates],
        "config": state.config.to_dict(),
        "apply_lemmatizer": state.apply_lemmatizer,
        "pos_aware_dropout": state.pos_aware_dropout,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _atomic_json_dump(payload: dict, path: Path) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _keys_from_lines(text: str, fmt: str) -> list[tuple[str, str]]:
    """Dedupe keys of every pair serialized in ``text`` (one per line)."""
    keys: list[tuple[str, str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if fmt == "jsonl":
            record = json.loads(line)
            keys.append((record["nl"], record["sql"]))
        else:  # tsv
            nl, _, sql = line.partition("\t")
            keys.append((nl, sql))
    return keys


@dataclass
class CorpusManifest:
    """In-memory view of the shard-progress manifest."""

    fingerprint: str
    seed: int
    fmt: str
    shard_count: int
    status: str = STATUS_IN_PROGRESS
    shards: list[dict] = field(default_factory=list)  # commit order
    failed_shards: list[dict] = field(default_factory=list)
    pairs_written: int = 0

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "format": self.fmt,
            "shard_count": self.shard_count,
            "status": self.status,
            "pairs_written": self.pairs_written,
            "shards": self.shards,
            "failed_shards": self.failed_shards,
        }

    def save(self, path: Path) -> None:
        _atomic_json_dump(self.to_dict(), path)

    @classmethod
    def load(cls, path: Path) -> "CorpusManifest":
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorpusIntegrityError(
                f"cannot read manifest {path}: {exc}"
            ) from exc
        if raw.get("version") != MANIFEST_VERSION:
            raise ManifestMismatchError(
                f"manifest {path} has version {raw.get('version')!r}, "
                f"expected {MANIFEST_VERSION}"
            )
        return cls(
            fingerprint=raw.get("fingerprint", ""),
            seed=raw.get("seed", 0),
            fmt=raw.get("format", "jsonl"),
            shard_count=raw.get("shard_count", 0),
            status=raw.get("status", STATUS_IN_PROGRESS),
            shards=list(raw.get("shards", [])),
            failed_shards=list(raw.get("failed_shards", [])),
            pairs_written=raw.get("pairs_written", 0),
        )


@dataclass
class ResumeState:
    """What survived validation of an existing (file, manifest) pair."""

    completed: dict[int, dict]  # shard index -> kept shard record
    quarantined: list[dict]
    keep_bytes: int
    hasher: "hashlib._Hash"
    seen: set[tuple[str, str]]
    pairs_written: int
    dropped_records: int  # manifest records invalidated by a bad prefix


def _validate_output_prefix(
    output: Path, manifest: CorpusManifest
) -> ResumeState:
    """Keep the longest output prefix the manifest vouches for.

    Walks shard records in commit order, re-hashing the file
    incrementally; the first record whose cumulative hash (or length)
    disagrees with the file invalidates itself and everything after it
    — those shards simply regenerate.  Also rebuilds the global dedupe
    key set from the kept prefix so a resumed run never re-admits a
    pair a completed shard already emitted.
    """
    completed: dict[int, dict] = {}
    hasher = hashlib.sha256()
    seen: set[tuple[str, str]] = set()
    keep_bytes = 0
    pairs = 0
    dropped = 0
    try:
        handle = open(output, "rb")
    except FileNotFoundError:
        # Manifest without output: every shard regenerates.
        return ResumeState(
            {}, list(manifest.failed_shards), 0, hasher, set(), 0,
            len(manifest.shards),
        )
    with handle:
        position = 0
        for index, record in enumerate(manifest.shards):
            span = record["bytes_end"] - position
            data = handle.read(span) if span >= 0 else b""
            if span < 0 or len(data) < span:
                dropped = len(manifest.shards) - index
                break
            candidate = hasher.copy()
            candidate.update(data)
            if candidate.hexdigest() != record["sha256"]:
                dropped = len(manifest.shards) - index
                break
            hasher = candidate
            position = record["bytes_end"]
            keep_bytes = position
            pairs += record["pairs"]
            seen.update(
                _keys_from_lines(data.decode("utf-8"), manifest.fmt)
            )
            completed[record["index"]] = record
    return ResumeState(
        completed,
        list(manifest.failed_shards),
        keep_bytes,
        hasher,
        seen,
        pairs,
        dropped,
    )


@dataclass
class GenerationReport:
    """Outcome summary of one checkpointed generation run."""

    output_path: Path
    manifest_path: Path
    status: str
    pairs_written: int  # total pairs in the output file
    new_pairs: int  # pairs written by *this* invocation
    completed_shards: int  # shards committed by this invocation
    resumed_shards: int  # shards skipped thanks to the checkpoint
    quarantined: list[ShardFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_COMPLETE


class CheckpointedWriter:
    """Drives fault-tolerant synthesis into a checkpointed output file."""

    def __init__(
        self,
        engine: SynthesisEngine,
        output: str | Path,
        fmt: str = "jsonl",
        resilience: ResilienceConfig | None = None,
        faults: FaultPlan = NO_FAULTS,
        flush_every: int = 0,
    ) -> None:
        from repro.core.corpus_io import LINE_ENCODERS

        if fmt not in LINE_ENCODERS:
            raise GenerationError(f"unknown corpus format {fmt!r}")
        self.engine = engine
        self.output = Path(output)
        self.fmt = fmt
        self.encode: Callable[[TrainingPair], str] = LINE_ENCODERS[fmt]
        self.resilience = resilience or ResilienceConfig()
        self.faults = faults
        #: > 0: commit the manifest every N shards.  0 (default):
        #: adaptive — commit when :data:`FLUSH_INTERVAL_SECONDS` has
        #: passed since the last commit.  Either way the manifest is
        #: always committed on quarantine, interrupt, and completion;
        #: uncommitted shards simply regenerate on resume, so the
        #: cadence trades fsync overhead against redone work, never
        #: correctness.
        self.flush_every = max(0, flush_every)
        self.manifest_path = manifest_path_for(self.output)
        self.fingerprint = run_fingerprint(engine.state, fmt)

    # ------------------------------------------------------------------

    def _fresh_manifest(self) -> tuple[CorpusManifest, ResumeState]:
        manifest = CorpusManifest(
            fingerprint=self.fingerprint,
            seed=self.engine.state.seed,
            fmt=self.fmt,
            shard_count=self.engine.shard_count,
        )
        resume = ResumeState({}, [], 0, hashlib.sha256(), set(), 0, 0)
        return manifest, resume

    def _resume_state(self) -> tuple[CorpusManifest, ResumeState]:
        """Load + validate an existing checkpoint, or start fresh."""
        if not self.manifest_path.exists():
            return self._fresh_manifest()
        manifest = CorpusManifest.load(self.manifest_path)
        if manifest.fingerprint != self.fingerprint:
            raise ManifestMismatchError(
                f"checkpoint {self.manifest_path} was written by a run with "
                "different seed/config/schemas/templates/format; refusing to "
                "resume (remove the manifest to regenerate from scratch)"
            )
        resume = _validate_output_prefix(self.output, manifest)
        manifest.shards = [
            record
            for record in manifest.shards
            if record["index"] in resume.completed
        ]
        manifest.pairs_written = resume.pairs_written
        # A quarantined shard can be retried iff no *later* shard has
        # already been committed — otherwise its pairs would append out
        # of canonical order.  Retryable ones leave the skip list (and
        # the report; they re-enter it if they fail again).
        max_done = max(resume.completed, default=-1)
        sticky = [
            record
            for record in resume.quarantined
            if record["shard_index"] < max_done
        ]
        resume.quarantined = sticky
        manifest.failed_shards = list(sticky)
        return manifest, resume

    # ------------------------------------------------------------------

    def run(
        self,
        workers: int = 0,
        resume: bool = False,
        recorder=None,
        on_batch: Callable[[list[TrainingPair]], None] | None = None,
    ) -> GenerationReport:
        """Generate (or finish generating) the corpus file.

        Commits shards in canonical order; on ``KeyboardInterrupt`` /
        :class:`~repro.errors.GracefulExit` the manifest is flushed with
        status ``interrupted`` before the exception propagates, so the
        run is resumable.  Returns a :class:`GenerationReport` whose
        ``status`` distinguishes ``complete`` from
        ``complete-with-quarantine``.
        """
        if resume:
            manifest, state = self._resume_state()
        else:
            manifest, state = self._fresh_manifest()

        quarantined = [
            _failure_from_dict(record) for record in state.quarantined
        ]
        skip = set(state.completed) | {
            failure.shard_index for failure in quarantined
        }
        hasher = state.hasher
        position = state.keep_bytes
        new_pairs = 0
        committed = 0
        last_commit = time.monotonic()

        # Truncate away any bytes the manifest does not vouch for, then
        # append.  (On a fresh run this truncates to zero.)
        with open(self.output, "ab") as handle:
            handle.truncate(position)
            manifest.status = STATUS_IN_PROGRESS
            manifest.save(self.manifest_path)
            try:
                for outcome, batch in self.engine.iter_batches(
                    workers=workers,
                    recorder=recorder,
                    resilience=self.resilience,
                    faults=self.faults,
                    skip=frozenset(skip),
                    seen=state.seen,
                ):
                    if not outcome.ok:
                        quarantined.append(outcome.failure)
                        manifest.failed_shards.append(outcome.failure.to_dict())
                        manifest.save(self.manifest_path)
                        continue
                    if on_batch is not None:
                        on_batch(batch)
                    data = "".join(self.encode(pair) for pair in batch).encode(
                        "utf-8"
                    )
                    self._maybe_partial_write(outcome.shard_index, handle, data)
                    handle.write(data)
                    hasher.update(data)
                    position += len(data)
                    new_pairs += len(batch)
                    committed += 1
                    manifest.pairs_written = state.pairs_written + new_pairs
                    manifest.shards.append(
                        {
                            "index": outcome.shard_index,
                            "pairs": len(batch),
                            "bytes_end": position,
                            "sha256": hasher.hexdigest(),
                            "seed": {
                                "entropy": self.engine.state.seed,
                                "spawn_key": [outcome.shard_index],
                            },
                            "attempts": outcome.attempts,
                        }
                    )
                    boundary_fault = self.faults.find(
                        WRITER_KINDS - {PARTIAL_WRITE},
                        outcome.shard_index,
                        *self._shard_names(outcome.shard_index),
                        attempt=0,
                    )
                    due = boundary_fault is not None or (
                        committed % self.flush_every == 0
                        if self.flush_every > 0
                        else time.monotonic() - last_commit
                        >= FLUSH_INTERVAL_SECONDS
                    )
                    if due:
                        self._checkpoint(handle, manifest, recorder)
                        last_commit = time.monotonic()
                    if boundary_fault is not None:
                        raise GracefulExit(
                            f"injected interrupt after shard "
                            f"{outcome.shard_index}"
                        )
            except (KeyboardInterrupt, GracefulExit, SystemExit):
                manifest.status = STATUS_INTERRUPTED
                self._checkpoint(handle, manifest, recorder)
                raise
            manifest.status = (
                STATUS_QUARANTINE if quarantined else STATUS_COMPLETE
            )
            self._checkpoint(handle, manifest, recorder)

        return GenerationReport(
            output_path=self.output,
            manifest_path=self.manifest_path,
            status=manifest.status,
            pairs_written=manifest.pairs_written,
            new_pairs=new_pairs,
            completed_shards=committed,
            resumed_shards=len(state.completed),
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------

    def _shard_names(self, shard_index: int) -> tuple[str, str]:
        schema, template = self.engine.state.shard_coords(shard_index)
        return schema.name, template.tid

    def _checkpoint(self, handle, manifest: CorpusManifest, recorder) -> None:
        """Flush corpus bytes to disk, then commit the manifest."""
        with recorder.stage("checkpoint") if recorder is not None else nullcontext():
            handle.flush()
            os.fsync(handle.fileno())
            manifest.save(self.manifest_path)

    def _maybe_partial_write(self, shard_index: int, handle, data: bytes) -> None:
        """PARTIAL_WRITE fault: emit a torn prefix and die mid-commit."""
        if not self.faults:
            return
        spec = self.faults.find(
            frozenset({PARTIAL_WRITE}),
            shard_index,
            *self._shard_names(shard_index),
            attempt=0,
        )
        if spec is None:
            return
        handle.write(data[: max(1, len(data) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
        os._exit(1)


def _failure_from_dict(record: dict) -> ShardFailure:
    seed = record.get("seed", {})
    return ShardFailure(
        shard_index=record["shard_index"],
        schema_name=record.get("schema", ""),
        template_id=record.get("template_id", ""),
        seed_entropy=seed.get("entropy", 0),
        seed_spawn_key=tuple(seed.get("spawn_key", ())),
        code=record.get("code", ""),
        message=record.get("message", ""),
        attempts=record.get("attempts", 0),
    )


def generate_checkpointed(
    engine: SynthesisEngine,
    output: str | Path,
    fmt: str = "jsonl",
    workers: int = 0,
    resume: bool = False,
    resilience: ResilienceConfig | None = None,
    faults: FaultPlan = NO_FAULTS,
    recorder=None,
    on_batch: Callable[[list[TrainingPair]], None] | None = None,
    flush_every: int = 0,
) -> GenerationReport:
    """Functional front door for :class:`CheckpointedWriter`."""
    writer = CheckpointedWriter(
        engine,
        output,
        fmt=fmt,
        resilience=resilience,
        faults=faults,
        flush_every=flush_every,
    )
    return writer.run(
        workers=workers, resume=resume, recorder=recorder, on_batch=on_batch
    )
