"""Tests for the sharded synthesis engine and its determinism contract.

The contract under test is the one DESIGN.md documents: for a fixed
(seed, config, schemas, templates), the corpus is a pure function of
those inputs — worker count, process boundaries, and streaming vs
materializing must never change a single pair or its position.
"""

import itertools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    GenerationConfig,
    SynthesisEngine,
    TrainingPipeline,
    dedupe_pairs,
    synthesize_shard,
)
from repro.core import parallel
from repro.core.parallel import EngineState
from repro.core.seed_templates import SEED_TEMPLATES
from repro.errors import E_SHARD_CRASH, GenerationError


def corpus_fingerprint(corpus):
    """Everything that identifies a pair, including its position."""
    return [
        (p.key(), p.template_id, p.family, p.schema_name, p.augmentation)
        for p in corpus
    ]


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_sequential_patients(
        self, patients, small_config, workers
    ):
        sequential = TrainingPipeline(patients, small_config, seed=11).generate(
            workers=0
        )
        parallel = TrainingPipeline(patients, small_config, seed=11).generate(
            workers=workers
        )
        assert corpus_fingerprint(parallel) == corpus_fingerprint(sequential)

    def test_parallel_equals_sequential_multi_schema(
        self, patients, geography, small_config
    ):
        schemas = [patients, geography]
        sequential = TrainingPipeline(schemas, small_config, seed=5).generate(
            workers=0
        )
        parallel = TrainingPipeline(schemas, small_config, seed=5).generate(
            workers=2
        )
        assert corpus_fingerprint(parallel) == corpus_fingerprint(sequential)

    def test_parallel_equals_sequential_custom_config(self, patients, geography):
        config = GenerationConfig(
            size_slotfills=3,
            groupby_p=0.5,
            join_boost=1.5,
            size_para=1,
            num_para=2,
            num_missing=1,
            rand_drop_p=0.2,
        )
        schemas = [patients, geography]
        sequential = TrainingPipeline(schemas, config, seed=21).generate(workers=0)
        parallel = TrainingPipeline(schemas, config, seed=21).generate(workers=2)
        assert corpus_fingerprint(parallel) == corpus_fingerprint(sequential)

    def test_constructor_worker_count_is_execution_only(
        self, patients, small_config
    ):
        inline = TrainingPipeline(patients, small_config, seed=9).generate()
        pooled = TrainingPipeline(
            patients, small_config, seed=9, workers=2
        ).generate()
        assert corpus_fingerprint(pooled) == corpus_fingerprint(inline)

    def test_different_seeds_differ(self, patients, small_config):
        a = TrainingPipeline(patients, small_config, seed=1).generate()
        b = TrainingPipeline(patients, small_config, seed=2).generate()
        assert corpus_fingerprint(a) != corpus_fingerprint(b)


class TestStreaming:
    def test_stream_concatenation_equals_generate(self, patients, small_config):
        pipeline = TrainingPipeline(patients, small_config, seed=4)
        streamed = list(
            itertools.chain.from_iterable(pipeline.generate_stream(workers=0))
        )
        corpus = TrainingPipeline(patients, small_config, seed=4).generate()
        assert [p.key() for p in streamed] == [p.key() for p in corpus.pairs]

    def test_stream_batches_are_globally_deduplicated(
        self, patients, small_config
    ):
        pipeline = TrainingPipeline(patients, small_config, seed=4)
        keys = [
            p.key()
            for batch in pipeline.generate_stream(workers=0)
            for p in batch
        ]
        assert len(keys) == len(set(keys))

    def test_stream_yields_no_empty_batches(self, patients, small_config):
        pipeline = TrainingPipeline(patients, small_config, seed=4)
        for batch in pipeline.generate_stream(workers=0):
            assert batch


class TestEngine:
    def test_shard_count(self, patients, geography):
        engine = SynthesisEngine([patients, geography], GenerationConfig())
        assert engine.shard_count == 2 * len(SEED_TEMPLATES)

    def test_shard_coords_are_schema_major(self, patients, geography):
        state = SynthesisEngine(
            [patients, geography], GenerationConfig()
        ).state
        schema, template = state.shard_coords(0)
        assert schema.name == patients.name
        assert template.tid == SEED_TEMPLATES[0].tid
        schema, _ = state.shard_coords(len(SEED_TEMPLATES))
        assert schema.name == geography.name

    def test_shard_is_reproducible_in_isolation(self, patients, small_config):
        state = EngineState(
            schemas=(patients,),
            config=small_config,
            templates=tuple(SEED_TEMPLATES),
            ppdb=SynthesisEngine(patients).state.ppdb,
            seed=8,
        )
        first, _ = synthesize_shard(state, 3)
        second, _ = synthesize_shard(state, 3)
        assert [p.key() for p in first] == [p.key() for p in second]

    def test_shard_timings_reported(self, patients, small_config):
        state = SynthesisEngine(patients, small_config, seed=0).state
        _, timings = synthesize_shard(state, 0)
        assert set(timings) == {"generate", "augment", "lemmatize"}
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_recorder_collects_stages(self, patients, small_config):
        from repro.perf import PerfRecorder

        recorder = PerfRecorder()
        corpus = TrainingPipeline(patients, small_config, seed=2).generate(
            recorder=recorder
        )
        report = recorder.report()
        for stage in ("generate", "augment", "lemmatize", "merge"):
            assert stage in report
        # Every merged pair is accounted for by the merge stage.
        assert report["merge"]["items"] == len(corpus)

    def test_rejects_empty_inputs(self, patients):
        with pytest.raises(GenerationError):
            SynthesisEngine([], GenerationConfig())
        with pytest.raises(GenerationError):
            SynthesisEngine(patients, GenerationConfig(), templates=())


class TestSingleRunner:
    """Every shard runs through ``iter_outcomes``, whatever the caller."""

    FAILING = 3

    @pytest.fixture
    def flaky(self, monkeypatch):
        """Make shard ``FAILING`` raise on the attempts it is given."""
        real = parallel.synthesize_shard

        def install(failing_attempts):
            def synthesize(state, shard_index, attempt=0, faults=parallel.NO_FAULTS):
                if shard_index == self.FAILING and attempt in failing_attempts:
                    raise RuntimeError("poisoned shard")
                return real(state, shard_index, attempt=attempt, faults=faults)

            monkeypatch.setattr(parallel, "synthesize_shard", synthesize)

        return install

    def test_a_shard_failing_every_attempt_stops_the_stream(
        self, patients, small_config, flaky
    ):
        pipeline = TrainingPipeline(patients, small_config, seed=6)
        earlier = [
            batch
            for outcome, batch in pipeline._engine().iter_batches()
            if outcome.shard_index < self.FAILING and batch
        ]
        flaky(failing_attempts=range(99))
        stream = pipeline.generate_stream(workers=0)
        yielded = []
        with pytest.raises(GenerationError) as excinfo:
            for batch in stream:
                yielded.append(batch)
        assert yielded == earlier
        error = excinfo.value
        assert error.code == E_SHARD_CRASH
        template = SEED_TEMPLATES[self.FAILING]
        assert f"schema={patients.name}" in str(error)
        assert f"template={template.tid}" in str(error)
        assert "poisoned shard" in str(error)

    def test_a_shard_failing_once_is_retried_into_the_same_corpus(
        self, patients, small_config, flaky
    ):
        clean = TrainingPipeline(patients, small_config, seed=6).generate()
        flaky(failing_attempts={0})
        retried = TrainingPipeline(patients, small_config, seed=6).generate()
        assert corpus_fingerprint(retried) == corpus_fingerprint(clean)

    @pytest.mark.parametrize("left", [0, 1])
    def test_supervisor_forks_no_more_workers_than_shards(
        self, patients, small_config, monkeypatch, left
    ):
        spawned = []
        real_spawn = parallel._ShardSupervisor._spawn

        def spy(supervisor):
            spawned.append(1)
            return real_spawn(supervisor)

        monkeypatch.setattr(parallel._ShardSupervisor, "_spawn", spy)
        engine = SynthesisEngine(patients, small_config)
        assert engine.shard_count == 99
        skip = set(range(engine.shard_count - left))
        outcomes = list(engine.iter_outcomes(workers=4, skip=skip))
        assert len(spawned) == left
        assert [o.ok for o in outcomes] == [True] * left


_ORPHAN_SCRIPT = """
import multiprocessing, time
from repro.core import GenerationConfig, SynthesisEngine
from repro.schema import patients_schema

engine = SynthesisEngine(patients_schema(), GenerationConfig(size_slotfills=2))
outcomes = engine.iter_outcomes(workers=2)
next(outcomes)
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(600)
"""


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_when_their_parent_is_killed():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        stdout=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 20
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


class TestDedupeHelper:
    def test_threads_seen_set_across_calls(self, patients, small_config):
        corpus = TrainingPipeline(patients, small_config, seed=1).generate()
        half = len(corpus.pairs) // 2
        seen = set()
        first = dedupe_pairs(corpus.pairs[:half], seen)
        second = dedupe_pairs(corpus.pairs, seen)
        assert [p.key() for p in first + second] == [
            p.key() for p in corpus.pairs
        ]

    def test_fresh_set_by_default(self, patients, small_config):
        corpus = TrainingPipeline(patients, small_config, seed=1).generate()
        assert dedupe_pairs(corpus.pairs) == corpus.pairs
        # A second call with no shared set sees everything again.
        assert dedupe_pairs(corpus.pairs) == corpus.pairs
