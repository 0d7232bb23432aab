"""ShardedService integration tests (ISSUE 8, tentpole).

Everything here runs real forked shard processes; the module-level
factories below are what ``ShardSpec`` pickles/inherits into the
children.  The acceptance properties under test:

* bit-identical ``ServingResponse.payload()`` vs a single-process
  service on the same workload;
* shard-exclusive cache keys and aggregate hit-rate parity with the
  single-process baseline;
* killing one shard mid-workload loses no accepted requests
  (respawn + re-dispatch), and a shard that keeps dying is
  quarantined with the stable ``E_WORKER_DIED`` code;
* rolling checkpoint reload completes with zero failed responses
  while traffic keeps flowing;
* SIGTERM to ``repro serve --replicas N`` drains every shard and
  exits 130;
* a SIGKILLed front door leaves no shard process running.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServingError
from repro.neural.base import TranslationModel
from repro.runtime import DBPal
from repro.serving import (
    ServingConfig,
    ShardSpec,
    ShardedConfig,
    ShardedService,
    TranslationService,
)
from tests.test_core_parallel import _running

pytestmark = pytest.mark.sharded

#: Mixed workload: repeated shapes (cache traffic), distinct shapes,
#: and one untranslatable question (structured-failure parity).
WORKLOAD = [
    "how many patients are there",
    "what is the average age of all patients",
    "show the name of every patient",
    "how many patients are there",
    "what is the maximum length of stay of all patients",
    "colorless green ideas sleep furiously",
    "what is the average age of all patients",
    "list the diagnosis of each patient",
    "how many patients are there",
    "what is the minimum age of all patients",
] * 3


def _prebuilt(nlidb: DBPal) -> DBPal:
    """Shard factory: each forked child inherits its own CoW copy."""
    return nlidb


class _ConstModel(TranslationModel):
    """Deterministic stand-in model; ``tag`` tells generations apart."""

    def __init__(self, tag: str = "v1") -> None:
        self.tag = tag

    def fit(self, pairs, **kwargs):
        pass

    def translate(self, nl):
        return "SELECT COUNT(*) FROM patients"

    def translate_batch(self, nls):
        return [self.translate(nl) for nl in nls]


class _ExitingModel(_ConstModel):
    """Hard-kills its process on the first model call (SIGKILL shape)."""

    def translate_batch(self, nls):
        os._exit(1)


def _const_replica(database) -> DBPal:
    return DBPal(database, _ConstModel())


def _exiting_replica(database) -> DBPal:
    return DBPal(database, _ExitingModel())


def _make_v2_model() -> _ConstModel:
    """Module-level loader for rolling_reload (runs inside each shard)."""
    return _ConstModel(tag="v2")


def _spec(retrieval_nlidb, **config_kwargs) -> ShardSpec:
    defaults = dict(workers=2, request_timeout=15.0)
    defaults.update(config_kwargs)
    return ShardSpec(
        _prebuilt, (retrieval_nlidb,), config=ServingConfig(**defaults)
    )


class TestPayloadIdentity:
    def test_sharded_payloads_match_single_process(self, retrieval_nlidb):
        with TranslationService(
            retrieval_nlidb, ServingConfig(workers=1, request_timeout=15.0)
        ) as single:
            reference = [single.translate(q).payload() for q in WORKLOAD]
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            observed = [sharded.translate(q).payload() for q in WORKLOAD]
        assert observed == reference

    def test_responses_are_restamped_by_the_front_door(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            responses = [
                sharded.translate("how many patients are there")
                for _ in range(3)
            ]
        # Front-door request ids are globally unique and monotonic even
        # though each shard numbers its own requests from 1.
        ids = [r.request_id for r in responses]
        assert ids == sorted(ids) and len(set(ids)) == 3
        assert all(r.latency > 0 for r in responses)

    def test_query_executes_through_the_cluster(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            rows = sharded.query("how many patients are there", max_rows=5)
        assert rows and "COUNT(*)" in rows[0]


class TestCacheRouting:
    def test_zero_duplicate_keys_and_hit_rate_parity(self, retrieval_nlidb):
        questions = [q for q in WORKLOAD if "colorless" not in q]
        with TranslationService(
            retrieval_nlidb, ServingConfig(workers=1, request_timeout=15.0)
        ) as single:
            for question in questions:
                single.translate(question)
            baseline = single.stats()["cache_hit_rate"]
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            for question in questions:
                sharded.translate(question)
            stats = sharded.stats()
            keys_by_shard = sharded.cache_keys()
        all_keys = [k for keys in keys_by_shard.values() for k in keys]
        # Shard-exclusive: the consistent-hash ring puts each
        # anonymized key on exactly one shard, so the union of the
        # shard caches contains no duplicates.
        assert len(all_keys) == len(set(all_keys))
        assert sum(len(k) for k in keys_by_shard.values()) == len(set(all_keys))
        # Both shards actually hold keys (the workload spans shapes).
        assert sum(1 for keys in keys_by_shard.values() if keys) == 2
        # Aggregate hit rate within 2% of the single-process baseline
        # on the same sequential workload (exact-ish: each key's one
        # cold miss lands on exactly one shard either way).
        aggregate = stats["cluster"]["cache_hit_rate"]
        assert abs(aggregate - baseline) <= 0.02, (aggregate, baseline)

    def test_merged_stats_shape(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            for question in WORKLOAD[:10]:
                sharded.translate(question)
            stats = sharded.stats()
        assert stats["replicas"] == 2
        assert set(stats["shards"]) == {"shard-0", "shard-1"}
        cluster = stats["cluster"]
        assert cluster["shards_reporting"] == 2
        # Cluster requests are the sum over shards; the front door saw
        # every request exactly once.
        assert cluster["requests_total"] == sum(
            snap["requests_total"] for snap in stats["shards"].values()
        )
        assert stats["front"]["requests_total"] == 10
        # Merged percentiles come from pooled samples, not averaging.
        assert cluster["latency"]["samples"] == cluster["requests_total"]
        assert stats["ring"]["nodes"] == ["shard-0", "shard-1"]
        assert set(stats["stages_legend"]) == {"busy_seconds", "wall_seconds"}
        for stage in cluster["stages"].values():
            assert set(stage) >= {"busy_seconds", "wall_seconds"}
        import json

        json.dumps(stats)  # the whole merged view must be JSON-ready


class TestSupervision:
    def test_killed_shard_loses_no_accepted_requests(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            pids = sharded.shard_pids()
            futures = []
            for index, question in enumerate(WORKLOAD * 3):
                futures.append(sharded.submit(question))
                if index == 20:
                    os.kill(pids["shard-0"], signal.SIGKILL)
            responses = [f.result(timeout=30.0) for f in futures]
            stats = sharded.stats()
            pids_after = sharded.shard_pids()
        assert all(r.ok or r.status == "error" for r in responses)
        # Every *translatable* request was answered ok — the kill did
        # not surface as a lost or failed request.
        translatable = [
            r for r in responses if "colorless" not in r.nl
        ]
        assert all(r.ok for r in translatable)
        assert stats["supervisor"]["respawns"] >= 1
        assert stats["supervisor"]["failed_requests"] == 0
        assert stats["supervisor"]["quarantined"] == 0
        # The replacement shard runs under a fresh pid, same ring name.
        assert pids_after["shard-0"] != pids["shard-0"]

    def test_repeatedly_dying_shard_is_quarantined(self, patients_db):
        spec = ShardSpec(
            _exiting_replica,
            (patients_db,),
            config=ServingConfig(workers=1, request_timeout=15.0),
        )
        config = ShardedConfig(
            replicas=2, max_respawns=0, max_request_attempts=3
        )
        with ShardedService(spec, config) as sharded:
            response = sharded.translate("how many patients are there")
            stats = sharded.stats()
        # Every shard the request touched died on it; with
        # max_respawns=0 each death quarantines its shard, and the
        # request fails with the stable taxonomy code once the ring
        # is exhausted (or its attempts are).
        assert response.status == "error"
        assert response.failure is not None
        assert response.failure.code == "worker_died"
        assert response.failure.error_code == "E_WORKER_DIED"
        assert stats["supervisor"]["quarantined"] >= 1
        assert stats["supervisor"]["failed_requests"] >= 1
        quarantined = stats["ring"]["quarantined"]
        assert quarantined and all(n.startswith("shard-") for n in quarantined)

    def test_stop_drains_pending_requests(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        sharded = ShardedService(spec, ShardedConfig(replicas=2))
        with sharded:
            futures = [sharded.submit(q) for q in WORKLOAD]
        # stop() (via __exit__) waited for the in-flight requests: all
        # futures are resolved, none were abandoned.
        assert all(f.done() for f in futures)
        translatable = [
            f.result() for f in futures if "colorless" not in f.result().nl
        ]
        assert all(r.ok for r in translatable)

    def test_submit_after_stop_raises(self, retrieval_nlidb):
        spec = _spec(retrieval_nlidb)
        sharded = ShardedService(spec, ShardedConfig(replicas=2))
        with sharded:
            pass
        with pytest.raises(ServingError):
            sharded.submit("how many patients are there")


_ORPHAN_SCRIPT = """
import sys, time
from repro.db import populate
from repro.schema import patients_schema
from repro.serving import ShardSpec, ShardedConfig, ShardedService
from tests.test_serving_sharded import _const_replica

database = populate(patients_schema(), rows_per_table=30, seed=3)
config = ShardedConfig(replicas=int(sys.argv[1]))
service = ShardedService(ShardSpec(_const_replica, (database,)), config).start()
service.translate("how many patients are there")
print(*service.shard_pids().values(), flush=True)
time.sleep(600)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("replicas", [1, 2])
def test_shards_exit_when_their_front_door_is_killed(replicas):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(replicas)],
        stdout=subprocess.PIPE,
        text=True,
        env={
            "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}",
            "PATH": "/usr/bin:/bin",
        },
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert len(pids) == replicas
    deadline = time.monotonic() + 20
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


class TestRollingReload:
    def test_rolling_reload_zero_failed_responses(self, patients_db):
        spec = ShardSpec(
            _const_replica,
            (patients_db,),
            config=ServingConfig(workers=2, request_timeout=15.0),
        )
        with ShardedService(spec, ShardedConfig(replicas=2)) as sharded:
            stop = threading.Event()
            failures: list = []
            served = [0]

            def traffic() -> None:
                while not stop.is_set():
                    response = sharded.translate("how many patients are there")
                    if response.ok:
                        served[0] += 1
                    else:
                        failures.append(response)

            thread = threading.Thread(target=traffic)
            thread.start()
            time.sleep(0.1)
            reloaded = sharded.rolling_reload(_make_v2_model)
            time.sleep(0.1)
            stop.set()
            thread.join(timeout=10.0)
            stats = sharded.stats()
        assert not failures, [r.to_dict() for r in failures[:3]]
        assert served[0] > 0
        # Every shard reloaded exactly once, sequentially.
        assert [r["shard"] for r in reloaded] == ["shard-0", "shard-1"]
        assert all(r["generation"] == 1 for r in reloaded)
        for snap in stats["shards"].values():
            assert snap["generation"] == 1
            assert snap["counters"].get("model.reloads", 0) == 1

    def test_reload_requires_running_service(self, patients_db):
        spec = ShardSpec(_const_replica, (patients_db,))
        sharded = ShardedService(spec, ShardedConfig(replicas=2))
        with pytest.raises(ServingError):
            sharded.rolling_reload(_make_v2_model)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"max_respawns": -1},
            {"max_request_attempts": 0},
            {"boot_timeout": 0.0},
            {"max_inflight_per_shard": 0},
        ],
    )
    def test_invalid_sharded_config_rejected(self, kwargs):
        with pytest.raises(ServingError):
            ShardedConfig(**kwargs)

    def test_boot_error_surfaces_at_start(self, patients_db):
        # An untrained replica: TranslationService refuses it in-shard,
        # and the front door surfaces the boot error instead of hanging.
        spec = ShardSpec(_untrained_replica, (patients_db,))
        sharded = ShardedService(
            spec, ShardedConfig(replicas=2, boot_timeout=30.0)
        )
        with pytest.raises(ServingError, match="failed to boot"):
            sharded.start()


def _untrained_replica(database) -> DBPal:
    return DBPal(database)  # no model: ServingError in the shard


class TestCliShardedServe:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from repro import GenerationConfig, TrainingPipeline
        from repro.neural import Seq2SeqModel, save_model
        from repro.schema import patients_schema

        corpus = TrainingPipeline(
            patients_schema(), GenerationConfig(size_slotfills=2), seed=0
        ).generate()
        model = Seq2SeqModel(embed_dim=8, hidden_dim=12, epochs=1, seed=0)
        model.fit(corpus.subsample(80, seed=0).pairs)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.npz"
        save_model(model, str(path))
        return path

    def _serve_env(self) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sigterm_drains_all_shards_and_exits_130(self, checkpoint):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "serve", "patients",
                "--checkpoint", str(checkpoint),
                "--replicas", "2",
                "--workers", "1",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._serve_env(),
        )
        try:
            # One served question proves every shard is up and routing.
            proc.stdin.write("how many patients are there\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            assert "SQL:" in line, line
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (out, err)
        assert "all shards drained" in err

    def test_cli_rolling_reload_flag(self, checkpoint):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "serve", "patients",
                "--checkpoint", str(checkpoint),
                "--replicas", "2",
                "--workers", "1",
                "--reload", str(checkpoint),
            ],
            input="how many patients are there\n",
            capture_output=True,
            text=True,
            timeout=120.0,
            env=self._serve_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "reloaded shard-0 (generation 1)" in result.stdout
        assert "reloaded shard-1 (generation 1)" in result.stdout
        assert "SQL:" in result.stdout
