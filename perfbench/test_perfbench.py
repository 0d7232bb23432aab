"""Tests of the serving benchmark itself, on its smoke mode.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module._bootstrap()
    return module


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_prints_every_metric_with_its_unit():
    bench = _bench()
    completed = _run("--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = {**bench.END_TO_END, **bench.PER_LAYER}
    for workload in ("patients", "spider_join", "hot_repeat"):
        for name, unit in expected.items():
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], float)


def test_benchmark_json_names_the_printed_metrics():
    bench = _bench()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.MIN_REQUESTS)


def test_answer_digests_repeat_across_smoke_runs():
    bench = _bench()
    from system import SMOKE

    for workload in ("patients", "spider_join", "hot_repeat"):
        first, _ = bench.run_workload(workload, 5, 0.0, False, SMOKE, smoke=True)
        second, _ = bench.run_workload(workload, 5, 0.0, False, SMOKE, smoke=True)
        assert first["properties"]["answers_sha256"] == second["properties"]["answers_sha256"]
        assert first["properties"]["stream_sha256"] == second["properties"]["stream_sha256"]
        other, _ = bench.run_workload(workload, 6, 0.0, False, SMOKE, smoke=True)
        assert other["properties"]["stream_sha256"] != first["properties"]["stream_sha256"]


def test_self_time_subtracts_children():
    _bench()
    from tracing import layer_breakdown

    # (sid, parent, request, name, start, end, ok, extra)
    spans = [
        (2, 1, 0, "preprocess", 10, 60, True, None),
        (3, 2, 0, "index.fuzzy", 20, 50, True, None),
        (4, 1, 0, "execute", 60, 90, True, None),
        (5, 4, 0, "execute", 65, 85, True, None),
        (1, None, 0, "request", 0, 100, True, None),
    ]
    layers = layer_breakdown(spans)
    assert layers["serving"]["self_ns"] == 100 - 50 - 30
    assert layers["preprocess"]["self_ns"] == 50 - 30
    assert layers["execute"]["outer_ns"] == [30]  # nested execute counts once
    assert layers["execute"]["self_ns"] == 30


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    completed = _run("--workload", "patients", "--seed", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
