"""The end-to-end serving benchmark's smoke run, as a tier-1 check.

``perfbench/run.py --smoke`` serves a fixed number of requests of every
workload, untraced and then traced, and grades each answer against the
reference executor.  This test holds its verdict (``correct``, nothing
failed, spans reconciled with the service counters) and pins each
workload's ``answers_sha256`` at seed 1, so a change that alters any
served answer — on either the untraced or the traced path — fails here.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``answers_sha256`` of the seed-1 smoke run, per workload.
ANSWERS_SHA256 = {
    "patients": "ff1eb15b3f0cb21ad9633f969a3acb30ec9fe5f345a2bb5b1ba3870caab4d1b3",
    "spider_join": "f3d689014eb8a56603b98e338d8b965fc10585cbcc3fc3c0c838caa8dfb9893e",
    "hot_repeat": "9fab9d0998684f88eb34ae3000482b88e23c158c365d5f8206724a2ae41c2ef4",
}

_HEADER = re.compile(r"^(\w+)\s+seed=1\s+trace=([01])\s")
_DIGEST = re.compile(r"^\s+answers_sha256\s+([0-9a-f]{64})$")


def _digests(stdout: str) -> dict[tuple[str, int], str]:
    """``(workload, trace) -> answers_sha256`` from the printed report."""
    digests: dict[tuple[str, int], str] = {}
    current = None
    for line in stdout.splitlines():
        header = _HEADER.match(line)
        if header:
            current = (header.group(1), int(header.group(2)))
        digest = _DIGEST.match(line)
        if digest and current is not None:
            digests[current] = digest.group(1)
    return digests


def test_smoke_run_is_correct_and_serves_the_pinned_answers():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke", "--seed", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "reconciliation (preprocess spans, model items, accounting): ok" in (
        completed.stdout
    )
    expected = {
        (workload, trace): digest
        for workload, digest in ANSWERS_SHA256.items()
        for trace in (0, 1)
    }
    assert _digests(completed.stdout) == expected
