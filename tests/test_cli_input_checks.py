"""Argument checks of the commands that build probe or sample databases.

``--seeds`` and ``--rows-per-table`` are parsed by argparse types, so a
bad value ends in a usage message and exit status 2, never in a
traceback or in probes over empty databases.
"""

from __future__ import annotations

import pytest

from repro.cli import main

PAIR = ["SELECT name FROM patients", "SELECT name FROM patients WHERE age > 3"]


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    return err


@pytest.mark.parametrize("seeds", ["a", "1,x", "-1", ",", "3.5"])
def test_canonical_rejects_bad_seeds(seeds, capsys):
    err = _usage_error(["canonical", "patients", *PAIR, f"--seeds={seeds}"], capsys)
    assert "argument --seeds" in err


@pytest.mark.parametrize(
    "command",
    [
        ["canonical", "patients", *PAIR],
        ["repair", "patients", PAIR[0]],
        ["db", "explain", "patients", PAIR[0]],
    ],
    ids=["canonical", "repair", "db-explain"],
)
@pytest.mark.parametrize("rows", ["0", "-3", "x"])
def test_rows_per_table_must_be_positive(command, rows, capsys):
    err = _usage_error([*command, f"--rows-per-table={rows}"], capsys)
    assert "argument --rows-per-table" in err


def test_canonical_accepts_a_seed_list(capsys):
    # Exit 4: the second query's filter drops rows on probe database 11.
    argv = ["canonical", "patients", *PAIR, "--seeds", "3,11"]
    assert main(argv) == 4
    assert "[L602] results diverge on probe database seed=11" in capsys.readouterr().out
