"""Byte-for-byte golden test of the CLI.

Each command runs in-process through ``cli.main``; its exit code and stdout
must equal the record in ``golden/cli_golden.json``.  ``dixmier`` and
``sfint`` are left out because their floats come from numpy.
"""

import json
from pathlib import Path

import pytest

from cuntzmod.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_golden.json"

COMMANDS = [
    ["eval", "--n", "2", "S[1]'.S[1]"],
    ["eval", "--output", "json", "--n", "3", "1/2r*S[1,2].S[3]' - I"],
    ["sf", "--n", "2", "--mu", "1,1", "--nu", "2"],
    ["sf", "--n", "3", "--mu", "", "--nu", "2"],
    ["entropy", "--n", "3", "--mu", "1,2", "--nu", "3"],
    ["aps", "--n", "2", "--mu", "1,1", "--nu", "2"],
    ["aps", "--n", "3", "--mu", "2", "--nu", "1,3,2"],
    *(["check", suite, "--n", "2", "--max-len", "1"] for suite in ("kms", "tomita", "cocycle", "keyfact", "tracesplit")),
    ["check", "hochschild", "--n", "3"],
    *(["check", "homotopy", "--n", n, "--samples", "5"] for n in ("2", "3")),
    ["check", "kms", "--n", "2", "--max-len", "1", "--output", "text"],
]


def run_command(capsys, argv):
    code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": capsys.readouterr().out}


def test_golden_file_covers_every_command():
    assert [record["argv"] for record in json.loads(GOLDEN.read_text())] == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_bytes_match_golden(capsys, argv):
    expected = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}[tuple(argv)]
    assert run_command(capsys, argv) == expected
