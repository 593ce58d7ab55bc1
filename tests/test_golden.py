"""Committed digests of the CLI's output: `selftest --seed 0`, and every
command on every shipped config in both formats.

Each digest is the sha256 of the exit code and stdout of one in-process
``cli.main`` run from the repository root.  After a change that means to
alter an output, re-record the table and review the entries that moved::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from latroids.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("golden_digests.json")
CONFIGS = sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))

RUNS = {"selftest --seed 0": ["--command", "selftest", "--seed", "0"]}
RUNS.update({
    f"{command} {config} {fmt}":
        ["--command", command, "--config", f"configs/{config}", "--format", fmt]
    for command in COMMANDS if command != "selftest"
    for config in CONFIGS
    for fmt in ("json", "text")
})


def digest(argv: list[str]) -> str:
    """sha256 of the exit code and stdout of ``main(argv)`` run from the
    repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_every_run_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_output_matches_recorded_digest(key):
    assert digest(RUNS[key]) == json.loads(DIGESTS.read_text())[key]


if __name__ == "__main__":
    digests = {key: digest(argv) for key, argv in sorted(RUNS.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
