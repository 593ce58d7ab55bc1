"""The expectation table: complete, faithful to the code, and strict."""

import os

import pytest

import expect
import workloads
from worker import run_cli_op

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TABLE = expect.load()


@pytest.mark.parametrize("workload", ["grid-latroids", "axiom-systems", "cli-small"])
@pytest.mark.parametrize("seed", [0, 5])
def test_every_operation_has_an_expectation(workload, seed, tmp_path):
    for op in workloads.generate(workload, seed, ROOT, str(tmp_path)):
        assert f"{op.command} {op.key}" in TABLE


def test_every_selftest_criterion_is_expected_to_pass():
    for number in range(1, 11):
        assert TABLE[f"selftest criterion {number}"] == {"exit": 0, "fields": {"ok": True}}


@pytest.mark.parametrize(
    "name",
    [
        "axioms configs/z4_code.cfg",
        "axioms configs/z8_tutte.cfg",
        "crypto-roundtrip configs/z4_code.cfg",
        "crypto-roundtrip configs/z8_tutte.cfg",
        "crypto-roundtrip configs/z6_isometry.cfg",
        "isometry configs/f2_block.cfg",
        "isometry configs/z4_code.cfg",
        "isometry configs/z8_tutte.cfg",
    ],
)
def test_deliberate_rejections_are_expected_outcomes(name):
    assert TABLE[name]["exit"] == 2
    assert TABLE[name]["fields"]["kind"] == "input"


@pytest.mark.parametrize("seed", [0, 3])
def test_cli_small_matches_the_table(seed, tmp_path):
    for op in workloads.generate("cli-small", seed, ROOT, str(tmp_path)):
        code, out, err, _ = run_cli_op(op)
        assert not err
        seen = expect.observe(op.command, code, out)
        assert expect.mismatch(TABLE[f"{op.command} {op.key}"], seen) == ""


def test_mismatch_reports_exit_and_fields():
    want = {"exit": 0, "fields": {"report.ok": True, "kind": expect.ABSENT}}
    assert expect.mismatch(want, {"exit": 0, "fields": {"report.ok": True, "kind": expect.ABSENT}}) == ""
    assert "exit 1" in expect.mismatch(want, {"exit": 1, "fields": {"report.ok": True}})
    assert "report.ok" in expect.mismatch(want, {"exit": 0, "fields": {"report.ok": False}})
    assert "kind" in expect.mismatch(want, {"exit": 0, "fields": {"report.ok": True, "kind": "input"}})
    assert expect.mismatch(None, {"exit": 0, "fields": {}}) == "no expectation recorded"


def test_observe_marks_missing_fields_absent():
    seen = expect.observe("tutte", 0, '{"schema_version": 1, "identity_holds": true}')
    assert seen["fields"] == {
        "schema_version": 1,
        "kind": expect.ABSENT,
        "identity_holds": True,
        "factorization.ok": expect.ABSENT,
    }
