"""The seeded generator: deterministic, seed-sensitive, and shape-exact."""

import math
import os

import pytest

import workloads
from workloads import SLOTS, Slot, generate

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _batch(workload, seed, tmp_path, name):
    out = tmp_path / name
    out.mkdir()
    ops = generate(workload, seed, ROOT, str(out))
    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
    return [(op.command, os.path.basename(op.config), op.key) for op in ops], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload, tmp_path):
    assert _batch(workload, 7, tmp_path, "a") == _batch(workload, 7, tmp_path, "b")


@pytest.mark.parametrize("workload", ["grid-latroids", "axiom-systems", "cli-small"])
def test_other_seed_other_configs(workload, tmp_path):
    ops7, files7 = _batch(workload, 7, tmp_path, "a")
    ops8, files8 = _batch(workload, 8, tmp_path, "b")
    assert ops7 == ops8
    assert files7 != files8


def test_cli_small_covers_every_command_on_every_shipped_config(tmp_path):
    ops = generate("cli-small", 0, ROOT, str(tmp_path))
    assert len(ops) >= 100
    shipped = workloads.shipped_configs(ROOT)
    assert shipped
    pairs = {(op.command, op.key) for op in ops}
    assert {(c, s) for c in workloads.CLI_COMMANDS for s in shipped} <= pairs


def _expected_size(slot: Slot) -> int:
    if slot.base:
        return slot.modulus ** len(slot.base)
    m = slot.modulus
    return math.prod(m // math.gcd(mult, m) for mult in slot.rows)


@pytest.mark.parametrize(
    "slot", [s for slots in SLOTS.values() for s in slots], ids=lambda s: s.name
)
def test_slot_code_has_its_declared_size(slot, tmp_path):
    import random

    from latroids import cli

    path = tmp_path / "slot.cfg"
    for seed in (0, 1, 2):
        path.write_text(workloads.slot_config(slot, random.Random(seed)))
        cfg = cli.parse_config(str(path))
        _, n, code, _ = cli.load_problem(cfg, cap=2**16)
        assert n == slot.n
        assert len(code) == _expected_size(slot)
        assert slot.modulus**slot.n <= 2**16
