"""The expectation table: what each (command, config) must return.

Entries are keyed ``"<command> <config key>"``, where the config key is a
shipped config's path (``configs/z4_code.cfg``) or ``slot:<slot name>`` for
a generated config.  Each entry holds the exit code and the key JSON fields
of the command's output.  Only fields that the slot's shape fixes are keyed
(flags and sizes, never seed-dependent weights), so one entry covers every
seed.

The table in ``expectations.json`` is recorded from the code under test::

    python3 perfbench/expect.py --record

and an operation fails when its exit code or any keyed field differs from
it.  Rejections the program makes on purpose (exit 2) are recorded as
expected outcomes like any other.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "expectations.json")

ABSENT = "<absent>"

# Dotted paths into the JSON a command prints.  Every output also keys
# "schema_version" (absent on errors) and "kind" (present only on errors).
KEY_FIELDS = {
    "validate-support": ("valid", "modular"),
    "latroid": ("report.ok", "lattice_size", "scalar_dim"),
    "axioms": (
        "reports.independents.ok",
        "reports.bases.ok",
        "reports.circuits.ok",
    ),
    "crypto-roundtrip": (
        "ok",
        "roundtrips.from_independents",
        "roundtrips.from_bases",
        "roundtrips.from_circuits",
    ),
    "weights": ("ok", "latroid_equals_dbar"),
    "enumerator": ("ok",),
    "tutte": ("identity_holds", "factorization.ok"),
    "circuits": ("ok",),
    "isometry": ("is_isometry", "invariance.ok"),
}
COMMON_FIELDS = ("schema_version", "kind")


def field(data, path: str):
    for part in path.split("."):
        if not isinstance(data, dict) or part not in data:
            return ABSENT
        data = data[part]
    return data


def observe(command: str, exit_code: int, output: str) -> dict:
    """The keyed view of one command's result."""
    data = json.loads(output)
    return {
        "exit": exit_code,
        "fields": {p: field(data, p) for p in COMMON_FIELDS + KEY_FIELDS[command]},
    }


def observe_criterion(report) -> dict:
    """The keyed view of one selftest criterion's report."""
    return {"exit": 0 if report.ok else 1, "fields": {"ok": report.ok}}


def load() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)["ops"]


def mismatch(expected: dict | None, seen: dict) -> str:
    """Empty when ``seen`` matches the expectation, else a reason."""
    if expected is None:
        return "no expectation recorded"
    if seen["exit"] != expected["exit"]:
        return f"exit {seen['exit']}, expected {expected['exit']}"
    for path, want in expected["fields"].items():
        got = seen["fields"].get(path, ABSENT)
        if got != want:
            return f"{path}={got!r}, expected {want!r}"
    return ""


def record(root: str, seed: int = 0) -> dict:
    """Run every generated and shipped operation once and key its result."""
    import tempfile

    import workloads
    from latroids.selftest import run_all
    from worker import run_cli_op

    ops = {
        f"selftest criterion {num}": observe_criterion(rep)
        for num, _, rep in run_all(seed)
    }
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=workloads.build_dir(root)) as tmp:
            for op in workloads.generate(workload, seed, root, tmp):
                code, out, _, _ = run_cli_op(op)
                seen = observe(op.command, code, out)
                name = f"{op.command} {op.key}"
                if name in ops and ops[name] != seen:
                    raise RuntimeError(f"{name}: slot outcome varies within a pass")
                ops[name] = seen
    return ops


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/expect.py --record")
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    table = {"recorded_with_seed": 0, "ops": record(root)}
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table['ops'])} entries to {os.path.relpath(TABLE, root)}")
