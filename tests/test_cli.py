"""The batch CLI on the shipped configs, and its handling of bad input."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_lattices import clear_lattice_caches

from latroids import cli, codes, enumerators, lattices
from latroids.cli import COMMANDS, SCHEMA_VERSION, main
from latroids.codes import _submodule_masks
from latroids.enumerators import refined_enumerator
from latroids.report import Report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG_NAMES = ("f2_block", "z4_code", "z6_isometry", "z8_tutte")
CONFIG_COMMANDS = tuple(c for c in COMMANDS if c != "selftest")

# (command, config) -> exit code, for the pairs that do not exit 0: isometry
# needs mat= rows, the axiom systems need a complemented modular lattice, and
# round trips also need the height function as length.
REJECTED = {
    ("isometry", "f2_block"): 2,
    ("isometry", "z4_code"): 2,
    ("isometry", "z8_tutte"): 2,
    ("axioms", "z4_code"): 2,
    ("axioms", "z8_tutte"): 2,
    ("crypto-roundtrip", "z4_code"): 2,
    ("crypto-roundtrip", "z8_tutte"): 2,
    ("crypto-roundtrip", "z6_isometry"): 2,
}

# Key fields of the successful runs, per (command, config).
KEY_FIELDS = {
    ("validate-support", name): {"valid": True, "modular": True} for name in CONFIG_NAMES
}
KEY_FIELDS.update({
    ("latroid", "f2_block"): {"lattice_size": 8, "scalar_dim": 1},
    ("latroid", "z4_code"): {"lattice_size": 9, "scalar_dim": 1},
    ("latroid", "z6_isometry"): {"lattice_size": 16, "scalar_dim": 2},
    ("latroid", "z8_tutte"): {"lattice_size": 4, "scalar_dim": 1},
    ("axioms", "f2_block"): {
        "bases": ["{0,1}", "{0,2}", "{1,2}"], "circuits": ["{0,1,2}"],
    },
    ("axioms", "z6_isometry"): {
        "bases": ["(0, 0, 1, 1)"], "circuits": ["(0, 1, 0, 0)", "(1, 0, 0, 0)"],
    },
    ("crypto-roundtrip", "f2_block"): {
        "roundtrips": {"from_bases": True, "from_circuits": True, "from_independents": True},
    },
    ("weights", "f2_block"): {"dbar": [3], "dmu": [3]},
    ("weights", "z4_code"): {
        "dbar": [1, 3], "dmu": [1], "latroid": [1, 3], "latroid_equals_dbar": True,
    },
    ("weights", "z6_isometry"): {
        "dbar": [1, 2], "dmu": [1, 2], "latroid": [1, 2], "latroid_equals_dbar": True,
    },
    ("weights", "z8_tutte"): {
        "dbar": [1, 2], "dmu": [1], "latroid": [1, 2], "latroid_equals_dbar": True,
    },
    ("enumerator", "f2_block"): {"homogeneous": "x^3 + y^3", "weight_distribution": [1, 0, 0, 1]},
    ("enumerator", "z4_code"): {
        "homogeneous": "2*x^3*y + x*y^3 + y^4", "weight_distribution": [1, 1, 0, 2, 0],
    },
    ("enumerator", "z6_isometry"): {
        "homogeneous": "2*x^2*y^2 + 3*x*y^3 + y^4", "weight_distribution": [1, 3, 2, 0, 0],
    },
    ("enumerator", "z8_tutte"): {
        "homogeneous": "2*x^2*y + x*y^2 + y^3", "weight_distribution": [1, 1, 2, 0],
    },
    ("tutte", "f2_block"): {"identity_holds": True},
    ("tutte", "z4_code"): {
        "identity_holds": True,
        "enumerator_from_tutte": "2*x1^2*x2*y2 + x1*y1*y2^2 + y1^2*y2^2",
    },
    ("tutte", "z8_tutte"): {
        "identity_holds": True,
        "rank_generating_function_rendered": "x1^2*y1*u1*v1^2 + x1^3*v1^2 + x1*y1^2*u1*v1 + y1^3*u1",
        "rprime_rendered": "x1^2*z1*y1*u1*v1^2 + x1*z1*y1^2*u1*v1 + x1^3*v1^2 + z1*y1^3*u1",
    },
    ("circuits", "z4_code"): {"bases": ["(0, 2)"], "circuits": ["(1, 0)"]},
    ("circuits", "z8_tutte"): {"bases": [], "circuits": ["(1,)"], "independents": ["(0,)"]},
    ("isometry", "z6_isometry"): {"is_isometry": True},
})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", CONFIG_NAMES)
@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_command_on_shipped_config(capsys, command, name):
    code, out, err = run_cli(
        capsys, "--command", command, "--config", str(CONFIGS / f"{name}.cfg")
    )
    assert "Traceback" not in err
    data = json.loads(out)
    want = REJECTED.get((command, name), 0)
    assert code == want
    if want:
        assert data["kind"] == "input" and data["error"]
        return
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["command"] == command
    assert data["ok"] is True
    for key, value in KEY_FIELDS.get((command, name), {}).items():
        assert data[key] == value, key


def test_text_format_renders_the_same_fields(capsys):
    code, out, _ = run_cli(
        capsys, "--command", "weights", "--config", str(CONFIGS / "z4_code.cfg"),
        "--format", "text",
    )
    assert code == 0
    assert "dbar: [1, 3]" in out.splitlines()
    assert "schema_version: 1" in out.splitlines()


def test_tutte_factorization_on_product_ring(capsys):
    code, out, _ = run_cli(
        capsys, "--command", "tutte", "--config", str(CONFIGS / "z6_isometry.cfg")
    )
    data = json.loads(out)
    assert code == 0
    assert [c["name"] for c in data["factorization"]["checks"]] == [
        "factorized_tutte_enumerator", "factorized_refined_enumerator",
    ]


def test_tutte_on_a_product_ring_enumerates_the_whole_code_once(capsys, monkeypatch):
    rings = []

    def counted(code, supp):
        rings.append(code.ring.ell)
        return refined_enumerator(code, supp)

    monkeypatch.setattr(cli, "refined_enumerator", counted)
    monkeypatch.setattr(enumerators, "refined_enumerator", counted)
    config = str(CONFIGS / "z6_isometry.cfg")
    code, _, _ = run_cli(capsys, "--command", "tutte", "--config", config)
    assert code == 0
    # the whole Z_2 x Z_3 code once, shared by the output and the
    # factorization check, and each factor once for enumerator_product
    assert sorted(rings) == [1, 1, 2]


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "problem.cfg"
    path.write_text(text)
    return str(path)


BAD_N = ("-1", "0", "abc", "2.5")


@pytest.mark.parametrize("n", BAD_N)
@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_bad_length_exits_2(capsys, tmp_path, command, n):
    path = _write(tmp_path, f"ring = Z_4\nn = {n}\nsupport = chain\n")
    code, out, err = run_cli(capsys, "--command", command, "--config", path)
    assert code == 2
    assert "Traceback" not in err
    data = json.loads(out)
    assert data == {"error": f"n must be an integer >= 1, got {n!r}", "kind": "input"}


MALFORMED = {
    "ring Z_1": ("ring = Z_1\nn = 2\nsupport = chain\n", CONFIG_COMMANDS),
    "ring Z_6": ("ring = Z_6\nn = 2\nsupport = chain\n", CONFIG_COMMANDS),
    "missing ring": ("n = 2\nsupport = chain\ngen = 1 2\n", CONFIG_COMMANDS),
    "gen of wrong length": (
        "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2 3\n",
        tuple(c for c in CONFIG_COMMANDS if c != "validate-support"),
    ),
    "2x3 mat": (
        "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nmat = 1 0 0\nmat = 0 1 0\n",
        ("isometry",),
    ),
    "unknown support": ("ring = Z_4\nn = 2\nsupport = lee\n", CONFIG_COMMANDS),
    "no key=value": ("ring Z_4\n", CONFIG_COMMANDS),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_without_traceback(capsys, tmp_path, case):
    text, commands = MALFORMED[case]
    path = _write(tmp_path, text)
    for command in commands:
        code, out, err = run_cli(capsys, "--command", command, "--config", path)
        assert code == 2, command
        assert "Traceback" not in err
        assert json.loads(out)["kind"] == "input"


def test_missing_config_exits_2(capsys):
    code, out, _ = run_cli(capsys, "--command", "latroid")
    assert code == 2
    assert json.loads(out)["error"] == "latroid needs --config"


def test_cap_breach_exits_3(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\n")
    code, out, _ = run_cli(capsys, "--command", "weights", "--config", path, "--cap", "4")
    assert code == 3
    assert json.loads(out)["kind"] == "cap"


def test_lattice_cap_is_checked_before_the_order_matrix(capsys, tmp_path, monkeypatch):
    # Z_2^16 is within the default vector cap, but its 65536-element grid
    # exceeds LATTICE_CAP: the run must stop before the 65536 x 65536 order.
    def no_product_table(a, b, op):
        raise AssertionError(f"product table asked for {len(a) * len(b)} elements")

    monkeypatch.setattr(lattices, "_product_table", no_product_table)
    path = _write(tmp_path, "ring = Z_2\nn = 16\nsupport = chain\ngen = " + "1 " * 16 + "\n")
    code, out, err = run_cli(capsys, "--command", "latroid", "--config", path)
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out) == {"error": "lattice size needs 65536 > cap 4096", "kind": "cap"}


def test_submodule_lattice_commands(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\nlattice = submodule\ngen = 1 2\n")
    code, out, err = run_cli(capsys, "--command", "latroid", "--config", path)
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["lattice_size"] == 15 and data["report"]["ok"] is True
    code, out, err = run_cli(capsys, "--command", "circuits", "--config", path)
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert (len(data["independents"]), len(data["bases"]), len(data["circuits"])) == (7, 4, 1)
    # a submodule label is its sorted codewords, one token per word
    assert data["circuits"] == ["{00,20}"]
    assert "{00,11,22,33}" in data["bases"]
    z6 = _write(tmp_path, "ring = Z_2 x Z_3\nn = 2\nsupport = chain\nlattice = submodule\ngen = 1 0\n")
    code, out, err = run_cli(capsys, "--command", "circuits", "--config", z6)
    assert code == 0 and "Traceback" not in err
    assert "{0:0.0:0,1:0.0:0}" in json.loads(out)["circuits"]


def test_submodule_lattice_cap_is_checked_before_spanning_the_ambient_space(
    capsys, tmp_path, monkeypatch
):
    def no_span(ring, n):
        raise AssertionError(f"spanned {ring}^{n}")

    monkeypatch.setattr(lattices, "full_space", no_span)
    text = "ring = Z_2\nn = 16\nsupport = chain\nlattice = submodule\ngen = " + "1 " * 16 + "\n"
    code, out, err = run_cli(capsys, "--command", "latroid", "--config", _write(tmp_path, text))
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out) == {"error": "submodule enumeration needs 65536 > cap 4096", "kind": "cap"}


def test_weights_r_out_of_range_exits_2(capsys, tmp_path):
    for r in (7, 0):
        path = _write(tmp_path, f"ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nr = {r}\n")
        code, out, _ = run_cli(capsys, "--command", "weights", "--config", path)
        assert code == 2
        assert json.loads(out)["error"] == f"r = {r} outside [1, 2]"


def test_weights_single_r(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nr = 2\n")
    code, out, _ = run_cli(capsys, "--command", "weights", "--config", path)
    data = json.loads(out)
    assert code == 2  # dmu stops at M(C) = 1
    assert data["error"] == "r = 2 outside [1, 1]"
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nr = 1\n")
    code, out, _ = run_cli(capsys, "--command", "weights", "--config", path)
    data = json.loads(out)
    assert code == 0
    assert (data["dbar"], data["dmu"], data["latroid"]) == (1, 1, [1, 3])
    assert data["latroid_equals_dbar"] is True


def test_weights_non_integer_r_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nr = 1.5\n")
    code, out, err = run_cli(capsys, "--command", "weights", "--config", path)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out) == {"error": "r must be an integer, got '1.5'", "kind": "input"}


@pytest.mark.parametrize("r", ["", "r = 1\n"], ids=["all r", "one r"])
def test_weights_enumerates_the_submodules_once(capsys, tmp_path, monkeypatch, r):
    calls = []

    def counted(code):
        calls.append(code)
        return _submodule_masks(code)

    monkeypatch.setattr(codes, "_submodule_masks", counted)
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\n" + r)
    code, _, _ = run_cli(capsys, "--command", "weights", "--config", path)
    assert code == 0
    assert len(calls) == 1  # d-bar and d-mu read Code.submodule_masks; the latroid reads the grid


def test_isometry_enumerates_the_submodules_once_per_side(capsys, monkeypatch):
    calls = []

    def counted(code):
        calls.append(code)
        return _submodule_masks(code)

    monkeypatch.setattr(codes, "_submodule_masks", counted)
    config = str(CONFIGS / "z6_isometry.cfg")
    code, _, _ = run_cli(capsys, "--command", "isometry", "--config", config)
    assert code == 0
    assert len(calls) == 2  # the code and its image, each read for d-bar and d-mu


def test_weights_builds_no_submodule_code(capsys, monkeypatch):
    built = []
    init = codes.Code.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(codes.Code, "__init__", counted)
    code, _, _ = run_cli(capsys, "--command", "weights", "--config", str(CONFIGS / "z4_code.cfg"))
    assert code == 0
    assert len(built) == 1  # the span of the config's generator; no submodule is a Code


NOT_INTEGERS = {
    "gen": ("weights", "gen = 1 x\n", "entry 'x' is not an integer"),
    "mat": ("isometry", "gen = 1 2\nmat = 0 y\nmat = 1 0\n", "entry 'y' is not an integer"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_non_integer_entry_exits_2(capsys, tmp_path, case):
    command, rows, error = NOT_INTEGERS[case]
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\n" + rows)
    code, out, err = run_cli(capsys, "--command", command, "--config", path)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out) == {"error": error, "kind": "input"}


def test_rect_lattice_is_the_chain_support_grid(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = chain\nlattice = rect\ngen = 1 2\n")
    code, out, err = run_cli(capsys, "--command", "latroid", "--config", path)
    assert code == 0
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["lattice_size"] == 9 and data["scalar_dim"] == 2
    assert data["report"]["ok"] is True
    elements, grid = data["elements"], [(a, b) for a in range(3) for b in range(3)]
    assert [e["label"] for e in elements] == [str(g) for g in grid]
    # M_g = (2^(2-g_1)) x (2^(2-g_2)) has supp g; the code's closure is (2, 1)
    assert [tuple(e["length"]) for e in elements] == grid
    ranks = {g: tuple(e["rank"]) for g, e in zip(grid, elements)}
    assert (ranks[2, 2], ranks[2, 1], ranks[1, 2]) == ((0, 1), (0, 0), (0, 1))


def test_rect_lattice_needs_a_modular_support(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = hamming\nlattice = rect\ngen = 1 2\n")
    code, out, err = run_cli(capsys, "--command", "latroid", "--config", path)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out) == {
        "error": "rectangular-support latroids need a modular support", "kind": "input",
    }


@pytest.mark.parametrize("target", ["missing/x.json", "directory"])
def test_unwritable_out_exits_2_and_leaves_no_file(capsys, tmp_path, target):
    (tmp_path / "directory").mkdir()
    code, out, err = run_cli(
        capsys, "--command", "circuits", "--config", str(CONFIGS / "z8_tutte.cfg"),
        "--out", str(tmp_path / target),
    )
    assert code == 2
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["kind"] == "input"
    assert data["error"].startswith(f"cannot write --out {tmp_path / target}: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "--command", "circuits", "--config", str(CONFIGS / "z8_tutte.cfg"),
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["circuits"] == ["(1,)"]


# -- table: and product[...] supports ---------------------------------------------

CHAIN_Z4 = "0 -> 0\n1 -> 2\n2 -> 1\n3 -> 2\n"
LEE_Z4 = "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 1\n"


def _table_problem(tmp_path, table: str) -> str:
    """A Z_4, n = 1 problem whose support is the given table file."""
    path = tmp_path / "support.tbl"
    path.write_text(table)
    return _write(tmp_path, f"ring = Z_4\nn = 1\nsupport = table:{path}\ngen = 2\n")


def test_chain_table_reads_like_the_chain_support(capsys, tmp_path):
    table = _table_problem(tmp_path, CHAIN_Z4)
    chain = str(tmp_path / "chain.cfg")
    Path(chain).write_text("ring = Z_4\nn = 1\nsupport = chain\ngen = 2\n")
    for command, fields in (
        ("validate-support", None),
        ("enumerator", None),
        ("weights", ("dbar", "dmu")),
    ):
        want_code, want, _ = run_cli(capsys, "--command", command, "--config", chain)
        code, out, _ = run_cli(capsys, "--command", command, "--config", table)
        assert (code, want_code) == (0, 0), command
        want, got = json.loads(want), json.loads(out)
        if fields:
            want, got = ({f: d[f] for f in fields} for d in (want, got))
        assert got == want, command


def test_lee_table_is_reported_invalid_by_validate_support(capsys, tmp_path):
    path = _table_problem(tmp_path, LEE_Z4)
    code, out, err = run_cli(capsys, "--command", "validate-support", "--config", path)
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["valid"] is False and data["ok"] is False
    failed = [c for c in data["axioms"]["checks"] if not c["ok"]]
    assert (failed[0]["name"], failed[0]["detail"]) == ("axiom2_scalar_monotone", "r=(2,), v=((1,),)")


@pytest.mark.parametrize("command", [c for c in CONFIG_COMMANDS if c != "validate-support"])
def test_lee_table_is_not_a_support_for_other_commands(capsys, tmp_path, command):
    path = _table_problem(tmp_path, LEE_Z4)
    code, out, err = run_cli(capsys, "--command", command, "--config", path)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out) == {
        "error": "not a support: axiom2_scalar_monotone: r=(2,), v=((1,),)", "kind": "input",
    }


def test_table_with_a_repeated_vector_exits_2(capsys, tmp_path):
    # 4 is 0 of Z_4: the fifth line gives vector 0 a second time
    path = _table_problem(tmp_path, CHAIN_Z4 + "4 -> 1\n")
    code, out, _ = run_cli(capsys, "--command", "weights", "--config", path)
    assert code == 2
    assert json.loads(out) == {
        "error": f"{tmp_path / 'support.tbl'}:5: vector ((0,),) already given on line 1",
        "kind": "input",
    }


@pytest.mark.parametrize("line,token", [("1 -> a", "a"), ("x -> 1", "x")])
def test_table_with_a_non_integer_entry_exits_2(capsys, tmp_path, line, token):
    path = _table_problem(tmp_path, "0 -> 0\n" + line + "\n2 -> 1\n3 -> 2\n")
    code, out, err = run_cli(capsys, "--command", "weights", "--config", path)
    assert code == 2
    assert "Traceback" not in err
    assert json.loads(out) == {
        "error": f"{tmp_path / 'support.tbl'}:2: entry {token!r} is not an integer",
        "kind": "input",
    }


def test_product_of_chain_and_hamming_is_a_support(capsys, tmp_path):
    path = _write(tmp_path, "ring = Z_4\nn = 2\nsupport = product[chain, hamming]\n")
    code, out, _ = run_cli(capsys, "--command", "validate-support", "--config", path)
    assert code == 0
    assert json.loads(out)["valid"] is True


BAD_SUPPORTS = {  # config, and the start of the error
    "product of 1 part for n = 2": (
        "n = 2\nsupport = product[chain]\ngen = 1 2\n", "product support needs 2 parts, got 1",
    ),
    "unknown part": (
        "n = 2\nsupport = product[chain, lee]\ngen = 1 2\n", "unknown support spec 'lee'",
    ),
    "missing table file": (
        "n = 1\nsupport = table:{tmp}/none.tbl\ngen = 2\n", "cannot read support table",
    ),
    "table short of R^n": (
        "n = 1\nsupport = table:{tmp}/short.tbl\ngen = 2\n", "support table must cover exactly R^n",
    ),
    "table value past int64": (
        "n = 1\nsupport = table:{tmp}/huge.tbl\ngen = 2\n", "support table values must fit in int64",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SUPPORTS))
@pytest.mark.parametrize("command", ["validate-support", "weights"])
def test_bad_support_spec_exits_2(capsys, tmp_path, case, command):
    (tmp_path / "short.tbl").write_text("0 -> 0\n1 -> 2\n2 -> 1\n")
    (tmp_path / "huge.tbl").write_text(f"0 -> 0\n1 -> {2**63}\n2 -> 1\n3 -> 2\n")
    text, error = BAD_SUPPORTS[case]
    path = _write(tmp_path, "ring = Z_4\n" + text.format(tmp=tmp_path))
    code, out, err = run_cli(capsys, "--command", command, "--config", path)
    assert code == 2
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["kind"] == "input" and data["error"].startswith(error)


@pytest.mark.parametrize("command", ["axioms", "crypto-roundtrip"])
def test_axiom_commands_check_the_lattice_once(capsys, monkeypatch, command):
    # the three axiom systems (or reconstructions) read the verdicts the
    # lattice keeps; the shared boolean lattice starts without them
    clear_lattice_caches()
    calls = []
    for function in (lattices.is_modular_lattice, lattices.is_complemented_lattice):

        def counted(lat, function=function):
            calls.append(function.__name__)
            return function(lat)

        monkeypatch.setattr(lattices, function.__name__, counted)
    config = str(CONFIGS / "f2_block.cfg")
    code, _, _ = run_cli(capsys, "--command", command, "--config", config)
    assert code == 0
    assert sorted(calls) == ["is_complemented_lattice", "is_modular_lattice"]


# Runs every command in one interpreter and prints whether numpy.ma was
# imported: numpy 2.x's np.unique imports it on its first call, 10-20 ms
# that a CLI process would pay for nothing.
FRESH_RUN = """
import contextlib, io, sys
from latroids.cli import COMMANDS, main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["--command", "selftest", "--seed", "0"])]
    for config in sys.argv[1:]:
        for command in COMMANDS:
            if command != "selftest":
                codes.append(main(["--command", command, "--config", config]))
print(codes, "numpy.ma" in sys.modules)
"""


def test_no_command_imports_numpy_ma():
    configs = [str(CONFIGS / f"{name}.cfg") for name in CONFIG_NAMES]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, *configs],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    codes = [0] + [
        REJECTED.get((command, name), 0) for name in CONFIG_NAMES for command in CONFIG_COMMANDS
    ]
    assert run.stdout == f"{codes} False\n"


# -- one parser per process -------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """The parser cache emptied before the test and again after it, so no
    parser built under the test's patches outlives it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_per_process(capsys, monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for command, name in (("weights", "z4_code"), ("circuits", "z8_tutte"), ("latroid", "f2_block")):
        code, _, _ = run_cli(capsys, "--command", command, "--config", str(CONFIGS / f"{name}.cfg"))
        assert code == 0, command
    assert built == ["latroids"]


def test_bad_command_after_a_good_one_still_exits_2(capsys):
    config = str(CONFIGS / "z8_tutte.cfg")
    assert run_cli(capsys, "--command", "circuits", "--config", config)[0] == 0
    with pytest.raises(SystemExit) as exit_:
        main(["--command", "nonsense", "--config", config])
    assert exit_.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "--command", "circuits", "--config", config)
    assert code == 0 and json.loads(out)["circuits"] == ["(1,)"]


def test_text_format_does_not_stick_to_the_next_call(capsys):
    config = str(CONFIGS / "z4_code.cfg")
    _, text, _ = run_cli(capsys, "--command", "weights", "--config", config, "--format", "text")
    assert "dbar: [1, 3]" in text.splitlines()
    _, out, _ = run_cli(capsys, "--command", "weights", "--config", config)
    assert json.loads(out)["dbar"] == [1, 3]


# Counts the argparse parsers constructed while latroids.cli is imported.
FRESH_IMPORT = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import latroids.cli
print(len(built), latroids.cli._parser.cache_info().currsize)
"""


def test_import_builds_no_parser():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert run.stdout == "0 0\n"


# -- handlers return plain JSON values ----------------------------------------------

# Configs beyond the shipped ones, for the handler paths those do not reach:
# the D * P decomposition of a chain-ring isometry, a monomial isometry over
# Z_2 x Z_3 (its projections), and a support read from a table file.
EXTRA_CONFIGS = {
    "z4_monomial": "ring = Z_4\nn = 2\nsupport = chain\ngen = 1 2\nmat = 0 3\nmat = 1 0\n",
    "z6_monomial": "ring = Z_2 x Z_3\nn = 2\nsupport = chain\ngen = 1 1\nmat = 0 5\nmat = 1 0\n",
    "z4_table": "ring = Z_4\nn = 1\nsupport = table:{table}\ngen = 2\n",
}
EXTRA_REJECTED = {
    ("isometry", "z4_table"), ("axioms", "z4_table"), ("crypto-roundtrip", "z4_table"),
    ("axioms", "z4_monomial"), ("crypto-roundtrip", "z4_monomial"),
    ("crypto-roundtrip", "z6_monomial"),
}
PLAIN_SCALARS = (str, int, float, bool, type(None))


def reference_jsonable(value):
    """The recursive conversion ``main`` once applied to every payload:
    reports as dicts, str keys, tuples as lists, sets sorted (its branch for
    codes is left out: a code fails the plain-value walk first)."""
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(reference_jsonable(v) for v in value)
    return value


def _non_plain(value, path="data"):
    """Paths of the values that are not plain JSON: a dict with str keys, a
    list, or a str, int, float, bool or None, by exact type."""
    if type(value) is dict:
        return [
            bad
            for key, v in value.items()
            for bad in ([f"{path} key {key!r}"] if type(key) is not str else [])
            + _non_plain(v, f"{path}[{key!r}]")
        ]
    if type(value) is list:
        return [bad for i, v in enumerate(value) for bad in _non_plain(v, f"{path}[{i}]")]
    return [] if type(value) in PLAIN_SCALARS else [f"{path}: {type(value).__name__}"]


def _handler_cases(tmp_path):
    """(command, config name, parsed config) for every pair that exits 0 or 1."""
    table = tmp_path / "support.tbl"
    table.write_text(CHAIN_Z4)
    paths = {name: str(CONFIGS / f"{name}.cfg") for name in CONFIG_NAMES}
    for name, text in EXTRA_CONFIGS.items():
        paths[name] = str(tmp_path / f"{name}.cfg")
        Path(paths[name]).write_text(text.format(table=table))
    for name, path in paths.items():
        for command in CONFIG_COMMANDS:
            if (command, name) not in REJECTED and (command, name) not in EXTRA_REJECTED:
                yield command, name, cli.parse_config(path)


def test_handlers_return_plain_json_values(tmp_path):
    cases = [
        (command, name, getattr(cli, "cmd_" + command.replace("-", "_")), cfg)
        for command, name, cfg in _handler_cases(tmp_path)
    ]
    cases.append(("selftest", None, cli.cmd_selftest, {"gen": [], "mat": []}))
    outputs = {}
    for command, name, handler, cfg in cases:
        data, _ = handler(cfg, cli.VECTOR_ENUM_CAP)
        assert _non_plain(data) == [], (command, name)
        reference = reference_jsonable(data)
        assert json.dumps(data, indent=2, sort_keys=True) == json.dumps(
            reference, indent=2, sort_keys=True
        ), (command, name)
        assert cli.render_text(data) == cli.render_text(reference), (command, name)
        outputs[command, name] = data
    # the extra configs reach both isometry paths and the table support
    assert outputs["isometry", "z4_monomial"]["diagonal"] == [[[3], [0]], [[0], [1]]]
    assert outputs["isometry", "z4_monomial"]["permutation"] == [[[0], [1]], [[1], [0]]]
    assert [p["matrix"] for p in outputs["isometry", "z6_monomial"]["projections"]] == [
        [[0, 1], [1, 0]], [[0, 2], [1, 0]],
    ]
    assert outputs["weights", "z4_table"] == {"dbar": [1], "dmu": [1]}
