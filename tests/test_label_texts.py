"""Label texts: each lattice makes the text of its labels once and keeps it
(``FiniteLattice.label_texts``), and the CLI reads them from there.

The texts are checked against the formatter the CLI once ran on every label
of every report, kept here as the reference: it sorts a submodule's
codewords and makes each one into text afresh."""

from __future__ import annotations

import json

import pytest
from test_lattices import clear_lattice_caches

from latroids import cli, codes, lattices
from latroids.codes import Code, enumerate_submodules, full_space, span
from latroids.core import bases, circuits, independents
from latroids.lattices import (
    boolean_lattice,
    chain_support_lattice,
    subspace_lattice,
    submodule_lattice,
)
from latroids.rings import parse_ring


def reference_label(label) -> str:
    """A lattice label as text: a subset, or a submodule as its sorted
    codewords, in braces; any other label by ``str``.  A codeword is one
    token: its entries as in ``gen`` lines (a residue, or colon-joined
    residues over a product ring), run together when every entry is one
    digit and dot-separated otherwise."""
    if isinstance(label, Code):
        ring = label.ring
        sep = "" if ring.ell == 1 and ring.size <= 10 else "."
        words = (sep.join(":".join(map(str, a)) for a in w) for w in sorted(label.codewords))
        return "{" + ",".join(words) + "}"
    if isinstance(label, frozenset):
        return "{" + ",".join(map(str, sorted(label))) + "}"
    return str(label)


# R^n whose submodule lattices are checked: chain rings with one-digit and
# two-digit residues (Z_16, whose words are dot-separated), prime fields,
# and two product rings, one with coprime factor sizes and one without.
AMBIENTS = [
    ("Z_4", 2), ("Z_8", 2), ("Z_9", 2), ("Z_2", 4), ("Z_3", 3), ("Z_16", 2),
    ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 2),
]


@pytest.mark.parametrize("ring, n", AMBIENTS, ids=lambda v: str(v))
def test_submodule_label_texts_match_the_reference(ring, n):
    lat = submodule_lattice(full_space(parse_ring(ring), n))
    assert lat.label_texts == tuple(map(reference_label, lat.labels))
    assert lat.label_texts is lat.label_texts


@pytest.mark.parametrize("ring, n", AMBIENTS, ids=lambda v: str(v))
def test_enumerated_submodules_hold_their_sorted_words(ring, n):
    ambient = full_space(parse_ring(ring), n)
    for code in (ambient, span(ambient.ring, n, [ambient.ring.basis_vector(n, 0)])):
        for sub in enumerate_submodules(code):
            assert sub.sorted_words() == tuple(sorted(sub.codewords))
            assert sub.sorted_words() is sub.sorted_words()


def test_subset_grid_and_basis_label_texts_match_the_reference():
    for lat in (boolean_lattice(4), chain_support_lattice(parse_ring("Z_2 x Z_3"), 2),
                subspace_lattice(3, 2)):
        assert lat.label_texts == tuple(map(reference_label, lat.labels))


# axioms needs a complemented modular lattice: the subspaces of F_3^3
SUBMODULE_CONFIG = "ring = Z_3\nn = 3\nsupport = hamming\nlattice = submodule\ngen = 1 0 2\ngen = 0 1 1\n"


def _config(tmp_path) -> str:
    path = tmp_path / "f3_submodule.cfg"
    path.write_text(SUBMODULE_CONFIG)
    return str(path)


def _expected(command: str, path: str) -> dict:
    """The payload of ``command``, its labels made by the reference."""
    cfg = cli.parse_config(path)
    ring, n, code, supp = cli.load_problem(cfg, cli.VECTOR_ENUM_CAP)
    lt = cli.build_latroid(cfg, code, supp)
    texts = [reference_label(lab) for lab in lt.lattice.labels]
    data, exit_code = getattr(cli, "cmd_" + command)(cfg, cli.VECTOR_ENUM_CAP)
    if command == "latroid":
        for element, text in zip(data["elements"], texts):
            element["label"] = text
    else:
        for key, found in (("independents", independents), ("bases", bases), ("circuits", circuits)):
            data[key] = [texts[i] for i in found(lt)]
    payload = {"schema_version": cli.SCHEMA_VERSION, "command": command, "ok": exit_code == 0}
    payload.update(data)
    return payload


@pytest.mark.parametrize("command", ["latroid", "axioms", "circuits"])
def test_submodule_reports_carry_the_reference_labels(command, tmp_path, capsys):
    path = _config(tmp_path)
    expected = _expected(command, path)
    for fmt, text in (
        ("json", json.dumps(expected, indent=2, sort_keys=True)),
        ("text", cli.render_text(expected)),
    ):
        code = cli.main(["--command", command, "--config", path, "--format", fmt])
        assert code == (0 if expected["ok"] else 1)
        assert capsys.readouterr().out == text + "\n", fmt


def test_commands_on_one_kept_lattice_format_each_codeword_once(tmp_path, capsys, monkeypatch):
    # latroid, axioms and circuits on one R^n read one kept submodule
    # lattice: the first command makes the text of each distinct codeword
    # once, the other two make none, and no submodule sorts its words
    clear_lattice_caches()
    made, sorts = [], []
    word_text = lattices._word_text

    def counted_word_text(word, sep):
        made.append((sep, word))
        return word_text(word, sep)

    def counted_sorted(items, **kwargs):
        sorts.append(items)
        return sorted(items, **kwargs)

    monkeypatch.setattr(lattices, "_word_text", counted_word_text)
    monkeypatch.setattr(codes, "sorted", counted_sorted, raising=False)
    path = _config(tmp_path)
    per_command = []
    for command in ("latroid", "axioms", "circuits"):
        before = len(made)
        assert cli.main(["--command", command, "--config", path]) == 0
        capsys.readouterr()
        per_command.append(len(made) - before)
    lat = lattices._ambient_submodules(parse_ring("Z_3"), 3)
    words = {w for lab in lat.labels for w in lab.codewords}
    assert len(made) == len(set(made)) == len(words) == per_command[0] == 27
    assert per_command[1:] == [0, 0]
    assert not [items for items in sorts for lab in lat.labels if items is lab.codewords]
