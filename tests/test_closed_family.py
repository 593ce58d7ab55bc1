"""The subspace and submodule lattices of R^n from intersections and
duality (``lattices._closed_family``), against ``build_lattice`` on the
membership order: labels, order, covers, join and meet are the same tables.
The perps are checked against the orthogonal complement by brute force, and
a corrupted key, perp or family raises instead of returning tables."""

from __future__ import annotations

import numpy as np
import pytest

from latroids import lattices
from latroids.codes import enumerate_submodules, full_space, span_from_ints
from latroids.errors import NotALatticeError
from latroids.lattices import build_lattice, submodule_lattice
from latroids.rings import parse_ring

SUBSPACES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(5, 1), (5, 2)]
AMBIENT = [
    ("Z_4", 1), ("Z_4", 2), ("Z_4", 3), ("Z_8", 1), ("Z_8", 2), ("Z_9", 1), ("Z_9", 2),
    ("Z_2 x Z_3", 1), ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 1), ("Z_2 x Z_4", 2),
]


def membership_lattice(labels, members):
    """The reference: ``build_lattice`` on a <= b when no member of a lies
    outside b."""
    members = np.asarray(members)
    return build_lattice(labels, ~(members[:, None] & ~members[None]).any(axis=2))


def assert_same_tables(lat, ref):
    assert lat.labels == ref.labels
    for table in ("leq", "covers", "join", "meet"):
        assert np.array_equal(getattr(lat, table), getattr(ref, table)), table


def ambient(ring_text, n):
    space = full_space(parse_ring(ring_text), n)
    return space, enumerate_submodules(space)


@pytest.mark.parametrize("q, n", SUBSPACES, ids=[f"F_{q}^{n}" for q, n in SUBSPACES])
def test_subspace_tables_equal_the_generic_build(q, n):
    lat, members, _ = lattices._subspaces(q, n)
    assert_same_tables(lat, membership_lattice(lat.labels, members))


@pytest.mark.parametrize("ring, n", AMBIENT, ids=[f"({r})^{n}" for r, n in AMBIENT])
def test_ambient_submodule_tables_equal_the_generic_build(ring, n):
    space, labels = ambient(ring, n)
    lat = lattices._ambient_submodules(space.ring, n)
    assert_same_tables(lat, membership_lattice(labels, space.submodule_masks))


@pytest.mark.parametrize("ring, gens", [
    ("Z_4", [[1, 2]]),
    ("Z_9", [[3, 1]]),
    ("Z_2 x Z_4", [[1, 2], [0, 3]]),
    ("Z_2", [[1, 1, 0, 1], [0, 1, 1, 1]]),
])
def test_submodule_lattice_of_a_code_is_an_interval_of_the_ambient_lattice(ring, gens):
    code = span_from_ints(parse_ring(ring), len(gens[0]), gens)
    lat = submodule_lattice(code)
    assert lat.labels[-1] == code
    assert_same_tables(lat, membership_lattice(enumerate_submodules(code), code.submodule_masks))


def orthogonal(ring, v, w) -> bool:
    return all(
        sum(a[j] * b[j] for a, b in zip(v, w)) % size == 0 for j, size in enumerate(ring.sizes)
    )


@pytest.mark.parametrize("ring, n", [
    ("Z_4", 2), ("Z_8", 2), ("Z_9", 2), ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 2),
])
def test_perp_is_the_orthogonal_complement(ring, n):
    space, labels = ambient(ring, n)
    lat, perp = lattices._closed_family(space.ring, n, labels, space.submodule_masks)
    assert np.array_equal(perp[perp], np.arange(lat.size))
    assert all(len(labels[i]) * len(labels[p]) == len(space) for i, p in enumerate(perp.tolist()))
    for code, p in zip(labels, perp.tolist()):
        words = code.codewords
        complement = {
            w for w in space.codewords if all(orthogonal(space.ring, v, w) for v in words)
        }
        assert labels[p].codewords == complement
    assert not perp.flags.writeable


def closed_family(ring_text="Z_2 x Z_4", n=2):
    space, labels = ambient(ring_text, n)
    return lattices._closed_family(space.ring, n, labels, space.submodule_masks)


def test_colliding_keys_raise(monkeypatch):
    def zero(words):
        return np.zeros(words.shape[:-1], dtype=np.uint64)

    monkeypatch.setattr(lattices, "_row_keys", zero)
    with pytest.raises(ValueError, match="share a key"):
        closed_family()


def test_a_key_that_finds_the_wrong_row_raises(monkeypatch):
    # the family's keys are right; every key looked up after them is off by
    # one, so each lookup lands on some other element's row
    keys, calls = lattices._row_keys, []

    def shifted(words):
        calls.append(len(words))
        return keys(words) + np.uint64(len(calls) > 1)

    monkeypatch.setattr(lattices, "_row_keys", shifted)
    with pytest.raises(NotALatticeError, match="not closed under intersection"):
        closed_family("Z_9")


@pytest.mark.parametrize("corrupt", [
    lambda skew: ~skew,  # rows that are no submodule
    np.zeros_like,  # every perp the whole space: a member, not an involution
    lambda skew: np.roll(skew, 1, axis=0),  # the perps of other vectors
], ids=["negated", "empty", "rolled"])
def test_a_corrupted_perp_raises(monkeypatch, corrupt):
    table = lattices._nonorthogonal
    monkeypatch.setattr(lattices, "_nonorthogonal", lambda *args: corrupt(table(*args)))
    with pytest.raises(ValueError, match="perp"):
        closed_family()


def test_a_family_not_closed_under_intersection_raises():
    space, labels = ambient("Z_4", 2)
    keep = [i for i, code in enumerate(labels) if len(code) != 2]
    members = space.submodule_masks[keep]
    with pytest.raises(NotALatticeError, match="not closed under intersection"):
        lattices._closed_family(space.ring, 2, [labels[i] for i in keep], members)
