"""The subspace and submodule lattices of R^n from intersections and
duality (``lattices._closed_family``), against ``build_lattice`` on the
membership order: labels, order, covers, join and meet are the same tables.
The perps are checked against the orthogonal complement by brute force, and
a corrupted key, perp or family raises instead of returning tables.

The submodules of R^n come from its first-coordinate decomposition
(``codes._ambient_masks``); the closure of the cyclic submodules
(``codes._submodule_masks``) stays their reference, row for row, and the
subspaces of F_q^n are counted by Gaussian binomials."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lattices import clear_lattice_caches
from test_weights import q_binomial

from latroids import codes, lattices
from latroids.codes import (
    _ambient_masks,
    _submodule_masks,
    enumerate_submodules,
    full_space,
    span_from_ints,
)
from latroids.errors import CapExceededError, NotALatticeError
from latroids.lattices import build_lattice, submodule_lattice, subspace_lattice
from latroids.rings import ChainRing, Pir, parse_ring

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


DECOMPOSED = [
    ("Z_4", 1), ("Z_4", 2), ("Z_4", 3), ("Z_8", 2), ("Z_9", 2), ("Z_16", 2), ("Z_27", 2),
    ("Z_8", 3), ("Z_2", 3), ("Z_2", 4), ("Z_2", 5), ("Z_2", 6), ("Z_3", 2), ("Z_3", 3),
    ("Z_3", 4), ("Z_3", 5), ("Z_5", 4), ("Z_2 x Z_3", 1), ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 1),
    ("Z_2 x Z_4", 2), ("Z_2 x Z_2", 2), ("Z_2 x Z_2", 3),
]


@pytest.mark.parametrize("ring, n", DECOMPOSED, ids=[f"({r})^{n}" for r, n in DECOMPOSED])
def test_the_masks_of_r_n_equal_the_closure_row_for_row(ring, n):
    space = full_space(parse_ring(ring), n)
    masks = space.submodule_masks
    assert np.array_equal(masks, _submodule_masks(space))
    assert not masks.flags.writeable


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_the_masks_of_a_random_r_n_equal_the_closure(data):
    factors = data.draw(st.lists(
        st.builds(ChainRing, st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
        min_size=1, max_size=3,
    ).filter(lambda fs: Pir(tuple(fs)).size <= 256))
    ring = Pir(tuple(factors))
    longest = 1
    while ring.size ** (longest + 1) <= 256:
        longest += 1
    n = data.draw(st.integers(1, longest))
    space = full_space(ring, n)
    try:
        reference = _submodule_masks(space)
    except CapExceededError:
        with pytest.raises(CapExceededError, match="submodule count"):
            _ambient_masks(ring, n)
    else:
        assert np.array_equal(_ambient_masks(ring, n), reference)


def test_r_0_has_one_submodule_holding_its_one_vector():
    for ring in ("Z_4", "Z_2 x Z_3"):
        assert full_space(parse_ring(ring), 0).submodule_masks.tolist() == [[True]]


SUBSPACE_COUNTS = [(q, n) for q in (2, 3, 5, 7) for n in range(1, 5)]


@pytest.mark.parametrize("q, n", SUBSPACE_COUNTS, ids=[f"F_{q}^{n}" for q, n in SUBSPACE_COUNTS])
def test_f_q_n_has_one_subspace_per_gaussian_binomial(q, n):
    masks = _ambient_masks(parse_ring(f"Z_{q}"), n)
    assert Counter(masks.sum(axis=1).tolist()) == {q**d: q_binomial(n, d, q) for d in range(n + 1)}


def test_r_n_is_never_enumerated_by_the_closure(monkeypatch):
    def no_closure(code):
        raise AssertionError(f"closure on {code.ring}^{code.n}")

    clear_lattice_caches()
    monkeypatch.setattr(codes, "_submodule_masks", no_closure)
    assert lattices._ambient_submodules(parse_ring("Z_8"), 2).size == 37
    assert subspace_lattice(2, 4).size == 67
