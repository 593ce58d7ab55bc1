"""Isometries of R^n: the matrix action against plain reference loops, the
D * P decomposition over chain rings, the per-factor projections over
Z_2 x Z_3, and the shape check every matrix argument goes through."""

from __future__ import annotations

import itertools
import random

import pytest

from latroids.codes import span_from_ints
from latroids.isometries import (
    apply_matrix,
    apply_to_code,
    decompose_chain_isometry,
    is_diagonal_invertible,
    is_isometry,
    is_permutation_matrix,
    matmul,
    matrix_from_ints,
    pir_isometry_projections,
    random_monomial_isometry,
)
from latroids.rings import parse_ring
from latroids.supports import ChainSupport, HammingSupport, TableSupport

Z4 = parse_ring("Z_4")
Z6 = parse_ring("Z_2 x Z_3")


# -- reference loops ----------------------------------------------------------------


def reference_apply(ring, mat, v):
    out = []
    for row in mat:
        acc = ring.zero
        for a, x in zip(row, v, strict=True):
            acc = ring.add(acc, ring.mul(a, x))
        out.append(acc)
    return tuple(out)


def reference_matmul(ring, a, b):
    columns = [reference_apply(ring, a, col) for col in zip(*b)]
    return tuple(zip(*columns))


def reference_is_isometry(mat, supp):
    image = set()
    for v in supp.ring.vectors(supp.n):
        w = reference_apply(supp.ring, mat, v)
        if supp.weight(w) != supp.weight(v):
            return False
        image.add(w)
    return len(image) == supp.ring.size**supp.n


def random_matrices(ring, n, rng):
    """Monomial isometries, unit transvections (bijective, usually weight
    changing), a nonunit scalar times a monomial (singular) and uniform
    random matrices (mostly singular or weight changing)."""
    elements = list(ring.elements())
    nonunit = next(a for a in elements if a != ring.zero and not ring.is_unit(a))
    out = []
    for _ in range(4):
        mono = random_monomial_isometry(ring, n, rng)
        out.append(mono)
        out.append(tuple(tuple(ring.mul(nonunit, a) for a in row) for row in mono))
        if n > 1:
            i, j = rng.sample(range(n), 2)
            entry = {(a, a): ring.one for a in range(n)}
            entry[i, j] = rng.choice(elements)
            out.append(tuple(
                tuple(entry.get((a, b), ring.zero) for b in range(n)) for a in range(n)
            ))
        out.append(tuple(tuple(rng.choice(elements) for _ in range(n)) for _ in range(n)))
    return out


SPACES = [(name, n) for name in ("Z_4", "Z_8", "Z_9", "Z_2 x Z_3") for n in (1, 2, 3)]


@pytest.mark.parametrize("name, n", SPACES, ids=[f"{a}^{n}" for a, n in SPACES])
def test_matrix_action_matches_reference_loops(name, n):
    ring = parse_ring(name)
    rng = random.Random(f"{name}^{n}")
    supports = (ChainSupport(ring, n), HammingSupport(ring, n))
    mats = random_matrices(ring, n, rng)
    verdicts = set()
    for mat in mats:
        for supp in supports:
            got = is_isometry(mat, supp)
            assert got == reference_is_isometry(mat, supp), (mat, supp.kind)
            verdicts.add(got)
        other = rng.choice(mats)
        assert matmul(ring, mat, other) == reference_matmul(ring, mat, other)
        v = tuple(rng.choice(list(ring.elements())) for _ in range(n))
        assert apply_matrix(ring, mat, v) == reference_apply(ring, mat, v)
        code = span_from_ints(ring, n, [[rng.randrange(ring.size) for _ in range(n)]])
        image = apply_to_code(mat, code)
        assert image.codewords == {reference_apply(ring, mat, c) for c in code.codewords}
    assert verdicts == {True, False}


def test_is_isometry_checks_bijectivity_where_weights_cannot():
    # weight 0 everywhere (a table, though not a support): every matrix
    # keeps weights, and only bijectivity tells [[2]] apart
    flat = TableSupport(Z4, 1, {(a,): (0,) for a in Z4.elements()})
    verdicts = [is_isometry(matrix_from_ints(Z4, [[x]]), flat) for x in range(4)]
    assert verdicts == [False, True, False, True]
    assert verdicts == [reference_is_isometry(matrix_from_ints(Z4, [[x]]), flat) for x in range(4)]
    flat = TableSupport(Z4, 2, {v: (0,) for v in itertools.product(Z4.elements(), repeat=2)})
    mats = ([[1, 1], [1, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]], [[1, 2], [0, 3]])
    verdicts = [is_isometry(matrix_from_ints(Z4, m), flat) for m in mats]
    assert verdicts == [False, True, False, True]
    assert verdicts == [reference_is_isometry(matrix_from_ints(Z4, m), flat) for m in mats]


def test_reference_matmul_is_matrix_product():
    a = matrix_from_ints(Z4, [[1, 2], [3, 0]])
    b = matrix_from_ints(Z4, [[0, 1], [1, 1]])
    assert reference_matmul(Z4, a, b) == matrix_from_ints(Z4, [[2, 3], [0, 3]])


@pytest.mark.parametrize("name", ["Z_4", "Z_8", "Z_9"])
def test_decompose_chain_isometry_round_trips(name):
    ring = parse_ring(name)
    rng = random.Random(name)
    for n in (1, 2, 3):
        supp = ChainSupport(ring, n)
        for _ in range(5):
            mat = random_monomial_isometry(ring, n, rng)
            D, P = decompose_chain_isometry(mat, supp)
            assert is_diagonal_invertible(ring, D)
            assert is_permutation_matrix(ring, P)
            assert matmul(ring, D, P) == mat


def test_decomposition_of_a_fixed_z8_isometry():
    z8 = parse_ring("Z_8")
    mat = matrix_from_ints(z8, [[0, 3, 0], [0, 0, 5], [7, 0, 0]])
    D, P = decompose_chain_isometry(mat, ChainSupport(z8, 3))
    assert D == matrix_from_ints(z8, [[3, 0, 0], [0, 5, 0], [0, 0, 7]])
    assert P == matrix_from_ints(z8, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_matrix_tests_read_the_entries():
    assert is_permutation_matrix(Z6, matrix_from_ints(Z6, [[0, 1], [1, 0]]))
    assert not is_permutation_matrix(Z6, matrix_from_ints(Z6, [[0, 5], [1, 0]]))
    assert not is_permutation_matrix(Z6, matrix_from_ints(Z6, [[1, 1], [1, 0]]))
    assert is_diagonal_invertible(Z6, matrix_from_ints(Z6, [[5, 0], [0, 1]]))
    assert not is_diagonal_invertible(Z6, matrix_from_ints(Z6, [[5, 0], [0, 3]]))
    assert not is_diagonal_invertible(Z6, matrix_from_ints(Z6, [[0, 5], [1, 0]]))


def test_non_isometry_is_not_decomposed():
    mat = matrix_from_ints(Z4, [[1, 1], [0, 1]])
    assert not is_isometry(mat, ChainSupport(Z4, 2))
    with pytest.raises(ValueError, match="not an isometry"):
        decompose_chain_isometry(mat, ChainSupport(Z4, 2))


def test_z6_isometry_projects_to_known_factor_matrices():
    # configs/z6_isometry.cfg: not monomial over Z_6, monomial on each factor
    mat = matrix_from_ints(Z6, [[2, 3], [3, 2]])
    supp = ChainSupport(Z6, 2)
    assert is_isometry(mat, supp)
    assert pir_isometry_projections(mat, supp) == [
        (0, matrix_from_ints(Z6.factor_ring(0), [[0, 1], [1, 0]])),
        (1, matrix_from_ints(Z6.factor_ring(1), [[2, 0], [0, 2]])),
    ]


# -- matrix shapes ----------------------------------------------------------------


@pytest.mark.parametrize("rows", [
    [[1, 0, 3], [0, 1, 2]],
    [[1], [0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
], ids=["2x3", "2x1", "3x3"])
def test_matrix_that_is_not_n_by_n_is_rejected(rows):
    supp = ChainSupport(Z4, 2)
    mat = matrix_from_ints(Z4, rows)
    code = span_from_ints(Z4, 2, [[1, 2]])
    for call in (
        lambda: is_isometry(mat, supp),
        lambda: apply_to_code(mat, code),
        lambda: decompose_chain_isometry(mat, supp),
        lambda: pir_isometry_projections(mat, supp),
    ):
        with pytest.raises(ValueError, match="not 2x2"):
            call()


def test_apply_matrix_checks_vector_length():
    with pytest.raises(ValueError, match="vector length"):
        apply_matrix(Z4, matrix_from_ints(Z4, [[1, 0], [0, 1]]), Z4.vector_from_ints([1]))
