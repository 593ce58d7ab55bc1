"""Weight-preserving module automorphisms of R^n: verification, the
diagonal-times-permutation decomposition over chain rings, per-factor
projections over product rings, and invariance of code invariants.

A matrix acts on the digit encoding of R^n from ``rings`` by one ``einsum``
on its (n, n, ell) entry array.  Every function taking a matrix for a
support or code on R^n first checks that it is n x n.
"""

from __future__ import annotations

import random

import numpy as np

from .code_latroids import least_weights
from .codes import Code, big_m, length_lambda
from .enumerators import weight_distribution
from .limits import VECTOR_ENUM_CAP, check_cap
from .report import Check, Report
from .rings import Element, Pir, Vector
from .supports import Support, split_support

RingMatrix = tuple[tuple[Element, ...], ...]


def matrix_from_ints(ring: Pir, rows) -> RingMatrix:
    return tuple(tuple(ring.from_int(int(x)) for x in row) for row in rows)


def _as_array(ring: Pir, mat: RingMatrix, n: int) -> np.ndarray:
    """The matrix as an (n, n, ell) residue array; raises unless it is n x n."""
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"matrix is not {n}x{n}")
    return np.array(mat, dtype=np.int64).reshape(n, n, ring.ell)


def _act(ring: Pir, entries: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The matrix applied to every row of a digit array of R^n."""
    v = digits.reshape(len(digits), len(entries), ring.ell)
    return (np.einsum("ijf,vjf->vif", entries, v) % ring.sizes).reshape(len(v), -1)


def apply_matrix(ring: Pir, mat: RingMatrix, v: Vector) -> Vector:
    n = len(mat)
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != matrix size {n}")
    return ring.decode(_act(ring, _as_array(ring, mat, n), ring.encode([v], n)))[0]


def matmul(ring: Pir, a: RingMatrix, b: RingMatrix) -> RingMatrix:
    n = len(a)
    prod = np.einsum("itf,tjf->ijf", _as_array(ring, a, n), _as_array(ring, b, n))
    return tuple(tuple(map(tuple, row)) for row in (prod % ring.sizes).tolist())


def apply_to_code(mat: RingMatrix, code: Code) -> Code:
    ring = code.ring
    image = _act(ring, _as_array(ring, mat, code.n), ring.encode(code.codewords, code.n))
    return Code(ring, code.n, (), frozenset(ring.decode(image)))


def is_isometry(mat: RingMatrix, supp: Support, cap: int = VECTOR_ENUM_CAP) -> bool:
    """True iff v -> mat v is a bijection of R^n preserving the weight,
    checked exhaustively."""
    ring, n = supp.ring, supp.n
    entries = _as_array(ring, mat, n)
    check_cap(ring.size**n, cap, "isometry verification")
    image = ring.index(_act(ring, entries, ring.space(n)), n)
    weight = supp.values().sum(axis=1)
    hit = np.zeros(len(image), dtype=bool)
    hit[image] = True
    return bool((weight[image] == weight).all() and hit.all())


def decompose_chain_isometry(mat: RingMatrix, supp: Support):
    """Write a chain-ring isometry as D * P with D diagonal invertible and
    P a permutation matrix.

    An isometry of a standard modular support is monomial: one nonzero
    entry in every row and column, each a unit.  P is the pattern of the
    nonzero entries and D holds each row's entry on its diagonal, both
    unique for a monomial matrix; the matrix is monomial exactly when P is
    a permutation matrix and D is invertible, and fails an assertion
    otherwise.
    """
    ring, n = supp.ring, supp.n
    if ring.ell != 1:
        raise ValueError("the D*P decomposition is for chain rings")
    if not supp.is_standard or not supp.is_modular:
        raise ValueError("decomposition needs a standard modular support")
    if not is_isometry(mat, supp):
        raise ValueError("matrix is not an isometry for the given support")
    pattern = _as_array(ring, mat, n).any(axis=2)
    P = tuple(tuple(ring.one if x else ring.zero for x in row) for row in pattern.tolist())
    D = tuple(
        tuple(mat[i][int(pattern[i].argmax())] if i == j else ring.zero for j in range(n))
        for i in range(n)
    )
    if not (is_permutation_matrix(ring, P) and is_diagonal_invertible(ring, D)):
        raise AssertionError("an isometry of a standard modular support must be monomial")
    return D, P


def is_permutation_matrix(ring: Pir, mat: RingMatrix) -> bool:
    entries = _as_array(ring, mat, len(mat))
    ones = (entries == 1).all(axis=2)
    return bool(
        (ones == entries.any(axis=2)).all()
        and (ones.sum(axis=0) == 1).all()
        and (ones.sum(axis=1) == 1).all()
    )


def is_diagonal_invertible(ring: Pir, mat: RingMatrix) -> bool:
    entries = _as_array(ring, mat, len(mat))
    units = (entries % [f.p for f in ring.factors] != 0).all(axis=2)
    diagonal = np.eye(len(mat), dtype=bool)
    return bool((units == diagonal).all() and (entries.any(axis=2) == diagonal).all())


def pir_isometry_projections(mat: RingMatrix, supp: Support):
    """The per-factor matrices of an isometry of a product ring; each is
    checked to be an isometry of R_i^n for the split factor support."""
    ring = supp.ring
    if not is_isometry(mat, supp):
        raise ValueError("matrix is not an isometry for the given support")
    parts, _ = split_support(supp)
    out = []
    for i, part in enumerate(parts):
        m_i = tuple(tuple((entry[i],) for entry in row) for row in mat)
        if not is_isometry(m_i, part):
            raise AssertionError(f"projection to factor {i} is not an isometry")
        out.append((i, m_i))
    return out


def random_monomial_isometry(ring: Pir, n: int, rng: random.Random) -> RingMatrix:
    """A random D * P product: unit diagonal times permutation."""
    units = [u for u in ring.units()]
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(
        tuple(
            rng.choice(units) if perm[j] == i else ring.zero for j in range(n)
        )
        for i in range(n)
    )


def equivalence_invariance_check(code: Code, mat: RingMatrix, supp: Support) -> Report:
    """Map the code through the isometry and compare the invariants of the
    two sides: both families of generalized weights and the weight
    distribution."""
    image = apply_to_code(mat, code)
    checks = []

    lam1, lam2 = length_lambda(code), length_lambda(image)
    checks.append(Check("lambda_equal", lam1 == lam2, f"{lam1} vs {lam2}"))

    if lam1 == lam2 and lam1 > 0:
        subs1, subs2 = code.submodules, image.submodules
        d1 = least_weights(subs1, length_lambda, supp.code_weight, lam1)
        d2 = least_weights(subs2, length_lambda, supp.code_weight, lam2)
        checks.append(Check("dbar_equal", d1 == d2, f"{d1} vs {d2}"))
        m1 = least_weights(subs1, big_m, supp.code_weight, big_m(code))
        m2 = least_weights(subs2, big_m, supp.code_weight, big_m(image))
        checks.append(Check("dmu_equal", m1 == m2, f"{m1} vs {m2}"))

    w1 = weight_distribution(code, supp)
    w2 = weight_distribution(image, supp)
    checks.append(Check("weight_distribution_equal", w1 == w2, f"{w1} vs {w2}"))

    return Report.from_checks(checks)
