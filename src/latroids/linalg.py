"""Row reduction and subspace bookkeeping over prime fields F_p.

Vectors are int tuples with entries mod p; a subspace is identified by its
reduced row echelon basis (a tuple of rows, no zero rows), which is a
canonical label.
"""

from __future__ import annotations

import itertools

from .rings import is_prime

Row = tuple[int, ...]


def rref(rows, p: int) -> tuple[Row, ...]:
    """Reduced row echelon form over F_p, zero rows dropped."""
    if not is_prime(p):
        raise ValueError(f"only prime fields are supported, got q = {p}")
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] % p), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def in_span(basis: tuple[Row, ...], v: Row, p: int) -> bool:
    """Membership test against an rref basis."""
    v = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % p:
            c = v[col]
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return not any(x % p for x in v)


def span_contains(basis: tuple[Row, ...], other: tuple[Row, ...], p: int) -> bool:
    return all(in_span(basis, row, p) for row in other)


def all_subspaces(p: int, n: int) -> list[tuple[Row, ...]]:
    """rref bases of every subspace of F_p^n, sorted by (dim, basis)."""
    zero = ()
    found = {zero}
    frontier = [zero]
    vectors = list(itertools.product(range(p), repeat=n))
    while frontier:
        new = []
        for basis in frontier:
            for v in vectors:
                if any(v) and not in_span(basis, v, p):
                    grown = rref(basis + (v,), p)
                    if grown not in found:
                        found.add(grown)
                        new.append(grown)
        frontier = new
    return sorted(found, key=lambda b: (len(b), b))


def orthogonal_complement(basis: tuple[Row, ...], p: int, n: int) -> tuple[Row, ...]:
    """rref basis of the perp under the standard dot product."""
    if not basis:
        return rref([tuple(1 if j == i else 0 for j in range(n)) for i in range(n)], p)
    comp = [
        v
        for v in itertools.product(range(p), repeat=n)
        if all(sum(x * y for x, y in zip(v, row)) % p == 0 for row in basis)
    ]
    return rref(comp, p)
