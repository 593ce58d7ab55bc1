"""Subspace lattices of F_q^n and the rank-metric, tilde and sum-rank
latroids built on them (the tilde q-polymatroid in its integer (q, m)
presentation), against reference loops over rref bases: span
membership by row reduction, subspaces grown one vector at a time, and the
orthogonal complement by scanning F_q^n.  The library orders subspaces and
counts subcodes from membership matrices instead."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from test_latroids import rows
from test_weights import MATRIX_CODES, block_words

from latroids.code_latroids import (
    rank_metric_latroid,
    sum_rank_latroid,
    tilde_polymatroid,
)
from latroids.codes import rref
from latroids.lattices import _subspaces, subspace_lattice
from latroids.rings import intlog

SPACES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


# -- reference loops ----------------------------------------------------------------


def reference_in_span(basis, v, p):
    """Membership test against an rref basis."""
    v = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % p:
            c = v[col]
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return not any(x % p for x in v)


def reference_span_contains(basis, other, p):
    return all(reference_in_span(basis, row, p) for row in other)


def reference_all_subspaces(p, n):
    """rref bases of every subspace of F_p^n, sorted by (dim, basis)."""
    found = {()}
    frontier = [()]
    vectors = list(itertools.product(range(p), repeat=n))
    while frontier:
        new = []
        for basis in frontier:
            for v in vectors:
                if any(v) and not reference_in_span(basis, v, p):
                    grown = rref(basis + (v,), p)
                    if grown not in found:
                        found.add(grown)
                        new.append(grown)
        frontier = new
    return sorted(found, key=lambda b: (len(b), b))


def reference_orthogonal_complement(basis, p, n):
    """rref basis of the perp under the standard dot product."""
    comp = [
        v
        for v in itertools.product(range(p), repeat=n)
        if all(sum(x * y for x, y in zip(v, row)) % p == 0 for row in basis)
    ]
    return rref(comp, p)


def reference_subcode_dim(mc, bases, spaces="row"):
    """dim of the subcode whose block row (column) spaces lie in the bases."""
    def inside(mat, basis):
        vectors = mat if spaces == "row" else zip(*mat)
        return all(reference_in_span(basis, v, mc.q) for v in vectors)

    words = [w for w in block_words(mc.blocks, mc.code) if all(map(inside, w, bases))]
    return intlog(mc.q, len(words))


def reference_sum_rank(mc, spaces):
    """(rank, length) of the sum-rank latroid, elements in product order."""
    dims = [m if spaces == "column" else n for m, n in mc.blocks]
    out = []
    for bases in itertools.product(*(reference_all_subspaces(mc.q, d) for d in dims)):
        length = sum(m * len(b) for (m, _), b in zip(mc.blocks, bases))
        out.append(((length - reference_subcode_dim(mc, bases, spaces),), (length,)))
    return out


# -- subspace lattices ------------------------------------------------------------------


@pytest.mark.parametrize("q, n", SPACES, ids=[f"F_{q}^{n}" for q, n in SPACES])
def test_subspace_lattice_matches_reference(q, n):
    lat = subspace_lattice(q, n)
    bases = reference_all_subspaces(q, n)
    assert lat.labels == tuple(bases)
    expected = [[reference_span_contains(b, a, q) for b in bases] for a in bases]
    assert np.array_equal(lat.leq, np.array(expected, dtype=bool))


@pytest.mark.parametrize("q, n", SPACES, ids=[f"F_{q}^{n}" for q, n in SPACES])
def test_perp_is_an_order_reversing_involution(q, n):
    lat, _, perp = _subspaces(q, n)
    assert [perp[p] for p in perp] == list(range(lat.size))
    assert np.array_equal(lat.leq, lat.leq[np.ix_(perp, perp)].T)
    assert [lat.labels[p] for p in perp] == [
        reference_orthogonal_complement(b, q, n) for b in lat.labels
    ]


# -- latroids on subspace lattices ---------------------------------------------------


SINGLE_BLOCK = [(name, mc) for name, mc in MATRIX_CODES if mc.ell == 1]


@pytest.mark.parametrize("name, mc", SINGLE_BLOCK, ids=[name for name, _ in SINGLE_BLOCK])
def test_rank_metric_and_tilde_match_reference(name, mc):
    m, n = mc.shape
    bases = reference_all_subspaces(mc.q, n)
    plain = rank_metric_latroid(mc)
    assert plain.lattice.labels == tuple(bases)
    assert list(zip(rows(plain.rank), rows(plain.length))) == reference_sum_rank(mc, "row")
    tilde = tilde_polymatroid(mc)
    assert tilde.lattice.labels == tuple(bases)
    perps = [reference_orthogonal_complement(b, mc.q, n) for b in bases]
    # m tilde_rho(V) = dim C - dim C(V*), with m dim(V) as length
    assert rows(tilde.rank) == tuple(
        (mc.dim() - reference_subcode_dim(mc, [perp]),) for perp in perps
    )
    assert rows(tilde.length) == tuple((m * len(b),) for b in bases)


@pytest.mark.parametrize("name, mc", MATRIX_CODES, ids=[name for name, _ in MATRIX_CODES])
@pytest.mark.parametrize("spaces", ["row", "column"])
def test_sum_rank_matches_reference(name, mc, spaces):
    if spaces == "column" and any(m < n for m, n in mc.blocks):
        with pytest.raises(ValueError, match="m_i >= n_i"):
            sum_rank_latroid(mc, spaces=spaces)
        return
    lt = sum_rank_latroid(mc, spaces=spaces)
    assert list(zip(rows(lt.rank), rows(lt.length))) == reference_sum_rank(mc, spaces)


def test_subspace_lattices_are_built_once_and_read_only():
    lat, members, perp = _subspaces(2, 3)
    again, same, perp_again = _subspaces(2, 3)
    assert again is lat and same is members and perp_again is perp
    for table in (members, perp):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
