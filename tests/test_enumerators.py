"""The polynomial layer of the enumerators: the one term collector of
``ExpPoly``, the binomial expansion R' -> refined enumerator on z exponents
that chain-support latroids never produce, the homogeneous enumerator, and
the product of the CRT factors' refined enumerators."""

from __future__ import annotations

import pytest

from latroids.codes import span, zero_code
from latroids.errors import CapExceededError
from latroids.enumerators import (
    ExpPoly,
    enumerator_from_rprime,
    enumerator_product,
    homogeneous_enumerator,
    inclusion_exclusion_check,
    refined_enumerator,
    weight_distribution,
)
from latroids.rings import parse_ring
from latroids.selftest import tutte_code_corpus, z6_product_code_corpus
from latroids.supports import ChainSupport, HammingSupport

# -- the collector -------------------------------------------------------------


def test_constructor_adds_repeated_exponents_and_drops_zero_sums():
    poly = ExpPoly(2, [((1, 0), 2), ([1, 0], 3), ((0, 1), 4), ((0, 1), -4), ((0, 0), 0)])
    assert poly.terms == {(1, 0): 5}
    assert ExpPoly(1, [((2,), 1), ((2,), -1)]).is_zero()
    assert ExpPoly.constant(0, 3).is_zero()


def test_arithmetic_collects_through_the_constructor():
    x, y = ExpPoly.variable(0, 2), ExpPoly.variable(1, 2)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert (3 * (x + y) - (x + y) * 3).is_zero()
    assert ((x + y) * (x + y)).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_constructor_keeps_its_errors():
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) does not have 2 entries"):
        ExpPoly(2, [((1,), 1)])
    with pytest.raises(ValueError, match=r"negative exponent in \(1, -1\)"):
        ExpPoly(2, [((1, -1), 1)])
    with pytest.raises(ValueError, match="one name per variable"):
        ExpPoly(2, (), ("x",))


def test_remap_merges_moves_and_substitutes_one():
    poly = ExpPoly(3, [((1, 2, 3), 1), ((1, 0, 3), 2)], ("a", "b", "c"))
    assert poly.remap([0, 0, 1], 2, ("s", "t")).terms == {(3, 3): 1, (1, 3): 2}
    assert poly.remap([2, 0, 1], 4, "wxyz").terms == {(2, 3, 1, 0): 1, (0, 3, 1, 0): 2}
    dropped = poly.remap([0, None, 1], 2, ("a", "c"))
    assert dropped.terms == {(1, 3): 3}
    assert dropped.render() == "3*a*c^3"


# -- R' -> enumerator --------------------------------------------------------------


def reference_from_rprime(rp: ExpPoly, g: int, p: int) -> ExpPoly:
    """p^b x^B (y - x)^e y^(T-B-e) per R' term, by ExpPoly multiplication."""
    names = tuple(f"x{i+1}" for i in range(g)) + tuple(f"y{i+1}" for i in range(g))
    out = ExpPoly.zero(2 * g, names)
    for exps, coeff in rp.terms.items():
        b, zexp, yexp = exps[:g], exps[g : 2 * g], exps[2 * g : 3 * g]
        term = ExpPoly.monomial(
            b + tuple(t - e for t, e in zip(yexp, zexp)), coeff * p ** exps[3 * g + 1], names
        )
        for i, e in enumerate(zexp):
            diff = ExpPoly.variable(g + i, 2 * g, names) - ExpPoly.variable(i, 2 * g, names)
            for _ in range(e):
                term = term * diff
        out = out + term
    return out


def test_enumerator_from_rprime_expands_z_powers_binomially():
    # x^0 z^2 y^2 u^0 v^0 -> (y - x)^2
    rp = ExpPoly(5, [((0, 2, 2, 0, 0), 1)])
    assert enumerator_from_rprime(rp, 1, 3).render() == "x1^2 - 2*x1*y1 + y1^2"
    # Layout x1 x2 z1 z2 y1 y2 u v; z exponents up to 3, overlapping
    # monomials, and a v exponent that scales by p^v.
    rp = ExpPoly(8, [
        ((1, 0, 2, 1, 3, 3, 1, 2), 3),
        ((2, 0, 1, 3, 2, 3, 0, 1), -1),
        ((0, 1, 3, 0, 4, 2, 2, 0), 2),
        ((3, 1, 0, 2, 1, 2, 0, 3), 5),
    ])
    got = enumerator_from_rprime(rp, 2, 3)
    want = reference_from_rprime(rp, 2, 3)
    assert got == want
    assert got.names == want.names
    assert got.render() == want.render()


# -- homogeneous enumerator and the factor product ---------------------------------


@pytest.mark.parametrize("name, code", tutte_code_corpus(0),
                         ids=[name for name, _ in tutte_code_corpus(0)])
def test_homogeneous_enumerator_matches_weight_distribution(name, code):
    for supp in (ChainSupport(code.ring, code.n), HammingSupport(code.ring, code.n)):
        top = supp.ambient_weight()
        want = {(w, top - w): a for w, a in enumerate(weight_distribution(code, supp)) if a}
        got = homogeneous_enumerator(code, supp)
        assert got.names == ("x", "y")
        assert got.terms == want


Z2Z4 = parse_ring("Z_2 x Z_4")
PRODUCT_CODES = [
    ("Z_2xZ_4^2 zero", zero_code(Z2Z4, 2)),
    ("Z_2xZ_4^2 <((1,1),(0,2))>", span(Z2Z4, 2, [((1, 1), (0, 2))])),
    ("Z_2xZ_4^2 <((1,2),(1,1)), ((0,1),(1,0))>",
     span(Z2Z4, 2, [((1, 2), (1, 1)), ((0, 1), (1, 0))])),
    ("Z_2xZ_4^3 <((1,3),(0,2),(1,1))>", span(Z2Z4, 3, [((1, 3), (0, 2), (1, 1))])),
    *z6_product_code_corpus(0),
]


@pytest.mark.parametrize("name, code", PRODUCT_CODES, ids=[name for name, _ in PRODUCT_CODES])
def test_enumerator_product_matches_refined_enumerator(name, code):
    supp = ChainSupport(code.ring, code.n)
    got = enumerator_product(code, supp)
    want = refined_enumerator(code, supp)
    assert got == want
    assert got.names == want.names


# -- inclusion-exclusion --------------------------------------------------------------


def test_inclusion_exclusion_check_refuses_a_grid_over_the_lattice_cap():
    z4 = parse_ring("Z_4")
    with pytest.raises(CapExceededError, match="lattice size needs 6561 > cap 4096"):
        inclusion_exclusion_check(zero_code(z4, 8))
    assert inclusion_exclusion_check(zero_code(z4, 3)).ok
