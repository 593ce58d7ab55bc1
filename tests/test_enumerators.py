"""The enumerators and the polynomials they print as: the one term
collector of ``ExpPoly``, the count table read off a chain-support latroid
against the ``ExpPoly`` expansion of its printed R', the direct table past
the lattice cap, the homogeneous enumerator, and the product of the CRT
factors' refined enumerators."""

from __future__ import annotations

from collections import Counter

import pytest

from latroids.code_latroids import chain_support_latroid
from latroids.codes import full_space, span, span_from_ints
from latroids.errors import CapExceededError
from latroids.enumerators import (
    ExpPoly,
    enumerator_from_tutte,
    enumerator_product,
    inclusion_exclusion_check,
    refined_enumerator,
    tutte_whitney_Rprime,
    weight_distribution,
)
from latroids.limits import LATTICE_CAP
from latroids.rings import parse_ring
from latroids.selftest import tutte_code_corpus, z6_product_code_corpus
from latroids.supports import ChainSupport, HammingSupport

# -- the collector -------------------------------------------------------------


def test_constructor_adds_repeated_exponents_and_drops_zero_sums():
    poly = ExpPoly(2, [((1, 0), 2), ([1, 0], 3), ((0, 1), 4), ((0, 1), -4), ((0, 0), 0)])
    assert poly.terms == {(1, 0): 5}
    assert ExpPoly(1, [((2,), 1), ((2,), -1)]).is_zero()
    assert ExpPoly(3, [((0, 0, 0), 0)]).is_zero()


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


Z2Z4 = parse_ring("Z_2 x Z_4")
PRODUCT_CODES = [
    ("Z_2xZ_4^2 zero", span(Z2Z4, 2, [])),
    ("Z_2xZ_4^2 <((1,1),(0,2))>", span(Z2Z4, 2, [((1, 1), (0, 2))])),
    ("Z_2xZ_4^2 <((1,2),(1,1)), ((0,1),(1,0))>",
     span(Z2Z4, 2, [((1, 2), (1, 1)), ((0, 1), (1, 0))])),
    ("Z_2xZ_4^3 <((1,3),(0,2),(1,1))>", span(Z2Z4, 3, [((1, 3), (0, 2), (1, 1))])),
    *z6_product_code_corpus(0),
]


def _factor_codes():
    for name, code in PRODUCT_CODES:
        for j in range(code.ring.ell):
            yield f"{name} factor {j}", code.factor(j)


REFERENCE_CASES = [
    *((name, code) for name, code in tutte_code_corpus(0) if code.ring.ell == 1),
    *_factor_codes(),
]


@pytest.mark.parametrize("name, code", REFERENCE_CASES, ids=[name for name, _ in REFERENCE_CASES])
def test_enumerator_from_rprime_matches_the_reference_expansion(name, code):
    # the table read off the latroid against the ExpPoly expansion of the
    # R' the CLI prints for the same latroid
    lt = chain_support_latroid(code)
    p = code.ring.factors[0].p
    got = enumerator_from_tutte(lt, p)
    want = reference_from_rprime(tutte_whitney_Rprime(lt), code.n, p)
    assert got.poly() == want
    assert got.poly().names == want.names
    assert got.poly().render() == want.render()
    assert got == refined_enumerator(code, ChainSupport(code.ring, code.n))


# R' of the chain-support latroid of Z_4^1 itself, layout x z y u v: the
# grid 0 <= B <= 2 with z = (B < 2), y = 2 - B and v = lambda(C_B) = B.
GRID_RPRIME = [((0, 1, 2, 0, 0), 1), ((1, 1, 1, 0, 1), 1), ((2, 0, 0, 0, 2), 1)]


def test_enumerator_from_rprime_of_z4():
    lt = chain_support_latroid(full_space(parse_ring("Z_4"), 1))
    assert tutte_whitney_Rprime(lt) == ExpPoly(5, GRID_RPRIME)
    # Z_4 has 2 units (x^2), one 2 (x y) and one 0 (y^2)
    assert enumerator_from_tutte(lt, 2).poly().render() == "2*x1^2 + x1*y1 + y1^2"


def test_refined_enumerator_past_the_lattice_cap_has_one_term_per_support():
    # the grid of Z_4^9 has 3^9 points, the code 32 words in 20 supports
    z4 = parse_ring("Z_4")
    code = span_from_ints(z4, 9, [[1, 2, 0, 3, 1, 0, 2, 2, 1], [0, 2, 2, 0, 0, 2, 0, 2, 2],
                                  [0, 0, 1, 1, 3, 0, 0, 1, 2]])
    supp = ChainSupport(z4, 9)
    assert 3**9 > LATTICE_CAP
    want = Counter(map(tuple, supp.of_digits(code.digits).tolist()))
    table = refined_enumerator(code, supp)
    assert [tuple(pt) for pt in table.points.tolist()] == sorted(want)
    assert table.counts.tolist() == [want[pt] for pt in sorted(want)]
    assert table.top == (2,) * 9


# -- homogeneous enumerator and the factor product ---------------------------------


@pytest.mark.parametrize("name, code", tutte_code_corpus(0),
                         ids=[name for name, _ in tutte_code_corpus(0)])
def test_homogeneous_enumerator_matches_weight_distribution(name, code):
    for supp in (ChainSupport(code.ring, code.n), HammingSupport(code.ring, code.n)):
        top = supp.ambient_weight()
        dist, table = weight_distribution(code, supp), refined_enumerator(code, supp)
        want = {(w, top - w): a for w, a in enumerate(dist) if a}
        got = table.homogeneous()
        assert got.names == ("x", "y")
        assert got.terms == want
        assert table.weight_distribution() == dist


@pytest.mark.parametrize("name, code", PRODUCT_CODES, ids=[name for name, _ in PRODUCT_CODES])
def test_enumerator_product_matches_refined_enumerator(name, code):
    supp = ChainSupport(code.ring, code.n)
    got = enumerator_product(code, supp)
    assert got == refined_enumerator(code, supp)
    assert got.counts.sum() == len(code)


# -- inclusion-exclusion --------------------------------------------------------------


def test_inclusion_exclusion_check_refuses_a_grid_over_the_lattice_cap():
    z4 = parse_ring("Z_4")
    with pytest.raises(CapExceededError, match="lattice size needs 6561 > cap 4096"):
        inclusion_exclusion_check(span(z4, 8, []))
    assert inclusion_exclusion_check(span(z4, 3, [])).ok
