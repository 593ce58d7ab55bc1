"""Derandomized property tests over random codes of length n <= 3.

Rings are the chain rings Z_2 ... Z_9 and the products Z_2 x Z_3,
Z_2 x Z_2 and Z_4 x Z_2; the last two have factor sizes that are not
coprime, so ``Pir.from_int`` does not reach every element and generators
are drawn as residue tuples instead.  Codes have at most two generators,
which keeps every submodule enumeration below a few hundred codewords.

The chain-support latroid and the block matroid are compared with
reference constructions that evaluate one support per (label, codeword)
pair.  The rectangular-support latroid and the modular-function check are
compared with references that list the rectangular modules by the exponents
of their ideals and their members by valuations.  The submodule enumerator
is compared with the closure of the cyclic submodules under pairwise sums
in Python tuple arithmetic, and the submodule-lattice latroid with
lambda(M) - lambda(M n C) taken by intersecting codeword sets.  The subcode
oracle's arrays (lambda, M and wt of every submodule, read off the masks)
are compared with each submodule taken as a code, M by tuple arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_supports import BATCH_RINGS, reference_chain_support, sleq
from test_weights import check_oracle_against_references

from latroids.code_latroids import (
    block_matroid,
    chain_support_latroid,
    latroid_from_code,
    latroid_weights_equal_code_weights,
    rect_supp_latroid,
)
from latroids.codes import (
    Code,
    enumerate_submodules,
    full_space,
    length_lambda,
    span,
    zero_code,
)
from latroids.core import Latroid, dual_latroid, validate_latroid
from latroids.enumerators import (
    enumerator_from_tutte,
    inclusion_exclusion_check,
    pir_tutte_corollary,
    refined_enumerator,
    weight_distribution,
)
from latroids.lattices import boolean_lattice, chain_support_lattice
from latroids.rings import intlog, parse_ring
from latroids.supports import (
    ChainSupport,
    HammingSupport,
    ProductSupport,
    TableSupport,
    modular_function_on_rectangulars,
    rectangular_supports,
    validate_modular,
)

RINGS = (
    "Z_2", "Z_3", "Z_4", "Z_5", "Z_7", "Z_8", "Z_9",
    "Z_2 x Z_3", "Z_2 x Z_2", "Z_4 x Z_2",
)


def reference_chain_support_latroid(code):
    """rho(s) = |s| - lambda(M_s n C), one support comparison per (grid
    label, codeword) pair and lambda factor by factor from the projections."""
    ring, ell = code.ring, code.ring.ell

    def rho(label):
        words = [c for c in code.codewords if sleq(reference_chain_support(ring, c), label)]
        sub = Code(ring, code.n, (), frozenset(words))
        return tuple(
            sum(label[j::ell]) - intlog(f.p, len(sub.factor(j)))
            for j, f in enumerate(ring.factors)
        )

    def length(label):
        return tuple(sum(label[j::ell]) for j in range(ell))

    return Latroid.from_functions(chain_support_lattice(ring, code.n), rho, length)


def reference_block_matroid(code):
    """rho(S) = |S| - dim{c : supp(c) in S}, one subset test per (S, c)."""
    q = code.ring.factors[0].p

    def subcode_dim(s):
        words = [
            c for c in code.codewords
            if all(i in s for i in range(code.n) if c[i] != code.ring.zero)
        ]
        return intlog(q, len(words))

    return Latroid.from_functions(boolean_lattice(code.n), lambda s: len(s) - subcode_dim(s), len)


def is_field(ring):
    return ring.ell == 1 and ring.factors[0].k == 1


@st.composite
def codes(draw, ring):
    n = draw(st.integers(1, 3))
    element = st.tuples(*(st.integers(0, size - 1) for size in ring.sizes))
    generators = draw(st.lists(st.tuples(*[element] * n), max_size=2))
    return span(ring, n, generators)


@pytest.mark.parametrize("ring_name", ("Z_4", "Z_9", "Z_2 x Z_3", "Z_2 x Z_4", "Z_2 x Z_2"))
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_length_lambda_is_the_sum_over_factors(ring_name, data):
    # lambda(C) = Omega(|C|) against log_p |C_i| summed over the projections
    code = data.draw(codes(parse_ring(ring_name)))
    by_factor = sum(intlog(f.p, len(code.factor(i))) for i, f in enumerate(code.ring.factors))
    assert length_lambda(code) == by_factor


@pytest.mark.parametrize("ring_name", RINGS)
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_chain_support_latroid_of_random_code(ring_name, data):
    code = data.draw(codes(parse_ring(ring_name)))
    lt = chain_support_latroid(code)
    assert lt == reference_chain_support_latroid(code)
    if is_field(code.ring):
        assert block_matroid(code) == reference_block_matroid(code)
    report = validate_latroid(lt)
    assert report.ok, report.summary()
    dual = dual_latroid(lt)
    report = validate_latroid(dual)
    assert report.ok, report.summary()
    assert dual_latroid(dual) == lt

    direct = refined_enumerator(code, ChainSupport(code.ring, code.n))
    if code.ring.ell == 1:
        assert enumerator_from_tutte(lt, code.ring.factors[0].p) == direct
    else:
        rep = pir_tutte_corollary(code, direct)
        assert rep.ok, rep.summary()

    rep = latroid_weights_equal_code_weights(code)
    assert rep.ok, rep.summary()


def unique_projection_ranks(code):
    """rho(s) factor by factor, lambda_j(M_s n C) from the distinct
    projections of the words below s as ``np.unique`` finds them."""
    ring, n, ell = code.ring, code.n, code.ring.ell
    digits = ring.encode(code.codewords, n)
    levels = ChainSupport(ring, n).of_digits(digits)
    ranks = []
    for label in chain_support_lattice(ring, n).labels:
        below = digits[(levels <= label).all(axis=1)]
        ranks.append([
            sum(label[j::ell]) - intlog(f.p, len(np.unique(below[:, j::ell], axis=0)))
            for j, f in enumerate(ring.factors)
        ])
    return ranks


@pytest.mark.parametrize("ring_name", ("Z_2 x Z_4", "Z_2 x Z_3"))
def test_chain_support_latroid_where_words_share_projections(ring_name):
    # up to |R_2|^n words per projection onto R_1, and |R_1|^n onto R_2
    ring = parse_ring(ring_name)
    two = ring.sizes[1]
    for code in (
        full_space(ring, 2),
        span(ring, 3, [((1, 1), (0, 2), (1, 0)), ((0, 2), (1, 0), (0, 1))]),
        span(ring, 3, [((1, 0), (1, 0), (0, 0)), ((0, two - 1), (0, 1), (0, 1))]),
    ):
        assert chain_support_latroid(code).rank.tolist() == unique_projection_ranks(code)
        assert all(len(code.factor(j)) < len(code) for j in (0, 1))


@pytest.mark.parametrize("ring_name", BATCH_RINGS)
def test_code_latroids_of_zero_code_match_references(ring_name):
    ring = parse_ring(ring_name)
    for n in (1, 2, 3):
        code = zero_code(ring, n)
        lt = chain_support_latroid(code)
        assert validate_latroid(lt).ok
        assert lt == reference_chain_support_latroid(code)
        if is_field(ring):
            lt = block_matroid(code)
            assert validate_latroid(lt).ok
            assert lt == reference_block_matroid(code)


def test_code_latroids_and_enumerators_evaluate_supports_in_one_batch(monkeypatch):
    calls = []
    for cls in (ChainSupport, HammingSupport):
        per_vector = cls.__call__
        monkeypatch.setattr(
            cls, "__call__", lambda self, v, f=per_vector: calls.append(v) or f(self, v)
        )
    z6, f3 = parse_ring("Z_2 x Z_3"), parse_ring("Z_3")
    code = span(z6, 3, [((1, 1), (0, 2), (1, 0))])
    chain = ChainSupport(z6, 3)
    chain_support_latroid(code)
    refined_enumerator(code, chain)
    weight_distribution(code, chain)
    assert inclusion_exclusion_check(code).ok
    block_matroid(span(f3, 4, [((1,), (2,), (0,), (1,))]))
    assert calls == []


# -- rectangular modules ---------------------------------------------------------

RECT_RINGS = ("Z_2", "Z_4", "Z_8", "Z_9", "Z_2 x Z_3", "Z_4 x Z_3", "Z_2 x Z_2")


@functools.cache
def reference_rectangular_modules(ring, n):
    """The rectangular modules (p_1^e_1) x ... of R^n, keyed by their
    exponents (coordinate-major), each with the list of its members: the
    vectors whose valuations reach the exponents."""
    ks = [f.k for _ in range(n) for f in ring.factors]
    space = list(ring.vectors(n))
    valuations = {v: [t for a in v for t in ring.valuations(a)] for v in space}
    return ks, {
        e: [v for v in space if all(t >= x for t, x in zip(valuations[v], e))]
        for e in itertools.product(*(range(k + 1) for k in ks))
    }


def reference_rect_supports(supp):
    """supp(M) for every rectangular module M, keyed by exponents: the
    maximum over the members of M."""
    ks, modules = reference_rectangular_modules(supp.ring, supp.n)
    values = {v: supp(v) for v in modules[(0,) * len(ks)]}
    return ks, {e: tuple(map(max, zip(*(values[v] for v in vs)))) for e, vs in modules.items()}


def reference_rect_latroid(code, supp):
    """(rank, length) keyed by the level label k - e: rho(M) = supp(M) -
    supp(M ^ K), where K takes at each coordinate the least valuation of the
    codewords' entries (the ideal they generate) and the meet of ideals
    takes the larger exponent."""
    ks, supp_of = reference_rect_supports(supp)
    words = [[x for a in w for x in code.ring.valuations(a)] for w in code.codewords]
    closure = [min(column) for column in zip(*words)]
    out = {}
    for e, s in supp_of.items():
        meet = supp_of[tuple(map(max, e, closure))]
        out[tuple(k - x for k, x in zip(ks, e))] = (tuple(a - b for a, b in zip(s, meet)), s)
    return out


def reference_modular_function_verdicts(supp):
    """The two verdicts of ``modular_function_on_rectangulars``: supp(A) +
    supp(B) = supp(A + B) + supp(A n B) for all pairs (sums take the smaller
    exponents, intersections the larger), and supp strictly increasing."""
    _, supp_of = reference_rect_supports(supp)

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    pairs = list(itertools.product(supp_of, repeat=2))
    return {
        "modular_function": all(
            plus(supp_of[a], supp_of[b])
            == plus(supp_of[tuple(map(min, a, b))], supp_of[tuple(map(max, a, b))])
            for a, b in pairs
        ),
        "strictly_increasing": all(
            sleq(supp_of[a], supp_of[b]) and supp_of[a] != supp_of[b]
            for a, b in pairs
            if a != b and all(x >= y for x, y in zip(a, b))
        ),
    }


@pytest.mark.parametrize("ring_name", RECT_RINGS)
@settings(derandomize=True, max_examples=4, deadline=None, database=None)
@given(data=st.data())
def test_rect_latroid_of_random_code_matches_reference(ring_name, data):
    code = data.draw(codes(parse_ring(ring_name)))
    ring, n = code.ring, code.n
    product = ProductSupport(ring, [
        ChainSupport(ring, 1) if i % 2 else HammingSupport(ring, 1) for i in range(n)
    ])
    # Arbitrary values, not a support: the set support of M is the maximum
    # over its members whatever the function, and for a standard support
    # the maximum is already attained at the top chain level of M.
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    values = {v: (rng.randrange(4), rng.randrange(4)) for v in ring.vectors(n)}
    table = TableSupport(ring, n, values)
    ks, reference = reference_rect_supports(table)
    got = rectangular_supports(table).tolist()
    labels = chain_support_lattice(ring, n).labels
    assert {lab: tuple(row) for lab, row in zip(labels, got)} == {
        tuple(k - x for k, x in zip(ks, e)): s for e, s in reference.items()
    }
    for supp in (ChainSupport(ring, n), HammingSupport(ring, n), product, table):
        verdicts = {c.name: c.ok for c in modular_function_on_rectangulars(supp).checks}
        assert verdicts == reference_modular_function_verdicts(supp)
        if not (supp.is_standard and validate_modular(supp).ok):
            with pytest.raises(ValueError, match="need a (standard|modular) support"):
                rect_supp_latroid(code, supp)
            continue
        lt = rect_supp_latroid(code, supp)
        got = {
            lab: (tuple(lt.rank[i].tolist()), tuple(lt.length[i].tolist()))
            for i, lab in enumerate(lt.lattice.labels)
        }
        assert got == reference_rect_latroid(code, supp)
        assert lt.lattice == chain_support_lattice(ring, n)
        report = validate_latroid(lt)
        assert report.ok, report.summary()


# -- submodules -----------------------------------------------------------------

SUBMODULE_RINGS = ("Z_2", "Z_3", "Z_4", "Z_8", "Z_9", "Z_2 x Z_3", "Z_2 x Z_4", "Z_2 x Z_2")


def reference_submodules(code):
    """Cyclic submodules closed under pairwise sums, by Python tuple
    arithmetic: a set of word positions per submodule, sorted by size and
    then by the sorted positions, as ``enumerate_submodules`` orders them."""
    ring, words = code.ring, code.sorted_words()
    pos = {w: i for i, w in enumerate(words)}
    add = [[pos[ring.vadd(x, y)] for y in words] for x in words]
    cyclics = {frozenset(pos[ring.vscale(r, w)] for r in ring.elements()) for w in words}
    found, frontier = set(cyclics), cyclics
    while frontier:
        frontier = {
            frozenset(add[i][j] for i in a for j in b)
            for a in frontier for b in cyclics if not b <= a
        } - found
        found |= frontier
    return [
        Code(ring, code.n, (), frozenset(words[i] for i in s))
        for s in sorted(found, key=lambda s: (len(s), sorted(s)))
    ]


@pytest.mark.parametrize("ring_name", ("Z_4", "Z_9", "Z_2 x Z_3", "Z_2 x Z_4", "Z_4 x Z_2"))
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_oracle_of_random_code_matches_each_submodule(ring_name, data):
    # lambda, M and wt from the masks against each submodule as a code
    check_oracle_against_references(data.draw(codes(parse_ring(ring_name))))


@pytest.mark.parametrize("ring_name", SUBMODULE_RINGS)
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_submodules_of_random_code_match_pairwise_sums(ring_name, data):
    code = data.draw(codes(parse_ring(ring_name)))
    got = enumerate_submodules(code)
    assert [s.codewords for s in got] == [s.codewords for s in reference_submodules(code)]
    ring, n = code.ring, code.n
    if ring.size**n > 81:
        return
    # rho(M) = lambda(M) - lambda(M n C), the intersection taken on words
    lt = latroid_from_code(code)
    for i, m in enumerate(lt.lattice.labels):
        inside = Code(ring, n, (), m.codewords & code.codewords)
        assert lt.rank[i].tolist() == [length_lambda(m) - length_lambda(inside)]
        assert lt.length[i].tolist() == [length_lambda(m)]
