import itertools

import numpy as np
import pytest
from test_lattices import clear_lattice_caches
from test_weights import reference_big_m, scaled

from latroids import codes, lattices
from latroids.code_latroids import latroid_from_code
from latroids.codes import (
    Code,
    big_m,
    cyclic_code,
    enumerate_submodules,
    full_space,
    length_lambda,
    mu_factor,
    span,
    span_from_ints,
)
from latroids.errors import CapExceededError
from latroids.rings import parse_ring
from latroids.supports import ChainSupport

Z4 = parse_ring("Z_4")
Z8 = parse_ring("Z_8")
F2 = parse_ring("Z_2")


def ints(ring, words):
    return {tuple(ring.to_int(a) for a in w) for w in words}


def test_span_z4_12():
    c = span_from_ints(Z4, 2, [[1, 2]])
    assert ints(Z4, c.codewords) == {(0, 0), (1, 2), (2, 0), (3, 2)}


def test_span_empty_is_zero():
    c = span(Z4, 2, [])
    assert len(c) == 1


def test_span_f2_two_generators():
    c = span_from_ints(F2, 3, [[1, 1, 0], [0, 1, 1]])
    assert len(c) == 4


def test_span_cap():
    # the cap bounds |C|: 2 words pass, the 8 words of F_2^3 do not
    assert len(span_from_ints(F2, 3, [[1, 0, 0]], cap=4)) == 2
    with pytest.raises(CapExceededError, match="codeword materialization needs 8 > cap 4"):
        span_from_ints(F2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], cap=4)


def test_lambda_examples():
    assert length_lambda(span_from_ints(Z4, 2, [[1, 2]])) == 2
    assert length_lambda(span(Z4, 2, [])) == 0
    assert length_lambda(span_from_ints(Z8, 1, [[2]])) == 2
    z2z4 = parse_ring("Z_2 x Z_4")
    assert length_lambda(span(z2z4, 1, [((1, 1),)])) == 3  # Z_2 x Z_4 has length 1 + 2


def test_lambda_rejects_a_size_with_a_prime_outside_the_ring():
    words = frozenset([((0,),), ((1,),), ((2,),)])
    with pytest.raises(ValueError, match="3 is not a product of the primes"):
        length_lambda(Code(Z4, 1, (), words))


@pytest.mark.parametrize("ring_name, n", [
    ("Z_4", 2), ("Z_8", 1), ("Z_9", 2), ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 2), ("Z_4 x Z_2", 1),
])
def test_big_m_on_digits_matches_the_tuple_reference(ring_name, n):
    for sub in enumerate_submodules(full_space(parse_ring(ring_name), n)):
        assert big_m(sub) == reference_big_m(sub)


def test_digits_and_masks_are_kept_read_only():
    code = span_from_ints(Z4, 2, [[1, 2], [0, 2]])
    assert code.digits.tolist() == code.ring.encode(code.sorted_words(), 2).tolist()
    assert code.digits is code.digits and code.submodule_masks is code.submodule_masks
    masks = code.submodule_masks
    assert masks.dtype == bool and masks.shape == (8, 8)
    assert [set(np.flatnonzero(row).tolist()) for row in masks] == [
        {i for i, w in enumerate(code.sorted_words()) if w in sub.codewords}
        for sub in enumerate_submodules(code)
    ]
    for array in (code.digits, masks):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def test_mu_examples():
    # over a chain ring M(C) is the least number of generators
    assert big_m(span_from_ints(Z4, 2, [[1, 2]])) == 1
    assert big_m(span(Z4, 2, [])) == 0
    assert big_m(full_space(Z4, 2)) == 2


def test_big_m_splits_over_factors():
    z6 = parse_ring("Z_2 x Z_3")
    c = span_from_ints(z6, 1, [[1]])
    assert big_m(c) == 2  # one generator needed in each factor
    assert [mu_factor(c, i) for i in range(c.ring.ell)] == [1, 1]


def test_cardinality_is_power_of_residue_field():
    # |C| = prod p_i^(lambda_i) on every enumerated submodule
    for code in (span_from_ints(Z4, 2, [[1, 2], [0, 2]]), full_space(Z8, 1)):
        for sub in enumerate_submodules(code):
            sizes = 1
            for i, f in enumerate(code.ring.factors):
                sizes *= f.p ** (length_lambda(sub.factor(i)))
            assert sizes == len(sub)


def test_enumerate_submodules_z4_12():
    c = span_from_ints(Z4, 2, [[1, 2]])
    subs = enumerate_submodules(c)
    assert [len(s) for s in subs] == [1, 2, 4]
    assert ints(Z4, subs[1].codewords) == {(0, 0), (2, 0)}


def test_enumerate_submodules_zero_and_plane():
    assert len(enumerate_submodules(span(Z4, 2, []))) == 1
    assert len(enumerate_submodules(full_space(F2, 2))) == 5


def test_enumerate_submodules_closed_under_sum_and_intersection():
    c = span_from_ints(Z4, 2, [[1, 1], [0, 2]])
    subs = enumerate_submodules(c)
    keys = {s.codewords for s in subs}
    for a, b in itertools.combinations(subs, 2):
        assert frozenset(Z4.vadd(x, y) for x in a.codewords for y in b.codewords) in keys
        assert a.codewords & b.codewords in keys


@pytest.mark.parametrize("ring_text, tail", [("Z_2", 62), ("Z_3", 39), ("Z_4", 38)])
def test_enumerate_submodules_beyond_int64_indices(ring_text, tail):
    # Generators (e_i | random tail) put the code in an R^n with at least
    # 2**63 vectors; projecting onto the first two coordinates is an
    # order-preserving bijection onto the short code R^2, so the submodules
    # must correspond one to one, in the same order.
    ring = parse_ring(ring_text)
    size = ring.size
    rows = [
        [1, 0] + [(3 * j + 1) % size for j in range(tail)],
        [0, 1] + [(j * j + 2) % size for j in range(tail)],
    ]
    ambient = size ** (2 + tail)
    assert ambient >= 2**63
    long_code = span_from_ints(ring, 2 + tail, rows, cap=ambient)
    # the locator's cut path: unreduced rows, repeats included, are found at
    # their positions among the sorted words, as np.unique ranks them
    digits = ring.encode(long_code.sorted_words(), 2 + tail)
    rng = np.random.default_rng(0)
    sample = digits[rng.integers(len(digits), size=3 * len(digits))]
    _, rank = np.unique(np.concatenate([digits, sample]), axis=0, return_inverse=True)
    unreduced = sample + ring.mods(2 + tail) * rng.integers(0, 3, size=sample.shape)
    locate = codes._row_locator(digits, ring.mods(2 + tail))
    assert locate(unreduced).tolist() == rank.ravel()[len(digits):].tolist()
    long_subs = enumerate_submodules(long_code)
    short_subs = enumerate_submodules(full_space(ring, 2))
    assert [{w[:2] for w in s.codewords} for s in long_subs] == [
        set(s.codewords) for s in short_subs
    ]


def test_full_space_is_the_span_of_the_standard_basis():
    for ring_text, n in (("Z_2", 3), ("Z_4", 2), ("Z_9", 2), ("Z_2 x Z_3", 2), ("Z_2 x Z_2", 2)):
        ring = parse_ring(ring_text)
        basis = [ring.basis_vector(n, i) for i in range(n)]
        full, spanned = full_space(ring, n), span(ring, n, basis)
        assert full == spanned and full.generators == spanned.generators
        assert len(full) == ring.size**n


def test_span_bounds_only_the_code():
    # Z_2^30 has 2^30 words, past every cap; the span builds 2
    code = span_from_ints(F2, 30, [[1] * 30])
    assert len(code) == 2 and code.n == 30


def test_full_space_checks_the_span_cap_before_building_words():
    with pytest.raises(CapExceededError, match="materializing a code in Z_2\\^21 needs 2097152"):
        full_space(F2, 21)


def test_enumerate_submodules_refuses_the_4097th_subspace_of_f2_12():
    # R^n is enumerated level by level, and each level's count is checked
    # before it is built: the 29,212 subspaces of F_2^7 are refused.
    with pytest.raises(CapExceededError, match="submodule count needs 29212 > cap 4096"):
        enumerate_submodules(full_space(F2, 12))


def test_the_closure_refuses_the_4097th_subspace_of_a_code():
    # The coordinate subspace F_2^12 + 0 of F_2^13 is no R^n, so the closure
    # enumerates it: its 4,096 cyclic subspaces (the zero space and 4,095
    # lines) fill the cap, and the first plane found is one past it.
    code = span(F2, 13, [F2.basis_vector(13, i) for i in range(12)])
    with pytest.raises(CapExceededError, match="submodule count needs 4097 > cap 4096"):
        enumerate_submodules(code)


def test_enumerate_submodules_cap(monkeypatch):
    monkeypatch.setattr(codes, "SUBMODULE_CAP", 4)
    with pytest.raises(CapExceededError, match="submodule enumeration needs 8 > cap 4"):
        enumerate_submodules(full_space(F2, 3))


def test_enumerate_submodules_counts_each_submodule_against_the_lattice_cap(monkeypatch):
    # F_2^4 has 67 subspaces, counted before they are built (F_2^3's 16 pass).
    monkeypatch.setattr(codes, "LATTICE_CAP", 20)
    with pytest.raises(CapExceededError, match="submodule count needs 67 > cap 20"):
        enumerate_submodules(full_space(F2, 4))


def test_the_closure_counts_each_submodule_against_the_lattice_cap(monkeypatch):
    # F_2^4 + 0 in F_2^5 has 16 cyclic subspaces and 67 in all: the 21st
    # that the closure finds is refused.
    monkeypatch.setattr(codes, "LATTICE_CAP", 20)
    code = span(F2, 5, [F2.basis_vector(5, i) for i in range(4)])
    with pytest.raises(CapExceededError, match="submodule count needs 21 > cap 20"):
        enumerate_submodules(code)


def test_latroid_from_code_checks_the_ambient_space_before_spanning_it(monkeypatch):
    def no_span(ring, n):
        raise AssertionError(f"spanned {ring}^{n}")

    clear_lattice_caches()
    monkeypatch.setattr(lattices, "full_space", no_span)
    code = span_from_ints(F2, 16, [[1] * 16])
    with pytest.raises(CapExceededError, match="submodule enumeration needs 65536 > cap 4096"):
        latroid_from_code(code)
    assert lattices._ambient_submodules.cache_info().currsize == 0


def test_latroids_of_one_ambient_space_share_its_lattice():
    clear_lattice_caches()
    codes_of_z4_2 = [span_from_ints(Z4, 2, [[1, 2]]), span_from_ints(Z4, 2, [[2, 0], [0, 2]])]
    shared = [latroid_from_code(code) for code in codes_of_z4_2]
    assert shared[0].lattice is shared[1].lattice
    for code, lt in zip(codes_of_z4_2, shared):
        clear_lattice_caches()
        fresh = latroid_from_code(code)
        assert fresh.lattice is not lt.lattice and fresh.lattice == lt.lattice
        assert np.array_equal(fresh.rank, lt.rank)
        assert np.array_equal(fresh.length, lt.length)


def test_mu_lambda_relation_on_all_submodules():
    # mu = M over a chain ring; mu <= lambda with equality exactly when alpha * C = 0
    for ambient in (full_space(Z4, 2), full_space(Z8, 1)):
        ring = ambient.ring
        p = ring.factors[0].p
        alpha = (p % ring.factors[0].size,)
        for sub in enumerate_submodules(ambient):
            assert big_m(sub) <= length_lambda(sub)
            killed = scaled(sub, alpha)
            assert (big_m(sub) == length_lambda(sub)) == (len(killed) == 1)


def irredundant_generating_sizes(code):
    """Sizes of the inclusion-minimal generating sets of the code, by a
    search over subsets of its nonzero words up to a size of M(C)."""
    if code.is_zero():
        return {0}
    nonzero = [w for w in code.sorted_words() if any(any(a) for a in w)]
    spans = lambda words: len(span(code.ring, code.n, words)) == len(code)
    sizes = set()
    for size in range(1, big_m(code) + 1):
        for subset in itertools.combinations(nonzero, size):
            if spans(subset) and all(
                not spans(subset[:i] + subset[i + 1 :]) for i in range(size)
            ):
                sizes.add(size)
                break
    return sizes


def test_irredundant_sizes_cover_mu_to_bigm():
    # the generator-count range of a product-ring module runs from
    # max_i mu(C_i) to M(C) = sum_i mu(C_i)
    z6 = parse_ring("Z_2 x Z_3")
    whole = span_from_ints(z6, 1, [[1]])
    assert irredundant_generating_sizes(whole) == {1, 2}
    c = span_from_ints(Z4, 2, [[1, 2]])
    assert irredundant_generating_sizes(c) == {1}
    for code in (whole, c, span_from_ints(z6, 2, [[1, 0], [0, 1]])):
        factors = [mu_factor(code, i) for i in range(code.ring.ell)]
        assert irredundant_generating_sizes(code) == set(range(max(factors), big_m(code) + 1))


def test_generating_sizes_nonempty_up_to_big_m():
    # every j in [1, M(C)] is witnessed by some submodule
    for code in (
        span_from_ints(Z4, 2, [[1, 0], [0, 1]]),
        span_from_ints(parse_ring("Z_2 x Z_3"), 2, [[1, 0], [0, 1]]),
    ):
        sizes = set()
        for sub in enumerate_submodules(code):
            sizes |= irredundant_generating_sizes(sub)
        assert set(range(1, big_m(code) + 1)) <= sizes


def rectangular_closure(code):
    """The closure as a chain-support point: level k - e for the ideal (p^e)."""
    return ChainSupport(code.ring, code.n).of_set(code.codewords)


def test_rectangular_closure_examples():
    # (1) x (2), (0) x (0) and (2) x (0) in Z_4^2, at levels 2 - e
    assert rectangular_closure(span_from_ints(Z4, 2, [[1, 2]])) == (2, 1)
    assert rectangular_closure(span(Z4, 2, [])) == (0, 0)
    assert rectangular_closure(span_from_ints(Z4, 2, [[2, 0]])) == (1, 0)


def test_rectangular_closure_is_minimal():
    # M_g holds the code exactly when g lies above the closure; membership of
    # the ideal (p^e), e = k - g, is read off the valuations
    for code in (
        span_from_ints(Z4, 2, [[1, 2]]),
        span_from_ints(Z8, 2, [[2, 4]]),
        span_from_ints(parse_ring("Z_2 x Z_9"), 2, [[3, 6]]),
    ):
        ring, closed = code.ring, rectangular_closure(code)
        tops = [f.k for _ in range(code.n) for f in ring.factors]
        for g in itertools.product(*(range(k + 1) for k in tops)):
            exps = [k - x for k, x in zip(tops, g)]
            inside = all(
                v >= e
                for w in code.codewords
                for v, e in zip([v for a in w for v in ring.valuations(a)], exps)
            )
            assert inside == all(c <= x for c, x in zip(closed, g))


def test_code_equality_ignores_generators():
    a = span_from_ints(Z4, 1, [[1]])
    b = span_from_ints(Z4, 1, [[3]])
    assert a == b and hash(a) == hash(b)
