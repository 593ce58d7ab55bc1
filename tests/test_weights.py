"""Generalized weights: the subcode-minimum oracles, the weights-equal
report builder, the generalized enumerator, R from R', the octacode's
enumerators, and the witness idiom the validators share."""

from __future__ import annotations

from collections import Counter

import pytest

from latroids.code_latroids import (
    _subcodes,
    block_matroid,
    block_matroid_weights_equal,
    chain_support_latroid,
    code_gen_weights_dbar,
    code_gen_weights_dr,
    latroid_weights_equal_code_weights,
    matrix_code,
    product_matrix_code,
    qpolymatroid_axioms,
    rank_metric_latroid,
    single_matrix_code,
    sum_rank_code_gen_weights,
    sum_rank_weights_equal,
    tilde_polymatroid,
    tilde_relation_check,
    weights_equal_report,
)
from latroids.cli import _entry
from latroids.codes import enumerate_submodules, length_lambda, span_from_ints, zero_code
from latroids.core import Latroid
from latroids import codes, enumerators
from latroids.enumerators import (
    ExpPoly,
    enumerator_from_tutte,
    generalized_enumerator,
    generalized_weight_distribution,
    inclusion_exclusion_check,
    refined_enumerator,
    rprime_z_to_one,
    tutte_whitney_Rprime,
)
from latroids.report import Check
from latroids.rings import intlog, parse_ring
from latroids.selftest import rank_metric_code_corpus, tutte_code_corpus, two_block_sum_rank_code
from latroids.supports import ChainSupport, HammingSupport

F2 = parse_ring("Z_2")
Z4 = parse_ring("Z_4")

HAMMING_7_4 = span_from_ints(F2, 7, [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])
Z4_12 = span_from_ints(Z4, 2, [[1, 2]])


# -- subcode-minimum oracles ------------------------------------------------------


def test_hamming_7_4_has_weis_generalized_weights():
    wei = [3, 5, 6, 7]
    assert code_gen_weights_dbar(HAMMING_7_4, HammingSupport(F2, 7)) == wei
    rep = block_matroid_weights_equal(HAMMING_7_4)
    assert rep.ok
    assert [c.name for c in rep.checks] == [f"hamming_d_{r}" for r in range(1, 5)]
    assert rep.checks[1].detail == "oracle 5 vs latroid 5"


def test_z4_cyclic_code_weights():
    supp = ChainSupport(Z4, 2)
    assert code_gen_weights_dbar(Z4_12, supp) == [1, 3]
    assert code_gen_weights_dr(Z4_12, supp) == [1]


@pytest.mark.parametrize("oracle, r, message", [
    (code_gen_weights_dbar, 7, "r = 7 outside [1, 2]"),
    (code_gen_weights_dbar, 0, "r = 0 outside [1, 2]"),
    (code_gen_weights_dr, 2, "r = 2 outside [1, 1]"),
])
def test_out_of_range_r_raises(oracle, r, message):
    # The oracles return every d_r; the weights command picks entry r and
    # owns the range check.
    with pytest.raises(ValueError) as err:
        _entry(oracle(Z4_12, ChainSupport(Z4, 2)), r)
    assert str(err.value) == message


def test_zero_code_has_no_weights():
    zero = zero_code(Z4, 2)
    assert code_gen_weights_dbar(zero, ChainSupport(Z4, 2)) == []
    rep = latroid_weights_equal_code_weights(zero)
    assert rep.to_dict() == {
        "ok": True,
        "checks": [{"name": "dbar_equals_latroid", "ok": True, "detail": "zero code"}],
    }


def test_rank_weights_scale_by_m():
    mc = single_matrix_code(2, 3, 1, [((1,), (0,), (0,))])
    assert sum_rank_code_gen_weights(mc) == [1]
    rep = sum_rank_weights_equal(mc)
    assert rep.ok
    assert rep.checks == (Check("sum_rank_d_1", True, "m*oracle 3 vs latroid 3"),)
    empty = single_matrix_code(2, 3, 1, [])
    assert sum_rank_weights_equal(empty).checks == (Check("sum_rank_weights", True, "zero code"),)


def q_binomial(k: int, r: int, q: int) -> int:
    """The number of r-dimensional subspaces of F_q^k."""
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


MATRIX_CODES = list(rank_metric_code_corpus()) + [
    ("two-block F_2", two_block_sum_rank_code()),
    ("two-block F_3", product_matrix_code(
        single_matrix_code(3, 3, 1, [[(1,), (0,), (0,)]]),
        single_matrix_code(3, 3, 2, [[(1, 0), (0, 1), (0, 0)], [(0, 1), (0, 0), (1, 0)]]),
    )),
]


@pytest.mark.parametrize("name, mc", MATRIX_CODES, ids=[name for name, _ in MATRIX_CODES])
def test_matrix_code_subcodes_are_counted_by_gaussian_binomials(name, mc):
    k = mc.dim()
    subs = _subcodes(mc)
    assert len(set(subs)) == len(subs)
    assert all(s <= mc.codewords for s in subs)
    by_dim = Counter(intlog(mc.q, len(s)) for s in subs)
    assert by_dim == {r: q_binomial(k, r, mc.q) for r in range(k + 1)}


def test_long_matrix_code_subcodes():
    # 8 x 8 binary matrices: the code lives in F_2^64, past int64 indices.
    gens = [
        [[(i * j + k) % 2 for j in range(8)] for i in range(8)]
        for k in range(2)
    ] + [[[int(i == j) for j in range(8)] for i in range(8)]]
    mc = single_matrix_code(2, 8, 8, gens)
    k = mc.dim()
    subs = _subcodes(mc)
    assert Counter(intlog(2, len(s)) for s in subs) == {
        r: q_binomial(k, r, 2) for r in range(k + 1)
    }
    assert sum_rank_code_gen_weights(mc)[-1] == 8


def test_product_matrix_code_is_the_direct_product():
    a = single_matrix_code(3, 3, 1, [[(1,), (0,), (0,)]])
    b = single_matrix_code(3, 3, 2, [[(1, 0), (0, 1), (0, 0)], [(0, 1), (0, 0), (1, 0)]])
    p = product_matrix_code(a, b)
    assert p.blocks == a.blocks + b.blocks
    assert p.codewords == {x + y for x in a.codewords for y in b.codewords}


def test_q_binomial():
    assert [q_binomial(3, r, 2) for r in range(4)] == [1, 7, 7, 1]
    assert q_binomial(2, 1, 3) == 4


def test_matrix_code_needs_a_prime_field():
    with pytest.raises(ValueError, match="not prime"):
        matrix_code(4, [(2, 2)], [(((1, 0), (0, 1)),)])


def test_weights_equal_report_flags_mismatches():
    rep = weights_equal_report("dbar", "dbar_equals_latroid", [1, 3], [1, 4])
    assert not rep.ok
    assert rep.checks == (
        Check("dbar_1", True, "oracle 1 vs latroid 1"),
        Check("dbar_2", False, "oracle 3 vs latroid 4"),
    )
    rep = weights_equal_report("rank_d", "rank_weights", [1, 2], [2, 4], m=2)
    assert rep.ok
    assert rep.checks[1].detail == "m*oracle 4 vs latroid 4"
    with pytest.raises(ValueError):
        weights_equal_report("dbar", "dbar_equals_latroid", [1, 3], [1])


# -- q-polymatroids ------------------------------------------------------------------


@pytest.mark.parametrize("name, mc", rank_metric_code_corpus(),
                         ids=[name for name, _ in rank_metric_code_corpus()])
def test_rank_metric_corpus_gives_q_polymatroids(name, mc):
    assert qpolymatroid_axioms(tilde_polymatroid(mc)).ok
    assert qpolymatroid_axioms(rank_metric_latroid(mc)).ok
    assert tilde_relation_check(mc).ok


def test_qpolymatroid_axioms_report_first_witness():
    lt = rank_metric_latroid(rank_metric_code_corpus()[0][1])
    lat = lt.lattice
    rank = lt.rank.copy()
    rank[lat.top] = -1
    rep = qpolymatroid_axioms(Latroid(lat, rank, lt.length))
    assert [c.ok for c in rep.checks] == [False, False, True]
    assert rep.checks[0].detail == f"rho({lat.labels[lat.top]}) = (-1,)"


# -- generalized enumerators -----------------------------------------------------------


@pytest.mark.parametrize("code", [Z4_12, HAMMING_7_4] + [c for _, c in tutte_code_corpus(0)[:12]],
                         ids=lambda c: f"{c.ring}^{c.n} |C|={len(c)}")
def test_generalized_enumerator_counts_submodules_of_each_length(code):
    supp = ChainSupport(code.ring, code.n)
    lengths = [length_lambda(d) for d in enumerate_submodules(code)]
    for r in range(length_lambda(code) + 1):
        poly = generalized_enumerator(code, supp, r)
        assert poly.total() == lengths.count(r)
        assert sum(generalized_weight_distribution(code, supp, r)) == lengths.count(r)


def test_generalized_enumerator_rejects_r_out_of_range():
    with pytest.raises(ValueError, match=r"r = 3 outside \[0, 2\]"):
        generalized_enumerator(Z4_12, ChainSupport(Z4, 2), 3)


def test_generalized_enumerator_enumerates_once(monkeypatch):
    calls = []

    def counted(code):
        calls.append(code)
        return enumerate_submodules(code)

    monkeypatch.setattr(codes, "enumerate_submodules", counted)
    # a new code: Z4_12 keeps the submodules other tests enumerated
    generalized_enumerator(span_from_ints(Z4, 2, [[1, 2]]), ChainSupport(Z4, 2), 2)
    assert len(calls) == 1


def test_generalized_enumerator_of_z4_code():
    supp = ChainSupport(Z4, 2)
    # lambda = 1: the submodule 2<(1,2)> = {0, (2,0)} of weight 1
    assert generalized_enumerator(Z4_12, supp, 1).render() == "x^3*y"
    assert generalized_enumerator(Z4_12, supp, 2).render() == "x*y^3"


# -- R from R' ---------------------------------------------------------------------------


def reference_R(lt: Latroid) -> ExpPoly:
    """R summed directly over the lattice, independent of R'."""
    labels = lt.lattice.labels
    g, s = len(labels[0]), lt.udim
    names = (
        tuple(f"x{i+1}" for i in range(g)) + tuple(f"y{i+1}" for i in range(g))
        + tuple(f"u{i+1}" for i in range(s)) + tuple(f"v{i+1}" for i in range(s))
    )
    rank, length = lt.rank.tolist(), lt.length.tolist()
    top, top_rank = labels[lt.lattice.top], rank[lt.lattice.top]
    poly = ExpPoly.zero(2 * g + 2 * s, names)
    for i, m in enumerate(labels):
        poly = poly + ExpPoly.monomial(
            m
            + tuple(t - x for t, x in zip(top, m))
            + tuple(a - b for a, b in zip(top_rank, rank[i]))
            + tuple(a - b for a, b in zip(length[i], rank[i])),
            1,
            names,
        )
    return poly


@pytest.mark.parametrize("name, code", tutte_code_corpus(0)[::3],
                         ids=[name for name, _ in tutte_code_corpus(0)[::3]])
def test_R_is_rprime_at_z_one(name, code):
    lt = chain_support_latroid(code)
    want = reference_R(lt)
    got = rprime_z_to_one(tutte_whitney_Rprime(lt), code.n)
    assert got == want
    assert got.names == want.names
    assert got.render() == want.render()


@pytest.mark.parametrize("build", [
    lambda: block_matroid(HAMMING_7_4),
    lambda: rank_metric_latroid(rank_metric_code_corpus()[0][1]),
], ids=["block matroid", "rank metric"])
def test_rprime_refuses_labels_that_are_not_integer_vectors(build):
    # frozenset labels on the boolean lattice, rref labels on subspaces
    with pytest.raises(ValueError, match="^Tutte-Whitney sums need integer-vector lattice labels$"):
        tutte_whitney_Rprime(build())


# -- the octacode ------------------------------------------------------------------------
#
# The Z_4 code whose Gray image is the Nordstrom-Robinson code (Hammons,
# Kumar, Calderbank, Sloane and Sole, IEEE Trans. IT 1994).


OCTACODE_ROWS = [
    [1, 0, 0, 0, 3, 1, 2, 1],
    [0, 1, 0, 0, 1, 2, 3, 1],
    [0, 0, 1, 0, 3, 3, 3, 2],
    [0, 0, 0, 1, 2, 3, 1, 1],
]


def test_octacode_lee_distribution_from_chain_support_enumerator():
    # Lee weight depends only on the chain level: a unit (level 2) weighs 1,
    # 2 (level 1) weighs 2, and 0 weighs 0.
    octacode = span_from_ints(Z4, 8, OCTACODE_ROWS)
    poly = refined_enumerator(octacode, ChainSupport(Z4, 8))
    lee = Counter()
    for exps, coeff in poly.terms.items():
        lee[sum((0, 2, 1)[level] for level in exps[:8])] += coeff
    assert dict(lee) == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}


def test_punctured_octacode_enumerator_from_tutte():
    punctured = span_from_ints(Z4, 7, [row[:7] for row in OCTACODE_ROWS])
    assert len(punctured) == 256
    assert enumerator_from_tutte(punctured) == refined_enumerator(punctured, ChainSupport(Z4, 7))


def test_punctured_octacode_inclusion_exclusion(monkeypatch):
    punctured = span_from_ints(Z4, 7, [row[:7] for row in OCTACODE_ROWS])
    assert inclusion_exclusion_check(punctured).ok
    # Corrupt the direct count of one exact support: the Moebius inversion
    # of the dominated counts disagrees with it there, and only there.
    label = (1, 2, 0, 2, 1, 1, 2)

    class Corrupted(Counter):
        def __init__(self, items):
            super().__init__(items)
            self[label] += 1

    monkeypatch.setattr(enumerators, "Counter", Corrupted)
    exact = Counter(
        map(tuple, ChainSupport(Z4, 7).of_digits(Z4.encode(punctured.codewords, 7)).tolist())
    )[label]
    report = inclusion_exclusion_check(punctured)
    assert report.first_failure().detail == f"A = {label}: {exact} != {exact + 1}"


# -- the witness idiom ---------------------------------------------------------------------


def test_check_from_witnesses_takes_the_first_and_stops():
    seen = []

    def witnesses():
        for i in range(10):
            seen.append(i)
            if i >= 2:
                yield f"w{i}"

    assert Check.from_witnesses("c", witnesses()) == Check("c", False, "w2")
    assert seen == [0, 1, 2]
    assert Check.from_witnesses("c", []) == Check("c", True, "")
    assert Check.from_witnesses("c", iter(["a", "b"])).detail == "a"
