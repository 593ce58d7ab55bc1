"""Generalized weights: the subcode-minimum oracles, the weights-equal
report builder, the generalized enumerator, R from R', the octacode's
enumerators, and the witness idiom the validators share."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from latroids.code_latroids import (
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
    sum_rank_latroid,
    sum_rank_weights_equal,
    tilde_polymatroid,
    tilde_relation_check,
    weights_equal_report,
)
from latroids.cli import _entry
from latroids.codes import (
    Code,
    enumerate_submodules,
    length_lambda,
    rref,
    span,
    span_from_ints,
    submodule_invariants,
    zero_code,
)
from latroids.core import Latroid
from latroids import codes, core, enumerators
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
from latroids.report import Check, Report
from latroids.rings import intlog, parse_ring
from latroids.selftest import (
    rank_metric_code_corpus,
    tutte_code_corpus,
    two_block_sum_rank_code,
    z6_product_code_corpus,
)
from latroids.supports import (
    ChainSupport,
    HammingSupport,
    TableSupport,
    support_from_unit_table,
)

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


def block_words(blocks, code: Code) -> frozenset:
    """The words of a code over Z_q cut into tuples of block matrices, the
    entries of each block row by row."""
    words = set()
    for v in code.codewords:
        entries = iter(a for (a,) in v)
        words.add(tuple(
            tuple(tuple(next(entries) for _ in range(n)) for _ in range(m)) for m, n in blocks
        ))
    return frozenset(words)


def reference_sum_rank_weights(mc) -> list[int]:
    """d_r as the least sum of block row-space dimensions over the subcodes
    of dimension >= r, each subcode a set of block-matrix words and each
    row space the ``rref`` of the block rows of its words."""
    subs = [block_words(mc.blocks, d) for d in enumerate_submodules(mc.code)]
    dims = [intlog(mc.q, len(s)) for s in subs]
    weights = [
        sum(len(rref([row for word in s for row in word[i]], mc.q)) for i in range(mc.ell))
        for s in subs
    ]
    return [min(w for d, w in zip(dims, weights) if d >= r) for r in range(1, mc.dim() + 1)]


#: 8 x 8 binary matrices: the code lives in F_2^64, past int64 indices, and
#: the subspace lattice of F_2^8 is past the lattice cap.
LONG_MATRIX_CODE = single_matrix_code(2, 8, 8, [
    [[(i * j + k) % 2 for j in range(8)] for i in range(8)] for k in range(2)
] + [[[int(i == j) for j in range(8)] for i in range(8)]])

#: One 1 x 20 binary block: F_2^20 is past the vector cap.
WIDE_MATRIX_CODE = single_matrix_code(2, 1, 20, [
    [[int(j % 3 == 0) for j in range(20)]],
    [[int(j < 7) for j in range(20)]],
    [[int(j % 2) for j in range(20)]],
])


def random_matrix_codes(count: int) -> list:
    """Seeded codes over F_2 and F_3 with one or two blocks of up to 3 x 3,
    some of them zero: 0-3 generators over F_2, 0-2 over F_3."""
    out = []
    for i in range(count):
        rng = random.Random(i)
        q = (2, 3)[i % 2]
        blocks = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(1 + i // 2 % 2)]
        gens = [
            [[[rng.randrange(q) for _ in range(n)] for _ in range(m)] for m, n in blocks]
            for _ in range(rng.randint(0, 5 - q))
        ]
        out.append(matrix_code(q, blocks, gens))
    return out


@pytest.mark.parametrize("name, mc", MATRIX_CODES, ids=[name for name, _ in MATRIX_CODES])
def test_matrix_code_subcodes_are_counted_by_gaussian_binomials(name, mc):
    k = mc.dim()
    subs = enumerate_submodules(mc.code)
    assert len(set(subs)) == len(subs)
    assert all(s <= mc.code for s in subs)
    by_dim = Counter(intlog(mc.q, len(s)) for s in subs)
    assert by_dim == {r: q_binomial(k, r, mc.q) for r in range(k + 1)}


def test_long_matrix_code_subcodes():
    mc = LONG_MATRIX_CODE
    k = mc.dim()
    subs = enumerate_submodules(mc.code)
    assert Counter(intlog(2, len(s)) for s in subs) == {
        r: q_binomial(k, r, 2) for r in range(k + 1)
    }
    assert sum_rank_code_gen_weights(mc)[-1] == 8


ORACLE_MATRIX_CODES = MATRIX_CODES + [("8x8 F_2", LONG_MATRIX_CODE), ("1x20 F_2", WIDE_MATRIX_CODE)]


@pytest.mark.parametrize("name, mc", ORACLE_MATRIX_CODES, ids=[n for n, _ in ORACLE_MATRIX_CODES])
def test_sum_rank_weights_match_the_reference(name, mc):
    assert sum_rank_code_gen_weights(mc) == reference_sum_rank_weights(mc)


def test_wide_block_rank_weights_are_the_dimensions():
    # a 1 x n block's row space is the span of the words themselves
    assert sum_rank_code_gen_weights(WIDE_MATRIX_CODE) == [1, 2, 3]


def test_sum_rank_weights_match_the_reference_on_random_codes():
    codes = random_matrix_codes(120)
    assert {mc.q for mc in codes} == {2, 3} and {mc.ell for mc in codes} == {1, 2}
    assert any(mc.dim() == 0 for mc in codes)
    for i, mc in enumerate(codes):
        assert sum_rank_code_gen_weights(mc) == reference_sum_rank_weights(mc), (i, mc.blocks)


def test_matrix_code_entries_are_block_by_block_and_row_by_row():
    mc = matrix_code(3, [(2, 1), (1, 2)], [(((1,), (2,)), ((0, 4),))])
    assert block_words(mc.blocks, mc.code) == {
        (((c,), (2 * c % 3,)), ((0, c),)) for c in range(3)
    }
    assert [b.tolist() for b in mc.block_digits()] == [
        [[[c], [2 * c % 3]] for c in range(3)], [[[0, c]] for c in range(3)],
    ]


def test_product_matrix_code_is_the_direct_product():
    a = single_matrix_code(3, 3, 1, [[(1,), (0,), (0,)]])
    b = single_matrix_code(3, 3, 2, [[(1, 0), (0, 1), (0, 0)], [(0, 1), (0, 0), (1, 0)]])
    p = product_matrix_code(a, b)
    assert p.blocks == a.blocks + b.blocks
    assert p.code.codewords == {x + y for x in a.code.codewords for y in b.code.codewords}


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
    plain, tilde = rank_metric_latroid(mc), tilde_polymatroid(mc)
    assert qpolymatroid_axioms(tilde).ok
    assert qpolymatroid_axioms(plain).ok
    assert tilde_relation_check(mc, plain, tilde).ok


def reference_qpolymatroid_axioms(lt: Latroid) -> Report:
    """P1-P3 by a Python loop over the elements and over the pairs of the
    lattice, each check's witness the first in row-major order."""
    lat = lt.lattice
    rank, length = lt.rank[:, 0].tolist(), lt.length[:, 0].tolist()
    return Report.from_checks([
        Check.from_witnesses("P1_bounded_by_dim", (
            f"rho({lat.labels[i]}) = {(rank[i],)}"
            for i in range(lat.size)
            if not 0 <= rank[i] <= length[i]
        )),
        Check.from_witnesses("P2_monotone", (
            f"{lat.labels[a]} <= {lat.labels[b]}"
            for a, b in lat.comparable_pairs()
            if rank[a] > rank[b]
        )),
        Check.from_witnesses("P3_submodular", (
            f"{lat.labels[a]}, {lat.labels[b]}"
            for a, b in lat.pairs()
            if rank[lat.join[a, b]] + rank[lat.meet[a, b]] > rank[a] + rank[b]
        )),
    ])


def qpolymatroid_cases():
    """The plain and tilde latroids of the one-block matrix codes, the
    row-space sum-rank latroids of the two-block ones, and seeded
    perturbations of one rank entry of each."""
    rng = random.Random(11)
    for _, mc in MATRIX_CODES:
        if len(mc.blocks) == 1:
            latroids = [rank_metric_latroid(mc), tilde_polymatroid(mc)]
        else:
            latroids = [sum_rank_latroid(mc, spaces="row")]
        for lt in latroids:
            yield lt
            for _ in range(6):
                rank = lt.rank.copy()
                rank[rng.randrange(len(rank)), 0] += rng.choice((-2, -1, 1, 2))
                yield Latroid(lt.lattice, rank, lt.length)


def test_qpolymatroid_axioms_match_the_pair_loop(monkeypatch):
    # a few rows per block, so the scans cross block boundaries
    monkeypatch.setattr(core, "_SCAN_BLOCK", 40)
    failing = Counter()
    for lt in qpolymatroid_cases():
        rep = qpolymatroid_axioms(lt)
        assert rep == reference_qpolymatroid_axioms(lt)
        failing.update(c.name for c in rep.failures())
    assert set(failing) == {"P1_bounded_by_dim", "P2_monotone", "P3_submodular"}


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
    calls, masks = [], codes._submodule_masks

    def counted(code):
        calls.append(code)
        return masks(code)

    monkeypatch.setattr(codes, "_submodule_masks", counted)
    # a new code: Z4_12 keeps the masks other tests enumerated
    generalized_enumerator(span_from_ints(Z4, 2, [[1, 2]]), ChainSupport(Z4, 2), 2)
    assert len(calls) == 1


# -- the subcode oracle's arrays against each submodule as a code ---------------


def scaled(code, r):
    """r C by tuple arithmetic, the reference for the digit forms."""
    return Code(code.ring, code.n, (), frozenset(code.ring.vscale(r, c) for c in code.codewords))


def reference_big_m(code):
    """M(C) by tuple arithmetic: mu(C_i) = log_p(|C_i| / |p C_i|) from the
    projected and scaled codeword sets, summed over the CRT factors."""
    return sum(
        intlog(f.p, len(code.factor(i)) // len(scaled(code.factor(i), (f.p % f.size,))))
        for i, f in enumerate(code.ring.factors)
    )


def oracle_supports(ring, n):
    """Chain, Hamming, product and table supports on R^n.  The product and
    table values are seeded: the oracle reads any support, valid or not."""
    rng = random.Random(n)
    unit = {a: (rng.randrange(3), rng.randrange(2)) for a in ring.elements()}
    table = {v: (rng.randrange(4), rng.randrange(3)) for v in ring.vectors(n)}
    return [
        ChainSupport(ring, n),
        HammingSupport(ring, n),
        support_from_unit_table(ring, n, unit),
        TableSupport(ring, n, table),
    ]


def reference_least_weights(subs, invariant, weight, top):
    return [min(weight(d) for d in subs if invariant(d) >= r) for r in range(1, top + 1)]


def check_oracle_against_references(code):
    """lambda, M and wt of every submodule, the d-bar and d-mu lists and the
    generalized weight distributions, each against the per-``Code`` form."""
    subs = enumerate_submodules(code)
    lam, m = length_lambda(code), reference_big_m(code)
    for supp in oracle_supports(code.ring, code.n):
        lengths, generators, weights = submodule_invariants(code, supp)
        assert {a.dtype for a in (lengths, generators, weights)} == {np.dtype(np.int64)}
        assert lengths.tolist() == [length_lambda(d) for d in subs]
        assert generators.tolist() == [reference_big_m(d) for d in subs]
        assert weights.tolist() == [supp.code_weight(d) for d in subs]
        assert code_gen_weights_dbar(code, supp) == reference_least_weights(
            subs, length_lambda, supp.code_weight, lam
        )
        assert code_gen_weights_dr(code, supp) == reference_least_weights(
            subs, reference_big_m, supp.code_weight, m
        )
        for r in range(lam + 1):
            expected = [0] * (supp.ambient_weight() + 1)
            for d in subs:
                if length_lambda(d) == r:
                    expected[supp.code_weight(d)] += 1
            assert generalized_weight_distribution(code, supp, r) == expected


ORACLE_CORPUS = tutte_code_corpus(0) + z6_product_code_corpus(0)


@pytest.mark.parametrize("code", [c for _, c in ORACLE_CORPUS], ids=[n for n, _ in ORACLE_CORPUS])
def test_oracle_matches_each_submodule_on_the_corpora(code):
    check_oracle_against_references(code)


def test_oracle_is_blocked_without_changing_its_results(monkeypatch):
    # one mask row per block, and one entry per block of the enumeration
    ring = parse_ring("Z_2 x Z_4")
    gens = [((1, 1), (0, 2)), ((0, 2), (1, 0))]
    supp = ChainSupport(ring, 2)
    code = span(ring, 2, gens)
    masks, arrays = code.submodule_masks, submodule_invariants(code, supp)
    monkeypatch.setattr(codes, "_CLOSE_BLOCK", 1)
    fresh = span(ring, 2, gens)  # the masks are kept on the code
    assert np.array_equal(fresh.submodule_masks, masks)
    for got, expected in zip(submodule_invariants(fresh, supp), arrays, strict=True):
        assert np.array_equal(got, expected)


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
    table = refined_enumerator(octacode, ChainSupport(Z4, 8))
    lee = Counter()
    for levels, count in zip(table.points.tolist(), table.counts.tolist()):
        lee[sum((0, 2, 1)[level] for level in levels)] += count
    assert dict(lee) == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}


def test_punctured_octacode_enumerator_from_tutte():
    punctured = span_from_ints(Z4, 7, [row[:7] for row in OCTACODE_ROWS])
    assert len(punctured) == 256
    via_tutte = enumerator_from_tutte(chain_support_latroid(punctured), 2)
    assert via_tutte == refined_enumerator(punctured, ChainSupport(Z4, 7))


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
