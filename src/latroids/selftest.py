"""The acceptance corpus and its criteria.

Each criterion builds fixtures, computes every quantity along two
independent routes where the theory promises an identity, and returns a
Report.  The CLI ``selftest`` command and the test suite both run this
module, so there is exactly one definition of "done".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .code_latroids import (
    block_matroid,
    block_matroid_weights_equal,
    chain_support_latroid,
    latroid_from_code,
    latroid_weights_equal_code_weights,
    product_matrix_code,
    qpolymatroid_axioms,
    rank_metric_latroid,
    rect_supp_latroid,
    single_matrix_code,
    sum_rank_latroid,
    sum_rank_weights_equal,
    tilde_polymatroid,
    tilde_relation_check,
    code_gen_weights_dbar,
)
from .codes import Code, cyclic_code, full_space, length_lambda, span_from_ints
from .core import (
    Latroid,
    axioms_B,
    axioms_C,
    axioms_I,
    bases,
    circuits,
    direct_sum,
    dual_latroid,
    free_latroid,
    independents,
    rank_from_bases,
    rank_from_circuits,
    rank_from_independents,
    restrict,
    uniform_latroid,
    validate_latroid,
)
from .enumerators import (
    binomial_identity_check,
    enumerator_from_tutte,
    inclusion_exclusion_check,
    pir_tutte_corollary,
    refined_enumerator,
)
from .isometries import (
    decompose_chain_isometry,
    equivalence_invariance_check,
    is_diagonal_invertible,
    is_isometry,
    is_permutation_matrix,
    matmul,
    matrix_from_ints,
    pir_isometry_projections,
    random_monomial_isometry,
)
from .lattices import atoms_join_check, boolean_lattice, subspace_lattice
from .report import Check, Report
from .rings import Pir, parse_ring
from .supports import (
    ChainSupport,
    HammingSupport,
    modular_function_on_rectangulars,
    split_support,
    support_from_unit_table,
    tau_support,
    validate_modular,
    validate_support,
)


# -- corpora -------------------------------------------------------------------


def distinct_cyclic_codes(ring: Pir, n: int) -> list[Code]:
    seen = set()
    out = []
    for v in itertools.product(range(ring.size), repeat=n):
        code = cyclic_code(ring, ring.vector_from_ints(v))
        if code.codewords not in seen:
            seen.add(code.codewords)
            out.append(code)
    return out


def random_codes(ring: Pir, n: int, generators: int, count: int, rng: random.Random) -> list[Code]:
    out = []
    for _ in range(count):
        rows = [
            [rng.randrange(ring.size) for _ in range(n)] for _ in range(generators)
        ]
        out.append(span_from_ints(ring, n, rows))
    return out


@lru_cache(maxsize=None)
def tutte_code_corpus(seed: int = 0) -> tuple[tuple[str, Code], ...]:
    """Cyclic codes of Z_4^2 and Z_8, plus seeded random two-generator
    codes over Z_4^2, Z_9^2, and Z_2^3."""
    rng = random.Random(seed)
    out = []
    for name, ring, n in (("Z_4^2", parse_ring("Z_4"), 2), ("Z_8^1", parse_ring("Z_8"), 1)):
        for code in distinct_cyclic_codes(ring, n):
            gens = code.generators or ((),)
            out.append((f"cyclic {name} {gens[0]}", code))
    for name, ring, n in (
        ("Z_4^2", parse_ring("Z_4"), 2),
        ("Z_9^2", parse_ring("Z_9"), 2),
        ("Z_2^3", parse_ring("Z_2"), 3),
    ):
        for i, code in enumerate(random_codes(ring, n, 2, 5, rng)):
            out.append((f"random {name} #{i}", code))
    return tuple(out)


@lru_cache(maxsize=None)
def z6_product_code_corpus(seed: int = 0) -> tuple[tuple[str, Code], ...]:
    rng = random.Random(seed + 6)
    ring = parse_ring("Z_2 x Z_3")
    named = [
        ("Z_6^2 <(1,0)>", span_from_ints(ring, 2, [[1, 0]])),
        ("Z_6^2 <(2,3)>", span_from_ints(ring, 2, [[2, 3]])),
    ]
    named += [
        (f"random Z_6^2 #{i}", code)
        for i, code in enumerate(random_codes(ring, 2, 2, 4, rng))
    ]
    return tuple(named)


@lru_cache(maxsize=None)
def latroid_corpus(seed: int = 0) -> tuple[tuple[str, Latroid], ...]:
    """Every latroid family the package constructs, at desk scale.

    Constructors only build; criteria 3 and 9 check L1-L5 with
    ``validate_latroid``, so a broken construction shows up as a failed
    check with its witness, not as an error that stops the corpus."""
    z4 = parse_ring("Z_4")
    z8 = parse_ring("Z_8")
    z9 = parse_ring("Z_9")
    f2 = parse_ring("Z_2")
    f3 = parse_ring("Z_3")
    z6 = parse_ring("Z_2 x Z_3")

    out = []

    # latroids on submodule lattices, length = composition length
    for name, code in (
        ("Z_4^2 <(1,2)>", span_from_ints(z4, 2, [[1, 2]])),
        ("Z_4^2 <(2,1),(0,2)>", span_from_ints(z4, 2, [[2, 1], [0, 2]])),
        ("Z_8 <2>", span_from_ints(z8, 1, [[2]])),
        ("Z_9^2 <(3,1)>", span_from_ints(z9, 2, [[3, 1]])),
        ("F_2^3 <(1,1,0),(0,1,1)>", span_from_ints(f2, 3, [[1, 1, 0], [0, 1, 1]])),
        ("F_3^2 <(1,2)>", span_from_ints(f3, 2, [[1, 2]])),
    ):
        out.append((f"submodule-lattice latroid {name}", latroid_from_code(code)))

    # chain-support latroids on grids
    chain_codes = [
        ("Z_4^2 <(1,2)>", span_from_ints(z4, 2, [[1, 2]])),
        ("Z_8 <2>", span_from_ints(z8, 1, [[2]])),
        ("Z_9^2 <(3,1),(0,3)>", span_from_ints(z9, 2, [[3, 1], [0, 3]])),
        ("Z_2^3 <(1,1,0),(0,1,1)>", span_from_ints(f2, 3, [[1, 1, 0], [0, 1, 1]])),
        ("Z_2^3 <(1,1,1)>", span_from_ints(f2, 3, [[1, 1, 1]])),
        ("Z_6^2 <(1,4)>", span_from_ints(z6, 2, [[1, 4]])),
    ]
    for name, code in chain_codes:
        out.append((f"chain-support latroid {name}", chain_support_latroid(code)))

    # rectangular-support latroids
    out.append(
        (
            "rect-support latroid Z_4^2 <(1,2)>",
            rect_supp_latroid(span_from_ints(z4, 2, [[1, 2]]), ChainSupport(z4, 2)),
        )
    )

    # block matroids on boolean lattices, n <= 4
    for name, code in (
        ("F_2^3 repetition", span_from_ints(f2, 3, [[1, 1, 1]])),
        ("F_2^3 <(1,1,0),(0,1,1)>", span_from_ints(f2, 3, [[1, 1, 0], [0, 1, 1]])),
        ("F_2^4 <(1,1,1,1)>", span_from_ints(f2, 4, [[1, 1, 1, 1]])),
        ("F_2^4 <(1,1,0,0),(0,0,1,1)>", span_from_ints(f2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])),
        ("F_3^3 <(1,1,2)>", span_from_ints(f3, 3, [[1, 1, 2]])),
    ):
        out.append((f"block matroid {name}", block_matroid(code)))

    # rank-metric latroids (q^n <= 81) and the tilde q-polymatroid
    rank_codes = rank_metric_code_corpus()
    for name, mc in rank_codes:
        out.append((f"rank-metric latroid {name}", rank_metric_latroid(mc)))
    out.append(
        (
            "tilde polymatroid F_2 3x2 <E11+E22>",
            tilde_polymatroid(rank_codes[0][1]),
        )
    )

    # sum-rank latroids with two blocks
    sr = two_block_sum_rank_code()
    out.append(("sum-rank latroid (row spaces)", sum_rank_latroid(sr, spaces="row")))
    out.append(("sum-rank latroid (column spaces)", sum_rank_latroid(sr, spaces="column")))
    tiny = product_matrix_code(
        single_matrix_code(2, 1, 1, [[(1,)]]),
        single_matrix_code(2, 1, 2, [[(1, 0)], [(0, 1)]]),
    )
    out.append(("sum-rank latroid m_i=1 (row spaces)", sum_rank_latroid(tiny, spaces="row")))

    # free and uniform latroids
    out.append(("free latroid B_3", free_latroid(boolean_lattice(3))))
    out.append(("uniform latroid B_4 a=1", uniform_latroid(boolean_lattice(4), 1)))
    out.append(("uniform latroid B_4 a=2", uniform_latroid(boolean_lattice(4), 2)))
    out.append(
        ("uniform latroid subspaces(F_2^3) a=2", uniform_latroid(subspace_lattice(2, 3), 2))
    )
    return tuple(out)


@lru_cache(maxsize=None)
def rank_metric_code_corpus() -> tuple[tuple[str, "object"], ...]:
    e = lambda m, n, entries: tuple(
        tuple(1 if (i, j) in entries else 0 for j in range(n)) for i in range(m)
    )
    out = [
        ("F_2 3x2 <E11+E22>", single_matrix_code(2, 3, 2, [e(3, 2, {(0, 0), (1, 1)})])),
        (
            "F_2 3x2 dim2",
            single_matrix_code(2, 3, 2, [e(3, 2, {(0, 0)}), e(3, 2, {(1, 1), (2, 0)})]),
        ),
        ("F_3 2x2 <E11>", single_matrix_code(3, 2, 2, [e(2, 2, {(0, 0)})])),
        ("F_2 2x3 <E12+E23>", single_matrix_code(2, 2, 3, [e(2, 3, {(0, 1), (1, 2)})])),
        ("F_2 1x2 <E11>,<E12>", single_matrix_code(2, 1, 2, [e(1, 2, {(0, 0)}), e(1, 2, {(0, 1)})])),
    ]
    return tuple(out)


@lru_cache(maxsize=None)
def two_block_sum_rank_code():
    return product_matrix_code(
        single_matrix_code(2, 2, 1, [[(1,), (0,)]]),
        single_matrix_code(2, 3, 2, [[(1, 0), (0, 1), (0, 0)]]),
    )


# -- criteria -------------------------------------------------------------------


def criterion_tutte_identity(seed: int) -> Report:
    """On every corpus code, the refined enumerator's count table grouped from
    the codewords equals the one read off the chain-support latroid (R'
    under z -> (y - x)/y, ``enumerator_from_tutte``)."""
    checks = []
    corpus = tutte_code_corpus(seed)
    checks.append(Check("corpus_size_at_least_25", len(corpus) >= 25, str(len(corpus))))
    for name, code in corpus:
        direct = refined_enumerator(code, ChainSupport(code.ring, code.n))
        via_tutte = enumerator_from_tutte(chain_support_latroid(code), code.ring.factors[0].p)
        checks.append(Check(f"tutte {name}", via_tutte == direct, ""))
    return Report.from_checks(checks)


def criterion_pir_corollary(seed: int) -> Report:
    """Per-factor closed forms multiply to the refined enumerator over Z_6^2."""
    checks = []
    corpus = z6_product_code_corpus(seed)
    checks.append(Check("corpus_size_at_least_5", len(corpus) >= 5, str(len(corpus))))
    for name, code in corpus:
        direct = refined_enumerator(code, ChainSupport(code.ring, code.n))
        rep = pir_tutte_corollary(code, direct)
        checks.append(Check(f"pir {name}", rep.ok, rep.summary() if not rep.ok else ""))
    return Report.from_checks(checks)


def criterion_latroid_axioms(seed: int) -> Report:
    checks = []
    for name, lt in latroid_corpus(seed):
        rep = validate_latroid(lt)
        checks.append(Check(name, rep.ok, rep.summary() if not rep.ok else ""))
    return Report.from_checks(checks)


def _crypto_eligible(lt: Latroid) -> bool:
    """The cryptomorphism propositions cover latroids with the height
    function as length on a complemented modular lattice."""
    lat = lt.lattice
    return (
        lt.uses_height_length()
        and lat.is_complemented
        and lat.is_modular
    )


def criterion_crypto_roundtrips(seed: int) -> Report:
    """On corpus latroids matching the cryptomorphism hypotheses
    (complemented modular lattice, height as length): the derived
    independents / bases / circuits satisfy their axiom systems and each
    reconstructs the original rank exactly.  The I3 and B2 atom exchanges
    assume that every element is the join of the atoms below it, so
    ``atoms_join_check`` is part of the I- and B-axiom checks."""
    checks = []
    eligible = [(name, lt) for name, lt in latroid_corpus(seed) if _crypto_eligible(lt)]
    checks.append(
        Check("eligible_corpus_nonempty", len(eligible) >= 8, f"{len(eligible)} eligible")
    )
    for name, lt in eligible:
        lat = lt.lattice
        I, B, C = independents(lt), bases(lt), circuits(lt)
        atoms = atoms_join_check(lat).checks
        for tag, rep in (
            ("I-axioms", Report.from_checks(axioms_I(lat, I).checks + atoms)),
            ("B-axioms", Report.from_checks(axioms_B(lat, B).checks + atoms)),
            ("C-axioms", axioms_C(lat, C)),
        ):
            checks.append(Check(f"{name} {tag}", rep.ok, rep.summary() if not rep.ok else ""))
        for tag, rebuilt in (
            ("rank_from_independents", rank_from_independents(lat, I)),
            ("rank_from_bases", rank_from_bases(lat, B)),
            ("rank_from_circuits", rank_from_circuits(lat, C)),
        ):
            ok = np.array_equal(rebuilt.rank, lt.rank)
            checks.append(Check(f"{name} {tag}", ok, "" if ok else "rank mismatch"))
    return Report.from_checks(checks)


def criterion_weight_equalities(seed: int) -> Report:
    """The rank corpus check also asks that each rank code's q-polymatroid
    (Gorla et al.) and rank-metric latroid satisfy P1-P3 and the tilde
    relation: the q-polymatroid determines the generalized rank weights."""
    checks = []
    for name, code in tutte_code_corpus(seed):
        rep = latroid_weights_equal_code_weights(code)
        checks.append(Check(f"chain weights {name}", rep.ok, rep.summary() if not rep.ok else ""))

    rank_codes = rank_metric_code_corpus()
    tall = [(name, mc) for name, mc in rank_codes if mc.shape[0] > mc.shape[1]]
    extra = [
        ("F_2 3x1 <E11>", single_matrix_code(2, 3, 1, [((1,), (0,), (0,))])),
        ("F_3 2x1 <E11>", single_matrix_code(3, 2, 1, [((1,), (0,))])),
        (
            "F_2 4x2 dim2",
            single_matrix_code(
                2, 4, 2,
                [((1, 0), (0, 1), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 1), (1, 1))],
            ),
        ),
    ]
    tall += extra
    polymatroids = []
    for name, mc in rank_codes:
        plain, tilde = rank_metric_latroid(mc), tilde_polymatroid(mc)
        polymatroids += [(name, rep) for rep in (
            qpolymatroid_axioms(tilde), qpolymatroid_axioms(plain),
            tilde_relation_check(mc, plain, tilde))]
    bad = next((f"{name}: {rep.summary()}" for name, rep in polymatroids if not rep.ok), "")
    ok = len(tall) >= 5 and not bad
    checks.append(Check("rank_corpus_q_polymatroids", ok, bad or str(len(tall))))
    for name, mc in tall:
        rep = sum_rank_weights_equal(mc)
        checks.append(Check(f"rank weights {name}", rep.ok, rep.summary() if not rep.ok else ""))

    f2 = parse_ring("Z_2")
    block_codes = [
        ("repetition_3", span_from_ints(f2, 3, [[1, 1, 1]])),
        ("parity_3", span_from_ints(f2, 3, [[1, 1, 0], [0, 1, 1]])),
        ("full_3", full_space(f2, 3)),
        ("repetition_4", span_from_ints(f2, 4, [[1, 1, 1, 1]])),
        ("pairs_4", span_from_ints(f2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])),
        ("mixed_3", span_from_ints(f2, 3, [[1, 0, 1], [0, 1, 1]])),
    ]
    checks.append(Check("block_corpus_at_least_5", len(block_codes) >= 5, str(len(block_codes))))
    for name, code in block_codes:
        rep = block_matroid_weights_equal(code)
        checks.append(Check(f"block weights {name}", rep.ok, rep.summary() if not rep.ok else ""))

    srep = sum_rank_weights_equal(
        product_matrix_code(
            single_matrix_code(3, 3, 1, [[(1,), (0,), (0,)]]),
            single_matrix_code(3, 3, 2, [[(1, 0), (0, 1), (0, 0)], [(0, 1), (0, 0), (1, 0)]]),
        )
    )
    checks.append(Check("sum-rank weights equal m=3", srep.ok, srep.summary() if not srep.ok else ""))
    return Report.from_checks(checks)


def criterion_strict_monotonicity(seed: int) -> Report:
    """Modular supports force strictly increasing generalized weights; the
    non-modular tau support exhibits a non-strict pair as a negative
    control."""
    checks = []
    for name, code in tutte_code_corpus(seed):
        lam = length_lambda(code)
        if lam < 2:
            continue
        d = code_gen_weights_dbar(code, ChainSupport(code.ring, code.n))
        strict = all(d[i] < d[i + 1] for i in range(len(d) - 1))
        checks.append(Check(f"strict {name}", strict, str(d)))

    f2 = parse_ring("Z_2")
    full = full_space(f2, 2)
    d_tau = code_gen_weights_dbar(full, tau_support(f2, 2))
    nonstrict = any(d_tau[i] == d_tau[i + 1] for i in range(len(d_tau) - 1))
    checks.append(Check("tau_non_strict_control", nonstrict, str(d_tau)))
    return Report.from_checks(checks)


def criterion_isometry_fixtures(seed: int) -> Report:
    checks = []
    z6 = parse_ring("Z_2 x Z_3")
    supp6 = support_from_unit_table(
        z6, 2,
        {(0, 0): (0, 0), (1, 1): (1, 1), (0, 2): (1, 0), (1, 0): (0, 1),
         (0, 1): (1, 0), (1, 2): (1, 1)},
    )
    M = matrix_from_ints(z6, [[2, 3], [3, 2]])
    checks.append(Check("z6_matrix_is_isometry", is_isometry(M, supp6), ""))

    projs = dict(pir_isometry_projections(M, supp6))
    want_z2 = matrix_from_ints(z6.factor_ring(0), [[0, 1], [1, 0]])
    want_z3 = matrix_from_ints(z6.factor_ring(1), [[2, 0], [0, 2]])
    checks.append(Check("z6_projection_Z2", projs[0] == want_z2, str(projs[0])))
    checks.append(Check("z6_projection_Z3", projs[1] == want_z3, str(projs[1])))

    parts, _ = split_support(supp6)
    for i in (0, 1):
        D, P = decompose_chain_isometry(projs[i], parts[i])
        ok = is_diagonal_invertible(parts[i].ring, D) and is_permutation_matrix(parts[i].ring, P)
        checks.append(Check(f"z6_projection_{i}_decomposes", ok, ""))

    z8 = parse_ring("Z_8")
    cs8 = ChainSupport(z8, 3)
    rng = random.Random(seed + 8)
    ok = True
    for t in range(20):
        N = random_monomial_isometry(z8, 3, rng)
        D, P = decompose_chain_isometry(N, cs8)
        if not (
            matmul(z8, D, P) == N
            and is_permutation_matrix(z8, P)
            and is_diagonal_invertible(z8, D)
        ):
            ok = False
            checks.append(Check(f"z8_roundtrip_{t}", False, str(N)))
            break
    checks.append(Check("z8_20_random_roundtrips", ok, ""))

    c6 = span_from_ints(z6, 2, [[1, 0]])
    checks.append(
        Check("z6_invariance", equivalence_invariance_check(c6, M, supp6).ok, "")
    )
    z4 = parse_ring("Z_4")
    perm = matrix_from_ints(z4, [[0, 1], [1, 0]])
    c4 = span_from_ints(z4, 2, [[1, 2]])
    checks.append(
        Check(
            "z4_permutation_invariance",
            equivalence_invariance_check(c4, perm, ChainSupport(z4, 2)).ok,
            "",
        )
    )
    z9 = parse_ring("Z_9")
    diag = matrix_from_ints(z9, [[2, 0], [0, 4]])
    c9 = span_from_ints(z9, 2, [[3, 1]])
    checks.append(
        Check(
            "z9_unit_diagonal_invariance",
            equivalence_invariance_check(c9, diag, ChainSupport(z9, 2)).ok,
            "",
        )
    )
    c8 = span_from_ints(z8, 3, [[1, 2, 4]])
    N = random_monomial_isometry(z8, 3, random.Random(seed + 88))
    checks.append(
        Check("z8_invariance", equivalence_invariance_check(c8, N, cs8).ok, "")
    )
    return Report.from_checks(checks)


def criterion_support_validation(seed: int) -> Report:
    checks = []
    for name in ("Z_4", "Z_8", "Z_9"):
        ring = parse_ring(name)
        s = ChainSupport(ring, 1)
        ok = validate_support(s).ok and validate_modular(s).ok
        checks.append(Check(f"chain_modular_{name}", ok, ""))

    z4 = parse_ring("Z_4")
    lee = support_from_unit_table(z4, 1, {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (1,)})
    rep = validate_support(lee)
    bad = rep.first_failure()
    ok = (
        not rep.ok
        and bad is not None
        and bad.name == "axiom2_scalar_monotone"
        and bad.detail == "r=(2,), v=((1,),)"
    )
    checks.append(Check("lee_rejected_axiom2_r2_v1", ok, bad.detail if bad else "accepted"))

    f3 = parse_ring("Z_3")
    t = tau_support(f3, 2)
    checks.append(
        Check(
            "tau_support_not_modular",
            validate_support(t).ok and not validate_modular(t).ok,
            "",
        )
    )

    z6 = parse_ring("Z_2 x Z_3")
    rep = modular_function_on_rectangulars(HammingSupport(z6, 1))
    bad = rep.first_failure()
    ok = not rep.ok and bad is not None and bad.name == "modular_function"
    checks.append(Check("z6_hamming_modular_function_fails", ok, bad.detail if bad else ""))
    return Report.from_checks(checks)


def criterion_duality(seed: int) -> Report:
    """Dual involution, interval duality, and validity of duals,
    restrictions, and direct sums across the corpus."""
    checks = []
    corpus = latroid_corpus(seed)
    for name, lt in corpus:
        dl = dual_latroid(lt)
        checks.append(Check(f"involution {name}", dual_latroid(dl) == lt, ""))
        rep = validate_latroid(dl)
        checks.append(Check(f"dual valid {name}", rep.ok, rep.summary() if not rep.ok else ""))
        length_ok = np.array_equal(dl.length, lt.length[lt.lattice.top] - lt.length)
        checks.append(Check(f"dual length complement {name}", length_ok, ""))

        lat = lt.lattice
        mids = [i for i in range(lat.size) if i not in (lat.bottom, lat.top)]
        pairs = [(lat.bottom, lat.top)]
        if mids:
            pairs.append((lat.bottom, mids[len(mids) // 2]))
            pairs.append((mids[len(mids) // 2], lat.top))
        for a, b in pairs:
            sub = restrict(lt, a, b)
            rep = validate_latroid(sub)
            checks.append(
                Check(f"restrict [{a},{b}] valid {name}", rep.ok,
                      rep.summary() if not rep.ok else "")
            )
            left = dual_latroid(sub)
            right = restrict(dl, b, a)
            same = (np.array_equal(left.rank, right.rank)
                    and np.array_equal(left.length, right.length))
            checks.append(Check(f"interval duality [{a},{b}] {name}", same, ""))

    small = [lt for _, lt in corpus if lt.lattice.size <= 9 and lt.udim == 1]
    for i in range(min(3, len(small) - 1)):
        ds = direct_sum(small[i], small[i + 1])
        rep = validate_latroid(ds)
        checks.append(Check(f"direct sum #{i} valid", rep.ok, rep.summary() if not rep.ok else ""))
    return Report.from_checks(checks)


def criterion_internal_identities(seed: int) -> Report:
    checks = []
    for name, code in tutte_code_corpus(seed):
        if code.ring.ell != 1:
            continue
        rep = inclusion_exclusion_check(code)
        checks.append(Check(f"incl-excl {name}", rep.ok, rep.summary() if not rep.ok else ""))
    for u in (1, 2, 3):
        rep = binomial_identity_check(u)
        checks.append(Check(f"binomial u={u}", rep.ok, rep.summary() if not rep.ok else ""))
    return Report.from_checks(checks)


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    run: object


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "Tutte-Whitney identity on the code corpus", criterion_tutte_identity),
    Criterion(2, "Product-ring factorization of the enumerator", criterion_pir_corollary),
    Criterion(3, "Latroid axioms across all constructions", criterion_latroid_axioms),
    Criterion(4, "Cryptomorphism round trips and axiom systems", criterion_crypto_roundtrips),
    Criterion(5, "Generalized-weight equalities (chain, rank, block)", criterion_weight_equalities),
    Criterion(6, "Strict monotonicity of generalized weights", criterion_strict_monotonicity),
    Criterion(7, "Isometry fixtures and decompositions", criterion_isometry_fixtures),
    Criterion(8, "Support validation fixtures", criterion_support_validation),
    Criterion(9, "Duality identities and derived constructions", criterion_duality),
    Criterion(10, "Inclusion-exclusion and binomial identities", criterion_internal_identities),
)


def run_all(seed: int = 0):
    return [(c.number, c.title, c.run(seed)) for c in CRITERIA]
