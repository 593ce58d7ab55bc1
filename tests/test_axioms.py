"""The array scans of ``core.axioms_I/B/C`` against reference loops.

The references are the pairwise Python loops the array scans replaced,
iterating every candidate set in ascending index order.  They must give the
same report, witness strings included: each witness is the first failure in
ascending index, row-major order.  Every comparison runs once with the
default scan block and once with a tiny one, so that witnesses fall across
block edges.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from latroids import core
from latroids.code_latroids import block_matroid, latroid_from_code
from latroids.codes import span_from_ints
from latroids.core import (
    _atom_decompositions,
    _common_heights,
    _maximal,
    _meet_maxima,
    _membership,
    _require_crypto_hypotheses,
    axioms_B,
    axioms_C,
    axioms_I,
    bases,
    circuits,
    independents,
    rank_from_bases,
    rank_from_circuits,
    rank_from_independents,
)
from latroids.errors import ReconstructionError
from latroids.lattices import (
    boolean_lattice,
    dual,
    grid_lattice,
    interval,
    subspace_lattice,
)
from latroids.report import Check, Report
from latroids.rings import parse_ring
from test_latroids import crypto_corpus, rows, valid

# -- reference loops -------------------------------------------------------------


def ref_maximal_in(lat, subset, below):
    """Maximal members of ``subset`` dominated by ``below``."""
    inside = [i for i in sorted(subset) if lat.leq[i, below]]
    return [i for i in inside if not any(lat.lt(i, j) for j in inside)]


def ref_maximal_meets(lat, B, l):
    """(b, b ^ l) for the bases b whose meet with l is maximal."""
    meets = [int(lat.meet[b, l]) for b in B]
    return [
        (b, m) for b, m in zip(B, meets) if not any(lat.lt(m, m2) for m2 in meets)
    ]


def ref_axioms_I(lat, indep):
    _require_crypto_hypotheses(lat)
    I = sorted(set(indep))
    max_below = {l: ref_maximal_in(lat, I, l) for l in range(lat.size)}

    def unmatched_maxima():
        for l1, l2 in lat.pairs():
            above = max_below[int(lat.join[l1, l2])]
            for i1 in max_below[l1]:
                for i2 in max_below[l2]:
                    jii = int(lat.join[i1, i2])
                    if not any(lat.leq[i3, jii] for i3 in above):
                        yield (
                            f"L1={lat.labels[l1]}, L2={lat.labels[l2]}, "
                            f"I1={lat.labels[i1]}, I2={lat.labels[i2]}"
                        )

    return Report.from_checks([
        Check("I1_bottom", lat.bottom in I,
              "" if lat.bottom in I else "bottom not independent"),
        Check.from_witnesses("I2_downward_closed", (
            f"{lat.labels[j]} < {lat.labels[i]}"
            for i in I
            for j in range(lat.size)
            if lat.lt(j, i) and j not in I
        )),
        Check.from_witnesses("I3_augmentation", (
            f"I1={lat.labels[i1]}, I2={lat.labels[i2]}"
            for i1 in I
            for i2 in I
            if lat.hgt(i2) < lat.hgt(i1)
            and not any(
                lat.leq[a, i1] and not lat.leq[a, i2] and int(lat.join[i2, a]) in I
                for a in lat.atoms
            )
        )),
        Check.from_witnesses("I4_join_compatible_maxima", unmatched_maxima()),
    ])


def ref_axioms_B(lat, base_set):
    _require_crypto_hypotheses(lat)
    B = sorted(set(base_set))
    decomps = {b: list(_atom_decompositions(lat, b)) for b in B}
    max_meets = {l: ref_maximal_meets(lat, B, l) for l in range(lat.size)}

    def failed_exchanges():
        for b1 in B:
            for b2 in B:
                for js in decomps[b1]:
                    for ts in decomps[b2]:
                        for pos, ji in enumerate(js):
                            if lat.leq[ji, b2]:
                                continue
                            jrest = lat.bottom
                            for a in js[:pos] + js[pos + 1 :]:
                                jrest = int(lat.join[jrest, a])
                            if not any(
                                not lat.leq[t, b1] and int(lat.join[jrest, t]) in B
                                for t in ts
                            ):
                                yield (
                                    f"B1={lat.labels[b1]}, B2={lat.labels[b2]}, "
                                    f"atom={lat.labels[ji]}"
                                )

    def unmatched_meets():
        for l1, l2 in lat.pairs():
            above = max_meets[int(lat.join[l1, l2])]
            for _, m1 in max_meets[l1]:
                for _, m2 in max_meets[l2]:
                    target = int(lat.join[m1, m2])
                    if not any(lat.leq[m3, target] for _, m3 in above):
                        yield f"L1={lat.labels[l1]}, L2={lat.labels[l2]}"

    return Report.from_checks([
        Check("B1_nonempty", bool(B), "" if B else "empty basis set"),
        Check.from_witnesses("B2_atom_exchange", failed_exchanges()),
        Check.from_witnesses("B3_join_compatible_meets", unmatched_meets()),
    ])


def ref_axioms_C(lat, circuit_set):
    _require_crypto_hypotheses(lat)
    C = sorted(set(circuit_set))

    def failed_eliminations():
        for c1 in C:
            for c2 in C:
                if c2 <= c1:
                    continue
                j = int(lat.join[c1, c2])
                for l in range(lat.size):
                    if (
                        lat.leq[l, j]
                        and lat.hgt(l) == lat.hgt(j) - 1
                        and not any(lat.leq[c3, l] for c3 in C)
                    ):
                        yield (
                            f"C1={lat.labels[c1]}, C2={lat.labels[c2]}, "
                            f"L={lat.labels[l]}"
                        )

    return Report.from_checks([
        Check("C1_no_bottom", lat.bottom not in C,
              "" if lat.bottom not in C else "bottom is a circuit"),
        Check.from_witnesses("C2_antichain", (
            f"{lat.labels[c1]} < {lat.labels[c2]}"
            for c1 in C
            for c2 in C
            if c1 != c2 and lat.leq[c1, c2]
        )),
        Check.from_witnesses("C3_elimination", failed_eliminations()),
    ])


def reference_unmatched_pairs(lat, M):
    """``core._unmatched_pairs`` as one round per join j: on down(j), the
    pairs with join j fail where M @ ~reach[j, join] @ M.T is nonzero.
    The witness loop is the kernel's."""
    n = lat.size
    mf = M.astype(np.float32)
    reach = (mf @ lat.leq.astype(np.float32)) > 0
    fail = np.zeros((n, n), dtype=bool)
    for j in range(n):
        block = np.ix_(*[np.flatnonzero(lat.leq[:, j])] * 2)
        joins = lat.join[block]
        m = mf[block]
        hits = m @ (~reach[j, joins]).astype(np.float32) @ m.T
        fail[block] |= (hits > 0) & (joins == j)
    for l1, l2 in np.argwhere(fail).tolist():
        rows, cols = np.flatnonzero(M[l1]), np.flatnonzero(M[l2])
        above = reach[lat.join[l1, l2], lat.join[np.ix_(rows, cols)]]
        a, b = np.argwhere(~above)[0]
        yield l1, l2, int(rows[a]), int(cols[b])


def ref_rank(lat, maxima_below):
    """(h,) per element when all maxima below it share the height h."""
    rank = []
    for l in range(lat.size):
        heights = {lat.hgt(m) for m in maxima_below(l)}
        assert len(heights) == 1
        rank.append((heights.pop(),))
    return tuple(rank)


# -- corpus ----------------------------------------------------------------------

F2, F3 = parse_ring("Z_2"), parse_ring("Z_3")

#: The subspace-lattice latroids on which the atom-exchange B2 fails on the
#: true bases (ROADMAP item 1).
SUBSPACE_B2_CASES = {
    "F_2^3 <101>": (F2, 3, [[1, 0, 1]]),
    "F_3^3 <121>": (F3, 3, [[1, 2, 1]]),
    "F_2^4 <1100,0011>": (F2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]]),
    "F_2^4 <1111>": (F2, 4, [[1, 1, 1, 1]]),
}

BLOCK_CODES = {
    "block F_2^5": (F2, 5, [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]),
    "block F_3^5": (F3, 5, [[1, 0, 1, 2, 1], [0, 1, 1, 1, 2]]),
    "block [7,4] Hamming": (F2, 7, [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ]),
}

SUBMODULE_CODES = {
    **SUBSPACE_B2_CASES,
    "F_2^3 <110,011>": (F2, 3, [[1, 1, 0], [0, 1, 1]]),
    "F_3^3 <102,011>": (F3, 3, [[1, 0, 2], [0, 1, 1]]),
}


def _latroid(name):
    if name in BLOCK_CODES:
        ring, n, rows = BLOCK_CODES[name]
        return valid(block_matroid(span_from_ints(ring, n, rows)))
    ring, n, rows = SUBMODULE_CODES[name]
    return valid(latroid_from_code(span_from_ints(ring, n, rows)))


def _perturbed(subset, size, seed):
    """The set itself, then seeded additions, drops and swaps of one element."""
    rng = random.Random(seed)
    subset = sorted(subset)
    out = [subset]
    for kind in ("add", "add", "drop", "drop", "swap", "swap"):
        s = set(subset)
        if kind in ("drop", "swap") and s:
            s.discard(rng.choice(subset))
        if kind in ("add", "swap"):
            s.add(rng.randrange(size))
        out.append(sorted(s))
    return out


CORPUS = crypto_corpus()
CASES = [f"corpus {k}" for k in range(len(CORPUS))] + [
    *BLOCK_CODES, *SUBMODULE_CODES,
]
_CORPUS = {}


def _case(name):
    """(lattice, [(axioms, reference, candidate set), ...]) for a case."""
    if name not in _CORPUS:
        if name.startswith("corpus"):
            lt = CORPUS[int(name.split()[1])]
        else:
            lt = _latroid(name)
        lat = lt.lattice
        runs = []
        for seed, (fn, ref, true_set) in enumerate((
            (axioms_I, ref_axioms_I, independents(lt)),
            (axioms_B, ref_axioms_B, bases(lt)),
            (axioms_C, ref_axioms_C, circuits(lt)),
        )):
            for subset in _perturbed(true_set, lat.size, seed):
                runs.append((fn, subset, ref(lat, subset).to_dict()))
        _CORPUS[name] = (lat, runs)
    return _CORPUS[name]


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("name", CASES)
def test_axioms_match_reference_loops(name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(core, "_SCAN_BLOCK", block)
    lat, runs = _case(name)
    for fn, subset, expected in runs:
        assert fn(lat, subset).to_dict() == expected, (fn.__name__, subset)


@pytest.mark.parametrize("block", [None, 5])
def test_axioms_I_on_sparse_sets_match_reference_loops(block, monkeypatch):
    """Small sets of large indices: a Python set of them does not iterate
    in ascending order, the array scans and the references do."""
    if block is not None:
        monkeypatch.setattr(core, "_SCAN_BLOCK", block)
    rng = random.Random(5)
    for lat in (boolean_lattice(5), subspace_lattice(2, 4)):
        for _ in range(20):
            indep = [lat.bottom, *rng.sample(range(lat.size), rng.randrange(1, 6))]
            assert axioms_I(lat, indep).to_dict() == ref_axioms_I(lat, indep).to_dict()


@pytest.mark.parametrize("block", [None, 5])
def test_axioms_B_on_sparse_sets_match_reference_loops(block, monkeypatch):
    """Sparse base sets of mixed heights, and sets of one height, whose
    first B2 failure is often past the first (B1, B2) pair: the bit masks
    must keep the reference's loop order."""
    if block is not None:
        monkeypatch.setattr(core, "_SCAN_BLOCK", block)
    rng = random.Random(7)
    late = 0
    for lat in (boolean_lattice(5), subspace_lattice(2, 4)):
        heights = np.asarray(lat.height)
        for _ in range(20):
            mixed = rng.sample(range(lat.size), rng.randrange(1, 7))
            level = np.flatnonzero(heights == rng.randrange(1, lat.hgt(lat.top)))
            level = rng.sample(level.tolist(), rng.randrange(1, min(len(level), 8) + 1))
            for B in (mixed, level):
                got = axioms_B(lat, B).to_dict()
                assert got == ref_axioms_B(lat, B).to_dict(), B
                b2 = got["checks"][1]
                late += not b2["ok"] and not b2["detail"].startswith(
                    f"B1={lat.labels[min(B)]}, B2={lat.labels[sorted(B)[1]]}, ")
    assert late >= 10


def test_atom_decompositions_run_once_per_basis(monkeypatch):
    calls = []
    real = core._atom_decompositions

    def counted(lat, x):
        calls.append(x)
        return real(lat, x)

    monkeypatch.setattr(core, "_atom_decompositions", counted)
    lt = _latroid("block [7,4] Hamming")
    B = bases(lt)
    assert axioms_B(lt.lattice, [*B, *B]).ok
    assert calls == sorted(B)
    calls.clear()
    lat = subspace_lattice(2, 4)
    B = [lat.top, lat.bottom, 5, 5]
    assert not axioms_B(lat, B).ok
    assert calls == sorted(set(B))


def test_perturbations_reach_every_failing_check():
    """The corpus exercises a failure of every check but I1 and C1 (the
    bottom is seldom drawn), so each witness order is compared."""
    failed = set()
    for name in CASES:
        for _, _, expected in _case(name)[1]:
            failed |= {c["name"] for c in expected["checks"] if not c["ok"]}
    assert failed >= {
        "I2_downward_closed", "I3_augmentation", "I4_join_compatible_maxima",
        "B2_atom_exchange", "B3_join_compatible_meets",
        "C2_antichain", "C3_elimination",
    }


@pytest.mark.parametrize("name", [*BLOCK_CODES, *SUBMODULE_CODES])
def test_rank_reconstructions_match_reference_maxima(name):
    lt = _latroid(name)
    lat = lt.lattice
    I, B = independents(lt), bases(lt)
    assert ref_rank(lat, lambda l: ref_maximal_in(lat, I, l)) == rows(lt.rank)
    assert ref_rank(lat, lambda l: [m for _, m in ref_maximal_meets(lat, B, l)]) == rows(lt.rank)
    assert np.array_equal(valid(rank_from_independents(lat, I)).rank, lt.rank)
    assert np.array_equal(valid(rank_from_circuits(lat, circuits(lt))).rank, lt.rank)
    if name not in SUBSPACE_B2_CASES:
        assert np.array_equal(valid(rank_from_bases(lat, B)).rank, lt.rank)


def test_common_heights_reject_maxima_of_mixed_heights():
    lat = boolean_lattice(3)
    maxima = np.eye(lat.size, dtype=bool)
    assert _common_heights(lat, maxima, "independents").tolist() == list(lat.height)
    maxima[lat.top] = False
    maxima[lat.top, [lat.index[frozenset({0})], lat.index[frozenset({1, 2})]]] = True
    message = r"independents below frozenset\(\{0, 1, 2\}\) have heights \[1, 2\]"
    with pytest.raises(ReconstructionError, match=message):
        _common_heights(lat, maxima, "independents")


@pytest.mark.parametrize("name", sorted(SUBSPACE_B2_CASES))
def test_subspace_latroids_fail_atom_exchange_only(name):
    lt = _latroid(name)
    lat = lt.lattice
    assert axioms_I(lat, independents(lt)).ok
    assert axioms_C(lat, circuits(lt)).ok
    assert np.array_equal(valid(rank_from_independents(lat, independents(lt))).rank, lt.rank)
    assert np.array_equal(valid(rank_from_circuits(lat, circuits(lt))).rank, lt.rank)
    # Known seed finding (ROADMAP item 1): atom decompositions are not unique
    # on a subspace lattice, so the atom-exchange B2 rejects the true bases.
    # The q-analogue exchange should pass here; whoever replaces B2 must
    # update this assertion.
    report = axioms_B(lat, bases(lt))
    assert [c.name for c in report.failures()] == ["B2_atom_exchange"]


def test_derived_sets_match_element_loops():
    for lt in CORPUS + [_latroid(name) for name in SUBMODULE_CODES]:
        lat, rank, length = lt.lattice, rows(lt.rank), rows(lt.length)
        indep = [i for i in range(lat.size) if rank[i] == length[i]]
        assert independents(lt) == tuple(indep)
        assert bases(lt) == tuple(i for i in indep if length[i] == rank[lat.top])
        assert circuits(lt) == tuple(
            i for i in range(lat.size)
            if i not in indep
            and all(j in indep for j in range(lat.size) if lat.lt(j, i))
        )


# -- the pair scan of I4 and B3 --------------------------------------------------


def _scan_lattices():
    grids = [grid_lattice(r) for r in ((2, 3), (1, 2, 2), (3, 3))]
    return [
        *(boolean_lattice(n) for n in range(1, 7)),
        *(subspace_lattice(q, n) for q, n in ((2, 3), (3, 3), (2, 4))),
        *grids,
        dual(subspace_lattice(2, 3)),
        interval(grids[2], 1, grids[2].top),
        grid_lattice((2, 2, 2, 4)),  # 135 elements: three words per packed row
    ]


def _scan_inputs(lat, rng):
    """Maxima of random candidate sets and of random base sets, and
    arbitrary boolean matrices: the pair-scan identity assumes nothing
    about M.  Last, M with the bottom in every row, so every D_j is empty."""
    for _ in range(4):
        member = _membership(lat, rng.sample(range(lat.size), rng.randrange(1, lat.size + 1)))
        yield _maximal(lat, lat.leq.T & member)
        yield _meet_maxima(lat, rng.sample(range(lat.size), rng.randrange(1, min(lat.size, 6) + 1)))
        density = rng.choice((0.05, 0.2, 0.5))
        yield np.random.default_rng(rng.randrange(1 << 30)).random((lat.size, lat.size)) < density
    M = np.zeros((lat.size, lat.size), dtype=bool)
    M[:, lat.bottom] = True
    yield M


@pytest.mark.parametrize("block", [None, 5])
def test_unmatched_pairs_match_the_reference_kernel(block, monkeypatch):
    """Whole yielded lists, not only the first witness that the checks read."""
    if block is not None:
        monkeypatch.setattr(core, "_SCAN_BLOCK", block)
    rng = random.Random(11)
    cases = failing = 0
    for lat in _scan_lattices():
        for M in _scan_inputs(lat, rng):
            got = list(core._unmatched_pairs(lat, M))
            assert got == list(reference_unmatched_pairs(lat, M)), (lat.size, M.sum())
            cases += 1
            failing += bool(got)
    assert cases == 15 * 13 and failing >= cases // 3


#: A binary [10,5] code [I | A]: its block matroid lives on the 1024
#: subsets of 10 coordinates.
CODE_10_5 = [
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1, 1, 0],
]


def test_pair_scans_on_a_1024_element_block_matroid():
    lt = block_matroid(span_from_ints(F2, 10, CODE_10_5))
    lat = lt.lattice
    I, B = set(independents(lt)), set(bases(lt))
    assert axioms_I(lat, I).ok and axioms_B(lat, B).ok
    for M in (
        _maximal(lat, lat.leq.T & _membership(lat, I - {lat.atoms[0]})),
        _meet_maxima(lat, sorted(B - {min(B)})),
    ):
        got = list(core._unmatched_pairs(lat, M))
        assert got and got == list(reference_unmatched_pairs(lat, M))


def test_reconstructions_build_their_maxima_once(monkeypatch):
    """rank_from_independents and rank_from_bases read their ranks from
    the maxima that their axiom check scanned."""
    built = []
    real = core._maximal

    def counted(lat, cand):
        built.append(cand)
        return real(lat, cand)

    monkeypatch.setattr(core, "_maximal", counted)
    lt = _latroid("block [7,4] Hamming")
    lat = lt.lattice
    assert np.array_equal(rank_from_independents(lat, independents(lt)).rank, lt.rank)
    assert len(built) == 1
    assert np.array_equal(rank_from_bases(lat, bases(lt)).rank, lt.rank)
    assert len(built) == 2
