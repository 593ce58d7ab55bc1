import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from test_lattices import clear_lattice_caches

from latroids import core, lattices
from latroids.codes import full_space, span_from_ints
from latroids.core import (
    Latroid,
    axioms_B,
    axioms_C,
    axioms_I,
    bases,
    circuit_chain_length,
    circuits,
    closure,
    collapse_scalars,
    direct_sum,
    dual_latroid,
    flats,
    free_latroid,
    generalized_weight,
    hyperplanes,
    independents,
    minimal_feasible_lengths,
    rank_from_bases,
    rank_from_circuits,
    rank_from_independents,
    restrict,
    uniform_latroid,
    validate_latroid,
)
from latroids.errors import NotGradedError, ReconstructionError
from latroids.lattices import (
    boolean_lattice,
    build_lattice,
    dual,
    grid_lattice,
    is_modular_lattice,
    subspace_lattice,
)
from latroids.report import Check, Report
from latroids.rings import parse_ring
from latroids.selftest import latroid_corpus

B3 = boolean_lattice(3)
B4 = boolean_lattice(4)
PG23 = subspace_lattice(2, 3)


def leq_matrix(labels, leq):
    """The boolean order matrix of a leq callable on the labels."""
    labels = list(labels)
    return np.array([[bool(leq(a, b)) for b in labels] for a in labels], dtype=bool)


def rows(table):
    """A rank or length table as a tuple of per-element tuples."""
    return tuple(map(tuple, table.tolist()))


def valid(lt):
    """``lt``, after asserting that it satisfies L1-L5 (constructors only
    build; ``validate_latroid`` is the check)."""
    report = validate_latroid(lt)
    assert report.ok, report.summary()
    return lt


def crypto_corpus():
    """Latroids under the height function on complemented modular lattices;
    ``test_crypto_corpus_is_valid`` validates each once."""
    out = [
        free_latroid(B3),
        free_latroid(PG23),
        uniform_latroid(B3, 1),
        uniform_latroid(B3, 2),
        uniform_latroid(B4, 1),
        uniform_latroid(B4, 2),
        uniform_latroid(B4, 3),
        uniform_latroid(PG23, 1),
        uniform_latroid(PG23, 2),
        uniform_latroid(subspace_lattice(3, 2), 1),
    ]
    from latroids.code_latroids import block_matroid

    f2 = parse_ring("Z_2")
    out.append(block_matroid(span_from_ints(f2, 3, [[1, 1, 1]])))
    out.append(block_matroid(span_from_ints(f2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])))
    out.append(block_matroid(span_from_ints(f2, 4, [[1, 1, 1, 0], [0, 1, 1, 1]])))
    return out


@pytest.mark.parametrize("lt", crypto_corpus())
def test_crypto_corpus_is_valid(lt):
    valid(lt)


def test_free_latroid_valid_and_trivial():
    lt = free_latroid(B3)
    assert validate_latroid(lt).ok
    assert set(independents(lt)) == set(range(B3.size))
    assert bases(lt) == (B3.top,)
    assert circuits(lt) == ()


def test_free_needs_graded_or_length():
    labels = ["0", "a", "b", "c", "1"]
    order = {
        ("0", "a"), ("0", "b"), ("0", "c"), ("0", "1"),
        ("a", "c"), ("a", "1"), ("b", "1"), ("c", "1"),
    }
    lat = build_lattice(labels, leq_matrix(labels, lambda x, y: x == y or (x, y) in order))
    with pytest.raises(NotGradedError):
        free_latroid(lat)


def test_uniform_latroid_cap():
    lt = valid(uniform_latroid(B3, 2))
    assert lt.rank[B3.top].tolist() == [2]
    assert lt.rank[B3.index[frozenset({0, 1})]].tolist() == [2]
    with pytest.raises(ValueError):
        uniform_latroid(B3, 0)


def test_uniform_with_full_cap_is_free():
    lt = valid(uniform_latroid(B3, 3))
    assert np.array_equal(lt.rank, lt.length)


def test_one_element_lattice_free():
    lat = build_lattice([0], np.ones((1, 1), dtype=bool))
    lt = valid(free_latroid(lat))
    assert rows(lt.rank) == ((0,),)


def test_validate_rejects_negative_top():
    bad = Latroid.from_functions(B3, lambda s: -len(s), lambda s: len(s))
    rep = validate_latroid(bad)
    assert not rep.ok
    assert rep.first_failure().name == "L4_rank_bounded_increasing"


def test_z8_ideal_latroids():
    # the chain of ideals (2^e) of Z_8, labelled (e,), with length |I| - 1
    # and two different ranks
    z8 = parse_ring("Z_8")
    lat = dual(grid_lattice([3]))
    sizes = {
        (e,): sum(1 for a in z8.elements() if z8.valuations(a)[0] >= e) for e in range(4)
    }
    halves = Latroid.from_functions(lat, lambda i: sizes[i] // 2, lambda i: sizes[i] - 1)
    lengths = Latroid.from_functions(lat, lambda i: 3 - i[0], lambda i: sizes[i] - 1)
    assert validate_latroid(halves).ok
    assert validate_latroid(lengths).ok
    # same independents, different top rank (4 against 3)
    assert independents(halves) == independents(lengths)
    assert {lat.labels[i] for i in independents(halves)} == {(3,), (2,)}
    assert halves.rank[lat.top].tolist() == [4]
    assert lengths.rank[lat.top].tolist() == [3]


def test_restrict_full_is_identity():
    lt = valid(free_latroid(B3))
    assert valid(restrict(lt, B3.bottom, B3.top)) == lt


def test_restrict_shifts_to_zero():
    lt = valid(uniform_latroid(B4, 2))
    a = B4.index[frozenset({0})]
    sub = restrict(lt, a, B4.top)
    assert validate_latroid(sub).ok
    assert sub.rank[sub.lattice.bottom].tolist() == [0]


def test_direct_sum_of_free_is_free():
    lt = direct_sum(valid(free_latroid(B3)), valid(free_latroid(boolean_lattice(2))))
    assert np.array_equal(lt.rank, lt.length)
    assert validate_latroid(lt).ok


def test_direct_sum_checks_scalar_dim():
    a = valid(free_latroid(B3))
    b = valid(collapse_scalars(valid(direct_sum(a, a))))
    assert b.udim == 1
    with pytest.raises(ValueError):
        direct_sum(a, Latroid.from_functions(B3, lambda s: (0, 0), lambda s: (len(s), len(s))))


def test_dual_involution_on_random_code_latroids():
    from latroids.code_latroids import chain_support_latroid

    rng = random.Random(7)
    z4 = parse_ring("Z_4")
    for _ in range(10):
        rows = [[rng.randrange(4) for _ in range(2)] for _ in range(2)]
        lt = chain_support_latroid(span_from_ints(z4, 2, rows))
        dd = dual_latroid(dual_latroid(lt))
        assert dd == lt


def test_dual_identities():
    lt = valid(uniform_latroid(B4, 2))
    dl = dual_latroid(lt)
    assert validate_latroid(dl).ok
    top_len = lt.length[B4.top].tolist()
    for i in range(B4.size):
        assert dl.length[i].tolist() == [a - b for a, b in zip(top_len, lt.length[i].tolist())]
    # interval duality: restrict-then-dualize = dualize-then-restrict-swapped
    a = B4.index[frozenset({0})]
    b = B4.index[frozenset({0, 1, 2})]
    left = valid(dual_latroid(valid(restrict(lt, a, b))))
    right = valid(restrict(dl, b, a))
    assert np.array_equal(left.rank, right.rank) and np.array_equal(left.length, right.length)


def test_independents_downward_closed_on_corpus():
    for lt in crypto_corpus():
        ind = set(independents(lt))
        lat = lt.lattice
        for i in ind:
            for j in range(lat.size):
                if lat.lt(j, i):
                    assert j in ind


def test_bases_have_equal_height_on_corpus():
    for lt in crypto_corpus():
        hs = {lt.lattice.hgt(b) for b in bases(lt)}
        assert len(hs) == 1


def test_block_matroid_circuit_of_repetition_pair():
    from latroids.code_latroids import block_matroid

    f2 = parse_ring("Z_2")
    lt = valid(block_matroid(span_from_ints(f2, 2, [[1, 1]])))
    assert [lt.lattice.labels[c] for c in circuits(lt)] == [frozenset({0, 1})]


def test_axiom_systems_on_corpus():
    for lt in crypto_corpus():
        lat = lt.lattice
        assert axioms_I(lat, independents(lt)).ok
        assert axioms_B(lat, bases(lt)).ok
        assert axioms_C(lat, circuits(lt)).ok


def test_axioms_reject_bad_candidates():
    # nested circuits violate the antichain axiom
    lat = B3
    c_nested = [lat.index[frozenset({0})], lat.index[frozenset({0, 1})]]
    rep = axioms_C(lat, c_nested)
    assert not rep.ok
    assert any(c.name == "C2_antichain" and not c.ok for c in rep.checks)
    # independents missing the bottom
    rep = axioms_I(lat, [lat.index[frozenset({0})]])
    assert not rep.ok
    # empty bases
    rep = axioms_B(lat, [])
    assert not rep.ok


def test_axioms_require_hypotheses():
    chain3 = build_lattice(range(3), leq_matrix(range(3), lambda a, b: a <= b))
    for fn in (axioms_I, rank_from_independents, rank_from_bases, rank_from_circuits):
        with pytest.raises(ValueError, match="complemented modular lattice"):
            fn(chain3, [0])
    pentagon = build_lattice(
        "0abc1", leq_matrix("0abc1", lambda x, y: x == y or x == "0" or y == "1" or (x, y) == ("a", "b"))
    )
    for fn in (rank_from_independents, rank_from_bases, rank_from_circuits):
        with pytest.raises(NotGradedError, match="graded lattice"):
            fn(pentagon, [0])


def test_reconstructions_check_hypotheses_once(monkeypatch):
    # the three reconstructions share the lattice's kept verdicts; the
    # shared boolean lattice starts without them
    clear_lattice_caches()
    calls = []

    def counted(lat):
        calls.append(lat)
        return is_modular_lattice(lat)

    monkeypatch.setattr(lattices, "is_modular_lattice", counted)
    lat = boolean_lattice(3)
    lt = valid(uniform_latroid(lat, 2))
    valid(rank_from_independents(lat, independents(lt)))
    valid(rank_from_bases(lat, bases(lt)))
    valid(rank_from_circuits(lat, circuits(lt)))
    assert calls == [lat]


def test_reconstruction_roundtrips_on_corpus():
    for lt in crypto_corpus():
        lat = lt.lattice
        assert np.array_equal(valid(rank_from_independents(lat, independents(lt))).rank, lt.rank)
        assert np.array_equal(valid(rank_from_bases(lat, bases(lt))).rank, lt.rank)
        assert np.array_equal(valid(rank_from_circuits(lat, circuits(lt))).rank, lt.rank)


def test_reconstructions_agree_pairwise():
    for lt in crypto_corpus():
        lat = lt.lattice
        a = rows(valid(rank_from_independents(lat, independents(lt))).rank)
        b = rows(valid(rank_from_bases(lat, bases(lt))).rank)
        c = rows(valid(rank_from_circuits(lat, circuits(lt))).rank)
        assert a == b == c


def test_reconstruction_rejects_violations():
    with pytest.raises(ReconstructionError):
        rank_from_circuits(B3, [B3.bottom])


def test_kappa_needs_longest_chain_not_greedy():
    # rank-1 uniform on B_4: circuits are the six pairs; a stuck chain of
    # two disjoint pairs has length 2 but maximal chains have length 3
    lt = valid(uniform_latroid(B4, 1))
    cs = circuits(lt)
    assert len(cs) == 6
    assert circuit_chain_length(B4, cs, B4.top) == 3
    assert np.array_equal(valid(rank_from_circuits(B4, cs)).rank, lt.rank)


def test_all_maximal_circuit_chains_have_equal_length():
    # brute-force refinement check against the memoized longest chain
    for lt in map(valid, (uniform_latroid(B4, 1), uniform_latroid(B3, 1), uniform_latroid(PG23, 2))):
        lat = lt.lattice
        cs = circuits(lt)
        for l in range(lat.size):
            inside = [c for c in cs if lat.leq[c, l]]
            maximal_lengths = set()

            def extend(seq, join):
                grew = False
                for c in inside:
                    if not lat.leq[c, join]:
                        extend(seq + [c], int(lat.join[join, c]))
                        grew = True
                if not grew and not _refinable(lat, inside, seq):
                    maximal_lengths.add(len(seq))

            extend([], lat.bottom)
            if inside:
                assert maximal_lengths == {circuit_chain_length(lat, cs, l)}


def _refinable(lat, inside, seq):
    """Can a circuit be inserted anywhere keeping joins strictly rising?"""
    for pos in range(len(seq) + 1):
        for c in inside:
            trial = seq[:pos] + [c] + seq[pos:]
            join = lat.bottom
            ok = True
            for x in trial:
                nxt = int(lat.join[join, x])
                if nxt == join:
                    ok = False
                    break
                join = nxt
            if ok and len(trial) > len(seq):
                return True
    return False


def test_lemma_atoms_join_under_rank_stability():
    # if joining every atom below L2 keeps the rank, joining L2 keeps it
    for lt in crypto_corpus():
        lat, rank = lt.lattice, rows(lt.rank)
        for l1, l2 in lat.pairs():
            atoms_below = [a for a in lat.atoms if lat.leq[a, l2]]
            if all(
                rank[int(lat.join[l1, a])] == rank[l1] for a in atoms_below
            ):
                assert rank[int(lat.join[l1, l2])] == rank[l1]


def test_closure_and_flats():
    free = valid(free_latroid(B3))
    assert all(closure(free, l) == l for l in range(B3.size))
    assert closure(free, B3.top) == B3.top
    lt = valid(uniform_latroid(B3, 1))
    # rank-1 uniform: any nonempty set closes to the whole ground set
    one = B3.index[frozenset({0})]
    assert closure(lt, one) == B3.top
    assert set(flats(lt)) == {B3.bottom, B3.top}
    assert hyperplanes(lt) == (B3.bottom,)


def test_closure_on_block_matroid():
    from latroids.code_latroids import block_matroid

    f2 = parse_ring("Z_2")
    # the codeword (1,1) is a circuit, so coordinates 0 and 1 are parallel
    lt = valid(block_matroid(span_from_ints(f2, 2, [[1, 1]])))
    lat = lt.lattice
    assert closure(lt, lat.index[frozenset({0})]) == lat.index[frozenset({0, 1})]
    assert set(flats(lt)) == {lat.index[frozenset()], lat.index[frozenset({0, 1})]}
    # coordinate 2 is a coloop: its singleton is a flat and closes to itself
    lt = valid(block_matroid(span_from_ints(f2, 3, [[1, 1, 0]])))
    lat = lt.lattice
    assert closure(lt, lat.index[frozenset({2})]) == lat.index[frozenset({2})]
    assert closure(lt, lat.index[frozenset({0})]) == lat.index[frozenset({0, 1})]


def test_block_matroid_closure_matches_elementwise_definition():
    # cl(S) = S + {e : rho(S + e) = rho(S)} on every subset of every subcode
    from latroids.code_latroids import block_matroid
    from latroids.codes import enumerate_submodules

    cases = 0
    for name, n in (("Z_2", 3), ("Z_3", 2)):
        for code in enumerate_submodules(full_space(parse_ring(name), n)):
            lt = block_matroid(code)
            lat, rank = lt.lattice, rows(lt.rank)
            for l, s in enumerate(lat.labels):
                expected = s | {
                    e for e in range(n)
                    if rank[lat.index[s | {e}]] == rank[l]
                }
                assert lat.labels[closure(lt, l)] == expected
                cases += 1
    assert cases == 152


# -- the table contract ------------------------------------------------------------


def core_constructions(lat):
    """One latroid from each constructor of ``core`` on a boolean lattice."""
    lt = uniform_latroid(lat, 2)
    pair = Latroid.from_functions(lat, lambda s: (min(len(s), 1), 0), lambda s: (len(s), len(s)))
    return [
        free_latroid(lat), lt, pair, collapse_scalars(pair),
        restrict(lt, lat.index[frozenset({0})], lat.top), direct_sum(lt, lt), dual_latroid(lt),
        rank_from_independents(lat, independents(lt)), rank_from_bases(lat, bases(lt)),
        rank_from_circuits(lat, circuits(lt)),
    ]


def table_corpus(build=latroid_corpus):
    return [lt for _, lt in build(0)] + core_constructions(boolean_lattice(3))


def test_tables_are_read_only_int64():
    for lt in table_corpus():
        for table in (lt.rank, lt.length):
            assert table.dtype == np.int64
            assert table.shape == (lt.lattice.size, lt.udim)
            assert not table.flags.writeable


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 1.0])
def test_non_integer_entries_raise(bad):
    # checked before the int64 cast, which would truncate them silently
    good = [len(s) for s in B3.labels]
    for table in ([bad, *good[1:]], [(bad, 0), *((g, g) for g in good[1:])]):
        for rank, length in ((table, good), (good, table)):
            with pytest.raises(ValueError, match="must be integers"):
                Latroid(B3, rank, length)
    with pytest.raises(ValueError, match="must be integers"):
        Latroid.from_functions(B3, lambda s: bad * len(s), len)


def test_latroids_built_separately_are_equal_by_value():
    for lt, again in zip(table_corpus(), table_corpus(latroid_corpus.__wrapped__), strict=True):
        assert lt is not again
        assert lt == again and hash(lt) == hash(again)
        assert len({lt, again}) == 1


def test_one_entry_change_breaks_equality():
    for lt in table_corpus():
        for field in ("rank", "length"):
            tables = {"rank": lt.rank.copy(), "length": lt.length.copy()}
            tables[field][-1, -1] += 1
            assert lt != Latroid(lt.lattice, **tables)


def test_generalized_weight_conventions():
    free = valid(free_latroid(B3))
    assert generalized_weight(free, 1) == 0  # infeasible, convention
    assert generalized_weight(free, 0) == 0
    lt = valid(uniform_latroid(B4, 2))
    # nullity |L| - 2 >= 1 first at |L| = 3
    assert generalized_weight(lt, 1) == 3
    assert generalized_weight(lt, 2) == 4


def test_generalized_weight_udim_guard():
    two = Latroid.from_functions(B3, lambda s: (0, 0), lambda s: (len(s), len(s)))
    with pytest.raises(ValueError):
        generalized_weight(two, 1)
    fronts = minimal_feasible_lengths(two, (1, 1))
    assert fronts == ((1, 1),)


def test_minimal_feasible_lengths_match_pairwise_reference():
    # the antichain of minimal feasible lengths by a loop over tuples
    for lt in table_corpus():
        length, nullity = rows(lt.length), rows(lt.length - lt.rank)
        for a in itertools.product(range(3), repeat=lt.udim):
            feasible = {l for l, d in zip(length, nullity) if sleq(a, d)}
            minimal = sorted(s for s in feasible if not any(slt(t, s) for t in feasible))
            assert minimal_feasible_lengths(lt, a) == tuple(minimal)


def test_minimal_feasible_lengths_of_repeated_rows_and_of_nothing():
    # B3's 8 length rows take 4 values; np.unique is the oracle for the
    # distinct feasible rows, and a nullity nothing reaches gives ()
    lt = Latroid.from_functions(B3, lambda s: (0, 0), lambda s: (len(s), len(s) % 2))
    for a in itertools.product(range(5), repeat=2):
        feasible = np.unique(lt.length[(lt.length - lt.rank >= a).all(axis=1)], axis=0)
        rows = [tuple(r) for r in feasible.tolist()]
        minimal = tuple(s for s in rows if not any(slt(t, s) for t in rows))
        assert minimal_feasible_lengths(lt, a) == minimal
    assert minimal_feasible_lengths(lt, (1, 0)) == ((1, 1), (2, 0))
    assert minimal_feasible_lengths(lt, (4, 0)) == ()


def test_weight_monotone_and_strict_step():
    # d_b <= d_a for b <= a; strict when some element attains nullity b
    for lt in crypto_corpus():
        if lt.udim != 1:
            continue
        nullities = set((lt.length - lt.rank)[:, 0].tolist())
        top_nullity = max(nullities)
        for a in range(1, top_nullity + 1):
            da = generalized_weight(lt, a)
            db = generalized_weight(lt, a - 1)
            assert db <= da
            if a - 1 in nullities:
                assert db < da


# Scalars as tuples under the product order: the reference's own arithmetic,
# independent of the int64 tables of ``core``.


def sadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def ssub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def sleq(a, b):
    return all(x <= y for x, y in zip(a, b, strict=True))


def slt(a, b):
    return sleq(a, b) and a != b


def reference_validate(lt):
    """validate_latroid as a plain loop over pairs of tuple scalars,
    witnesses in row-major order; the array version must give the same
    report."""
    lat = lt.lattice
    L, R = rows(lt.length), rows(lt.rank)
    zero = (0,) * lt.udim
    checks = []
    ok = R[lat.bottom] == zero and L[lat.bottom] == zero
    checks.append(Check("L1_zero_at_bottom", ok, "" if ok else
                        f"rho(0)={R[lat.bottom]}, len(0)={L[lat.bottom]}"))
    strict = [(a, b) for a, b in lat.pairs() if lat.lt(a, b)]

    def first(pairs, fails, describe):
        return next((describe(a, b) for a, b in pairs if fails(a, b)), "")

    def both(a, b):
        return f"{lat.labels[a]}, {lat.labels[b]}"

    def join_meet_sum(f, a, b):
        return sadd(f[lat.join[a, b]], f[lat.meet[a, b]])

    scans = [
        ("L2_length_strictly_increasing", strict,
         lambda a, b: not slt(L[a], L[b]),
         lambda a, b: f"len({lat.labels[a]})={L[a]} !< len({lat.labels[b]})={L[b]}"),
        ("L3_length_modular", lat.pairs(),
         lambda a, b: sadd(L[a], L[b]) != join_meet_sum(L, a, b), both),
        ("L4_rank_bounded_increasing", strict,
         lambda a, b: not (sleq(zero, ssub(R[b], R[a]))
                           and sleq(ssub(R[b], R[a]), ssub(L[b], L[a]))),
         lambda a, b: f"{lat.labels[a]} < {lat.labels[b]}: "
                      f"drho={ssub(R[b], R[a])}, dlen={ssub(L[b], L[a])}"),
        ("L5_rank_submodular", lat.pairs(),
         lambda a, b: not sleq(join_meet_sum(R, a, b), sadd(R[a], R[b])), both),
    ]
    for name, pairs, fails, describe in scans:
        witness = first(pairs, fails, describe)
        checks.append(Check(name, not witness, witness))
    return Report.from_checks(checks)


def perturbed_latroids(count, seed):
    """Capped-height latroids with udim 1 or 2, scaled by 6 or by 3, with up
    to three entries nudged by -6, 6 or 2 so that most fail some check (the
    image under x6 of halved tables nudged by -1, 1 or 1/3)."""
    lats = [boolean_lattice(4), grid_lattice([2, 1, 2]), grid_lattice([3, 3]),
            subspace_lattice(2, 3), subspace_lattice(3, 2)]
    rng = random.Random(seed)
    for _ in range(count):
        lat = rng.choice(lats)
        u = rng.choice([1, 2])
        cap = rng.randint(1, lat.hgt(lat.top))
        scale = 3 if rng.random() < 0.3 else 6
        length = [tuple(scale * lat.hgt(i) * (j + 1) for j in range(u)) for i in range(lat.size)]
        rank = [tuple(min(x, scale * cap * (j + 1)) for j, x in enumerate(l)) for l in length]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            table = rng.choice([rank, length])
            i, j = rng.randrange(lat.size), rng.randrange(u)
            entry = list(table[i])
            entry[j] += rng.choice([-6, 6, 2])
            table[i] = tuple(entry)
        yield Latroid(lat, rank, length)


@pytest.mark.parametrize("block", [None, 40])
def test_validate_latroid_matches_pairwise_reference(block, monkeypatch):
    if block is not None:  # a few rows per block: witnesses cross block edges
        monkeypatch.setattr(core, "_SCAN_BLOCK", block)
    failed = set()
    for lt in perturbed_latroids(300, seed=5):
        report = validate_latroid(lt)
        assert report.to_dict() == reference_validate(lt).to_dict()
        failed.update(c.name for c in report.failures())
    assert failed == {
        "L1_zero_at_bottom", "L2_length_strictly_increasing", "L3_length_modular",
        "L4_rank_bounded_increasing", "L5_rank_submodular",
    }
