import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_weights import q_binomial

from latroids import codes, lattices
from latroids.codes import full_space, span_from_ints
from latroids.errors import CapExceededError, NotALatticeError, NotGradedError
from latroids.lattices import (
    atoms_join_check,
    boolean_lattice,
    build_lattice,
    chain_support_lattice,
    dual,
    grid_lattice,
    interval,
    is_complemented_lattice,
    is_modular_lattice,
    product,
    submodule_lattice,
    subspace_lattice,
)
from latroids.rings import parse_ring
from latroids.selftest import latroid_corpus


def clear_lattice_caches():
    """Empty every cache of ``latroids.lattices`` (the chains, the ambient
    lattices, the subspace lattices), so that a test counting what a
    lattice computes sees it built, whichever tests ran before."""
    for value in vars(lattices).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def leq_matrix(labels, leq):
    """The boolean order matrix of a leq callable on the labels."""
    labels = list(labels)
    return np.array([[bool(leq(a, b)) for b in labels] for a in labels], dtype=bool)


def chain(n):
    return build_lattice(range(n), leq_matrix(range(n), lambda a, b: a <= b))


def ideals(ring):
    """The ideals of R under containment, labelled by exponents: (p^e) lies
    in (p^f) exactly when e >= f, so a product of reversed chains."""
    return product(*(dual(grid_lattice([f.k])) for f in ring.factors))


def divisor_lattice(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return build_lattice(divisors, leq_matrix(divisors, lambda a, b: b % a == 0))


def corpus():
    z8 = parse_ring("Z_8")
    z6 = parse_ring("Z_2 x Z_3")
    return [
        boolean_lattice(3),
        boolean_lattice(4),
        subspace_lattice(2, 2),
        subspace_lattice(2, 3),
        subspace_lattice(3, 2),
        ideals(z8),
        ideals(z6),
        chain_support_lattice(parse_ring("Z_4"), 2),
        submodule_lattice(full_space(parse_ring("Z_4"), 2)),
        divisor_lattice(12),
        product(chain(2), chain(3)),
    ]


def test_boolean_lattice_basics():
    b3 = boolean_lattice(3)
    assert b3.size == 8
    assert b3.is_graded
    assert all(b3.hgt(i) == len(b3.labels[i]) for i in range(8))
    assert b3.is_modular and distributive_law_loop(b3)
    assert b3.is_complemented


def test_boolean_lattice_zero():
    assert boolean_lattice(0).size == 1


def test_subspace_lattice_counts():
    assert subspace_lattice(2, 2).size == 5
    assert subspace_lattice(3, 2).size == 6
    assert subspace_lattice(2, 3).size == 16
    for q, n, size in ((2, 5, 374), (3, 4, 212), (7, 3, 116)):
        lat = subspace_lattice(q, n)
        assert lat.size == size
        assert Counter(map(len, lat.labels)) == {r: q_binomial(n, r, q) for r in range(n + 1)}


def test_subspace_lattice_prime_only():
    with pytest.raises(ValueError, match="prime"):
        subspace_lattice(4, 2)


@pytest.mark.parametrize("q", [4, 6])
def test_subspace_lattice_rejections_come_before_enumeration(monkeypatch, q):
    def no_enumeration(code):
        raise AssertionError("enumerated")

    monkeypatch.setattr(codes, "_submodule_masks", no_enumeration)
    with pytest.raises(ValueError, match="prime"):
        subspace_lattice(q, 2)
    with pytest.raises(CapExceededError, match="enumerating F_2\\^13"):
        subspace_lattice(2, 13)


def test_subspace_lattice_stops_enumerating_at_the_lattice_cap():
    # F_2^8 is within the enumeration cap but has 417199 subspaces.
    with pytest.raises(CapExceededError, match="submodule count needs 4097 > cap 4096"):
        subspace_lattice(2, 8)


def _no_table(*args):
    raise AssertionError(f"N x N table asked for from {len(args[0])} rows")


def test_lattice_cap_is_checked_before_any_order_matrix(monkeypatch):
    monkeypatch.setattr(lattices, "_product_table", _no_table)
    too_many = range(lattices.LATTICE_CAP + 1)
    for build in (
        lambda: boolean_lattice(13),
        lambda: grid_lattice([1] * 13),
        lambda: build_lattice(too_many, np.eye(2, dtype=bool)),
        lambda: product(chain(65), chain(64)),
    ):
        with pytest.raises(CapExceededError, match="lattice size"):
            build()


def test_subspace_lattice_f2_3_flags():
    lat = subspace_lattice(2, 3)
    assert lat.is_modular and lat.is_complemented
    assert not distributive_law_loop(lat)


def test_chain_not_complemented():
    lat = ideals(parse_ring("Z_8"))
    assert is_modular_lattice(lat)
    assert not is_complemented_lattice(lat)


def test_divisor_lattice_distributive():
    divs = divisor_lattice(12)
    assert distributive_law_loop(divs)
    assert is_modular_lattice(divs)


def test_not_a_lattice_reported():
    # two incomparable tops: no join for the two atoms
    labels = ["a", "b", "c", "d"]
    order = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}

    def leq(x, y):
        return x == y or (x, y) in order

    with pytest.raises(NotALatticeError) as err:
        build_lattice(labels, leq_matrix(labels, leq))
    assert err.value.pair is not None


def test_partial_order_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        build_lattice([0, 1], np.ones((2, 2), dtype=bool))


def test_interval_and_dual():
    b3 = boolean_lattice(3)
    assert interval(b3, b3.bottom, b3.top) == b3
    assert dual(dual(b3)) == b3
    with pytest.raises(ValueError):
        interval(b3, b3.top, b3.bottom)
    mid = b3.index[frozenset({0})]
    sub = interval(b3, mid, b3.top)
    assert sub.size == 4  # supersets of {0}


@pytest.mark.parametrize("make", [
    lambda: divisor_lattice(12),
    lambda: product(chain(2), chain(3)),
    lambda: boolean_lattice(3),
    lambda: dual(divisor_lattice(12)),
    lambda: interval(divisor_lattice(12), 0, 4),
], ids=["build_lattice", "product", "boolean_lattice", "dual", "interval"])
def test_lattice_tables_are_read_only(make):
    lat = make()
    for table in (lat.leq, lat.covers, lat.join, lat.meet):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = table[0, 0]


def test_lattice_keeps_the_callers_arrays_writable():
    leq = leq_matrix(range(3), lambda a, b: a <= b)
    lat = build_lattice(range(3), leq)
    leq[0, 0] = True
    assert leq.flags.writeable and not lat.leq.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: lattices._chain(3),
    lambda: boolean_lattice(3),
    lambda: lattices._ambient_submodules(parse_ring("Z_4"), 2),
    lambda: subspace_lattice(2, 3),
], ids=["chain", "boolean", "ambient_submodules", "subspaces"])
def test_ambient_lattices_are_built_once(build):
    assert build() is build()


def test_kept_ambient_lattices_are_bounded():
    clear_lattice_caches()
    first = boolean_lattice(1)
    for n in range(2, lattices._AMBIENT_KEPT + 3):
        boolean_lattice(n)
    assert boolean_lattice.cache_info().currsize == lattices._AMBIENT_KEPT
    assert boolean_lattice(1) is not first and boolean_lattice(1) == first
    for ring in ("Z_2", "Z_3", "Z_4", "Z_5"):
        lattices._ambient_submodules(parse_ring(ring), 1)
    assert lattices._ambient_submodules.cache_info().currsize == lattices._AMBIENT_KEPT


def test_product_of_chains_is_grid():
    p = product(chain(2), chain(2))
    assert p.size == 4
    assert p.is_graded and p.hgt(p.top) == 2
    assert distributive_law_loop(p)


def test_grid_and_chain_support_lattice():
    g = chain_support_lattice(parse_ring("Z_4"), 2)
    assert g.size == 9
    assert g.labels[0] == (0, 0) and g.labels[-1] == (2, 2)
    z6 = parse_ring("Z_2 x Z_3")
    g6 = chain_support_lattice(z6, 2)
    assert g6.size == 16  # {0,1}^4


def test_submodule_lattice_z4_2():
    lat = submodule_lattice(full_space(parse_ring("Z_4"), 2))
    assert lat.size == 15
    assert lat.is_graded
    assert is_modular_lattice(lat)
    assert not is_complemented_lattice(lat)


def test_atoms_join_check():
    assert atoms_join_check(boolean_lattice(4)).ok
    assert atoms_join_check(subspace_lattice(3, 2)).ok
    rep = atoms_join_check(chain(3))
    assert not rep.ok  # top of a 3-chain is not a join of atoms


def test_modular_iff_graded_with_modular_height():
    for lat in corpus():
        claim = is_modular_lattice(lat)
        if not lat.is_graded:
            assert not claim
            continue
        law = all(
            lat.hgt(a) + lat.hgt(b)
            == lat.hgt(int(lat.join[a, b])) + lat.hgt(int(lat.meet[a, b]))
            for a, b in lat.pairs()
        )
        assert claim == law


def modular_law_loop(lat):
    """The modular law x v (y ^ z) = (x v y) ^ z over all triples with
    x <= z, one gather of N^2 entries per y."""
    idx = np.arange(lat.size)
    for y in range(lat.size):
        lhs = lat.join[idx[:, None], lat.meet[y][None, :]]
        rhs = lat.meet[lat.join[:, y][:, None], idx[None, :]]
        if ((lhs != rhs) & lat.leq).any():
            return False
    return True


def distributive_law_loop(lat):
    """The distributive law x ^ (y v z) = (x ^ y) v (x ^ z) over all
    triples, one gather of N^2 entries per z."""
    idx = np.arange(lat.size)
    for z in range(lat.size):
        lhs = lat.meet[idx[:, None], lat.join[:, z][None, :]]
        rhs = lat.join[lat.meet, lat.meet[:, z][:, None]]
        if (lhs != rhs).any():
            return False
    return True


def partition_lattice(n):
    """Set partitions of {0..n-1} under refinement."""
    parts = [[]]
    for x in range(n):
        parts = [
            p[:i] + [p[i] + [x]] + p[i + 1:] for p in parts for i in range(len(p))
        ] + [p + [[x]] for p in parts]
    labels = [frozenset(map(frozenset, p)) for p in parts]
    return build_lattice(labels, leq_matrix(labels, lambda a, b: all(any(x <= y for y in b) for x in a)))


def five_element(kind):
    """N5 (the pentagon) or M3 (the diamond)."""
    if kind == "N5":
        order = {("a", "b")}
    else:
        order = set()
    return build_lattice(
        "0abc1", leq_matrix("0abc1", lambda x, y: x == y or x == "0" or y == "1" or (x, y) in order)
    )


def test_modular_check_matches_modular_law_loop():
    z4, z8 = parse_ring("Z_4"), parse_ring("Z_8")
    pi4 = partition_lattice(4)
    lattices_ = [
        five_element("N5"),
        five_element("M3"),
        pi4,
        partition_lattice(5),
        boolean_lattice(5),
        grid_lattice([2, 1, 3]),
        subspace_lattice(2, 4),
        subspace_lattice(3, 3),
        submodule_lattice(full_space(z4, 2)),
        submodule_lattice(full_space(z8, 2)),
        ideals(parse_ring("Z_4 x Z_9")),
        dual(pi4),
        product(five_element("N5"), boolean_lattice(2)),
        product(pi4, boolean_lattice(1)),
    ]
    verdicts = [is_modular_lattice(lat) for lat in lattices_]
    assert verdicts == [modular_law_loop(lat) for lat in lattices_]
    assert verdicts == [False, True, False, False] + [True] * 7 + [False] * 3
    assert pi4.is_graded and not verdicts[2]


def relatively_complemented_loop(lat):
    """Every interval [a, b] is complemented, each built as its own lattice."""
    return all(
        is_complemented_lattice(interval(lat, a, b))
        for a in range(lat.size)
        for b in range(lat.size)
        if lat.leq[a, b]
    )


def test_distributive_implies_modular_on_corpus():
    distributive = [lat for lat in corpus() if distributive_law_loop(lat)]
    assert len(distributive) == 7
    assert all(is_modular_lattice(lat) for lat in distributive)


def test_atoms_below_joins_in_distributive_lattices():
    for lat in corpus():
        if not distributive_law_loop(lat):
            continue
        for a in lat.atoms:
            for l1, l2 in lat.pairs():
                if lat.leq[a, lat.join[l1, l2]]:
                    assert lat.leq[a, l1] or lat.leq[a, l2]


def test_complemented_modular_implies_relatively_complemented():
    both = [lat for lat in corpus() if is_complemented_lattice(lat) and is_modular_lattice(lat)]
    assert len(both) == 6
    assert all(relatively_complemented_loop(lat) for lat in both)
    # a chain of three is modular but not complemented, nor relatively so
    assert not relatively_complemented_loop(chain(3))


def test_height_errors_when_not_graded():
    # a 5-element non-graded lattice: bottom, a < c, b, top with b covering bottom
    labels = ["0", "a", "b", "c", "1"]
    order = {
        ("0", "a"), ("0", "b"), ("0", "c"), ("0", "1"),
        ("a", "c"), ("a", "1"), ("b", "1"), ("c", "1"),
    }
    lat = build_lattice(labels, leq_matrix(labels, lambda x, y: x == y or (x, y) in order))
    assert not lat.is_graded
    with pytest.raises(NotGradedError):
        lat.hgt(0)


def test_labels_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        build_lattice([0, 0], np.ones((2, 2), dtype=bool))


def test_covers_and_atoms():
    b3 = boolean_lattice(3)
    assert len(b3.atoms) == 3
    strict_pairs = [(a, b) for a, b in b3.pairs() if b3.covers[a, b]]
    assert all(len(b3.labels[b]) == len(b3.labels[a]) + 1 for a, b in strict_pairs)


def test_transitivity_check_counts_exactly():
    # 0 <= c <= 1 for 256 midpoints c, but not 0 <= 1: a count of
    # midpoints kept mod 256 would read 0 and let the relation through.
    n = 258
    leq = np.eye(n, dtype=bool)
    leq[0, 2:] = True
    leq[2:, 1] = True
    with pytest.raises(ValueError, match="transitive"):
        build_lattice(range(n), leq)


def _least_bound(leq, a, b):
    """The least common upper bound of a and b by brute force, or None."""
    upper = np.flatnonzero(leq[a] & leq[b])
    least = [u for u in upper if leq[u, upper].all()]
    return least[0] if least else None


@st.composite
def random_posets(draw):
    """A transitively closed random order on at most 9 elements, under a
    random labelling, optionally with an added bottom and top."""
    n = draw(st.integers(1, 9))
    rel = np.array(
        draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), dtype=bool
    ).reshape(n, n)
    leq = np.triu(rel, 1) | np.eye(n, dtype=bool)
    for _ in range(n):
        leq |= (leq.astype(int) @ leq.astype(int)) > 0
    if draw(st.booleans()):
        leq = np.pad(leq, 1)
        leq[0, :] = True
        leq[:, -1] = True
        n += 2
    perm = np.array(draw(st.permutations(range(n))))
    return leq[np.ix_(perm, perm)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_posets())
def test_tables_match_brute_force_bounds(leq):
    n = leq.shape[0]
    joins = {(a, b): _least_bound(leq, a, b) for a in range(n) for b in range(n)}
    meets = {(a, b): _least_bound(leq.T, a, b) for a in range(n) for b in range(n)}
    is_lattice = None not in joins.values() and None not in meets.values()
    labels = [f"e{i}" for i in range(n)]
    if not is_lattice:
        with pytest.raises(NotALatticeError) as err:
            build_lattice(labels, leq)
        a, b = (labels.index(x) for x in err.value.pair)
        assert joins[a, b] is None or meets[a, b] is None
        return
    lat = build_lattice(labels, leq)
    for (a, b), j in joins.items():
        assert lat.join[a, b] == j
        assert lat.meet[a, b] == meets[a, b]


def test_shuffled_grid_bounds_are_coordinatewise():
    # labels shuffled so that index order is far from a linear extension
    labels = list(itertools.product(range(4), repeat=4))
    np.random.default_rng(3).shuffle(labels)
    coords = np.array(labels)
    leq = (coords[:, None, :] <= coords[None, :, :]).all(axis=2)
    lat = build_lattice(labels, leq)
    assert lat.size == 256
    assert (coords[lat.join] == np.maximum(coords[:, None], coords[None, :])).all()
    assert (coords[lat.meet] == np.minimum(coords[:, None], coords[None, :])).all()
    assert lat.labels[lat.bottom] == (0, 0, 0, 0)
    assert lat.labels[lat.top] == (3, 3, 3, 3)


def test_boolean_lattice_10_union_and_intersection():
    lat = boolean_lattice(10)
    assert lat.size == 1024
    masks = np.array([sum(1 << i for i in lab) for lab in lat.labels])
    assert (masks[lat.join] == masks[:, None] | masks[None, :]).all()
    assert (masks[lat.meet] == masks[:, None] & masks[None, :]).all()
    assert lat.height == tuple(len(lab) for lab in lat.labels)


def assert_tables_match_recurrence(lat):
    """Every table of ``lat`` equals what the recurrence derives from its order."""
    ref = build_lattice(lat.labels, lat.leq)
    for table in ("leq", "covers", "join", "meet"):
        assert np.array_equal(getattr(lat, table), getattr(ref, table)), table
    assert (lat.height, lat.bottom, lat.top, lat.atoms) == (ref.height, ref.bottom, ref.top, ref.atoms)


def grid_shapes(limit):
    """Ranges of 1 to 3, in every order, whose grid has at most ``limit``
    elements: the chain-support grids of codes over Z_4, Z_8, Z_9 and
    Z_2 x Z_3, among others."""
    yield ()
    for r in range(1, min(3, limit - 1) + 1):
        for rest in grid_shapes(limit // (r + 1)):
            yield (r, *rest)


@pytest.mark.parametrize("coordinates", range(9))
def test_grid_tables_match_recurrence(coordinates):
    long_ranges = [(255,), (1, 127), (15, 15)]
    shapes = [s for s in [*grid_shapes(256), *long_ranges] if len(s) == coordinates]
    for shape in shapes:
        lat = grid_lattice(shape)
        assert lat.labels == tuple(itertools.product(*(range(r + 1) for r in shape)))
        assert_tables_match_recurrence(lat)


def test_product_tables_match_recurrence():
    pi4, n5 = partition_lattice(4), five_element("N5")
    cases = [boolean_lattice(n) for n in range(9)] + [
        ideals(parse_ring(ring)) for ring in ("Z_8", "Z_2 x Z_3", "Z_4 x Z_9")
    ]
    cases += [
        product(*[ideals(parse_ring("Z_4"))] * 2),
        product(n5, boolean_lattice(2)),
        product(pi4, boolean_lattice(1)),
        product(chain(2), five_element("M3"), n5),
        product(),
    ]
    for lat in cases:
        assert_tables_match_recurrence(lat)
    assert cases[-2].labels == tuple(itertools.product(range(2), "0abc1", "0abc1"))
    assert cases[-1].labels == ((),)


def test_dual_and_interval_tables_match_recurrence():
    lats = {id(lt.lattice): lt.lattice for _, lt in latroid_corpus(0)}
    assert len(lats) > 10
    for lat in lats.values():
        assert_tables_match_recurrence(dual(lat))
        a = lat.atoms[0]
        for lo, hi in ((lat.bottom, lat.top), (a, lat.top), (lat.bottom, lat.size // 2),
                       (a, int(lat.join[a, lat.size // 2]))):
            assert_tables_match_recurrence(interval(lat, lo, hi))


def eager_values(lat):
    """Height, atoms and label index from the order matrix alone: covers
    are the strict pairs with nothing between them, and the lattice is
    graded when the shortest and the longest cover chain from the bottom
    to each element have the same length, its height."""
    strict = lat.leq & ~np.eye(lat.size, dtype=bool)
    covers = strict & ~(strict.astype(int) @ strict.astype(int) > 0)
    shortest, longest = {lat.bottom: 0}, {lat.bottom: 0}
    for x in np.argsort(lat.leq.sum(axis=0), kind="stable").tolist():
        below = np.flatnonzero(covers[:, x]).tolist()
        if below:
            shortest[x] = 1 + min(shortest[z] for z in below)
            longest[x] = 1 + max(longest[z] for z in below)
    graded = shortest == longest
    height = tuple(shortest[x] for x in range(lat.size)) if graded else None
    atoms = tuple(np.flatnonzero(covers[lat.bottom]).tolist())
    return height, atoms, {lab: lat.labels.index(lab) for lab in lat.labels}


def assert_lazy_values_are_eager(lat):
    assert (lat.height, lat.atoms, lat.index) == eager_values(lat)


def test_lazy_values_on_corpus_duals_and_intervals():
    lats = {id(lt.lattice): lt.lattice for _, lt in latroid_corpus(0)}
    for lat in lats.values():
        assert_lazy_values_are_eager(lat)
        assert_lazy_values_are_eager(dual(lat))
        for x in range(lat.size):
            assert_lazy_values_are_eager(interval(lat, lat.bottom, x))
            assert_lazy_values_are_eager(interval(lat, x, lat.top))


def test_lazy_values_on_builders():
    for lat in (boolean_lattice(4), grid_lattice([2, 1, 3]), subspace_lattice(2, 3)):
        assert_lazy_values_are_eager(lat)
        assert lat.is_graded


def test_lazy_values_on_a_graded_interval_of_a_non_graded_lattice():
    n5 = five_element("N5")
    assert_lazy_values_are_eager(n5)
    assert not n5.is_graded
    top = interval(n5, n5.index["a"], n5.top)
    assert_lazy_values_are_eager(top)
    assert top.labels == ("a", "b", "1") and top.height == (0, 1, 2)


def test_lazy_values_are_computed_on_first_read(monkeypatch):
    calls = []

    def counted(covers, bottom):
        calls.append(len(covers))
        return height_if_graded(covers, bottom)

    height_if_graded = lattices._height_if_graded
    monkeypatch.setattr(lattices, "_height_if_graded", counted)
    lat = boolean_lattice(3)
    sub = interval(dual(lat), lat.top, lat.bottom)
    assert calls == []
    assert sub.height == sub.height == tuple(3 - len(lab) for lab in sub.labels)
    assert calls == [8]
