import itertools
import random

import pytest

from latroids import supports
from latroids.codes import Code, enumerate_submodules, full_space, span_from_ints
from latroids.errors import CapExceededError
from latroids.report import Check, Report
from latroids.rings import parse_ring
from latroids.supports import (
    ChainSupport,
    HammingSupport,
    ProductSupport,
    TableSupport,
    modular_function_on_rectangulars,
    split_support,
    support_from_unit_table,
    tau_support,
    validate_modular,
    validate_support,
)

Z4 = parse_ring("Z_4")
Z8 = parse_ring("Z_8")
Z9 = parse_ring("Z_9")
Z6 = parse_ring("Z_2 x Z_3")
F2 = parse_ring("Z_2")
F3 = parse_ring("Z_3")

LEE_TABLE = {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (1,)}


def sleq(a, b):
    """a <= b in the product order on tuples."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def z6_paper_support(n):
    # per coordinate: (Hamming on the Z_3 part, Hamming on the Z_2 part)
    return support_from_unit_table(
        Z6, n,
        {(0, 0): (0, 0), (1, 1): (1, 1), (0, 2): (1, 0), (1, 0): (0, 1),
         (0, 1): (1, 0), (1, 2): (1, 1)},
    )


def test_chain_support_values_z4():
    s = ChainSupport(Z4, 1)
    values = {a[0]: s((a,))[0] for a in Z4.elements()}
    assert values == {0: 0, 1: 2, 2: 1, 3: 2}


def test_supports_vanish_only_at_zero():
    for s in (ChainSupport(Z8, 1), HammingSupport(Z6, 2), ChainSupport(Z6, 2)):
        zero = s.ring.zero_vector(s.n)
        assert s(zero) == (0,) * s.u
        assert validate_support(s).ok


def test_z6_paper_support_values():
    s = z6_paper_support(1)
    assert s((Z6.from_int(1),)) == (1, 1)
    assert s((Z6.from_int(2),)) == (1, 0)
    assert s((Z6.from_int(3),)) == (0, 1)


def test_weights():
    s = ChainSupport(Z4, 2)
    assert s.weight(Z4.vector_from_ints([1, 2])) == 3
    assert s.weight(Z4.zero_vector(2)) == 0
    h = HammingSupport(F2, 3)
    assert h.weight(F2.vector_from_ints([1, 1, 0])) == 2


def test_min_max_weight():
    s = ChainSupport(Z4, 2)
    c = span_from_ints(Z4, 2, [[1, 2]])
    assert s.min_max_weight(c) == (1, 3)
    with pytest.raises(ValueError):
        s.min_max_weight(span_from_ints(Z4, 2, []))


def test_code_weight_is_set_support_norm():
    s = ChainSupport(Z4, 2)
    c = span_from_ints(Z4, 2, [[1, 2]])
    assert s.of_set(c.codewords) == (2, 1)
    assert s.code_weight(c) == 3


def test_lee_is_rejected_at_axiom2_with_witness():
    # building only builds; the validator is what rejects the Lee weight
    lee = support_from_unit_table(Z4, 1, LEE_TABLE)
    assert [lee((a,)) for a in Z4.elements()] == list(LEE_TABLE.values())
    rep = validate_support(lee)
    assert not rep.ok
    bad = rep.first_failure()
    assert bad.name == "axiom2_scalar_monotone"
    assert bad.detail == "r=(2,), v=((1,),)"


@pytest.mark.parametrize("ring", [Z4, Z8, Z9])
def test_chain_supports_modular(ring):
    s = ChainSupport(ring, 1)
    assert validate_support(s).ok
    assert validate_modular(s).ok


def test_chain_support_modular_two_coordinates():
    assert validate_modular(ChainSupport(Z4, 2)).ok


def test_tau_is_support_but_not_modular():
    for ring in (F2, F3):
        t = tau_support(ring, 2)
        assert validate_support(t).ok
        assert not validate_modular(t).ok


def test_hamming_modular_over_fields_not_over_z6():
    assert validate_modular(HammingSupport(F3, 2)).ok
    assert not validate_modular(HammingSupport(Z6, 1)).ok


def test_split_z6_paper_support():
    parts, perm = split_support(z6_paper_support(2))
    assert sorted(perm) == [0, 1, 2, 3]
    assert parts[0].same_values(HammingSupport(Z6.factor_ring(0), 2))
    assert parts[1].same_values(HammingSupport(Z6.factor_ring(1), 2))


def test_split_chain_support_on_product():
    parts, perm = split_support(ChainSupport(Z6, 2))
    assert parts[0].same_values(ChainSupport(Z6.factor_ring(0), 2))
    assert parts[1].same_values(ChainSupport(Z6.factor_ring(1), 2))
    # recombination through the permutation reproduces the support
    s = ChainSupport(Z6, 2)
    for v in Z6.vectors(2):
        combined = []
        for i, part in enumerate(parts):
            combined.extend(part(tuple((a[i],) for a in v)))
        assert tuple(s(v)[j] for j in perm) == tuple(combined)


def test_split_single_factor_is_identity():
    parts, perm = split_support(ChainSupport(Z4, 1))
    assert len(parts) == 1 and perm == (0,)
    assert parts[0].same_values(ChainSupport(Z4, 1))


def test_split_reports_the_first_vector_that_does_not_split():
    # modular, but (1, 1) weighs 2 in the second coordinate while both of
    # its factor projections weigh at most 1
    z2z2 = parse_ring("Z_2 x Z_2")
    table = {((0, 0),): (0, 0), ((0, 1),): (0, 1), ((1, 0),): (1, 0), ((1, 1),): (1, 2)}
    s = TableSupport(z2z2, 1, table)
    assert validate_modular(s).ok
    with pytest.raises(ValueError, match=r"does not split at v=\(\(1, 1\),\)"):
        split_support(s)


@pytest.mark.parametrize("support", [
    z6_paper_support(1), z6_paper_support(2), ChainSupport(Z6, 2), ChainSupport(Z4, 1),
], ids=["z6 paper n=1", "z6 paper n=2", "chain Z6^2", "chain Z4^1"])
def test_split_parts_are_modular(support):
    # The split does not re-check its parts: each is s on R_i^n embedded,
    # where s's own reductions already lie.
    parts, _ = split_support(support)
    assert all(validate_modular(part).ok for part in parts)


def test_split_requires_modular():
    with pytest.raises(ValueError, match="modular"):
        split_support(HammingSupport(Z6, 1))


def test_split_checks_the_cap_before_enumerating():
    # a Hamming support is split by its values on all of R^n
    with pytest.raises(CapExceededError, match=r"enumerating Z_2 x Z_3\^7"):
        split_support(HammingSupport(Z6, 7))


def test_chain_support_splits_without_enumerating():
    parts, perm = split_support(ChainSupport(Z6, 7))  # 6^7 vectors, past the cap
    assert [(type(p), p.ring, p.n) for p in parts] == [(ChainSupport, F2, 7), (ChainSupport, F3, 7)]
    assert perm == (*range(0, 14, 2), *range(1, 14, 2))


@pytest.mark.parametrize("text, n", [
    ("Z_2 x Z_3", 1), ("Z_2 x Z_3", 2), ("Z_2 x Z_4", 2), ("Z_2 x Z_4 x Z_3", 1),
])
def test_chain_support_splits_like_its_table(text, n):
    ring = parse_ring(text)
    chain = ChainSupport(ring, n)
    table = TableSupport(ring, n, {v: chain(v) for v in ring.vectors(n)})
    (parts, perm), (table_parts, table_perm) = split_support(chain), split_support(table)
    assert perm == table_perm
    for part, table_part in zip(parts, table_parts, strict=True):
        assert isinstance(part, ChainSupport) and part.same_values(table_part)


@pytest.mark.parametrize("text", ["Z_4", "Z_9", "Z_2", "Z_2 x Z_3", "Z_2 x Z_4"])
def test_kept_support_tables_equal_fresh_ones(text):
    ring = parse_ring(text)
    for f in ring.factors:
        levels = supports._levels(f)
        assert levels.tolist() == [f.k - f.valuation(r) for r in range(f.size)]
        with pytest.raises(ValueError):
            levels[0] = 1
    assert supports._levels.cache_info().maxsize == supports._LEVELS_KEPT
    for n in range(1, 5):
        vectors = list(ring.vectors(n))
        fresh = {
            ChainSupport: [[f.k - f.valuation(x) for a in v for f, x in zip(ring.factors, a)]
                           for v in vectors],
            HammingSupport: [[int(any(a)) for a in v] for v in vectors],
        }
        for cls, want in fresh.items():
            s = cls(ring, n)
            values = s.values()
            assert values.tolist() == want
            assert s.values() is values  # computed once per support
            with pytest.raises(ValueError):
                values[0, 0] = 1


MODULARITY_FIXTURES = {
    "chain Z4^1": ChainSupport(Z4, 1),
    "chain Z8^1": ChainSupport(Z8, 1),
    "chain Z9^1": ChainSupport(Z9, 1),
    "chain Z4^2": ChainSupport(Z4, 2),
    "chain Z6^2": ChainSupport(Z6, 2),
    "hamming F3^2": HammingSupport(F3, 2),
    "hamming Z4^2": HammingSupport(Z4, 2),
    "hamming Z6^1": HammingSupport(Z6, 1),
    "tau F2^2": tau_support(F2, 2),
    "tau F3^2": tau_support(F3, 2),
    "z6 paper n=1": z6_paper_support(1),
    "z6 paper n=2": z6_paper_support(2),
    "lee Z4^1": support_from_unit_table(Z4, 1, LEE_TABLE),
    "product Z4^2": ProductSupport(Z4, [ChainSupport(Z4, 1), HammingSupport(Z4, 1)]),
    "non-splitting Z2xZ2": TableSupport(parse_ring("Z_2 x Z_2"), 1, {
        ((0, 0),): (0, 0), ((0, 1),): (0, 1), ((1, 0),): (1, 0), ((1, 1),): (1, 2),
    }),
}


@pytest.mark.parametrize("name", sorted(MODULARITY_FIXTURES))
def test_is_modular_agrees_with_validate_modular(name):
    s = MODULARITY_FIXTURES[name]
    assert s.is_modular == validate_modular(s).ok


def test_is_modular_scans_once(monkeypatch):
    calls = []

    def counted(s, cap=None):
        calls.append(s)
        return validate_modular(s)

    monkeypatch.setattr(supports, "validate_modular", counted)
    s = z6_paper_support(1).parts[0]
    assert isinstance(s, TableSupport)
    verdicts = [s.is_modular, s.is_modular]
    assert calls == [s]
    assert verdicts == [validate_modular(s).ok] * 2


def test_chain_support_is_modular_without_a_scan(monkeypatch):
    def no_scan(s, cap=None):
        raise AssertionError("scanned")

    monkeypatch.setattr(supports, "validate_modular", no_scan)
    assert ChainSupport(parse_ring("Z_2 x Z_9"), 5).is_modular
    with pytest.raises(AssertionError, match="scanned"):
        HammingSupport(F3, 1).is_modular


def test_standard_detection():
    assert ChainSupport(Z4, 2).is_standard
    assert not tau_support(F2, 2).is_standard
    parts, _ = split_support(z6_paper_support(1))
    assert all(p.is_standard for p in parts)


def support_laws(s, modules):
    """Whether supp(M1 + M2) = supp(M1) v supp(M2), and whether
    supp(M1 cap M2) = supp(M1) ^ supp(M2), over all pairs of the modules."""
    ring, sums, meets = s.ring, True, True
    supp = {m.codewords: s.of_set(m.codewords) for m in modules}
    for a, b in itertools.product(supp, repeat=2):
        total = frozenset(ring.vadd(x, y) for x in a for y in b)
        sums = sums and s.of_set(total) == tuple(map(max, supp[a], supp[b]))
        meets = meets and s.of_set(a & b) == tuple(map(min, supp[a], supp[b]))
    return sums, meets


@pytest.mark.parametrize("ring,n", [(Z4, 2), (Z8, 1), (Z9, 2)])
def test_support_lattice_laws(ring, n):
    # join/meet of supports match sum/intersection on rectangular modules;
    # the join half holds for arbitrary submodules, the meet half does not
    # (0 x (2) against <(2,2)> in Z_4^2 breaks it), because only rectangular
    # modules contain axis vectors attaining their coordinatewise suprema
    s = ChainSupport(ring, n)
    space = list(ring.vectors(n))
    rect_codes = [  # M_g: the vectors whose chain-support levels lie below g
        Code(ring, n, (), frozenset(v for v in space if sleq(s(v), g)))
        for g in itertools.product(*(range(k + 1) for k in s.ambient_support()))
    ]
    assert support_laws(s, rect_codes) == (True, True)

    sum_is_join, intersection_is_meet = support_laws(s, enumerate_submodules(full_space(ring, n)))
    assert sum_is_join
    if (ring, n) == (Z4, 2):
        assert not intersection_is_meet


def test_modular_function_on_rectangulars_positive():
    for s in (ChainSupport(Z4, 2), ChainSupport(Z6, 1), z6_paper_support(1)):
        assert modular_function_on_rectangulars(s).ok


def test_z6_hamming_modular_function_negative_control():
    rep = modular_function_on_rectangulars(HammingSupport(Z6, 1))
    assert not rep.ok
    bad = rep.first_failure()
    assert bad.name == "modular_function"
    assert "1+1" in bad.detail  # supp(M1)+supp(M2) = 2 against 1


def test_table_support_must_cover_domain():
    with pytest.raises(ValueError, match="cover"):
        TableSupport(Z4, 1, {(Z4.from_int(0),): (0,)})


def test_table_support_needs_reduced_entries():
    # (4,) is 0 of Z_4, so this table covers R^1 only modulo 4
    with pytest.raises(ValueError, match="reduced"):
        TableSupport(Z4, 1, {((4,),): (0,), ((1,),): (1,), ((2,),): (1,), ((3,),): (1,)})


def test_product_support_needs_single_coordinate_parts():
    with pytest.raises(ValueError):
        ProductSupport(Z4, [ChainSupport(Z4, 2)])


# -- the validators against plain reference loops ---------------------------------
#
# The loops below scan R^n in lexicographic order exactly as the validators
# promise (r then v for axiom 2, v then w for axiom 3, v then w then i for
# axiom 4), so every report, first witness included, must agree.


def _vmax(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_support_report(s) -> dict:
    ring, n = s.ring, s.n
    vectors = list(ring.vectors(n))
    supp = {v: s(v) for v in vectors}

    def zero_iff_zero():
        for v in vectors:
            sv = supp[v]
            if any(x < 0 for x in sv):
                yield f"supp({v}) has a negative coordinate"
            elif (sv == (0,) * s.u) != (v == ring.zero_vector(n)):
                yield f"supp({v}) = {sv}"

    def growing_multiples():
        for r in ring.elements():
            for v in vectors:
                if not sleq(supp[ring.vscale(r, v)], supp[v]):
                    yield f"r={r}, v={v}"

    def growing_sums():
        for v in vectors:
            for w in vectors:
                if not sleq(supp[ring.vadd(v, w)], _vmax(supp[v], supp[w])):
                    yield f"v={v}, w={w}"

    return Report.from_checks([
        Check.from_witnesses("axiom1_zero_iff_zero", zero_iff_zero()),
        Check.from_witnesses("axiom2_scalar_monotone", growing_multiples()),
        Check.from_witnesses("axiom3_subadditive", growing_sums()),
    ]).to_dict()


def reference_modular_report(s) -> dict:
    ring = s.ring
    vectors = list(ring.vectors(s.n))
    scalars = list(ring.elements())
    supp = {v: s(v) for v in vectors}

    def unreduced():
        for v in vectors:
            sv = supp[v]
            for w in vectors:
                sw = supp[w]
                for i in range(s.u):
                    if 0 < sv[i] <= sw[i] and not any(
                        supp[ring.vadd(v, ring.vscale(r, w))][i] < sv[i] for r in scalars
                    ):
                        yield f"v={v}, w={w}, i={i}"

    return Report.from_checks([Check.from_witnesses("axiom4_modular", unreduced())]).to_dict()


REFERENCE_SPACES = [
    (name, n)
    for name in ("Z_2", "Z_3", "Z_4", "Z_5", "Z_7", "Z_8", "Z_9", "Z_2 x Z_3", "Z_2 x Z_2")
    for n in range(1, 7)
    if parse_ring(name).size ** n <= 64
]


def perturbed_dicts(ring, n, count):
    """Chain and Hamming tables, as dicts, with one to three entries moved by
    one (a coordinate may turn negative) or a nonzero vector sent to zero;
    seeded by the space, so the same tables are drawn on every run."""
    rng = random.Random(f"{ring}^{n}")
    vectors = list(ring.vectors(n))
    out = []
    for t in range(count):
        base = ChainSupport(ring, n) if t % 2 else HammingSupport(ring, n)
        table = {v: base(v) for v in vectors}
        for _ in range(rng.randint(1, 3)):
            v = rng.choice(vectors)
            if rng.random() < 0.2 and v != ring.zero_vector(n):
                table[v] = (0,) * base.u
            else:
                j = rng.randrange(base.u)
                sv = list(table[v])
                sv[j] += rng.choice((-1, 1))
                table[v] = tuple(sv)
        out.append(table)
    return out


def reference_fixtures(name, n):
    ring = parse_ring(name)
    out = [
        ChainSupport(ring, n),
        HammingSupport(ring, n),
        ProductSupport(ring, [
            ChainSupport(ring, 1) if i % 2 else HammingSupport(ring, 1) for i in range(n)
        ]),
        tau_support(ring, n),
    ]
    if name == "Z_4":
        out.append(support_from_unit_table(ring, n, LEE_TABLE))
    tables = perturbed_dicts(ring, n, 6 if ring.size**n <= 16 else 3)
    return out + [TableSupport(ring, n, table) for table in tables]


@pytest.mark.parametrize("name, n", REFERENCE_SPACES, ids=[f"{a}^{n}" for a, n in REFERENCE_SPACES])
def test_validators_match_reference_loops(name, n):
    for s in reference_fixtures(name, n):
        assert validate_support(s).to_dict() == reference_support_report(s)
        assert validate_modular(s).to_dict() == reference_modular_report(s)


def test_reference_fixtures_fail_every_axiom():
    outcomes = {}
    for name, n in REFERENCE_SPACES:
        for s in reference_fixtures(name, n):
            for check in validate_support(s).checks + validate_modular(s).checks:
                outcomes.setdefault(check.name, set()).add(check.ok)
                if "negative" in check.detail:
                    outcomes.setdefault("negative coordinate", set()).add(False)
    assert outcomes == {
        "axiom1_zero_iff_zero": {True, False},
        "axiom2_scalar_monotone": {True, False},
        "axiom3_subadditive": {True, False},
        "axiom4_modular": {True, False},
        "negative coordinate": {False},
    }


# -- batch evaluation against the per-vector definitions --------------------------


def reference_chain_support(ring, v):
    """k minus the valuation, per coordinate and CRT factor (coordinate-major)."""
    ks = [f.k for f in ring.factors]
    out = []
    for a in v:
        out.extend(k - t for k, t in zip(ks, ring.valuations(a)))
    return tuple(out)


def reference_hamming_support(ring, v):
    return tuple(0 if a == ring.zero else 1 for a in v)


BATCH_RINGS = ("Z_4", "Z_8", "Z_9", "Z_2", "Z_3", "Z_2 x Z_3", "Z_2 x Z_2", "Z_4 x Z_2")


def reference_product_support(ring, v):
    """Chain on odd coordinates and Hamming on even ones, concatenated."""
    out = []
    for i, a in enumerate(v):
        reference = reference_chain_support if i % 2 else reference_hamming_support
        out.extend(reference(ring, (a,)))
    return tuple(out)


@pytest.mark.parametrize("name", BATCH_RINGS)
def test_of_digits_matches_per_vector_references(name):
    ring = parse_ring(name)
    for n in (1, 2, 3):
        vectors = list(ring.vectors(n))
        product = ProductSupport(ring, [
            ChainSupport(ring, 1) if i % 2 else HammingSupport(ring, 1) for i in range(n)
        ])
        cases = [
            (ChainSupport(ring, n), [reference_chain_support(ring, v) for v in vectors]),
            (HammingSupport(ring, n), [reference_hamming_support(ring, v) for v in vectors]),
            (product, [reference_product_support(ring, v) for v in vectors]),
        ]
        # a table's reference is the dict it was built from; the perturbed
        # table is not a support, which evaluation does not look at
        perturbed = perturbed_dicts(ring, n, 2)[1]
        assert not validate_support(TableSupport(ring, n, perturbed)).ok
        for table in ({v: reference_chain_support(ring, v) for v in vectors}, perturbed):
            cases.append((TableSupport(ring, n, table), [table[v] for v in vectors]))
        for s, expected in cases:
            assert list(map(tuple, s.of_digits(ring.space(n)).tolist())) == expected
            assert list(map(tuple, s.values().tolist())) == expected
            assert [s(v) for v in vectors] == expected


def test_of_set_of_nothing_is_zero():
    assert ChainSupport(Z4, 2).of_set([]) == (0, 0)
    assert ChainSupport(Z6, 2).of_set(iter(())) == (0, 0, 0, 0)
