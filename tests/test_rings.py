import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from test_lattices import ideals

from latroids import rings
from latroids.cli import main
from latroids.lattices import is_complemented_lattice
from latroids.rings import ChainRing, Pir, chain_ring, intlog, parse_ring
from latroids.supports import ChainSupport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_parse_ring_forms():
    assert parse_ring("Z_8").sizes == (8,)
    assert parse_ring("Z_{2^3}").sizes == (8,)
    assert parse_ring("Z_2^3").sizes == (8,)
    assert parse_ring("Z_{2^2} x Z_9").sizes == (4, 9)
    assert parse_ring("Z_2 x Z_3").sizes == (2, 6 // 2)


def test_parse_ring_rejects_non_prime_power():
    with pytest.raises(ValueError, match="product of chain rings"):
        parse_ring("Z_6")
    with pytest.raises(ValueError):
        parse_ring("Z_1")
    with pytest.raises(ValueError):
        parse_ring("Q_8")


def test_chain_ring_invariants():
    with pytest.raises(ValueError):
        ChainRing(6, 1)
    with pytest.raises(ValueError):
        ChainRing(2, 0)
    assert ChainRing(3, 2).size == 9
    assert ChainRing(3, 2).residue_field_size == 3


def test_valuation_z8():
    z8 = ChainRing(2, 3)
    assert z8.valuation(4) == 2
    assert z8.valuation(0) == 3
    assert z8.valuation(6) == 1
    assert z8.valuation(1) == 0


def test_units_z4():
    z4 = parse_ring("Z_4")
    assert z4.is_unit(z4.from_int(3))
    assert not z4.is_unit(z4.from_int(2))


def test_crt_zero_divisors_z6():
    z6 = parse_ring("Z_2 x Z_3")
    two, three = z6.from_int(2), z6.from_int(3)
    assert two == (0, 2) and three == (1, 0)
    assert z6.mul(two, three) == z6.zero


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1),
                                 (7, 1), (2, 4), (2, 5), (2, 6), (3, 3)])
def test_every_element_is_unit_times_alpha_power(p, k):
    # exhaustive for p^k <= 64
    ring = chain_ring(p, k)
    cr = ring.factors[0]
    units = [u for u in range(cr.size) if cr.is_unit(u)]
    for r in range(1, cr.size):
        t = cr.valuation(r)
        assert any((u * p**t) % cr.size == r for u in units)


def test_ideal_sizes_and_heights():
    # (p^e) holds the p^(k-e) elements of valuation >= e, which are those of
    # chain-support level <= k - e; p^e generates it
    ring = parse_ring("Z_8")
    cr = ring.factors[0]
    chain = ChainSupport(ring, 1)
    for e in range(cr.k + 1):
        members = [a for a in ring.elements() if ring.valuations(a)[0] >= e]
        assert len(members) == cr.p ** (cr.k - e)
        assert members == [a for a in ring.elements() if chain((a,))[0] <= cr.k - e]
        generator = ((cr.p**e % cr.size,),)
        assert chain.of_set([generator]) == chain.of_set([(a,) for a in members]) == (cr.k - e,)


@pytest.mark.parametrize(
    "spec", ["Z_2 x Z_3", "Z_{2^2} x Z_3", "Z_2 x Z_9 x Z_5"]
)
def test_crt_agrees_with_integer_arithmetic(spec):
    ring = parse_ring(spec)
    n = ring.size
    assert n <= 100
    for a, b in itertools.product(range(n), repeat=2):
        ea, eb = ring.from_int(a), ring.from_int(b)
        assert ring.to_int(ring.add(ea, eb)) == (a + b) % n
        assert ring.to_int(ring.mul(ea, eb)) == (a * b) % n
        assert ring.to_int(ring.neg(ea)) == (-a) % n
    assert sorted(ring.to_int(x) for x in ring.elements()) == list(range(n))


def test_to_int_needs_coprime_sizes():
    ring = parse_ring("Z_2 x Z_2")
    with pytest.raises(ValueError, match="coprime"):
        ring.to_int((1, 0))


def test_element_shape_checked():
    z4 = parse_ring("Z_4")
    with pytest.raises(ValueError):
        z4.add((1, 2), (1,))


def test_ideal_lattice_shapes():
    chain = ideals(parse_ring("Z_8"))
    assert chain.size == 4
    assert not is_complemented_lattice(chain)
    # containment chain: heights 0..3, (1) on top
    assert chain.is_graded and chain.hgt(chain.top) == 3
    assert chain.labels[chain.top] == ((0,),)

    grid = ideals(parse_ring("Z_2 x Z_3"))
    assert grid.size == 4
    assert grid.is_graded and grid.hgt(grid.top) == 2

    two = ideals(parse_ring("Z_2"))
    assert two.size == 2


def test_intlog():
    assert intlog(2, 8) == 3
    assert intlog(3, 1) == 0
    with pytest.raises(ValueError):
        intlog(2, 12)


@pytest.mark.parametrize("text, n", [("Z_4", 3), ("Z_9", 2), ("Z_2 x Z_3", 2), ("Z_2 x Z_2", 3)])
def test_digit_encoding_matches_vector_order(text, n):
    ring = parse_ring(text)
    digits = ring.space(n)
    vectors = list(ring.vectors(n))
    assert ring.decode(digits) == vectors
    assert (ring.encode(vectors, n) == digits).all()
    assert ring.index(digits, n).tolist() == list(range(len(vectors)))
    # Unreduced digits index like their reductions.
    assert (ring.index(digits + ring.mods(n), n) == ring.index(digits, n)).all()


def test_radix_rejects_spaces_beyond_int64():
    ring = parse_ring("Z_2")
    assert ring.radix(62)[0] == 2**61
    with pytest.raises(OverflowError):
        ring.radix(63)
    with pytest.raises(OverflowError):
        parse_ring("Z_3").radix(40)


# -- the kept tables of R^n ------------------------------------------------------

#: Z_2 x Z_4 has factor sizes that are not coprime.
TABLE_RINGS = ("Z_4", "Z_9", "Z_2", "Z_2 x Z_3", "Z_2 x Z_4")


def _fresh_tables(ring: Pir, n: int) -> dict:
    """Every kept table of (ring, n), computed from the definitions."""
    mods = [s for _ in range(n) for s in ring.sizes]
    radix = [math.prod(mods[i + 1 :]) for i in range(len(mods))]
    return {
        "mods": np.array(mods),
        "radix": np.array(radix),
        "space": ring.encode(ring.vectors(n), n),
        "scalars": ring.encode([(r,) * n for r in ring.elements()], n),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("text", TABLE_RINGS)
def test_kept_tables_equal_fresh_ones(text, n):
    # a second, equal ring reads the tables the first one kept
    for ring in (parse_ring(text), parse_ring(text)):
        for name, fresh in _fresh_tables(ring, n).items():
            kept = getattr(ring, name)(n)
            assert kept.dtype == np.int64 and np.array_equal(kept, fresh), name


@pytest.mark.parametrize("text", TABLE_RINGS)
def test_kept_tables_are_read_only(text):
    ring = parse_ring(text)
    for name in ("mods", "radix", "space", "scalars"):
        table = getattr(ring, name)(2)
        with pytest.raises(ValueError):
            table[0] = 1
        assert getattr(ring, name)(2) is table  # kept, not rebuilt


def test_space_keeps_at_most_its_stated_number_of_keys():
    for text, n in itertools.product(TABLE_RINGS, [1, 2, 3]):
        parse_ring(text).space(n)
        assert Pir.space.cache_info().currsize <= rings._SPACE_KEPT
    for method in (Pir.mods, Pir.radix, Pir.scalars):
        assert method.cache_info().maxsize == rings._TABLES_KEPT


def test_isometry_command_builds_each_space_once(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(rings, "_space", lambda ring, n, f=rings._space: (
        built.append((str(ring), n)) or f(ring, n)))
    Pir.space.cache_clear()
    code = main(["--command", "isometry", "--config", str(CONFIGS / "z6_isometry.cfg")])
    capsys.readouterr()
    assert code == 0
    # R^2 for the isometry check of the whole ring, and each factor's once
    assert built.count(("Z_2 x Z_3", 2)) == 1
    assert built.count(("Z_2", 2)) == built.count(("Z_3", 2)) == 1
