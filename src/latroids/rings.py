"""Finite chain rings Z_{p^k} and finite principal ideal rings given as
CRT products of chain rings.

Elements of a product ring are tuples of residues, one per factor, with
coordinate i reduced modulo p_i^{k_i}.  Vectors are tuples of elements.
All arithmetic is exact.  The ideal (p^e) of Z_{p^k} holds the elements of
valuation >= e, so the rectangular modules of R^n are the points of the
grid of chain levels k - e (``lattices.chain_support_lattice``).

The exhaustive scans of R^n use one array encoding instead: a vector is a
row of n * ell residue digits (moduli ``sizes`` tiled n times), and the
mixed-radix number of its digits is its position in the lexicographic
``vectors(n)``.  Sums, multiples and matrix actions are ``%`` arithmetic on
such arrays.  The tuple methods stay for the small sets that ``codes.span``
and code sums build, where converting to arrays would cost more than it saves.

The tables of that encoding depend only on (ring, n), so each is built on
its first use, never at import, and kept, read-only, for the key of an
equal ring: a caller that needs to write into one takes a copy.
``Pir.mods`` and ``Pir.radix`` (n * ell int64 each) and ``Pir.scalars``
(|R| rows of n * ell int64: 8 |R| n ell bytes) keep the last
``_TABLES_KEPT`` keys each.  ``Pir.space`` holds |R|^n rows, 8 |R|^n n ell
bytes, and as every digit's modulus is at least 2, n * ell <= log2 |R|^n:
at the ``SPAN_CAP`` of ``codes.full_space``, 2^20 rows, one key holds at
most 160 MiB.  So it keeps only the last ``_SPACE_KEPT`` keys, at most
320 MiB at that cap (the CLI's ``--cap`` can raise it for the validators
and the isometry check).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .limits import VECTOR_ENUM_CAP, check_cap

Element = tuple[int, ...]
Vector = tuple[Element, ...]

#: How many (ring, n) keys ``Pir.mods``, ``Pir.radix`` and ``Pir.scalars``
#: keep each, and how many ``Pir.space`` keeps.
_TABLES_KEPT = 32
_SPACE_KEPT = 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def intlog(base: int, n: int) -> int:
    """The exact integer t with base**t == n; raises if there is none."""
    if n < 1:
        raise ValueError(f"{n} is not a power of {base}")
    t = 0
    while n > 1:
        if n % base:
            raise ValueError(f"{n} is not a power of {base}")
        n //= base
        t += 1
    return t


@dataclass(frozen=True)
class ChainRing:
    """The chain ring Z_{p^k}: maximal ideal (p), residue field of size p."""

    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"k = {self.k} must be >= 1")

    @property
    def size(self) -> int:
        return self.p**self.k

    @property
    def residue_field_size(self) -> int:
        return self.p

    def valuation(self, r: int) -> int:
        """The unique t with r = unit * p^t; by convention valuation(0) = k."""
        r %= self.size
        if r == 0:
            return self.k
        t = 0
        while r % self.p == 0:
            r //= self.p
            t += 1
        return t

    def is_unit(self, r: int) -> bool:
        return r % self.p != 0

    def __str__(self):
        return f"Z_{self.size}" if self.k == 1 or self.p**self.k < 10 else f"Z_{{{self.p}^{self.k}}}"


@dataclass(frozen=True)
class Pir:
    """A finite principal ideal ring R_1 x ... x R_l of chain rings."""

    factors: tuple[ChainRing, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("a product ring needs at least one factor")

    # -- basic structure ---------------------------------------------------

    # kept on first read, outside the fields: the tuple arithmetic reads them
    @functools.cached_property
    def ell(self) -> int:
        return len(self.factors)

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    @functools.cached_property
    def size(self) -> int:
        return math.prod(self.sizes)

    @property
    def zero(self) -> Element:
        return (0,) * self.ell

    @property
    def one(self) -> Element:
        return (1,) * self.ell

    def check_element(self, a: Element) -> None:
        if len(a) != self.ell:
            raise ValueError(f"element {a} has {len(a)} coordinates, ring has {self.ell}")

    def elements(self):
        """All ring elements in lexicographic residue order."""
        return itertools.product(*(range(s) for s in self.sizes))

    def coprime_sizes(self) -> bool:
        return all(
            math.gcd(a, b) == 1 for a, b in itertools.combinations(self.sizes, 2)
        )

    def from_int(self, x: int) -> Element:
        """Reduce an integer mod every factor; a CRT bijection iff the
        factor sizes are pairwise coprime."""
        return tuple(x % s for s in self.sizes)

    def to_int(self, a: Element) -> int:
        """CRT reconstruction; requires pairwise coprime factor sizes."""
        if not self.coprime_sizes():
            raise ValueError("integer encoding needs pairwise coprime factor sizes")
        n = self.size
        x = 0
        for ai, s in zip(a, self.sizes):
            m = n // s
            x += ai * m * pow(m, -1, s)
        return x % n

    # -- element arithmetic ------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        return tuple((x + y) % s for x, y, s in zip(a, b, self.sizes))

    def neg(self, a: Element) -> Element:
        self.check_element(a)
        return tuple((-x) % s for x, s in zip(a, self.sizes))

    def mul(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        return tuple((x * y) % s for x, y, s in zip(a, b, self.sizes))

    def is_unit(self, a: Element) -> bool:
        self.check_element(a)
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def units(self):
        return (a for a in self.elements() if self.is_unit(a))

    def valuations(self, a: Element) -> tuple[int, ...]:
        self.check_element(a)
        return tuple(f.valuation(x) for f, x in zip(self.factors, a))

    def factor_ring(self, i: int) -> "Pir":
        return Pir((self.factors[i],))

    # -- vectors -----------------------------------------------------------

    def zero_vector(self, n: int) -> Vector:
        return (self.zero,) * n

    def basis_vector(self, n: int, i: int) -> Vector:
        return tuple(self.one if j == i else self.zero for j in range(n))

    def vadd(self, v: Vector, w: Vector) -> Vector:
        return tuple(self.add(a, b) for a, b in zip(v, w, strict=True))

    def vscale(self, r: Element, v: Vector) -> Vector:
        return tuple(self.mul(r, a) for a in v)

    def vector_from_ints(self, entries) -> Vector:
        return tuple(self.from_int(int(x)) for x in entries)

    def vectors(self, n: int):
        """All of R^n in lexicographic order; capped."""
        check_cap(self.size**n, VECTOR_ENUM_CAP, f"enumerating {self}^{n}")
        return itertools.product(self.elements(), repeat=n)

    # -- R^n as digit arrays ---------------------------------------------------

    @functools.lru_cache(maxsize=_TABLES_KEPT)
    def mods(self, n: int) -> np.ndarray:
        """The modulus of each digit of a vector in R^n; kept, read-only."""
        return _kept(np.tile(np.array(self.sizes, dtype=np.int64), n))

    @functools.lru_cache(maxsize=_TABLES_KEPT)
    def radix(self, n: int) -> np.ndarray:
        """The place value of each digit: ``digits @ radix`` is the index.
        Indices are int64, so R^n must have fewer than 2**63 vectors.
        Kept, read-only."""
        if self.size**n >= 2**63:
            raise OverflowError(f"indices of {self}^{n} do not fit in int64")
        mods = self.mods(n)
        return _kept(mods.prod() // np.cumprod(mods))

    def index(self, digits: np.ndarray, n: int) -> np.ndarray:
        """The indices of digit rows (last axis), reducing every digit first,
        so sums and products of digit arrays can be passed unreduced."""
        return digits % self.mods(n) @ self.radix(n)

    def encode(self, vectors, n: int) -> np.ndarray:
        """Vectors of R^n as rows of digits, shape (count, n * ell)."""
        rows = [[x for a in v for x in a] for v in vectors]
        return np.array(rows, dtype=np.int64).reshape(len(rows), n * self.ell)

    def decode(self, digits: np.ndarray) -> list[Vector]:
        """Rows of digits back to vectors (tuples of Python ints)."""
        return [tuple(zip(*[iter(row)] * self.ell)) for row in digits.tolist()]

    @functools.lru_cache(maxsize=_SPACE_KEPT)
    def space(self, n: int) -> np.ndarray:
        """All of R^n as digits; row i is the vector of index i.  Kept,
        read-only, for the last ``_SPACE_KEPT`` (ring, n) keys: it holds
        8 |R|^n n ell bytes, at most 160 MiB at 2^20 rows."""
        return _kept(_space(self, n))

    @functools.lru_cache(maxsize=_TABLES_KEPT)
    def scalars(self, n: int) -> np.ndarray:
        """Row i is the scalar of index i (``elements`` order) on every
        coordinate of R^n, so ``digits * scalars(n)[i]`` multiplies digit
        rows by it: |R| rows of n * ell digits.  Kept, read-only."""
        return _kept(np.tile(_space(self, 1), n))

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


def _kept(table: np.ndarray) -> np.ndarray:
    """A table about to be kept, made read-only in place."""
    table.flags.writeable = False
    return table


def _space(ring: Pir, n: int) -> np.ndarray:
    """R^n as digits, built afresh: the index of each row in mixed radix."""
    return np.arange(ring.size**n)[:, None] // ring.radix(n) % ring.mods(n)


def chain_ring(p: int, k: int) -> Pir:
    return Pir((ChainRing(p, k),))


_FACTOR_RE = re.compile(r"^Z_?\{?(\d+)(?:\^(\d+))?\}?$")


def parse_ring(text: str) -> Pir:
    """Parse 'Z_{p^k}' or a product 'Z_{p1^k1} x Z_{p2^k2} x ...'.

    Single factors may be written as Z_N for a prime power N (Z_8 means
    Z_{2^3}).  Products must be given in factored form; Z_6 is rejected
    because no factorization is attempted.
    """
    factors = []
    for part in text.split("x"):
        part = part.strip()
        m = _FACTOR_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse ring factor {part!r}")
        base = int(m.group(1))
        if m.group(2) is not None:
            p, k = base, int(m.group(2))
        else:
            if base < 2:
                raise ValueError(f"ring factor {part!r} must have size >= 2")
            p = next(d for d in range(2, base + 1) if base % d == 0)
            try:
                k = intlog(p, base)
            except ValueError:
                raise ValueError(
                    f"{part!r} is not a prime power; write the ring as a "
                    "product of chain rings, e.g. 'Z_2 x Z_3'"
                ) from None
        factors.append(ChainRing(p, k))
    return Pir(tuple(factors))
