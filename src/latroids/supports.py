"""Support functions R^n -> Z^u, their axioms, weights, and CRT splitting.

A support assigns a nonnegative integer vector to each ring vector so that
supp(v) = 0 iff v = 0, supp(rv) <= supp(v), and supp(v+w) <= supp(v) v supp(w).
A support is modular when any positive coordinate supp(v)_i <= supp(w)_i can
be strictly decreased by adding a suitable multiple of w.  (The positivity
guard is forced: at supp(v)_i = 0 no support could decrease further, the
Hamming support included.)

``of_digits`` is the one evaluation, and every support defines it on
arrays: it maps rows of the digit encoding of R^n from ``rings`` to an int64
array of support rows.  ``ChainSupport`` computes it with one lookup per CRT
factor, ``HammingSupport`` with one nonzero test per coordinate,
``ProductSupport`` stacks its parts' arrays block by block of digit columns,
and ``TableSupport`` reads its stored value array through ``Pir.index``.
``__call__`` (one vector), ``values``, ``of_set`` and every consumer that
loops over vectors or a code's words (validators, CRT splitting, the
chain-support and block latroids, the enumerators) read that array.

Constructors only build.  Whether a support meets the axioms is for
``validate_support`` and ``validate_modular`` to report, and they keep
nothing on the support.  Guards ask ``is_standard`` and ``is_modular``; a
``ChainSupport`` is both by construction.  Other supports detect
``is_standard`` on each read, and scan for ``is_modular`` once: the
verdict is kept on the support (a support is not changed once built).
``values()``, the support of every vector of R^n, is computed once per
support, on its first call, and kept on it, read-only: 8 |R|^n u bytes for
as long as the support lives.  ``ChainSupport`` reads one level table per
CRT factor Z_{p^k}, built once per factor and kept, read-only, for the last
``_LEVELS_KEPT`` factors (8 p^k bytes each), as every command makes new
chain supports.
``rectangular_supports`` gives supp(M_g) for every rectangular module
M_g = {v : ChainSupport(v) <= g} of R^n, a point of the grid
``lattices.chain_support_lattice``.

The validators work on the same encoding: row i of every array is the
vector of index i, sums and multiples are array arithmetic plus
``Pir.index``, and scans visit rows in lexicographic order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .codes import Code
from .core import scan_rows
from .lattices import _dominated, chain_support_lattice
from .limits import VECTOR_ENUM_CAP, check_cap
from .report import Check, Report
from .rings import ChainRing, Pir, Vector

SupportVec = tuple[int, ...]

#: How many chain-ring factors' level tables ``ChainSupport`` keeps.
_LEVELS_KEPT = 16


class Support:
    """Base class; subclasses fix ring, ambient length n, codomain dim u."""

    kind = "abstract"

    def __init__(self, ring: Pir, n: int, u: int):
        self.ring = ring
        self.n = n
        self.u = u

    def __call__(self, v: Vector) -> SupportVec:
        if len(v) != self.n:
            raise ValueError(f"vector {v} does not have length {self.n}")
        return tuple(self.of_digits(self.ring.encode([v], self.n))[0].tolist())

    @property
    def is_standard(self) -> bool:
        return False

    @functools.cached_property
    def is_modular(self) -> bool:
        """Scanned once: ``validate_modular`` on R^n (capped)."""
        return validate_modular(self).ok

    def of_digits(self, digits: np.ndarray) -> np.ndarray:
        """supp(v) for each row of a (rows, n * ell) digit array, as an
        int64 (rows, u) array."""
        raise NotImplementedError

    def values(self) -> np.ndarray:
        """supp(v) for every v in R^n, row i for the vector of index i:
        computed on the first call and kept, read-only.  Enumerates R^n;
        callers check the cap."""
        return self._values

    @functools.cached_property
    def _values(self) -> np.ndarray:
        values = self.of_digits(self.ring.space(self.n))
        values.flags.writeable = False
        return values

    def of_set(self, vectors) -> SupportVec:
        """Coordinatewise maximum over a set of vectors, or over the words
        of a code (its digits), zero when empty."""
        digits = vectors.digits if isinstance(vectors, Code) else self.ring.encode(vectors, self.n)
        return tuple(self.of_digits(digits).max(axis=0, initial=0).tolist())

    def weight(self, v: Vector) -> int:
        return sum(self(v))

    def code_weight(self, code: Code) -> int:
        return sum(self.of_set(code))

    def min_max_weight(self, code: Code) -> tuple[int, int]:
        weights = self.of_digits(code.digits).sum(axis=1)
        nonzero = weights[weights > 0]
        if not nonzero.size:
            raise ValueError("minimum weight of the zero code is undefined")
        return int(nonzero.min()), int(weights.max())

    def ambient_support(self) -> SupportVec:
        """supp(R^n), the top support vector."""
        raise NotImplementedError

    def ambient_weight(self) -> int:
        return sum(self.ambient_support())

    def same_values(self, other: "Support") -> bool:
        """Pointwise equality on the full (capped) domain."""
        if (self.ring, self.n, self.u) != (other.ring, other.n, other.u):
            return False
        check_cap(self.ring.size**self.n, VECTOR_ENUM_CAP, f"enumerating {self.ring}^{self.n}")
        return np.array_equal(self.values(), other.values())


class HammingSupport(Support):
    """Indicator of nonzero coordinates; u = n."""

    kind = "hamming"

    def __init__(self, ring: Pir, n: int):
        super().__init__(ring, n, n)

    def of_digits(self, digits: np.ndarray) -> np.ndarray:
        nonzero = digits.reshape(len(digits), self.n, self.ring.ell).any(axis=2)
        return nonzero.astype(np.int64)

    @property
    def is_standard(self) -> bool:
        return True

    def ambient_support(self) -> SupportVec:
        return (1,) * self.n


class ChainSupport(Support):
    """Per coordinate and per chain-ring factor, the smallest i with
    r in (alpha^(k-i)); equals k minus the valuation for r != 0.

    Coordinates of the codomain are laid out coordinate-major: the block
    for ambient coordinate i lists the ring factors in order, so u = n*l.
    """

    kind = "chain"

    def __init__(self, ring: Pir, n: int):
        super().__init__(ring, n, n * ring.ell)

    def of_digits(self, digits: np.ndarray) -> np.ndarray:
        """One lookup per CRT factor j on the digit columns j::ell: the
        digit layout is already the coordinate-major layout of the support."""
        ell = self.ring.ell
        out = np.empty_like(digits)
        for j, f in enumerate(self.ring.factors):
            out[:, j::ell] = _levels(f)[digits[:, j::ell]]
        return out

    @property
    def is_standard(self) -> bool:
        return True

    @property
    def is_modular(self) -> bool:
        """By construction: where w's valuation is at most v's, a multiple of w cancels v."""
        return True

    def ambient_support(self) -> SupportVec:
        return tuple(f.k for _ in range(self.n) for f in self.ring.factors)


@functools.lru_cache(maxsize=_LEVELS_KEPT)
def _levels(f: ChainRing) -> np.ndarray:
    """k - valuation(r) for each residue r of Z_{p^k}, 0 at r = 0: the
    number of e in 1..k with p^e not dividing r.  Kept, read-only."""
    residues = np.arange(f.size)
    levels = sum((residues % f.p**e != 0).astype(np.int64) for e in range(1, f.k + 1))
    levels.flags.writeable = False
    return levels


class ProductSupport(Support):
    """A standard support built from per-coordinate supports on R^1."""

    kind = "product"

    def __init__(self, ring: Pir, parts):
        parts = tuple(parts)
        for part in parts:
            if part.ring != ring or part.n != 1:
                raise ValueError("product parts must be supports on R^1 of the same ring")
        super().__init__(ring, len(parts), sum(p.u for p in parts))
        self.parts = parts

    def of_digits(self, digits: np.ndarray) -> np.ndarray:
        """Part i on the ell digit columns of coordinate i, side by side."""
        ell = self.ring.ell
        blocks = [digits[:, i * ell : (i + 1) * ell] for i in range(self.n)]
        return np.hstack([p.of_digits(b) for p, b in zip(self.parts, blocks)])

    @property
    def is_standard(self) -> bool:
        return True

    def ambient_support(self) -> SupportVec:
        out = []
        for part in self.parts:
            out.extend(part.ambient_support())
        return tuple(out)


class TableSupport(Support):
    """A support given by a full table R^n -> Z^u.

    The table is held as an int64 array, row i for the vector of index i,
    which ``of_digits`` reads through ``Pir.index``.  Building one checks
    only that the table lists every vector of R^n once, with values of one
    length; whether it is a support is for ``validate_support`` to report.
    """

    kind = "table"

    def __init__(self, ring: Pir, n: int, table: dict):
        if len(table) != ring.size**n:
            raise ValueError("support table must cover exactly R^n")
        # as many distinct keys as R^n has vectors, all reduced, are all of R^n
        digits = ring.encode(table, n)
        if not ((digits >= 0) & (digits < ring.mods(n))).all():
            raise ValueError("support table entries must be reduced residues")
        us = {len(v) for v in table.values()}
        if len(us) != 1:
            raise ValueError("support table values must share one length")
        super().__init__(ring, n, us.pop())
        self.table = np.empty((len(table), self.u), dtype=np.int64)
        try:
            self.table[ring.index(digits, n)] = list(table.values())
        except OverflowError:
            raise ValueError("support table values must fit in int64") from None

    def of_digits(self, digits: np.ndarray) -> np.ndarray:
        return self.table[self.ring.index(digits, self.n)]

    @property
    def is_standard(self) -> bool:
        """Detected: every codomain coordinate moves with one ambient
        coordinate and values are joins of single-coordinate values."""
        ring, n, ell = self.ring, self.n, self.ring.ell
        digits, vals = ring.space(n), self.table
        combined, owners = np.zeros_like(vals), np.zeros(self.u, dtype=np.int64)
        for i in range(n):
            # supp of each vector with every coordinate but the i-th zeroed
            axis = vals[ring.index(np.where(np.arange(n * ell) // ell == i, digits, 0), n)]
            owners += (axis > 0).any(axis=0)
            combined = np.maximum(combined, axis)
        return bool((owners <= 1).all() and (combined == vals).all())

    def ambient_support(self) -> SupportVec:
        return tuple(self.table.max(axis=0, initial=0).tolist())


def tau_support(ring: Pir, n: int) -> TableSupport:
    """The support sending every nonzero vector to 1 (u = 1); a valid
    support that is not modular for n >= 2."""
    zero = ring.zero_vector(n)
    table = {v: ((0,) if v == zero else (1,)) for v in ring.vectors(n)}
    return TableSupport(ring, n, table)


def support_from_unit_table(ring: Pir, n: int, unit_table: dict) -> ProductSupport:
    """A standard support applying one table R -> Z^u to every coordinate."""
    part = TableSupport(ring, 1, {(a,): v for a, v in unit_table.items()})
    return ProductSupport(ring, tuple(part for _ in range(n)))


# -- validation ---------------------------------------------------------------


def _vector(ring: Pir, digits: np.ndarray, i: int) -> Vector:
    """Row i of a digit array as a vector, for a witness."""
    return ring.decode(digits[i : i + 1])[0]


def validate_support(s: Support, cap: int = VECTOR_ENUM_CAP) -> Report:
    """Exhaustively check the three support axioms; reports carry the first
    violating witness in lexicographic scan order (r then v for axiom 2, v
    then w for axiom 3)."""
    ring, n = s.ring, s.n
    check_cap(ring.size**n, cap, "support validation")
    digits, vals = ring.space(n), s.values()
    size = len(vals)

    def zero_iff_zero():
        bad = (vals < 0).any(axis=1) | ((vals == 0).all(axis=1) != (np.arange(size) == 0))
        for i in np.flatnonzero(bad).tolist():
            v, sv = _vector(ring, digits, i), tuple(vals[i].tolist())
            if any(x < 0 for x in sv):
                yield f"supp({v}) has a negative coordinate"
            else:
                yield f"supp({v}) = {sv}"

    def growing_multiples():
        for r, scalar in zip(ring.elements(), ring.scalars(n)):
            image = ring.index(digits * scalar, n)
            for i in np.flatnonzero((vals[image] > vals).any(axis=1)).tolist():
                yield f"r={r}, v={_vector(ring, digits, i)}"

    def growing_sums(rows):
        image = ring.index(digits[rows, None] + digits, n)
        return (vals[image] > np.maximum(vals[rows, None], vals)).any(axis=2)

    return Report.from_checks([
        Check.from_witnesses("axiom1_zero_iff_zero", zero_iff_zero()),
        Check.from_witnesses("axiom2_scalar_monotone", growing_multiples()),
        Check.from_witnesses("axiom3_subadditive", (
            f"v={_vector(ring, digits, v)}, w={_vector(ring, digits, w)}"
            for v, w in scan_rows(size, size * (s.u + digits.shape[1]), growing_sums)
        )),
    ])


def validate_modular(s: Support, cap: int = VECTOR_ENUM_CAP) -> Report:
    """Exhaustively check the modularity axiom over all (v, w, i) with
    0 < supp(v)_i <= supp(w)_i: some r must give supp(v + r w)_i < supp(v)_i.
    The witness is the first (v, w, i) in lexicographic scan order."""
    ring, n = s.ring, s.n
    check_cap(ring.size**n, cap, "modularity validation")
    digits, vals = ring.space(n), s.values()
    scalars = ring.scalars(n)

    def unreduced(rows):
        least = sv = vals[rows, None]  # r = 0 leaves v as it is
        for r in scalars[1:]:
            image = ring.index(digits[rows, None] + r * digits, n)
            least = np.minimum(least, vals[image])
        return (sv > 0) & (sv <= vals) & (least >= sv)

    width = len(vals) * (s.u + digits.shape[1])
    return Report.from_checks([Check.from_witnesses("axiom4_modular", (
        f"v={_vector(ring, digits, v)}, w={_vector(ring, digits, w)}, i={i}"
        for v, w, i in scan_rows(len(vals), width, unreduced)
    ))])


# -- CRT splitting ------------------------------------------------------------


def split_support(s: Support):
    """Split a modular support into per-factor supports.

    Returns (parts, permutation): parts[i] is a support on R_i^n, and
    permutation lists the original codomain coordinates grouped by factor
    (stable within each group), so that for every v
    ``concat(parts[i](proj_i(v)))`` equals ``s(v)`` permuted accordingly.

    The parts are modular without a check of their own: part i is s on the
    embedded R_i^n, and for v, w there and r in R, r w is the embedding of
    r_i w, so every reduction s's modularity provides lies inside part i.

    A ``ChainSupport`` splits with no pass over R^n: part i is the chain
    support of R_i^n, on the codomain coordinates i::ell.  Every other
    support is split by its values on all of R^n, under the cap.
    """
    ring, n, ell = s.ring, s.n, s.ring.ell
    if isinstance(s, ChainSupport):
        parts = [ChainSupport(ring.factor_ring(i), n) for i in range(ell)]
        return parts, tuple(np.arange(s.u).reshape(n, ell).T.ravel().tolist())
    check_cap(ring.size**n, VECTOR_ENUM_CAP, f"enumerating {ring}^{n}")
    if not s.is_modular:
        raise ValueError("only modular supports are guaranteed to split")
    digits, vals = ring.space(n), s.values()
    # The rows that vanish outside factor i: R_i^n embedded in R^n.
    embedded = [(digits[:, np.arange(n * ell) % ell != i] == 0).all(axis=1) for i in range(ell)]
    # moves[i, j]: support coordinate j is positive somewhere on factor i.
    moves = np.array([(vals[rows] > 0).any(axis=0) for rows in embedded])
    clash = np.argwhere(moves & (moves.cumsum(axis=0) > 1))
    if clash.size:
        i, j = clash[0].tolist()
        first = moves[:, j].argmax()
        raise ValueError(f"support coordinate {j} moves with factors {first} and {i}")
    owners = moves.argmax(axis=0)
    groups = [np.flatnonzero(owners == i) for i in range(ell)]
    permutation = tuple(np.concatenate(groups).tolist())

    parts = []
    for i, (rows, group) in enumerate(zip(embedded, groups)):
        sub = ring.factor_ring(i)
        words = sub.decode(digits[rows][:, i::ell])
        parts.append(TableSupport(sub, n, dict(zip(words, vals[rows][:, group].tolist()))))

    split = np.hstack([p.of_digits(digits[:, i::ell]) for i, p in enumerate(parts)])
    bad = np.flatnonzero((split != vals[:, permutation]).any(axis=1))
    if bad.size:
        raise ValueError(f"support does not split at v={_vector(ring, digits, bad[0])}")

    return parts, permutation


# -- supports as functions on rectangular modules ------------------------------


def rectangular_supports(s: Support) -> np.ndarray:
    """supp(M_g), the maximum of supp(v) over v with ChainSupport(v) <= g, for
    each g of ``chain_support_lattice(s.ring, s.n)`` in order: (N, u) int64."""
    ring, n = s.ring, s.n
    check_cap(ring.size**n, VECTOR_ENUM_CAP, f"enumerating {ring}^{n}")
    digits, chain = ring.space(n), ChainSupport(ring, n)
    levels, values = chain.of_digits(digits), s.of_digits(digits)
    return _dominated(levels, values, chain.ambient_support(), np.maximum).reshape(-1, s.u)


def modular_function_on_rectangulars(s: Support) -> Report:
    """Check, over all pairs of rectangular modules, that the set support is
    a modular and strictly increasing function (sums and intersections of
    rectangular modules are again rectangular: the joins and meets of
    ``chain_support_lattice``)."""
    levels = math.prod(f.k + 1 for f in s.ring.factors)
    check_cap(levels ** (2 * s.n), VECTOR_ENUM_CAP, "rectangular module pairs")
    lat = chain_support_lattice(s.ring, s.n)
    rects, supp = lat.labels, rectangular_supports(s)
    rhs = supp[lat.join] + supp[lat.meet]
    below = (supp[:, None] <= supp).all(axis=2) & (supp[:, None] != supp).any(axis=2)
    return Report.from_checks([
        Check.from_witnesses("modular_function", (
            f"M1={rects[a]}, M2={rects[b]}: "
            f"{supp[a].sum()}+{supp[b].sum()} != {tuple(rhs[a, b].tolist())}"
            for a, b in np.argwhere((supp[:, None] + supp != rhs).any(axis=2)).tolist()
        )),
        Check.from_witnesses("strictly_increasing", (
            f"M1={rects[a]} < M2={rects[b]}" for a, b in lat.comparable_pairs() if not below[a, b]
        )),
    ])
