"""Support functions R^n -> Z^u, their axioms, weights, and CRT splitting.

A support assigns a nonnegative integer vector to each ring vector so that
supp(v) = 0 iff v = 0, supp(rv) <= supp(v), and supp(v+w) <= supp(v) v supp(w).
A support is modular when any positive coordinate supp(v)_i <= supp(w)_i can
be strictly decreased by adding a suitable multiple of w.  (The positivity
guard is forced: at supp(v)_i = 0 no support could decrease further, the
Hamming support included.)
"""

from __future__ import annotations

import itertools

import numpy as np

from .codes import Code, all_rectangular_modules, rect_meet, rect_members, rect_sum
from .core import sleq
from .limits import VECTOR_ENUM_CAP, check_cap
from .report import Check, Report
from .rings import Pir, Vector

#: Above this many ambient vectors the validators fall back to plain loops
#: instead of materializing quadratic index tables.
_TABLE_LIMIT = 4096

_space_cache: dict = {}


class _SpaceTables:
    """Index tables for R^n: vector list, addition, and scalar action."""

    def __init__(self, ring: Pir, n: int):
        self.vectors = list(ring.vectors(n, cap=_TABLE_LIMIT))
        index = {v: i for i, v in enumerate(self.vectors)}
        self.index = index
        nv = len(self.vectors)
        self.add = np.empty((nv, nv), dtype=np.int32)
        for i, v in enumerate(self.vectors):
            for j, w in enumerate(self.vectors):
                self.add[i, j] = index[ring.vadd(v, w)]
        scalars = list(ring.elements())
        self.scalars = scalars
        self.mult = np.empty((len(scalars), nv), dtype=np.int32)
        for r_i, r in enumerate(scalars):
            for j, w in enumerate(self.vectors):
                self.mult[r_i, j] = index[ring.vscale(r, w)]


def _space_tables(ring: Pir, n: int) -> "_SpaceTables | None":
    if ring.size**n > _TABLE_LIMIT:
        return None
    key = (ring, n)
    if key not in _space_cache:
        _space_cache[key] = _SpaceTables(ring, n)
    return _space_cache[key]


def _support_array(s: "Support", tables: _SpaceTables) -> np.ndarray:
    arr = np.empty((len(tables.vectors), s.u), dtype=np.int64)
    for i, v in enumerate(tables.vectors):
        arr[i] = s(v)
    return arr

SupportVec = tuple[int, ...]


def _vmax(a: SupportVec, b: SupportVec) -> SupportVec:
    return tuple(max(x, y) for x, y in zip(a, b, strict=True))


class Support:
    """Base class; subclasses fix ring, ambient length n, codomain dim u."""

    kind = "abstract"

    def __init__(self, ring: Pir, n: int, u: int):
        self.ring = ring
        self.n = n
        self.u = u

    def __call__(self, v: Vector) -> SupportVec:
        raise NotImplementedError

    @property
    def is_standard(self) -> bool:
        return False

    def of_set(self, vectors) -> SupportVec:
        """Coordinatewise maximum over a set of vectors."""
        out = (0,) * self.u
        for v in vectors:
            out = _vmax(out, self(v))
        return out

    def weight(self, v: Vector) -> int:
        return sum(self(v))

    def code_weight(self, code: Code) -> int:
        return sum(self.of_set(code.codewords))

    def min_max_weight(self, code: Code) -> tuple[int, int]:
        weights = sorted(self.weight(c) for c in code.codewords)
        nonzero = [w for w in weights if w > 0]
        if not nonzero:
            raise ValueError("minimum weight of the zero code is undefined")
        return nonzero[0], weights[-1]

    def ambient_support(self) -> SupportVec:
        """supp(R^n), the top support vector."""
        raise NotImplementedError

    def ambient_weight(self) -> int:
        return sum(self.ambient_support())

    def same_values(self, other: "Support", cap: int = VECTOR_ENUM_CAP) -> bool:
        """Pointwise equality on the full (capped) domain."""
        if (self.ring, self.n, self.u) != (other.ring, other.n, other.u):
            return False
        return all(self(v) == other(v) for v in self.ring.vectors(self.n, cap=cap))


class HammingSupport(Support):
    """Indicator of nonzero coordinates; u = n."""

    kind = "hamming"

    def __init__(self, ring: Pir, n: int):
        super().__init__(ring, n, n)

    def __call__(self, v: Vector) -> SupportVec:
        return tuple(0 if a == self.ring.zero else 1 for a in v)

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

    def __call__(self, v: Vector) -> SupportVec:
        if len(v) != self.n:
            raise ValueError(f"vector {v} does not have length {self.n}")
        ks = [f.k for f in self.ring.factors]
        out = []
        for a in v:
            vals = self.ring.valuations(a)
            out.extend(k - t for k, t in zip(ks, vals))
        return tuple(out)

    @property
    def is_standard(self) -> bool:
        return True

    def ambient_support(self) -> SupportVec:
        return tuple(f.k for _ in range(self.n) for f in self.ring.factors)


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

    def __call__(self, v: Vector) -> SupportVec:
        if len(v) != self.n:
            raise ValueError(f"vector {v} does not have length {self.n}")
        out = []
        for part, a in zip(self.parts, v):
            out.extend(part((a,)))
        return tuple(out)

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

    Tables are validated against the support axioms at construction time
    (pass ``validate=False`` only to build negative fixtures).
    """

    kind = "table"

    def __init__(self, ring: Pir, n: int, table: dict, validate: bool = True,
                 cap: int = VECTOR_ENUM_CAP):
        table = {tuple(k): tuple(v) for k, v in table.items()}
        check_cap(ring.size**n, cap, "support table domain")
        domain = set(ring.vectors(n, cap=cap))
        if set(table) != domain:
            raise ValueError("support table must cover exactly R^n")
        us = {len(v) for v in table.values()}
        if len(us) != 1:
            raise ValueError("support table values must share one length")
        super().__init__(ring, n, us.pop())
        self.table = table
        self._standard = None
        if validate:
            report = validate_support(self, cap=cap)
            if not report.ok:
                raise ValueError(f"not a support: {report.summary()}")

    def __call__(self, v: Vector) -> SupportVec:
        return self.table[tuple(v)]

    @property
    def is_standard(self) -> bool:
        """Detected: every codomain coordinate moves with one ambient
        coordinate and values are joins of single-coordinate values."""
        if self._standard is None:
            self._standard = self._detect_standard()
        return self._standard

    def _detect_standard(self) -> bool:
        ring = self.ring
        owner = [None] * self.u
        for i in range(self.n):
            for r in ring.elements():
                sv = self(ring.vscale(r, ring.basis_vector(self.n, i)))
                for j in range(self.u):
                    if sv[j] > 0:
                        if owner[j] is not None and owner[j] != i:
                            return False
                        owner[j] = i
        for v, sv in self.table.items():
            combined = (0,) * self.u
            for i in range(self.n):
                axis = tuple(
                    a if t == i else ring.zero for t, a in enumerate(v)
                )
                combined = _vmax(combined, self(axis))
            if combined != sv:
                return False
        return True

    def ambient_support(self) -> SupportVec:
        out = (0,) * self.u
        for val in self.table.values():
            out = _vmax(out, val)
        return out


def tau_support(ring: Pir, n: int) -> TableSupport:
    """The support sending every nonzero vector to 1 (u = 1); a valid
    support that is not modular for n >= 2."""
    zero = ring.zero_vector(n)
    table = {v: ((0,) if v == zero else (1,)) for v in ring.vectors(n)}
    return TableSupport(ring, n, table)


def support_from_unit_table(ring: Pir, n: int, unit_table: dict, validate: bool = True) -> ProductSupport:
    """A standard support applying one table R -> Z^u to every coordinate."""
    table = {(a,): tuple(v) for a, v in unit_table.items()}
    part = TableSupport(ring, 1, table, validate=validate)
    return ProductSupport(ring, tuple(part for _ in range(n)))


# -- validation ---------------------------------------------------------------


def validate_support(s: Support, cap: int = VECTOR_ENUM_CAP) -> Report:
    """Exhaustively check the three support axioms; reports carry the first
    violating witness in lexicographic scan order.

    Results are memoized on the support (supports are immutable)."""
    cached = getattr(s, "_support_report", None)
    if cached is not None:
        return cached
    ring = s.ring
    check_cap(ring.size**s.n, cap, "support validation")
    zero = (0,) * s.u
    tables = _space_tables(ring, s.n)
    arr = None if tables is None else _support_array(s, tables)

    def zero_iff_zero():
        for v in ring.vectors(s.n, cap=cap):
            sv = s(v)
            if any(x < 0 for x in sv):
                yield f"supp({v}) has a negative coordinate"
            elif (sv == zero) != (v == ring.zero_vector(s.n)):
                yield f"supp({v}) = {sv}"

    def growing_multiples():
        if tables is None:
            for r in ring.elements():
                for v in ring.vectors(s.n, cap=cap):
                    if not sleq(s(ring.vscale(r, v)), s(v)):
                        yield f"r={r}, v={v}"
            return
        for r_i, r in enumerate(tables.scalars):
            for i in np.flatnonzero((arr[tables.mult[r_i]] > arr).any(axis=1)):
                yield f"r={r}, v={tables.vectors[int(i)]}"

    def growing_sums():
        if tables is None:
            for v in ring.vectors(s.n, cap=cap):
                sv = s(v)
                for w in ring.vectors(s.n, cap=cap):
                    if not sleq(s(ring.vadd(v, w)), _vmax(sv, s(w))):
                        yield f"v={v}, w={w}"
            return
        for vi, v in enumerate(tables.vectors):
            bad = (arr[tables.add[vi]] > np.maximum(arr[vi], arr)).any(axis=1)
            for wi in np.flatnonzero(bad):
                yield f"v={v}, w={tables.vectors[int(wi)]}"

    report = Report.from_checks([
        Check.from_witnesses("axiom1_zero_iff_zero", zero_iff_zero()),
        Check.from_witnesses("axiom2_scalar_monotone", growing_multiples()),
        Check.from_witnesses("axiom3_subadditive", growing_sums()),
    ])
    s._support_report = report
    return report


def validate_modular(s: Support, cap: int = VECTOR_ENUM_CAP) -> Report:
    """Exhaustively check the modularity axiom over all (v, w, i) with
    0 < supp(v)_i <= supp(w)_i: some r must give supp(v + r w)_i < supp(v)_i.

    Results are memoized on the support (supports are immutable)."""
    cached = getattr(s, "_modular_report", None)
    if cached is not None:
        return cached
    ring = s.ring
    check_cap(ring.size**s.n, cap, "modularity validation")
    tables = _space_tables(ring, s.n)

    def unreduced():
        if tables is None:
            scalars = tuple(ring.elements())
            for v in ring.vectors(s.n, cap=cap):
                sv = s(v)
                for w in ring.vectors(s.n, cap=cap):
                    sw = s(w)
                    for i in range(s.u):
                        if 0 < sv[i] <= sw[i] and not any(
                            s(ring.vadd(v, ring.vscale(r, w)))[i] < sv[i]
                            for r in scalars
                        ):
                            yield f"v={v}, w={w}, i={i}"
            return
        arr = _support_array(s, tables)
        for vi, v in enumerate(tables.vectors):
            sv = arr[vi]
            if not sv.any():
                continue
            mins = arr[tables.add[vi, tables.mult]].min(axis=0)
            bad = (sv > 0) & (sv <= arr) & (mins >= sv)
            for w_i, i in np.argwhere(bad).tolist():
                yield f"v={v}, w={tables.vectors[w_i]}, i={i}"

    report = Report.from_checks([Check.from_witnesses("axiom4_modular", unreduced())])
    s._modular_report = report
    return report


# -- CRT splitting ------------------------------------------------------------


def split_support(s: Support, cap: int = VECTOR_ENUM_CAP):
    """Split a modular support into per-factor supports.

    Returns (parts, permutation): parts[i] is a support on R_i^n, and
    permutation lists the original codomain coordinates grouped by factor
    (stable within each group), so that for every v
    ``concat(parts[i](proj_i(v)))`` equals ``s(v)`` permuted accordingly.
    """
    ring = s.ring
    if not validate_modular(s, cap=cap).ok:
        raise ValueError("only modular supports are guaranteed to split")

    owners = [None] * s.u
    for i in range(ring.ell):
        seen = set()
        for w in ring.factor_ring(i).vectors(s.n, cap=cap):
            sv = s(ring.embed_vector(w, i, s.n))
            seen.update(j for j in range(s.u) if sv[j] > 0)
        for j in seen:
            if owners[j] is not None and owners[j] != i:
                raise ValueError(
                    f"support coordinate {j} moves with factors {owners[j]} and {i}"
                )
            owners[j] = i
    owners = [0 if o is None else o for o in owners]

    groups = [[j for j in range(s.u) if owners[j] == i] for i in range(ring.ell)]
    permutation = tuple(itertools.chain.from_iterable(groups))

    parts = []
    for i, group in enumerate(groups):
        sub = ring.factor_ring(i)
        table = {}
        for w in sub.vectors(s.n, cap=cap):
            sv = s(ring.embed_vector(w, i, s.n))
            table[w] = tuple(sv[j] for j in group)
        parts.append(TableSupport(sub, s.n, table))

    for v in ring.vectors(s.n, cap=cap):
        sv = s(v)
        combined = []
        for i, part in enumerate(parts):
            combined.extend(part(ring.project_vector(v, i)))
        if tuple(sv[j] for j in permutation) != tuple(combined):
            raise ValueError(f"support does not split at v={v}")

    for i, part in enumerate(parts):
        if not validate_modular(part, cap=cap).ok:
            raise ValueError(f"factor {i} of the split is not modular")

    return parts, permutation


# -- supports as functions on rectangular modules ------------------------------


def rect_support(s: Support, rect) -> SupportVec:
    """Set support of a rectangular module I_1 x ... x I_n."""
    return s.of_set(rect_members(s.ring, rect))


def modular_function_on_rectangulars(s: Support, cap: int = VECTOR_ENUM_CAP) -> Report:
    """Check, over all pairs of rectangular modules, that the set support is
    a modular and strictly increasing function (sums and intersections of
    rectangular modules are again rectangular)."""
    ring = s.ring
    rects = list(all_rectangular_modules(ring, s.n))
    check_cap(len(rects) ** 2, cap, "rectangular module pairs")
    supp = {r: rect_support(s, r) for r in rects}

    def non_modular():
        for a in rects:
            for b in rects:
                lhs = tuple(x + y for x, y in zip(supp[a], supp[b]))
                rhs = tuple(
                    x + y
                    for x, y in zip(supp[rect_sum(ring, a, b)], supp[rect_meet(ring, a, b)])
                )
                if lhs != rhs:
                    yield f"M1={a}, M2={b}: {sum(supp[a])}+{sum(supp[b])} != {rhs}"

    return Report.from_checks([
        Check.from_witnesses("modular_function", non_modular()),
        Check.from_witnesses("strictly_increasing", (
            f"M1={a} < M2={b}"
            for a in rects
            for b in rects
            if a != b
            and all(ring.ideal_leq(x, y) for x, y in zip(a, b))
            and not (sleq(supp[a], supp[b]) and supp[a] != supp[b])
        )),
    ])


def module_support_lattice_check(s: Support, modules: list[Code]) -> Report:
    """Check supp(M1+M2) = supp(M1) v supp(M2) and supp(M1 cap M2) =
    supp(M1) ^ supp(M2) over all pairs of the given modules."""
    from .codes import code_intersection, code_sum

    supp = {m.codewords: s.of_set(m.codewords) for m in modules}
    pairs = [(a, b, supp[a.codewords], supp[b.codewords]) for a in modules for b in modules]
    return Report.from_checks([
        Check.from_witnesses("support_of_sum_is_join", (
            f"{sorted(a.codewords)} + {sorted(b.codewords)}"
            for a, b, sa, sb in pairs
            if s.of_set(code_sum(a, b).codewords) != _vmax(sa, sb)
        )),
        Check.from_witnesses("support_of_intersection_is_meet", (
            f"{sorted(a.codewords)} cap {sorted(b.codewords)}"
            for a, b, sa, sb in pairs
            if s.of_set(code_intersection(a, b).codewords)
            != tuple(min(x, y) for x, y in zip(sa, sb))
        )),
    ])
