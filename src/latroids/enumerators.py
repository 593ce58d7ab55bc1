"""Weight enumerators as count tables on the support grid, R' of a latroid
on a grid lattice, and ``ExpPoly``, the exact polynomials both print as.

A refined enumerator is a ``CountTable``: the codewords' distinct supports
as int64 rows and how many codewords have each.  The weight distribution
and the homogeneous enumerator are sums over it, so one evaluation of the
codewords' supports gives all three.  The direct route groups
the support rows; the latroid route writes |C_B| = p^(len - rho) of the
chain-support latroid on the grid and takes one difference per grid axis
(``_grid_differences``, Moebius inversion on a product of chains, shared
with ``inclusion_exclusion_check``).  That is R' under z -> (y - x)/y,
whose one-axis step ``binomial_identity_check`` checks as polynomials.
Counts are at most |C| <= ``SPAN_CAP``, so int64 is exact.  ``ExpPoly`` is
built only where a result is printed: ``CountTable.poly``, R' and R, and
the binomial identity.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import add

import numpy as np

from .code_latroids import chain_support_latroid
from .codes import Code, _classes, submodule_invariants
from .core import Latroid
from .limits import LATTICE_CAP, check_cap
from .report import Check, Report
from .supports import ChainSupport, Support, split_support


class ExpPoly:
    """A polynomial as a map from exponent vectors to integer coefficients.

    The variable layout is fixed at construction; no zero coefficients are
    stored.  Arithmetic is exact.  The constructor is the one place where
    terms are collected: it takes (exponents, coefficient) pairs, adds up
    the coefficients of repeated exponents and drops the sums that are
    zero, and every operation below only lists pairs for it.
    """

    def __init__(self, nvars: int, terms=(), names=None):
        self.nvars = nvars
        self.names = tuple(names) if names else tuple(f"t{i+1}" for i in range(nvars))
        if len(self.names) != nvars:
            raise ValueError("one name per variable")
        sums: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have {nvars} entries")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            sums[exps] = sums.get(exps, 0) + int(coeff)
        self.terms: dict[tuple[int, ...], int] = {e: c for e, c in sums.items() if c}

    @classmethod
    def zero(cls, nvars: int, names=None) -> "ExpPoly":
        return cls(nvars, (), names)

    @classmethod
    def monomial(cls, exps, coeff: int = 1, names=None) -> "ExpPoly":
        exps = tuple(exps)
        return cls(len(exps), [(exps, coeff)], names)

    @classmethod
    def variable(cls, i: int, nvars: int, names=None) -> "ExpPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, [(exps, 1)], names)

    def _like(self, terms) -> "ExpPoly":
        return ExpPoly(self.nvars, terms, self.names)

    def __eq__(self, other):
        return (
            isinstance(other, ExpPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return self._like([*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "ExpPoly":
        return self._like((e, -c) for e, c in self.terms.items())

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, int):
            return self._like((e, c * other) for e, c in self.terms.items())
        return self._like(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def total(self) -> int:
        """Sum of coefficients (evaluation at all-ones)."""
        return sum(self.terms.values())

    def remap(self, targets, nvars: int, names) -> "ExpPoly":
        """Move old variable i onto new variable targets[i] of an nvars
        layout, adding the exponents of variables that land together; a
        target of None substitutes 1 for the variable."""
        pairs = []
        for exps, c in self.terms.items():
            e = [0] * nvars
            for t, x in zip(targets, exps):
                if t is not None:
                    e[t] += x
            pairs.append((e, c))
        return ExpPoly(nvars, pairs, names)

    def sorted_terms(self):
        """Graded-lexicographic, highest first; the serialization order."""
        return sorted(
            self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [
                self.names[i] if e == 1 else f"{self.names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.names),
            "terms": [
                {"exponents": list(e), "coefficient": c}
                for e, c in self.sorted_terms()
            ],
        }

    def __repr__(self):
        return f"ExpPoly({self.render()})"


def _xy_names(u: int) -> tuple[str, ...]:
    return tuple(f"x{i+1}" for i in range(u)) + tuple(f"y{i+1}" for i in range(u))


@dataclass(frozen=True, eq=False)
class CountTable:
    """A refined enumerator: counts[i] > 0 codewords have support
    points[i], the points distinct int64 rows in lexicographic order, and
    top the support of R^n.  ``poly`` prints it as
    sum_i counts[i] x^points[i] y^(top - points[i])."""

    points: np.ndarray
    counts: np.ndarray
    top: tuple[int, ...]

    def __eq__(self, other):
        return (isinstance(other, CountTable) and self.top == other.top
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.counts, other.counts))

    def poly(self) -> ExpPoly:
        xy = np.hstack([self.points, self.top - self.points]).tolist()
        return ExpPoly(2 * len(self.top), zip(xy, self.counts.tolist()), _xy_names(len(self.top)))

    def weight_distribution(self) -> list[int]:
        """A_w, the number of codewords of weight w, for w = 0..wt(R^n):
        the counts summed by the weight of their point, in int64."""
        dist = np.zeros(sum(self.top) + 1, dtype=np.int64)
        np.add.at(dist, self.points.sum(axis=1), self.counts)
        return dist.tolist()

    def homogeneous(self) -> ExpPoly:
        """The homogeneous enumerator, every x_i set to x and y_i to y:
        sum_w A_w x^w y^(wt(R^n) - w)."""
        top = sum(self.top)
        dist = self.weight_distribution()
        return ExpPoly(2, (((w, top - w), a) for w, a in enumerate(dist)), ("x", "y"))


# -- weight enumerators -----------------------------------------------------


def refined_enumerator(code: Code, supp: Support) -> CountTable:
    """sum over codewords of x^supp(c) y^(supp(R^n) - supp(c)), as a table."""
    levels = supp.of_digits(code.digits)
    classes = _classes(levels)
    points = np.empty((int(classes.max()) + 1, supp.u), dtype=np.int64)
    points[classes] = levels
    return CountTable(points, np.bincount(classes), supp.ambient_support())


def weight_distribution(code: Code, supp: Support) -> list[int]:
    """A_w = number of codewords of weight w, for w = 0..wt(R^n), counted
    on the codewords' weights (``CountTable.weight_distribution`` sums a
    refined table instead)."""
    weights = supp.of_digits(code.digits).sum(axis=1)
    return np.bincount(weights, minlength=supp.ambient_weight() + 1).tolist()


def generalized_weight_distribution(code: Code, supp: Support, r: int) -> list[int]:
    """A^(r)_w = number of submodules with lambda = r and wt = w, counted
    on the arrays of ``submodule_invariants``."""
    lengths, _, weights = submodule_invariants(code, supp)
    return np.bincount(weights[lengths == r], minlength=supp.ambient_weight() + 1).tolist()


# -- Tutte-Whitney rank generating functions -----------------------------------


def _grid_labels(lt: Latroid) -> np.ndarray:
    labels = lt.lattice.labels
    if not all(
        isinstance(lab, tuple) and all(isinstance(x, int) for x in lab)
        for lab in labels
    ):
        raise ValueError("Tutte-Whitney sums need integer-vector lattice labels")
    return np.array(labels, dtype=np.int64)


def tutte_whitney_Rprime(lt: Latroid) -> ExpPoly:
    """R' = sum over lattice elements M of
    x^M z^(M~ - M) y^(1_L - M) u^(rho(1)-rho(M)) v^(len(M)-rho(M)),
    with M~ = (M + 1) ^ 1_L."""
    labels = _grid_labels(lt)
    g, s = labels.shape[1], lt.udim
    names = tuple(f"{v}{i+1}" for v, k in zip("xzyuv", (g, g, g, s, s)) for i in range(k))
    top = labels[lt.lattice.top]
    exps = np.hstack([labels, np.minimum(labels + 1, top) - labels, top - labels,
                      lt.top_rank() - lt.rank, lt.length - lt.rank])
    return ExpPoly(3 * g + 2 * s, ((e, 1) for e in exps.tolist()), names)


def rprime_z_to_one(rp: ExpPoly, g: int) -> ExpPoly:
    """R = sum over lattice elements M of
    x^M y^(1_L - M) u^(rho(1)-rho(M)) v^(len(M)-rho(M)), from R' of a
    latroid on a g-dimensional grid by the substitution z = 1."""
    targets = [*range(g), *[None] * g, *range(g, rp.nvars - g)]
    return rp.remap(targets, rp.nvars - g, rp.names[:g] + rp.names[2 * g :])


def _grid_differences(f: np.ndarray) -> np.ndarray:
    """Moebius inversion on a product of chains: one difference along each
    axis, so entry A becomes the alternating sum over the 0/1 steps B <= A."""
    for axis in range(f.ndim):
        f = np.diff(f, axis=axis, prepend=0)
    return f


def enumerator_from_tutte(lt: Latroid, p: int) -> CountTable:
    """The refined weight enumerator of a chain-ring code, read off its
    chain-support latroid (udim 1) instead of the codewords: grid point B
    gets |C n M_B| = p^(len(B) - rho(B)), the weight p^b of its R' term
    x^B z^e y^(T-B) v^b, and ``_grid_differences`` does z -> (y - x)/y."""
    labels = _grid_labels(lt)
    [nullity] = (lt.length - lt.rank).T
    top = labels[lt.lattice.top]
    f = np.zeros(tuple(top + 1), dtype=np.int64)
    f[tuple(labels.T)] = p**nullity
    f = _grid_differences(f)
    points = np.argwhere(f)
    return CountTable(points, f[tuple(points.T)], tuple(top.tolist()))


# -- products over CRT factors ----------------------------------------------------


def _product(tables, groups, supp: Support) -> CountTable:
    """The product of per-factor tables in the layout of ``supp``: factor
    j's coordinate t lands on coordinate groups[j][t].  The groups are
    disjoint, so each choice of one point per factor is a distinct point."""
    points, counts = np.zeros((1, supp.u), dtype=np.int64), np.ones(1, dtype=np.int64)
    for table, group in zip(tables, groups):
        a, b = np.divmod(np.arange(len(counts) * len(table.counts)), len(table.counts))
        points, counts = points[a], counts[a] * table.counts[b]
        points[:, group] = table.points[b]
    order = np.lexsort(points.T[::-1])
    return CountTable(points[order], counts[order], supp.ambient_support())


def enumerator_product(code: Code, supp: Support) -> CountTable:
    """The refined enumerator as the product of the CRT factors' refined
    enumerators, their coordinates placed by ``split_support``'s permutation."""
    parts, perm = split_support(supp)
    tables = [refined_enumerator(code.factor(j), part) for j, part in enumerate(parts)]
    return _product(tables, np.split(perm, np.cumsum([part.u for part in parts])[:-1]), supp)


def pir_tutte_corollary(code: Code, direct: CountTable) -> Report:
    """Check that the factors' enumerators read off their chain-support
    latroids, interleaved on the coordinate-major chain layout, multiply to
    ``direct``, the refined enumerator of a product-ring code under
    ``ChainSupport``; and so do the factors' direct refined enumerators."""
    ring = code.ring
    supp = ChainSupport(ring, code.n)
    tables = (enumerator_from_tutte(chain_support_latroid(code.factor(j)), f.p)
              for j, f in enumerate(ring.factors))
    prod = _product(tables, [np.arange(j, supp.u, ring.ell) for j in range(ring.ell)], supp)
    ok, ok2 = prod == direct, enumerator_product(code, supp) == direct
    return Report.from_checks([
        Check("factorized_tutte_enumerator", ok,
              "" if ok else f"product {prod.poly().render()} != direct {direct.poly().render()}"),
        Check("factorized_refined_enumerator", ok2,
              "" if ok2 else "per-factor refined product mismatch"),
    ])


# -- internal identities ------------------------------------------------------------


def inclusion_exclusion_check(code: Code) -> Report:
    """Exact-support counts two ways on the chain-support grid: directly,
    and by alternating sums of the dominated-support counts |C_B|.

    The alternating sum over the 0/1 steps below each label is Moebius
    inversion on a product of chains, so it is one difference along each
    axis of the grid of dominated counts.  Witnesses come in label order.
    """
    ring = code.ring
    supp = ChainSupport(ring, code.n)
    shape = [k + 1 for k in supp.ambient_support()]
    check_cap(math.prod(shape), LATTICE_CAP, "lattice size")
    labels = list(itertools.product(*map(range, shape)))
    levels = supp.of_digits(code.digits)
    counts = Counter(map(tuple, levels.tolist()))
    # One comparison per label, not the prefix sums of chain_support_latroid,
    # so that this route stays independent of that kernel.
    exact = np.array([(levels <= b).all(axis=1).sum() for b in labels], dtype=np.int64)
    exact = _grid_differences(exact.reshape(shape))
    return Report.from_checks([Check.from_witnesses("inclusion_exclusion", (
        f"A = {a}: {total} != {counts[a]}"
        for a, total in zip(labels, exact.ravel().tolist())
        if total != counts[a]
    ))])


def binomial_identity_check(u: int) -> Report:
    """x^B (y-x)^(1-B) = sum over 0/1 vectors A >= B of
    (-1)^{|A|-|B|} x^A y^(1-A), as an identity of polynomials.

    Each per-axis difference of ``enumerator_from_tutte`` is this
    identity on one axis: x^B (y - x) y^(T-B-1) = x^B y^(T-B) -
    x^(B+1) y^(T-B-1).  Note the left factor is a power of x (a y-power
    there would already fail at u = 1, B = 1)."""
    names = _xy_names(u)

    def mismatches():
        for b in itertools.product((0, 1), repeat=u):
            lhs = ExpPoly.monomial(b + (0,) * u, 1, names)
            for i, e in enumerate(b):
                if not e:
                    diff = ExpPoly.variable(u + i, 2 * u, names) - ExpPoly.variable(
                        i, 2 * u, names
                    )
                    lhs = lhs * diff
            rhs = ExpPoly.zero(2 * u, names)
            for a in itertools.product((0, 1), repeat=u):
                if all(x >= y for x, y in zip(a, b)):
                    sign = (-1) ** (sum(a) - sum(b))
                    rhs = rhs + ExpPoly.monomial(
                        a + tuple(1 - x for x in a), sign, names
                    )
            if lhs != rhs:
                yield f"B = {b}"

    return Report.from_checks([Check.from_witnesses("binomial_identity", mismatches())])
