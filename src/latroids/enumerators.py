"""Exact multivariate polynomials with integer-vector exponents, weight
enumerators, and the weighted Tutte-Whitney rank generating function R' of a
latroid on a grid lattice.

The refined weight enumerator of a code can be read off from R' of its
chain-support latroid.  The substitution z -> (y - x)/y never happens as a
rational function: each R' term x^B z^e y^(T-B) becomes x^B (y - x)^e
y^(T-B-e), an integer polynomial.  Summed over the grid that is Moebius
inversion on a product of chains, one difference along each grid axis
(``_grid_differences``, which ``inclusion_exclusion_check`` shares).
Polynomials are collected once, by the ``ExpPoly`` constructor, which adds
up repeated exponents and drops zero sums.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import add

import numpy as np

from .code_latroids import chain_support_latroid, least_weights
from .codes import Code, length_lambda
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
    def constant(cls, c: int, nvars: int, names=None) -> "ExpPoly":
        return cls(nvars, [((0,) * nvars, c)], names)

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

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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


# -- weight enumerators -----------------------------------------------------


def refined_enumerator(code: Code, supp: Support) -> ExpPoly:
    """sum over codewords of x^supp(c) y^(supp(R^n) - supp(c))."""
    levels = supp.of_digits(code.ring.encode(code.codewords, code.n))
    exps = np.hstack([levels, np.array(supp.ambient_support()) - levels])
    return ExpPoly(2 * supp.u, ((e, 1) for e in exps.tolist()), _xy_names(supp.u))


def homogeneous_enumerator(code: Code, supp: Support) -> ExpPoly:
    """The refined enumerator with every x_i set to x and y_i to y."""
    u = supp.u
    return refined_enumerator(code, supp).remap([0] * u + [1] * u, 2, ("x", "y"))


def weight_distribution(code: Code, supp: Support) -> list[int]:
    """A_w = number of codewords of weight w, for w = 0..wt(R^n)."""
    weights = supp.of_digits(code.ring.encode(code.codewords, code.n)).sum(axis=1)
    return np.bincount(weights, minlength=supp.ambient_weight() + 1).tolist()


def _weight_distributions(subcodes: tuple[Code, ...], supp: Support) -> dict[int, list[int]]:
    """A^(j)_w for every length j of a submodule, from the list of all
    submodules."""
    out: dict[int, list[int]] = {}
    for d in subcodes:
        dist = out.setdefault(length_lambda(d), [0] * (supp.ambient_weight() + 1))
        dist[supp.code_weight(d)] += 1
    return out


def generalized_weight_distribution(code: Code, supp: Support, r: int) -> list[int]:
    """A^(r)_w = number of submodules with lambda = r and wt = w."""
    empty = [0] * (supp.ambient_weight() + 1)
    return _weight_distributions(code.submodules, supp).get(r, empty)


def generalized_enumerator(code: Code, supp: Support, r: int) -> ExpPoly:
    """The r-th generalized weight enumerator
    sum_w A^(r)_w x^(wt(R^n)-w) y^w, for 0 <= r <= lambda(C).

    The minimum w with A^(j)_w != 0 over j >= r recovers the r-th
    generalized weight; that consistency is asserted here against the
    subcode oracle ``least_weights``, on the same one enumeration.
    """
    lam = length_lambda(code)
    if not 0 <= r <= lam:
        raise ValueError(f"r = {r} outside [0, {lam}]")
    wt_top = supp.ambient_weight()
    subcodes = code.submodules
    dists = _weight_distributions(subcodes, supp)
    poly = ExpPoly(2, (((wt_top - w, w), a) for w, a in enumerate(dists[r])), ("x", "y"))
    if r >= 1:
        least = min(
            w for j in range(r, lam + 1) for w, a in enumerate(dists[j]) if a
        )
        expected = least_weights(subcodes, length_lambda, supp.code_weight, lam)[r - 1]
        if least != expected:
            raise AssertionError(
                f"generalized enumerator inconsistent with d_bar_{r}: "
                f"{least} != {expected}"
            )
    return poly


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


def enumerator_from_rprime(rp: ExpPoly, g: int, p: int) -> ExpPoly:
    """Turn R' of a chain-support latroid (udim 1) on a g-dimensional grid
    into the refined weight enumerator.

    R' must have one term x^B z^e y^(T-B) u^a v^b per grid point 0 <= B <= T,
    with e = (B < T); anything else is refused, so a wrong z or y fails here.
    Each term gives p^b x^B (y - x)^e y^(T-B-e): p^b counts the codewords
    supported inside B, and (y - x)^e, one difference per axis of the grid
    f[B] = coeff * p^b, leaves those of support exactly A at x^A y^(T-A).
    The grid holds Python ints (object dtype), so the counts are exact.
    """
    if rp.nvars != 3 * g + 2:
        raise ValueError(
            f"R' on a {g}-dimensional grid has {3 * g + 2} variables, not {rp.nvars}")
    exps = np.array(list(rp.terms), dtype=np.int64).reshape(len(rp.terms), rp.nvars)
    b, zexp, yexp = exps[:, :g], exps[:, g : 2 * g], exps[:, 2 * g : 3 * g]
    top = (b + yexp).max(axis=0, initial=0)
    if (b + yexp != top).any():
        raise ValueError("R' y-exponents are not T - B for one top T")
    if (zexp != (b < top)).any():
        raise ValueError("R' z-exponents are not the 0/1 vector B < T")
    shape = tuple((top + 1).tolist())
    if len(b) != math.prod(shape) or np.bincount(np.ravel_multi_index(b.T, shape)).max() > 1:
        raise ValueError(f"R' does not have one term per point B of a grid of shape {shape}")
    f = np.zeros(shape, dtype=object)
    f[tuple(b.T)] = [c * p**v for c, v in zip(rp.terms.values(), exps[:, 3 * g + 1].tolist())]
    f = _grid_differences(f)
    a = np.argwhere(f)
    xy = np.hstack([a, top - a]).tolist()
    return ExpPoly(2 * g, zip(xy, f[tuple(a.T)].tolist()), _xy_names(g))


def enumerator_from_tutte(code: Code) -> ExpPoly:
    """The refined weight enumerator of a chain-ring code, computed from R'
    of its chain-support latroid instead of from the codewords."""
    ring = code.ring
    if ring.ell != 1:
        raise ValueError("use pir_tutte_corollary for product rings")
    rp = tutte_whitney_Rprime(chain_support_latroid(code))
    return enumerator_from_rprime(rp, code.n, ring.factors[0].residue_field_size)


# -- products over CRT factors ----------------------------------------------------


def _chain_groups(ell: int, n: int) -> list[list[int]]:
    """Positions of each factor's support coordinates in the coordinate-major
    chain layout."""
    return [[i * ell + j for i in range(n)] for j in range(ell)]


def _embedded_product(polys, groups, u: int) -> ExpPoly:
    """The product of per-factor polynomials in x and y: factor j's x_t and
    y_t move onto x_i and y_i of a u-coordinate layout, i = groups[j][t]."""
    names = _xy_names(u)
    out = ExpPoly.constant(1, 2 * u, names)
    for poly, group in zip(polys, groups):
        out = out * poly.remap([*group, *(u + i for i in group)], 2 * u, names)
    return out


def enumerator_product(code: Code, supp: Support) -> ExpPoly:
    """The refined enumerator computed as the product of the CRT factors'
    refined enumerators, expressed in the layout of ``supp``."""
    parts, perm = split_support(supp)
    groups = []
    at = 0
    for part in parts:
        groups.append([perm[t] for t in range(at, at + part.u)])
        at += part.u
    polys = (refined_enumerator(code.factor(j), part) for j, part in enumerate(parts))
    return _embedded_product(polys, groups, supp.u)


def pir_tutte_corollary(code: Code, direct: ExpPoly) -> Report:
    """Check that the per-factor R'-derived enumerators multiply to
    ``direct``, the refined enumerator of a product-ring code under the
    product chain support (``refined_enumerator`` with ``ChainSupport``)."""
    ring = code.ring
    supp = ChainSupport(ring, code.n)
    polys = (enumerator_from_tutte(code.factor(j)) for j in range(ring.ell))
    prod = _embedded_product(polys, _chain_groups(ring.ell, code.n), supp.u)
    ok = prod == direct
    detail = "" if ok else f"product {prod.render()} != direct {direct.render()}"
    checks = [Check("factorized_tutte_enumerator", ok, detail)]
    split_prod = enumerator_product(code, supp)
    ok2 = split_prod == direct
    checks.append(
        Check("factorized_refined_enumerator", ok2,
              "" if ok2 else "per-factor refined product mismatch")
    )
    return Report.from_checks(checks)


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
    levels = supp.of_digits(ring.encode(code.codewords, code.n))
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

    Each per-axis difference of ``enumerator_from_rprime`` is this
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
