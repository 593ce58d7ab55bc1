"""Explicit finite lattices: order/join/meet tables, structural predicates,
constructions (interval, dual, product), and concrete builders.

Lattices are fully materialized with O(N^2) tables; element labels are
domain objects (subsets, support vectors, rref bases, codes) so that
cross-module identification goes through labels, never raw indices.

``build_lattice`` is the one place where an order from outside is checked
and completed.  One exact float32 product of the order matrix with itself
counts the elements between each pair; it checks transitivity and gives the
cover relation.  The meet table then follows from the lower-cover
recurrence (the one SageMath's ``HasseDiagram`` uses): in a linear
extension (elements sorted by the size of their down-set), meet(x, y) for y
before x is the last of the meet(z, y) over the lower covers z of x, and
the poset has that meet exactly when this element lies above all the
others.  Each x is one vectorized row, so the cost is O(N^2 * degree)
element operations plus the O(N^3) product in BLAS; joins are the same
recurrence on the reversed order.  Subspace and submodule lattices get
their order from a membership matrix, the submodule masks the code keeps
(``Code.submodule_masks``): a <= b when no member of a lies outside b, one
exact float32 product ``members @ ~members.T == 0``.

Lattices built from lattices keep their tables.  A product's order, join
and meet are componentwise and a cover changes one coordinate by a cover
(Davey and Priestley, ch. 2); ``dual`` transposes and swaps join with meet;
``interval`` slices.  A lattice grades itself (a breadth-first search
along covers), indexes its labels, finds its atoms and answers
``is_modular_lattice``/``is_complemented_lattice`` on the first read of
``height``, ``index``, ``atoms``, ``is_modular`` or ``is_complemented``,
and keeps the answer: the many intervals and duals that ``core.restrict``
and ``core.dual_latroid`` build are mostly only validated, which never
reads them.  Grids are products of chains, each chain built once;
boolean lattices are renumbered grids of 2-chains; and the rectangular
modules of R^n form the grid of chain-support levels.  Every builder
checks ``LATTICE_CAP`` before it allocates an N x N array.  On a 2-vCPU x86
machine the 4096-element boolean lattice builds in about 1 s and the 3^7
grid in 0.04 s, against about 5 s and 1 s through the recurrence.

The lattices a latroid sits on depend on the ambient module R^n, never on
the code.  The chains (``_chain``) and the subspace lattices of F_q^n
(``_subspaces``) are built once per process for each key, whose count the
caps bound.  ``boolean_lattice(n)`` and the submodule lattice of R^n
(``_ambient_submodules``), on which the block matroids and the
submodule-lattice latroids sit, keep the last ``_AMBIENT_KEPT`` keys each,
so that several latroids or commands on one R^n in a row build it once.
At the 4096-element cap the tables of one lattice (two N x N bool, two
N x N int32) hold about 168 MB, so these two keep at most about 670 MB of
tables, plus the labels.  ``grid_lattice``, ``chain_support_lattice`` and
``submodule_lattice`` of a code are built on every call.  Every
``FiniteLattice`` holds read-only views of its tables, so no caller can
change a shared one, and the arrays a caller hands in stay writable.

Scans over all N^2 pairs (``core.scan_rows``: ``core.validate_latroid``
on the int64 rank and length tables, the pairwise axiom checks) run a
block of rows at a time: one N x N x u int64 temporary per comparison
would cost hundreds of megabytes at a few thousand elements, and walking
the blocks in order keeps the first failing pair in row-major order as the
witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import Code, enumerate_submodules, full_space, rref
from .errors import NotALatticeError, NotGradedError
from .limits import LATTICE_CAP, SUBMODULE_CAP, check_cap
from .report import Check, Report
from .rings import Pir, chain_ring, is_prime

# How many keys ``boolean_lattice`` and ``_ambient_submodules`` keep each.
_AMBIENT_KEPT = 2


class FiniteLattice:
    """A finite lattice on indexed, hashable labels, held as tables: ``leq``
    and ``covers`` (bool), ``join`` and ``meet`` (int32 indices).  It trusts
    them; ``build_lattice`` is what checks an order from outside.

    Building one stores read-only views of the tables (the ambient
    lattices are shared by every caller) and finds the bottom and top; the
    cached properties below are computed on first read and kept."""

    def __init__(self, labels, leq, covers, join, meet):
        self.labels = tuple(labels)
        self.size = len(self.labels)
        self.leq, self.covers, self.join, self.meet = map(_read_only, (leq, covers, join, meet))
        self.bottom = int(np.flatnonzero(leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(leq.all(axis=0))[0])

    @functools.cached_property
    def height(self):
        """The height of each element as a tuple, or None if not graded."""
        return _height_if_graded(self.covers, self.bottom)

    @functools.cached_property
    def index(self) -> dict:
        """The position of each label."""
        return {lab: i for i, lab in enumerate(self.labels)}

    @functools.cached_property
    def atoms(self) -> tuple[int, ...]:
        """The elements that cover the bottom."""
        return tuple(np.flatnonzero(self.covers[self.bottom]).tolist())

    @functools.cached_property
    def is_modular(self) -> bool:
        """Answered once: ``is_modular_lattice``."""
        return is_modular_lattice(self)

    @functools.cached_property
    def is_complemented(self) -> bool:
        """Answered once: ``is_complemented_lattice``."""
        return is_complemented_lattice(self)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLattice)
            and self.labels == other.labels
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self):
        return hash(self.labels)

    def __len__(self):
        return self.size

    def lt(self, a: int, b: int) -> bool:
        return a != b and bool(self.leq[a, b])

    @property
    def is_graded(self) -> bool:
        return self.height is not None

    def hgt(self, a: int) -> int:
        if self.height is None:
            raise NotGradedError("lattice is not graded")
        return self.height[a]

    def pairs(self):
        return itertools.product(range(self.size), repeat=2)

    def comparable_pairs(self):
        """All (a, b) with a < b."""
        rows, cols = np.nonzero(self.leq & ~np.eye(self.size, dtype=bool))
        return zip(rows.tolist(), cols.tolist())

    def __repr__(self):
        return f"FiniteLattice({self.size} elements)"


def _check_partial_order(leq: np.ndarray, labels) -> np.ndarray:
    """Validate a partial order and return its cover relation.

    ``between[a, b]`` counts the c with a <= c <= b, from one float32 BLAS
    product; the counts are below N <= LATTICE_CAP < 2**24, so they are
    exact.  Transitivity fails where a count is nonzero but a is not below
    b, and a < b is a cover exactly when a and b are the only such c.
    """
    n = leq.shape[0]
    if leq.shape != (n, n):
        raise ValueError("leq must be square")
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        raise ValueError(f"order not reflexive at {labels[i]}")
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        a, b = map(int, np.argwhere(sym)[0])
        raise ValueError(f"order not antisymmetric at {labels[a]}, {labels[b]}")
    order = leq.astype(np.float32)
    between = order @ order
    bad = (between > 0) & ~leq
    if bad.any():
        a, b = map(int, np.argwhere(bad)[0])
        raise ValueError(f"order not transitive at {labels[a]}, {labels[b]}")
    return between == 2


def _meet_table(leq: np.ndarray, covers: np.ndarray, labels, what: str) -> np.ndarray:
    """Greatest lower bounds of a partial order by the lower-cover
    recurrence (pass leq.T and covers.T for joins).

    Elements are taken in a linear extension.  For y before x, every lower
    bound of x and y other than x lies below some lower cover z of x, so
    meet(x, y) is the greatest of the meet(z, y): the last of them in the
    extension, provided it lies above all the others.  If it does not, or
    x has no lower cover, x and y have no meet.
    """
    n = leq.shape[0]
    order = np.argsort(leq.sum(axis=0), kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    # Both tables in extension positions: position i holds element order[i].
    pleq = leq[np.ix_(order, order)]
    pcov = covers[np.ix_(order, order)]
    table = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        table[x, x] = x
        if x == 0:
            continue
        below = np.flatnonzero(pcov[:, x])
        if below.size == 0:
            a, b = labels[order[x]], labels[order[0]]
            raise NotALatticeError(f"no {what} for {a} and {b}", pair=(a, b))
        cand = table[below, :x]
        best = cand.max(axis=0)
        ok = pleq[cand, best].all(axis=0)
        if not ok.all():
            y = int(np.flatnonzero(~ok)[0])
            a, b = labels[order[x]], labels[order[y]]
            raise NotALatticeError(f"{what} of {a} and {b} is not unique", pair=(a, b))
        table[x, :x] = best
        table[:x, x] = best
    return order.astype(np.int32)[table][np.ix_(pos, pos)]


def _height_if_graded(covers: np.ndarray, bottom: int):
    """Heights by breadth-first search from the bottom along covers.  The
    lattice is graded exactly when no cover leads back to an element that
    already has a height."""
    height = np.full(len(covers), -1)
    height[bottom] = 0
    frontier, level = np.array([bottom]), 0
    while frontier.size:
        level += 1
        above = covers[frontier].any(axis=0)
        if (above & (height >= 0)).any():
            return None
        frontier = np.flatnonzero(above)
        height[frontier] = level
    return tuple(height.tolist())


def _read_only(table: np.ndarray) -> np.ndarray:
    """A view of ``table`` that cannot be written through; ``table`` itself
    stays as it was."""
    view = table.view()
    view.flags.writeable = False
    return view


def _check_size(size: int) -> None:
    check_cap(size, LATTICE_CAP, "lattice size")


def build_lattice(labels, leq: np.ndarray) -> FiniteLattice:
    """The lattice of a boolean order matrix from outside, checked and
    completed with covers, joins and meets."""
    labels = tuple(labels)
    _check_size(len(labels))
    if len(set(labels)) != len(labels):
        raise ValueError("lattice labels must be distinct")
    leq = np.asarray(leq, dtype=bool)
    covers = _check_partial_order(leq, labels)
    join = _meet_table(leq.T, covers.T, labels, "join")
    return FiniteLattice(labels, leq, covers, join, _meet_table(leq, covers, labels, "meet"))


# -- structural predicates ----------------------------------------------------


@dataclass(frozen=True)
class LatticeFlags:
    is_graded: bool
    is_modular: bool
    is_distributive: bool
    is_complemented: bool
    is_relatively_complemented: bool


def is_modular_lattice(lat: FiniteLattice) -> bool:
    """Birkhoff: a lattice of finite length is modular exactly when it is
    graded and h(x) + h(y) = h(x v y) + h(x ^ y) for all x, y."""
    if lat.height is None:
        return False
    h = np.array(lat.height)
    return bool((h[:, None] + h == h[lat.join] + h[lat.meet]).all())


def is_distributive_lattice(lat: FiniteLattice) -> bool:
    n = lat.size
    for l3 in range(n):
        lhs = lat.meet[np.arange(n)[:, None], lat.join[:, l3][None, :]]
        rhs = lat.join[lat.meet, lat.meet[:, l3][:, None]]
        if (lhs != rhs).any():
            return False
    return True


def is_complemented_lattice(lat: FiniteLattice) -> bool:
    ok = (lat.meet == lat.bottom) & (lat.join == lat.top)
    return bool(ok.any(axis=1).all())


def is_relatively_complemented_lattice(lat: FiniteLattice) -> bool:
    for a, b in lat.pairs():
        if not lat.leq[a, b]:
            continue
        interval_idx = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
        m = lat.meet[np.ix_(interval_idx, interval_idx)]
        j = lat.join[np.ix_(interval_idx, interval_idx)]
        has = ((m == a) & (j == b)).any(axis=1)
        if not has.all():
            return False
    return True


def predicates(lat: FiniteLattice) -> LatticeFlags:
    return LatticeFlags(
        is_graded=lat.is_graded,
        is_modular=lat.is_modular,
        is_distributive=is_distributive_lattice(lat),
        is_complemented=lat.is_complemented,
        is_relatively_complemented=is_relatively_complemented_lattice(lat),
    )


def atoms_join_check(lat: FiniteLattice) -> Report:
    """Every element should be the join of the atoms below it (holds on
    relatively complemented lattices); reports the first failure."""

    def joins_of_atoms():
        for x in range(lat.size):
            j = lat.bottom
            for a in lat.atoms:
                if lat.leq[a, x]:
                    j = int(lat.join[j, a])
            if j != x:
                yield f"element {lat.labels[x]} is not the join of its atoms"

    return Report.from_checks([Check.from_witnesses("atoms_join", joins_of_atoms())])


# -- constructions -------------------------------------------------------------


def interval(lat: FiniteLattice, a: int, b: int) -> FiniteLattice:
    """The sublattice of elements between a and b."""
    if not lat.leq[a, b]:
        raise ValueError(f"{lat.labels[a]} is not below {lat.labels[b]}")
    idx = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
    return _renumbered(lat, idx, [lat.labels[int(i)] for i in idx])


def dual(lat: FiniteLattice) -> FiniteLattice:
    """Same labels, reversed order."""
    return FiniteLattice(lat.labels, lat.leq.T, lat.covers.T, lat.meet, lat.join)


def _renumbered(lat: FiniteLattice, idx: np.ndarray, labels) -> FiniteLattice:
    """The elements ``idx`` of ``lat``, numbered in that order.  Valid only
    for an interval (its joins, meets and covers are those of ``lat``) or a
    permutation of all of ``lat``."""
    pos = np.zeros(lat.size, dtype=np.int32)
    pos[idx] = np.arange(len(idx), dtype=np.int32)
    sub = np.ix_(idx, idx)
    return FiniteLattice(labels, lat.leq[sub], lat.covers[sub], pos[lat.join[sub]], pos[lat.meet[sub]])


def product(*lats: FiniteLattice) -> FiniteLattice:
    """The product lattice on flat label tuples, numbered row-major (the
    last factor varies fastest).  Factors are taken last to first, each in
    front of the product of those after it, so that the long axis of every
    broadcast is the inner one."""
    _check_size(math.prod(lat.size for lat in lats))
    leq, covers = np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)
    join = meet = np.zeros((1, 1), dtype=np.int32)
    for lat in reversed(lats):
        n = len(leq)
        leq = _product_table(lat.leq, leq, np.logical_and)
        covers = (_product_table(lat.covers, np.eye(n, dtype=bool), np.logical_and)
                  | _product_table(np.eye(lat.size, dtype=bool), covers, np.logical_and))
        join = _product_table(lat.join * n, join, np.add)
        meet = _product_table(lat.meet * n, meet, np.add)
    return FiniteLattice(itertools.product(*(lat.labels for lat in lats)), leq, covers, join, meet)


def _product_table(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """op(a[i, k], b[j, l]) at row i * len(b) + j and column k * len(b) + l:
    a table of a product of two lattices from one table of each."""
    n = len(a) * len(b)
    return op(a[:, None, :, None], b[None, :, None, :]).reshape(n, n)


# -- concrete builders ----------------------------------------------------------


@functools.cache
def _chain(top: int) -> FiniteLattice:
    """The chain 0 < 1 < ... < top, built once for each length and shared,
    as ``_subspaces`` is: its tables are read-only."""
    _check_size(top + 1)
    return build_lattice(range(top + 1), np.triu(np.ones((top + 1, top + 1), dtype=bool)))


def grid_lattice(ranges) -> FiniteLattice:
    """Integer vectors 0 <= v[i] <= ranges[i] under the product order: the
    product of chains, labelled by the vectors.  Not kept: the cached
    ``boolean_lattice`` would otherwise keep its unrenumbered grid too."""
    return product(*(_chain(r) for r in ranges))


@functools.lru_cache(maxsize=_AMBIENT_KEPT)
def boolean_lattice(n: int) -> FiniteLattice:
    """Subsets of {0..n-1} ordered by inclusion, numbered by size and then
    in ``combinations`` order: the grid {0,1}^n renumbered.  Kept for the
    last ``_AMBIENT_KEPT`` lengths: the block matroids of length n all sit
    on it."""
    subsets = [c for size in range(n + 1) for c in itertools.combinations(range(n), size)]
    idx = np.array([sum(1 << (n - 1 - i) for i in c) for c in subsets], dtype=np.intp)
    return _renumbered(grid_lattice([1] * n), idx, map(frozenset, subsets))


def _membership_order(members: np.ndarray) -> np.ndarray:
    """leq[a, b]: no member of a lies outside b.  The float32 product counts
    those members exactly, as there are fewer than 2**24 points; the size
    is checked before it allocates its N x N matrix."""
    _check_size(len(members))
    inside = members.astype(np.float32)
    return inside @ (1 - inside).T == 0


def chain_support_lattice(ring: Pir, n: int) -> FiniteLattice:
    """The rectangular modules of R^n under containment, as the grid of
    chain-support levels (coordinate-major, as ChainSupport): g is the module
    M_g = {v : ChainSupport(v) <= g}, since (p^e) is level <= k - e of Z_{p^k}."""
    ranges = [f.k for _ in range(n) for f in ring.factors]
    return grid_lattice(ranges)


def _dominated(levels: np.ndarray, values: np.ndarray, top, ufunc) -> np.ndarray:
    """out[g] = ``ufunc`` of 0 and the values of the rows of ``levels`` below g,
    for each g of the grid 0..top: the values dropped on the grid, then one
    running ``ufunc`` along each axis (a count with ``np.add`` and values 1,
    a set support with ``np.maximum``), in memory the size of the grid."""
    out = np.zeros([t + 1 for t in top] + list(np.shape(values)[1:]), dtype=np.int64)
    ufunc.at(out, tuple(levels.T), values)
    for axis in range(len(top)):
        ufunc.accumulate(out, axis=axis, out=out)
    return out


def subspace_lattice(q: int, n: int) -> FiniteLattice:
    """All subspaces of F_q^n, labelled by rref bases, ordered by inclusion."""
    return _subspaces(q, n)[0]


@functools.cache
def _subspaces(q: int, n: int) -> tuple[FiniteLattice, np.ndarray]:
    """The subspace lattice of F_q^n, sorted by (dim, rref basis), and its
    read-only membership matrix: row i marks the vectors of subspace i,
    indexed as in ``Pir.space``.  The subspaces are the submodule masks of
    F_q^n, each labelled by the ``rref`` of the digit rows it marks, so F_q^n
    is checked against the cap of their enumeration before it is spanned.

    Built once for each (q, n) and shared, as ``_chain`` is: the rank-metric
    latroids of one F_q^n all sit on it.  An entry lives as long as the
    process, and the caps bound it: the largest, F_7^4 (3652 subspaces),
    holds about 133 MB of tables, F_2^6 (2825) about 80 MB; ``selftest``
    keeps 5 entries, none past F_2^3."""
    check_cap(q**n, SUBMODULE_CAP, f"enumerating F_{q}^{n}")
    if not is_prime(q):
        raise ValueError(f"only prime fields are supported, got q = {q}")
    space = full_space(chain_ring(q, 1), n)
    masks = space.submodule_masks
    bases = [rref(space.digits[row].tolist(), q) for row in masks]
    order = sorted(range(len(bases)), key=lambda i: (len(bases[i]), bases[i]))
    members = masks[order]
    members.flags.writeable = False
    return build_lattice([bases[i] for i in order], _membership_order(members)), members


def submodule_lattice(code: Code) -> FiniteLattice:
    """All submodules of the given code, ordered by inclusion, which is read
    off the code's submodule masks."""
    return build_lattice(enumerate_submodules(code), _membership_order(code.submodule_masks))


@functools.lru_cache(maxsize=_AMBIENT_KEPT)
def _ambient_submodules(ring: Pir, n: int) -> FiniteLattice:
    """The submodule lattice of R^n, kept for the last ``_AMBIENT_KEPT``
    (ring, n): the submodule-lattice latroids of codes in R^n all sit on
    it.  The caller checks R^n against the cap of the enumeration first."""
    return submodule_lattice(full_space(ring, n))
