"""Explicit finite lattices: order/join/meet tables, the modular and
complemented predicates, constructions (interval, dual, product), and
concrete builders.

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
recurrence on the reversed order.  In the package only the chains
(``_chain``) go through it.

The subspace lattices of F_q^n and the submodule lattices of R^n skip that
check, because their algebra gives the tables (``_closed_family``).  Both
are families of subsets of R^n closed under intersection, held as
membership rows over ``Pir.space`` (the submodule masks of R^n,
``Code.submodule_masks``) packed into 64-bit words.  meet[a, b] is the
element whose row is the AND of a's and b's: a 64-bit key of the row finds
it through one bucket table over the sorted keys of the family, and a word
by word compare confirms it.  a <= b where meet[a, b] = a, and b covers a
where the composition length also rises by 1.  Over a Frobenius ring,
C -> C^perp under the standard dot product (one CRT factor at a time) is an
inclusion-reversing involution with |C| |C^perp| = |R|^n (Wood,
*Amer. J. Math.* 121, 1999), so join[a, b] = (a^perp ^ b^perp)^perp.  The
perps come level by level from rows of the nonzero-dot-product table of
R^n, which only this module builds (``_nonorthogonal``).  Every table is
checked exactly and a failed check raises.  The cost is O(N^2) word
operations, a block of rows at a time, with no N x N x N product: on a
2-vCPU x86 machine the 2825 subspaces of F_2^6 take about 0.55 s from
scratch (enumeration and rref labels included) at about 120 MB peak RSS,
against about 2 s and 220 MB through ``build_lattice``.

Lattices built from lattices keep their tables.  A product's order, join
and meet are componentwise and a cover changes one coordinate by a cover
(Davey and Priestley, ch. 2); ``dual`` transposes and swaps join with meet;
``interval`` slices, and the submodule lattice of a code other than R^n is
the interval [0, C] of the lattice of R^n.  A lattice grades itself (a
breadth-first search along covers), indexes its labels, finds its atoms
and answers ``is_modular_lattice``/``is_complemented_lattice`` on the first
read of ``height``, ``index``, ``atoms``, ``is_modular`` or
``is_complemented``, and keeps the answer: the many intervals and duals
that ``core.restrict`` and ``core.dual_latroid`` build are mostly only
validated, which never reads them.  Grids are products of chains, each
chain built once; boolean lattices are renumbered grids of 2-chains; and
the rectangular modules of R^n form the grid of chain-support levels.
Every builder checks ``LATTICE_CAP`` before it allocates an N x N array.
On a 2-vCPU x86 machine the 4096-element boolean lattice builds in about
1 s and the 3^7 grid in 0.04 s, against about 5 s and 1 s through the
recurrence.

The lattices a latroid sits on depend on the ambient module R^n, never on
the code.  The chains (``_chain``) and the subspace lattices of F_q^n
(``_subspaces``, with their membership rows and perps) are built once per
process for each key, whose count the caps bound.  ``boolean_lattice(n)``
and the submodule lattice of R^n (``_ambient_submodules``), on which the
block matroids and the submodule-lattice latroids sit, keep the last
``_AMBIENT_KEPT`` keys each, so that several latroids or commands on one
R^n in a row build it once.  At the 4096-element cap the tables of one
lattice (two N x N bool, two N x N int32) hold about 168 MB, so these two
keep at most about 670 MB of tables, plus the labels and their texts.
``grid_lattice``, ``chain_support_lattice`` and the submodule lattice of a
code other than R^n are built on every call.  The text of every label (a
subset or a submodule in braces, each distinct codeword made into text
once) lives on its lattice, as the cached ``label_texts``: the CLI's
reports read it there, so a command on a kept R^n after the first formats
no label, and the texts go when the lattice goes.  Every ``FiniteLattice``
holds read-only views of its tables, so no caller can change a shared one,
and the arrays a caller hands in stay writable.

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

import numpy as np

from .codes import Code, _composition_lengths, enumerate_submodules, full_space, rref
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
    def label_texts(self) -> tuple[str, ...]:
        """The text of each label (``_label_texts``), made on first read."""
        return _label_texts(self.labels)

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


class _WordTexts(dict):
    """Codeword -> its text under one separator, each made once, on the
    first lookup."""

    def __init__(self, sep: str):
        self.sep = sep

    def __missing__(self, word):
        text = self[word] = _word_text(word, self.sep)
        return text


def _word_text(word, sep: str) -> str:
    """A codeword as one token: its entries as in ``gen`` lines (a residue,
    or colon-joined residues over a product ring), joined by ``sep``."""
    return sep.join(":".join(map(str, a)) for a in word)


def _label_texts(labels) -> tuple[str, ...]:
    """Each label as text: a subset, or a submodule as its sorted codewords,
    in braces; any other label by ``str``.  A codeword's entries run together
    when every entry is one digit and are dot-separated otherwise.  Each
    distinct codeword is made into text once for all the labels."""
    words = {"": _WordTexts(""), ".": _WordTexts(".")}
    out = []
    for label in labels:
        if isinstance(label, Code):
            ring = label.ring
            texts = words["" if ring.ell == 1 and ring.size <= 10 else "."]
            out.append("{" + ",".join(map(texts.__getitem__, label.sorted_words())) + "}")
        elif isinstance(label, frozenset):
            out.append("{" + ",".join(map(str, sorted(label))) + "}")
        else:
            out.append(str(label))
    return tuple(out)


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


def is_modular_lattice(lat: FiniteLattice) -> bool:
    """Birkhoff: a lattice of finite length is modular exactly when it is
    graded and h(x) + h(y) = h(x v y) + h(x ^ y) for all x, y."""
    if lat.height is None:
        return False
    h = np.array(lat.height)
    return bool((h[:, None] + h == h[lat.join] + h[lat.meet]).all())


def is_complemented_lattice(lat: FiniteLattice) -> bool:
    ok = (lat.meet == lat.bottom) & (lat.join == lat.top)
    return bool(ok.any(axis=1).all())


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
def _subspaces(q: int, n: int) -> tuple[FiniteLattice, np.ndarray, np.ndarray]:
    """The subspace lattice of F_q^n, sorted by (dim, rref basis), its
    membership matrix (row i marks the vectors of subspace i, indexed as in
    ``Pir.space``) and the index of each subspace's orthogonal complement,
    both read-only.  The subspaces are the submodule masks of F_q^n, each
    labelled by the ``rref`` of the digit rows it marks, so F_q^n is checked
    against the cap of their enumeration before it is spanned; the tables
    come from ``_closed_family``.

    Built once for each (q, n) and shared, as ``_chain`` is: the rank-metric
    latroids of one F_q^n all sit on it.  An entry lives as long as the
    process, and the caps bound it: N subspaces of q^n vectors keep
    10 N^2 bytes of tables (two bool, two int32), N q^n bytes of members
    and 8 N of perps.  The largest, F_7^4 (3652 subspaces), holds about
    142 MB, F_2^6 (2825) about 80 MB; ``selftest`` keeps 5 entries, none
    past F_2^3."""
    check_cap(q**n, SUBMODULE_CAP, f"enumerating F_{q}^{n}")
    if not is_prime(q):
        raise ValueError(f"only prime fields are supported, got q = {q}")
    ring = chain_ring(q, 1)
    space = full_space(ring, n)
    masks = space.submodule_masks
    bases = [rref(space.digits[row].tolist(), q) for row in masks]
    order = sorted(range(len(bases)), key=lambda i: (len(bases[i]), bases[i]))
    members = masks[order]
    members.flags.writeable = False
    lattice, perp = _closed_family(ring, n, [bases[i] for i in order], members)
    return lattice, members, perp


def submodule_lattice(code: Code) -> FiniteLattice:
    """All submodules of the given code, ordered by inclusion.  Those of
    R^n come from ``_closed_family`` on the code's submodule masks; those
    of any other code are the interval [0, C] of that lattice, which
    ``_ambient_submodules`` keeps, so R^n is checked against the cap of the
    enumeration first."""
    ring, n = code.ring, code.n
    if len(code) < ring.size**n:
        check_cap(ring.size**n, SUBMODULE_CAP, "submodule enumeration")
        ambient = _ambient_submodules(ring, n)
        return interval(ambient, ambient.bottom, ambient.index[code])
    return _closed_family(ring, n, enumerate_submodules(code), code.submodule_masks)[0]


@functools.lru_cache(maxsize=_AMBIENT_KEPT)
def _ambient_submodules(ring: Pir, n: int) -> FiniteLattice:
    """The submodule lattice of R^n, kept for the last ``_AMBIENT_KEPT``
    (ring, n): the submodule-lattice latroids of codes in R^n all sit on
    it.  The caller checks R^n against the cap of the enumeration first."""
    return submodule_lattice(full_space(ring, n))


# -- lattices closed under intersection and duality --------------------------

#: Words per block of the (row, column, word) temporaries of
#: ``_closed_family``; bounds its peak memory.
_WORD_BLOCK = 1 << 18

_GOLDEN, _MIX1, _MIX2 = (np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _packed(members: np.ndarray) -> np.ndarray:
    """Boolean rows (last axis) packed into uint64 words, zero-padded."""
    packed = np.packbits(members, axis=-1)
    out = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def _row_keys(words: np.ndarray) -> np.ndarray:
    """A 64-bit key of each packed row (last axis): every word plus a
    constant for its place, through the splitmix64 finalizer, summed
    mod 2^64.  The finalizer is a bijection, so one-word rows never
    collide; ``_locator`` checks the family's keys anyway."""
    z = words + _GOLDEN * np.arange(1, words.shape[-1] + 1, dtype=np.uint64)
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> np.uint64(shift)
        z *= factor
    z ^= z >> np.uint64(31)
    return z.sum(axis=-1, dtype=np.uint64)


def _locator(words: np.ndarray):
    """find(rows): for packed rows (last axis the words), the element of
    the family ``words`` whose row each one is, and whether it is exactly
    that row.  The family's keys are sorted once, and one ``searchsorted``
    gives the first of them in each bucket of their top bits (two to four
    buckets per element); a query starts at its bucket and steps on while
    the key there is smaller, and the row found is compared word by word."""
    keys = _row_keys(words)
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("two membership rows share a key")
    bits = len(keys).bit_length() + 1
    shift = np.uint64(64 - bits)
    starts = np.searchsorted(keys, np.arange(1 << bits, dtype=np.uint64) << shift)
    keys = np.append(keys, np.uint64(2**64 - 1))
    order = np.append(order, 0)

    def find(rows: np.ndarray) -> tuple[np.ndarray, bool]:
        wanted = _row_keys(rows).ravel()
        pos = starts[wanted >> shift]
        todo = np.flatnonzero(keys[pos] < wanted)
        while todo.size:
            pos[todo] += 1
            todo = todo[keys[pos[todo]] < wanted[todo]]
        found = order[pos].reshape(rows.shape[:-1])
        return found, bool((words[found] == rows).all())

    return find


def _nonorthogonal(ring: Pir, n: int, vectors: np.ndarray) -> np.ndarray:
    """skew[i, y]: the vector of index y of R^n (``Pir.space``) is not
    orthogonal to the vector of index ``vectors[i]``: in some CRT factor
    their dot product is nonzero."""
    space, ell = ring.space(n), ring.ell
    skew = np.zeros((len(vectors), len(space)), dtype=bool)
    for j, size in enumerate(ring.sizes):
        part = space[:, j::ell]
        skew |= part[vectors] @ part.T % size != 0
    return skew


def _perp_rows(ring: Pir, n: int, members, covers, length) -> np.ndarray:
    """The packed membership row of V^perp for every element V, level by
    level: the bottom's is the top's row (all of R^n), and V = U + <x> for
    any lower cover U of V and any x of V outside U, so V^perp is U^perp
    cut by the vectors orthogonal to x."""
    below = covers.argmax(axis=0)
    outside = (members & ~members[below]).argmax(axis=1)
    orthogonal = _packed(~_nonorthogonal(ring, n, outside))
    rows = np.empty_like(orthogonal)
    rows[length.argmin()] = _packed(members[length.argmax()])
    for level in range(1, int(length.max()) + 1):
        at = np.flatnonzero(length == level)
        rows[at] = rows[below[at]] & orthogonal[at]
    return rows


def _closed_family(ring: Pir, n: int, labels, members: np.ndarray):
    """The lattice of a family of submodules of R^n closed under
    intersection and under C -> C^perp, given as membership rows over
    ``Pir.space`` (``members``, one row per label), and the index of each
    element's perp (read-only int64).

    meet[a, b] is the element whose row is the AND of a's and b's packed
    rows, found by ``_locator`` and compared word by word; a <= b exactly
    when meet[a, b] = a, and b covers a when a <= b and lambda rises by 1.
    The perps follow by ``_perp_rows``, and join[a, b] = (a^perp ^
    b^perp)^perp.  Every result is checked exactly, and a failure raises:
    each AND and perp row is a member row, perp is an involution with
    |V| |V^perp| = |R|^n, and join >= a, b with |join| |meet| = |a| |b|,
    so that join is a + b.  The temporaries are taken a block of
    ``_WORD_BLOCK`` words at a time."""
    labels = tuple(labels)
    size = len(labels)
    _check_size(size)
    words = _packed(members)
    find = _locator(words)
    step = max(1, _WORD_BLOCK // (size * words.shape[1]))
    blocks = [(start, min(start + step, size)) for start in range(0, size, step)]
    # meet is symmetric: each block of rows is found from its diagonal on
    meet = np.empty((size, size), dtype=np.int32)
    for start, stop in blocks:
        found, exact = find(words[start:stop, None] & words[None, start:])
        if not exact:
            raise NotALatticeError("the membership rows are not closed under intersection")
        meet[start:stop, start:] = found
        meet[start:, start:stop] = found.T
    index = np.arange(size)
    leq = meet == index[:, None]
    sizes = members.sum(axis=1)
    length = _composition_lengths(sizes.tolist(), ring)
    covers = leq & (length == length[:, None] + 1)
    perp, exact = find(_perp_rows(ring, n, members, covers, length))
    if not (exact and (perp[perp] == index).all() and (sizes * sizes[perp] == ring.size**n).all()):
        raise ValueError("the membership rows are not closed under a perp of |R|^n / |V| elements")
    # join is symmetric too, so join >= a for every (a, b) is join >= b
    join = np.empty_like(meet)
    for start, stop in blocks:
        join[start:stop] = above = perp[meet[perp[start:stop]][:, perp]]
        bounded = np.take_along_axis(leq[start:stop], above, axis=1)
        modular = sizes[above] * sizes[meet[start:stop]] == sizes[start:stop, None] * sizes
        if not (bounded & modular).all():
            raise NotALatticeError("the perp of the meet of the perps is not the join")
    perp = _read_only(perp)
    return FiniteLattice(labels, leq, covers, join, meet), perp
