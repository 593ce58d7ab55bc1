"""Linear codes over product rings: materialized codeword sets, the module
invariants lambda / mu / M, and submodule enumeration.  A code's
rectangular closure is the point ``ChainSupport.of_set`` of its words in
``lattices.chain_support_lattice``.

Codes are kept as full codeword sets in a canonical sorted order; every
downstream computation here is exhaustive, so set equality is the only
notion of code equality we need.  A code sorts its words once, on the first
``sorted_words`` call, and keeps the tuple; the submodules that
``enumerate_submodules`` builds are handed theirs, already sorted, by the
mask columns, so neither the digit rows nor the label texts of a submodule
lattice sort a submodule's words again.

A code keeps its sorted words as digit rows (``Code.digits``, the encoding
of R^n from ``rings``), which every array consumer reads.  Its submodules
are membership masks over those words (``Code.submodule_masks``): the masks
of the cyclic submodules are closed under sums with one cyclic at a time
through a table of word differences, on the first read, and kept.  The
masks are the one thing the subcode oracle reads: ``submodule_invariants``
gives lambda, M and the support weight of every submodule as array
reductions, kept on the code for the last support asked, so no weight
query builds a submodule's codeword set and the queries of one support
share one pass.
``enumerate_submodules`` builds those codeword sets for the one caller that
needs ``Code`` labels, ``lattices.submodule_lattice``; the subspace lattices
label each mask by the ``rref`` of the rows it marks.  Distinct rows
and keys are found by sorting and masking equal neighbours, and sets of
positions by a mark array, never by numpy's ``unique``: numpy 2 imports
``numpy.ma`` on its first call, 10-20 ms that every process would pay.
``full_space`` decodes the digit space ``Pir.space``, and ``Code.factor``
the digit columns of one CRT factor.  Only ``span`` stays on ``Pir``
tuple arithmetic: it builds small sets of tuples, which is what callers
hold.  It takes the distinct multiples of each generator once and adds
each of them to every word found so far; the benchmark harness
(``perfbench/tracing.py``) counts the ``Pir.add`` and ``Pir.vadd`` calls it
makes.  The composition length lambda(C) is read off |C| alone, with no
projection onto the CRT factors, by one prime count over an array of sizes
(``_composition_lengths``) that ``length_lambda`` and the submodule
lattices share.

Over a prime field F_p, ``rref`` row-reduces a list of vectors; the reduced
row echelon basis is the canonical label of the subspace they span (the
labels of ``lattices.subspace_lattice``), and its length is the dimension
(the row spaces the rank-weight oracles measure).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .limits import LATTICE_CAP, SPAN_CAP, SUBMODULE_CAP, check_cap
from .rings import Pir, Vector, intlog, is_prime


@dataclass(frozen=True, eq=False)
class Code:
    """An R-submodule of R^n, materialized as its full codeword set.

    Identity is by codeword set: the recorded generators are bookkeeping.
    """

    ring: Pir
    n: int
    generators: tuple[Vector, ...]
    codewords: frozenset[Vector]

    def __post_init__(self):
        for v in self.generators:
            if len(v) != self.n:
                raise ValueError(f"generator {v} does not have length {self.n}")

    def __eq__(self, other):
        return (
            isinstance(other, Code)
            and self.ring == other.ring
            and self.n == other.n
            and self.codewords == other.codewords
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.codewords))

    def __len__(self):
        return len(self.codewords)

    def __contains__(self, v: Vector) -> bool:
        return v in self.codewords

    def __le__(self, other: "Code") -> bool:
        return self.codewords <= other.codewords

    def sorted_words(self) -> tuple[Vector, ...]:
        """The codewords in sorted order, sorted on the first call and kept
        (``enumerate_submodules`` hands its codes theirs already sorted)."""
        return self._sorted_words

    @functools.cached_property
    def _sorted_words(self) -> tuple[Vector, ...]:
        return tuple(sorted(self.codewords))

    def is_zero(self) -> bool:
        return len(self.codewords) == 1

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """The sorted words as rows of digits (``Pir.encode``), read-only."""
        digits = self.ring.encode(self.sorted_words(), self.n)
        digits.flags.writeable = False
        return digits

    @functools.cached_property
    def submodule_masks(self) -> np.ndarray:
        """The submodules as masks over the sorted words (``_submodule_masks``),
        enumerated on first read and kept: the weight oracle, the enumerators
        and the submodule lattice of one code share them."""
        return _submodule_masks(self)

    def factor(self, i: int) -> "Code":
        """The projection onto the i-th CRT factor, as a code over R_i."""
        ring = self.ring.factor_ring(i)
        return Code(ring, self.n, (), frozenset(ring.decode(self.digits[:, i :: self.ring.ell])))


def span(ring: Pir, n: int, generators, cap: int = SPAN_CAP) -> Code:
    """The R-linear span of the given vectors in R^n.  It never enumerates
    R^n, so ``cap`` bounds only |C|, checked after each generator."""
    generators = tuple(tuple(v) for v in generators)
    words = {ring.zero_vector(n)}
    for g in generators:
        if len(g) != n:
            raise ValueError(f"generator {g} does not have length {n}")
        multiples = {ring.vscale(r, g) for r in ring.elements()}
        words = {ring.vadd(w, m) for w in words for m in multiples}
        check_cap(len(words), cap, "codeword materialization")
    return Code(ring, n, generators, frozenset(words))


def span_from_ints(ring: Pir, n: int, rows, cap: int = SPAN_CAP) -> Code:
    return span(ring, n, [ring.vector_from_ints(row) for row in rows], cap=cap)


def full_space(ring: Pir, n: int) -> Code:
    """R^n, spanned by its standard basis: the rows of ``Pir.space`` decoded."""
    check_cap(ring.size**n, SPAN_CAP, f"materializing a code in {ring}^{n}")
    basis = tuple(ring.basis_vector(n, i) for i in range(n))
    return Code(ring, n, basis, frozenset(ring.decode(ring.space(n))))


def cyclic_code(ring: Pir, v: Vector) -> Code:
    return span(ring, len(v), [v])


# -- module invariants -----------------------------------------------------


def _composition_lengths(sizes, ring: Pir) -> np.ndarray:
    """lambda of a submodule of each size (ints) over the ring.

    Every composition factor of a module over a product of rings Z_{p^k}
    is a residue field F_p, so lambda(C) is Omega(|C|), the number of prime
    factors of |C| counted with multiplicity; this holds also when factors
    share a prime (Z_2 x Z_4).  A prime of a size outside the ring signals
    that the set is not a submodule.  The count runs on Python ints: on a
    2-vCPU x86 machine one size takes about 2 us, against 20-50 us for the
    same count in numpy, and the 2825 sizes of F_2^6's subspaces 1.2 ms.
    """
    primes, lengths = {f.p for f in ring.factors}, []
    for size in sizes:
        rest, total = size, 0
        for p in primes:
            while rest % p == 0:
                rest //= p
                total += 1
        if rest != 1:
            raise ValueError(f"{size} is not a product of the primes of {ring}")
        lengths.append(total)
    return np.array(lengths, dtype=np.int64)


def length_lambda(code: Code) -> int:
    """Composition length of the code as a module over its ring."""
    return int(_composition_lengths([len(code)], code.ring)[0])


def _classes(rows: np.ndarray) -> np.ndarray:
    """The class of each row of a 2-D array: equal rows share one, and the
    classes are numbered in the sorted order of their rows."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    classes = np.empty(len(rows), dtype=np.int64)
    classes[order] = np.cumsum(np.append(True, (rows[1:] != rows[:-1]).any(axis=1))) - 1
    return classes


def _factor_classes(code: Code, i: int) -> tuple[np.ndarray, np.ndarray]:
    """For each sorted word, the class of its projection onto the i-th CRT
    factor and the class of p times that projection."""
    f, ell = code.ring.factors[i], code.ring.ell
    projections = code.digits[:, i::ell]
    return _classes(projections), _classes(projections * f.p % f.size)


def mu_factor(code: Code, i: int) -> int:
    """Least number of generators of the i-th factor of the code.

    Nakayama: mu(C_i) = log_p(|C_i| / |p C_i|), where C_i and p C_i are the
    distinct projections of the words and of their p-multiples.
    """
    words, multiples = _factor_classes(code, i)
    return intlog(code.ring.factors[i].p, (int(words.max()) + 1) // (int(multiples.max()) + 1))


def big_m(code: Code) -> int:
    """M(C): the sum of mu over the CRT factors of the code."""
    return sum(mu_factor(code, i) for i in range(code.ring.ell))


# -- submodule enumeration ---------------------------------------------------


def _row_locator(digits: np.ndarray, mods: np.ndarray):
    """Locates rows (maybe unreduced) among ``digits``, distinct reduced rows
    in sorted order.  Runs of digits fold into int64 keys by mixed radix; before
    a run could overflow, keys become their ranks among the distinct keys of
    ``digits``, which keep the order and stay below len(digits).
    (``Pir.index`` is one run: it overflows once R^n has 2**63 vectors, as a
    small code's may.)"""
    cuts, bound = [0], 1
    for j, mod in enumerate(mods.tolist()):
        if bound * mod >= 2**63:
            cuts.append(j)
            bound = len(digits)
        bound *= mod
    levels = []

    def locate(rows: np.ndarray, build: bool = False) -> np.ndarray:
        key = np.zeros(rows.shape[:-1], dtype=np.int64)
        for i, (start, stop) in enumerate(zip(cuts, cuts[1:] + [len(mods)])):
            run = mods[start:stop]
            key = key * run.prod() + rows[..., start:stop] % run @ (run.prod() // np.cumprod(run))
            if build:
                keys = np.sort(key)
                levels.append(keys[np.append(True, keys[1:] != keys[:-1])])
            key = np.searchsorted(levels[i], key)
        return key

    locate(digits, build=True)
    return locate


#: Entries per block of the submodule closure (difference rows located,
#: multiples located, (mask, cyclic) pairs summed); bounds its temporary
#: arrays and so peak memory.
_CLOSE_BLOCK = 1 << 16


def _mask_order(key: bytes) -> tuple[int, int]:
    """A packed mask's size, then its positions: an earlier one sorts first."""
    bits = int.from_bytes(key, "big")
    return bits.bit_count(), -bits


def _submodule_masks(code: Code) -> np.ndarray:
    """All submodules of the code as membership masks over its sorted
    words: a read-only bool array of shape (submodules, |C|), in a
    deterministic order: by size, then by the sorted positions of their
    words in the sorted code.

    Every submodule is a join of cyclic submodules, so the masks of the cyclic
    submodules are closed under a + <g>, one level of new masks (the
    frontier) at a time.  As <g> is closed under negation, a + <g> is
    {w_x - y : x in a, y in <g>}, read off the difference table
    diff[y, x] = pos(w_x - w_y) for a block of (mask, cyclic) pairs at a
    time; pairs whose mask already holds the cyclic are skipped.  Rows of
    the table are located (by ``_row_locator``) the first time a cyclic
    needs them, so a refusal at the cap costs only the rows it used.
    Masks are deduplicated on their packed bytes, and the count of
    submodules found is checked against ``LATTICE_CAP`` as each one is
    found, since they are the elements of the submodule lattice.
    """
    check_cap(len(code), SUBMODULE_CAP, "submodule enumeration")
    ring, n = code.ring, code.n
    digits = code.digits
    m = len(digits)
    positions = _row_locator(digits, ring.mods(n))
    diff = np.empty((m, m), dtype=np.int32)
    located = np.zeros(m, dtype=bool)

    def locate(ys: np.ndarray) -> None:
        wanted = np.zeros(m, dtype=bool)
        wanted[ys] = True
        todo = np.flatnonzero(wanted & ~located)
        step = max(1, _CLOSE_BLOCK // digits.size)
        for start in range(0, len(todo), step):
            part = todo[start : start + step]
            diff[part] = positions(digits[None, :] - digits[part, None])
        located[todo] = True

    # gens[i]: the positions of r * w for r in R, sorted, one row per cyclic
    # submodule <w>: each of its words is r * w for |ann(w)| values of r,
    # so equal submodules give equal rows.
    scalars = ring.scalars(n)[:, None]
    step = max(1, _CLOSE_BLOCK // scalars.size)
    cyclics = set()
    for start in range(0, m, step):
        multiples = positions(scalars * digits[start : start + step])
        cyclics.update(map(tuple, np.sort(multiples, axis=0).T.tolist()))
    gens = np.array(sorted(cyclics))
    check_cap(len(gens), LATTICE_CAP, "submodule count")
    cyclic = np.zeros((len(gens), m), dtype=bool)
    cyclic[np.arange(len(gens))[:, None], gens] = True
    packed = np.packbits(cyclic, axis=1)
    row_bytes = np.dtype((np.void, packed.shape[1]))
    found = set(packed.view(row_bytes).ravel().tolist())
    frontier = packed[1:]  # gens[0] is the zero submodule, which adds nothing

    masks_per_block = max(1, _CLOSE_BLOCK // gens.size)
    while len(frontier):
        new = []
        for start in range(0, len(frontier), masks_per_block):
            block = np.unpackbits(frontier[start : start + masks_per_block], axis=1, count=m)
            block = block.view(bool)
            pairs = np.argwhere(~block[:, gens].all(axis=2))
            widest = int(block.sum(axis=1).max()) * gens.shape[1]
            pairs_per_block = max(1, _CLOSE_BLOCK // (m + widest))
            for p in range(0, len(pairs), pairs_per_block):
                a, g = pairs[p : p + pairs_per_block].T
                locate(gens[g])
                i, x = np.nonzero(block[a])
                sums = np.zeros((len(a), m), dtype=bool)
                sums[i[:, None], diff[gens[g[i]], x[:, None]]] = True
                for key in np.packbits(sums, axis=1).view(row_bytes).ravel().tolist():
                    if key not in found:
                        found.add(key)
                        new.append(key)
                        check_cap(len(found), LATTICE_CAP, "submodule count")
        frontier = np.frombuffer(b"".join(new), dtype=np.uint8).reshape(-1, row_bytes.itemsize)

    packed = np.frombuffer(b"".join(sorted(found, key=_mask_order)), dtype=np.uint8)
    masks = np.unpackbits(packed.reshape(len(found), -1), axis=1, count=m).view(bool)
    masks.flags.writeable = False
    return masks


def enumerate_submodules(code: Code) -> list[Code]:
    """All submodules of the code as codes, one per row of
    ``Code.submodule_masks`` and in its order, their words read off one
    ``np.nonzero`` of the masks.  The columns of a row rise, so each
    submodule's words come out sorted and are handed to it as its
    ``sorted_words``."""
    masks, words = code.submodule_masks, code.sorted_words()
    columns = np.nonzero(masks)[1].tolist()
    ends = np.cumsum(masks.sum(axis=1)).tolist()
    subs = []
    for a, b in zip([0] + ends, ends):
        own = tuple(map(words.__getitem__, columns[a:b]))
        sub = Code(code.ring, code.n, (), frozenset(own))
        vars(sub)["_sorted_words"] = own
        subs.append(sub)
    return subs


# -- the subcode oracle's arrays ----------------------------------------------


def _log(p: int, powers: np.ndarray) -> np.ndarray:
    """log_p of each entry, every one a power of p: its place among them."""
    return np.searchsorted(p ** np.arange(intlog(p, int(powers.max())) + 1), powers)


def _distinct(rows: np.ndarray, classes: np.ndarray, count: int) -> np.ndarray:
    """The number of distinct classes in each of ``count`` rows, from the
    sorted (row, class) keys of the members that differ from their neighbour."""
    width = int(classes.max()) + 1
    keys = np.sort(rows * width + classes)
    return np.bincount(keys[np.append(True, keys[1:] != keys[:-1])] // width, minlength=count)


def submodule_invariants(code: Code, supp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda(D), M(D) and wt(D) under the support, for every submodule D
    of the code: three read-only int64 arrays, one entry per row of
    ``Code.submodule_masks`` (``_submodule_invariants``).

    The last result is kept on the code for the support object it was
    computed for, so the weight oracles of one command share it: a support
    is not changed once built.  Like the code's cached properties, it lives
    in the frozen code's ``__dict__``: 24 bytes per submodule, at most
    96 KiB at ``LATTICE_CAP``.
    """
    kept = vars(code).get("_invariants")
    if kept is None or kept[0] is not supp:
        arrays = _submodule_invariants(code, supp)
        for a in arrays:
            a.flags.writeable = False
        kept = vars(code)["_invariants"] = (supp, arrays)
    return kept[1]


def _submodule_invariants(code: Code, supp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of ``submodule_invariants``, computed afresh.

    D is the product of its projections D_i onto the CRT factors, so
    lambda(D) is the sum of log_p |D_i| and M(D) that of log_p(|D_i| /
    |p D_i|) (``mu_factor``), where |D_i| and |p D_i| count the distinct
    projections of D's words and of their p-multiples.  wt(D) is the sum of
    the coordinatewise maximum of supp over D's words, one
    ``np.maximum.reduceat`` per block of rows: every row holds the zero
    word, so none is empty.  Rows are taken ``_CLOSE_BLOCK // |C|`` at a
    time, which bounds the temporaries; everything is exact int64.
    """
    masks = code.submodule_masks
    factors = [(f.p, *_factor_classes(code, i)) for i, f in enumerate(code.ring.factors)]
    values = supp.of_digits(code.digits)
    lengths, big, weights = (np.zeros(len(masks), dtype=np.int64) for _ in range(3))
    step = max(1, _CLOSE_BLOCK // masks.shape[1])
    for start in range(0, len(masks), step):
        block, here = masks[start : start + step], slice(start, start + step)
        rows, words = np.nonzero(block)
        starts = np.searchsorted(rows, np.arange(len(block)))
        weights[here] = np.maximum.reduceat(values[words], starts).sum(axis=1)
        for p, projections, multiples in factors:
            whole, scaled = (_distinct(rows, c[words], len(block)) for c in (projections, multiples))
            lengths[here] += _log(p, whole)
            big[here] += _log(p, whole // scaled)
    return lengths, big, weights


# -- row reduction over F_p -------------------------------------------------


def rref(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p, zero rows dropped."""
    if not is_prime(p):
        raise ValueError(f"only prime fields are supported, got q = {p}")
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] % p), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, p)
        mat[pivot_row] = [(x * inv) % p for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))
