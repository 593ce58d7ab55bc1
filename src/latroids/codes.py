"""Linear codes over product rings: materialized codeword sets, the module
invariants lambda / mu / M, and submodule enumeration.  A code's
rectangular closure is the point ``ChainSupport.of_set`` of its words in
``lattices.chain_support_lattice``.

Codes are kept as full codeword sets in a canonical sorted order; every
downstream computation here is exhaustive, so set equality is the only
notion of code equality we need.

``enumerate_submodules`` works on the codeword digits (the encoding of R^n
from ``rings``): a submodule is a membership mask over the sorted words,
and the masks of the cyclic submodules are closed under sums with one
cyclic at a time through a table of word differences.  Distinct rows
and keys are found by sorting and masking equal neighbours, and sets of
positions by a mark array, never by numpy's ``unique``: numpy 2 imports
``numpy.ma`` on its first call, 10-20 ms that every process would pay.
A code enumerates its submodules on the first read of ``Code.submodules``
and keeps them, so the weight oracles, the generalized enumerators and the
isometry check of one code share one enumeration.  ``full_space`` decodes
the digit space ``Pir.space``.  ``span``, ``code_sum``, ``Code.scaled`` and
``Code.factor`` stay on ``Pir`` tuple arithmetic: they build small sets of
tuples, which is what callers hold.  ``span`` takes the distinct multiples
of each generator once and adds each of them to every word found so far.
The composition length lambda(C) is read off |C| alone
(``length_lambda``), with no projection onto the CRT factors.

Over a prime field F_p, ``rref`` row-reduces a list of vectors; the reduced
row echelon basis is the canonical label of the subspace they span (the
labels of ``lattices.subspace_lattice``), and its length is the dimension
(the row spaces the rank-weight oracles measure).
"""

from __future__ import annotations

import functools
import itertools
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
        return tuple(sorted(self.codewords))

    def is_zero(self) -> bool:
        return len(self.codewords) == 1

    @functools.cached_property
    def submodules(self) -> tuple["Code", ...]:
        """All submodules, enumerated on first read and kept: the weight
        oracles and enumerators of one code share one list."""
        return tuple(enumerate_submodules(self))

    def factor(self, i: int) -> "Code":
        """The projection onto the i-th CRT factor, as a code over R_i."""
        ring = self.ring.factor_ring(i)
        words = frozenset(self.ring.project_vector(c, i) for c in self.codewords)
        return Code(ring, self.n, (), words)

    def scaled(self, r) -> "Code":
        words = frozenset(self.ring.vscale(r, c) for c in self.codewords)
        return Code(self.ring, self.n, (), words)


def span(ring: Pir, n: int, generators, cap: int = SPAN_CAP) -> Code:
    """The R-linear span of the given vectors in R^n."""
    generators = tuple(tuple(v) for v in generators)
    check_cap(ring.size**n, cap, f"materializing a code in {ring}^{n}")
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


def zero_code(ring: Pir, n: int) -> Code:
    return span(ring, n, [])


def full_space(ring: Pir, n: int) -> Code:
    """R^n, spanned by its standard basis: the rows of ``Pir.space`` decoded."""
    check_cap(ring.size**n, SPAN_CAP, f"materializing a code in {ring}^{n}")
    basis = tuple(ring.basis_vector(n, i) for i in range(n))
    return Code(ring, n, basis, frozenset(ring.decode(ring.space(n))))


def cyclic_code(ring: Pir, v: Vector) -> Code:
    return span(ring, len(v), [v])


def code_sum(a: Code, b: Code) -> Code:
    ring = a.ring
    words = frozenset(ring.vadd(x, y) for x in a.codewords for y in b.codewords)
    return Code(ring, a.n, (), words)


def code_intersection(a: Code, b: Code) -> Code:
    return Code(a.ring, a.n, (), a.codewords & b.codewords)


# -- module invariants -----------------------------------------------------


def length_lambda(code: Code) -> int:
    """Composition length of the code as a module over its ring.

    Every composition factor of a module over a product of rings Z_{p^k}
    is a residue field F_p, so lambda(C) is Omega(|C|), the number of prime
    factors of |C| counted with multiplicity; this holds also when factors
    share a prime (Z_2 x Z_4).  A prime of |C| outside the ring signals
    that the input set is not a submodule.
    """
    size, total = len(code), 0
    for p in {f.p for f in code.ring.factors}:
        while size % p == 0:
            size //= p
            total += 1
    if size != 1:
        raise ValueError(f"{len(code)} is not a product of the primes of {code.ring}")
    return total


def mu_factor(code: Code, i: int) -> int:
    """Least number of generators of the i-th factor of the code.

    Nakayama: mu(C_i) = log_p(|C_i| / |alpha_i C_i|).
    """
    f = code.ring.factors[i]
    ci = code.factor(i)
    alpha_ci = ci.scaled((f.p % f.size,))
    return intlog(f.p, len(ci) // len(alpha_ci))


def mu(code: Code) -> int:
    """Least number of generators of the code over the product ring."""
    return max(mu_factor(code, i) for i in range(code.ring.ell))


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


def enumerate_submodules(code: Code) -> list[Code]:
    """All submodules of the code, in a deterministic order: by size, then
    by the sorted positions of their words in the sorted code.

    A submodule is a membership mask over the sorted words.  Every
    submodule is a join of cyclic submodules, so the masks of the cyclic
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
    words = code.sorted_words()
    m = len(words)
    digits = ring.encode(words, n)
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
    scalars = np.tile(ring.space(1), n)[:, None]
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

    masks = (np.unpackbits(np.frombuffer(k, dtype=np.uint8), count=m) for k in found)
    subs = [np.flatnonzero(mask).tolist() for mask in masks]
    subs.sort(key=lambda s: (len(s), s))
    return [Code(ring, n, (), frozenset(words[i] for i in s)) for s in subs]


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


def irredundant_generating_sizes(code: Code) -> set[int]:
    """Sizes of inclusion-minimal generating sets of the code.

    Desk-scale oracle used to probe which 'number of generators' values a
    submodule admits; the search is bounded by M(C), the largest possible
    irredundant size.
    """
    if code.is_zero():
        return {0}
    nonzero = [w for w in code.sorted_words() if any(any(a) for a in w)]
    sizes = set()
    for size in range(1, big_m(code) + 1):
        for subset in itertools.combinations(nonzero, size):
            if len(span(code.ring, code.n, subset)) != len(code):
                continue
            if size == 1 or all(
                len(span(code.ring, code.n, subset[:i] + subset[i + 1 :]))
                != len(code)
                for i in range(size)
            ):
                sizes.add(size)
                break
    return sizes
