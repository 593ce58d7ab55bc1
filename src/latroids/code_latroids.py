"""Latroids attached to codes: submodule-lattice latroids, chain-support and
rectangular-support latroids (both on the grid of chain-support levels,
which is the lattice of rectangular modules), block matroids, rank-metric
and sum-rank latroids, and the generalized weights of codes.  Every
generalized weight is computed by brute force through the one subcode
oracle ``least_weights``: the least weight over the subcodes whose length,
generator count or dimension reaches r.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .codes import (
    Code,
    big_m,
    enumerate_submodules,
    length_lambda,
    rref,
    span_from_ints,
)
from .core import Latroid, collapse_scalars, generalized_weight
from .lattices import (
    _ambient_submodules,
    _dominated,
    _members,
    _subspaces,
    boolean_lattice,
    chain_support_lattice,
    product as product_lattice,
)
from .limits import SPAN_CAP, SUBMODULE_CAP, check_cap
from .report import Check, Report
from .rings import Pir, chain_ring, intlog
from .supports import ChainSupport, HammingSupport, Support, rectangular_supports


# -- latroids on submodule lattices ------------------------------------------


def latroid_from_code(code: Code) -> Latroid:
    """rho(M) = lambda(M) - lambda(M n C) on the lattice of submodules of
    R^n, with the composition length lambda as length.

    C is itself an element of that lattice and M ^ C = M n C there, so the
    rank is read off the meet column of C, as ``rect_supp_latroid`` does.
    lambda is strictly increasing and modular on every submodule lattice,
    so the table is built as is; ``validate_latroid`` checks L1-L5 on it.
    R^n is checked against the cap of the submodule enumeration before its
    lattice is built.  That lattice is kept for the last few (ring, n)
    (``lattices._ambient_submodules``), so the latroids of several codes in
    one R^n share it.
    """
    check_cap(code.ring.size**code.n, SUBMODULE_CAP, "submodule enumeration")
    lattice = _ambient_submodules(code.ring, code.n)
    length = np.array([length_lambda(m) for m in lattice.labels])
    return Latroid(lattice, length - length[lattice.meet[:, lattice.index[code]]], length)


# -- chain-support latroids ----------------------------------------------------


def chain_support_latroid(code: Code) -> Latroid:
    """The latroid on the grid of rectangular support vectors.

    For a chain ring, rho(s) = |s| - lambda(M_s n C) where M_s is the
    rectangular module with support s.  Over a product ring the scalar is
    the tuple of per-factor values, one coordinate per CRT factor.

    |M_s n C| is the number of codewords with support <= s, so the supports
    are evaluated once and ``_dominated`` counts them for every s at once.
    Over a product ring, factor j counts the distinct projections of the
    codewords onto its digit columns against s_j, the support coordinates
    of factor j.  This is lambda_j(M_s n C): the
    idempotents of R_1 x ... x R_l exist whatever the factor sizes, so
    every submodule is the product of its projections, and the projection
    of M_s n C is C_j n M_{s_j}.
    """
    ring, n, ell = code.ring, code.n, code.ring.ell
    lattice = chain_support_lattice(ring, n)
    grid = np.array(lattice.labels, dtype=np.int64)
    digits = ring.encode(code.codewords, n)
    levels = ChainSupport(ring, n).of_digits(digits)
    length = grid.reshape(len(grid), n, ell).sum(axis=1)
    rank = length.copy()
    for j, f in enumerate(ring.factors):
        # one codeword per distinct projection: the rows in lexicographic
        # order, kept where they differ from the row before
        order = np.lexsort(digits[:, j::ell].T[::-1])
        rows = digits[order, j::ell]
        first = order[np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]
        counts = _dominated(levels[first, j::ell], 1, [f.k] * n, np.add)
        rank[:, j] -= [intlog(f.p, c) for c in counts[tuple(grid[:, j::ell].T)].tolist()]
    return Latroid(lattice, rank, length)


# -- rectangular-support latroids ------------------------------------------------


def rect_supp_latroid(code: Code, supp: Support) -> Latroid:
    """rho(M) = supp(M) - supp(M ^ K) on the lattice of rectangular modules
    (``chain_support_lattice``), where K is the rectangular closure of the
    code: the point ``ChainSupport.of_set`` of its codewords.

    M ^ K is the lattice meet with the closure; taking instead the smallest
    rectangular module containing M n C breaks monotonicity and is not a
    latroid, so the meet form is the one implemented.
    """
    if not supp.is_standard:
        raise ValueError("rectangular-support latroids need a standard support")
    if not supp.is_modular:
        raise ValueError("rectangular-support latroids need a modular support")
    lattice = chain_support_lattice(code.ring, code.n)
    supp_of = rectangular_supports(supp)
    closure = lattice.index[ChainSupport(code.ring, code.n).of_set(code.codewords)]
    return Latroid(lattice, supp_of - supp_of[lattice.meet[:, closure]], supp_of)


# -- block matroids ---------------------------------------------------------------


def _require_field(ring: Pir) -> int:
    if ring.ell != 1 or ring.factors[0].k != 1:
        raise ValueError(f"{ring} is not a field")
    return ring.factors[0].p


def block_matroid(code: Code) -> Latroid:
    """The classical matroid of a block code over a field, as a latroid on
    the boolean lattice: rho(S) = |S| - dim{c : supp(c) in S}, with the
    subcode sizes counted by ``_dominated`` on the 0/1 Hamming supports.

    Its circuits are the minimal supports of nonzero codewords, so two
    coordinates that carry a weight-2 codeword are parallel."""
    q = _require_field(code.ring)
    lattice = boolean_lattice(code.n)
    levels = HammingSupport(code.ring, code.n).of_digits(code.ring.encode(code.codewords, code.n))
    rows = _members(lattice.labels, range(code.n)).astype(np.int64)
    inside = _dominated(levels, 1, [1] * code.n, np.add)[tuple(rows.T)].tolist()
    length = rows.sum(axis=1)
    return Latroid(lattice, length - [intlog(q, c) for c in inside], length)


# -- matrix codes ------------------------------------------------------------------


Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MatrixCode:
    """An F_q-linear code of block matrix tuples.

    ``blocks`` lists the (rows, cols) shape of each block; codewords are
    tuples of matrices, one per block.  A single-block instance models an
    ordinary rank-metric code in F_q^{m x n}.
    """

    q: int
    blocks: tuple[tuple[int, int], ...]
    codewords: frozenset[tuple[Matrix, ...]]

    def __len__(self):
        return len(self.codewords)

    @property
    def ell(self) -> int:
        return len(self.blocks)

    @property
    def shape(self) -> tuple[int, int]:
        if self.ell != 1:
            raise ValueError("shape is for single-block codes")
        return self.blocks[0]

    def dim(self) -> int:
        return intlog(self.q, len(self.codewords))


def matrix_code(q: int, blocks, generators) -> MatrixCode:
    """The F_q-span of generator words (tuples of block matrices), q prime."""
    blocks = tuple((int(m), int(n)) for m, n in blocks)
    rows = []
    for word in generators:
        word = tuple(tuple(tuple(int(x) % q for x in row) for row in mat) for mat in word)
        for mat, (m, n) in zip(word, blocks, strict=True):
            if len(mat) != m or any(len(r) != n for r in mat):
                raise ValueError(f"block {mat} does not have shape {m}x{n}")
        rows.append(_entries(word))
    check_cap(q ** len(rows), SPAN_CAP, "matrix code span")
    # The span never enumerates the ambient space, so its size caps nothing.
    length = sum(m * n for m, n in blocks)
    code = span_from_ints(chain_ring(q, 1), length, rows, cap=q**length)
    return MatrixCode(q, blocks, frozenset(_block_word(blocks, c) for c in code.codewords))


def single_matrix_code(q: int, m: int, n: int, generators) -> MatrixCode:
    return matrix_code(q, [(m, n)], [(g,) for g in generators])


def product_matrix_code(*factors: MatrixCode) -> MatrixCode:
    """The direct product of matrix codes, one block group per factor."""
    q = factors[0].q
    if any(f.q != q for f in factors):
        raise ValueError("factors must share the field")
    blocks = tuple(b for f in factors for b in f.blocks)
    words = frozenset(
        tuple(itertools.chain.from_iterable(ws))
        for ws in itertools.product(*(f.codewords for f in factors))
    )
    return MatrixCode(q, blocks, words)


def _entries(word) -> tuple[int, ...]:
    """The entries of a tuple of block matrices, block by block, row by row."""
    return tuple(x for mat in word for row in mat for x in row)


def _block_word(blocks, v) -> tuple[Matrix, ...]:
    """A vector over Z_q cut back into block matrices (undoes _entries)."""
    entries = iter(a for (a,) in v)
    return tuple(tuple(tuple(next(entries) for _ in range(n)) for _ in range(m)) for m, n in blocks)


def _as_code(mc: MatrixCode) -> Code:
    """The matrix code as a code over Z_q of length sum m_i n_i."""
    ring = chain_ring(mc.q, 1)
    words = frozenset(ring.vector_from_ints(_entries(w)) for w in mc.codewords)
    return Code(ring, sum(m * n for m, n in mc.blocks), (), words)


# -- rank-metric latroids ------------------------------------------------------------
#
# A subspace V of F_q^n is held as a row of the membership matrix from
# ``lattices._subspaces``: members[V, j] says whether the j-th vector of F_q^n
# (in the order of ``Pir.space``) lies in V.  Each row (or column) of a
# codeword's block is likewise held as its index j in F_q^n, so a codeword
# lies in the subcode of V exactly when members[V, j] holds for every one of
# its row indices, and the subcode sizes are one boolean reduction.


def _block_subspaces(mc: MatrixCode, spaces: str):
    """Per block: the subspace lattice of the row (``spaces="row"``) or
    column spaces, its membership matrix, and inside[V, w], true when every
    row (column) of word w's block lies in V."""
    words = list(mc.codewords)
    out = []
    for b in range(mc.ell):
        mats = np.array([w[b] for w in words], dtype=np.int64)
        if spaces == "column":
            mats = mats.transpose(0, 2, 1)
        d = mats.shape[2]
        lattice, members = _subspaces(mc.q, d)
        rows = chain_ring(mc.q, 1).index(mats, d)
        out.append((lattice, members, members[:, rows].all(axis=2)))
    return out


def _perps(members: np.ndarray, q: int, n: int) -> list[int]:
    """The index of V^perp for each subspace V of F_q^n.  One product with
    the nonzero-dot-product matrix of F_q^n counts, for each vector, the
    members of V it is not orthogonal to; V^perp is found by its
    membership row."""
    space = chain_ring(q, 1).space(n)
    skew = (space @ space.T % q != 0).astype(np.float32)
    perp_rows = members.astype(np.float32) @ skew == 0
    row_of = {row.tobytes(): i for i, row in enumerate(members)}
    return [row_of[row.tobytes()] for row in perp_rows]


def rank_metric_latroid(mc: MatrixCode) -> Latroid:
    """rho(V) = m dim(V) - dim{c : rowspace(c) in V} on the subspace
    lattice of F_q^n: the one-block row-space sum-rank latroid."""
    mc.shape  # raises unless the code has one block
    return sum_rank_latroid(mc, spaces="row")


def tilde_polymatroid(mc: MatrixCode) -> Latroid:
    """The q-polymatroid tilde_rho(V) = (dim C - dim C(V*)) / m of Gorla et
    al., in its integer presentation: the rank m tilde_rho(V) =
    dim C - dim C(V*) with the length m dim(V), a (q, m)-polymatroid
    presented as a latroid.  L1-L5 and P1-P3 are invariant under the
    positive scale m."""
    m, n = mc.shape
    [(lattice, members, inside)] = _block_subspaces(mc, "row")
    counts = inside.sum(axis=1).tolist()
    rank = [mc.dim() - intlog(mc.q, counts[p]) for p in _perps(members, mc.q, n)]
    return Latroid(lattice, rank, [m * len(b) for b in lattice.labels])


def qpolymatroid_axioms(lt: Latroid) -> Report:
    """P1: 0 <= rho <= dim, P2: monotone, P3: submodular, with the latroid's
    length playing the dimension (udim 1); for the (q, m) presentation of
    ``tilde_polymatroid`` that is m dim, and the axioms scale with it."""
    lat = lt.lattice
    rank, length = lt.rank[:, 0].tolist(), lt.length[:, 0].tolist()
    return Report.from_checks([
        Check.from_witnesses("P1_bounded_by_dim", (
            f"rho({lat.labels[i]}) = {(rank[i],)}"
            for i in range(lat.size)
            if not 0 <= rank[i] <= length[i]
        )),
        Check.from_witnesses("P2_monotone", (
            f"{lat.labels[a]} <= {lat.labels[b]}"
            for a, b in lat.comparable_pairs()
            if rank[a] > rank[b]
        )),
        Check.from_witnesses("P3_submodular", (
            f"{lat.labels[a]}, {lat.labels[b]}"
            for a, b in lat.pairs()
            if rank[lat.join[a, b]] + rank[lat.meet[a, b]] > rank[a] + rank[b]
        )),
    ])


def tilde_relation_check(mc: MatrixCode) -> Report:
    """The two rank-metric latroids carry the same information:
    m tilde_rho(V) = rho(V*) - m dim(V*) + dim C for every V, compared in
    integers on the (q, m) presentation of ``tilde_polymatroid``."""
    m, n = mc.shape
    plain = rank_metric_latroid(mc)
    tilde = tilde_polymatroid(mc)
    lat = plain.lattice
    perp = _perps(_subspaces(mc.q, n)[1], mc.q, n)

    def mismatches():
        for i, basis in enumerate(lat.labels):
            j = perp[i]
            if tilde.rank[i, 0] != plain.rank[j, 0] - m * len(lat.labels[j]) + mc.dim():
                yield f"V = {basis}"

    return Report.from_checks([Check.from_witnesses("tilde_rank_relation", mismatches())])


# -- sum-rank latroids ------------------------------------------------------------


def sum_rank_latroid(mc: MatrixCode, spaces: str = "column") -> Latroid:
    """The latroid of a sum-rank code on a product of subspace lattices.

    ``spaces="column"`` constrains block column spaces, so the i-th lattice
    factor consists of subspaces of F_q^{m_i} and the length of (V_i)_i is
    sum m_i dim(V_i); this matches the written definition but is a latroid
    only when m_i >= n_i for every block (enforced).  ``spaces="row"``
    constrains row spaces inside F_q^{n_i} with the same length formula and
    is a latroid for every shape; with one block it coincides with
    rank_metric_latroid.
    """
    if spaces not in ("column", "row"):
        raise ValueError("spaces must be 'column' or 'row'")
    if spaces == "column" and any(m < n for m, n in mc.blocks):
        raise ValueError(
            "column-space sum-rank latroids need m_i >= n_i in every block"
        )
    parts = _block_subspaces(mc, spaces)
    lattice = functools.reduce(product_lattice, [lat for lat, _, _ in parts])
    # Element (V_1, ..., V_l) in the row-major order of the product.
    length, inside = np.zeros(1, dtype=np.int64), np.ones((1, len(mc)), dtype=bool)
    for (m, _), (lat, _, ins) in zip(mc.blocks, parts):
        length = (length[:, None] + [m * len(b) for b in lat.labels]).ravel()
        inside = (inside[:, None] & ins).reshape(-1, len(mc))
    counts = inside.sum(axis=1).tolist()
    return Latroid(lattice, length - [intlog(mc.q, c) for c in counts], length)


# -- generalized weights of codes -----------------------------------------------
#
# ``least_weights`` is the one "minimum over subcodes" oracle.  The length- and
# generator-based weights under a support, the generalized Hamming weights and
# the generalized rank and sum-rank weights are each one call of it.


def least_weights(subcodes, invariant, weight, top: int) -> list[int]:
    """The generalized weights d_1, ..., d_top: d_r is the least
    weight(D) over the subcodes D with invariant(D) >= r."""
    pairs = [(invariant(d), weight(d)) for d in subcodes]
    out = []
    for r in range(1, top + 1):
        feasible = [w for d, w in pairs if d >= r]
        if not feasible:
            raise ValueError(f"no subcode reaches r = {r}; enumeration bug?")
        out.append(min(feasible))
    return out


def code_gen_weights_dbar(code: Code, supp: Support) -> list[int]:
    """Length-based generalized weights: the least wt(D) over submodules D
    with lambda(D) >= r, for r = 1..lambda(C).  Brute force over all
    submodules (``Code.submodules``, enumerated once per code)."""
    return least_weights(code.submodules, length_lambda, supp.code_weight, length_lambda(code))


def code_gen_weights_dr(code: Code, supp: Support) -> list[int]:
    """Generator-based generalized weights: the least wt(D) over submodules
    D with M(D) >= r, for r = 1..M(C)."""
    return least_weights(code.submodules, big_m, supp.code_weight, big_m(code))


def _latroid_weights(lt: Latroid, top: int) -> list[int]:
    """d_r of a udim-1 latroid as a lattice minimum, for r = 1..top."""
    return [generalized_weight(lt, r) for r in range(1, top + 1)]


def latroid_gen_weights(code: Code) -> list[int]:
    """d_r of the chain-support latroid for r = 1..lambda(C), computed as a
    lattice minimum (1-norm collapse over the CRT factors)."""
    lt = chain_support_latroid(code)
    if lt.udim > 1:
        lt = collapse_scalars(lt)
    return _latroid_weights(lt, length_lambda(code))


def weights_equal_report(name: str, zero_name: str, oracle, lattice_side,
                         m: int = 1) -> Report:
    """Compare a subcode oracle with the latroid's weights: one check
    ``{name}_{r}`` per r that m * oracle[r-1] equals lattice_side[r-1], or
    a single passing ``zero_name`` check when there is no r (the zero
    code)."""
    if not oracle:
        return Report.from_checks([Check(zero_name, True, "zero code")])
    scaled = "oracle" if m == 1 else "m*oracle"
    return Report.from_checks(
        Check(f"{name}_{r}", m * o == d, f"{scaled} {m * o} vs latroid {d}")
        for r, (o, d) in enumerate(zip(oracle, lattice_side, strict=True), 1)
    )


def latroid_weights_equal_code_weights(code: Code) -> Report:
    """Check d_bar_r(C) = d_r(chain-support latroid) for every r, computing
    the two sides independently (submodule oracle vs lattice minimum)."""
    oracle = code_gen_weights_dbar(code, ChainSupport(code.ring, code.n))
    return weights_equal_report(
        "dbar", "dbar_equals_latroid", oracle, latroid_gen_weights(code) if oracle else []
    )


# -- rank-metric generalized weights ------------------------------------------------


def _subcodes(mc: MatrixCode) -> list[frozenset]:
    """All F_q-subspaces of the code, as sets of block-matrix words."""
    return [
        frozenset(_block_word(mc.blocks, c) for c in d.codewords)
        for d in enumerate_submodules(_as_code(mc))
    ]


def _rowspace_dim_of_subcode(sub, q: int, block: int) -> int:
    return len(rref([row for word in sub for row in word[block]], q))


def sum_rank_code_gen_weights(mc: MatrixCode) -> list[int]:
    """Generalized sum-rank weights (equal m_i) by subcode enumeration:
    d_r = min{sum_i dim rowspace_i(D) : D a subcode, dim D >= r}.  With one
    block these are the generalized rank weights."""
    return least_weights(
        _subcodes(mc),
        lambda s: intlog(mc.q, len(s)),
        lambda s: sum(_rowspace_dim_of_subcode(s, mc.q, i) for i in range(mc.ell)),
        mc.dim(),
    )


def sum_rank_weights_equal(mc: MatrixCode) -> Report:
    """Check m * d_r(C) = d_r(sum-rank latroid) when every block shares
    m_i = m > n_i, with the row-space convention that the anticode argument
    supports.  With one block this is the rank-weight identity for the
    rank-metric latroid."""
    ms = {m for m, _ in mc.blocks}
    if len(ms) != 1:
        raise ValueError("the sum-rank weight identity needs equal m_i")
    m = ms.pop()
    if any(m <= n for _, n in mc.blocks):
        raise ValueError("the sum-rank weight identity needs m > n_i")
    oracle = sum_rank_code_gen_weights(mc)
    lattice_side = _latroid_weights(
        sum_rank_latroid(mc, spaces="row"), len(oracle)
    ) if oracle else []
    return weights_equal_report("sum_rank_d", "sum_rank_weights", oracle, lattice_side, m)


# -- block-code generalized weights ---------------------------------------------


def block_matroid_weights_equal(code: Code) -> Report:
    """Check d_r(block matroid) equals the classical generalized Hamming
    weights of the code: d_bar under the Hamming support, since over a prime
    field lambda is the dimension."""
    _require_field(code.ring)
    oracle = code_gen_weights_dbar(code, HammingSupport(code.ring, code.n))
    lattice_side = _latroid_weights(
        block_matroid(code), len(oracle)
    ) if oracle else []
    return weights_equal_report("hamming_d", "block_weights", oracle, lattice_side)
