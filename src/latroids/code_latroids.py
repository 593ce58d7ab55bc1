"""Latroids attached to codes: submodule-lattice latroids, chain-support and
rectangular-support latroids (both on the grid of chain-support levels,
which is the lattice of rectangular modules), block matroids, rank-metric
and sum-rank latroids, and the generalized weights of codes.  Every
generalized weight is computed by brute force through the one subcode
oracle ``least_weights``: the least weight over the subcodes whose length,
generator count or dimension reaches r, read off one array entry per
subcode.
A matrix code is a ``Code`` over F_q plus its block shapes (``MatrixCode``),
so its constructions read the code's digit rows cut into blocks and its rank
weights read the code's submodule masks, as every other code's do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import (
    Code,
    _composition_lengths,
    big_m,
    length_lambda,
    rref,
    span_from_ints,
    submodule_invariants,
)
from .core import Latroid, _strict, collapse_scalars, generalized_weight, scan_rows
from .lattices import (
    _ambient_submodules,
    _dominated,
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
    length = _composition_lengths([len(m) for m in lattice.labels], code.ring)
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
    digits = code.digits
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
    closure = lattice.index[ChainSupport(code.ring, code.n).of_set(code)]
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
    levels = HammingSupport(code.ring, code.n).of_digits(code.digits)
    rows = np.array([[i in s for i in range(code.n)] for s in lattice.labels], dtype=np.int64)
    inside = _dominated(levels, 1, [1] * code.n, np.add)[tuple(rows.T)].tolist()
    length = rows.sum(axis=1)
    return Latroid(lattice, length - [intlog(q, c) for c in inside], length)


# -- matrix codes ------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixCode:
    """An F_q-linear code of tuples of block matrices.

    ``blocks`` lists the (rows, cols) shape of each block.  ``code`` is the
    code over Z_q of length sum m_i n_i that holds the entries of each word,
    block by block and row by row; ``block_digits`` cuts its sorted words
    back into blocks.  A single-block instance models an ordinary
    rank-metric code in F_q^{m x n}.
    """

    q: int
    blocks: tuple[tuple[int, int], ...]
    code: Code

    def __len__(self):
        return len(self.code)

    @property
    def ell(self) -> int:
        return len(self.blocks)

    @property
    def shape(self) -> tuple[int, int]:
        if self.ell != 1:
            raise ValueError("shape is for single-block codes")
        return self.blocks[0]

    def dim(self) -> int:
        return intlog(self.q, len(self.code))

    def block_digits(self) -> list[np.ndarray]:
        """One (|C|, m_i, n_i) array per block: block i of each sorted word
        of ``code``, in the order of ``Code.digits``."""
        cuts = np.cumsum([0] + [m * n for m, n in self.blocks]).tolist()
        return [
            self.code.digits[:, a:b].reshape(-1, m, n)
            for a, b, (m, n) in zip(cuts, cuts[1:], self.blocks)
        ]


def _matrix_span(q: int, blocks, rows) -> MatrixCode:
    """The F_q-span of rows of entries (``MatrixCode.code`` order), q prime."""
    check_cap(q ** len(rows), SPAN_CAP, "matrix code span")
    length = sum(m * n for m, n in blocks)
    return MatrixCode(q, blocks, span_from_ints(chain_ring(q, 1), length, rows))


def matrix_code(q: int, blocks, generators) -> MatrixCode:
    """The F_q-span of generator words (tuples of block matrices), q prime."""
    blocks = tuple((int(m), int(n)) for m, n in blocks)
    rows = []
    for word in generators:
        for mat, (m, n) in zip(word, blocks, strict=True):
            if len(mat) != m or any(len(r) != n for r in mat):
                raise ValueError(f"block {mat} does not have shape {m}x{n}")
        rows.append([x for mat in word for row in mat for x in row])
    return _matrix_span(q, blocks, rows)


def single_matrix_code(q: int, m: int, n: int, generators) -> MatrixCode:
    return matrix_code(q, [(m, n)], [(g,) for g in generators])


def product_matrix_code(*factors: MatrixCode) -> MatrixCode:
    """The direct product of matrix codes, one block group per factor: the
    span of each factor's generator rows, padded with zeros."""
    q = factors[0].q
    if any(f.q != q for f in factors):
        raise ValueError("factors must share the field")
    length = sum(f.code.n for f in factors)
    rows, start = [], 0
    for f in factors:
        gens = f.code.ring.encode(f.code.generators, f.code.n)
        rows += np.pad(gens, ((0, 0), (start, length - start - f.code.n))).tolist()
        start += f.code.n
    return _matrix_span(q, tuple(b for f in factors for b in f.blocks), rows)


# -- rank-metric latroids ------------------------------------------------------------
#
# A subspace V of F_q^n is held as a row of the membership matrix from
# ``lattices._subspaces``: members[V, j] says whether the j-th vector of F_q^n
# (in the order of ``Pir.space``) lies in V.  Each row (or column) of a
# codeword's block (``MatrixCode.block_digits``) is likewise held as its index
# j in F_q^n, so a codeword lies in the subcode of V exactly when members[V, j]
# holds for all its row indices, and the subcode sizes are one boolean reduction.


def _block_subspaces(mc: MatrixCode, spaces: str):
    """Per block: the subspace lattice of the row (``spaces="row"``) or
    column spaces and inside[V, w], true when every row (column) of word
    w's block lies in V."""
    out = []
    for mats in mc.block_digits():
        if spaces == "column":
            mats = mats.transpose(0, 2, 1)
        d = mats.shape[2]
        lattice, members, _ = _subspaces(mc.q, d)
        rows = chain_ring(mc.q, 1).index(mats, d)
        out.append((lattice, members[:, rows].all(axis=2)))
    return out


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
    [(lattice, inside)] = _block_subspaces(mc, "row")
    counts = inside.sum(axis=1).tolist()
    rank = [mc.dim() - intlog(mc.q, counts[p]) for p in _subspaces(mc.q, n)[2].tolist()]
    return Latroid(lattice, rank, [m * len(b) for b in lattice.labels])


def qpolymatroid_axioms(lt: Latroid) -> Report:
    """P1: 0 <= rho <= dim, P2: monotone, P3: submodular, with the latroid's
    length playing the dimension (udim 1); for the (q, m) presentation of
    ``tilde_polymatroid`` that is m dim, and the axioms scale with it.  P2
    and P3 scan the pairs a block of rows at a time, in row-major order."""
    lat = lt.lattice
    labels, rank, length = lat.labels, lt.rank[:, 0], lt.length[:, 0]
    strict = _strict(lat)

    def pairs(bad):
        return scan_rows(lat.size, lat.size, bad)

    return Report.from_checks([
        Check.from_witnesses("P1_bounded_by_dim", (
            f"rho({labels[i]}) = {(r,)}"
            for i, (r, d) in enumerate(zip(rank.tolist(), length.tolist()))
            if not 0 <= r <= d
        )),
        Check.from_witnesses("P2_monotone", (
            f"{labels[a]} <= {labels[b]}"
            for a, b in pairs(lambda rows: strict[rows] & (rank[rows, None] > rank[None]))
        )),
        Check.from_witnesses("P3_submodular", (
            f"{labels[a]}, {labels[b]}"
            for a, b in pairs(lambda rows: rank[lat.join[rows]] + rank[lat.meet[rows]]
                              > rank[rows, None] + rank[None])
        )),
    ])


def tilde_relation_check(mc: MatrixCode, plain: Latroid, tilde: Latroid) -> Report:
    """The two rank-metric latroids of ``mc``, ``plain`` =
    ``rank_metric_latroid(mc)`` and ``tilde`` = ``tilde_polymatroid(mc)``,
    carry the same information: m tilde_rho(V) = rho(V*) - m dim(V*) + dim C
    for every V, compared in integers on the (q, m) presentation of
    ``tilde_polymatroid``."""
    m, n = mc.shape
    lat = plain.lattice
    perp = _subspaces(mc.q, n)[2].tolist()

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
    lattice = functools.reduce(product_lattice, [lat for lat, _ in parts])
    # Element (V_1, ..., V_l) in the row-major order of the product.
    length, inside = np.zeros(1, dtype=np.int64), np.ones((1, len(mc)), dtype=bool)
    for (m, _), (lat, ins) in zip(mc.blocks, parts):
        length = (length[:, None] + [m * len(b) for b in lat.labels]).ravel()
        inside = (inside[:, None] & ins).reshape(-1, len(mc))
    counts = inside.sum(axis=1).tolist()
    return Latroid(lattice, length - [intlog(mc.q, c) for c in counts], length)


# -- generalized weights of codes -----------------------------------------------
#
# ``least_weights`` is the one "minimum over subcodes" oracle.  The length- and
# generator-based weights under a support, the generalized Hamming weights and
# the generalized rank and sum-rank weights are each one call of it, on one
# array entry per subcode.  Over a code, the entries are the array reductions
# of ``codes.submodule_invariants`` over the submodule masks the code keeps
# (``Code.submodule_masks``), so no weight query builds a submodule's codeword
# set.  A matrix code reads the same masks of its ``code``: the dimension of
# each subcode and the sum of its block row-space dimensions, one ``rref`` of
# the block rows of its words per block.


def least_weights(invariants: np.ndarray, weights: np.ndarray, top: int) -> list[int]:
    """The generalized weights d_1, ..., d_top: d_r is the least weights[D]
    over the subcodes D with invariants[D] >= r."""
    out = []
    for r in range(1, top + 1):
        feasible = weights[invariants >= r]
        if not feasible.size:
            raise ValueError(f"no subcode reaches r = {r}; enumeration bug?")
        out.append(int(feasible.min()))
    return out


def code_gen_weights_dbar(code: Code, supp: Support) -> list[int]:
    """Length-based generalized weights: the least wt(D) over submodules D
    with lambda(D) >= r, for r = 1..lambda(C).  Brute force over all
    submodules (``Code.submodule_masks``, enumerated once per code)."""
    lengths, _, weights = submodule_invariants(code, supp)
    return least_weights(lengths, weights, length_lambda(code))


def code_gen_weights_dr(code: Code, supp: Support) -> list[int]:
    """Generator-based generalized weights: the least wt(D) over submodules
    D with M(D) >= r, for r = 1..M(C)."""
    _, generators, weights = submodule_invariants(code, supp)
    return least_weights(generators, weights, big_m(code))


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


def sum_rank_code_gen_weights(mc: MatrixCode) -> list[int]:
    """Generalized sum-rank weights (equal m_i) by subcode enumeration:
    d_r = min{sum_i dim rowspace_i(D) : D a subcode, dim D >= r}.  With one
    block these are the generalized rank weights.  D runs over the rows of
    ``Code.submodule_masks``, and dim rowspace_i(D) is the length of the
    ``rref`` of D's block-i rows: F_q^{n_i} is never enumerated."""
    masks = mc.code.submodule_masks
    blocks = mc.block_digits()
    dims = np.array([intlog(mc.q, size) for size in masks.sum(axis=1).tolist()])
    weights = np.array([
        sum(len(rref(b[mask].reshape(-1, b.shape[2]).tolist(), mc.q)) for b in blocks)
        for mask in masks
    ])
    return least_weights(dims, weights, mc.dim())


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
