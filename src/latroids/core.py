"""Latroids: a rank function and a length function on a finite modular
lattice, with values in Z^u.

A triple (rho, len, L) must satisfy
  L1  rho(0) = len(0) = 0
  L2  len is strictly increasing
  L3  len is modular
  L4  0 <= rho(M) - rho(L) <= len(M) - len(L) whenever L < M
  L5  rho is submodular
Both functions are read-only int64 tables of shape (N, u), row i for
lattice element i, compared under the product order, so two values may be
incomparable; the validators treat that explicitly.

Constructors, here and in ``code_latroids``, only build the rank and length
tables.  ``validate_latroid`` is the one check of L1-L5, called by whoever
reports validity.  The rank reconstructions still reject candidate sets
that fail their axiom system (``ReconstructionError``): those sets come
from the caller, so that check is a guard, not a validation of the result.

The axiom systems (``axioms_I/B/C``) and the rank reconstructions run on
boolean arrays from ``leq``, ``join``, ``meet`` and membership masks.  I4
and B3 build the maximal candidates below each element once (``_maximal``),
and the reconstructions read their ranks from that same matrix.  The pair
scan ``_unmatched_pairs`` tests each pair against the maximal elements of
D_j, the elements below its join j that dominate no candidate of j: D_j is
a down-set, so m1 v m2 lies in it exactly when m1 and m2 lie below one of
them.  That is one N^3 product, one N^2 step per upper cover, and one
small batched product per down-set size, its temporaries bounded by
``_SCAN_BLOCK`` entries or one join's |down(j)|^2.  The other pairwise
checks go through ``scan_rows``.  Witnesses come in ascending index,
row-major order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotGradedError, ReconstructionError
from .lattices import (
    FiniteLattice,
    dual as dual_lattice,
    interval,
    product as product_lattice,
)
from .report import Check, Report


def _table(values, size: int) -> np.ndarray:
    """``values`` as a read-only int64 (size, u) array; a 1-D table has
    u = 1.  The dtype is checked before the cast, which would truncate a
    rational or a float silently."""
    table = np.asarray(values)
    if table.size and table.dtype.kind not in "iu":
        raise ValueError(f"rank and length tables must be integers, got {table.dtype}")
    if table.ndim == 1:
        table = table[:, None]
    if table.ndim != 2 or len(table) != size:
        raise ValueError("rank/length tables must match the lattice size")
    table = table.astype(np.int64)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class Latroid:
    """Rank and length tables indexed by lattice element: int64 arrays of
    shape (N, udim).  Equal by value: the lattice and both tables."""

    lattice: FiniteLattice
    rank: np.ndarray
    length: np.ndarray

    def __post_init__(self):
        for name in ("rank", "length"):
            object.__setattr__(self, name, _table(getattr(self, name), self.lattice.size))
        if self.rank.shape != self.length.shape:
            raise ValueError("rank and length tables must share the scalar dimension")

    @classmethod
    def from_functions(cls, lattice: FiniteLattice, rho, length) -> "Latroid":
        """Tables of rho and length at each label: ints, or tuples of ints."""
        return cls(lattice, [rho(lab) for lab in lattice.labels],
                   [length(lab) for lab in lattice.labels])

    @property
    def udim(self) -> int:
        return self.rank.shape[1]

    def _key(self):
        return self.lattice, self.rank.shape, self.rank.tobytes(), self.length.tobytes()

    def __eq__(self, other):
        return isinstance(other, Latroid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def top_rank(self) -> np.ndarray:
        return self.rank[self.lattice.top]

    def uses_height_length(self) -> bool:
        """True when the length function is the lattice height (udim 1)."""
        return (self.udim == 1 and self.lattice.is_graded
                and np.array_equal(self.length[:, 0], self.lattice.height))


#: Entries per block of rows in the exhaustive scans (validate_latroid, the
#: pairwise axiom checks, the support validators); bounds their temporary
#: arrays and so peak memory.
_SCAN_BLOCK = 1 << 13


def _strict(lat: FiniteLattice) -> np.ndarray:
    """The strict order: [a, b] is a < b."""
    return lat.leq & ~np.eye(lat.size, dtype=bool)


def scan_rows(rows: int, width: int, bad):
    """The indices (a, ...), in row-major order, where ``bad(sl)`` is true;
    ``bad`` maps a slice of rows to a mask whose first axis runs over that
    slice.  Evaluated a block of rows at a time, a block holding about
    ``_SCAN_BLOCK`` entries of ``width`` per row."""
    step = max(1, _SCAN_BLOCK // width)
    for start in range(0, rows, step):
        for a, *rest in np.argwhere(bad(slice(start, start + step))).tolist():
            yield (start + a, *rest)


def validate_latroid(lt: Latroid) -> Report:
    """Exhaustively check L1-L5; each check reports its first witness.

    L2-L5 run on the int64 tables, a block of rows at a time; a witness is
    the first failing pair in row-major order, its values as tuples.
    """
    lat = lt.lattice
    labels = lat.labels
    rank, length = lt.rank, lt.length
    strict = _strict(lat)

    def le(x, y):
        return (x <= y).all(axis=-1)

    def bad_pairs(bad_rows):
        return scan_rows(lat.size, lat.size * max(lt.udim, 1), bad_rows)

    def length_not_increasing(rows):
        lo, hi = length[rows, None], length[None]
        return strict[rows] & ~(le(lo, hi) & (lo != hi).any(axis=-1))

    def length_not_modular(rows):
        lhs = length[rows, None] + length[None]
        rhs = length[lat.join[rows]] + length[lat.meet[rows]]
        return (lhs != rhs).any(axis=-1)

    def rank_not_bounded(rows):
        dr = rank[None] - rank[rows, None]
        dl = length[None] - length[rows, None]
        return strict[rows] & ~((dr >= 0).all(axis=-1) & le(dr, dl))

    def rank_not_submodular(rows):
        lhs = rank[rows, None] + rank[None]
        rhs = rank[lat.join[rows]] + rank[lat.meet[rows]]
        return ~le(rhs, lhs)

    def value(row):
        return tuple(row.tolist())

    bottom = lat.bottom
    ok = not (rank[bottom].any() or length[bottom].any())
    return Report.from_checks([
        Check("L1_zero_at_bottom", ok, "" if ok else
              f"rho(0)={value(rank[bottom])}, len(0)={value(length[bottom])}"),
        Check.from_witnesses("L2_length_strictly_increasing", (
            f"len({labels[a]})={value(length[a])} !< len({labels[b]})={value(length[b])}"
            for a, b in bad_pairs(length_not_increasing)
        )),
        Check.from_witnesses("L3_length_modular", (
            f"{labels[a]}, {labels[b]}" for a, b in bad_pairs(length_not_modular)
        )),
        Check.from_witnesses("L4_rank_bounded_increasing", (
            f"{labels[a]} < {labels[b]}: drho={value(rank[b] - rank[a])}, "
            f"dlen={value(length[b] - length[a])}"
            for a, b in bad_pairs(rank_not_bounded)
        )),
        Check.from_witnesses("L5_rank_submodular", (
            f"{labels[a]}, {labels[b]}" for a, b in bad_pairs(rank_not_submodular)
        )),
    ])


# -- constructors ----------------------------------------------------------


def _height_length(lat: FiniteLattice, what: str) -> np.ndarray:
    """The height function as a udim-1 length; ``what`` names the caller."""
    if not lat.is_graded:
        raise NotGradedError(f"{what} needs a graded lattice")
    return np.array(lat.height)


def free_latroid(lat: FiniteLattice) -> Latroid:
    """rho = len = the height function of a graded lattice."""
    length = _height_length(lat, "free latroid")
    return Latroid(lat, length, length)


def uniform_latroid(lat: FiniteLattice, a: int) -> Latroid:
    """rho(L) = hgt(L) capped at a > 0, with the height as length."""
    length = _height_length(lat, "uniform latroid")
    if not a > 0:
        raise ValueError(f"uniform cap must be positive, got {a}")
    return Latroid(lat, np.minimum(length, a), length)


def restrict(lt: Latroid, a: int, b: int) -> Latroid:
    """The latroid on [a, b] with both functions shifted to vanish at a."""
    lat = lt.lattice
    sub = interval(lat, a, b)
    idx = np.flatnonzero(lat.leq[a] & lat.leq[:, b])  # the elements ``interval`` keeps
    return Latroid(sub, lt.rank[idx] - lt.rank[a], lt.length[idx] - lt.length[a])


def direct_sum(lt1: Latroid, lt2: Latroid) -> Latroid:
    """Product lattice with coordinatewise sums of ranks and lengths."""
    if lt1.udim != lt2.udim:
        raise ValueError("direct summands must share the scalar dimension")
    lat = product_lattice(lt1.lattice, lt2.lattice)
    # element (i, j) of the product is row i * |L2| + j
    rank = lt1.rank[:, None] + lt2.rank[None]
    length = lt1.length[:, None] + lt2.length[None]
    return Latroid(lat, rank.reshape(lat.size, -1), length.reshape(lat.size, -1))


def dual_latroid(lt: Latroid) -> Latroid:
    """Reverse the lattice; len*(L) = len(1) - len(L) and
    rho*(L) = len*(L) - rho(1) + rho(L)."""
    length = lt.length[lt.lattice.top] - lt.length
    return Latroid(dual_lattice(lt.lattice), length - lt.top_rank() + lt.rank, length)


def collapse_scalars(lt: Latroid) -> Latroid:
    """Sum the scalar coordinates, giving a udim-1 latroid."""
    return Latroid(lt.lattice, lt.rank.sum(axis=1), lt.length.sum(axis=1))


# -- independents / bases / circuits ------------------------------------------


def _independent_mask(lt: Latroid) -> np.ndarray:
    return (lt.rank == lt.length).all(axis=1)


def independents(lt: Latroid) -> tuple[int, ...]:
    """Elements with rho(L) = len(L)."""
    return tuple(np.flatnonzero(_independent_mask(lt)).tolist())


def bases(lt: Latroid) -> tuple[int, ...]:
    """Independent elements whose length equals the top rank."""
    full = (lt.length == lt.top_rank()).all(axis=1)
    return tuple(np.flatnonzero(_independent_mask(lt) & full).tolist())


def circuits(lt: Latroid) -> tuple[int, ...]:
    """Dependent elements all of whose proper predecessors are independent,
    i.e. with no dependent element strictly below them."""
    lat = lt.lattice
    dep = ~_independent_mask(lt)
    return tuple(np.flatnonzero(dep & ~(_strict(lat) & dep[:, None]).any(axis=0)).tolist())


#: Which lattices of the package meet the cryptomorphism hypotheses.
_CRYPTO_HINT = "choose lattice=block or a field-case chain-support grid"


def _require_crypto_hypotheses(lat: FiniteLattice) -> None:
    if not lat.is_graded:
        raise NotGradedError(f"cryptomorphisms need a graded lattice; {_CRYPTO_HINT}")
    if not (lat.is_complemented and lat.is_modular):
        raise ValueError(
            f"cryptomorphisms need a complemented modular lattice; {_CRYPTO_HINT}"
        )


def _membership(lat: FiniteLattice, subset) -> np.ndarray:
    member = np.zeros(lat.size, dtype=bool)
    member[np.fromiter(subset, dtype=np.intp)] = True
    return member


def _maximal(lat: FiniteLattice, cand: np.ndarray) -> np.ndarray:
    """M[l, x]: x is a candidate of row l and no candidate of row l lies
    strictly above x (one float32 product with the strict order)."""
    strict = _strict(lat).astype(np.float32)
    return cand & ~((cand.astype(np.float32) @ strict.T) > 0)


def _meet_maxima(lat: FiniteLattice, B) -> np.ndarray:
    """M[l, m]: m = b ^ l for a basis b, and no b' ^ l lies strictly above m."""
    cand = np.zeros((lat.size, lat.size), dtype=bool)
    cand[np.arange(lat.size), lat.meet[np.asarray(B, dtype=np.intp)]] = True
    return _maximal(lat, cand)


def _padded_indices(mask: np.ndarray) -> np.ndarray:
    """idx[i]: the columns where row i of ``mask`` is true, ascending, then
    the padding index ``mask.shape[1]``, as wide as the fullest row."""
    count = mask.sum(axis=1)
    idx = np.full((len(mask), int(count.max(initial=0))), mask.shape[1])
    rows, cols = np.nonzero(mask)
    idx[rows, np.arange(len(rows)) - (np.cumsum(count) - count)[rows]] = cols
    return idx


def _unmatched_pairs(lat: FiniteLattice, M: np.ndarray):
    """(l1, l2, m1, m2) for each failing pair (l1, l2), in row-major order:
    some m1 in M(l1) and m2 in M(l2) have no m3 in M(l1 v l2) below
    m1 v m2, and (m1, m2) is the first such pair in row-major order.

    ``reach[l, t]`` says some m3 in M(l) lies below t.  For j = l1 v l2 let
    D_j be the c <= j with ``reach[j, c]`` false.  Then (l1, l2) fails
    exactly when some maximal c of D_j has ``reach[l1, c]`` and
    ``reach[l2, c]``.  Proof: ``reach[j]`` is an up-set, so D_j is a
    down-set, and m1 v m2 <= j lies in it exactly when m1 and m2 both lie
    below one maximal c of D_j.  Such m1 in M(l1) and m2 in M(l2) exist
    exactly when ``reach[l1, c]`` and ``reach[l2, c]`` hold.

    So pairs are grouped by their join j: on down(j), (l1, l2) fails where
    R R^T is nonzero and l1 v l2 = j, for R = ``reach[down(j), max D_j]``
    (the product counts nonnegative integers, so a float32 sum is positive
    exactly when a term is).  The j with one d = |down(j)| go together:
    each max D_j is padded to the group's widest with an all-false column,
    and a chunk of the group is one batched gather and one batched product.
    c is maximal in the down-set D_j exactly when no upper cover of c is in
    D_j, one N^2 step per upper cover.  Cost: one N^3 product for
    ``reach``, that maximality step, then sum_j d_j^2 |max D_j| for the
    pair products; on the [12,6] block matroid |max D_j| <= 37 where d_j
    reaches 4096.  Besides N^2 masks like the lattice's own tables, a chunk
    holds about ``_SCAN_BLOCK`` entries, or one j's d_j^2.
    """
    n = lat.size
    reach = np.zeros((n, n + 1), dtype=bool)  # column n is the padding
    reach[:, :n] = (M.astype(np.float32) @ lat.leq.astype(np.float32)) > 0
    free = np.zeros((n + 1, n), dtype=bool)  # free[c, j]: c in D_j; row n pads
    free[:n] = lat.leq & ~reach[:, :n].T
    tops = free[:n].copy()
    for up in _padded_indices(lat.covers).T:
        tops &= ~free[up]
    size, width = lat.leq.sum(axis=0), tops.sum(axis=0)
    maxima = _padded_indices(tops.T)  # maxima[j]: max D_j, then padding
    fail = np.zeros((n, n), dtype=bool)
    for d in sorted(set(size[width > 0].tolist())):
        group = np.flatnonzero((size == d) & (width > 0))
        downs = np.nonzero(lat.leq[:, group].T)[1].reshape(len(group), d)
        tops_of = maxima[group, : width[group].max()]
        step = max(1, _SCAN_BLOCK // (d * d))
        for start in range(0, len(group), step):
            j, down, top = (a[start : start + step] for a in (group, downs, tops_of))
            r = reach[down[:, :, None], top[:, None, :]].astype(np.float32)
            hit = (r @ r.transpose(0, 2, 1)) > 0
            hit &= lat.join[down[:, :, None], down[:, None, :]] == j[:, None, None]
            if hit.any():
                k, a, b = np.nonzero(hit)
                fail[down[k, a], down[k, b]] = True
    for l1, l2 in np.argwhere(fail).tolist():
        rows, cols = np.flatnonzero(M[l1]), np.flatnonzero(M[l2])
        above = reach[lat.join[l1, l2], lat.join[np.ix_(rows, cols)]]
        a, b = np.argwhere(~above)[0]
        yield l1, l2, int(rows[a]), int(cols[b])


def _common_heights(lat: FiniteLattice, M: np.ndarray, what: str) -> np.ndarray:
    """The height h shared by the members of each row of M."""
    height = np.asarray(lat.height)
    hi = np.where(M, height, -1).max(axis=1)
    mixed = hi != np.where(M, height, lat.size).min(axis=1)
    if mixed.any():
        l = int(np.argmax(mixed))
        raise ReconstructionError(
            f"maximal {what} below {lat.labels[l]} have heights "
            f"{sorted(set(height[M[l]].tolist()))}"
        )
    return hi


def _atom_decompositions(lat: FiniteLattice, x: int):
    """All hgt(x)-subsets of atoms below x whose join is x."""
    below = [a for a in lat.atoms if lat.leq[a, x]]
    h = lat.hgt(x)
    if h == 0:
        yield ()
        return
    for combo in itertools.combinations(below, h):
        j = lat.bottom
        for a in combo:
            j = int(lat.join[j, a])
        if j == x:
            yield combo


def axioms_I(lat: FiniteLattice, indep) -> Report:
    """Independence axioms for a candidate set on a complemented modular
    graded lattice (height as length).

    I2 scans (I, L) and I3 (I1, I2) a block of rows at a time, I3's
    exchange atoms coming from one product over the atoms; I4 runs
    ``_unmatched_pairs`` on the maximal independents below each element.
    Each witness is the first failure in ascending index, row-major order
    (I4: the first (L1, L2), then its first (I1, I2)).
    """
    return _axioms_I(lat, indep)[0]


def _axioms_I(lat: FiniteLattice, indep) -> tuple[Report, np.ndarray]:
    """``axioms_I``'s report, and the maximal independents below each
    element that its I4 scans."""
    _require_crypto_hypotheses(lat)
    member = _membership(lat, indep)
    maxima = _maximal(lat, lat.leq.T & member)
    strict_below = _strict(lat).T
    height = np.asarray(lat.height)
    atoms = np.asarray(lat.atoms, dtype=np.intp)
    atom_below = lat.leq[atoms].T.astype(np.float32)
    exchange = (~lat.leq[atoms].T & member[lat.join[:, atoms]]).astype(np.float32)
    labels = lat.labels

    def not_closed(rows):
        return member[rows, None] & strict_below[rows] & ~member[None, :]

    def not_augmentable(rows):
        both = member[rows, None] & member[None, :]
        return (both & (height[None, :] < height[rows, None])
                & ~((atom_below[rows] @ exchange.T) > 0))

    return Report.from_checks([
        Check("I1_bottom", bool(member[lat.bottom]),
              "" if member[lat.bottom] else "bottom not independent"),
        Check.from_witnesses("I2_downward_closed", (
            f"{labels[j]} < {labels[i]}"
            for i, j in scan_rows(lat.size, lat.size, not_closed)
        )),
        Check.from_witnesses("I3_augmentation", (
            f"I1={labels[i1]}, I2={labels[i2]}"
            for i1, i2 in scan_rows(lat.size, lat.size, not_augmentable)
        )),
        Check.from_witnesses("I4_join_compatible_maxima", (
            f"L1={labels[l1]}, L2={labels[l2]}, I1={labels[i1]}, I2={labels[i2]}"
            for l1, l2, i1, i2 in _unmatched_pairs(lat, maxima)
        )),
    ]), maxima


def axioms_B(lat: FiniteLattice, base_set) -> Report:
    """Basis axioms for a candidate set.

    B2 loops over the atom decompositions of each pair of bases, in
    ascending index order.  B3 runs ``_unmatched_pairs`` on the maximal
    meets b ^ L below each element; its witness is the first failing
    (L1, L2) in row-major order.
    """
    return _axioms_B(lat, base_set)[0]


def _axioms_B(lat: FiniteLattice, base_set) -> tuple[Report, np.ndarray]:
    """``axioms_B``'s report, and the maximal meets b ^ L below each
    element that its B3 scans."""
    _require_crypto_hypotheses(lat)
    B = sorted(set(base_set))
    maxima = _meet_maxima(lat, B)
    decomps = {b: list(_atom_decompositions(lat, b)) for b in B}

    def failed_exchanges():
        for b1 in B:
            for b2 in B:
                for js in decomps[b1]:
                    for ts in decomps[b2]:
                        for pos, ji in enumerate(js):
                            if lat.leq[ji, b2]:
                                continue
                            jrest = lat.bottom
                            for a in js[:pos] + js[pos + 1 :]:
                                jrest = int(lat.join[jrest, a])
                            if not any(
                                not lat.leq[t, b1] and int(lat.join[jrest, t]) in B
                                for t in ts
                            ):
                                yield (
                                    f"B1={lat.labels[b1]}, B2={lat.labels[b2]}, "
                                    f"atom={lat.labels[ji]}"
                                )

    return Report.from_checks([
        Check("B1_nonempty", bool(B), "" if B else "empty basis set"),
        Check.from_witnesses("B2_atom_exchange", failed_exchanges()),
        Check.from_witnesses("B3_join_compatible_meets", (
            f"L1={lat.labels[l1]}, L2={lat.labels[l2]}"
            for l1, l2, _, _ in _unmatched_pairs(lat, maxima)
        )),
    ]), maxima


def axioms_C(lat: FiniteLattice, circuit_set) -> Report:
    """Circuit axioms for a candidate set.

    C2 scans (C1, C2) pairs a block of rows at a time.  C3 marks the
    elements with a lower cover that dominates no circuit, then scans the
    pairs C1 < C2 (by index) whose join is marked; its witness names the
    first such cover.  Witnesses are in ascending index, row-major order.
    """
    _require_crypto_hypotheses(lat)
    member = _membership(lat, circuit_set)
    strict = _strict(lat)
    free = ~(lat.leq & member[:, None]).any(axis=0)
    gap = (lat.covers & free[:, None]).any(axis=0)
    index = np.arange(lat.size)
    labels = lat.labels

    def nested(rows):
        return member[rows, None] & member[None, :] & strict[rows]

    def not_eliminable(rows):
        later = index[None, :] > index[rows, None]
        return member[rows, None] & member[None, :] & later & gap[lat.join[rows]]

    def failed_eliminations():
        for c1, c2 in scan_rows(lat.size, lat.size, not_eliminable):
            l = int(np.flatnonzero(lat.covers[:, lat.join[c1, c2]] & free)[0])
            yield f"C1={labels[c1]}, C2={labels[c2]}, L={labels[l]}"

    return Report.from_checks([
        Check("C1_no_bottom", not member[lat.bottom],
              "" if not member[lat.bottom] else "bottom is a circuit"),
        Check.from_witnesses("C2_antichain", (
            f"{labels[c1]} < {labels[c2]}"
            for c1, c2 in scan_rows(lat.size, lat.size, nested)
        )),
        Check.from_witnesses("C3_elimination", failed_eliminations()),
    ])


# -- rank reconstructions ------------------------------------------------------


def rank_from_independents(lat: FiniteLattice, indep) -> Latroid:
    """rho(L) = hgt(I) for I maximal independent below L."""
    report, maxima = _axioms_I(lat, indep)
    if not report.ok:
        raise ReconstructionError(f"independent axioms fail: {report.summary()}")
    rank = _common_heights(lat, maxima, "independents")
    return Latroid(lat, rank, _height_length(lat, "rank_from_independents"))


def rank_from_bases(lat: FiniteLattice, base_set) -> Latroid:
    """rho(L) = hgt(L ^ B) for B with maximal intersection with L."""
    report, maxima = _axioms_B(lat, base_set)
    if not report.ok:
        raise ReconstructionError(f"basis axioms fail: {report.summary()}")
    rank = _common_heights(lat, maxima, "basis meets")
    return Latroid(lat, rank, _height_length(lat, "rank_from_bases"))


def circuit_chain_length(lat: FiniteLattice, circuit_set, l: int) -> int:
    """kappa(L): the length of a maximal chain of circuits dominated by L.

    A chain is a sequence of circuits whose partial joins strictly increase;
    maximal chains all have the same length, and a longest chain is maximal,
    so the value is the longest-chain length over all extension orders
    (memoized on the join reached so far).  Greedily extending until stuck
    does NOT suffice: a stuck chain may still be refinable in the middle.
    """
    inside = [c for c in circuit_set if lat.leq[c, l]]
    memo: dict[int, int] = {}

    def longest(j: int) -> int:
        if j in memo:
            return memo[j]
        best = 0
        for c in inside:
            if not lat.leq[c, j]:
                best = max(best, 1 + longest(int(lat.join[j, c])))
        memo[j] = best
        return best

    return longest(lat.bottom)


def rank_from_circuits(lat: FiniteLattice, circuit_set) -> Latroid:
    """rho = hgt - kappa for the maximal circuit-chain length kappa."""
    C = sorted(set(circuit_set))
    report = axioms_C(lat, C)
    if not report.ok:
        raise ReconstructionError(f"circuit axioms fail: {report.summary()}")
    length = _height_length(lat, "rank_from_circuits")
    kappa = [circuit_chain_length(lat, C, l) for l in range(lat.size)]
    return Latroid(lat, length - kappa, length)


# -- generalized weights --------------------------------------------------------


def generalized_weight(lt: Latroid, a: int) -> int:
    """d_a: the least len(L) with len(L) - rho(L) >= a; 0 when nothing
    qualifies.  Only for udim 1, where min is unambiguous."""
    if lt.udim != 1:
        raise ValueError("generalized_weight needs a totally ordered scalar (udim 1)")
    feasible = lt.length[lt.length - lt.rank >= a]
    return int(feasible.min()) if feasible.size else 0
