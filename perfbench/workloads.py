"""Seeded workload generators.

A workload is a fixed batch of operations.  ``selftest`` runs
``latroids.selftest.run_all(seed)``; the other three run CLI commands on
config files.  Generated configs come from *slots*: a slot fixes the ring,
the length, the support, the lattice kind and the code type (so |C|, the
lattice size and therefore the cost are the same for every seed), and the
seed only picks the pivot columns, the free generator entries and, for
block codes, a random monomial image of a fixed base code.  The library
sees nothing but the config files written here.

Only the standard library is used, so configs can be made without
importing the package under test.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("selftest", "grid-latroids", "axiom-systems", "cli-small")

CLI_COMMANDS = (
    "validate-support",
    "latroid",
    "axioms",
    "crypto-roundtrip",
    "weights",
    "enumerator",
    "tutte",
    "circuits",
    "isometry",
)

# name -> (prime, exponent) of each CRT factor
RINGS = {
    "Z_2": ((2, 1),),
    "Z_3": ((3, 1),),
    "Z_4": ((2, 2),),
    "Z_8": ((2, 3),),
    "Z_9": ((3, 2),),
    "Z_2 x Z_3": ((2, 1), (3, 1)),
}


@dataclass(frozen=True)
class Slot:
    """One generated config: its shape is fixed, its entries are seeded.

    ``rows`` are row multipliers of a systematic generator matrix: row i has
    ``rows[i]`` at its own pivot column, 0 at the other pivots and
    ``rows[i]`` times a random residue elsewhere, so the code type (and |C|)
    does not depend on the seed.  ``base`` instead gives a fixed generator
    matrix over a prime field whose random monomial image is used, which
    keeps the matroid (and the axiom-scan cost) fixed up to isomorphism.
    """

    name: str
    ring: str
    n: int
    support: str
    commands: tuple[str, ...]
    rows: tuple[int, ...] = ()
    base: tuple[tuple[int, ...], ...] = ()
    lattice: str | None = None
    isometry: bool = False

    @property
    def modulus(self) -> int:
        out = 1
        for p, k in RINGS[self.ring]:
            out *= p**k
        return out


GRID_COMMANDS = ("latroid", "tutte", "weights", "enumerator")
AXIOM_COMMANDS = ("latroid", "axioms", "crypto-roundtrip", "circuits")
CHAIN_SUBMODULE_COMMANDS = ("latroid", "circuits")

# The [7,4] binary Hamming code, a [5,2] binary code and a [5,2] ternary
# code; each workload pass uses a random monomial image of each.
HAMMING_7_4 = (
    (1, 0, 0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 1, 1, 1, 1),
)
BINARY_5_2 = ((1, 0, 1, 1, 0), (0, 1, 0, 1, 1))
TERNARY_5_2 = ((1, 0, 1, 2, 1), (0, 1, 1, 1, 2))

SLOTS = {
    # Chain-support grids from 9 to 256 elements over Z_4, Z_8, Z_9 and
    # Z_2 x Z_3.  Lattice construction dominates the 256-element slot; it
    # runs only the commands that build the lattice once (tutte and weights
    # build it twice, about 3 s each), so that a pass stays near 5 s and a
    # run gets several passes.
    "grid-latroids": (
        Slot("grid/Z_4^2", "Z_4", 2, "chain", GRID_COMMANDS, rows=(1,)),
        Slot("grid/Z_8^2", "Z_8", 2, "chain", GRID_COMMANDS, rows=(2,)),
        Slot("grid/Z_6^2", "Z_2 x Z_3", 2, "chain", GRID_COMMANDS, rows=(1,)),
        Slot("grid/Z_9^3", "Z_9", 3, "chain", GRID_COMMANDS, rows=(1, 3)),
        Slot("grid/Z_8^3", "Z_8", 3, "chain", GRID_COMMANDS, rows=(1, 2)),
        Slot("grid/Z_6^3", "Z_2 x Z_3", 3, "chain", GRID_COMMANDS, rows=(1, 2)),
        Slot("grid/Z_4^4", "Z_4", 4, "chain", GRID_COMMANDS, rows=(1, 2)),
        Slot("grid/Z_8^4", "Z_8", 4, "chain", ("latroid", "enumerator"), rows=(1, 4)),
    ),
    # Block matroids on boolean lattices and latroids on submodule
    # lattices.  Field submodule slots of dimension 1..n-2 are the ones on
    # which the seed's axioms_B reports B2_atom_exchange (see README).
    # crypto-roundtrip repeats the axiom scans, so the 128-element block
    # slot runs axioms once, without it, to keep a pass near 6 s.
    "axiom-systems": (
        Slot("axiom/block F_2^7", "Z_2", 7, "hamming", ("latroid", "axioms", "circuits"), base=HAMMING_7_4, lattice="block"),
        Slot("axiom/block F_2^5", "Z_2", 5, "hamming", AXIOM_COMMANDS, base=BINARY_5_2, lattice="block"),
        Slot("axiom/block F_3^5", "Z_3", 5, "hamming", AXIOM_COMMANDS, base=TERNARY_5_2, lattice="block"),
        Slot("axiom/submodule F_2^3 dim1", "Z_2", 3, "hamming", AXIOM_COMMANDS, rows=(1,), lattice="submodule"),
        Slot("axiom/submodule F_2^3 dim2", "Z_2", 3, "hamming", AXIOM_COMMANDS, rows=(1, 1), lattice="submodule"),
        Slot("axiom/submodule F_3^3 dim1", "Z_3", 3, "hamming", AXIOM_COMMANDS, rows=(1,), lattice="submodule"),
        Slot("axiom/submodule F_3^3 dim2", "Z_3", 3, "hamming", AXIOM_COMMANDS, rows=(1, 1), lattice="submodule"),
        Slot("axiom/submodule F_2^4 dim2", "Z_2", 4, "hamming", AXIOM_COMMANDS, rows=(1, 1), lattice="submodule"),
        Slot("axiom/submodule Z_4^2", "Z_4", 2, "chain", CHAIN_SUBMODULE_COMMANDS, rows=(1,), lattice="submodule"),
        Slot("axiom/submodule Z_8^2", "Z_8", 2, "chain", CHAIN_SUBMODULE_COMMANDS, rows=(2,), lattice="submodule"),
        Slot("axiom/submodule Z_9^2", "Z_9", 2, "chain", CHAIN_SUBMODULE_COMMANDS, rows=(3,), lattice="submodule"),
    ),
    # Small codes (|R|^n <= 64) on every command, next to the shipped
    # configs: per-call fixed costs dominate here.
    "cli-small": (
        Slot("small/Z_4^2", "Z_4", 2, "chain", CLI_COMMANDS, rows=(1,), isometry=True),
        Slot("small/Z_4^3", "Z_4", 3, "chain", CLI_COMMANDS, rows=(1, 2), isometry=True),
        Slot("small/Z_8^2", "Z_8", 2, "chain", CLI_COMMANDS, rows=(2,), isometry=True),
        Slot("small/Z_9^1", "Z_9", 1, "chain", CLI_COMMANDS, rows=(3,), isometry=True),
        Slot("small/Z_6^2", "Z_2 x Z_3", 2, "chain", CLI_COMMANDS, rows=(1,), isometry=True),
        Slot("small/F_2^3 block", "Z_2", 3, "hamming", CLI_COMMANDS, base=((1, 1, 0), (0, 1, 1)), lattice="block", isometry=True),
        Slot("small/F_2^4", "Z_2", 4, "chain", CLI_COMMANDS, rows=(1, 1), isometry=True),
        Slot("small/F_3^3", "Z_3", 3, "hamming", CLI_COMMANDS, rows=(1,), isometry=True),
    ),
}


@dataclass(frozen=True)
class Op:
    """One CLI command on one config; ``key`` names its expectation."""

    command: str
    config: str
    key: str


def _units(m: int) -> list[int]:
    return [u for u in range(1, m) if gcd(u, m) == 1]


def _systematic(slot: Slot, rng: random.Random) -> list[list[int]]:
    m, n = slot.modulus, slot.n
    pivots = rng.sample(range(n), len(slot.rows))
    out = []
    for mult, piv in zip(slot.rows, pivots):
        row = [0] * n
        for j in range(n):
            if j == piv:
                row[j] = mult % m
            elif j not in pivots:
                row[j] = mult * rng.randrange(m) % m
        out.append(row)
    return out


def _monomial_image(slot: Slot, rng: random.Random) -> list[list[int]]:
    q, n = slot.modulus, slot.n
    rows = [list(r) for r in slot.base]
    for _ in range(2 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
        if i != j:
            c = rng.randrange(1, q)
            rows[i] = [(a + c * b) % q for a, b in zip(rows[i], rows[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.choice(_units(q)) for _ in range(n)]
    return [[r[perm[j]] * scale[j] % q for j in range(n)] for r in rows]


def _monomial_matrix(slot: Slot, rng: random.Random) -> list[list[int]]:
    n = slot.n
    perm = list(range(n))
    rng.shuffle(perm)
    units = _units(slot.modulus)
    return [[rng.choice(units) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def slot_config(slot: Slot, rng: random.Random) -> str:
    """The config text of one slot; consumes ``rng`` deterministically."""
    gens = _monomial_image(slot, rng) if slot.base else _systematic(slot, rng)
    lines = [
        f"# generated slot {slot.name}",
        f"ring = {slot.ring}",
        f"n = {slot.n}",
        f"support = {slot.support}",
    ]
    if slot.lattice:
        lines.append(f"lattice = {slot.lattice}")
    lines += ["gen = " + " ".join(map(str, g)) for g in gens]
    if slot.isometry:
        lines += ["mat = " + " ".join(map(str, r)) for r in _monomial_matrix(slot, rng)]
    return "\n".join(lines) + "\n"


def build_dir(root: str) -> str:
    """Where generated configs and span dumps go, inside the checkout."""
    path = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def shipped_configs(root: str) -> list[str]:
    """The example configs of the repository, relative to ``root``."""
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.cfg")))
    return [os.path.relpath(p, root) for p in paths]


# The selftest workload runs the acceptance corpus users run by default
# (``--command selftest`` without ``--seed``).  Its random corpora change the
# cost of single criteria up to threefold from seed to seed, which
# would make the per-criterion latency a measure of the seed rather than of
# the code; so the corpus seed is fixed and the benchmark seed is unused.
SELFTEST_SEED = 0


def generate(workload: str, seed: int, root: str, outdir: str) -> list[Op]:
    """Write the workload's configs into ``outdir`` and return its batch.

    The same (workload, seed) always writes the same files and returns the
    same operations, in the same order.  ``selftest`` has no configs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "selftest":
        return []
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "cli-small":
        for cfg in shipped_configs(root):
            ops += [Op(cmd, os.path.join(root, cfg), cfg) for cmd in CLI_COMMANDS]
    for i, slot in enumerate(SLOTS[workload]):
        path = os.path.join(outdir, f"{i:02d}.cfg")
        with open(path, "w") as fh:
            fh.write(slot_config(slot, rng))
        ops += [Op(cmd, path, f"slot:{slot.name}") for cmd in slot.commands]
    return ops
