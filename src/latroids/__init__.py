"""Latroids from linear codes over finite chain rings and their products.

Exact-arithmetic constructions of latroids (lattice-valued matroid
generalizations) from codes, with validators for every axiom system,
cryptomorphic reconstructions, generalized weights with brute-force
oracles, weight enumerators, and the Tutte-Whitney rank generating
function identity.
"""

from .codes import (
    Code,
    big_m,
    cyclic_code,
    enumerate_submodules,
    full_space,
    length_lambda,
    mu,
    span,
    span_from_ints,
    zero_code,
)
from .code_latroids import (
    MatrixCode,
    block_matroid,
    chain_support_latroid,
    code_gen_weights_dbar,
    code_gen_weights_dr,
    latroid_from_code,
    matrix_code,
    product_matrix_code,
    rank_metric_latroid,
    rect_supp_latroid,
    single_matrix_code,
    sum_rank_latroid,
    tilde_polymatroid,
)
from .core import (
    Latroid,
    axioms_B,
    axioms_C,
    axioms_I,
    bases,
    circuits,
    closure,
    direct_sum,
    dual_latroid,
    flats,
    free_latroid,
    generalized_weight,
    hyperplanes,
    independents,
    minimal_feasible_lengths,
    rank_from_bases,
    rank_from_circuits,
    rank_from_independents,
    restrict,
    uniform_latroid,
    validate_latroid,
)
from .enumerators import (
    CountTable,
    ExpPoly,
    enumerator_from_tutte,
    enumerator_product,
    generalized_enumerator,
    pir_tutte_corollary,
    refined_enumerator,
    tutte_whitney_Rprime,
    weight_distribution,
)
from .errors import CapExceededError, NotALatticeError, NotGradedError, ReconstructionError
from .isometries import (
    decompose_chain_isometry,
    equivalence_invariance_check,
    is_isometry,
    matrix_from_ints,
    pir_isometry_projections,
)
from .lattices import (
    FiniteLattice,
    boolean_lattice,
    build_lattice,
    chain_support_lattice,
    dual,
    interval,
    predicates,
    product,
    subspace_lattice,
    submodule_lattice,
)
from .rings import ChainRing, Pir, chain_ring, parse_ring, product_ring
from .supports import (
    ChainSupport,
    HammingSupport,
    ProductSupport,
    Support,
    TableSupport,
    split_support,
    tau_support,
    validate_modular,
    validate_support,
)

__version__ = "0.1.0"
