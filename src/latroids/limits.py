"""Size caps for exhaustive operations.

Everything in this package is computed by exhaustive enumeration at desk
scale.  The caps below keep runaway inputs from looking like hangs; each is
checked where the work it bounds starts, before that work is done.  The
CLI's ``--cap`` replaces ``SPAN_CAP`` as the bound on |C| for the commands'
span of the code, and ``VECTOR_ENUM_CAP`` for the support validators and
the isometry check; every other cap is the constant here.
"""

from .errors import CapExceededError

#: Cap on |R|^n wherever a full ambient space R^n is enumerated.
VECTOR_ENUM_CAP = 2**16

#: Cap on the number of codewords a span is allowed to materialize.
SPAN_CAP = 2**20

#: Cap on |C| for submodule enumeration; checked on |R|^n before R^n is
#: spanned for a submodule or subspace lattice.
SUBMODULE_CAP = 4096

#: Cap on the number of elements of an explicit lattice, and on the number
#: of submodules an enumeration materializes (the elements of the submodule
#: lattice).
LATTICE_CAP = 4096


def check_cap(actual: int, cap: int, what: str) -> None:
    if actual > cap:
        raise CapExceededError(f"{what} needs {actual} > cap {cap}")
