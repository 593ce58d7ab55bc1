"""Derandomized property tests over random codes of length n <= 3.

Rings are the chain rings Z_2 ... Z_9 and the products Z_2 x Z_3,
Z_2 x Z_2 and Z_4 x Z_2; the last two have factor sizes that are not
coprime, so ``Pir.from_int`` does not reach every element and generators
are drawn as residue tuples instead.  Codes have at most two generators,
which keeps every submodule enumeration below a few hundred codewords.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latroids.code_latroids import chain_support_latroid, latroid_weights_equal_code_weights
from latroids.codes import span
from latroids.core import dual_latroid, validate_latroid
from latroids.enumerators import enumerator_from_tutte, pir_tutte_corollary, refined_enumerator
from latroids.rings import parse_ring
from latroids.supports import ChainSupport

RINGS = (
    "Z_2", "Z_3", "Z_4", "Z_5", "Z_7", "Z_8", "Z_9",
    "Z_2 x Z_3", "Z_2 x Z_2", "Z_4 x Z_2",
)


@st.composite
def codes(draw, ring):
    n = draw(st.integers(1, 3))
    element = st.tuples(*(st.integers(0, size - 1) for size in ring.sizes))
    generators = draw(st.lists(st.tuples(*[element] * n), max_size=2))
    return span(ring, n, generators)


@pytest.mark.parametrize("ring_name", RINGS)
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_chain_support_latroid_of_random_code(ring_name, data):
    code = data.draw(codes(parse_ring(ring_name)))
    lt = chain_support_latroid(code, validate=False)
    report = validate_latroid(lt)
    assert report.ok, report.summary()
    assert dual_latroid(dual_latroid(lt)) == lt

    if code.ring.ell == 1:
        direct = refined_enumerator(code, ChainSupport(code.ring, code.n))
        assert enumerator_from_tutte(code) == direct
    else:
        rep = pir_tutte_corollary(code)
        assert rep.ok, rep.summary()

    rep = latroid_weights_equal_code_weights(code)
    assert rep.ok, rep.summary()
