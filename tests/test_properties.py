"""Property-based differential tests of the kernel and the decomposition.

Over every field with q <= 64, prime fields and p = 5, 7 included, an input
drawn by Hypothesis is dense (degree 3 to 24, with degree >= q at the
smallest fields, so the fold modulo x^q - x is reached) or structured as
outer(S(x)) + M(x), outer of degree 3, with S vanishing on a subspace
spanned by at most n - 1 drawn elements, so that kernels strictly between
{0} and the field are common.  For each input the verified kernel equals
the brute one, the decomposition reassembles to the reduced input, and its
subspace polynomial has exactly its kernel as roots.

The run is derandomized, so tier-1 sees the same examples every time; the
fixed-seed criteria and comparisons of the other modules stand beside it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addix.decompose import additive_kernel, maximal_decomposition
from addix.field import Field, is_prime
from addix.linearized import LinearizedPoly, Subspace, kernel, vanishing_poly
from addix.poly import Poly

FIELDS = [Field(p, n) for p in range(2, 65) if is_prime(p)
          for n in range(1, 7) if p ** n <= 64]

TIER1 = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@st.composite
def inputs(draw, field):
    """A polynomial of degree >= 1 over field, dense or structured."""
    codes = st.integers(0, field.q - 1)
    if draw(st.booleans()):
        top = min(field.q + 8, 24)
        return Poly.from_codes(field, draw(st.lists(codes, min_size=3, max_size=top))
                               + [draw(st.integers(1, field.q - 1))])
    gens = draw(st.lists(st.integers(1, field.q - 1), min_size=1, max_size=max(field.n - 1, 1)))
    sub = Subspace(field, map(field.from_code, gens))
    outer = Poly.from_codes(field, draw(st.lists(codes, min_size=3, max_size=3)) + [1])
    linear = LinearizedPoly.from_codes(field, draw(st.lists(codes, max_size=sub.dim)))
    poly = outer.compose(vanishing_poly(sub).to_poly()) + linear.to_poly()
    return poly if poly.degree >= 1 else poly + Poly.x(field)


@pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])
@TIER1
@given(data=st.data())
def test_kernel_and_decomposition_properties(field, data):
    poly = data.draw(inputs(field))
    assert additive_kernel(poly) == additive_kernel(poly, "brute")
    dec = maximal_decomposition(poly)
    assert dec.compose() == dec.poly
    assert kernel(dec.subspace_poly) == dec.kernel
