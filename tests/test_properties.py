"""Property-based differential tests of the kernel and the decomposition.

Over every field with q <= 64, prime fields and p = 5, 7 included, an input
drawn by Hypothesis is dense (degree 3 to 24, with degree >= q at the
smallest fields, so the fold modulo x^q - x is reached) or structured as
outer(S(x)) + M(x), outer of degree 3, with S vanishing on a subspace
spanned by at most n - 1 drawn elements, so that kernels strictly between
{0} and the field are common.  For each input the verified kernel equals
the brute one, the decomposition reassembles to the reduced input, and its
subspace polynomial has exactly its kernel as roots.  The theorem behind
the kernel route is checked too: the bands' cocycle identity at drawn
points, and, walking the bands from the top index, each band's additivity
on the subspace the bands above it leave and its restricted kernel there.
The value table, the permutation certificate and the text form are checked
against their plain counterparts.  The one code elimination is checked
against the digit-vector echelon of tests/test_code_core.py: a span's rows,
a coset key, and the restricted kernel of a drawn linear map on a drawn
subspace against the map's zero set, read at every member.  A drawn
permutation, a x^e + b with e prime to q - 1 or a translation
outer(S(x)) + x with S o outer zero on the field, scaled and shifted on
both sides, has an inverse_pp that round-trips in both orders at every
point and keeps its additive index.  The fused code kernels of Field are
checked against Elt schoolbook references on drawn inputs: the value
scan on sparse terms with gaps of any size, with a constant term or none
(every band has none), against the sum of c * x^e, and the product,
division, pairwise sum, span and row kernel against their digit-vector and
Elt counterparts.  The brute kernel oracle, which tests its identity row by
row on the value table, keeps exactly the y at which the polynomial
identity holds once expanded by shift_arg, on inputs of degree >= q and p-affine ones too.
Every report of a character sweep over a drawn input is char_sum's oracle
sum within the profile's stated FFT margin and at most the additive bound
plus that margin, and the spectrum from the cached transform plan equals,
bit for bit, a Bluestein spectrum computed afresh with nothing cached, on
the input's histogram and on a drawn one.  Over a drawn irreducible
modulus, the exp, log and Zech tables read off the map a -> g * a equal
those of the product loop of tests/test_field.py, and each Zech entry is the
log of 1 + g^m summed on digit vectors.

The examples come from the profile that tests/conftest.py loads: the
derandomized tier1 by default, so tier-1 sees the same examples every time;
the fixed-seed criteria and comparisons of the other modules stand beside it.
"""

import cmath
import functools
import itertools
import math
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addix import charsum
from addix.analysis import inverse_pp, is_permutation, round_trips
from addix.charsum import MultChar, bound_report, char_sum
from addix.decompose import additive_index, additive_kernel, maximal_decomposition
from addix.field import Field, is_prime
from addix.linearized import (LinearizedPoly, Subspace, complement, is_linearized,
                              kernel, restricted_kernel, vanishing_poly)
from addix.poly import Poly, parse_poly, poly_to_str, reduce_mod_xq_minus_x, shift_expand
from test_code_core import (add, from_digits, neg, ref_divmod, ref_echelon, ref_mul,
                            ref_reduce)
from test_field import naive_irreducible, ref_tables

FIELDS = [Field(p, n) for p in range(2, 65) if is_prime(p)
          for n in range(1, 7) if p ** n <= 64]


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


@st.composite
def permutations(draw, field):
    """A permutation polynomial over field: a monomial x^e with e prime to
    q - 1, or outer(S(x)) + x with S vanishing on a drawn subspace and
    outer = C(g(x)) for S's complement C, so that S o outer is x^q - x at
    g and vanishes on the field, and g of degree 3 at p = 2, else 2, so
    that outer is not linearized; then c * P(a x) + b for a, c nonzero."""
    q = field.q
    codes, nonzero = st.integers(0, q - 1), st.integers(1, q - 1)
    if draw(st.booleans()):
        e = draw(st.sampled_from([e for e in range(1, q) if gcd(e, q - 1) == 1]))
        perm = Poly.monomial(field, field.one, e)
    else:
        gens = draw(st.lists(nonzero, min_size=1, max_size=max(field.n - 1, 1)))
        base = vanishing_poly(Subspace(field, map(field.from_code, gens)))
        low = draw(st.lists(codes, min_size=2 + (field.p == 2), max_size=2 + (field.p == 2)))
        g = Poly.from_codes(field, low + [draw(nonzero)])  # degree 3 or 2, not a power of p
        perm = complement(base).to_poly().compose(g).compose(base.to_poly()) + Poly.x(field)
    a, c = (field.from_code(draw(nonzero)) for _ in "ac")
    return perm.compose(Poly.monomial(field, a, 1)) * c + Poly.from_codes(field, [draw(codes)])


EACH_FIELD = pytest.mark.parametrize("field", FIELDS, ids=[repr(f) for f in FIELDS])


@EACH_FIELD
@given(data=st.data())
def test_kernel_and_decomposition_properties(field, data):
    poly = data.draw(inputs(field))
    assert additive_kernel(poly) == additive_kernel(poly, "brute")
    dec = maximal_decomposition(poly)
    assert dec.compose() == dec.poly
    assert kernel(dec.subspace_poly) == dec.kernel
    assert dec.values == list(dec.poly.values())
    assert is_permutation(poly).is_pp == is_permutation(poly, "brute").is_pp
    assert parse_poly(poly_to_str(poly), field) == poly


@st.composite
def kernel_inputs(draw, field):
    """One of inputs(field), a dense polynomial of degree q to q + 8, or a
    p-affine one, sum c_i x^(p^i) for i <= n plus a constant, so that the
    fold modulo x^q - x is reached at every field and full kernels occur."""
    codes, nonzero = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    kind = draw(st.sampled_from(["inputs", "dense", "affine"]))
    if kind == "inputs":
        return draw(inputs(field))
    if kind == "dense":
        return Poly.from_codes(field, draw(st.lists(codes, min_size=field.q, max_size=field.q + 8))
                               + [draw(nonzero)])
    linear = LinearizedPoly.from_codes(field, draw(st.lists(codes, max_size=field.n))
                                       + [draw(nonzero)])
    return linear.to_poly() + Poly.from_codes(field, [draw(codes)])


@EACH_FIELD
@given(data=st.data())
def test_brute_kernel_is_the_polynomial_identity(field, data):
    """The value-table oracle keeps exactly the y at which the polynomial
    identity P0(x + y) = P0(x) + P0(y) holds, P0 being the input folded
    modulo x^q - x less its constant term, expanded here by shift_arg."""
    poly = data.draw(kernel_inputs(field))
    reduced = reduce_mod_xq_minus_x(poly)
    p0 = reduced - Poly.constant(field, reduced.constant_term())
    expected = Subspace(field, [y for y in field.elements()
                                if p0.shift_arg(y) == p0 + Poly.constant(field, p0.eval(y))])
    assert additive_kernel(poly, "brute") == expected
    if is_linearized(p0) is not None:
        assert expected.is_full()


@EACH_FIELD
@given(data=st.data())
def test_bands_cut_the_field_from_the_top(field, data):
    """The theorem of the kernel route.  At a drawn pair (y, z) every band
    of the reduced input satisfies the cocycle identity
    F_i(y + z) - F_i(y) - F_i(z) = sum over j > i of C(j, i) F_j(z) y^(j-i).
    So from the whole field and the top index down, each band is additive on
    the subspace U that the bands above it leave, and its restricted kernel
    there is {u in U : F_i(u) = 0}, found by evaluating every member; the
    last U is the kernel."""
    poly = data.draw(inputs(field))
    bands = shift_expand(reduce_mod_xq_minus_x(poly))
    y, z = (field.from_code(data.draw(st.integers(0, field.q - 1))) for _ in "yz")
    at_z = [f.eval(z) for f in bands]
    for i, band in enumerate(bands, 1):
        cross = field.zero
        for j in range(i + 1, len(bands) + 1):
            if at_z[j - 1] and comb(j, i) % field.p:
                cross += comb(j, i) * at_z[j - 1] * y ** (j - i)
        assert band.eval(y + z) - band.eval(y) - band.eval(z) == cross
    sub = Subspace.full(field)
    for band in reversed(bands):
        members = field.span_codes(sub.rows)
        table = dict(zip(members, band.values_at(members)))
        # additive on the span once it is additive against each row
        for row in sub.rows:
            assert all(table[field.add(u, row)] == field.add(table[u], table[row])
                       for u in members)
        sub = restricted_kernel(sub, [table[row] for row in sub.rows])
        assert [v.code for v in sub.elements()] == sorted(u for u in members if not table[u])
    assert sub == maximal_decomposition(poly).kernel


@EACH_FIELD
@given(data=st.data())
def test_code_elimination_matches_digit_echelon(field, data):
    """A span of drawn generators, some of them dependent or zero, has the
    reference's reduced echelon rows, and a drawn code the reference's coset
    key.  A linear map on that span is its values at the rows, drawn from
    the span of at most dim codes so that kernels are often nontrivial; the
    member of digits d is sum(d_i row_i) and maps to sum(d_i value_i), both
    at index sum(d_i p^i) of span_codes, so the zero set is read at every
    member, and restricted_kernel must span exactly it."""
    codes = st.integers(0, field.q - 1)
    gens = [field.from_code(c) for c in data.draw(st.lists(codes, max_size=field.n + 2))]
    sub = Subspace(field, gens)
    rows, pivots, _ = ref_echelon(field, gens)
    assert [list(b.coeffs) for b in sub.basis] == rows
    v = field.from_code(data.draw(codes))
    key = ref_reduce(list(v.coeffs), rows, pivots, field.p)
    assert sub.coset_key(v) == from_digits(field, key).code
    targets = field.span_codes(data.draw(st.lists(codes, max_size=sub.dim)))
    values = data.draw(st.lists(st.sampled_from(targets), min_size=sub.dim, max_size=sub.dim))
    members = field.span_codes(sub.rows)
    zeros = [m for m, w in zip(members, field.span_codes(values)) if not w]
    ker = restricted_kernel(sub, values)
    assert sorted(field.span_codes(ker.rows)) == sorted(zeros)
    assert [list(b.coeffs) for b in ker.basis] == ref_echelon(field, map(field.from_code, zeros))[0]


@EACH_FIELD
@given(data=st.data())
def test_inverse_round_trips(field, data):
    """inverse_pp of a drawn permutation inverts it on both sides, read at
    every point by round_trips, and keeps its additive index."""
    perm = data.draw(permutations(field))
    assert len(set(perm.values())) == field.q
    inverse = inverse_pp(perm)
    assert round_trips(inverse, perm) and round_trips(perm, inverse)
    assert additive_index(inverse) == additive_index(perm)


@st.composite
def sparse_terms(draw, field):
    """Ascending (exponent, code) terms: maybe a constant term, then from
    exponent 1 up, as a band's are, with gaps from 1 to past q, so that
    steps wrap the multiplicative group."""
    e, terms = 0, []
    if draw(st.booleans()):
        terms.append((0, draw(st.integers(0, field.q - 1))))
    for gap in draw(st.lists(st.integers(1, 3 * field.q), max_size=6)):
        e += gap
        terms.append((e, draw(st.integers(0, field.q - 1))))
    return terms


@EACH_FIELD
@given(data=st.data())
def test_horner_matches_schoolbook_sum(field, data):
    """Field.horner on the plan of drawn sparse terms is sum(c * x^e) at
    every point, summed term by term on Elt."""
    terms = data.draw(sparse_terms(field))
    plan = field.horner_plan(terms)
    for x in field.elements():
        expected = field.zero
        for e, c in terms:
            expected = add(expected, field.from_code(c) * x ** e)
        assert next(field.horner(plan, (x.code,))) == expected.code
    assert list(field.horner(plan, range(field.q))) == [
        next(field.horner(plan, (x,))) for x in range(field.q)]


@EACH_FIELD
@given(data=st.data())
def test_code_kernels_match_elt_references(field, data):
    """The product and division rows, the pairwise sum, the span and the
    elimination's row kernel against the Elt references of
    tests/test_code_core.py: schoolbook rows on Elt, digit-vector sums."""
    codes, nonzero = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    elt = field.from_code

    def vector(max_size):
        return Poly.from_codes(field, data.draw(st.lists(codes, max_size=max_size))).codes

    a, b = vector(12), vector(6)
    ac, bc = [elt(c) for c in a], [elt(c) for c in b]
    assert [elt(c) for c in field.mul_codes(a, b)] == ref_mul(field, ac, bc)
    if b:
        quo, rem = field.divmod_codes(a, b)
        assert ([elt(c) for c in quo], [elt(c) for c in rem]) == ref_divmod(field, ac, bc)
    xs, ys = data.draw(st.lists(codes, max_size=8)), data.draw(st.lists(codes, max_size=8))
    assert field.add_codes(xs, ys) == [add(elt(x), elt(y)).code for x, y in zip(xs, ys)]
    gens = data.draw(st.lists(codes, max_size=field.n))
    span = []
    for k in range(field.p ** len(gens)):
        acc = field.zero
        for g in gens:
            k, digit = divmod(k, field.p)
            for _ in range(digit):
                acc = add(acc, elt(g))
        span.append(acc.code)
    assert field.span_codes(gens) == span
    code, row = data.draw(codes), data.draw(nonzero)
    d = data.draw(st.integers(1, field.p - 1))
    minus = elt(row)
    for _ in range(d - 1):
        minus = add(minus, elt(row))
    assert field.sub_row(code, d, row) == add(elt(code), neg(minus)).code


@functools.cache
def irreducible_moduli(p, n):
    """Every monic irreducible of degree n over F_p, ascending coefficients,
    by trial division."""
    return [list(low) + [1] for low in itertools.product(range(p), repeat=n)
            if naive_irreducible(list(low) + [1], p)]


@EACH_FIELD
@given(data=st.data())
def test_tables_of_a_drawn_modulus(field, data):
    """Over a drawn irreducible modulus, the tables read off the map
    a -> g * a equal the product loop's, and Z[m] is the log of 1 + g^m,
    the sum taken on digit vectors."""
    modulus = data.draw(st.sampled_from(irreducible_moduli(field.p, field.n)))
    drawn = Field(field.p, field.n, modulus)
    exp, log, zech = ref_tables(drawn)
    assert (drawn._exp, drawn._log, drawn._zech) == (exp, log, zech)
    one = drawn.one
    for m, c in enumerate(exp):
        assert zech[m] == log[add(one, drawn.from_code(c)).code]


def _bluestein_afresh(hist):
    """hist's spectrum by Bluestein with no plan: the chirp, the kernel's
    transform and the twiddles of both signs computed anew by cmath.exp."""
    n = len(hist)
    size = charsum._transform_size(n)
    forward, inverse = ([cmath.exp(sign * 2j * math.pi * k / size) for k in range(size // 2)]
                        for sign in (-1, 1))
    chirp = [cmath.exp(1j * math.pi * (k * k % (2 * n)) / n) for k in range(n)]
    b = [w.conjugate() for w in chirp]
    kernel = charsum._fft(b + [0j] * (size - 2 * n + 1) + b[:0:-1], forward)
    conv = charsum._fft([c * w for c, w in zip(hist, chirp)] + [0j] * (size - n), forward)
    conv = charsum._fft([a * v for a, v in zip(conv, kernel)], inverse)
    return [w * c * (1.0 / size) for w, c in zip(chirp, conv)]


@EACH_FIELD
@given(data=st.data())
def test_sweep_matches_oracle_and_fresh_spectrum(field, data):
    """Every report of a sweep over a drawn input, the first summed directly
    and the rest read off the spectrum, is char_sum's sum within the stated
    FFT margin, and its magnitude is at most the additive bound, up to that
    margin: the bound is met with equality (a polynomial constant on the
    field has |S_j| = q) and magnitudes are rounded floats.  The
    spectrum from the cached plan equals a fresh Bluestein spectrum bit for
    bit, on the input's histogram and on a drawn one."""
    poly = data.draw(inputs(field))
    dec = maximal_decomposition(poly)
    chars = [MultChar(field, j) for j in range(1, field.q - 1)]
    reports = [bound_report(poly, chi, decomposition=dec) for chi in chars]
    profile = charsum._value_profile(field, dec, None)  # the sweep's, if any
    for chi, report in zip(chars, reports):
        assert abs(report.value - char_sum(poly, chi)) <= profile.margin
        assert report.magnitude <= report.additive_bound + profile.margin
    drawn = data.draw(st.lists(st.integers(0, field.q), min_size=field.q - 1,
                               max_size=field.q - 1))
    for hist in (profile.hist, drawn):
        assert repr(charsum._spectrum(hist)) == repr(_bluestein_afresh(hist))
