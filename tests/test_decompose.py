import random

import pytest

import addix.decompose
import addix.poly
from addix.decompose import (_split, additive_index, additive_kernel,
                             decompose_with, maximal_decomposition,
                             multiplicative_index)
from addix.errors import InvariantViolation, PreconditionError
from addix.field import Field
from addix.linearized import (LinearizedPoly, Subspace, expand_in_base,
                              is_linearized, kernel, require_splitting_monic,
                              subfield, vanishing_poly, xq_minus_x_linearized)
from addix.poly import Poly, parse_poly, shift_expand

F4 = Field(2, 2)
F8 = Field(2, 3)
F9 = Field(3, 2)
F16 = Field(2, 4)
F27 = Field(3, 3)


def rand_poly(rng, field, max_deg):
    while True:
        poly = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])
        if poly.degree >= 1:
            return poly


def test_additive_kernel_examples():
    affine = parse_poly("x^3+x+1", F27)
    assert additive_kernel(affine).is_full()
    assert additive_kernel(affine, "brute").is_full()
    assert additive_kernel(parse_poly("x^3", F8)).dim == 0
    mid = parse_poly("(x^3-x)^2+x", F9)
    assert [e.code for e in additive_kernel(mid).elements()] == [0, 1, 2]
    assert additive_kernel(mid, "brute") == additive_kernel(mid, "gcd")
    with pytest.raises(PreconditionError):
        additive_kernel(Poly.one(F9))


def test_additive_index_examples():
    assert additive_index(parse_poly("x^3+x+1", F27)) == 0
    assert additive_index(parse_poly("x^3", F8)) == 3
    assert additive_index(parse_poly("(x^3-x)^2+x", F9)) == 1


def test_maximal_decomposition_fixtures():
    dec = maximal_decomposition(parse_poly("(x^3-x)^2+x", F9))
    assert dec.subspace_poly.to_poly() == parse_poly("x^3-x", F9)
    assert dec.outer == parse_poly("x^2", F9)
    assert dec.linear_part == LinearizedPoly.identity(F9)
    assert dec.index == 1
    assert dec.compose() == dec.poly

    dec = maximal_decomposition(parse_poly("x^3", F8))
    assert dec.subspace_poly == LinearizedPoly.identity(F8)
    assert dec.outer == parse_poly("x^3", F8)
    assert dec.linear_part.is_zero()
    assert dec.index == 3

    c = F16.from_code(7)
    dec = maximal_decomposition(parse_poly("x^2+[7]", F16))
    assert dec.index == 0
    assert dec.subspace_poly == xq_minus_x_linearized(F16)
    assert dec.outer == Poly.constant(F16, c)
    assert dec.linear_part.to_poly() == parse_poly("x^2", F16)


def test_decomposition_random_contract():
    rng = random.Random(17)
    for field in (F4, F9, F16):
        for _ in range(60):
            poly = rand_poly(rng, field, 9)
            dec = maximal_decomposition(poly)
            assert dec.compose() == dec.poly
            assert dec.outer.constant_term() == dec.poly.constant_term()
            assert dec.linear_part.degree < dec.subspace_poly.degree
            assert dec.subspace_poly.degree == field.p ** (field.n - dec.index)
            assert additive_kernel(poly, "brute") == dec.kernel
            assert dec.subspace_poly == vanishing_poly(dec.kernel)


def test_coset_shift_identity():
    # the decomposition makes the map affine on kernel cosets
    rng = random.Random(23)
    for field in (F9, F16):
        for _ in range(20):
            poly = rand_poly(rng, field, 8)
            dec = maximal_decomposition(poly)
            for a in field.elements():
                pa = dec.poly.eval(a)
                for u in dec.kernel.elements():
                    assert dec.poly.eval(a + u) == pa + dec.linear_part.eval(u)


def test_index_zero_iff_additive_map():
    rng = random.Random(29)
    for _ in range(40):
        poly = rand_poly(rng, F9, 10)
        base = poly - Poly.constant(F9, poly.constant_term())
        additive = all(base.eval(a + b) == base.eval(a) + base.eval(b)
                       for a in F9.elements() for b in F9.elements())
        assert (additive_index(poly) == 0) == additive


def test_maximality_proper_multiples_fail():
    rng = random.Random(31)
    tested = 0
    while tested < 15:
        poly = rand_poly(rng, F16, 8)
        dec = maximal_decomposition(poly)
        if dec.kernel.is_full():
            continue
        bigger = dec.kernel
        code = 1
        while bigger.dim == dec.kernel.dim:
            cand = F16.from_code(code)
            if not bigger.contains(cand):
                bigger = Subspace(F16, list(bigger.basis) + [cand])
            code += 1
        result = decompose_with(poly, vanishing_poly(bigger))
        assert not result.ok and not result.remainder.is_zero()
        tested += 1


def test_decompose_with_examples():
    poly = parse_poly("(x^3-x)^2+x", F9)
    trivial = decompose_with(poly, LinearizedPoly.identity(F9))
    assert trivial.ok and trivial.outer == poly and trivial.linear_part.is_zero()
    full = decompose_with(poly, xq_minus_x_linearized(F9))
    assert not full.ok
    assert full.remainder == parse_poly("x^3-x", F9) % xq_minus_x_linearized(F9).to_poly() \
        or not full.remainder.is_zero()
    affine = decompose_with(parse_poly("x^3+x+1", F9), xq_minus_x_linearized(F9))
    assert affine.ok
    with pytest.raises(PreconditionError):
        decompose_with(poly, is_linearized(parse_poly("x^3", F9)))  # x^3 splits nowhere


def test_degree_at_least_q_reduces_first():
    poly = parse_poly("x^9+x^3", F9)  # acts like x + x^3, additive
    assert additive_index(poly) == 0
    dec = maximal_decomposition(poly)
    assert dec.poly == parse_poly("x^3+x", F9)
    assert dec.compose() == dec.poly
    # a degree >= q input that collapses to a constant map
    zero_map = parse_poly("x^4+x", F4)
    assert additive_kernel(zero_map).is_full()
    dec = maximal_decomposition(zero_map)
    assert dec.poly.is_zero() and dec.index == 0


def test_multiplicative_index_examples():
    assert multiplicative_index(parse_poly("3*x^7+1", F16)) == 1
    assert multiplicative_index(parse_poly("x^5+x^3", F16)) == 15
    assert multiplicative_index(parse_poly("x^3+x", F9)) == 4
    with pytest.raises(PreconditionError):
        multiplicative_index(Poly.one(F9))


def test_kernel_method_agreement_sample():
    rng = random.Random(37)
    for field in (F8, F9, F16, F27):
        for _ in range(50):
            poly = rand_poly(rng, field, 12)
            assert additive_kernel(poly, "gcd") == additive_kernel(poly, "brute")


def test_structural_routes_scan_no_field(monkeypatch):
    """Kernels are read by linear algebra: with the q-element scan disabled,
    every structural kernel route still finishes over GF(2^12)."""
    field = Field(2, 12)
    field.elements()  # the element cache that from_code reads
    rng = random.Random(41)
    sub = Subspace(field, [field.from_code(rng.randrange(1, field.q)) for _ in range(3)])
    base = vanishing_poly(sub)
    outer = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(2)] + [1])
    linear = LinearizedPoly.from_codes(field, [rng.randrange(field.q) for _ in range(3)])
    structured = outer.compose(base.to_poly()) + linear.to_poly()
    dense = rand_poly(rng, field, 24)

    def scan(self):
        raise AssertionError("scan over every field element")

    monkeypatch.setattr(Field, "elements", scan)
    for poly in (structured, dense):
        dec = maximal_decomposition(poly)
        assert dec.compose() == dec.poly
        assert additive_kernel(poly, "gcd") == dec.kernel
        assert kernel(dec.subspace_poly) == dec.kernel
        require_splitting_monic(dec.subspace_poly)
        assert decompose_with(poly, dec.subspace_poly).ok
    assert decompose_with(structured, base).ok
    assert subfield(field, 4).dim == 4 and subfield(field, 12).is_full()


@pytest.mark.parametrize("p, n", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_trivial_kernel_split_matches_digits(p, n):
    """Against the base x the split reads outer = P and M = 0 without long
    division; the Euclidean digits of P - P(0) in base x must say the same."""
    field = Field(p, n)
    x = Poly.x(field)
    rng = random.Random(p)
    for _ in range(40):
        poly = rand_poly(rng, field, rng.randint(1, min(field.q - 1, 40)))
        const = poly.constant_term()
        digits = expand_in_base(poly - Poly.constant(field, const), x)
        assert is_linearized(digits[0]).is_zero()
        assert all(d.degree <= 0 for d in digits[1:])
        from_digits = Poly(field, [const] + [d.constant_term() for d in digits[1:]])
        outer, linear_part = _split(poly, x)
        assert outer == from_digits == poly
        assert linear_part.is_zero()
        dec = maximal_decomposition(poly)
        if dec.index == n:
            assert dec.outer == poly and dec.linear_part.is_zero()


@pytest.mark.parametrize("p, n, dim", [(2, 8, None), (3, 5, 2), (2, 12, 3)])
def test_first_kernel_is_read_with_no_division(monkeypatch, p, n, dim):
    """A nontrivial kernel is read by linear algebra on the bands' values at
    the rows of each restriction, and S is built from its basis: with
    polynomial division patched to fail, the kernel is still the brute one."""
    field = Field(p, n)
    if dim is None:
        poly = parse_poly("(x^4+x)^3+(x^4+x)+x", field)
    else:
        rng = random.Random(p * n)
        sub = Subspace(field, [field.from_code(rng.randrange(1, field.q)) for _ in range(dim)])
        outer = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(p + 1)] + [1])
        linear = LinearizedPoly.from_codes(field, [rng.randrange(field.q) for _ in range(dim)])
        poly = outer.compose(vanishing_poly(sub).to_poly()) + linear.to_poly()
        assert any(not f.is_zero() for f in shift_expand(poly))
    brute = additive_kernel(poly, "brute")
    assert brute.dim > 0

    def refuse(*args):
        raise AssertionError("polynomial division")

    monkeypatch.setattr(Field, "divmod_codes", refuse)
    assert additive_kernel(poly) == brute


@pytest.mark.parametrize("field, text, dim", [(F16, "x^12 + x^9 + x^5", 1),
                                              (F8, "x^6 + [2]*x^5 + [6]*x^2", 0)],
                         ids=["GF(2^4)", "GF(2^3)"])
def test_kernel_needs_no_division_where_a_band_fails_the_least_one(monkeypatch, field,
                                                                  text, dim):
    """On these inputs the roots of the band of least degree are not V: a
    band above fails at one of them.  Cut from the top index, each band is
    linear where the bands above vanish, so no gcd repairs anything; with
    polynomial division patched to fail, the kernel is still the brute one."""
    poly = parse_poly(text, field)
    brute = additive_kernel(poly, "brute")
    least = min((f for f in shift_expand(poly) if not f.is_zero()), key=lambda f: f.degree)
    assert kernel(is_linearized(least)) != brute and brute.dim == dim

    def refuse(*args):
        raise AssertionError("polynomial division")

    monkeypatch.setattr(Field, "divmod_codes", refuse)
    assert additive_kernel(poly) == brute


def test_trivial_first_kernel_checks_no_band(monkeypatch):
    """x^10 + x^3 over GF(2^8) has the top band F_8 = y^2, whose kernel on
    the field is {0}: that is V, so no band below it is planned or
    evaluated."""
    field = Field(2, 8)
    poly = parse_poly("x^10+x^3", field)
    top = shift_expand(poly)[7:]  # F_8 and the zero band F_9
    assert top == [parse_poly("x^2", field), Poly.zero(field)]
    planned = []
    real = Field.horner_plan

    def counted(self, terms):
        terms = list(terms)
        planned.append([(e, c) for e, c in terms if c])
        return real(self, terms)

    monkeypatch.setattr(Field, "horner_plan", counted)
    dec = maximal_decomposition(poly)
    assert planned == [[(2, 1)]]
    assert dec.index == 8 and dec.subspace_poly == LinearizedPoly.identity(field)


def test_dense_top_band_pulls_one_band(monkeypatch):
    """A dense input of degree 3,999 over GF(2^12) has the top band
    F_3998 = c_3999 * y of degree 1, so the walk pulls that band alone and
    reads the Lucas terms of the top exponent only.  Exponents of 256 and
    up bypass the cache, so every read is a call of _lucas_terms."""
    field = Field(2, 12)
    rng = random.Random(3999)
    poly = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(3999)] + [1])
    lucas, pulled = [], []
    real_lucas, real_bands = addix.poly._lucas_terms, addix.decompose.shift_bands

    def counted_lucas(e, p):
        lucas.append(e)
        return real_lucas(e, p)

    def counted_bands(poly):
        for terms in real_bands(poly):
            pulled.append(terms)
            yield terms

    monkeypatch.setattr(addix.poly, "_lucas_terms", counted_lucas)
    monkeypatch.setattr(addix.decompose, "shift_bands", counted_bands)
    dec = maximal_decomposition(poly)
    assert lucas == [3999]
    assert pulled == [[(1, 1)]]
    assert dec.index == 12 and dec.kernel.dim == 0


@pytest.mark.parametrize("field", [F16, F27, Field(5, 2)], ids=repr)
def test_decomposition_builds_no_dense_band(monkeypatch, field):
    """With shift_expand patched to raise, the decomposition, the kernel
    and the splitting against the brute kernel's vanishing polynomial still
    match the brute kernel oracle."""
    def refuse(*args):
        raise AssertionError("shift_expand")

    monkeypatch.setattr(addix.poly, "shift_expand", refuse)
    monkeypatch.setattr(addix.decompose, "shift_expand", refuse, raising=False)
    rng = random.Random(field.q)
    for dim in range(field.n + 1):
        sub = Subspace(field, [field.from_code(rng.randrange(1, field.q)) for _ in range(dim)])
        outer = rand_poly(rng, field, field.p + 1)
        linear = LinearizedPoly.from_codes(field, [rng.randrange(field.q) for _ in range(dim)])
        for poly in (outer.compose(vanishing_poly(sub).to_poly()) + linear.to_poly(),
                     rand_poly(rng, field, 2 * field.q)):
            if poly.degree < 1:
                continue
            brute = additive_kernel(poly, "brute")
            assert additive_kernel(poly) == brute
            dec = maximal_decomposition(poly)
            assert dec.kernel == brute and dec.compose() == dec.poly
            split = decompose_with(poly, vanishing_poly(brute))
            assert split.ok and split.remainder.is_zero()
            base = vanishing_poly(brute).to_poly()
            assert split.outer.compose(base) + split.linear_part.to_poly() == dec.poly


def test_split_refuses_a_broken_digit_contract():
    """Against a base that does not divide the maximal subspace polynomial
    the digits break the contract, and the split says so."""
    with pytest.raises(InvariantViolation, match="higher digit of the expansion is not constant"):
        _split(parse_poly("x^3+x", F8), parse_poly("x^2+x", F8))
    with pytest.raises(InvariantViolation, match="zeroth digit of the expansion is not linearized"):
        _split(parse_poly("x^4+x^2", F9), parse_poly("x^3-x", F9))


@pytest.mark.parametrize("p, n, degree", [(2, 8, 63), (3, 5, 61), (5, 3, 62)])
def test_degree_one_top_band_folds_nothing(monkeypatch, p, n, degree):
    """A dense input whose degree d is prime to p has the top band
    F_(d-1) = d*c_d*y of degree 1, which proves V = {0}: no restricted
    kernel is read.  Cutting from F_1, of degree d - 1, would read one."""
    field = Field(p, n)
    rng = random.Random(degree)
    poly = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(degree)] + [1])
    assert shift_expand(poly)[-1].degree == 1

    def refuse(*args):
        raise AssertionError("restricted kernel")

    monkeypatch.setattr(addix.decompose, "restricted_kernel", refuse)
    dec = maximal_decomposition(poly)
    assert dec.index == n and dec.subspace_poly == LinearizedPoly.identity(field)
