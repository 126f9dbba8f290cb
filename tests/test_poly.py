import random

import pytest

from addix.errors import ParseError, PreconditionError
from addix.field import Field
from addix.linearized import xq_minus_x_linearized
from addix.poly import (Poly, lagrange_interpolate, parse_poly, poly_gcd,
                        poly_to_str, reduce_mod_xq_minus_x, shift_expand)

F5 = Field(5, 1)
F8 = Field(2, 3)
F9 = Field(3, 2)
F16 = Field(2, 4)


def rand_poly(rng, field, max_deg):
    return Poly.from_codes(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


def test_gcd_examples():
    assert poly_gcd(parse_poly("x^2-1", F5), parse_poly("x-1", F5)) == parse_poly("x-1", F5)
    z = Poly.zero(F5)
    assert poly_gcd(z, z) == z
    assert poly_gcd(parse_poly("2*x+2", F5), z) == parse_poly("x+1", F5)


def test_divrem_examples():
    f2 = Field(2, 1)
    q, r = divmod(parse_poly("x^3+x", f2), parse_poly("x", f2))
    assert q == parse_poly("x^2+1", f2) and r.is_zero()
    with pytest.raises(ZeroDivisionError):
        divmod(parse_poly("x", f2), Poly.zero(f2))


def test_compose_example():
    assert parse_poly("x^2", F5).compose(parse_poly("x+1", F5)) == parse_poly("x^2+2*x+1", F5)


def test_ring_axioms_random():
    rng = random.Random(11)
    for field in (F5, F9, F16):
        for _ in range(1000):
            a, b, c = (rand_poly(rng, field, 5) for _ in range(3))
            assert (a + b) * c == a * c + b * c
        for _ in range(300):
            a = rand_poly(rng, field, 7)
            b = rand_poly(rng, field, 4)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_mixed_field_rejected():
    with pytest.raises(PreconditionError):
        parse_poly("x", F5) + parse_poly("x", F9)
    for use in (lambda f: f.eval(F9.one), lambda f: f.scale(F9.one),
                lambda f: f.shift_arg(F9.one), lambda f: f + F9.one):
        with pytest.raises(PreconditionError):
            use(parse_poly("x^2+1", F5))


def test_shift_expand_examples():
    assert all(f.is_zero() for f in shift_expand(parse_poly("x^3", F9)))
    assert shift_expand(parse_poly("x^2", F9)) == [parse_poly("2*x", F9)]
    assert shift_expand(parse_poly("x^3", F8)) == [parse_poly("x^2", F8), parse_poly("x", F8)]
    assert shift_expand(Poly.constant(F8, F8.one)) == []


@pytest.mark.parametrize("field", [F8, F9, F16])
def test_shift_expand_bivariate_oracle(field):
    rng = random.Random(5)
    for _ in range(5):
        poly = rand_poly(rng, field, 8)
        if poly.degree < 1:
            continue
        base = poly - Poly.constant(field, poly.constant_term())
        bands = shift_expand(poly)
        for x0 in field.elements():
            for y0 in field.elements():
                lhs = base.eval(x0 + y0) - base.eval(x0) - base.eval(y0)
                rhs = field.zero
                power = x0
                for band in bands:
                    rhs = rhs + band.eval(y0) * power
                    power = power * x0
                assert lhs == rhs


def test_lagrange_examples():
    pts = [(F5.zero, F5.zero), (F5.one, F5.one)]
    assert lagrange_interpolate(F5, pts) == parse_poly("x", F5)
    b = F9.from_code(7)
    assert lagrange_interpolate(F9, [(F9.from_code(2), b)]) == Poly.constant(F9, b)
    pts = list(zip(F8.elements()[:4],
                   [F8.one, F8.from_code(2), F8.zero, F8.zero]))
    out = lagrange_interpolate(F8, pts)
    assert out.degree <= 3
    for xv, yv in pts:
        assert out.eval(xv) == yv
    with pytest.raises(PreconditionError):
        lagrange_interpolate(F5, [(F5.one, F5.zero), (F5.one, F5.one)])


@pytest.mark.parametrize("pair", [(F8.one, F16.zero), (F8.one, F16.one),
                                  (F16.one, F8.zero)], ids=["zero", "value", "abscissa"])
def test_lagrange_refuses_other_fields(pair):
    """Every pair is checked at entry, so a zero value from another field is
    refused like a nonzero one instead of being skipped."""
    with pytest.raises(PreconditionError, match="operands belong to different fields"):
        lagrange_interpolate(F8, [pair])


def test_interpolation_roundtrip_random():
    rng = random.Random(3)
    for _ in range(20):
        xs = rng.sample(range(F16.q), rng.randint(1, 10))
        pts = [(F16.from_code(x), F16.from_code(rng.randrange(16))) for x in xs]
        out = lagrange_interpolate(F16, pts)
        assert all(out.eval(a) == b for a, b in pts)


def test_monomial_refuses_a_negative_exponent():
    assert Poly.monomial(F9, F9.one, 0) == Poly.one(F9)
    with pytest.raises(PreconditionError, match="nonnegative"):
        Poly.monomial(F9, F9.one, -1)


def test_reduce_mod_xq_minus_x():
    assert reduce_mod_xq_minus_x(parse_poly("x^11+x^2", F9)) == parse_poly("x^3+x^2", F9)
    p = parse_poly("x^9", F9)
    assert reduce_mod_xq_minus_x(p) == parse_poly("x", F9)
    small = parse_poly("x^8+1", F9)
    assert reduce_mod_xq_minus_x(small) == small
    # agrees with true polynomial remainder
    whole = xq_minus_x_linearized(F9).to_poly()
    assert reduce_mod_xq_minus_x(parse_poly("x^12+2*x^10+x", F9)) \
        == parse_poly("x^12+2*x^10+x", F9) % whole


def test_parser_grammar():
    assert parse_poly("[5]*x^3 + [2]", F9) == Poly(F9, (F9.from_code(2),) + (F9.zero,) * 2 + (F9.from_code(5),))
    assert parse_poly("3*x^5 + a2*x + 1", F9) == \
        Poly.monomial(F9, F9.zero, 0) + Poly.monomial(F9, F9.from_code(3) ** 2, 1) + Poly.one(F9)
    assert parse_poly("a^2*x", F9) == parse_poly("a2*x", F9)
    assert parse_poly("-x+1", F5) == parse_poly("4*x+1", F5)
    assert parse_poly("(x+1)^2", F9) == parse_poly("x^2+2*x+1", F9)
    with pytest.raises(ParseError):
        parse_poly("x + ?", F9)
    with pytest.raises(ParseError):
        parse_poly("[99]", F9)
    with pytest.raises(ParseError):
        parse_poly("a", F5)  # prime field has no generator symbol


def test_render_roundtrip():
    rng = random.Random(9)
    for field in (F5, F9, F16):
        for _ in range(50):
            poly = rand_poly(rng, field, 6)
            assert parse_poly(poly_to_str(poly), field) == poly
    assert poly_to_str(Poly.zero(F9)) == "0"
