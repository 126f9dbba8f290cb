import random
import sys
import threading

import pytest

from addix.analysis import (TranslatorSpec, is_linear_translator,
                            quotient_pp_criterion, round_trips, translation_pp,
                            translator_pp)
from addix.charsum import MultChar, bound_report, char_sum_affine
from addix.errors import ParseError, PreconditionError
from addix.field import Field, _fp_mod, _fp_mul, _fp_trim, is_prime, parse_field_spec, prime_factors
from addix.linearized import LinearizedPoly, Subspace, linearized_interpolate, subspace_image
from addix.poly import Poly, lagrange_interpolate


def naive_irreducible(coeffs, p):
    """Trial division by every lower-degree monic polynomial."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    n = len(coeffs) - 1
    from itertools import product
    for d in range(1, n):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            # long division remainder
            r = list(coeffs)
            while len(r) - 1 >= d and any(r):
                while r and r[-1] == 0:
                    r.pop()
                if len(r) - 1 < d:
                    break
                shift = len(r) - 1 - d
                f = r[-1]
                for j, gj in enumerate(g):
                    r[shift + j] = (r[shift + j] - f * gj) % p
            while r and r[-1] == 0:
                r.pop()
            if not r:
                return False
    return True


def schoolbook_mulmod(a, b, modulus, p):
    """a * b mod the monic modulus, on ascending coefficient lists of
    length n, by schoolbook multiplication and top-down reduction."""
    n = len(modulus) - 1
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for t in range(2 * n - 2, n - 1, -1):
        f = out[t]
        if f:
            for j, mj in enumerate(modulus):
                out[t - n + j] = (out[t - n + j] - f * mj) % p
    return out[:n]


def code_of(vec, p):
    return sum(c * p ** i for i, c in enumerate(vec))


def digit_vector(code, p, n):
    return [(code // p ** i) % p for i in range(n)]


def field_specs_up_to(q_max):
    return [(p, n) for p in range(2, q_max + 1) if is_prime(p)
            for n in range(1, 20) if p ** n <= q_max]


def test_f4_modulus_is_the_unique_quadratic():
    assert Field(2, 2).modulus == (1, 1, 1)


def test_f3_degree_one_convention():
    f3 = Field(3, 1)
    assert f3.modulus == (0, 1)
    assert f3.primitive.code == 2


def test_f8_modulus_first_in_code_order():
    f8 = Field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)
    # oracle: every earlier candidate in code order is reducible
    assert naive_irreducible([1, 1, 0, 1], 2)
    for code in range(3):  # low parts 0,1,2 come before 3 = (1,1,0)
        cand = [code & 1, (code >> 1) & 1, 0, 1]
        assert not naive_irreducible(cand, 2)


def test_supplied_modulus_checked():
    Field(2, 2, [1, 1, 1])
    with pytest.raises(PreconditionError):
        Field(2, 2, [1, 0, 1])  # (x+1)^2
    with pytest.raises(PreconditionError):
        Field(2, 2, [1, 1])     # wrong degree
    with pytest.raises(PreconditionError):
        Field(4, 2)             # not prime
    with pytest.raises(PreconditionError):
        Field(2, 21)            # over the cap


def test_size_cap_env(monkeypatch):
    monkeypatch.setenv("ADDIX_MAX_Q", "100")
    with pytest.raises(PreconditionError):
        Field(2, 7)
    Field(2, 6)
    monkeypatch.setenv("ADDIX_MAX_Q", "99999999")  # can only lower the cap
    with pytest.raises(PreconditionError):
        Field(2, 21)


def test_f4_multiplication_example():
    f4 = Field(2, 2)
    x = f4.from_code(2)
    assert (x * x).code == 3


def test_inverse_and_frobenius():
    f9 = Field(3, 2)
    assert f9.one.inv() == f9.one
    for code in range(1, 9):
        a = f9.from_code(code)
        assert (a * a.inv()).code == 1
    for code in range(3):
        a = f9.from_code(code)
        assert a.frobenius() == a
    with pytest.raises(ZeroDivisionError):
        f9.zero.inv()


def test_mixed_field_operands_rejected():
    f4 = Field(2, 2)
    f8 = Field(2, 3)
    with pytest.raises(PreconditionError):
        f4.one + f8.one


HOME, AWAY = Field(2, 4), Field(3, 2)
_x, _fx = Poly.x(HOME), Poly.x(AWAY)
_lin, _flin = LinearizedPoly.from_codes(HOME, [1, 1]), LinearizedPoly.identity(AWAY)
_spec = TranslatorSpec(g=_lin.to_poly(), subspace=Subspace(HOME, [HOME.one]),
                       translate=LinearizedPoly.from_codes(HOME, []))
_away = AWAY.primitive

# every entry point that takes a caller's operand, given one over AWAY
FOREIGN = {
    "Elt.__add__": lambda: HOME.one + _away,
    "Poly(...)": lambda: Poly(HOME, [HOME.one, _away]),
    "Poly.scale": lambda: _x.scale(_away),
    "Poly.eval": lambda: _x.eval(_away),
    "LinearizedPoly.eval": lambda: _lin.eval(_away),
    "Subspace(...)": lambda: Subspace(HOME, [_away]),
    "Subspace.contains": lambda: Subspace.full(HOME).contains(_away),
    "Field.dlog": lambda: HOME.dlog(_away),
    "MultChar.__call__": lambda: MultChar(HOME, 1)(_away),
    "Poly.__add__": lambda: _x + _fx,
    "Poly.__add__ elt": lambda: _x + _away,
    "Poly.__mul__": lambda: _x * _fx,
    "Poly.__divmod__": lambda: divmod(_x, _fx),
    "Poly.compose": lambda: _x.compose(_fx),
    "LinearizedPoly.compose": lambda: _lin.compose(_flin),
    "subspace_image": lambda: subspace_image(_flin, Subspace.full(HOME)),
    "round_trips": lambda: round_trips(_x, _fx),
    "quotient_pp_criterion": lambda: quotient_pp_criterion(_fx, _lin, _lin),
    "translation_pp": lambda: translation_pp(_lin, _fx),
    "is_linear_translator": lambda: is_linear_translator(
        TranslatorSpec(g=_x, subspace=Subspace.full(AWAY), translate=_lin)),
    "translator gamma": lambda: is_linear_translator(
        TranslatorSpec(g=_x, subspace=Subspace.full(HOME), translate=_lin,
                       kind="b_linear", gamma=_away, scale=HOME.one)),
    "translator_pp": lambda: translator_pp(_spec, _fx),
    "lagrange_interpolate": lambda: lagrange_interpolate(HOME, [(HOME.one, _away)]),
    "linearized_interpolate": lambda: linearized_interpolate(HOME, [(_away, HOME.one)]),
    "bound_report": lambda: bound_report(_x ** 3, MultChar(AWAY, 1)),
    "bound_report values": lambda: bound_report(
        _x ** 3, MultChar(HOME, 1), values=[HOME.one] * (HOME.q - 1) + [_away]),
}


@pytest.mark.parametrize("entry", FOREIGN)
def test_foreign_operands_refused_with_the_one_message(entry):
    """Field.owns is the one same-field rule, so each entry point refuses
    an operand over another field with the same message."""
    with pytest.raises(PreconditionError) as info:
        FOREIGN[entry]()
    assert str(info.value) == "operands belong to different fields"


def test_owns_accepts_an_equal_field():
    twin = Field(2, 4)
    assert twin is not HOME and HOME.owns(Poly.x(twin), twin.one) is HOME
    assert HOME.code(twin.primitive) == HOME.primitive.code


def test_enumeration_order():
    f2 = Field(2, 1)
    assert [a.code for a in f2.elements()] == [0, 1]
    f4 = Field(2, 2)
    assert [a.code for a in f4.elements()] == [0, 1, 2, 3]
    assert [a.coeffs for a in f4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(Field(2, 3).elements()) == 8


def test_discrete_log_examples():
    f4 = Field(2, 2)
    assert f4.dlog(f4.one) == 0
    assert f4.dlog(f4.primitive) == 1
    assert f4.dlog(f4.from_code(3)) == 2
    with pytest.raises(PreconditionError):
        f4.dlog(f4.zero)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 10)])
def test_field_axioms_exhaustive(p, n):
    field = Field(p, n)
    q = field.q
    for a in field.elements():
        assert a ** q == a
        assert field.from_code(a.code) == a
    g = field.primitive
    assert g ** (q - 1) == field.one
    for r in prime_factors(q - 1):
        assert g ** ((q - 1) // r) != field.one
    for a in field.elements():
        b = a
        for _ in range(n):
            b = b.frobenius()
        assert b == a


@pytest.mark.parametrize("p,n", field_specs_up_to(256) + [(2, 10)])
def test_tables_match_schoolbook_arithmetic(p, n):
    field = Field(p, n)
    q, mod = field.q, list(field.modulus)
    one = digit_vector(1, p, n)

    def order(vec):
        acc, k = vec, 1
        while acc != one:
            acc = schoolbook_mulmod(acc, vec, mod, p)
            k += 1
        return k

    smallest = next(c for c in range(1, q) if order(digit_vector(c, p, n)) == q - 1)
    assert field.primitive.code == smallest
    field._ensure_tables()
    g = digit_vector(smallest, p, n)
    acc = one
    for m in range(q - 1):
        assert field._exp[m] == code_of(acc, p)
        assert field._log[field._exp[m]] == m
        acc = schoolbook_mulmod(acc, g, mod, p)


def ref_tables(field):
    """(exp, log, Zech) by one product of F_p-coefficient lists per power of
    g, each reduced by the modulus: the table build that multiplication by
    g as one linear map replaced."""
    q, p = field.q, field.p
    mod = list(field.modulus)
    g = _fp_trim(list(field.primitive.coeffs))
    exp = [0] * (q - 1)
    log = [0] * q
    log[0] = -1
    acc = [1]
    for m in range(q - 1):
        code = 0
        for c in reversed(acc):
            code = code * p + c
        exp[m] = code
        log[code] = m
        acc = _fp_mod(_fp_mul(acc, g, p), mod, p)
    zech = [log[c - c % p + (c + 1) % p] for c in exp]
    return exp, log, zech


# supplied moduli other than the default, one field each for p = 2, 3, 5
OTHER_MODULI = ["2^4/1,0,0,1,1", "2^8/1,0,1,1,1,0,0,0,1", "3^3/1,0,2,1", "5^2/3,0,1"]
TABLE_FIELDS = ([f"{p}^{n}" for p, n in field_specs_up_to(1 << 12) if n >= 2]
                + [str(p) for p in range(2, 256) if is_prime(p)]
                + ["2^16", "3^10"] + OTHER_MODULI)


@pytest.mark.parametrize("spec", TABLE_FIELDS)
def test_tables_equal_the_product_loop(spec):
    """The tables read off the map a -> g * a are, entry for entry, those of
    one coefficient-list product per power of g."""
    field = parse_field_spec(spec)
    field._ensure_tables()
    assert (field._exp, field._log, field._zech) == ref_tables(field)


@pytest.mark.parametrize("spec", OTHER_MODULI)
def test_other_moduli_are_not_the_default(spec):
    field = parse_field_spec(spec)
    assert field.modulus != Field(field.p, field.n).modulus


INT_OPERANDS = {
    "Poly(...)": lambda: Poly(HOME, [1, 1]),
    "Subspace(...)": lambda: Subspace(HOME, [3]),
    "Poly.eval": lambda: _x.eval(3),
    "Poly.scale": lambda: _x.scale(3),
    "LinearizedPoly.eval": lambda: _lin.eval(3),
    "Subspace.contains": lambda: Subspace.full(HOME).contains(3),
    "Field.dlog": lambda: HOME.dlog(3),
    "MultChar.__call__": lambda: MultChar(HOME, 1)(3),
    "lagrange_interpolate": lambda: lagrange_interpolate(HOME, [(1, 2)]),
    "linearized_interpolate": lambda: linearized_interpolate(HOME, [(1, 2)]),
    "char_sum_affine": lambda: char_sum_affine(MultChar(HOME, 1), 3, Subspace(HOME, [HOME.one])),
}


@pytest.mark.parametrize("entry", INT_OPERANDS)
def test_int_operands_refused_by_name(entry):
    """Field.code refuses anything but an Elt and names its type: an int
    is not coerced, since as a code 3 is code 3 and as a prime-subfield
    scalar 3 mod p."""
    with pytest.raises(PreconditionError) as info:
        INT_OPERANDS[entry]()
    assert str(info.value) == "expected an element of GF(2^4), got int"


def _check_additive_ops(field, pairs):
    p, n = field.p, field.n
    for a, b in pairs:
        va, vb = digit_vector(a.code, p, n), digit_vector(b.code, p, n)
        assert (a + b).code == code_of([(x + y) % p for x, y in zip(va, vb)], p)
        assert (a - b).code == code_of([(x - y) % p for x, y in zip(va, vb)], p)
        assert (-a).code == code_of([(-x) % p for x in va], p)


@pytest.mark.parametrize("p,n", field_specs_up_to(49))
def test_add_sub_neg_match_digit_vectors_exhaustive(p, n):
    field = Field(p, n)
    els = field.elements()
    _check_additive_ops(field, [(a, b) for a in els for b in els])


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (2, 12)])
def test_add_sub_neg_match_digit_vectors_sampled(p, n):
    field = Field(p, n)
    rng = random.Random(p * 100 + n)
    pairs = [(field.from_code(rng.randrange(field.q)), field.from_code(rng.randrange(field.q)))
             for _ in range(2000)]
    _check_additive_ops(field, pairs)


def test_out_of_range_codes_refused():
    f8 = Field(2, 3)
    f8.elements()
    for code in (-1, 8, 99):
        with pytest.raises(PreconditionError):
            f8.from_code(code)
    with pytest.raises(PreconditionError):
        Poly.from_codes(f8, [3, -1])


def test_parse_field_spec():
    f = parse_field_spec("3^2/1,0,1")
    assert f.p == 3 and f.n == 2 and f.modulus == (1, 0, 1)
    assert parse_field_spec("2^3").modulus == (1, 1, 0, 1)
    assert parse_field_spec("7").q == 7
    with pytest.raises(ParseError):
        parse_field_spec("huh")
    with pytest.raises(ParseError):
        parse_field_spec("2^3/1,1")  # wrong coefficient count is a grammar error
    with pytest.raises(PreconditionError):
        parse_field_spec("4^2")      # well-formed but not a prime
    with pytest.raises(PreconditionError):
        parse_field_spec("2^21")     # over the size cap


def test_field_equality_and_element_hashing():
    a = Field(2, 2)
    b = Field(2, 2)
    assert a == b
    assert a.from_code(3) == b.from_code(3)
    assert len({a.from_code(1), b.from_code(1), a.from_code(2)}) == 2


def test_lazy_tables_race_free():
    # the tables must build once even under concurrent first use by + and *
    field = Field(2, 8)
    results = []

    def walk(seed):
        acc = field.from_code(seed)
        for code in range(1, field.q):
            a = field.from_code(code)
            acc = acc * a + a
        return acc.code

    seeds = (2, 3, 5, 7)
    threads = [threading.Thread(target=lambda s=s: results.append(walk(s))) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == sorted(walk(s) for s in seeds)
