import random
import sys
import threading

import pytest

from addix.errors import ParseError, PreconditionError
from addix.field import Field, is_prime, parse_field_spec, prime_factors
from addix.poly import Poly


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
        assert field.from_code(a.code) is a or field.from_code(a.code) == a
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
