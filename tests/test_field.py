import pytest

from addix.errors import ParseError, PreconditionError
from addix.field import Field, parse_field_spec, prime_factors


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
    # the log/exp table must build once even under concurrent first use
    import threading
    field = Field(2, 8)
    results = []

    def worker(seed):
        acc = field.from_code(seed)
        for code in range(1, field.q):
            acc = acc * field.from_code(code)
        results.append(acc.code)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (2, 3, 5, 7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = []
    for seed in (2, 3, 5, 7):
        acc = field.from_code(seed)
        for code in range(1, field.q):
            acc = acc * field.from_code(code)
        expected.append(acc.code)
    assert sorted(results) == sorted(expected)
