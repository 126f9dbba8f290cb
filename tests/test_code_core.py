"""The code-level polynomial core against an Elt schoolbook reference.

Poly and LinearizedPoly hold element codes and run their loops through the
field's code arithmetic.  The reference below works on Elt objects instead,
with textbook algorithms.  Its addition adds digit vectors mod p and its
multiplication is Elt * (exp/log, checked against schoolbook F_p[x] in
test_field), so it shares neither the Zech table nor any polynomial loop
with the code it checks.  The shift-expansion bands are checked against the
dense formula over every pair (i, t), and their cost against the count of
pairs that Lucas's theorem leaves nonzero.  The decomposition's value table,
built by linearity, is checked against Horner on the polynomial itself, and
the code-level subspace reduction against the digit-vector echelon routine.
"""

import random
from math import comb

import pytest

from addix.decompose import maximal_decomposition
from addix.field import Field
from addix.field import is_prime
from addix.linearized import LinearizedPoly, Subspace, _reduce, vanishing_poly
from addix.poly import Poly, poly_gcd, shift_expand

FIELDS = [Field(2, 4), Field(3, 3), Field(5, 2), Field(7, 2), Field(2, 10)]
IDS = [repr(f) for f in FIELDS]
SMALL_FIELDS = [Field(p, n) for p in range(2, 65) if is_prime(p)
                for n in range(1, 7) if p ** n <= 64]


# -- the reference: Elt lists, constant term first


def add(a, b):
    f = a.field
    return f.from_coeffs([(x + y) % f.p for x, y in zip(a.coeffs, b.coeffs)])


def neg(a):
    f = a.field
    return f.from_coeffs([-x % f.p for x in a.coeffs])


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].code == 0:
        cs.pop()
    return cs


def ref_add(field, a, b):
    n = max(len(a), len(b))
    a = list(a) + [field.zero] * (n - len(a))
    b = list(b) + [field.zero] * (n - len(b))
    return trim(add(x, y) for x, y in zip(a, b))


def ref_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], x * y)
    return trim(out)


def ref_divmod(field, a, b):
    rem = trim(a)
    quo = [field.zero] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] * b[-1].inv()
        quo[shift] = factor
        for j, y in enumerate(b):
            rem[shift + j] = add(rem[shift + j], neg(factor * y))
        rem = trim(rem)
    return trim(quo), rem


def ref_gcd(field, a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, ref_divmod(field, a, b)[1]
    if not a:
        return a
    lead = a[-1].inv()
    return [c * lead for c in a]


def ref_eval(field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = add(acc * x, c)
    return acc


def ref_compose(field, a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(field, ref_mul(field, acc, b), [c])
    return acc


def ref_bands(field, a):
    """The dense formula: band i holds C(i+t, i) a[i+t] at y^t for every t."""
    d = len(a) - 1
    return [trim([field.zero] + [a[i + t] * (comb(i + t, i) % field.p)
                                 for t in range(1, d - i + 1)])
            for i in range(1, d)]


def ref_dense(field, lin):
    """sum lin[i] x^{p^i} as a dense coefficient list."""
    out = []
    for i, c in enumerate(lin):
        out = ref_add(field, out, [field.zero] * field.p ** i + [c])
    return out


def ref_lin_eval(lin, x):
    field = x.field
    acc = field.zero
    for i, c in enumerate(lin):
        acc = add(acc, c * x ** (field.p ** i))
    return acc


# -- comparisons


def rand_codes(rng, field, length):
    return [rng.randrange(field.q) for _ in range(length)]


def structured(rng, field, dim, outer_degree):
    """(V, outer(S(x)) + M(x)) with S vanishing on a random dim-dimensional
    subspace V, a random outer of the given degree and deg M < deg S."""
    sub = Subspace(field, ())
    while sub.dim < dim:
        sub = Subspace(field, list(sub.basis) + [field.from_code(rng.randrange(1, field.q))])
    outer = Poly.from_codes(field, rand_codes(rng, field, outer_degree) + [1])
    linear = LinearizedPoly.from_codes(field, rand_codes(rng, field, dim))
    return sub, outer.compose(vanishing_poly(sub).to_poly()) + linear.to_poly()


def lucas_pairs(codes, p):
    """Pairs (e, i), 0 < i < e, with c_e != 0 and C(e, i) != 0 mod p.  By
    Lucas these i are the ones whose base-p digits never exceed e's: the
    product of (digit + 1) over e's digits, less i = 0 and i = e."""
    count = 0
    for e, c in enumerate(codes):
        if c and e > 1:
            dominated, rest = 1, e
            while rest:
                rest, digit = divmod(rest, p)
                dominated *= digit + 1
            count += dominated - 2
    return count


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_ring_operations_match_reference(field):
    rng = random.Random(field.q)
    for _ in range(25):
        a = Poly.from_codes(field, rand_codes(rng, field, rng.randint(0, 14)))
        b = Poly.from_codes(field, rand_codes(rng, field, rng.randint(1, 8)))
        k = field.from_code(rng.randrange(field.q))
        ac, bc = list(a.coeffs), list(b.coeffs)
        assert list((a + b).coeffs) == ref_add(field, ac, bc)
        assert list((a - b).coeffs) == ref_add(field, ac, [neg(c) for c in bc])
        assert list((-a).coeffs) == trim(neg(c) for c in ac)
        assert list(a.scale(k).coeffs) == trim(c * k for c in ac)
        assert list((a * b).coeffs) == ref_mul(field, ac, bc)
        if not b.is_zero():
            quo, rem = divmod(a, b)
            assert (list(quo.coeffs), list(rem.coeffs)) == ref_divmod(field, ac, bc)
        assert list(poly_gcd(a, b).coeffs) == ref_gcd(field, ac, bc)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_eval_at_every_point_matches_reference(field):
    rng = random.Random(field.q + 1)
    for length in (1, 5, 13):
        a = Poly.from_codes(field, rand_codes(rng, field, length))
        ac = list(a.coeffs)
        for x in field.elements():
            assert a.eval(x) == ref_eval(field, ac, x)
        assert list(a.values()) == [ref_eval(field, ac, x).code for x in field.elements()]
    # sparse: gaps of one and of many, exponents past q, a trailing x^k
    # factor, the zero polynomial
    for terms in ({0: 1}, {1: 2}, {70: 1, 2: 1}, {40: 1, 7: 3, 6: 1, 1: 2}, {}):
        codes = [0] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            codes[e] = c % field.q
        a = Poly.from_codes(field, codes)
        ac = list(a.coeffs)
        dense = [ref_eval(field, ac, x).code for x in field.elements()]
        assert list(a.values()) == dense
        assert [a.eval(x).code for x in field.elements()] == dense


def test_values_cost_by_nonzero_terms(monkeypatch):
    """A full scan of x^2049 + x = x(x + 1)^2048 over GF(2^12) takes two
    multiplications and one power per point, and so does Poly.eval at one
    point; Horner over every coefficient would take 2,050 multiplications."""
    field = Field(2, 12)
    codes = [0] * 2050
    codes[2049] = codes[1] = 1
    poly = Poly.from_codes(field, codes)
    calls = 0
    for name in ("mul", "pow"):
        def counted(self, a, b, orig=getattr(Field, name)):
            nonlocal calls
            calls += 1
            return orig(self, a, b)
        monkeypatch.setattr(Field, name, counted)
    zeros = [x for x, v in enumerate(poly.values()) if v == 0]
    scanned, calls = calls, 0
    value = poly.eval(field.from_code(5))
    monkeypatch.undo()
    assert zeros == [0, 1]
    assert scanned == 3 * field.q
    assert calls == 3 and value.code == list(poly.values())[5]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_compose_shift_and_bands_match_reference(field):
    rng = random.Random(field.q + 2)
    for _ in range(10):
        a = Poly.from_codes(field, rand_codes(rng, field, rng.randint(1, 7)))
        b = Poly.from_codes(field, rand_codes(rng, field, rng.randint(0, 4)))
        y = field.from_code(rng.randrange(field.q))
        ac, bc = list(a.coeffs), list(b.coeffs)
        assert list(a.compose(b).coeffs) == ref_compose(field, ac, bc)
        assert list(a.shift_arg(y).coeffs) == ref_compose(field, ac, [y, field.one])
        dense = Poly.from_codes(field, rand_codes(rng, field, rng.randint(2, 20)))
        assert ([list(f.coeffs) for f in shift_expand(dense)]
                == ref_bands(field, list(dense.coeffs)))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_linearized_operations_match_reference(field):
    rng = random.Random(field.q + 3)
    top = 3 if field.p == 2 else 2
    for _ in range(10):
        a = LinearizedPoly.from_codes(field, rand_codes(rng, field, rng.randint(0, top)))
        b = LinearizedPoly.from_codes(field, rand_codes(rng, field, rng.randint(0, top)))
        ad, bd = ref_dense(field, a.lin_coeffs), ref_dense(field, b.lin_coeffs)
        assert list(a.to_poly().coeffs) == ad
        assert list(a.compose(b).to_poly().coeffs) == ref_compose(field, ad, bd)
        power = [field.one]
        for _ in range(field.p):
            power = ref_mul(field, power, ad)
        assert list(a.frobenius_twist().to_poly().coeffs) == power
        assert list((a - b).to_poly().coeffs) == ref_add(
            field, ad, [neg(c) for c in bd])
        for _ in range(40):
            x = field.from_code(rng.randrange(field.q))
            assert a.eval(x) == ref_lin_eval(a.lin_coeffs, x)
        assert a.values() == [ref_lin_eval(a.lin_coeffs, x).code for x in field.elements()]


@pytest.mark.parametrize("field", FIELDS[:4], ids=IDS[:4])
def test_bands_match_dense_formula(field):
    rng = random.Random(field.q + 4)
    dense = rand_codes(rng, field, rng.randint(150, 250)) + [1]
    sparse = [rng.randrange(1, field.q) if rng.random() < 0.05 else 0
              for _ in range(rng.randint(250, 300))] + [1]
    _, built = structured(rng, field, 2, 200 // field.p ** 2)
    for poly in (Poly.from_codes(field, dense), Poly.from_codes(field, sparse), built):
        assert ([list(f.coeffs) for f in shift_expand(poly)]
                == ref_bands(field, list(poly.coeffs)))


@pytest.fixture(scope="module")
def sparse_3072():
    """A GF(2^12) input of degree 3072: outer of degree 3 over S of degree 2^10."""
    return structured(random.Random(3072), Field(2, 12), 10, 3)


def test_band_cost_follows_nonzero_terms(sparse_3072, monkeypatch):
    _, poly = sparse_3072
    assert poly.degree == 3072
    for p in (2, 3, 5, 7):
        assert all(lucas_pairs([0] * e + [1], p) == sum(comb(e, i) % p != 0 for i in range(1, e))
                   for e in range(60))
    calls = 0
    mul = Field.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(Field, "mul", counted)
    bands = shift_expand(poly)
    monkeypatch.undo()
    assert len(bands) == 3071
    assert calls <= lucas_pairs(poly.codes, 2)


def test_sparse_3072_decomposes(sparse_3072):
    sub, poly = sparse_3072
    dec = maximal_decomposition(poly)
    assert dec.compose() == poly
    assert all(dec.kernel.contains(v) for v in sub.basis)


def table_inputs(rng, field):
    """Dense, structured (every kernel dimension), linearized and degree >= q
    polynomials over one field."""
    q = field.q
    yield Poly.from_codes(field, rand_codes(rng, field, rng.randint(2, 14)))
    for dim in range(field.n + 1):
        yield structured(rng, field, dim, rng.randint(1, 3))[1]
    lin = LinearizedPoly.from_codes(field, rand_codes(rng, field, field.n) + [1])
    yield lin.to_poly() + Poly.constant(field, field.from_code(rng.randrange(q)))
    yield Poly.from_codes(field, rand_codes(rng, field, q + rng.randint(1, q)) + [1])


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_value_table_matches_horner(field):
    rng = random.Random(field.q + 5)
    for poly in table_inputs(rng, field):
        dec = maximal_decomposition(poly)
        assert dec.values == list(dec.poly.values())
        assert dec.values == list(poly.values())


def test_value_table_matches_horner_gf4096():
    field = Field(2, 12)
    rng = random.Random(4096)
    for dim, outer_degree in ((0, 4), (3, 2), (7, 3), (12, 1)):
        _, poly = structured(rng, field, dim, outer_degree)
        dec = maximal_decomposition(poly)
        assert dec.values == list(poly.values())


def test_decomposition_is_memoised_on_the_polynomial(sparse_3072):
    _, poly = sparse_3072
    dec = maximal_decomposition(poly)
    assert maximal_decomposition(poly) is dec
    assert dec.values is dec.values
    assert dec.poly == poly and dec.poly is not poly
    assert maximal_decomposition(Poly.from_codes(poly.field, poly.codes)) is not dec


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_code_reduce_matches_echelon_reference(field):
    rng = random.Random(field.q + 6)
    p = field.p
    for dim in range(field.n + 1):
        sub = structured(rng, field, dim, 1)[0]
        assert sub.dim == dim
        for v in field.elements():
            ref = _reduce(list(v.coeffs), sub._rows, sub._pivots, p)
            assert list(sub.reduce(v).coeffs) == ref
            assert sub.coset_key(v) == field.from_coeffs(ref).code
            assert sub.contains(v) == (not any(ref))
