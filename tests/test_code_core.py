"""The code-level polynomial core against an Elt schoolbook reference.

Poly and LinearizedPoly hold element codes and run their loops through the
field's code arithmetic: Horner scans, division and products through the
fused log-domain kernels of Field, sums of code vectors and spans
through its addition kernels, the rest through Field.add/mul.  The
reference below works on Elt objects instead, with textbook algorithms.  Its
addition adds digit vectors mod p and its multiplication is Elt * (exp/log,
checked against schoolbook F_p[x] in test_field), so it shares neither the
Zech table nor any polynomial loop with the code it checks.  The kernels
are checked against it on inputs chosen to reach their edge cases: the
point 0, polynomials with few terms or none, and sums that cancel to zero
mid-loop.  The shift-expansion bands are checked against the
dense formula over every pair (i, t), and their cost against the count of
pairs that Lucas's theorem leaves nonzero, and the cached Lucas terms
against math.comb.  The verified kernel fold is checked against the
index-order fold it replaced (ref_fold), which ends with its own Euclid
against x^q - x (ref_xq_gcd).  The decomposition's value table,
built by linearity, is checked against Horner on the polynomial itself.
The addition kernels are checked against Field.add, the digit-vector sum
and the span loop they replaced (ref_span), and batch coset keys, with
coset_key their one-code entry, against the digit-vector reduction; with
Field.add and the elimination's row kernel patched to raise, value tables,
coset keys and a brute value-set count must still finish.
Subspaces hold reduced-echelon rows as codes; their rows, reductions and
kernels are checked against a digit-vector echelon reference that works on
Elt.coeffs lists mod p.  Spans and restricted kernels must reach the one
row kernel Field.sub_row, and the kernel path must finish
with Field.from_code patched to raise; so must decomposition, the theorem
value-set count, the permutation and involution certificates, the quotient
criterion and translation_pp, with Elt.__init__ patched to raise as well,
and so must the brute kernel oracle with Poly.shift_arg patched to raise
too; a field builds three elements and caches none.  An interpolant is
unique, so both interpolations are checked by their values at the nodes,
read by the reference evaluators, and their degree bounds, and their
refusals by repeated or dependent nodes.
"""

import gc
import itertools
import random
import weakref
from math import comb

import pytest

from addix.analysis import (PPCertificate, construct_prescribed_cycles,
                            is_involution, is_permutation, quotient_pp_criterion,
                            translation_pp, value_set_size)
from addix.decompose import additive_kernel, decompose_with, maximal_decomposition
from addix.errors import PreconditionError
from addix.field import Elt, Field
from addix.field import is_prime
from addix.linearized import (LinearizedPoly, Subspace, complement, compose_quotient,
                              coset_reps, expand_in_base, is_linearized,
                              kernel, linearized_interpolate, restricted_kernel,
                              vanishing_poly, xq_minus_x_linearized)
from addix.poly import (_LUCAS_CACHE_SIZE, Poly, _cached_lucas_terms,
                        lagrange_interpolate, poly_gcd, reduce_mod_xq_minus_x,
                        shift_expand)

FIELDS = [Field(2, 4), Field(3, 3), Field(5, 2), Field(7, 2), Field(2, 10)]
IDS = [repr(f) for f in FIELDS]
SMALL_FIELDS = [Field(p, n) for p in range(2, 65) if is_prime(p)
                for n in range(1, 7) if p ** n <= 64]


# -- the reference: Elt lists, constant term first


def from_digits(field, digits):
    """The element whose base-p digits, lowest first, are digits mod p."""
    return field.from_code(sum(d % field.p * field.p ** i for i, d in enumerate(digits)))


def add(a, b):
    return from_digits(a.field, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def neg(a):
    return from_digits(a.field, [-x for x in a.coeffs])


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


def ref_span(field, gens):
    """The span loop that Field.span_codes replaced, one Field.add per entry:
    the entries below p^(i+1) are those below p^i plus d * gens[i]."""
    table = [0]
    for g in gens:
        size = len(table)
        for _ in range(field.p - 1):
            table.extend([field.add(v, g) for v in table[-size:]])
    return table


def ref_lin_eval(lin, x):
    """sum lin[i] x^{p^i}, raising x to the p once per coefficient."""
    acc, t = x.field.zero, x
    for c in lin:
        acc = add(acc, c * t)
        t = t ** x.field.p
    return acc


def ref_compose_quotient(field, target, inner):
    """The dense Euclid route to N with N(inner(x)) = target(x), for a dense
    target and a p-power inner: the digits of target in base inner must
    vanish at index zero and be constants above it, and those constants,
    read at the indices p^i, are N's p-power coefficients.  Refusals carry
    the messages of compose_quotient."""
    powers = [field.p ** i for i in range(len(target).bit_length())]
    if not inner or inner[0].code == 0:
        raise PreconditionError("inner polynomial must be separable (nonzero x coefficient)")
    if any(c.code and e not in powers for e, c in enumerate(target)):
        raise PreconditionError("target is not linearized")
    base, cur, digits = ref_dense(field, inner), trim(target), []
    while True:
        cur, rem = ref_divmod(field, cur, base)
        digits.append(rem)
        if not cur:
            break
    if digits[0] or any(len(d) > 1 for d in digits[1:]):
        raise PreconditionError("inner polynomial does not divide target")
    outer = [d[0] if d else field.zero for d in digits]
    assert not any(c.code for e, c in enumerate(outer) if e not in powers)
    return trim(outer[e] for e in powers if e < len(outer))


def ref_xq_gcd(g):
    """gcd(g, x^q - x) by Euclid, x^q reduced mod g by repeated squaring."""
    field = g.field
    power, base, e = Poly.one(field), Poly.x(field), field.q
    while e:
        if e & 1:
            power = power * base % g
        base = base * base % g
        e >>= 1
    return poly_gcd(g, (power - Poly.x(field)) % g)


def ref_fold(poly):
    """The index-order fold: g = gcd(F_1, F_2, ...), stopping once it is
    c*x, then gcd(g, x^q - x), whose roots are the kernel."""
    field = poly.field
    bands = [f for f in shift_expand(poly) if not f.is_zero()]
    if not bands:
        return xq_minus_x_linearized(field), Subspace.full(field)
    g = bands[0]
    for band in bands[1:]:
        if g.degree == 1:
            break
        g = poly_gcd(g, band)
    if g.degree == 1:
        return LinearizedPoly.identity(field), Subspace(field, ())
    sub_poly = is_linearized(ref_xq_gcd(g))
    ker = kernel(sub_poly)
    assert field.p ** ker.dim == sub_poly.degree
    return sub_poly, ker


def ref_split(poly, base):
    """(outer, linear_part) read off the digits in base: the zeroth digit
    is the linear part and the constants above it, after poly(0), the
    outer's coefficients."""
    field = poly.field
    const = poly.constant_term()
    digits = expand_in_base(poly - Poly.constant(field, const), base)
    assert all(d.degree <= 0 for d in digits[1:])
    outer = Poly(field, [const] + [d.constant_term() for d in digits[1:]])
    return outer, is_linearized(digits[0])


def ref_reduce(vec, rows, pivots, p):
    """Clear vec's digits at the pivots of echelon rows whose pivot digits
    are 1, in place; vec is returned for chaining."""
    for row, piv in zip(rows, pivots):
        k = vec[piv]
        if k:
            for j, r in enumerate(row):
                vec[j] = (vec[j] - k * r) % p
    return vec


def ref_insert(vec, rows, pivots, p):
    """Reduce vec in place against the echelon rows; unless it then
    vanishes, append it as a new row with its lowest nonzero digit as pivot,
    scaled to 1.  Returns whether a row was added."""
    ref_reduce(vec, rows, pivots, p)
    piv = next((j for j, v in enumerate(vec) if v), None)
    if piv is None:
        return False
    inv = pow(vec[piv], p - 2, p)
    rows.append([(v * inv) % p for v in vec])
    pivots.append(piv)
    return True


def ref_echelon(field, gens):
    """(rows, pivots, dependent) for the span of gens: reduced echelon
    digit rows ascending by pivot, and whether some generator was dependent."""
    rows, pivots, p = [], [], field.p
    dependent = False
    for g in gens:
        if not ref_insert(list(g.coeffs), rows, pivots, p):
            dependent = True
            continue
        for row in rows[:-1]:
            ref_reduce(row, rows[-1:], pivots[-1:], p)
    order = sorted(range(len(rows)), key=lambda i: pivots[i])
    return [rows[i] for i in order], [pivots[i] for i in order], dependent


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
    """x^2049 + x = x(x + 1)^2048 over GF(2^12) is planned as one Horner
    step, from x^2049 down to x, and a trailing factor x (low = 1).  A full
    scan pulls each point once, and Poly.eval at one point pulls that point
    alone on the same plan; Horner over every coefficient would take 2,049
    steps a point."""
    field = Field(2, 12)
    codes = [0] * 2050
    codes[2049] = codes[1] = 1
    poly = Poly.from_codes(field, codes)
    plans, pulled = [], []
    horner_plan, horner = Field.horner_plan, Field.horner

    def planned(self, codes):
        plans.append(horner_plan(self, codes))
        return plans[-1]

    def counted(self, plan, points):
        def pull():
            for x in points:
                pulled.append(x)
                yield x
        return horner(self, plan, pull())

    monkeypatch.setattr(Field, "horner_plan", planned)
    monkeypatch.setattr(Field, "horner", counted)
    zeros = [x for x, v in enumerate(poly.values()) if v == 0]
    scanned = len(pulled)
    value = poly.eval(field.from_code(5))
    monkeypatch.undo()
    assert zeros == [0, 1]
    ((_, low, _, steps),) = plans
    assert steps == [(2048, 0)] and low == 1
    assert scanned == field.q
    assert pulled[scanned:] == [5] and value.code == list(poly.values())[5]


def kernel_inputs(rng, field):
    """Code vectors for the Horner kernel, built by the reference: zero,
    constant, one-term, zero constant term (low > 0), dense, sparse with
    long gaps, and two whose accumulator cancels to zero mid-scan at a
    nonzero point a.  Yields (codes, a or None)."""
    q, one = field.q, field.one
    c = lambda: rng.randrange(1, q)  # noqa: E731
    yield [], None
    yield [c()], None
    yield [0, 0, 0, c()], None
    yield [0, c(), 0, 0, c(), c()], None
    yield [0] * 5 + rand_codes(rng, field, 6) + [c()], None
    yield rand_codes(rng, field, 9) + [c()], None
    yield [c()] + [0] * 30 + [c()] + [0] * 70 + [c()], None
    a = field.from_code(c())
    # x^5 - a^2 x^3 + lower terms: the first step gives a^2 - a^2 = 0 at a
    yield [c(), c(), 0, neg(a * a).code, 0, 1], a
    # x^3 - a x^2: the last step cancels at a, before the factor x^2
    yield [0, 0, neg(a).code, one.code], a


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_horner_kernel_matches_reference(field):
    rng = random.Random(field.q + 8)
    cancelled = 0
    for codes, a in kernel_inputs(rng, field):
        poly = Poly.from_codes(field, codes)
        ac = list(poly.coeffs)
        expected = [ref_eval(field, ac, x).code for x in field.elements()]
        plan = field.horner_plan(enumerate(poly.codes))
        assert list(field.horner(plan, range(field.q))) == expected
        assert list(poly.values()) == expected
        assert [poly.eval(x).code for x in field.elements()] == expected
        if a is not None:
            top = next(e for e in range(len(ac) - 2, -1, -1) if ac[e].code)
            cancelled += ref_eval(field, ac[top:], a).code == 0
    assert cancelled == 2


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_values_at_is_lazy(field):
    """A long stream of points, like itertools.count() but finite so that
    an eager scan fails instead of hanging: values_at pulls a point only
    when its consumer asks for the next value."""
    poly = Poly.from_codes(field, [3 % field.q, 0, 1, field.q - 1])
    ac = list(poly.coeffs)
    pulled = 0

    def points():
        nonlocal pulled
        for k in range(64 * field.q):
            pulled += 1
            yield k % field.q

    head = list(itertools.islice(poly.values_at(points()), 2 * field.q + 3))
    assert pulled == 2 * field.q + 3
    assert head == [ref_eval(field, ac, field.from_code(k % field.q)).code
                    for k in range(2 * field.q + 3)]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_row_kernels_match_reference(field):
    """divmod, gcd, the product and the shift x -> x + y on pairs built by
    the reference: a = b * c + r with gaps in c, so a row of the division
    also cancels the next leading coefficient and the quotient has zeros;
    a = g * u and b = g * v with a common factor g; and (x + k)(x - k),
    whose middle coefficient cancels inside the product's rows."""
    rng = random.Random(field.q + 9)
    elt = lambda: field.from_code(rng.randrange(field.q))  # noqa: E731
    unit = lambda: field.from_code(rng.randrange(1, field.q))  # noqa: E731
    gaps = 0
    for _ in range(20):
        bc = [elt() for _ in range(rng.randint(0, 5))] + [unit()]
        cc = [elt()] + [field.zero] * rng.randint(0, 4) + [unit()]
        rc = trim(elt() for _ in range(len(bc) - 1))
        common = [elt() for _ in range(rng.randint(0, 3))] + [unit()]
        pairs = [(ref_add(field, ref_mul(field, bc, cc), rc), bc),
                 (ref_mul(field, common, cc), ref_mul(field, common, bc))]
        for ac, dc in pairs:
            a, d = Poly(field, ac), Poly(field, dc)
            assert list((a * d).coeffs) == ref_mul(field, ac, dc)
            quo, rem = divmod(a, d)
            ref_quo, ref_rem = ref_divmod(field, ac, dc)
            assert (list(quo.coeffs), list(rem.coeffs)) == (ref_quo, ref_rem)
            assert list(poly_gcd(a, d).coeffs) == ref_gcd(field, ac, dc)
            gaps += any(c.code == 0 for c in ref_quo)
            for y in (field.zero, unit()):
                assert list(a.shift_arg(y).coeffs) == ref_compose(field, ac, [y, field.one])
    assert gaps
    k = unit()
    assert list((Poly(field, [k, field.one]) * Poly(field, [neg(k), field.one])).coeffs) == [
        neg(k * k), field.zero, field.one]


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
        frob = LinearizedPoly.from_codes(field, [0, 1])
        assert list(frob.compose(a).to_poly().coeffs) == power
        assert list((a - b).to_poly().coeffs) == ref_add(
            field, ad, [neg(c) for c in bd])
        for _ in range(40):
            x = field.from_code(rng.randrange(field.q))
            assert a.eval(x) == ref_lin_eval(a.lin_coeffs, x)
        assert a.values() == [ref_lin_eval(a.lin_coeffs, x).code for x in field.elements()]


def _quotient_or_refusal(call):
    try:
        return list(call())
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_compose_quotient_matches_dense_euclid(field):
    """Right division on p-power coefficients against the dense Euclid
    route: exact quotients of non-monic and inseparable inners, targets
    perturbed off divisibility, dense targets and non-linearized ones agree
    in value or in the refusal's message."""
    rng = random.Random(field.q + 11)
    top = 3 if field.p == 2 else 2
    verdicts = set()
    for _ in range(40):
        inner = LinearizedPoly.from_codes(field, rand_codes(rng, field, rng.randint(0, top)))
        outer = LinearizedPoly.from_codes(field, rand_codes(rng, field, rng.randint(0, top)))
        target = outer.compose(inner)
        if rng.random() < 0.3:
            target = target + LinearizedPoly.from_codes(field, rand_codes(rng, field, top))
        dense = list(target.to_poly().coeffs)
        givens = [target, Poly(field, dense)]
        if rng.random() < 0.2:  # a constant term, which only a dense target holds
            dense = ref_add(field, dense, [field.from_code(rng.randrange(1, field.q))])
            givens = [Poly(field, dense)]
        expected = _quotient_or_refusal(
            lambda: ref_compose_quotient(field, dense, list(inner.lin_coeffs)))
        for given in givens:
            got = _quotient_or_refusal(lambda: compose_quotient(given, inner).lin_coeffs)
            assert got == expected, (inner, given)
        verdicts.add(expected if isinstance(expected, str) else "quotient")
    assert len(verdicts) == 4, verdicts


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_linearized_eval_matches_reference(field):
    """LinearizedPoly is evaluated by the Horner plan of its p-power terms:
    eval, values_at and the value table agree with the p-power loop at
    every point, for the zero map, the identity, a map without an x term
    (whose plan starts at x^p), the single top term and random maps."""
    rng = random.Random(field.q + 9)
    n, c = field.n, lambda: rng.randrange(1, field.q)  # noqa: E731
    maps = [[], [1], [0, c(), c()], [0] * (n - 1) + [1]]
    maps += [rand_codes(rng, field, rng.randint(1, n)) for _ in range(3)]
    for codes in maps:
        lin = LinearizedPoly.from_codes(field, codes)
        expected = [ref_lin_eval(lin.lin_coeffs, x).code for x in field.elements()]
        assert [lin.eval(x).code for x in field.elements()] == expected
        assert list(lin.values_at(range(field.q))) == expected
        assert lin.values() == expected


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


def test_lucas_terms_match_binomials():
    for p in (2, 3, 5, 7):
        for e in range(3 ** 5):
            assert list(_cached_lucas_terms(e, p)) == [(i, comb(e, i) % p) for i in range(1, e)
                                                       if comb(e, i) % p]


def test_lucas_cache_holds_low_exponents_only():
    """Only exponents below _LUCAS_CACHE_SIZE reach the cache, whose
    entries for e hold fewer than e pairs; higher ones are built afresh."""
    field = Field(2, 10)
    codes = rand_codes(random.Random(5), field, 600) + [1]
    _cached_lucas_terms.cache_clear()
    shift_expand(Poly.from_codes(field, codes))
    info = _cached_lucas_terms.cache_info()
    assert info.misses == sum(1 for e in range(2, _LUCAS_CACHE_SIZE) if codes[e])
    assert info.currsize <= _LUCAS_CACHE_SIZE


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_smallest_band_is_linearized(field):
    """F_i(y + z) - F_i(y) - F_i(z) = sum over j > i of C(j, i) F_j(z) y^(j-i),
    the x^i coefficient of the bands' cocycle identity.  For a band F_i of
    least degree the left side has degree below deg F_i in z, while each
    F_j on the right, at its own power of y, is zero or of degree at least
    deg F_i; so both sides vanish: F_i is additive, hence linearized.  The
    same identity makes every band F_p-linear where the bands above it
    vanish, which the decomposition's cut from the top index relies on."""
    rng = random.Random(field.q + 13)
    for _ in range(12):
        codes = [rng.randrange(field.q) if rng.random() < 0.5 else 0
                 for _ in range(rng.randint(2, 40))]
        bands = [f for f in shift_expand(Poly.from_codes(field, codes + [1])) if not f.is_zero()]
        if bands:
            assert is_linearized(min(bands, key=lambda f: f.degree)) is not None


def decomposition_inputs(rng, field):
    """Dense, structured (every kernel dimension, with an outer of degree
    p + 1, so not linearized) and degree >= q inputs."""
    q, top = field.q, min(field.q, 64)
    yield Poly.from_codes(field, rand_codes(rng, field, rng.randint(2, top)) + [1])
    for dim in range(1, field.n + 1):
        yield structured(rng, field, dim, field.p + 1)[1]
    yield Poly.from_codes(field, rand_codes(rng, field, q + rng.randint(1, 40)) + [1])
    high = Poly.from_codes(field, [0] * rng.randint(q, q + 40) + [1])
    yield high + structured(rng, field, 1, field.p + 1)[1]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_decomposition_matches_index_order_fold(field):
    """The verified fold from the lowest band gives the subspace
    polynomial, kernel and split that the index-order fold gives."""
    rng = random.Random(field.q + 17)
    for poly in decomposition_inputs(rng, field):
        dec = maximal_decomposition(poly)
        reduced = reduce_mod_xq_minus_x(poly)
        sub_poly, ker = ref_fold(reduced)
        assert dec.subspace_poly == sub_poly
        assert dec.kernel == ker
        assert dec.index == field.n - ker.dim
        assert (dec.outer, dec.linear_part) == ref_split(reduced, sub_poly.to_poly())


@pytest.mark.parametrize("field", FIELDS[:4], ids=IDS[:4])
def test_decompose_with_matches_reference(field):
    """A base that divides the maximal subspace polynomial splits as
    per-digit division does; one that does not returns the remainder of
    the index-order fold's subspace polynomial."""
    rng = random.Random(field.q + 23)
    for dim in range(field.n + 1):
        poly = reduce_mod_xq_minus_x(structured(rng, field, dim, 3)[1])
        maximal, ker = ref_fold(poly)
        for k in range(ker.dim + 1):
            base = vanishing_poly(Subspace(field, ker.basis[:k]))
            result = decompose_with(poly, base)
            assert result.ok and result.remainder.is_zero()
            assert (result.outer, result.linear_part) == ref_split(poly, base.to_poly())
        outside = [v for v in field.elements() if v not in ker]
        for v in rng.sample(outside, min(3, len(outside))):
            base = vanishing_poly(Subspace(field, ker.basis[:-1] + (v,)))
            result = decompose_with(poly, base)
            assert not result.ok and result.outer is None and result.linear_part is None
            assert result.remainder == maximal.to_poly() % base.to_poly()
            assert not result.remainder.is_zero()


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


def test_trivial_kernel_decomposition_leaves_no_cycle():
    """Against a trivial kernel the outer is the input's own coefficients;
    it must be held as a copy, or poly -> dec -> outer = poly closes a
    cycle and the decomposition waits for the cyclic collector."""
    field = Field(2, 8)
    poly = Poly.from_codes(field, [7, 0, 3, 1])
    dec = maximal_decomposition(poly)
    assert dec.kernel.dim == 0 and dec.outer == poly
    ref = weakref.ref(dec)
    del dec
    gc.disable()
    try:
        del poly
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_full_subspace_is_the_unit_basis(field):
    full = Subspace.full(field)
    spanned = Subspace(field, field.elements())
    assert full == spanned and hash(full) == hash(spanned)
    assert full._pivots == spanned._pivots and full.basis == spanned.basis
    assert [b.code for b in full.basis] == [field.p ** i for i in range(field.n)]
    assert full.is_full() and list(coset_reps(full)) == [0]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_code_reduce_matches_echelon_reference(field):
    rng = random.Random(field.q + 6)
    p = field.p
    for dim in range(field.n + 1):
        sub = structured(rng, field, dim, 1)[0]
        assert sub.dim == dim
        rows = [list(b.coeffs) for b in sub.basis]
        pivots = [next(j for j, d in enumerate(row) if d) for row in rows]
        for v in field.elements():
            ref = ref_reduce(list(v.coeffs), rows, pivots, p)
            assert list(sub.reduce(v).coeffs) == ref
            assert sub.coset_key(v) == from_digits(field, ref).code
            assert sub.contains(v) == (not any(ref))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_code_echelon_matches_digit_reference(field):
    rng = random.Random(field.q + 7)
    dependent_seen = set()
    for _ in range(60):
        gens = [field.from_code(rng.randrange(field.q))
                for _ in range(rng.randint(0, field.n + 1))]
        if gens and rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens)), gens[0] * field.from_int(2) + gens[-1])
        rows, pivots, dependent = ref_echelon(field, gens)
        dependent_seen.add(dependent)
        sub = Subspace(field, gens)
        assert [list(b.coeffs) for b in sub.basis] == rows
        assert (sub.dim < len(gens)) == dependent  # dependent generators are skipped
    assert dependent_seen == {False, True}
    if field.q > 256:
        return
    dims = set()
    for _ in range(20):
        inner = LinearizedPoly.from_codes(field, rand_codes(rng, field, rng.randint(1, field.n)))
        if inner.is_zero():
            continue
        outer = vanishing_poly(structured(rng, field, rng.randint(0, field.n - 1), 1)[0])
        lin = outer.compose(inner) if rng.random() < 0.5 else inner.compose(outer)
        roots = [a for a in field.elements() if ref_lin_eval(lin.lin_coeffs, a).code == 0]
        ker = kernel(lin)
        assert ker.elements() == roots
        assert [list(b.coeffs) for b in ker.basis] == ref_echelon(field, roots)[0]
        dims.add(ker.dim)
    assert len(dims) > 1


# -- the addition kernels: elementwise sums, spans and batch coset keys

ADD_FIELDS = SMALL_FIELDS + [Field(2, 10)]


@pytest.mark.parametrize("field", ADD_FIELDS, ids=[repr(f) for f in ADD_FIELDS])
def test_add_codes_matches_field_add(field):
    """Every code against a shuffle of them, against zero on either side,
    and against its own negative, which must cancel."""
    q = field.q
    codes = list(range(q))
    shuffled = random.Random(q + 11).sample(codes, q)
    xs = codes + [0] * q + shuffled
    ys = shuffled + codes + [0] * q
    sums = field.add_codes(xs, ys)
    assert sums == list(map(field.add, xs, ys))
    assert sums == [add(field.from_code(x), field.from_code(y)).code for x, y in zip(xs, ys)]
    assert field.add_codes(codes, map(field.neg, codes)) == [0] * q


@pytest.mark.parametrize("field", ADD_FIELDS, ids=[repr(f) for f in ADD_FIELDS])
def test_span_codes_matches_span_loop(field):
    """Independent, dependent, repeated and zero generators, up to one more
    than the dimension."""
    rng = random.Random(field.q + 12)
    for k in range(field.n + 2):
        gens = rand_codes(rng, field, k)
        assert field.span_codes(gens) == ref_span(field, gens)
    for gens in ([], [0], [1, 1], [0, 1, 0], [field.p ** i for i in range(field.n)]):
        assert field.span_codes(gens) == ref_span(field, gens)


KEY_FIELDS = [Field(2, 6), Field(2, 7), Field(3, 4), Field(5, 3)]


@pytest.mark.parametrize("field", KEY_FIELDS, ids=[repr(f) for f in KEY_FIELDS])
def test_coset_keys_match_coset_key(field):
    """coset_key is coset_keys of one code; both are checked against the
    digit-vector reduction on random subspaces of every dimension, the full
    field among them, on an empty batch, a single code, a random batch, the
    whole field and a set."""
    rng = random.Random(field.q + 13)
    subs = [Subspace(field, independent(rng, field, dim)) for dim in range(field.n + 1)]
    for sub in subs + [Subspace.full(field)]:
        rows = [list(b.coeffs) for b in sub.basis]
        pivots = [next(j for j, d in enumerate(row) if d) for row in rows]

        def key(v):
            ref = ref_reduce(list(field.from_code(v).coeffs), rows, pivots, field.p)
            assert sub.coset_key(field.from_code(v)) == from_digits(field, ref).code
            return from_digits(field, ref).code

        assert sub.coset_keys([]) == []
        for batch in ([field.q - 1], rand_codes(rng, field, field.q // 3)):
            assert sub.coset_keys(batch) == list(map(key, batch))
        assert sub.coset_keys(list(range(field.q))) == list(map(key, range(field.q)))
        members = set(rand_codes(rng, field, field.q))
        assert sub.coset_keys(members) == list(map(key, members))


@pytest.mark.parametrize("p, n", [(2, 8), (3, 5)])
def test_tables_and_keys_make_no_per_element_add(monkeypatch, p, n):
    """A decomposition's values, a linearized map's values and a brute
    value-set count run in Field's addition kernels: with Field.add and the
    elimination's row kernel Field.sub_row patched to raise, they still
    finish.  Only the decomposition and its image subspace W, whose echelon
    rows do call them, are built beforehand; W is nonzero, so its key
    tables are read."""
    field = Field(p, n)
    rng = random.Random(field.q + 14)
    _, poly = structured(rng, field, 2, 2)
    dec = maximal_decomposition(poly)
    w = dec.image_subspace
    values = list(poly.values())
    image = set(values)
    assert w.dim > 0
    counted = (len(image), len({w.coset_key(field.from_code(v)) for v in image}))
    lin = LinearizedPoly.from_codes(field, rand_codes(rng, field, n))
    lin_values = list(lin.values_at(range(field.q)))

    def refuse(*args):
        raise AssertionError("per-element addition")

    monkeypatch.setattr(Field, "add", refuse)
    monkeypatch.setattr(Field, "sub_row", refuse)
    assert dec.values == values
    assert lin.values() == lin_values
    assert value_set_size(poly, "brute") == counted


ROW_FIELDS = [Field(2, 6), Field(3, 3), Field(5, 2)]


@pytest.mark.parametrize("field", ROW_FIELDS, ids=[repr(f) for f in ROW_FIELDS])
def test_one_row_kernel_and_no_elt_on_the_kernel_path(monkeypatch, field):
    """Spans and restricted kernels share one elimination whose row
    operation is Field.sub_row: with it patched to raise, a span with a
    dependent generator and restricted_kernel at one nonzero value on every
    row both raise.  Coset keys are read off the key tables, spans of the
    addition kernels, so the coset_key of a non-member with a nonzero pivot
    digit still finishes.  With Field.from_code patched to raise, kernel()
    and restricted_kernel still finish, so the kernel path builds no Elt."""
    p, n = field.p, field.n
    v = field.from_code(p + 1)  # digit 1 at the pivot of the line F_p, so not on it
    line, full = Subspace(field, [field.one]), Subspace.full(field)
    frobenius = LinearizedPoly.from_codes(field, [field.neg(1), 1])  # x^p - x

    def refuse(*args):
        raise AssertionError("row kernel")

    with monkeypatch.context() as patched:
        patched.setattr(Field, "sub_row", refuse)
        with pytest.raises(AssertionError, match="row kernel"):
            Subspace(field, [v, v])
        with pytest.raises(AssertionError, match="row kernel"):
            restricted_kernel(full, [1] * n)
        assert line.coset_key(v) == p  # v = p + 1 less the row 1
    monkeypatch.setattr(Field, "from_code", refuse)
    assert kernel(frobenius).rows == (1,)
    digit_sums = restricted_kernel(full, [1] * n)
    assert sorted(field.span_codes(digit_sums.rows)) == [
        c for c in range(field.q) if sum(c // p ** i % p for i in range(n)) % p == 0]


NO_ELT_FIELDS = [Field(2, 4), Field(3, 3), Field(2, 6)]


def structural_cases(field):
    """(route, arguments) pairs over field: a dense and a structured input,
    a permutation, and a quotient-eligible and a translation instance."""
    rng = random.Random(field.q + 12)
    dense = Poly.from_codes(field, rand_codes(rng, field, 9) + [1])
    sub, shaped = structured(rng, field, 2, 3)
    base = vanishing_poly(sub)
    perm = construct_prescribed_cycles(field, field.p)
    outer = Poly.from_codes(field, rand_codes(rng, field, 3) + [1])
    shift = complement(base).to_poly().compose(outer)
    cases = []
    for poly in (dense, shaped, perm):
        cases += [(maximal_decomposition, (poly,)),
                  (lambda P: value_set_size(P, "theorem"), (poly,)),
                  (is_involution, (poly,))]
    cases += [(lambda P: is_permutation(P, "certificate"), (perm,)),
              (quotient_pp_criterion, (outer, base, LinearizedPoly.identity(field))),
              (translation_pp, (base, shift))]
    return cases


def fresh(arg):
    """A copy of a polynomial with no memoised decomposition or plan."""
    return type(arg)._new(arg.field, arg.codes)


@pytest.mark.parametrize("field", NO_ELT_FIELDS, ids=[repr(f) for f in NO_ELT_FIELDS])
def test_structural_routes_build_no_elt(monkeypatch, field):
    """Decomposition, the theorem value-set count, the permutation
    certificate of a permutation, the involution certificate, the quotient
    criterion and translation_pp run on codes: with Field.from_code and
    Elt.__init__ patched to raise, fresh copies of their inputs give the
    answers the unpatched routes gave."""
    cases = structural_cases(field)
    expected = [route(*args) for route, args in cases]
    copies = [[fresh(a) for a in args] for _, args in cases]
    assert expected[-3] == PPCertificate(True, 1, True, None)

    def refuse(*args):
        raise AssertionError("Elt built")

    monkeypatch.setattr(Field, "from_code", refuse)
    monkeypatch.setattr(Elt, "__init__", refuse)
    assert [route(*args) for (route, _), args in zip(cases, copies)] == expected


@pytest.mark.parametrize("field", NO_ELT_FIELDS, ids=[repr(f) for f in NO_ELT_FIELDS])
def test_brute_kernel_reads_the_value_table(monkeypatch, field):
    """The brute kernel oracle tests its identity on the value table, on
    codes: with Poly.shift_arg, Field.from_code and Elt.__init__ patched to
    raise, it still gives the gcd route's kernel of a dense input of degree
    above q, a structured one and a p-affine one."""
    rng = random.Random(field.q + 15)
    dense = Poly.from_codes(field, rand_codes(rng, field, field.q + 3) + [1])
    sub, shaped = structured(rng, field, 2, 3)
    affine = LinearizedPoly.from_codes(field, rand_codes(rng, field, field.n) + [1]).to_poly()
    cases = [dense, shaped, affine + Poly.one(field)]
    expected = [additive_kernel(poly, "gcd") for poly in cases]
    assert expected[1] == sub and expected[2].is_full()

    def refuse(*args):
        raise AssertionError("Elt built or polynomial shifted")

    monkeypatch.setattr(Poly, "shift_arg", refuse)
    monkeypatch.setattr(Field, "from_code", refuse)
    monkeypatch.setattr(Elt, "__init__", refuse)
    assert [additive_kernel(poly, "brute") for poly in cases] == expected


def test_field_builds_three_elts_and_keeps_no_cache(monkeypatch):
    """A field builds only zero, one and the primitive element, and keeps
    no element cache: each elements() call builds q fresh elements."""
    built = []
    init = Elt.__init__

    def counted(self, field, code):
        built.append(code)
        init(self, field, code)

    monkeypatch.setattr(Elt, "__init__", counted)
    field = Field(2, 12)
    assert len(built) <= 3
    assert "_elts" not in Field.__slots__ and not hasattr(field, "_elts")
    del built[:]
    assert field.elements() == field.elements()
    assert built == list(range(field.q)) * 2


# -- interpolation: the interpolant is unique, so its values at the nodes
# and its degree bound check it completely


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_lagrange_hits_every_node(field):
    rng = random.Random(field.q + 8)
    for size in sorted({min(k, field.q) for k in (1, 2, 3, field.q // 2, field.q)}):
        for _ in range(3):
            xs = [field.from_code(c) for c in rng.sample(range(field.q), size)]
            pts = [(x, field.from_code(rng.randrange(field.q))) for x in xs]
            out = lagrange_interpolate(field, pts)
            assert out.degree < size
            assert all(ref_eval(field, out.coeffs, x) == y for x, y in pts)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_lagrange_refuses_a_repeated_abscissa(field):
    """A copy of the first, a middle or the last node right after it, with
    the same value, is refused all the same."""
    rng = random.Random(field.q + 9)
    xs = [field.from_code(c) for c in rng.sample(range(field.q), min(field.q, 5))]
    pts = [(x, field.from_code(rng.randrange(field.q))) for x in xs]
    for pos in (0, len(pts) // 2, len(pts) - 1):
        with pytest.raises(PreconditionError, match="duplicated interpolation abscissa"):
            lagrange_interpolate(field, pts[:pos + 1] + pts[pos:])


def independent(rng, field, k):
    """k random F_p-independent points."""
    sub = Subspace(field, ())
    pts = []
    while len(pts) < k:
        u = field.from_code(rng.randrange(1, field.q))
        if u not in sub:
            pts.append(u)
            sub = Subspace(field, pts)
    return pts


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_linearized_interpolate_hits_every_node(field):
    rng = random.Random(field.q + 10)
    for k in range(field.n + 1):
        for _ in range(3):
            us = independent(rng, field, k)
            ws = [field.from_code(rng.randrange(field.q)) for _ in us]
            out = linearized_interpolate(field, list(zip(us, ws)))
            assert len(out.codes) <= k
            assert all(ref_lin_eval(out.lin_coeffs, u) == w for u, w in zip(us, ws))
            image = {ref_lin_eval(out.lin_coeffs, v) for v in Subspace(field, us).elements()}
            assert image == set(Subspace(field, ws).elements())


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=[repr(f) for f in SMALL_FIELDS])
def test_linearized_interpolate_refuses_dependent_points(field):
    rng = random.Random(field.q + 11)
    us = independent(rng, field, min(field.n, 3))
    scalar = field.from_int(rng.randrange(1, field.p))
    dependent = [field.zero, us[0], scalar * us[-1]]
    if len(us) > 1:
        dependent.append(us[0] + us[1])
    for d in dependent:
        pts = list(us)
        pts.insert(rng.randint(0, len(pts)), d)
        with pytest.raises(PreconditionError, match="singular linearized interpolation system"):
            linearized_interpolate(field, [(u, rng.choice(field.elements())) for u in pts])
