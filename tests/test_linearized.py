import itertools
import random

import pytest

import addix.linearized as linearized
from addix.decompose import maximal_decomposition
from addix.errors import PreconditionError
from addix.field import Field
from addix.linearized import (LinearizedPoly, Subspace, _outer_codes,
                              all_subspaces, complement, compose_quotient,
                              coset_reps, expand_in_base, image_codes,
                              is_linearized, kernel, linearized_interpolate,
                              require_splitting_monic, subfield,
                              subspace_image, vanishing_poly,
                              xq_minus_x_linearized)
from addix.poly import Poly, parse_poly, poly_gcd

F4 = Field(2, 2)
F8 = Field(2, 3)
F9 = Field(3, 2)
F16 = Field(2, 4)
F25 = Field(5, 2)
F27 = Field(3, 3)
F49 = Field(7, 2)


def test_is_linearized_examples():
    v = is_linearized(parse_poly("x^5+3*x", F25))
    assert v is not None and [c.code for c in v.lin_coeffs] == [3, 1]
    assert is_linearized(parse_poly("x^2", F8)) is not None
    assert is_linearized(parse_poly("x^2", F9)) is None
    assert is_linearized(parse_poly("x^2+1", F8)) is None  # constant term
    zero_view = is_linearized(Poly.zero(F8))
    assert zero_view is not None and zero_view.is_zero()


def test_kernel_examples():
    assert kernel(LinearizedPoly.identity(F9)).dim == 0
    frob = is_linearized(parse_poly("x^3-x", F9))
    k = kernel(frob)
    assert [e.code for e in k.elements()] == [0, 1, 2]
    quartic = is_linearized(parse_poly("x^4+x", F16))
    k = kernel(quartic)
    assert k.dim == 2
    assert k == subfield(F16, 2)
    with pytest.raises(PreconditionError):
        kernel(LinearizedPoly(F9, ()))


def _root_scan(lin):
    """Reference kernel: the roots of the dense polynomial among all q
    elements, found by Horner at every point."""
    dense = lin.to_poly()
    field = lin.field
    return Subspace(field, [a for a in field.elements() if dense.eval(a).code == 0])


def _random_map(rng, field, length, *, monic=False, x_coeff=True):
    """Nonzero linearized map with `length` p-power coefficients."""
    codes = [rng.randrange(field.q) for _ in range(length)]
    codes[-1] = 1 if monic else rng.randrange(2, field.q)
    if not x_coeff and length > 1:
        codes[0] = 0
    return LinearizedPoly.from_codes(field, codes)


@pytest.mark.parametrize("field", [F16, F27, F25, F49], ids=str)
def test_kernel_matches_dense_root_scan(field):
    rng = random.Random(12)
    kinds = set()
    for sub in all_subspaces(field):
        vanish = vanishing_poly(sub)
        for monic, x_coeff in itertools.product((True, False), repeat=2):
            inner = _random_map(rng, field, rng.randint(1, field.n),
                                monic=monic, x_coeff=x_coeff)
            for lin in (vanish.compose(inner), inner.compose(vanish)):
                ker = kernel(lin)
                assert ker == _root_scan(lin), lin
                assert sub.dim <= ker.dim
                kinds.add((lin.is_monic(), lin.is_separable()))
    assert kinds == set(itertools.product((True, False), repeat=2))


@pytest.mark.parametrize("p,n", [(2, 10), (3, 5)])
def test_kernel_matches_dense_root_scan_random_large(p, n):
    field = Field(p, n)
    rng = random.Random(13)
    dims = set()
    for _ in range(12):
        lin = _random_map(rng, field, rng.randint(1, 3),
                          monic=rng.random() < 0.5, x_coeff=rng.random() < 0.7)
        if rng.random() < 0.5:
            sub = Subspace(field, [field.from_code(rng.randrange(1, field.q))
                                   for _ in range(rng.randint(1, 3))])
            lin = vanishing_poly(sub).compose(lin)
        ker = kernel(lin)
        assert ker == _root_scan(lin), lin
        dims.add(ker.dim)
    assert len(dims) > 2


def test_subfield_matches_frobenius_fixed_points():
    for field in (F16, F27, Field(2, 6)):
        for k in range(-1, 2 * field.n + 1):
            pk = field.p ** (k % field.n)
            fixed = [a for a in field.elements() if a ** pk == a]
            assert subfield(field, k) == Subspace(field, fixed), (field, k)


def test_vanishing_poly_examples():
    assert vanishing_poly(Subspace(F9, ())) == LinearizedPoly.identity(F9)
    prime = vanishing_poly(Subspace(F9, [F9.one]))
    assert prime.to_poly() == parse_poly("x^3-x", F9)
    sub = Subspace(F8, [F8.one, F8.primitive])
    v = vanishing_poly(sub)
    assert v.is_monic() and v.degree == 4
    assert kernel(v) == sub


def test_vanishing_poly_matches_naive_product():
    rng = random.Random(2)
    for field in (F8, F16):
        for _ in range(10):
            gens = [field.from_code(rng.randrange(1, field.q)) for _ in range(2)]
            sub = Subspace(field, gens)
            naive = Poly.one(field)
            for v in sub.elements():
                naive = naive * Poly(field, (-v, field.one))
            assert vanishing_poly(sub).to_poly() == naive


def test_kernel_vanishing_duality_all_subspaces_f16():
    count = 0
    for sub in all_subspaces(F16):
        v = vanishing_poly(sub)
        assert v.is_monic()
        assert is_linearized(v.to_poly()) is not None
        assert xq_minus_x_linearized(F16).to_poly() % v.to_poly() == Poly.zero(F16)
        assert kernel(v) == sub
        count += 1
    assert count == 67


def test_expand_in_base_examples():
    base = is_linearized(parse_poly("x^3-x", F9)).to_poly()
    assert expand_in_base(base, base) == [Poly.zero(F9), Poly.one(F9)]
    small = parse_poly("x^2+1", F9)
    assert expand_in_base(small, base) == [small]
    digits = expand_in_base(xq_minus_x_linearized(F9).to_poly(), base)
    assert [d.is_zero() for d in digits] == [True, False, True, False]
    # reconstruction and determinism
    acc = Poly.zero(F9)
    power = Poly.one(F9)
    for d in digits:
        acc = acc + d * power
        power = power * base
    assert acc == xq_minus_x_linearized(F9).to_poly()
    assert expand_in_base(xq_minus_x_linearized(F9).to_poly(), base) == digits


def test_compose_quotient_examples():
    lin = is_linearized(parse_poly("x^3-x", F9))
    assert compose_quotient(lin, lin) == LinearizedPoly.identity(F9)
    twice = lin.compose(lin)
    assert compose_quotient(twice, lin) == lin
    with pytest.raises(PreconditionError):
        compose_quotient(is_linearized(parse_poly("x^3", F9)), lin)  # not divisible
    with pytest.raises(PreconditionError):
        compose_quotient(lin, is_linearized(parse_poly("x^3", F9)))  # inseparable inner


@pytest.mark.parametrize("target_field,inner_field", [(F8, F16), (F16, F8)],
                         ids=["8-in-16", "16-in-8"])
def test_compose_quotient_refuses_other_fields(target_field, inner_field):
    target = xq_minus_x_linearized(target_field)
    for given in (target, target.to_poly()):
        with pytest.raises(PreconditionError, match="different fields"):
            compose_quotient(given, LinearizedPoly.identity(inner_field))


def test_outer_codes_read_constant_digits_only():
    one, x = Poly.one(F9), Poly.x(F9)
    assert _outer_codes([x, one, Poly.zero(F9), one], 5) == [5, 1, 0, 1]
    assert _outer_codes([Poly.zero(F9), one, x], 0) is None


def test_compose_quotient_random_identity():
    rng = random.Random(13)
    for _ in range(30):
        gens = [F16.from_code(rng.randrange(1, 16)) for _ in range(rng.randint(1, 2))]
        inner = vanishing_poly(Subspace(F16, gens))
        outer = LinearizedPoly.from_codes(F16, [rng.randrange(16) for _ in range(2)])
        target = outer.compose(inner)
        if target.is_zero():
            continue
        recovered = compose_quotient(target, inner)
        assert recovered == outer
        assert recovered.compose(inner) == target


@pytest.mark.parametrize("field,n", [(F4, 2), (F8, 3), (F9, 2), (F27, 3)])
def test_trace_quotient_regression(field, n):
    frob = LinearizedPoly(field, (-field.one, field.one))  # x^p - x
    trace = LinearizedPoly(field, (field.one,) * n)
    assert compose_quotient(xq_minus_x_linearized(field), frob) == trace


def test_complement_examples():
    assert complement(LinearizedPoly.identity(F9)) == xq_minus_x_linearized(F9)
    assert complement(xq_minus_x_linearized(F9)) == LinearizedPoly.identity(F9)
    frob = is_linearized(parse_poly("x^3-x", F9))
    assert complement(frob) == LinearizedPoly(F9, (F9.one, F9.one))
    with pytest.raises(PreconditionError):
        complement(is_linearized(parse_poly("x^3", F9)))  # does not divide x^q-x


def test_complement_reads_no_dense_polynomial(monkeypatch):
    """At GF(2^12) the complement of a dimension-1 subspace polynomial comes
    from right division on p-power coefficients: no dense x^q - x is built
    or divided."""
    field = Field(2, 12)
    lin = vanishing_poly(Subspace(field, [field.one]))

    def refuse(*args, **kwargs):
        raise AssertionError("dense polynomial route entered")

    monkeypatch.setattr(LinearizedPoly, "to_poly", refuse)
    monkeypatch.setattr(linearized, "expand_in_base", refuse)
    comp = complement(lin)
    whole = xq_minus_x_linearized(field)
    assert comp.compose(lin) == whole
    assert lin.compose(comp) == whole


def test_linearized_interpolate_examples():
    m = linearized_interpolate(F9, [(F9.one, F9.one)])
    assert m == LinearizedPoly.identity(F9)
    u = F16.from_code(5)
    c = F16.from_code(7)
    m = linearized_interpolate(F16, [(u, c * u)])
    assert m.eval(u) == c * u
    sub = subfield(F16, 2)
    pairs = [(b, b ** 2) for b in sub.basis]
    m = linearized_interpolate(F16, pairs)
    for v in sub.elements():
        assert m.eval(v) == v ** 2
    with pytest.raises(PreconditionError):
        dep = [F9.one, F9.from_code(2)]  # dependent over F_3
        linearized_interpolate(F9, [(d, d) for d in dep])


def test_coset_reps_examples():
    assert list(coset_reps(Subspace.full(F9))) == [0]
    assert list(coset_reps(Subspace(F9, ()))) == list(range(9))
    sub = Subspace(F9, [F9.one])
    reps = [F9.from_code(r) for r in coset_reps(sub)]
    assert len(reps) == 3 and reps[0].code == 0
    covered = sorted((r + u).code for r in reps for u in sub.elements())
    assert covered == list(range(9))
    for a, b in itertools.combinations(reps, 2):
        assert not sub.contains(a - b)


FIELDS_UP_TO_81 = [Field(p, n) for p in (2, 3, 5, 7) for n in range(1, 7) if p ** n <= 81]


def _check_coset_reps(sub):
    """coset_reps lists the values of coset_key in ascending order, and each
    representative is its own canonical reduction."""
    reps = list(coset_reps(sub))
    assert reps == sorted({sub.coset_key(v) for v in sub.field.elements()})
    assert all(sub.reduce(sub.field.from_code(r)).code == r for r in reps)


@pytest.mark.parametrize("field", FIELDS_UP_TO_81, ids=str)
def test_coset_reps_are_the_coset_keys(field):
    for sub in all_subspaces(field):
        _check_coset_reps(sub)


@pytest.mark.parametrize("p,n", [(3, 5), (2, 10)])
def test_coset_reps_are_the_coset_keys_random_large(p, n):
    field = Field(p, n)
    rng = random.Random(17)
    dims = set()
    for _ in range(10):
        sub = Subspace(field, [field.from_code(rng.randrange(1, field.q))
                               for _ in range(rng.randint(0, n))])
        _check_coset_reps(sub)
        dims.add(sub.dim)
    assert len(dims) > 3


def test_coset_reps_build_no_subspace(monkeypatch):
    sub = Subspace(F27, [F27.from_code(5)])
    built = []
    init = Subspace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "__init__", counting_init)
    assert len(coset_reps(sub)) == 9
    assert built == []


def test_subspace_image_examples():
    sub = Subspace(F9, [F9.one])
    assert subspace_image(LinearizedPoly.identity(F9), sub) == sub
    frob = is_linearized(parse_poly("x^3-x", F9))
    assert subspace_image(frob, sub).dim == 0
    rng = random.Random(4)
    for _ in range(30):
        m = LinearizedPoly.from_codes(F16, [rng.randrange(16) for _ in range(3)])
        if m.is_zero():
            continue
        sub = Subspace(F16, [F16.from_code(rng.randrange(1, 16)) for _ in range(2)])
        img = subspace_image(m, sub)
        inter = [u for u in sub.elements() if m.eval(u).code == 0]
        assert (2 ** img.dim) * len(inter) == 2 ** sub.dim


@pytest.mark.parametrize("map_field,sub_field", [(F8, F16), (F16, F8)],
                         ids=["8-on-16", "16-on-8"])
def test_subspace_image_refuses_other_fields(map_field, sub_field):
    sub = Subspace(sub_field, [sub_field.one])
    with pytest.raises(PreconditionError, match="operands belong to different fields"):
        subspace_image(LinearizedPoly.identity(map_field), sub)


@pytest.mark.parametrize("field", [F16, F27])
def test_image_and_splitting_match_dense_scans(field):
    rng = random.Random(8)
    verdicts = set()
    for sub in all_subspaces(field):
        for _ in range(3):
            inner = LinearizedPoly(field, ())
            while inner.is_zero():
                codes = [rng.randrange(field.q) for _ in range(rng.randint(1, field.n))]
                if rng.random() < 0.5:
                    codes[-1] = 1
                inner = LinearizedPoly.from_codes(field, codes)
            lin = vanishing_poly(sub).compose(inner)
            dense = lin.to_poly()
            values = [dense.eval(a).code for a in field.elements()]
            assert image_codes(lin) == sorted(set(values))
            splits = lin.is_monic() and values.count(0) == lin.degree
            try:
                require_splitting_monic(lin)
                accepted = True
            except PreconditionError:
                accepted = False
            assert accepted == splits, lin
            verdicts.add((lin.is_monic(), accepted))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_gcd_degree_counts_common_kernel():
    rng = random.Random(6)
    for _ in range(25):
        a = vanishing_poly(Subspace(F16, [F16.from_code(rng.randrange(1, 16))
                                          for _ in range(rng.randint(0, 3))]))
        b = LinearizedPoly.from_codes(F16, [rng.randrange(16) for _ in range(3)])
        if b.is_zero():
            continue
        g = poly_gcd(a.to_poly(), b.to_poly())
        shared = [v for v in kernel(a).elements() if b.eval(v).code == 0]
        assert g.degree == len(shared)
    # the decomposition reads it by rank-nullity, p^(dim V - dim M(V))
    trivial, no_m = parse_poly("x^3", F16), parse_poly("(x^4+x)^3", F16)
    full = parse_poly("x^4+x", F16)  # linearized: a constant residue
    polys = [trivial, no_m, full]
    for _ in range(20):
        sub = Subspace(F16, [F16.from_code(rng.randrange(1, 16))
                             for _ in range(rng.randint(0, 3))])
        outer = Poly.from_codes(F16, [rng.randrange(16) for _ in range(rng.randint(1, 4))] + [1])
        m = LinearizedPoly.from_codes(F16, [rng.randrange(16) for _ in range(sub.dim)])
        polys.append(outer.compose(vanishing_poly(sub).to_poly()) + m.to_poly())
    for poly in polys:
        dec = maximal_decomposition(poly)
        s, m = dec.subspace_poly, dec.linear_part
        dense = poly_gcd(s.to_poly(), m.to_poly()).degree
        shared = [v for v in dec.kernel.elements() if m.eval(v).code == 0]
        assert dec.gcd_degree == dense == len(shared), poly
    assert maximal_decomposition(trivial).kernel.dim == 0
    assert maximal_decomposition(no_m).linear_part.is_zero()
    assert maximal_decomposition(no_m).kernel.dim > 0
    assert maximal_decomposition(full).kernel.is_full()
    assert maximal_decomposition(full).gcd_degree == 4


def test_subspace_basics():
    sub = Subspace(F16, [F16.from_code(3), F16.from_code(5)])
    assert sub.dim == 2
    assert sub.contains(F16.from_code(3) + F16.from_code(5))
    assert len(sub.elements()) == 4
    assert Subspace(F16, [F16.one, F16.one]).dim == 1  # dependent generators are skipped
    # reduce is constant on cosets and zero exactly on members
    v = F16.from_code(9)
    key = sub.coset_key(v)
    for u in sub.elements():
        assert sub.coset_key(v + u) == key


@pytest.mark.parametrize("case", ["init", "zero", "reduce", "coset_key", "contains", "in"])
def test_subspaces_refuse_other_fields(case):
    """A subspace never reads an element of another field as a code of its
    own, as a generator or as an argument, its zero included."""
    with pytest.raises(PreconditionError):
        if case == "init":
            Subspace(F8, [F4.from_code(3)])
        elif case == "zero":
            Subspace(F8, [F8.one, F4.zero])
        elif case == "reduce":
            Subspace(F8, [F8.one]).reduce(F4.from_code(2))
        elif case == "coset_key":
            Subspace(F8, [F8.one]).coset_key(Field(2, 5).from_code(30))
        elif case == "contains":
            Subspace(F8, [F8.one]).contains(F9.from_code(1))
        else:
            F8.from_code(3) in Subspace.full(F4)


@pytest.mark.parametrize(
    "case, kind",
    [(case, kind) for case in ("wider", "narrower", "zero")
     for kind in (Poly, LinearizedPoly)] + [("constant", Poly), ("monomial", Poly)],
    ids=lambda v: getattr(v, "__name__", v))
def test_coefficient_vectors_refuse_other_fields(case, kind):
    """A polynomial never reads an element of another field as a code of
    its own: a code out of range, one that names another element, or zero,
    through its constructor or the constant and monomial builders."""
    with pytest.raises(PreconditionError):
        if case == "wider":
            kind(F4, [F16.from_code(9), F4.one])
        elif case == "narrower":
            kind(F16, [F4.from_code(3), F16.one])
        elif case == "zero":
            kind(F8, [F8.one, F4.zero])
        elif case == "constant":
            kind.constant(F8, F16.from_code(9))
        else:
            kind.monomial(F8, F16.from_code(9), 3)


@pytest.mark.parametrize("case", ["wider", "narrower"])
def test_linearized_interpolate_refuses_other_fields(case):
    """The pairs are read as codes, so an element of another field is
    refused rather than read out of range or as a different element."""
    with pytest.raises(PreconditionError, match="different field"):
        if case == "wider":
            linearized_interpolate(F8, [(F16.from_code(9), F16.from_code(9))])
        else:
            linearized_interpolate(F16, [(F16.one, F8.one)])
