import random
from collections import Counter

import pytest

from addix.analysis import (TranslatorSpec, agw_check,
                            construct_prescribed_cycles, cycle_structure,
                            inverse_pp, is_involution, is_linear_translator,
                            is_permutation, quotient_pp_criterion,
                            translation_pp, translator_pp, value_set_bounds,
                            value_set_size)
from addix.decompose import additive_index
from addix.errors import PreconditionError
from addix.field import Field
from addix.linearized import (LinearizedPoly, Subspace, complement,
                              is_linearized, subfield, vanishing_poly)
from addix.poly import Poly, lagrange_interpolate, parse_poly

F4 = Field(2, 2)
F5 = Field(5, 1)
F8 = Field(2, 3)
F9 = Field(3, 2)
F16 = Field(2, 4)


def rand_poly(rng, field, max_deg):
    while True:
        poly = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])
        if poly.degree >= 1:
            return poly


def brute_image(poly):
    return {poly.eval(a).code for a in poly.field.elements()}


# -- value sets


def test_value_set_examples():
    assert value_set_size(parse_poly("x^2", F9), "brute")[0] == 5
    assert value_set_size(parse_poly("x^2", F9), "theorem")[0] == 5
    pp = parse_poly("(x^3-x)^2+x", F9)
    assert value_set_size(pp, "theorem") == value_set_size(pp, "brute") == (9, 3)


def test_value_set_methods_agree_random():
    rng = random.Random(41)
    for field in (F9, F16):
        for _ in range(80):
            poly = rand_poly(rng, field, 10)
            assert value_set_size(poly, "theorem")[0] == value_set_size(poly, "brute")[0]


def test_value_set_methods_agree_remaining_fields():
    # GF(4) and GF(25) are not in the acceptance sweep; cover them here
    rng = random.Random(42)
    f25 = Field(5, 2)
    for field in (F4, f25):
        for _ in range(500):
            poly = rand_poly(rng, field, 10)
            assert value_set_size(poly, "theorem")[0] == value_set_size(poly, "brute")[0]


def test_value_set_bounds_report():
    report = value_set_bounds(parse_poly("x^2", F9))
    assert report.size == 5 and not report.is_pp and report.implication_holds
    assert report.degree_bound == 9 - 8 / 2
    assert report.mult_index == 1  # monomials take the trivial index
    report = value_set_bounds(parse_poly("x^3+x", F9))
    assert report.mult_index == 4 and report.mult_index_bound == 7.0
    rng = random.Random(43)
    for _ in range(120):
        poly = rand_poly(rng, F16, 8)
        assert value_set_bounds(poly).implication_holds


# -- permutation tests


def test_is_permutation_examples():
    assert is_permutation(Poly.x(F9)).is_pp
    cert = is_permutation(parse_poly("x^2", F9), "brute")
    assert not cert.is_pp
    a, b = cert.witness
    assert a != b
    assert parse_poly("x^2", F9).eval(a) == parse_poly("x^2", F9).eval(b)
    both = parse_poly("(x^3-x)^2+x", F9)
    assert is_permutation(both, "certificate").is_pp
    assert is_permutation(both, "brute").is_pp


def test_certificate_matches_brute_random():
    rng = random.Random(47)
    for field in (F9, F16):
        for _ in range(100):
            poly = rand_poly(rng, field, 9)
            cert = is_permutation(poly, "certificate")
            assert cert.is_pp == (len(brute_image(poly)) == field.q)
            assert cert.is_pp == (cert.gcd_degree == 1 and cert.coset_map_bijective)


def test_quotient_pp_criterion():
    ident = LinearizedPoly.identity(F9)
    assert quotient_pp_criterion(Poly.zero(F9), ident, ident)
    base = is_linearized(parse_poly("x^4+x", F16))
    rng = random.Random(53)
    for _ in range(1000):
        outer = rand_poly(rng, F16, 4)
        poly = outer.compose(base.to_poly()) + Poly.x(F16)
        verdict = quotient_pp_criterion(outer, base, LinearizedPoly.identity(F16))
        assert verdict == (len(brute_image(poly)) == 16)
    with pytest.raises(PreconditionError):
        # 2*x pushes the kernel subfield outside itself, so base never
        # divides base o m and the criterion does not apply
        m = LinearizedPoly.from_codes(F16, [2])
        quotient_pp_criterion(Poly.x(F16), base, m)


# -- inverses


def test_inverse_examples():
    assert inverse_pp(Poly.x(F9)) == Poly.x(F9)
    inv = inverse_pp(parse_poly("2*x+1", F5))
    assert inv == parse_poly("3*x+2", F5)
    base = is_linearized(parse_poly("x^2+x", F8))
    outer = complement(base).to_poly().compose(parse_poly("x^2+x+1", F8))
    poly, _ = translation_pp(base, outer)
    inv = inverse_pp(poly)
    for y in F8.elements():
        assert inv.eval(poly.eval(y)) == y
        assert poly.eval(inv.eval(y)) == y
    assert additive_index(inv) == additive_index(poly)
    with pytest.raises(PreconditionError):
        inverse_pp(parse_poly("x^2", F9))


# -- cycles


def test_cycle_structure_examples():
    assert cycle_structure(Poly.x(F5)) == Counter({1: 5})
    assert cycle_structure(parse_poly("x+1", F5)) == Counter({5: 1})
    with pytest.raises(PreconditionError):
        cycle_structure(parse_poly("x^2", F9))


def test_translation_pp_examples():
    base = is_linearized(parse_poly("x^3-x", F9))
    perm, predicted = translation_pp(base, Poly.zero(F9))
    assert perm == Poly.x(F9) and predicted == Counter({1: 9})
    rng = random.Random(59)
    for _ in range(30):
        g = Poly.from_codes(F9, [rng.randrange(9) for _ in range(3)])
        outer = complement(base).to_poly().compose(g)
        perm, predicted = translation_pp(base, outer)
        assert cycle_structure(perm) == predicted
        for y in F9.elements():  # p-fold composition is the identity
            z = y
            for _ in range(3):
                z = perm.eval(z)
            assert z == y
    with pytest.raises(PreconditionError):
        translation_pp(base, parse_poly("[3]", F9))  # constant outside the kernel


def test_nilpotent_family_instance():
    # q = p^{2m} with (p, m) = (2, 1): alpha in F_2*, beta^3 = 1
    alpha = F4.one
    beta = F4.primitive
    lin = LinearizedPoly(F4, (alpha, alpha * beta))
    assert all(lin.eval(lin.eval(y)).code == 0 for y in F4.elements())
    rng = random.Random(61)
    for _ in range(20):
        g = Poly.from_codes(F4, [rng.randrange(4) for _ in range(4)])
        lp = lin.to_poly()
        perm = lp.compose(g.compose(lp)) + Poly.x(F4)
        assert len(brute_image(perm)) == 4


def test_construct_prescribed_cycles():
    assert cycle_structure(construct_prescribed_cycles(F16, 16)) == Counter({1: 16})
    assert cycle_structure(construct_prescribed_cycles(F16, 4)) == Counter({1: 4, 2: 6})
    assert cycle_structure(construct_prescribed_cycles(F9, 3)) == Counter({1: 3, 3: 2})
    assert cycle_structure(construct_prescribed_cycles(F9, 0)) == Counter({3: 3})
    with pytest.raises(PreconditionError):
        construct_prescribed_cycles(F9, 4)   # not divisible by p
    with pytest.raises(PreconditionError):
        construct_prescribed_cycles(F9, 12)  # above q


# -- involutions


def test_involution_examples():
    assert is_involution(Poly.x(F9)).is_involution
    assert is_involution(parse_poly("-x", F9)).is_involution
    assert not is_involution(parse_poly("x+1", F9)).is_involution
    base = is_linearized(parse_poly("x^2+x", F4))
    perm, _ = translation_pp(base, Poly.one(F4))
    report = is_involution(perm)
    assert report.is_involution
    assert cycle_structure(perm)[1] == 0  # no fixed points


def test_involution_certificate_matches_brute():
    rng = random.Random(67)
    for _ in range(100):
        sub = Subspace(F16, [F16.from_code(rng.randrange(1, 16))
                             for _ in range(rng.randint(1, 2))], strict=False)
        base = vanishing_poly(sub)
        outer = Poly.from_codes(F16, [rng.randrange(16) for _ in range(3)])
        linear = LinearizedPoly.from_codes(F16, [rng.randrange(16)
                                                 for _ in range(max(1, sub.dim))])
        poly = outer.compose(base.to_poly()) + linear.to_poly()
        if poly.degree < 1:
            continue
        brute = all(poly.eval(poly.eval(y)) == y for y in F16.elements())
        assert is_involution(poly).is_involution == brute


def test_involution_certificate_on_permutations():
    from addix.verify import _sample_pps
    rng = random.Random(68)
    for poly in _sample_pps(rng, F16, 500):
        brute = all(poly.eval(poly.eval(y)) == y for y in F16.elements())
        assert is_involution(poly).is_involution == brute


# -- translators


def test_translator_examples():
    g = parse_poly("x^2+x", F4)  # absolute trace of GF(4)
    spec = TranslatorSpec(g=g, subspace=Subspace(F4, [F4.one]),
                          translate=LinearizedPoly(F4, ()))
    assert is_linear_translator(spec)
    lin = parse_poly("x^2", F16)
    spec = TranslatorSpec(g=lin, subspace=Subspace.full(F16),
                          translate=is_linearized(lin))
    assert is_linear_translator(spec)
    square = TranslatorSpec(g=parse_poly("x^2", F9),
                            subspace=Subspace(F9, [F9.one]),
                            translate=LinearizedPoly.identity(F9))
    assert not is_linear_translator(square)


def test_translator_kind_forms():
    # scaled trace of GF(9) over GF(3): g(x + u) = g(x) + 2u on U = F_3
    g = parse_poly("x^3+x", F9)
    sub = subfield(F9, 1)
    good = TranslatorSpec(g=g, subspace=sub,
                          translate=is_linearized(parse_poly("2*x", F9)),
                          kind="b_linear", gamma=F9.one, scale=F9.from_int(2))
    assert is_linear_translator(good)
    bad = TranslatorSpec(g=g, subspace=sub,
                         translate=is_linearized(parse_poly("2*x", F9)),
                         kind="b_linear", gamma=F9.one, scale=F9.one)
    assert not is_linear_translator(bad)  # claimed shape disagrees with M


def test_frobenius_power_read_mod_n():
    # the Frobenius of GF(9) has order 2: powers -1 and 21 mean power 1
    def verdict(scale, power):
        return is_linear_translator(TranslatorSpec(
            g=parse_poly("x^3+x", F9), subspace=subfield(F9, 1),
            translate=is_linearized(parse_poly("2*x", F9)), kind="frobenius",
            gamma=F9.one, scale=F9.from_int(scale), frob_power=power))
    assert [verdict(scale, 1) for scale in (1, 2)] == [False, True]
    for scale in (1, 2):
        assert verdict(scale, -1) == verdict(scale, 21) == verdict(scale, 1)


def test_translator_pp_examples():
    g = parse_poly("x^3+x", F9)
    sub = subfield(F9, 1)
    spec = TranslatorSpec(g=g, subspace=sub,
                          translate=is_linearized(parse_poly("2*x", F9)))
    is_pp, is_complete = translator_pp(spec, Poly.zero(F9))
    assert is_pp  # identity
    assert is_complete  # 2x permutes at odd characteristic
    is_pp, _ = translator_pp(spec, Poly.x(F9))
    assert not is_pp  # u + 2u vanishes identically on U
    # precondition failures are reported, not returned as verdicts
    with pytest.raises(PreconditionError):
        translator_pp(spec, parse_poly("x+[3]", F9))  # h(U) leaves U
    g_partial = parse_poly("(x^3+x)^2", F9)  # image {0, 1}, not onto U
    spec2 = TranslatorSpec(g=g_partial, subspace=sub,
                           translate=LinearizedPoly(F9, ()))
    if is_linear_translator(spec2):
        with pytest.raises(PreconditionError):
            translator_pp(spec2, Poly.x(F9))


def test_translator_pp_scans_g_once(monkeypatch):
    g = parse_poly("x^3+x", F9)
    spec = TranslatorSpec(g=g, subspace=subfield(F9, 1),
                          translate=is_linearized(parse_poly("2*x", F9)))
    evals = []
    plain_eval = Poly.eval

    def counting_eval(self, point):
        if self is g:
            evals.append(point.code)
        return plain_eval(self, point)

    monkeypatch.setattr(Poly, "eval", counting_eval)
    assert translator_pp(spec, Poly.zero(F9)) == (True, True)
    assert sorted(evals) == list(range(F9.q))


def test_translator_m_zero_instance():
    g = parse_poly("x^2+x", F4)  # trace onto F_2, M = 0
    spec = TranslatorSpec(g=g, subspace=Subspace(F4, [F4.one]),
                          translate=LinearizedPoly(F4, ()))
    rng = random.Random(71)
    members = spec.subspace.elements()
    for _ in range(10):
        h = lagrange_interpolate(F4, [(m, rng.choice(members)) for m in members])
        is_pp, _ = translator_pp(spec, h)
        assert is_pp  # u + M(h(u)) = u is always a bijection


# -- commutative-diagram criterion


def test_agw_identity_reduction():
    els = F9.elements()
    f = {a: parse_poly("2*x+1", F9).eval(a) for a in els}
    ident = {a: a for a in els}
    assert agw_check(f, ident, ident, f)
    g = {a: parse_poly("x^2", F9).eval(a) for a in els}
    assert not agw_check(g, ident, ident, g)


def test_agw_matches_translator_theorem():
    g = parse_poly("x^3+x", F9)
    sub = subfield(F9, 1)
    spec = TranslatorSpec(g=g, subspace=sub,
                          translate=is_linearized(parse_poly("2*x", F9)))
    members = sub.elements()
    rng = random.Random(73)
    for _ in range(20):
        h = lagrange_interpolate(F9, [(m, rng.choice(members)) for m in members])
        is_pp, _ = translator_pp(spec, h)
        els = F9.elements()
        fmap = {a: a + h.eval(g.eval(a)) for a in els}
        lam = {a: g.eval(a) for a in els}
        fbar = {u: u + spec.translate.eval(h.eval(u)) for u in members}
        assert agw_check(fmap, lam, lam, fbar) == is_pp


def test_agw_matches_quotient_criterion():
    base = is_linearized(parse_poly("x^4+x", F16))
    rng = random.Random(79)
    els = F16.elements()
    image = sorted({base.eval(y) for y in els}, key=lambda e: e.code)
    for _ in range(20):
        outer = rand_poly(rng, F16, 3)
        poly = outer.compose(base.to_poly()) + Poly.x(F16)
        fmap = {a: poly.eval(a) for a in els}
        lam = {a: base.eval(a) for a in els}
        fbar = {s: base.eval(outer.eval(s)) + s for s in image}
        assert agw_check(fmap, lam, lam, fbar) == is_permutation(poly).is_pp


def test_agw_with_distinct_target_set():
    # inverse-side diagram: the two small sets are the images of the kernel
    # polynomial and of the image-subspace polynomial, generally different
    from addix.analysis import _image_subspace
    from addix.decompose import maximal_decomposition
    from addix.linearized import compose_quotient

    rng = random.Random(89)
    exercised = 0
    while exercised < 10:
        dim = rng.randint(1, 3)
        sub = Subspace(F16, [F16.from_code(rng.randrange(1, 16))
                             for _ in range(dim)], strict=False)
        base = vanishing_poly(sub)
        outer = rand_poly(rng, F16, 2)
        linear = LinearizedPoly.from_codes(F16, [rng.randrange(16)
                                                 for _ in range(max(1, sub.dim))])
        poly = outer.compose(base.to_poly()) + linear.to_poly()
        if poly.degree < 1:
            continue
        dec = maximal_decomposition(poly)
        base0 = vanishing_poly(_image_subspace(dec))
        try:
            bridge = compose_quotient(base0.compose(dec.linear_part), dec.subspace_poly)
        except PreconditionError:
            continue
        els = F16.elements()
        fmap = {a: dec.poly.eval(a) for a in els}
        lam = {a: dec.subspace_poly.eval(a) for a in els}
        lam_bar = {a: base0.eval(a) for a in els}
        small = sorted(set(lam.values()), key=lambda e: e.code)
        small_bar = set(lam_bar.values())
        if len(small) != len(small_bar):
            continue
        fbar = {s: base0.eval(dec.outer.eval(s)) + bridge.eval(s) for s in small}
        verdict = agw_check(fmap, lam, lam_bar, fbar, s_bar=small_bar)
        assert verdict == is_permutation(poly).is_pp
        exercised += 1


def test_agw_random_quotient_diagrams():
    rng = random.Random(83)
    els = F16.elements()
    for _ in range(1000):
        sub = Subspace(F16, [F16.from_code(rng.randrange(1, 16))
                             for _ in range(rng.randint(0, 2))], strict=False)
        base = vanishing_poly(sub)
        image = sorted({base.eval(y) for y in els}, key=lambda e: e.code)
        fbar = {s: rng.choice(image) for s in image}
        fibers = {}
        for a in els:
            fibers.setdefault(base.eval(a).code, []).append(a)
        fmap = {a: rng.choice(fibers[fbar[base.eval(a)].code]) for a in els}
        lam = {a: base.eval(a) for a in els}
        left = len(set(fmap.values())) == len(els)
        assert agw_check(fmap, lam, lam, fbar) == left
    with pytest.raises(PreconditionError):
        agw_check({F16.zero: F16.zero}, {F16.zero: F16.zero},
                  {F16.zero: F16.one}, {F16.zero: F16.zero})
