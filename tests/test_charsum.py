import cmath
import math
import random

import pytest

from addix.charsum import (MultChar, _power_coset_flag, bound_report,
                           char_sum, char_sum_affine)
from addix.errors import PreconditionError
from addix.field import Field
from addix.linearized import Subspace, vanishing_poly
from addix.poly import Poly, parse_poly

F4 = Field(2, 2)
F5 = Field(5, 1)
F9 = Field(3, 2)
F16 = Field(2, 4)

TOL = 1e-9


@pytest.mark.parametrize("case", ["call", "char_sum", "affine", "bound_report"])
def test_characters_refuse_other_fields(case):
    """A character of GF(16) is never applied to elements of GF(9), nor one
    of GF(9) to a polynomial over GF(16)."""
    chi = MultChar(F16, 1)
    poly = parse_poly("x^3+x", F9)
    with pytest.raises(PreconditionError):
        if case == "call":
            chi(F9.from_code(5))
        elif case == "char_sum":
            char_sum(poly, chi)
        elif case == "affine":
            char_sum_affine(chi, F9.from_code(2), Subspace(F9, [F9.one]))
        else:
            bound_report(poly, chi)
    if case == "bound_report":
        with pytest.raises(PreconditionError):
            bound_report(parse_poly("x^3+x", F16), MultChar(F9, 1))


def test_char_eval_examples():
    trivial = MultChar(F9, 0)
    for a in F9.elements():
        if a.code:
            assert abs(trivial(a) - 1) < TOL
    assert trivial(F9.zero) == 0
    quad = MultChar(F9, 4)
    assert quad.order == 2
    square = F9.from_code(5) ** 2
    assert abs(quad(square) - 1) < TOL
    chi = MultChar(F4, 1)
    assert abs(chi(F4.primitive) - cmath.exp(2j * math.pi / 3)) < TOL


def test_char_multiplicativity_sampled():
    rng = random.Random(3)
    chi = MultChar(F16, 3)
    for _ in range(100):
        a = F16.from_code(rng.randrange(1, 16))
        b = F16.from_code(rng.randrange(1, 16))
        assert abs(chi(a * b) - chi(a) * chi(b)) < TOL


def test_char_sum_examples():
    assert abs(char_sum(Poly.x(F5), MultChar(F5, 1))) < TOL
    quad = MultChar(F5, 2)
    assert abs(char_sum(parse_poly("x^2", F5), quad) - 4) < TOL
    c = F5.from_code(3)
    chi = MultChar(F5, 1)
    assert abs(char_sum(Poly.constant(F5, c), chi) - 5 * chi(c)) < TOL


def test_trivial_character_counts_roots():
    rng = random.Random(7)
    trivial = MultChar(F9, 0)
    for _ in range(20):
        poly = Poly.from_codes(F9, [rng.randrange(9) for _ in range(5)])
        roots = sum(1 for a in F9.elements() if poly.eval(a).code == 0)
        assert abs(char_sum(poly, trivial) - (9 - roots)) < TOL


def test_conjugate_symmetry():
    rng = random.Random(11)
    for _ in range(10):
        poly = Poly.from_codes(F16, [rng.randrange(16) for _ in range(6)])
        for j in range(1, 15):
            a = char_sum(poly, MultChar(F16, j))
            b = char_sum(poly, MultChar(F16, 15 - j))
            assert abs(a - b.conjugate()) < TOL


def test_char_sum_affine_examples():
    chi = MultChar(F4, 1)
    total, bound = char_sum_affine(chi, F4.zero, Subspace.full(F4))
    assert abs(total) < TOL and bound == 2.0
    total, bound = char_sum_affine(chi, F4.one, Subspace(F4, ()))
    assert abs(abs(total) - 1) < TOL and bound == 1.0
    total, bound = char_sum_affine(chi, F4.one, Subspace(F4, [F4.one]))
    assert abs(total) <= bound + 1e-6 and bound == 2.0
    with pytest.raises(PreconditionError):
        char_sum_affine(MultChar(F4, 0), F4.zero, Subspace.full(F4))


def test_affine_bound_exhaustive_f9():
    from addix.linearized import all_subspaces, coset_reps
    for sub in all_subspaces(F9):
        for shift in coset_reps(sub).reps:
            for j in range(1, 8):
                char_sum_affine(MultChar(F9, j), shift, sub)  # raises on violation


def test_bound_report_p_affine():
    report = bound_report(Poly.x(F9), MultChar(F9, 1))
    assert report.index == 0 and report.image_dim == 2
    assert report.additive_bound == 3.0  # p^(n - e + n/2) = 3^1
    assert report.magnitude < TOL
    assert not report.weil_applicable  # outer part is constant


def test_bound_report_decomposed_boundary():
    report = bound_report(parse_poly("(x^3-x)^2+x", F9), MultChar(F9, 1))
    assert report.index == 1 and report.image_dim == 1
    assert report.additive_bound == 9.0  # e = n/2 sits at the trivial boundary
    assert report.weil_bound == 15.0 and report.weil_applicable
    assert not report.nontrivial_regime
    assert report.trivial_bound == 9


def test_bound_report_sharper_than_weil_instance():
    f64 = Field(2, 6)
    sub = Subspace(f64, [f64.from_code(c) for c in (1, 2, 4, 8)])
    base = vanishing_poly(sub)
    outer = parse_poly("x^3+[3]*x", f64)  # x^2 would be linearized here
    poly = outer.compose(base.to_poly()) + Poly.x(f64)
    report = bound_report(poly, MultChar(f64, 1))
    assert report.image_dim == 4 and report.nontrivial_regime
    assert report.additive_bound == 32.0
    assert report.weil_applicable and report.additive_bound < report.weil_bound
    assert report.additive_bound < 64
    with pytest.raises(PreconditionError):
        bound_report(poly, MultChar(f64, 0))


def test_power_flag_blocks_weil():
    # x^2 over F_9 is a perfect square, so Weil is flagged inapplicable
    report = bound_report(parse_poly("x^2", F9), MultChar(F9, 1))
    assert not report.weil_applicable


def _power_coset_flag_by_divisors(field, values):
    """Reference: look for a divisor r > 1 of q-1 whose r-th-power cosets
    hold every nonzero value."""
    logs = [field.dlog(v) for v in values if v.code]
    if not logs:
        return True
    qm1 = field.q - 1
    for r in range(2, qm1 + 1):
        if qm1 % r == 0 and all(lg % r == logs[0] % r for lg in logs):
            return True
    return False


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_power_coset_flag_matches_divisor_loop(p, n):
    field = Field(p, n)
    rng = random.Random(11)
    polys = [Poly.constant(field, field.from_code(c)) for c in range(field.q)]
    polys += [Poly.monomial(field, field.from_code(c), e)
              for c in range(1, field.q) for e in range(1, field.q)]
    polys += [Poly.from_codes(field, [rng.randrange(field.q) for _ in range(rng.randint(2, 8))])
              for _ in range(300)]
    seen = set()
    for poly in polys:
        values = [poly.eval(a) for a in field.elements()]
        expected = _power_coset_flag_by_divisors(field, values)
        logs = [field.dlog(v) for v in values if v.code]
        assert _power_coset_flag(field, logs) == expected, poly
        seen.add(expected)
    assert seen == {True, False}
