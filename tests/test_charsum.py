import cmath
import math
import random

import pytest

import addix.charsum as charsum
from addix.charsum import (MultChar, _power_coset_flag, bound_report,
                           char_sum, char_sum_affine)
from addix.cli import main
from addix.decompose import maximal_decomposition
from addix.errors import PreconditionError
from addix.field import Field
from addix.linearized import LinearizedPoly, Subspace, vanishing_poly
from addix.poly import Poly, parse_poly

F4 = Field(2, 2)
F5 = Field(5, 1)
F9 = Field(3, 2)
F16 = Field(2, 4)

TOL = 1e-9


@pytest.mark.parametrize("case", ["call", "zero", "char_sum", "affine", "bound_report"])
def test_characters_refuse_other_fields(case):
    """A character of GF(16) is never applied to elements of GF(9), its zero
    included, nor one of GF(9) to a polynomial over GF(16)."""
    chi = MultChar(F16, 1)
    poly = parse_poly("x^3+x", F9)
    with pytest.raises(PreconditionError):
        if case == "call":
            chi(F9.from_code(5))
        elif case == "zero":
            chi(F9.zero)
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


# -- every character from one transform


SPECTRUM_FIELDS = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(1, 6)] + [
    (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]


def _structured(rng, field, dim, outer_deg):
    """outer(S(x)) + M(x) with S vanishing on a random dim-dimensional
    subspace and deg M < deg S."""
    basis = []
    while len(basis) < dim:
        cand = field.from_code(rng.randrange(1, field.q))
        if not Subspace(field, basis).contains(cand):
            basis.append(cand)
    base = vanishing_poly(Subspace(field, basis)).to_poly()
    outer = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(outer_deg)] + [1])
    linear = LinearizedPoly.from_codes(field, [rng.randrange(field.q) for _ in range(dim)])
    return outer.compose(base) + linear.to_poly()


def _inputs(field, seed):
    """A random, a structured and a linearized polynomial over field."""
    rng = random.Random(seed)
    dense = Poly.from_codes(field, [rng.randrange(field.q) for _ in range(6)] + [1])
    top = min(field.n - 1, 2)  # degrees stay at most 2 * p^2, so char_sum stays cheap
    linear = LinearizedPoly.from_codes(field, [rng.randrange(field.q) for _ in range(top)] + [1])
    return [dense, _structured(rng, field, rng.randint(0, top), 2), linear.to_poly()]


def _sweep(poly, chars):
    dec = maximal_decomposition(poly)
    return [bound_report(poly, chi, decomposition=dec) for chi in chars], dec


@pytest.mark.parametrize("p,n", SPECTRUM_FIELDS, ids=[f"{p}^{n}" for p, n in SPECTRUM_FIELDS])
def test_sweep_sums_match_char_sum(p, n):
    """Every report of a sweep, the first summed directly and the rest read
    off the spectrum, is the oracle's sum within the stated FFT margin."""
    field = Field(p, n)
    chars = [MultChar(field, j) for j in range(1, field.q - 1)]
    for poly in _inputs(field, p * 100 + n):
        reports, dec = _sweep(poly, chars)
        margin = dec.__dict__["_value_profile"].margin
        assert 0 < margin < 1e-9
        for chi, report in zip(chars, reports):
            assert abs(report.value - char_sum(poly, chi)) <= margin, (poly, chi)


@pytest.mark.parametrize("n", [10, 12])
def test_spectrum_matches_char_sum_sampled(n):
    field = Field(2, n)
    rng = random.Random(n)
    for poly in (_structured(rng, field, 3, 3),
                 Poly.from_codes(field, [rng.randrange(field.q) for _ in range(5)] + [1])):
        sample = [MultChar(field, j) for j in [1] + rng.sample(range(2, field.q - 1), 12)]
        reports, dec = _sweep(poly, sample)  # all but the first read the spectrum
        margin = dec.__dict__["_value_profile"].margin
        for chi, report in zip(sample, reports):
            assert abs(report.value - char_sum(poly, chi)) <= margin


def _count(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_transform_per_polynomial(monkeypatch, capsys):
    """A polynomial takes one histogram (one dlog per nonzero value) and one
    spectrum (three FFTs) across a single report and a sweep together: the
    single report builds the histogram and takes no transform, and the sweep
    reads the same memoised decomposition, so it adds the spectrum alone."""
    spectra = _count(monkeypatch, charsum, "_spectrum")
    ffts = _count(monkeypatch, charsum, "_fft")
    dlogs = _count(monkeypatch, Field, "dlog")
    field = Field(2, 6)
    poly = parse_poly("x^3+[3]*x", field)
    nonzero = sum(1 for v in poly.values() if v)
    bound_report(poly, MultChar(field, 5))
    assert spectra == [] and ffts == []
    assert len(dlogs) == nonzero
    _sweep(poly, [MultChar(field, j) for j in range(1, 63)])
    assert len(spectra) == 1 and len(ffts) == 3
    assert len(dlogs) == nonzero
    spectra.clear()
    assert main(["charsum", "--field", "2^6", "--sweep", "3", "--seed", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 62
    assert len(spectra) == 3


def test_near_bound_transform_values_are_recomputed(monkeypatch):
    """A transform magnitude at the violation threshold, or within the FFT
    margin below it, is replaced by the direct sum; one below the margin is
    reported as the transform gave it."""
    field = Field(2, 6)
    poly = parse_poly("x^3+[3]*x", field)
    chars = [MultChar(field, j) for j in range(1, 63)]
    bound = bound_report(poly, chars[0]).additive_bound
    limit = bound + charsum._TOL
    real = charsum._spectrum
    skew = {3: limit,  # would be a violation
            4: complex(0, limit - 1e-12),  # inside the margin below it
            5: char_sum(poly, chars[4]) + 0.25}  # far below: taken as given

    def perturbed(hist):
        spec = real(hist)
        for j, value in skew.items():
            spec[j] = value
        return spec

    monkeypatch.setattr(charsum, "_spectrum", perturbed)
    dec = maximal_decomposition(poly)
    reports = [bound_report(poly, chi, decomposition=dec) for chi in chars]
    margin = dec.__dict__["_value_profile"].margin
    assert 1e-12 < margin
    for j in (3, 4):
        assert abs(reports[j - 1].value - char_sum(poly, chars[j - 1])) <= margin
        assert reports[j - 1].magnitude < bound
    assert reports[4].value == skew[5]


def test_values_argument_is_honoured_after_the_memo():
    """values that are not the polynomial's values give their own sum,
    flag and refusal, however the memo on the decomposition was built."""
    field = Field(3, 3)
    rng = random.Random(5)
    poly = _structured(rng, field, 1, 2)
    other = Poly.from_codes(field, [rng.randrange(27) for _ in range(5)] + [1])
    own = [field.from_code(c) for c in poly.values()]
    foreign = [field.from_code(c) for c in other.values()]
    dec = maximal_decomposition(poly)
    chars = [MultChar(field, j) for j in range(1, 26)]
    for chi in chars:
        bound_report(poly, chi, decomposition=dec)
    for chi in chars[:4]:
        report = bound_report(poly, chi, decomposition=dec, values=foreign)
        assert abs(report.value - sum(chi(v) for v in foreign)) < TOL
        again = bound_report(poly, chi, decomposition=dec)
        assert abs(again.value - char_sum(poly, chi)) < TOL
        given = bound_report(poly, chi, decomposition=dec, values=iter(own))
        assert abs(given.value - char_sum(poly, chi)) < TOL
    constant = [field.from_code(2)] * field.q  # a perfect power: Weil is off
    assert bound_report(poly, chars[0], decomposition=dec).weil_applicable
    assert not bound_report(poly, chars[0], decomposition=dec,
                            values=constant).weil_applicable
    with pytest.raises(PreconditionError):
        bound_report(poly, chars[0], decomposition=dec, values=own + [F9.one])
