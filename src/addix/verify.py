"""Acceptance suites: oracle-equivalence sweeps and locked regressions.

Each suite draws its own seeded sample, exercises a dual-route operation
(structural path vs brute force) or an exactly stated identity, and returns
a CriterionResult.  The CLI `verify` verb and the pytest acceptance module
both run these.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .analysis import (TranslatorSpec, _collision_witness,
                       construct_prescribed_cycles, cycle_structure,
                       inverse_pp, is_involution, is_linear_translator,
                       is_permutation, quotient_pp_criterion, round_trips,
                       translation_pp, translator_pp, value_set_bounds,
                       value_set_size)
from .charsum import MultChar, bound_report, char_sum_affine
from .decompose import (additive_index, additive_kernel, maximal_decomposition)
from .errors import InvariantViolation, PreconditionError
from .field import Field
from .linearized import (LinearizedPoly, Subspace, all_subspaces, complement,
                         compose_quotient, coset_reps, image_codes,
                         is_linearized, subfield, vanishing_poly,
                         xq_minus_x_linearized)
from .poly import Poly, _newton, parse_poly


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    events: list[str] = dc_field(default_factory=list)


@functools.cache
def _field(p: int, n: int) -> Field:
    return Field(p, n)


def _fields(pairs, max_q: int | None):
    """The fields GF(p^n) for (p, n) in pairs, skipping those above max_q."""
    for p, n in pairs:
        if max_q is None or p ** n <= max_q:
            yield _field(p, n)


def _random_poly(rng: random.Random, field: Field, max_deg: int,
                 min_deg: int = 1) -> Poly:
    while True:
        codes = [rng.randrange(field.q) for _ in range(max_deg + 1)]
        poly = Poly.from_codes(field, codes)
        if poly.degree >= min_deg:
            return poly


def _random_subspace(rng: random.Random, field: Field, dim: int) -> Subspace:
    out = Subspace(field, ())
    for _ in range(64 * (dim + 1) + 1):
        if out.dim == dim:
            return out
        # a draw inside out spans out again, with the same rows
        out = Subspace._from_codes(field, out.rows + (rng.randrange(1, field.q),))
    raise RuntimeError("subspace sampling stalled")


def _random_linearized(rng: random.Random, field: Field, max_len: int) -> LinearizedPoly:
    if max_len <= 0:
        return LinearizedPoly(field, ())
    codes = [rng.randrange(field.q) for _ in range(rng.randint(1, max_len))]
    return LinearizedPoly.from_codes(field, codes)


def _decomposable_sample(rng: random.Random, field: Field, dim: int,
                         outer_deg: int, linear: LinearizedPoly | None = None):
    """(poly, base, outer, linear_part) with poly = outer(base(x)) + linear_part."""
    sub = _random_subspace(rng, field, dim)
    base = vanishing_poly(sub)
    outer = _random_poly(rng, field, outer_deg, min_deg=1)
    if linear is None:
        linear = _random_linearized(rng, field, dim)
    poly = outer.compose(base.to_poly()) + linear.to_poly()
    return poly, base, outer, linear


# ---------------------------------------------------------------------------
# Criteria


KERNEL_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (2, 6)]
VALUESET_FIELDS = [(2, 3), (3, 2), (2, 4), (3, 3)]


def suite_kernel_methods(seed: int = 1, max_q: int | None = None) -> CriterionResult:
    """gcd-path and brute-path additive kernels agree on random polynomials."""
    rng = random.Random(seed)
    checked = 0
    for field in _fields(KERNEL_FIELDS, max_q):
        for _ in range(200):
            poly = _random_poly(rng, field, 12)
            if additive_kernel(poly, "gcd") != additive_kernel(poly, "brute"):
                return CriterionResult(
                    "kernel-methods", False,
                    f"kernel methods disagree for {poly!r}")
            checked += 1
    return CriterionResult("kernel-methods", True,
                           f"{checked} polynomials, gcd == brute throughout")


def suite_decomposition_identity(seed: int = 1, max_q: int | None = None) -> CriterionResult:
    """outer(subspace_poly) + linear_part reassembles the input exactly."""
    rng = random.Random(seed)
    checked = 0
    for field in _fields(KERNEL_FIELDS, max_q):
        for _ in range(200):
            poly = _random_poly(rng, field, 12)
            dec = maximal_decomposition(poly)
            ok = (dec.compose() == dec.poly
                  and dec.outer.constant_term() == dec.poly.constant_term()
                  and dec.linear_part.to_poly().constant_term().code == 0
                  and dec.linear_part.degree < dec.subspace_poly.degree
                  and dec.subspace_poly.degree == field.p ** (field.n - dec.index)
                  and is_linearized(dec.linear_part.to_poly()) is not None)
            if not ok:
                return CriterionResult(
                    "decomposition-identity", False,
                    f"decomposition of {poly!r} violates its contract")
            checked += 1
    return CriterionResult("decomposition-identity", True,
                           f"{checked} exact reassemblies")


def suite_value_sets(seed: int = 2, max_q: int | None = None) -> CriterionResult:
    """Coset-counting value-set size equals the brute image size, and a
    non-permutation with trivial gcd never exceeds q - deg(subspace_poly)."""
    rng = random.Random(seed)
    checked = 0
    for field in _fields(VALUESET_FIELDS, max_q):
        for _ in range(500):
            poly = _random_poly(rng, field, 12)
            theorem_size, _ = value_set_size(poly, "theorem")
            brute_size, _ = value_set_size(poly, "brute")
            bounds = value_set_bounds(poly)
            for other in (brute_size, bounds.size):
                if theorem_size != other:
                    return CriterionResult(
                        "value-sets", False,
                        f"value set mismatch {theorem_size} vs {other} for {poly!r}")
            if not bounds.implication_holds:
                return CriterionResult(
                    "value-sets", False,
                    f"threshold implication violated for {poly!r}")
            checked += 1
    return CriterionResult("value-sets", True,
                           f"{checked} polynomials, theorem == brute and threshold held")


def suite_pp_certificates(seed: int = 2, max_q: int | None = None) -> CriterionResult:
    """Certificate verdicts match brute force (a permutation's values are
    all distinct, a non-permutation's witness is a real collision), and
    every quotient-criterion-eligible instance agrees with the quotient test."""
    rng = random.Random(seed)
    checked = eligible = 0
    for field in _fields(VALUESET_FIELDS, max_q):
        for _ in range(500):
            poly = _random_poly(rng, field, 12)
            cert = is_permutation(poly, "certificate")
            if cert.is_pp:  # the certificate scanned nothing: scan every value
                agrees = len(set(poly.values())) == field.q
            else:  # its witness came from a scan: check the collision itself
                w = cert.witness
                agrees = w is not None and w[0] != w[1] and poly.eval(w[0]) == poly.eval(w[1])
            if not agrees:
                return CriterionResult(
                    "pp-certificates", False,
                    f"certificate disagrees with brute scan for {poly!r}")
            dec = maximal_decomposition(poly)
            try:
                quotient_verdict = quotient_pp_criterion(
                    dec.outer, dec.subspace_poly, dec.linear_part)
            except PreconditionError:
                quotient_verdict = None
            if quotient_verdict is not None:
                eligible += 1
                if quotient_verdict != cert.is_pp:
                    return CriterionResult(
                        "pp-certificates", False,
                        f"quotient criterion disagrees for {poly!r}")
            checked += 1
    return CriterionResult(
        "pp-certificates", True,
        f"{checked} polynomials agreed; {eligible} quotient-eligible instances agreed")


def _sample_pps(rng: random.Random, field: Field, count: int) -> list[Poly]:
    """Permutations of the form outer(base(x)) + linear_part: a mix of
    guaranteed nilpotent-style instances and rejection-sampled ones."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        if rng.random() < 0.5:
            dim = rng.randint(1, field.n - 1)
            sub = _random_subspace(rng, field, dim)
            base = vanishing_poly(sub)
            g = _random_poly(rng, field, 2, min_deg=0)
            outer = complement(base).to_poly().compose(g)
            poly = outer.compose(base.to_poly()) + Poly.x(field)
            out.append(poly)
        else:
            dim = rng.randint(max(1, field.n - 2), field.n - 1)
            linear = LinearizedPoly.identity(field) if rng.random() < 0.4 else None
            poly, *_ = _decomposable_sample(rng, field, dim, rng.randint(1, 3),
                                            linear=linear)
            if poly.degree >= 1 and _collision_witness(field, poly.values()) is None:
                out.append(poly)
    if len(out) < count:
        raise RuntimeError("permutation sampling stalled")
    return out


def suite_inverse_roundtrip(seed: int = 3, max_q: int | None = None) -> CriterionResult:
    """inverse_pp inverts exhaustively in both directions and preserves the
    additive index."""
    rng = random.Random(seed)
    checked = 0
    for field in _fields([(2, 4), (3, 3)], max_q):
        for poly in _sample_pps(rng, field, 200):
            inverse = inverse_pp(poly)
            if not round_trips(inverse, poly):
                return CriterionResult("inverse-roundtrip", False,
                                       f"left inverse failed for {poly!r}")
            if not round_trips(poly, inverse):
                return CriterionResult("inverse-roundtrip", False,
                                       f"right inverse failed for {poly!r}")
            if additive_index(inverse) != additive_index(poly):
                return CriterionResult("inverse-roundtrip", False,
                                       f"additive index changed for {poly!r}")
            checked += 1
    return CriterionResult("inverse-roundtrip", True,
                           f"{checked} permutations inverted exactly")


def _nilpotent_example_instances(field: Field):
    """Instances of the two-step nilpotent family over GF(p^{2m}):
    alpha*beta*x^{p^m} + alpha*x with alpha^{p^m} = -alpha, beta^{p^m+1} = 1."""
    pm = field.p ** (field.n // 2)
    alphas = [a for a in field.elements() if a.code and a ** pm == -a]
    betas = [b for b in field.elements() if b.code and b ** (pm + 1) == field.one]
    return alphas, betas


def suite_cycle_theorems(seed: int = 4, max_q: int | None = None) -> CriterionResult:
    """(a) predicted one/p cycle profiles match measured orbits,
    (b) the nilpotent family permutes for arbitrary outer polynomials,
    (c) every admissible fixed-point count is constructible."""
    rng = random.Random(seed)
    part_a = 0
    for field in _fields([(3, 2), (2, 4), (5, 2)], max_q):
        for _ in range(100):
            dim = rng.randint(0, field.n)
            sub = _random_subspace(rng, field, dim)
            base = vanishing_poly(sub)
            g = _random_poly(rng, field, 3, min_deg=0)
            outer = complement(base).to_poly().compose(g)
            perm, predicted = translation_pp(base, outer)
            if cycle_structure(perm) != predicted:
                return CriterionResult(
                    "cycle-theorems", False,
                    f"cycle profile mismatch for dim={dim} over {field!r}")
            part_a += 1

    part_b = 0
    for field in _fields([(2, 2), (3, 2), (2, 4), (5, 2)], max_q):
        m = field.n // 2
        alphas, betas = _nilpotent_example_instances(field)
        if not alphas or not betas:
            return CriterionResult("cycle-theorems", False,
                                   f"no nilpotent instance over {field!r}")
        for _ in range(20):
            alpha = rng.choice(alphas)
            beta = rng.choice(betas)
            coeffs = [field.zero] * (m + 1)
            coeffs[0] = alpha
            coeffs[m] = alpha * beta
            lin = LinearizedPoly(field, coeffs)
            if any(lin.eval(lin.eval(y)).code for y in field.elements()):
                return CriterionResult("cycle-theorems", False,
                                       "family member is not two-step nilpotent")
            g = _random_poly(rng, field, 3, min_deg=0)
            lp = lin.to_poly()
            perm = lp.compose(g.compose(lp)) + Poly.x(field)
            if _collision_witness(field, perm.values()) is not None:
                return CriterionResult(
                    "cycle-theorems", False,
                    f"nilpotent instance failed to permute over {field!r}")
            part_b += 1

    part_c = 0
    for field in _fields([(3, 2), (2, 4), (5, 2)], max_q):
        p = field.p
        for fixed in range(p, field.q + 1, p):
            perm = construct_prescribed_cycles(field, fixed)
            expected = Counter()
            if fixed:
                expected[1] = fixed
            if field.q - fixed:
                expected[p] = (field.q - fixed) // p
            if cycle_structure(perm) != expected:
                return CriterionResult(
                    "cycle-theorems", False,
                    f"prescribed profile failed for fixed={fixed} over {field!r}")
            part_c += 1
    return CriterionResult(
        "cycle-theorems", True,
        f"profiles {part_a}, nilpotent instances {part_b}, constructions {part_c}")


def suite_complement_commutation(seed: int = 5, max_q: int | None = None) -> CriterionResult:
    """Both composition orders of a subspace polynomial with its complement
    equal x^q - x, exhaustively over GF(16) and sampled over GF(64)."""
    rng = random.Random(seed)
    checked = 0
    for field in _fields([(2, 4), (2, 6)], max_q):
        whole = xq_minus_x_linearized(field)
        if field.q == 16:
            subs = all_subspaces(field)
        else:
            subs = (_random_subspace(rng, field, rng.randint(0, 6)) for _ in range(100))
        for sub in subs:
            base = vanishing_poly(sub)
            comp = complement(base)
            if comp.compose(base) != whole or base.compose(comp) != whole:
                return CriterionResult("complement-commutation", False,
                                       f"commutation failed for {sub!r}")
            checked += 1
    return CriterionResult("complement-commutation", True,
                           f"{checked} subspaces commuted exactly")


def suite_character_bounds(seed: int = 6, max_q: int | None = None) -> CriterionResult:
    """Every sampled decomposable polynomial respects the additive bound for
    every nontrivial character; affine coset sums respect their own bound;
    GF(64) exhibits an instance strictly sharper than both Weil and q."""
    rng = random.Random(seed)
    checked = 0
    exhibited = False
    for field in _fields([(2, 4), (3, 3), (2, 6)], max_q):
        chars = [MultChar(field, j) for j in range(1, field.q - 1)]
        samples = []
        for i in range(100):
            if field.q == 64 and i < 20:
                dim, linear = 4, LinearizedPoly.identity(field)
            else:
                dim, linear = rng.randint(1, field.n - 1), None
            poly, *_ = _decomposable_sample(rng, field, dim,
                                            rng.randint(1, 3), linear=linear)
            if poly.degree >= 1:
                samples.append(poly)
        for poly in samples:
            dec = maximal_decomposition(poly)
            for chi in chars:
                report = bound_report(poly, chi, decomposition=dec)
                if (field.q == 64 and report.nontrivial_regime
                        and report.weil_applicable
                        and report.additive_bound < report.weil_bound
                        and report.additive_bound < field.q):
                    exhibited = True
            checked += len(chars)
        if field.q == 16:
            for sub in all_subspaces(field):
                for shift in map(field.from_code, coset_reps(sub)):
                    for chi in chars:
                        char_sum_affine(chi, shift, sub)
        else:
            for _ in range(40):
                sub = _random_subspace(rng, field, rng.randint(0, field.n))
                shift = field.from_code(rng.randrange(field.q))
                for chi in chars:
                    char_sum_affine(chi, shift, sub)
    if (max_q is None or max_q >= 64) and not exhibited:
        return CriterionResult(
            "character-bounds", False,
            "no GF(64) instance with additive bound below Weil and q")
    return CriterionResult("character-bounds", True,
                           f"{checked} (poly, character) pairs bounded; sharper instance exhibited")


REFUTATION_EVENT = "complete-mapping claim refuted at odd characteristic"


def suite_involution_translator(seed: int = 7, max_q: int | None = None) -> CriterionResult:
    """Involution certificates match brute double-composition and the
    translator equivalence (subspace side <=> whole field) holds throughout.

    The blanket complete-mapping claim is checked on every permutation
    instance; violations are reported as events.  Sampling refutes the claim
    at odd characteristic (see the p=3 counterexample this surfaces), so the
    zero-violations expectation there cannot be met and the criterion reports
    an honest failure carrying the counterexample.
    """
    rng = random.Random(seed)
    events: list[str] = []
    inv_checked = 0
    for field in _fields([(2, 4)], max_q):
        for _ in range(500):
            dim = rng.randint(1, 3)
            poly, *_ = _decomposable_sample(rng, field, dim, rng.randint(1, 3))
            if poly.degree < 1:
                continue
            report = is_involution(poly)
            brute = round_trips(poly, poly)
            if report.is_involution != brute:
                return CriterionResult(
                    "involution-translator", False,
                    f"involution certificate disagrees for {poly!r}", events)
            inv_checked += 1

    translator_checked = 0
    odd_violations = even_violations = 0
    odd_example = None
    for tfield in _fields([(3, 2), (2, 4)], max_q):
        built = 0
        guard = 0
        while built < 100 and guard < 5000:
            guard += 1
            spec, adjust = _random_translator_instance(rng, tfield)
            if spec is None:
                continue
            try:
                is_pp, is_complete = translator_pp(spec, adjust)
            except PreconditionError:
                continue
            if is_pp and not is_complete:
                if tfield.p == 2:
                    even_violations += 1
                else:
                    odd_violations += 1
                    if odd_example is None:
                        odd_example = (f"g={spec.g!r}, h={adjust!r}, "
                                       f"U codes={sorted(tfield.span_codes(spec.subspace.rows))}, "
                                       f"M codes={list(spec.translate.codes)}")
            built += 1
        translator_checked += built
        if built < 100:
            return CriterionResult("involution-translator", False,
                                   f"translator sampling stalled over {tfield!r}", events)

    detail = (f"{inv_checked} involution certificates agreed; "
              f"{translator_checked} translator instances: subspace-side verdict matched "
              f"the full scan throughout; complete-mapping violations: "
              f"p odd {odd_violations}, p=2 {even_violations} (recorded)")
    if odd_violations:
        events.append(REFUTATION_EVENT + ", e.g. " + odd_example)
        return CriterionResult(
            "involution-translator", False,
            detail + " -- zero odd-characteristic violations were expected, so this "
                     "reports the refuting instance instead of passing", events)
    return CriterionResult("involution-translator", True, detail, events)


def _random_translator_instance(rng: random.Random, field: Field):
    """A valid (g, U, M) translator with g onto U plus an adjusting map
    h with h(U) inside U, built from scaled relative traces."""
    divisors = [k for k in range(1, field.n) if field.n % k == 0]
    if not divisors:
        return None, None
    k = rng.choice(divisors)
    span = field.n // k
    trace = LinearizedPoly(field, tuple(
        field.one if i % k == 0 else field.zero for i in range(field.n)))
    sub = subfield(field, k)
    members = sorted(field.span_codes(sub.rows))
    scale = field.from_code(rng.choice(members[1:]))  # nonzero: zero comes first
    # g(x+u) = g(x) + scale*(n/k)*u on the subfield
    translate = LinearizedPoly(field, (scale * field.from_int(span),))
    g_poly = trace.scale(scale).to_poly()
    if rng.random() < 0.4:
        # coset-dependent shift: constant on subfield cosets, values inside U
        base = vanishing_poly(sub)
        shifts = [(s, rng.choice(members)) for s in image_codes(base)]
        g_poly = g_poly + _newton(Poly, field, shifts).compose(base.to_poly())
        if set(g_poly.values()) != set(members):
            return None, None
    adjust = _newton(Poly, field, [(m, rng.choice(members)) for m in members])
    spec = TranslatorSpec(g=g_poly, subspace=sub, translate=translate)
    if not is_linear_translator(spec):
        return None, None
    return spec, adjust


def suite_fixed_regressions(seed: int = 0, max_q: int | None = None) -> CriterionResult:
    """Locked worked examples."""
    f8 = _field(2, 3)
    if additive_index(parse_poly("x^3", f8)) != 3:
        return CriterionResult("fixed-regressions", False, "index of x^3 over GF(8)")
    f9 = _field(3, 2)
    dec = maximal_decomposition(parse_poly("(x^3-x)^2+x", f9))
    if dec.index != 1 or dec.subspace_poly.to_poly() != parse_poly("x^3-x", f9):
        return CriterionResult("fixed-regressions", False,
                               "decomposition of (x^3-x)^2+x over GF(9)")
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        field = _field(p, n)
        frob = LinearizedPoly(field, (-field.one, field.one))
        quotient = compose_quotient(xq_minus_x_linearized(field), frob)
        trace = LinearizedPoly(field, (field.one,) * field.n)
        if quotient != trace:
            return CriterionResult("fixed-regressions", False,
                                   f"trace quotient over {field!r}")
    return CriterionResult("fixed-regressions", True, "all locked examples hold")


ALL_SUITES = {
    "kernel-methods": suite_kernel_methods,
    "decomposition-identity": suite_decomposition_identity,
    "value-sets": suite_value_sets,
    "pp-certificates": suite_pp_certificates,
    "inverse-roundtrip": suite_inverse_roundtrip,
    "cycle-theorems": suite_cycle_theorems,
    "complement-commutation": suite_complement_commutation,
    "character-bounds": suite_character_bounds,
    "involution-translator": suite_involution_translator,
    "fixed-regressions": suite_fixed_regressions,
}


def run_suites(names, seed: int | None = None, max_q: int | None = None,
               report=print) -> int:
    """Run the named suites, print one PASS/FAIL line each, and return the
    process exit code: 0 clean, 1 failures, 3 when an exact identity fired.

    seed None runs every suite at its own default seed, the sample the
    pytest acceptance criteria check; an integer seeds every suite alike.
    """
    def guarded(name):
        fn = ALL_SUITES[name]
        try:
            if seed is None:
                return fn(max_q=max_q)
            return fn(seed=seed, max_q=max_q)
        except InvariantViolation as exc:
            return CriterionResult(name, False,
                                   f"theorem assertion failed: {exc}",
                                   events=[str(exc)])

    results = [guarded(name) for name in names]
    saw_event = saw_failure = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        report(f"{status} {res.name}: {res.detail}")
        for ev in res.events:
            report(f"  event: {ev}")
        saw_failure = saw_failure or not res.passed
        saw_event = saw_event or bool(res.events)
    if saw_event:
        return 3
    return 1 if saw_failure else 0
