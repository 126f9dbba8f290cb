"""Applications of the additive decomposition.

Value-set sizes with a coset-counting path cross-checkable against direct
image counts, permutation certificates and their quotient-side criterion,
compositional inverses, cycle-structure predictions and constructions,
involutions, linear translators and the commutative-diagram bijection check.
Brute routes read value tables; the translator check tests g(x + u) =
g(x) + M(u) by Field.translates, the row test of the brute additive kernel.
The inverse and the cycle construction interpolate on codes (poly._newton).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .decompose import (AdditiveDecomposition, maximal_decomposition,
                        multiplicative_index)
from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .linearized import (LinearizedPoly, Subspace, compose_quotient,
                         image_codes, require_splitting_monic, subspace_image,
                         vanishing_poly)
from .poly import Poly, _newton


# ---------------------------------------------------------------------------
# Value sets


def _coset_count(dec: AdditiveDecomposition) -> int:
    """Number of cosets of W that poly's image meets, read off its value
    table at the kernel's canonical coset representatives."""
    values = dec.values
    return len(set(dec.image_subspace.coset_keys([values[z] for z in dec.coset_reps])))


def value_set_size(poly: Poly, method: str = "theorem") -> tuple[int, int]:
    """(|image of poly|, number of distinct image cosets).

    The theorem path reads the decomposition's value table only at coset
    representatives and scales by the size of the image subspace; brute
    counts the image of the polynomial itself directly.  The
    coset count is always derived from the image-subspace structure.
    """
    if poly.degree < 1:
        raise PreconditionError("value set needs degree >= 1")
    dec = maximal_decomposition(poly)
    w = dec.image_subspace
    if method == "theorem":
        c = _coset_count(dec)
        return c * poly.field.p ** w.dim, c
    if method == "brute":
        image = set(dec.poly.values())
        classes = set(w.coset_keys(image))
        return len(image), len(classes)
    raise PreconditionError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ValueSetBounds:
    """Threshold report: a non-permutation with trivial gcd cannot exceed
    q - deg(subspace_poly), and the classical degree/index bounds alongside."""
    size: int
    gcd_degree: int
    threshold: int
    is_pp: bool
    implication_holds: bool
    degree_bound: float
    mult_index: int
    mult_index_bound: float


def value_set_bounds(poly: Poly) -> ValueSetBounds:
    if poly.degree < 1:
        raise PreconditionError("value set needs degree >= 1")
    field = poly.field
    q = field.q
    dec = maximal_decomposition(poly)
    size = len(set(dec.values))
    threshold = q - dec.subspace_poly.degree
    is_pp = size == q
    implication_holds = is_pp or dec.gcd_degree != 1 or size <= threshold
    # the classical comparison bounds read off the polynomial as written
    d = poly.degree
    ell = multiplicative_index(poly)
    return ValueSetBounds(
        size=size,
        gcd_degree=dec.gcd_degree,
        threshold=threshold,
        is_pp=is_pp,
        implication_holds=implication_holds,
        degree_bound=q - (q - 1) / d,
        mult_index=ell,
        mult_index_bound=q - (q - 1) / ell,
    )


# ---------------------------------------------------------------------------
# Permutation certificates


@dataclass(frozen=True)
class PPCertificate:
    """Permutation verdict with its structural conditions.

    is_pp holds iff gcd_degree == 1 and the induced map on cosets is a
    bijection; witness, present only for non-permutations, is the earliest
    colliding pair in code order.
    """
    is_pp: bool
    gcd_degree: int
    coset_map_bijective: bool
    witness: tuple[Elt, Elt] | None


def _pp_conditions(dec: AdditiveDecomposition) -> tuple[int, bool]:
    field = dec.poly.field
    w = dec.image_subspace
    kernel_cosets = field.q // field.p ** dec.kernel.dim
    bijective = (_coset_count(dec) == kernel_cosets
                 and field.q == kernel_cosets * field.p ** w.dim)
    return dec.gcd_degree, bijective


def _collision_witness(field: Field, values):
    """The earliest colliding pair of points, as elements, of values listed
    in code order; None when they are distinct.  Stops at the first repeat."""
    seen: dict[int, int] = {}
    for b, v in enumerate(values):
        if v in seen:
            return field.from_code(seen[v]), field.from_code(b)
        seen[v] = b
    return None


def is_permutation(poly: Poly, method: str = "certificate") -> PPCertificate:
    """Permutation test; certificate decides by the decomposition conditions,
    brute by scanning all values (and cross-asserts the conditions)."""
    if poly.degree < 1:
        raise PreconditionError("permutation test needs degree >= 1")
    dec = maximal_decomposition(poly)
    gcd_degree, bijective = _pp_conditions(dec)
    if method == "certificate":
        is_pp = gcd_degree == 1 and bijective
        witness = None if is_pp else _collision_witness(poly.field, dec.values)
        return PPCertificate(is_pp, gcd_degree, bijective, witness)
    if method == "brute":
        witness = _collision_witness(poly.field, dec.poly.values())
        is_pp = witness is None
        if is_pp != (gcd_degree == 1 and bijective):
            raise InvariantViolation(
                f"certificate conditions disagree with the value scan for {poly!r}")
        return PPCertificate(is_pp, gcd_degree, bijective, witness)
    raise PreconditionError(f"unknown method {method!r}")


def quotient_pp_criterion(outer: Poly, base: LinearizedPoly,
                          linear_part: LinearizedPoly) -> bool:
    """Whether outer(base(x)) + linear_part(x) permutes the field, decided on
    the image set of base.

    Needs base monic, splitting, and dividing base o linear_part; then the
    polynomial is a permutation iff linear_part is injective on the kernel of
    base (gcd(base, linear_part) = x) and y -> base(outer(y)) + N(y) is
    injective on base's image, where N o base = base o linear_part.
    """
    field = base.field.owns(linear_part, outer)
    ker = require_splitting_monic(base)
    try:
        quotient_map = compose_quotient(base.compose(linear_part), base)
    except PreconditionError:
        raise PreconditionError(
            "base does not divide base o linear_part; use is_permutation instead") from None
    if subspace_image(linear_part, ker).dim != ker.dim:
        return False
    image = image_codes(base)
    mapped = set(field.add_codes(base.values_at(outer.values_at(image)),
                                 quotient_map.values_at(image)))
    return len(mapped) == len(image)


# ---------------------------------------------------------------------------
# Inverse permutation polynomials


def inverse_pp(poly: Poly) -> Poly:
    """Compositional inverse of a permutation polynomial.

    Rebuilt from the decomposition: the inverse's subspace polynomial
    vanishes on the image of the original linear part, its linear part
    inverts that restriction, and its outer polynomial is interpolated over
    the canonical coset representatives.
    """
    if poly.degree < 1:
        raise PreconditionError("inverse needs degree >= 1")
    field = poly.field
    dec = maximal_decomposition(poly)
    values = dec.values
    if len(set(values)) != field.q:
        raise PreconditionError("polynomial is not a permutation")
    base0 = vanishing_poly(dec.image_subspace)
    rows = dec.kernel.rows
    # P = P(0) + M is injective on the kernel, so its rows' M-values are independent
    inv_linear = _newton(LinearizedPoly, field, zip(dec.linear_part.values_at(rows), rows))
    images = [values[z] for z in dec.coset_reps]
    # z - inv_linear(P(z)) at each representative z
    heights = field.add_codes(dec.coset_reps, map(field.neg, inv_linear.values_at(images)))
    outer0 = _newton(Poly, field, zip(base0.values_at(images), heights))
    if outer0 is None:
        raise InvariantViolation("coset images collided while inverting a permutation")
    return outer0.compose(base0.to_poly()) + inv_linear.to_poly()


def round_trips(f: Poly, g: Poly) -> bool:
    """Brute check that f(g(y)) == y at every field element y: f's values
    are tabulated once and g's scanned up to the first miss."""
    f.field.owns(g)
    table = list(f.values())
    return all(table[v] == y for y, v in enumerate(g.values()))


# ---------------------------------------------------------------------------
# Cycle structure


def cycle_structure(poly: Poly) -> Counter:
    """Multiset {cycle length: count} of the induced permutation."""
    image = list(poly.values())
    q = len(image)
    if len(set(image)) != q:
        raise PreconditionError("polynomial is not a permutation")
    seen = [False] * q
    out: Counter = Counter()
    for start in range(q):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = image[cur]
            length += 1
        out[length] += 1
    return out


def translation_pp(base: LinearizedPoly, outer: Poly) -> tuple[Poly, Counter]:
    """outer(base(x)) + x together with its predicted cycle profile.

    Requires base monic, splitting, and base(outer(s)) == 0 on base's image;
    then the permutation has t * deg(base) fixed points for t the number of
    image-set roots of outer, and all other cycles have length p.
    """
    field = base.field.owns(outer)
    require_splitting_monic(base)
    values = list(outer.values_at(image_codes(base)))
    if any(base.values_at(values)):
        raise PreconditionError(
            "hypothesis fails: base o outer does not vanish on the image set")
    roots = values.count(0)
    perm = outer.compose(base.to_poly()) + Poly.x(field)
    fixed = roots * base.degree
    predicted: Counter = Counter()
    if fixed:
        predicted[1] = fixed
    rest = (field.q - fixed) // field.p
    if rest:
        predicted[field.p] = rest
    return perm, predicted


def construct_prescribed_cycles(field: Field, fixed_count: int) -> Poly:
    """A permutation with fixed_count fixed points and all other cycles of
    length p; fixed_count must be divisible by p and at most q.

    fixed_count = p^j * u picks the canonical dimension-j subspace, sends u
    image points to zero and every other image point to one fixed nonzero
    subspace member.  fixed_count = 0 translates by a nonzero constant.
    """
    q, p = field.q, field.p
    if not 0 <= fixed_count <= q:
        raise PreconditionError("fixed point count out of range")
    if fixed_count % p:
        raise PreconditionError("fixed point count must be divisible by p")
    if fixed_count == 0:
        base = vanishing_poly(Subspace._from_codes(field, [1]))
        perm, _ = translation_pp(base, Poly.one(field))
        return perm
    j = 0
    u = fixed_count
    while u % p == 0:
        u //= p
        j += 1
    target = Subspace._from_codes(field, [p ** i for i in range(j)])
    base = vanishing_poly(target)
    # u image points go to 0, the others to 1, target's least nonzero member
    points = [(s, 0 if i < u else 1) for i, s in enumerate(image_codes(base))]
    perm, _ = translation_pp(base, _newton(Poly, field, points))
    return perm


# ---------------------------------------------------------------------------
# Involutions


@dataclass(frozen=True)
class InvolutionReport:
    """Certificate: self-inverse iff the linear part preserves the kernel
    subspace, squares to the identity on it, and every canonical coset
    representative returns to itself after two applications."""
    is_involution: bool
    image_equals_kernel: bool
    restriction_order_two: bool
    reps_return: bool


def is_involution(poly: Poly) -> InvolutionReport:
    if poly.degree < 1:
        raise PreconditionError("involution test needs degree >= 1")
    dec = maximal_decomposition(poly)
    image_ok = dec.image_subspace == dec.kernel
    lin, rows = dec.linear_part, list(dec.kernel.rows)
    order_two = list(lin.values_at(lin.values_at(rows))) == rows
    reps = list(dec.coset_reps)
    reps_ok = list(dec.poly.values_at(dec.poly.values_at(reps))) == reps
    return InvolutionReport(
        is_involution=image_ok and order_two and reps_ok,
        image_equals_kernel=image_ok,
        restriction_order_two=order_two,
        reps_return=reps_ok,
    )


# ---------------------------------------------------------------------------
# Linear translators


@dataclass(frozen=True)
class TranslatorSpec:
    """A map g, a subspace U and a linearized M claimed to satisfy
    g(x + u) = g(x) + M(u) for all x in the field and u in U.

    kind 'b_linear' additionally claims M(u) = gamma^-1 * scale * u on U;
    kind 'frobenius' claims M(u) = gamma^(-p^i) * scale * u^(p^i) with
    i = frob_power, read mod n since the Frobenius has order n.
    """
    g: Poly
    subspace: Subspace
    translate: LinearizedPoly
    kind: str = "general"
    gamma: Elt | None = None
    scale: Elt | None = None
    frob_power: int = 0


def _translator_values(spec: TranslatorSpec) -> list[int] | None:
    """Codes of g's values in code order when spec passes the exhaustive
    translator check over field x subspace (plus the closed-form shape for
    the named kinds), else None."""
    field = spec.g.field.owns(spec.subspace, spec.translate)
    codes = field.span_codes(spec.subspace.rows)  # u = 0 first
    values = list(spec.g.values())
    if spec.kind == "general":
        # the definition asks for a map into the subspace, so straying
        # values already disqualify g
        if not set(codes).issuperset(values):
            return None
    moved = list(spec.translate.values_at(codes))
    if spec.kind in ("b_linear", "frobenius"):
        if spec.gamma is None or spec.scale is None:
            raise PreconditionError(f"{spec.kind} kind needs gamma and scale")
        field.owns(spec.gamma, spec.scale)
        # b_linear is the Frobenius shape at power p^0
        pi = field.p ** (spec.frob_power % field.n) if spec.kind == "frobenius" else 1
        factor = field.mul(field.pow(spec.gamma.code, -pi), spec.scale.code)
        if any(m != field.mul(factor, field.pow(u, pi)) for u, m in zip(codes, moved)):
            return None
    elif spec.kind != "general":
        raise PreconditionError(f"unknown translator kind {spec.kind!r}")
    # one row per shift u, by Field.translates: g(x + u) against g(x) + M(u)
    # at every x; the first member is u = 0, whose row holds trivially as
    # M(0) = 0
    if all(field.translates(values, u, mu) for u, mu in zip(codes[1:], moved[1:])):
        return values
    return None


def is_linear_translator(spec: TranslatorSpec) -> bool:
    """Exhaustive check of the translator identity over field x subspace,
    plus the closed-form shape for the named kinds."""
    return _translator_values(spec) is not None


def translator_pp(spec: TranslatorSpec, adjust: Poly) -> tuple[bool, bool]:
    """(is_pp, is_complete) for P(x) = x + adjust(g(x)).

    is_pp is decided on the subspace side (u -> u + M(adjust(u)) bijective)
    and cross-checked against the full field.  is_complete reports whether
    x -> 2x + adjust(g(x)) = P(x) + x permutes the field; it means "P is a
    complete mapping" only when is_pp is True.

    Requires g onto the subspace, adjust mapping the subspace into itself,
    and the spec to pass is_linear_translator.
    """
    field = spec.g.field.owns(adjust)
    g_values = _translator_values(spec)
    if g_values is None:
        raise PreconditionError("spec is not a linear translator")
    codes = field.span_codes(spec.subspace.rows)
    member_codes = set(codes)
    if set(g_values) != member_codes:
        raise PreconditionError("g must map onto the subspace")
    moved = list(adjust.values_at(codes))
    if not member_codes.issuperset(moved):
        raise PreconditionError("adjust must map the subspace into itself")
    small = set(field.add_codes(codes, spec.translate.values_at(moved)))
    small_bijective = len(small) == len(codes)
    adjusted = dict(zip(codes, moved))
    points = range(field.q)
    adjusted_g = [adjusted[ga] for ga in g_values]
    big = set(field.add_codes(points, adjusted_g))
    big_bijective = len(big) == field.q
    if small_bijective != big_bijective:
        raise InvariantViolation(
            "subspace-side verdict disagrees with the full permutation scan")
    doubled = set(field.add_codes(field.add_codes(points, points), adjusted_g))
    return big_bijective, len(doubled) == field.q


# ---------------------------------------------------------------------------
# Commutative-diagram bijection criterion


def agw_check(f, lam, lam_bar, f_bar, s_bar=None) -> bool:
    """Equivalence test: with surjective lam: A -> S, lam_bar: A -> S_bar and
    lam_bar o f = f_bar o lam, f is a bijection of A iff f_bar is a bijection
    S -> S_bar and f is injective on every lam-fiber.

    All maps are finite dicts; both sides are evaluated and must agree, the
    shared verdict is returned.
    """
    domain = set(f)
    if set(lam) != domain or set(lam_bar) != domain:
        raise PreconditionError("f, lam and lam_bar must share a domain")
    if any(v not in domain for v in f.values()):
        raise PreconditionError("f must map the domain into itself")
    small = set(f_bar)
    small_bar = set(s_bar) if s_bar is not None else small
    if len(small) != len(small_bar):
        raise PreconditionError("the two small sets must have equal size")
    if set(lam.values()) != small:
        raise PreconditionError("lam must be onto the small set")
    if set(lam_bar.values()) != small_bar:
        raise PreconditionError("lam_bar must be onto the target small set")
    if any(v not in small_bar for v in f_bar.values()):
        raise PreconditionError("f_bar must map into the target small set")
    for a in domain:
        if lam_bar[f[a]] != f_bar[lam[a]]:
            raise PreconditionError("diagram does not commute")
    left = len(set(f.values())) == len(domain)
    fibers: dict = {}
    for a in domain:
        fibers.setdefault(lam[a], []).append(a)
    injective = all(len({f[a] for a in fiber}) == len(fiber)
                    for fiber in fibers.values())
    right = injective and len(set(f_bar.values())) == len(small)
    if left != right:
        raise InvariantViolation("the two sides of the diagram criterion disagree")
    return left
