"""Applications of the additive decomposition.

Value-set sizes with a coset-counting path cross-checkable against direct
image counts, permutation certificates and their quotient-side criterion,
compositional inverses, cycle-structure predictions and constructions,
involutions, linear translators and the commutative-diagram bijection check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .decompose import (AdditiveDecomposition, maximal_decomposition,
                        multiplicative_index)
from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .linearized import (LinearizedPoly, Subspace, compose_quotient,
                         coset_reps, image_elements, linearized_interpolate,
                         require_splitting_monic, subspace_image,
                         vanishing_poly)
from .poly import Poly, lagrange_interpolate, poly_gcd


# ---------------------------------------------------------------------------
# Value sets


def _image_subspace(dec: AdditiveDecomposition) -> Subspace:
    return subspace_image(dec.linear_part, dec.kernel)


def _coset_count(dec: AdditiveDecomposition, w: Subspace) -> int:
    """Number of cosets of W that poly's image meets, read off its value
    table at the kernel's canonical coset representatives."""
    values, from_code = dec.values, dec.poly.field.from_code
    return len({w.coset_key(from_code(values[z.code]))
                for z in coset_reps(dec.kernel).reps})


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
    w = _image_subspace(dec)
    if method == "theorem":
        c = _coset_count(dec, w)
        return c * poly.field.p ** w.dim, c
    if method == "brute":
        image = set(dec.poly.values())
        classes = {w.coset_key(poly.field.from_code(v)) for v in image}
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
    w = _image_subspace(dec)
    kernel_cosets = field.q // field.p ** dec.kernel.dim
    bijective = (_coset_count(dec, w) == kernel_cosets
                 and field.q == kernel_cosets * field.p ** w.dim)
    return dec.gcd_degree, bijective


def _collision_witness(poly: Poly):
    seen: dict[int, int] = {}
    for a, v in enumerate(poly.values()):
        if v in seen:
            return poly.field.from_code(seen[v]), poly.field.from_code(a)
        seen[v] = a
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
        witness = None if is_pp else _collision_witness(dec.poly)
        return PPCertificate(is_pp, gcd_degree, bijective, witness)
    if method == "brute":
        witness = _collision_witness(dec.poly)
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
    polynomial is a permutation iff gcd(base, linear_part) = x and
    y -> base(outer(y)) + N(y) is injective on base's image, where
    N o base = base o linear_part.
    """
    require_splitting_monic(base)
    try:
        quotient_map = compose_quotient(base.compose(linear_part), base)
    except PreconditionError:
        raise PreconditionError(
            "base does not divide base o linear_part; use is_permutation instead") from None
    g = poly_gcd(base.to_poly(), linear_part.to_poly())
    if g.degree != 1:
        return False
    image = image_elements(base)
    mapped = {(base.eval(outer.eval(s)) + quotient_map.eval(s)).code for s in image}
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
    w = _image_subspace(dec)
    base0 = vanishing_poly(w)
    pairs = [(dec.linear_part.eval(b), b) for b in dec.kernel.basis]
    inv_linear = linearized_interpolate(field, pairs, dec.kernel.dim)
    points = []
    seen = set()
    for z in coset_reps(dec.kernel).reps:
        image = field.from_code(values[z.code])
        abscissa = base0.eval(image)
        if abscissa.code in seen:
            raise InvariantViolation("coset images collided while inverting a permutation")
        seen.add(abscissa.code)
        points.append((abscissa, z - inv_linear.eval(image)))
    outer0 = lagrange_interpolate(field, points)
    return outer0.compose(base0.to_poly()) + inv_linear.to_poly()


def round_trips(f: Poly, g: Poly) -> bool:
    """Brute check that f(g(y)) == y at every field element y: f's values
    are tabulated once and g's scanned up to the first miss."""
    if f.field != g.field:
        raise PreconditionError("polynomials over different fields")
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
    field = outer.field
    require_splitting_monic(base)
    roots = 0
    for s in image_elements(base):
        value = outer.eval(s)
        if base.eval(value).code != 0:
            raise PreconditionError(
                "hypothesis fails: base o outer does not vanish on the image set")
        if value.code == 0:
            roots += 1
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
        base = vanishing_poly(Subspace(field, [field.one]))
        perm, _ = translation_pp(base, Poly.one(field))
        return perm
    j = 0
    u = fixed_count
    while u % p == 0:
        u //= p
        j += 1
    target = Subspace(field, ())
    code = 1
    while target.dim < j:
        cand = field.from_code(code)
        if not target.contains(cand):
            target = Subspace(field, list(target.basis) + [cand])
        code += 1
    base = vanishing_poly(target)
    image = image_elements(base)
    filler = target.elements()[1] if len(image) > u else None
    points = [(s, field.zero if i < u else filler) for i, s in enumerate(image)]
    outer = lagrange_interpolate(field, points)
    perm, _ = translation_pp(base, outer)
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
    w = _image_subspace(dec)
    image_ok = w == dec.kernel
    order_two = all(dec.linear_part.eval(dec.linear_part.eval(b)) == b
                    for b in dec.kernel.basis)
    reps_ok = all(dec.poly.eval(dec.poly.eval(z)) == z
                  for z in coset_reps(dec.kernel).reps)
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
    field = spec.g.field
    members = spec.subspace.elements()
    values = list(spec.g.values())
    if spec.kind == "general":
        # the definition asks for a map into the subspace, so straying
        # values already disqualify g
        if any(not spec.subspace.contains(field.from_code(v)) for v in values):
            return None
    if spec.kind == "b_linear":
        if spec.gamma is None or spec.scale is None:
            raise PreconditionError("b_linear kind needs gamma and scale")
        ginv = spec.gamma.inv()
        if any(spec.translate.eval(u) != ginv * spec.scale * u for u in members):
            return None
    elif spec.kind == "frobenius":
        if spec.gamma is None or spec.scale is None:
            raise PreconditionError("frobenius kind needs gamma and scale")
        pi = field.p ** (spec.frob_power % field.n)
        gfac = (spec.gamma ** pi).inv()
        if any(spec.translate.eval(u) != gfac * spec.scale * u ** pi for u in members):
            return None
    elif spec.kind != "general":
        raise PreconditionError(f"unknown translator kind {spec.kind!r}")
    add = field.add
    shifts = [(u.code, spec.translate.eval(u).code) for u in members]
    for a, ga in enumerate(values):
        for u, mu in shifts:
            if values[add(a, u)] != add(ga, mu):
                return None
    return values


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
    field = spec.g.field
    members = spec.subspace.elements()
    member_codes = {m.code for m in members}
    g_values = _translator_values(spec)
    if g_values is None:
        raise PreconditionError("spec is not a linear translator")
    if set(g_values) != member_codes:
        raise PreconditionError("g must map onto the subspace")
    adjusted = {u.code: adjust.eval(u) for u in members}
    if any(v.code not in member_codes for v in adjusted.values()):
        raise PreconditionError("adjust must map the subspace into itself")
    small = {(u + spec.translate.eval(adjusted[u.code])).code for u in members}
    small_bijective = len(small) == len(members)
    add = field.add
    big = {add(a, adjusted[ga].code) for a, ga in enumerate(g_values)}
    big_bijective = len(big) == field.q
    if small_bijective != big_bijective:
        raise InvariantViolation(
            "subspace-side verdict disagrees with the full permutation scan")
    doubled = {add(add(a, a), adjusted[ga].code) for a, ga in enumerate(g_values)}
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
