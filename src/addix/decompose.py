"""Additive decomposition P(x) = outer(S(x)) + linear_part(x).

S is the largest monic linearized divisor of x^q - x for which such a
splitting exists, with deg(linear_part) < deg(S); the additive index counts
how far S falls short of x^q - x: deg(S) = p^(n - index).  The roots of S,
the additive kernel V, come from the shift-expansion bands folded from the
lowest degree, stopping at a gcd whose roots every band is checked to
vanish on; outer and linear_part are read off the digits of P - P(0) in
base S.  gcd_degree is read off the cached kernel V of S and image
linear_part(V) by rank-nullity.  Also carries the classical multiplicative
index used for bound comparisons.  Inputs of degree >= q are folded modulo
x^q - x (reduce_mod_xq_minus_x) before kernel computations, so the identity
reported is for the reduced polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd as int_gcd

from .errors import InvariantViolation, PreconditionError
from .field import Elt
from .linearized import (LinearizedPoly, Subspace, _outer_codes, coset_reps,
                         expand_in_base, is_linearized, kernel,
                         require_splitting_monic, subspace_image,
                         xq_minus_x_linearized)
from .poly import (Poly, gcd_with_xq_minus_x, poly_gcd, reduce_mod_xq_minus_x,
                   shift_expand)


@dataclass(frozen=True)
class AdditiveDecomposition:
    """poly == outer(subspace_poly(x)) + linear_part(x), exactly.

    subspace_poly is monic, splits over the field, divides x^q - x and has
    degree p^(n - index); linear_part is linearized with smaller degree;
    outer carries the constant term poly(0); kernel holds the roots of
    subspace_poly.
    """
    poly: Poly
    outer: Poly
    subspace_poly: LinearizedPoly
    linear_part: LinearizedPoly
    index: int
    kernel: Subspace

    def compose(self) -> Poly:
        """Reassemble outer(subspace_poly(x)) + linear_part(x)."""
        return self.outer.compose(self.subspace_poly.to_poly()) + self.linear_part.to_poly()

    @cached_property
    def gcd_degree(self) -> int:
        """deg gcd(subspace_poly, linear_part) by rank-nullity: the common
        roots are the p^(dim V - dim linear_part(V)) members of the kernel V,
        the simple roots of subspace_poly, that linear_part sends to 0.  It
        is at least 1, and 1 is the permutation certificate's first condition."""
        return self.poly.field.p ** (self.kernel.dim - self.image_subspace.dim)

    @cached_property
    def coset_reps(self) -> tuple[Elt, ...]:
        """One canonical representative per coset of the kernel, zero first."""
        return coset_reps(self.kernel)

    @cached_property
    def image_subspace(self) -> Subspace:
        """W = linear_part(kernel), whose cosets the value-set theorem counts."""
        return subspace_image(self.linear_part, self.kernel)

    @cached_property
    def values(self) -> list[int]:
        """Codes of poly at every field element, in code order (read-only),
        by P = outer(S) + M: S and M are tabulated by linearity, and outer is
        evaluated once per distinct value of S, p^(n - dim kernel) points."""
        s_table = self.subspace_poly.values()
        points = list(dict.fromkeys(s_table))
        outer_at = dict(zip(points, self.outer.values_at(points)))
        add = self.poly.field.add
        return [add(outer_at[s], m)
                for s, m in zip(s_table, self.linear_part.values())]


@dataclass(frozen=True)
class PartialDecomposition:
    """Result of decomposing against a caller-chosen base polynomial.

    When ok is false, remainder witnesses the failed divisibility of the
    maximal subspace polynomial by the requested base.
    """
    ok: bool
    outer: Poly | None
    linear_part: LinearizedPoly | None
    remainder: Poly | None


def _maximal_subspace_poly(poly: Poly) -> tuple[LinearizedPoly, Subspace]:
    """Subspace polynomial and kernel V for an input already folded below
    degree q, by a verified fold of the bands from the lowest degree.

    Every band vanishes on V and has no constant term, so a degree-1 band
    proves V = {0} at once.  Otherwise h starts as gcd(smallest band,
    x^q - x), monic and squarefree, and only shrinks as bands are folded
    into it.  While h is not linearized, or does not split, the next band
    is folded (the smallest band is itself linearized, by the cocycle
    identity of the bands, so the first h always is).  Once it is, its
    roots V' are read off by F_p-linear algebra, and V' contains V.  V is
    closed under addition, so when every band not yet folded vanishes at
    V''s basis, V' = V; the first band that fails is folded, and each such
    round drops the dimension.  With every band folded h is the gcd of them
    all, so a non-linearized or non-splitting h then breaks an invariant.
    A constant residue satisfies the defining identity everywhere, so its
    kernel is the whole field."""
    field = poly.field
    rest = sorted((f for f in shift_expand(poly) if not f.is_zero()),
                  key=lambda f: f.degree, reverse=True)
    if not rest:
        return xq_minus_x_linearized(field), Subspace.full(field)
    h = rest.pop()
    if h.degree > 1:
        h = gcd_with_xq_minus_x(h)
    while h.degree != 1:
        sub_poly = is_linearized(h)
        if sub_poly is not None:
            ker = kernel(sub_poly)
            if field.p ** ker.dim == h.degree:
                basis = [v.code for v in ker.basis]
                failed = next((f for f in reversed(rest) if any(f.values_at(basis))), None)
                if failed is None:
                    return sub_poly, ker
                rest.remove(failed)
                h = poly_gcd(h, failed)
                continue
        if not rest:
            raise InvariantViolation(
                "gcd of the bands with x^q - x is not linearized" if sub_poly is None
                else "gcd of the bands with x^q - x does not split into distinct roots")
        h = poly_gcd(h, rest.pop())
    # c*x divides x^q - x: the kernel is trivial
    return LinearizedPoly.identity(field), Subspace(field, ())


def additive_kernel(poly: Poly, method: str = "gcd") -> Subspace:
    """Elements y for which P0(x+y) = P0(x) + P0(y) holds identically.

    The gcd method intersects the shift-expansion bands with x^q - x and
    reads the kernel off that gcd by F_p-linear algebra; brute tests the
    polynomial identity for every y.  Both yield the same subspace.
    """
    if poly.degree < 1:
        raise PreconditionError("additive kernel needs degree >= 1")
    poly = reduce_mod_xq_minus_x(poly)
    if method == "gcd":
        return _maximal_subspace_poly(poly)[1]
    if method != "brute":
        raise PreconditionError(f"unknown method {method!r}")
    field = poly.field
    base = poly - Poly.constant(field, poly.constant_term())
    good = []
    for y in field.elements():
        shifted = base.shift_arg(y)
        if shifted == base + Poly.constant(field, base.eval(y)):
            good.append(y)
    return Subspace(field, good)


def additive_index(poly: Poly) -> int:
    """n - dim(additive kernel); zero exactly for p-affine behaviour."""
    return poly.field.n - additive_kernel(poly).dim


def _split(poly: Poly, base_poly: Poly) -> tuple[Poly, LinearizedPoly]:
    """(outer, linear_part) with poly == outer(base_poly) + linear_part, read
    off the Euclidean digits of poly - poly(0); base_poly must divide the
    maximal subspace polynomial.  Against the base x (trivial kernel) the
    digits are the coefficients themselves, so outer is poly and the linear
    part vanishes."""
    field = poly.field
    if base_poly.degree == 1:
        return poly, LinearizedPoly(field, ())
    const = poly.constant_term()
    digits = expand_in_base(poly - Poly.constant(field, const), base_poly)
    linear_part = is_linearized(digits[0])
    if linear_part is None:
        raise InvariantViolation("zeroth digit of the expansion is not linearized")
    outer = _outer_codes(digits, const.code)
    if outer is None:
        raise InvariantViolation("higher digit of the expansion is not constant")
    return Poly._new(field, outer), linear_part


def maximal_decomposition(poly: Poly) -> AdditiveDecomposition:
    """Decompose against the largest admissible subspace polynomial.

    The Euclidean digits of poly - poly(0) in that base are necessarily
    constant above index zero with a linearized zeroth digit; observing
    anything else is a structural impossibility and raises
    InvariantViolation rather than being silently repaired.

    The result is memoised on poly, so later calls with the same object
    return the same decomposition with its cached tables.
    """
    dec = getattr(poly, "_decomposition", None)
    if dec is not None:
        return dec
    if poly.degree < 1:
        raise PreconditionError("decomposition needs degree >= 1")
    field = poly.field
    # a copy, not poly itself, for dec.poly and for the outer that _split
    # returns against a trivial kernel: poly -> dec -> poly would be a
    # reference cycle, and its q-entry value table would wait for the cyclic
    # collector instead of going with the last reference to poly
    reduced = Poly._new(field, reduce_mod_xq_minus_x(poly).codes)
    sub_poly, ker = _maximal_subspace_poly(reduced)
    outer, linear_part = _split(reduced, sub_poly.to_poly())
    dec = AdditiveDecomposition(
        poly=reduced,
        outer=outer,
        subspace_poly=sub_poly,
        linear_part=linear_part,
        index=field.n - ker.dim,
        kernel=ker,
    )
    poly._decomposition = dec
    return dec


def decompose_with(poly: Poly, base: LinearizedPoly) -> PartialDecomposition:
    """Attempt the splitting against a caller-supplied monic base dividing
    x^q - x; succeeds exactly when the base divides the maximal subspace
    polynomial."""
    if poly.degree < 1:
        raise PreconditionError("decomposition needs degree >= 1")
    require_splitting_monic(base)
    base_poly = base.to_poly()
    poly = reduce_mod_xq_minus_x(poly)
    maximal, _ = _maximal_subspace_poly(poly)
    remainder = maximal.to_poly() % base_poly
    if not remainder.is_zero():
        return PartialDecomposition(False, None, None, remainder)
    outer, linear_part = _split(poly, base_poly)
    return PartialDecomposition(True, outer, linear_part, Poly.zero(poly.field))


def multiplicative_index(poly: Poly) -> int:
    """(q-1)/s for s = gcd of (q-1) with all exponent gaps above the lowest
    term of poly - poly(0); a monomial has index 1."""
    if poly.degree < 1:
        raise PreconditionError("multiplicative index needs degree >= 1")
    field = poly.field
    exps = [e for e, c in enumerate(poly.codes) if c and e]
    low = exps[0]
    if len(exps) == 1:
        return 1
    s = field.q - 1
    for e in exps[1:]:
        s = int_gcd(s, e - low)
    return (field.q - 1) // s
