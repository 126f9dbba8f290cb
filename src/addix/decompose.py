"""Additive decomposition P(x) = outer(S(x)) + linear_part(x).

S is the largest monic linearized divisor of x^q - x for which such a
splitting exists, with deg(linear_part) < deg(S); the additive index counts
how far S falls short of x^q - x: deg(S) = p^(n - index).  The roots of S,
the additive kernel V, are the common zeros of the shift-expansion bands,
read by F_p-linear algebra: from the whole field, each band from the top
index down cuts the subspace so far to its kernel there, on which the bands
above make it linear, and S is the vanishing polynomial of what is left.
The bands come from poly.shift_bands on demand, as terms planned straight
into Field.horner at the subspace's rows, until the subspace is {0}.  outer
and linear_part are read off the digits of P - P(0) in base S.  gcd_degree
is read off the cached kernel V of S and image linear_part(V) by rank-nullity.
Also carries the classical multiplicative index for bound comparisons.  Inputs
of degree >= q are folded modulo x^q - x (reduce_mod_xq_minus_x) before kernel
computations, so the identity reported is for the reduced polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd as int_gcd

from .errors import InvariantViolation, PreconditionError
from .linearized import (LinearizedPoly, Subspace, _outer_codes, coset_reps,
                         expand_in_base, is_linearized, require_splitting_monic,
                         restricted_kernel, subspace_image, vanishing_poly,
                         xq_minus_x_linearized)
from .poly import Poly, reduce_mod_xq_minus_x, shift_bands


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
    def coset_reps(self) -> tuple[int, ...]:
        """Codes of one canonical representative per coset of the kernel, 0 first."""
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
        return self.poly.field.add_codes(map(outer_at.__getitem__, s_table),
                                         self.linear_part.values())


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
    degree q, by restricting the field band by band from the top index.

    V is the common zero set of the bands F_i.  Their cocycle identity,
    F_i(y + z) - F_i(y) - F_i(z) = sum over j > i of C(j, i) F_j(z) y^(j-i),
    makes F_i F_p-linear on any subspace U where every band above it
    vanishes.  So, from U = the field and the top index down, each band
    cuts U to its restricted kernel, read by F_p-linear algebra from its
    values at U's rows by one Horner plan of its terms, and the last U is V.
    Bands are pulled from shift_bands as the walk reaches them, none after
    U = {0}, and an empty one is skipped.  A band has no constant term, so
    one of top power 1 proves V = {0} at once.  A constant residue (no band)
    satisfies the defining identity everywhere."""
    field = poly.field
    ker = Subspace.full(field)
    for terms in shift_bands(poly):
        if terms and terms[-1][0] == 1:
            ker = Subspace(field, ())
        elif terms:
            values = list(field.horner(field.horner_plan(terms), ker.rows))
            if any(values):
                ker = restricted_kernel(ker, values)
        if not ker.dim:
            break
    if ker.is_full():
        return xq_minus_x_linearized(field), ker
    return vanishing_poly(ker), ker


def additive_kernel(poly: Poly, method: str = "gcd") -> Subspace:
    """Elements y for which P0(x+y) = P0(x) + P0(y) holds identically.

    The gcd method finds the roots of the gcd of the shift-expansion bands
    and x^q - x with no polynomial division: it cuts the field by each band
    in turn, from the top index down, by F_p-linear algebra.  brute tests
    the polynomial identity for every y.  Both yield the same subspace.
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
    codes = poly.codes or (0,)
    digits = expand_in_base(Poly._new(field, (0,) + codes[1:]), base_poly)
    linear_part = is_linearized(digits[0])
    if linear_part is None:
        raise InvariantViolation("zeroth digit of the expansion is not linearized")
    outer = _outer_codes(digits, codes[0])
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
