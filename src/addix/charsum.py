"""Multiplicative characters and character-sum bounds.

Characters are indexed against the canonical primitive element g:
eta_j(g^m) = exp(2*pi*i*j*m/(q-1)), extended by eta(0) = 0.  Sums are
accumulated in double precision; at the supported field sizes the rounding
error stays far below the integer-scale gaps between the bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd as int_gcd

from .decompose import maximal_decomposition
from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .linearized import Subspace
from .poly import Poly

_TOL = 1e-6


class MultChar:
    """Multiplicative character of index j in [0, q-2]; j = 0 is trivial."""

    __slots__ = ("field", "index", "order", "_roots")

    def __init__(self, field: Field, index: int):
        self.field = field
        self.index = index % (field.q - 1)
        self.order = (field.q - 1) // int_gcd(self.index, field.q - 1)
        self._roots = None

    def is_trivial(self) -> bool:
        return self.index == 0

    def _root_table(self):
        if self._roots is None:
            m = self.field.q - 1
            step = 2.0 * math.pi * self.index / m
            self._roots = [cmath.exp(1j * step * t) for t in range(m)]
        return self._roots

    def __call__(self, a: Elt) -> complex:
        if a.code == 0:
            return 0j
        return self._root_table()[self.field.dlog(a)]

    def __repr__(self):
        return f"MultChar({self.field!r}, {self.index})"


def char_sum(poly: Poly, chi: MultChar) -> complex:
    """sum over the field of chi(poly(x))."""
    total = 0j
    for v in map(poly.field.from_code, poly.values()):
        total += chi(v)
    return total


def char_sum_affine(chi: MultChar, shift: Elt, subspace: Subspace) -> tuple[complex, float]:
    """Sum of chi over the coset shift + subspace, with the proven bound
    p^min(dim, n/2); exceeding it is a fatal invariant violation."""
    if chi.is_trivial():
        raise PreconditionError("affine bound needs a nontrivial character")
    field = chi.field
    total = 0j
    for u in subspace.elements():
        total += chi(shift + u)
    bound = float(field.p ** min(subspace.dim, field.n / 2))
    if abs(total) > bound + _TOL:
        raise InvariantViolation(
            f"affine coset sum {abs(total):.6f} exceeds bound {bound:.6f} "
            f"(shift={shift.code}, dim={subspace.dim}, chi={chi.index})")
    return total, bound


@dataclass(frozen=True)
class CharSumReport:
    """Measured character sum of a polynomial against its bounds.

    image_dim is the dimension e of the image of the linear part on the
    kernel subspace; the additive bound p^(n-e+min(e, n/2)) always applies,
    Weil's (outer_degree * deg(subspace_poly) - 1) * sqrt(q) only when the
    polynomial is not a scaled perfect power, and beats q exactly in the
    regime e > n/2 (flagged as nontrivial_regime).
    """
    value: complex
    magnitude: float
    index: int
    image_dim: int
    outer_degree: int
    additive_bound: float
    weil_bound: float | None
    weil_applicable: bool
    trivial_bound: int
    nontrivial_regime: bool


def _power_coset_flag(field: Field, logs) -> bool:
    """Conservative scaled-perfect-power test on the discrete logs of the
    nonzero values: true when every one sits in a single coset of the r-th
    powers for some r | q-1, r > 1, i.e. when q-1 and all log gaps to the
    first value share a factor above 1."""
    if not logs:
        return True
    return int_gcd(field.q - 1, *(lg - logs[0] for lg in logs)) > 1


def bound_report(poly: Poly, chi: MultChar, *, decomposition=None,
                 values=None) -> CharSumReport:
    """Full bound comparison for one polynomial and one nontrivial character.

    decomposition and values (elements, in code order) let sweep drivers reuse
    work; the measured sum must respect the additive bound or
    InvariantViolation is raised with the counterexample.
    """
    if chi.is_trivial():
        raise PreconditionError("bound report needs a nontrivial character")
    field = poly.field
    if chi.field is not field and chi.field != field:
        raise PreconditionError("character and polynomial belong to different fields")
    n, p, q = field.n, field.p, field.q
    dec = decomposition if decomposition is not None else maximal_decomposition(poly)
    if values is None:
        values = map(field.from_code, dec.poly.values())
    logs = [field.dlog(v) for v in values if v.code]
    gd = dec.gcd_degree  # both share the root 0, so gd >= 1 and is a p-power
    m = 0
    t = gd
    while t > 1:
        t //= p
        m += 1
    if p ** m != gd:
        raise InvariantViolation("gcd of linearized polynomials has non-p-power degree")
    e = (n - dec.index) - m
    additive_bound = float(p ** (n - e + min(e, n / 2)))
    s = dec.outer.degree
    if s >= 1:
        weil_bound = (s * p ** (n - dec.index) - 1) * p ** (n / 2)
        weil_applicable = not _power_coset_flag(field, logs)
    else:
        weil_bound = None
        weil_applicable = False
    roots = chi._root_table()
    total = 0j
    for m in logs:
        total += roots[m]
    magnitude = abs(total)
    if magnitude > additive_bound + _TOL:
        raise InvariantViolation(
            f"character sum {magnitude:.6f} exceeds additive bound "
            f"{additive_bound:.6f} for chi={chi.index}, poly={poly!r}")
    return CharSumReport(
        value=total,
        magnitude=magnitude,
        index=dec.index,
        image_dim=e,
        outer_degree=s,
        additive_bound=additive_bound,
        weil_bound=weil_bound,
        weil_applicable=weil_applicable,
        trivial_bound=q,
        nontrivial_regime=e > n / 2,
    )
