"""Multiplicative characters and character-sum bounds.

Characters are indexed against the canonical primitive element g:
eta_j(g^m) = exp(2*pi*i*j*m/(q-1)), extended by eta(0) = 0.  Sums are
accumulated in double precision; at the supported field sizes the rounding
error stays far below the integer-scale gaps between the bounds.

char_sum, MultChar and char_sum_affine apply the character value by value
and are the oracle.  bound_report takes e in the additive bound to be the
decomposition's image_subspace.dim, and works from a value profile kept
on the decomposition: the dlog histogram H of the nonzero values, read
off the field's log table, so that S_j = sum_m H[m] * exp(2*pi*i*j*m/(q-1)),
and every report field that does not depend on the character.  Its first
report sums H directly; from the second on, S_j for every j comes from one
length-(q-1) DFT of H, taken by Bluestein's chirp-z reduction (jm = (j^2 +
m^2 - (j-m)^2)/2) to a cyclic convolution of power-of-two length
L >= 2q - 3, which a standard-library radix-2 FFT computes in O(q log q).
Everything of that transform that depends on q alone (the chirp, the
transform of its conjugate kernel and the twiddles of both signs) is one
plan per length, kept in a small bounded cache, so a polynomial's spectrum
takes two FFTs: H times the chirp forward, and the product back.  The
stated FFT error margin is 8 * eps * w * sqrt(L) * log2(L), with w = sum H
and eps the double epsilon: at least 18x the largest |FFT - direct|
measured on one-bin, few-bin, flat and random histograms at every q <= 4096
(p <= 13) and at 2^16, where it is about 7e-7, below _TOL.  A transform
magnitude within that margin of the violation threshold additive_bound +
_TOL, or above it, is recomputed by the direct sum before the verdict, so
_TOL never has to widen.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
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
        if not self.field.code(a):
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


def _fft(x: list, roots: list) -> list:
    """y_k = sum_t x_t * exp(sign*2*pi*i*k*t/L) for len(x) = L a power of
    two, roots holding exp(sign*2*pi*i*k/L) for k < L/2: iterative radix-2
    in Stockham order, ping-ponging between x, which is overwritten, and one
    other buffer.  Before each pass y holds the L/s sub-transforms of
    x[r::s] interleaved, y[k*s + r] = F_r[k]; the pass joins F_r and
    F_(r+h), h = s/2, into the transform of x[r::h], slicing along
    whichever of the k and r axes is longer."""
    size = len(x)
    y, z = x, [0j] * size
    m, h = 1, size // 2
    while h:
        s = 2 * h
        tw = roots[::h]  # exp(sign*2*pi*i*k/(2m)), k < m
        if h >= m:
            for k in range(m):
                lo = k * s
                even = y[lo:lo + h]
                wk = tw[k]
                odd = [wk * v for v in y[lo + h:lo + s]]
                z[k * h:(k + 1) * h] = [a + b for a, b in zip(even, odd)]
                z[(k + m) * h:(k + m + 1) * h] = [a - b for a, b in zip(even, odd)]
        else:
            for r in range(h):
                even = y[r::s]
                odd = [w * v for w, v in zip(tw, y[r + h::s])]
                z[r:m * h:h] = [a + b for a, b in zip(even, odd)]
                z[m * h + r::h] = [a - b for a, b in zip(even, odd)]
        y, z = z, y
        m *= 2
        h //= 2
    return y


def _transform_size(n: int) -> int:
    """Power-of-two length L >= 2n - 1 of the Bluestein convolution."""
    return 1 << (2 * n - 2).bit_length()


class _Plan:
    """What a length-n Bluestein transform needs that depends on n alone:
    the convolution length L, the chirp w_k = exp(i*pi*k^2/n) for k < n,
    its phase taken from k^2 mod 2n so that it stays exact at every k, the
    twiddles of the forward (sign -1) and inverse (sign +1) FFTs of length
    L, and the forward FFT of the conjugate-chirp kernel.  Every caller of
    a length shares its plan, so nothing writes to these lists once built."""

    __slots__ = ("size", "chirp", "forward", "inverse", "kernel")

    def __init__(self, n: int):
        size = _transform_size(n)
        self.size = size
        self.chirp = [cmath.exp(1j * math.pi * (k * k % (2 * n)) / n) for k in range(n)]
        self.forward, self.inverse = (
            [cmath.exp(sign * 2j * math.pi * k / size) for k in range(size // 2)]
            for sign in (-1, 1))
        b = [w.conjugate() for w in self.chirp]
        self.kernel = _fft(b + [0j] * (size - 2 * n + 1) + b[:0:-1], self.forward)


@functools.lru_cache(maxsize=4)
def _plan(n: int) -> _Plan:
    """The transform plan of length n, built once per length.  Only the
    last four lengths are kept: a plan holds about 2.5L complex numbers, so
    at q = 2^16 (L = 2^17) one plan is about 14 MB."""
    return _Plan(n)


def _spectrum(hist: list[int]) -> list[complex]:
    """S_j = sum_m hist[m] * exp(2*pi*i*j*m/N) for every j < N = len(hist),
    by Bluestein: with w_k the plan's chirp, S_j = w_j * sum_m
    (hist[m]*w_m) * conj(w_(j-m)), a cyclic convolution of length L, taken
    as the forward FFT of hist times the chirp, multiplied by the plan's
    kernel transform and transformed back."""
    plan = _plan(len(hist))
    size = plan.size
    conv = _fft([c * w for c, w in zip(hist, plan.chirp)] + [0j] * (size - len(hist)),
                plan.forward)
    for i, v in enumerate(plan.kernel):  # in place: no third work array
        conv[i] *= v
    conv = _fft(conv, plan.inverse)
    scale = 1.0 / size
    return [w * c * scale for w, c in zip(plan.chirp, conv)]


def _direct_sum(hist: list[int], j: int) -> complex:
    """S_j summed over the occupied bins of the histogram, each part
    correctly rounded (fsum), so at q = 2^16 it is no coarser than the FFT."""
    n = len(hist)
    step = 2.0 * math.pi / n
    terms = [c * cmath.exp(1j * step * (j * m % n)) for m, c in enumerate(hist) if c]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


class _ValueProfile:
    """What every character's report shares for one list of values: the
    snapshot it was built from (None for the polynomial's own values), the
    dlog histogram of the nonzero values, the FFT error margin, the
    violation threshold, the report fields that do not depend on the
    character (shared, in field order) and the spectrum, built at the
    second report."""

    __slots__ = ("key", "hist", "margin", "limit", "shared", "reports", "spectrum")

    def __init__(self, field: Field, key, hist: list[int], dec):
        self.key = key
        self.hist = hist
        size = _transform_size(len(hist))
        self.margin = (8 * sys.float_info.epsilon * sum(hist)
                       * math.sqrt(size) * math.log2(size))
        n, p = field.n, field.p
        e = dec.image_subspace.dim
        additive_bound = float(p ** (n - e + min(e, n / 2)))
        s = dec.outer.degree
        if s >= 1:
            weil_bound = (s * p ** (n - dec.index) - 1) * p ** (n / 2)
            weil_applicable = not _power_coset_flag(
                field, [m for m, c in enumerate(hist) if c])
        else:
            weil_bound = None
            weil_applicable = False
        self.limit = additive_bound + _TOL
        self.shared = dict(
            index=dec.index,
            image_dim=e,
            outer_degree=s,
            additive_bound=additive_bound,
            weil_bound=weil_bound,
            weil_applicable=weil_applicable,
            trivial_bound=field.q,
            nontrivial_regime=e > n / 2,
        )
        self.reports = 0
        self.spectrum = None

    def value(self, j: int) -> complex:
        """S_j: summed directly at the first report, else read off the
        spectrum unless |S_j| reaches the limit minus the FFT margin."""
        self.reports += 1
        if self.reports == 1:
            return _direct_sum(self.hist, j)
        if self.spectrum is None:
            self.spectrum = _spectrum(self.hist)
        total = self.spectrum[j]
        if abs(total) >= self.limit - self.margin:
            return _direct_sum(self.hist, j)
        return total


def _value_profile(field: Field, dec, values) -> _ValueProfile:
    """The profile memoised on the decomposition, rebuilt whenever values
    differ from its snapshot (None stands for the decomposition's value
    table, dec.values, whose codes go through Field.dlogs; given values go
    through Field.dlog, which refuses another field's)."""
    key = None if values is None else tuple(values)
    if key is not None and len(key) != field.q:
        raise PreconditionError(f"values must list q = {field.q} elements, got {len(key)}")
    profile = dec.__dict__.get("_value_profile")
    if profile is None or profile.key != key:
        hist = [0] * (field.q - 1)
        if key is None:
            for m in field.dlogs(dec.values):
                hist[m] += 1
        else:
            for v in key:
                if v.code:
                    hist[field.dlog(v)] += 1
        profile = _ValueProfile(field, key, hist, dec)
        dec.__dict__["_value_profile"] = profile
    return profile


def bound_report(poly: Poly, chi: MultChar, *, decomposition=None,
                 values=None) -> CharSumReport:
    """Full bound comparison for one polynomial and one nontrivial character.

    A decomposition passed in must be poly's, or PreconditionError is
    raised; it carries the value profile from report to report, so a sweep
    over every character takes one transform.  values, when given, stands
    in for the polynomial's values (exactly q elements, else
    PreconditionError) and the profile follows it.
    The measured sum must respect the additive bound or InvariantViolation
    is raised with the counterexample.
    """
    if chi.is_trivial():
        raise PreconditionError("bound report needs a nontrivial character")
    field = poly.field.owns(chi)
    dec = decomposition if decomposition is not None else maximal_decomposition(poly)
    if not dec.decomposes(poly):
        raise PreconditionError("decomposition belongs to another polynomial")
    profile = _value_profile(field, dec, values)
    total = profile.value(chi.index)
    magnitude = abs(total)
    if magnitude > profile.limit:
        raise InvariantViolation(
            f"character sum {magnitude:.6f} exceeds additive bound "
            f"{profile.shared['additive_bound']:.6f} for chi={chi.index}, poly={poly!r}")
    # a frozen dataclass built without its ten object.__setattr__ calls
    report = object.__new__(CharSumReport)
    report.__dict__.update(value=total, magnitude=magnitude)
    report.__dict__.update(profile.shared)
    return report
