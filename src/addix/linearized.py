"""p-linearized polynomials, F_p-subspaces of GF(p^n) and their duality.

A linearized polynomial sum(a_i x^{p^i}) is stored by its p-power coefficient
vector and induces an F_p-linear map on the field.  Every F_p-subspace has a
monic linearized vanishing polynomial dividing x^q - x, and conversely the
kernel of such a polynomial is a subspace; both directions live here, along
with expansion in a polynomial base, composition quotients and complements,
linearized interpolation, coset representatives and image subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .poly import Poly


def _is_p_power_exp(e: int, p: int) -> bool:
    if e < 1:
        return False
    while e % p == 0:
        e //= p
    return e == 1


def _p_power_index(e: int, p: int) -> int:
    i = 0
    while e > 1:
        e //= p
        i += 1
    return i


class LinearizedPoly:
    """sum(lin_coeffs[i] * x^{p^i}); the zero map has an empty vector."""

    __slots__ = ("field", "lin_coeffs")

    def __init__(self, field: Field, lin_coeffs=()):
        cs = list(lin_coeffs)
        while cs and cs[-1].code == 0:
            cs.pop()
        self.field = field
        self.lin_coeffs = tuple(cs)

    @classmethod
    def identity(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def from_codes(cls, field, codes):
        return cls(field, tuple(field.from_code(c) for c in codes))

    def is_zero(self) -> bool:
        return not self.lin_coeffs

    @property
    def degree(self) -> int:
        """Degree as an ordinary polynomial: p^(top index); -1 if zero."""
        if not self.lin_coeffs:
            return -1
        return self.field.p ** (len(self.lin_coeffs) - 1)

    def is_monic(self) -> bool:
        return bool(self.lin_coeffs) and self.lin_coeffs[-1].code == 1

    def is_separable(self) -> bool:
        """Nonzero coefficient at x itself, i.e. no repeated roots."""
        return bool(self.lin_coeffs) and self.lin_coeffs[0].code != 0

    def eval(self, point: Elt) -> Elt:
        acc = self.field.zero
        t = point
        p = self.field.p
        for c in self.lin_coeffs:
            if c.code:
                acc = acc + c * t
            t = t ** p
        return acc

    def to_poly(self) -> Poly:
        if not self.lin_coeffs:
            return Poly.zero(self.field)
        p = self.field.p
        top = p ** (len(self.lin_coeffs) - 1)
        dense = [self.field.zero] * (top + 1)
        for i, c in enumerate(self.lin_coeffs):
            dense[p ** i] = c
        return Poly(self.field, dense)

    def compose(self, inner: "LinearizedPoly") -> "LinearizedPoly":
        """self(inner(x)), computed on p-power coefficients."""
        if self.is_zero() or inner.is_zero():
            return LinearizedPoly(self.field, ())
        field = self.field
        p = field.p
        out = [field.zero] * (len(self.lin_coeffs) + len(inner.lin_coeffs) - 1)
        for s, a in enumerate(self.lin_coeffs):
            if a.code:
                for j, b in enumerate(inner.lin_coeffs):
                    if b.code:
                        out[s + j] = out[s + j] + a * (b ** (p ** s))
        return LinearizedPoly(field, out)

    def frobenius_twist(self) -> "LinearizedPoly":
        """L(x)^p, again linearized: coefficients to the p, indices shifted."""
        field = self.field
        p = field.p
        return LinearizedPoly(field,
                              (field.zero,) + tuple(c ** p for c in self.lin_coeffs))

    def __add__(self, other):
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        a, b = self.lin_coeffs, other.lin_coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return LinearizedPoly(self.field, out)

    def __sub__(self, other):
        if not isinstance(other, LinearizedPoly):
            return NotImplemented
        return self + LinearizedPoly(self.field, tuple(-c for c in other.lin_coeffs))

    def scale(self, k: Elt) -> "LinearizedPoly":
        return LinearizedPoly(self.field, tuple(c * k for c in self.lin_coeffs))

    def __eq__(self, other):
        if isinstance(other, LinearizedPoly):
            return self.lin_coeffs == other.lin_coeffs and self.field == other.field
        return NotImplemented

    def __hash__(self):
        return hash(tuple(c.code for c in self.lin_coeffs))

    def __repr__(self):
        return f"LinearizedPoly({self.field!r}, codes={[c.code for c in self.lin_coeffs]})"


def xq_minus_x_linearized(field: Field) -> LinearizedPoly:
    """x^q - x viewed on p-power coefficients."""
    coeffs = [field.zero] * (field.n + 1)
    coeffs[0] = -field.one
    coeffs[field.n] = field.one
    return LinearizedPoly(field, coeffs)


def is_linearized(poly: Poly) -> LinearizedPoly | None:
    """Linearized view of a dense polynomial, or None.

    Requires every monomial exponent to be a power of p and a zero constant
    term; the zero polynomial qualifies.
    """
    field = poly.field
    p = field.p
    lin: dict[int, Elt] = {}
    for e, c in enumerate(poly.coeffs):
        if c.code == 0:
            continue
        if not _is_p_power_exp(e, p):
            return None
        lin[_p_power_index(e, p)] = c
    if not lin:
        return LinearizedPoly(field, ())
    out = [field.zero] * (max(lin) + 1)
    for i, c in lin.items():
        out[i] = c
    return LinearizedPoly(field, out)


# ---------------------------------------------------------------------------
# F_p-subspaces, canonical reduced-echelon bases.


def _reduce(vec: list[int], rows, pivots, p: int) -> list[int]:
    """Clear vec's entries at the pivots of echelon rows whose pivot entries
    are 1, in place; vec is returned for chaining."""
    for row, piv in zip(rows, pivots):
        k = vec[piv]
        if k:
            for j, r in enumerate(row):
                vec[j] = (vec[j] - k * r) % p
    return vec


def _insert(vec: list[int], rows, pivots, p: int, width: int) -> bool:
    """Reduce vec in place against the echelon rows; unless its first
    `width` entries then vanish, append it as a new row with its pivot entry
    scaled to 1.  Returns whether a row was added."""
    _reduce(vec, rows, pivots, p)
    piv = next((j for j in range(width) if vec[j]), None)
    if piv is None:
        return False
    inv = pow(vec[piv], p - 2, p)
    rows.append([(v * inv) % p for v in vec])
    pivots.append(piv)
    return True


class Subspace:
    """F_p-subspace of the field, held as a reduced echelon basis.

    Rows are coefficient vectors with ascending pivot positions, pivot entries
    normalized to 1 and pivot columns cleared elsewhere, so equal subspaces
    compare equal structurally.
    """

    __slots__ = ("field", "_rows", "_pivots", "basis")

    def __init__(self, field: Field, generators=(), *, strict: bool = False):
        rows: list[list[int]] = []
        pivots: list[int] = []
        p = field.p
        dependent = False
        for g in generators:
            if not _insert(list(g.coeffs), rows, pivots, p, field.n):
                dependent = True
                continue
            for row in rows[:-1]:
                _reduce(row, rows[-1:], pivots[-1:], p)
        if strict and dependent:
            raise PreconditionError("generators are linearly dependent over F_p")
        order = sorted(range(len(rows)), key=lambda i: pivots[i])
        self.field = field
        self._rows = tuple(tuple(rows[i]) for i in order)
        self._pivots = tuple(pivots[i] for i in order)
        self.basis = tuple(field.from_coeffs(r) for r in self._rows)

    @classmethod
    def full(cls, field):
        gens = [field.from_code(field.p ** i) for i in range(field.n)]
        return cls(field, gens)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return self.dim == self.field.n

    def reduce(self, v: Elt) -> Elt:
        """Canonical representative of v + self (pivot coordinates cleared)."""
        vec = _reduce(list(v.coeffs), self._rows, self._pivots, self.field.p)
        return self.field.from_coeffs(vec)

    def coset_key(self, v: Elt) -> int:
        return self.reduce(v).code

    def contains(self, v: Elt) -> bool:
        return self.reduce(v).code == 0

    __contains__ = contains

    def elements(self) -> list[Elt]:
        """All p^dim members, ascending code order."""
        field = self.field
        out = [field.zero]
        for b in self.basis:
            scaled = [b * k for k in range(1, field.p)]
            out = [e + s for s in [field.zero] + scaled for e in out]
        out.sort(key=lambda e: e.code)
        return out

    def complementary_basis(self) -> list[Elt]:
        """Greedy smallest-code elements extending self to the whole field."""
        field = self.field
        rows = [list(r) for r in self._rows]
        pivots = list(self._pivots)
        p = field.p
        out = []
        code = 1
        while len(rows) < field.n:
            v = field.from_code(code)
            if _insert(list(v.coeffs), rows, pivots, p, field.n):
                out.append(v)
            code += 1
        return out

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return self._rows == other._rows and self.field == other.field
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"Subspace({self.field!r}, dim={self.dim}, basis_codes={[b.code for b in self.basis]})"


@dataclass(frozen=True)
class CosetDecomposition:
    """Partition of the field into translates of a subspace.

    reps holds one representative per coset: the F_p-span of the canonical
    complementary basis, sorted by code, so reps[0] is always zero.
    """
    subspace: Subspace
    reps: tuple[Elt, ...]


def coset_reps(subspace: Subspace) -> CosetDecomposition:
    comp = Subspace(subspace.field, subspace.complementary_basis())
    return CosetDecomposition(subspace, tuple(comp.elements()))


def kernel(linpoly: LinearizedPoly) -> Subspace:
    """Roots of a nonzero linearized polynomial inside the field: the
    F_p-nullspace of its matrix on the coordinate basis e_i = p^i.

    The rows [digits of L(e_i) | e_i] are eliminated on their left halves;
    the right halves of the rows whose left halves vanish span the kernel.
    That costs n evaluations and O(n^2) digit operations, not q evaluations.
    """
    if linpoly.is_zero():
        raise PreconditionError("kernel of the zero map is everything")
    field = linpoly.field
    n, p = field.n, field.p
    rows: list[list[int]] = []
    pivots: list[int] = []
    zeros = []
    for i in range(n):
        vec = list(linpoly.eval(field.from_code(p ** i)).coeffs) + [0] * n
        vec[n + i] = 1
        if not _insert(vec, rows, pivots, p, n):
            zeros.append(field.from_coeffs(vec[n:]))
    return Subspace(field, zeros)


def require_splitting_monic(base: LinearizedPoly):
    """Raise PreconditionError unless base is monic and splits into distinct
    roots inside the field, i.e. divides x^q - x."""
    if not base.is_monic():
        raise PreconditionError("base must be monic")
    if base.field.p ** kernel(base).dim != base.degree:
        raise PreconditionError("base does not divide x^q - x")


def vanishing_poly(subspace: Subspace) -> LinearizedPoly:
    """Monic linearized polynomial of degree p^dim whose roots are exactly
    the subspace.  Built incrementally: adjoining a basis vector b maps
    V(x) -> V(x)^p - V(b)^{p-1} V(x)."""
    field = subspace.field
    acc = LinearizedPoly.identity(field)
    pm1 = field.p - 1
    for b in subspace.basis:
        vb = acc.eval(b)
        if vb.code == 0:
            raise InvariantViolation("basis vector already annihilated during construction")
        acc = acc.frobenius_twist() - acc.scale(vb ** pm1)
    return acc


def expand_in_base(poly: Poly, base: Poly) -> list[Poly]:
    """Euclidean digits: poly = sum digits[i] * base^i with deg(digit) < deg(base)."""
    if base.degree < 1:
        raise PreconditionError("expansion base must have degree >= 1")
    digits = []
    cur = poly
    while True:
        cur, rem = divmod(cur, base)
        digits.append(rem)
        if cur.is_zero():
            break
    return digits


def compose_quotient(target, inner: LinearizedPoly) -> LinearizedPoly:
    """The linearized polynomial N with N(inner(x)) == target(x).

    inner must be separable and divide target; target must be linearized.
    Computed from the Euclidean digits of target in base inner: the zeroth
    digit must vanish and every higher digit must be constant.
    """
    field = inner.field
    if not inner.is_separable():
        raise PreconditionError("inner polynomial must be separable (nonzero x coefficient)")
    if isinstance(target, LinearizedPoly):
        target_poly = target.to_poly()
    else:
        target_poly = target
        if is_linearized(target_poly) is None:
            raise PreconditionError("target is not linearized")
    digits = expand_in_base(target_poly, inner.to_poly())
    if not digits[0].is_zero():
        raise PreconditionError("inner polynomial does not divide target")
    outer = [field.zero]
    for d in digits[1:]:
        if d.degree > 0:
            raise PreconditionError("inner polynomial does not divide target")
        outer.append(d.constant_term())
    view = is_linearized(Poly(field, outer))
    if view is None:
        raise InvariantViolation("composition quotient of linearized inputs is not linearized")
    return view


def complement(linpoly: LinearizedPoly) -> LinearizedPoly:
    """The linearized polynomial C with C(L(x)) == x^q - x == L(C(x)).

    L must be monic, linearized, and divide x^q - x; both composition orders
    are verified exactly on p-power coefficients.
    """
    field = linpoly.field
    if not linpoly.is_monic():
        raise PreconditionError("complement needs a monic linearized polynomial")
    whole = xq_minus_x_linearized(field)
    try:
        comp = compose_quotient(whole, linpoly)
    except PreconditionError:
        raise PreconditionError("polynomial does not divide x^q - x") from None
    if comp.compose(linpoly) != whole or linpoly.compose(comp) != whole:
        raise InvariantViolation("complement does not commute to x^q - x")
    return comp


def linearized_interpolate(field: Field, pairs, bound: int) -> LinearizedPoly:
    """Unique sum(c_i x^{p^i}), i < bound, through the given (point, value)
    pairs; the points must be F_p-independent and #pairs == bound."""
    pts = list(pairs)
    if len(pts) != bound:
        raise PreconditionError("need exactly `bound` interpolation pairs")
    if bound == 0:
        return LinearizedPoly(field, ())
    p = field.p
    rows = []
    for u, w in pts:
        row = []
        t = u
        for _ in range(bound):
            row.append(t)
            t = t ** p
        row.append(w)
        rows.append(row)
    # Gaussian elimination over the big field
    for col in range(bound):
        piv = next((r for r in range(col, bound) if rows[r][col].code), None)
        if piv is None:
            raise PreconditionError("singular linearized interpolation system")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col].inv()
        rows[col] = [v * inv for v in rows[col]]
        for r in range(bound):
            if r != col and rows[r][col].code:
                k = rows[r][col]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[col])]
    return LinearizedPoly(field, tuple(rows[i][bound] for i in range(bound)))


def subspace_image(linmap: LinearizedPoly, subspace: Subspace) -> Subspace:
    """Image of the subspace under the linear map."""
    return Subspace(subspace.field, [linmap.eval(b) for b in subspace.basis])


def image_elements(linmap: LinearizedPoly) -> list[Elt]:
    """Every value of the linear map on the field, ascending code order: the
    span of its values on a basis, so no full-field scan is needed."""
    return subspace_image(linmap, Subspace.full(linmap.field)).elements()


def subfield(field: Field, k: int) -> Subspace:
    """Fixed points of the k-fold Frobenius: the subfield GF(p^gcd(k, n)),
    read as the kernel of x^{p^k} - x."""
    k %= field.n
    if k == 0:
        return Subspace.full(field)
    coeffs = [field.zero] * (k + 1)
    coeffs[0] = -field.one
    coeffs[k] = field.one
    return kernel(LinearizedPoly(field, coeffs))


def all_subspaces(field: Field):
    """Every F_p-subspace, by enumerating reduced-echelon bases."""
    n, p = field.n, field.p
    yield Subspace(field, ())
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free_slots = [(i, j) for i, piv in enumerate(pivots)
                          for j in range(piv + 1, n) if j not in pivot_set]
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(d)]
                for i, piv in enumerate(pivots):
                    rows[i][piv] = 1
                for (i, j), v in zip(free_slots, fill):
                    rows[i][j] = v
                yield Subspace(field, [field.from_coeffs(r) for r in rows])
