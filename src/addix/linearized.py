"""p-linearized polynomials, F_p-subspaces of GF(p^n) and their duality.

A linearized polynomial sum(a_i x^{p^i}) induces an F_p-linear map on the
field.  It holds the codes of its p-power coefficient vector on the core it
shares with Poly; lin_coeffs is a read-only Elt view.  Every F_p-subspace
has a monic linearized vanishing polynomial dividing x^q - x, and conversely
the kernel of such a polynomial is a subspace; both directions live here,
along with expansion in a polynomial base, composition quotients and
complements, linearized interpolation, coset representatives and image
subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .poly import CodeVector, Poly


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


class LinearizedPoly(CodeVector):
    """sum(lin_coeffs[i] * x^{p^i}); the zero map has an empty vector."""

    __slots__ = ()

    @classmethod
    def identity(cls, field):
        return cls._new(field, (1,))

    @property
    def lin_coeffs(self) -> tuple[Elt, ...]:
        """Coefficients of x, x^p, x^{p^2}, ... as elements."""
        return tuple(map(self.field.from_code, self.codes))

    @property
    def degree(self) -> int:
        """Degree as an ordinary polynomial: p^(top index); -1 if zero."""
        if not self.codes:
            return -1
        return self.field.p ** (len(self.codes) - 1)

    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    def is_separable(self) -> bool:
        """Nonzero coefficient at x itself, i.e. no repeated roots."""
        return bool(self.codes) and self.codes[0] != 0

    def eval(self, point: Elt) -> Elt:
        field = self.field
        add, mul, power, p = field.add, field.mul, field.pow, field.p
        acc = 0
        t = self._code(point)
        for c in self.codes:
            if c:
                acc = add(acc, mul(c, t))
            t = power(t, p)
        return field.from_code(acc)

    def to_poly(self) -> Poly:
        if not self.codes:
            return Poly.zero(self.field)
        p = self.field.p
        dense = [0] * (p ** (len(self.codes) - 1) + 1)
        for i, c in enumerate(self.codes):
            dense[p ** i] = c
        return Poly._new(self.field, dense)

    def compose(self, inner: "LinearizedPoly") -> "LinearizedPoly":
        """self(inner(x)), computed on p-power coefficients."""
        bc = self._operand(inner)
        field = self.field
        add, mul, power, p = field.add, field.mul, field.pow, field.p
        out = [0] * (len(self.codes) + len(bc) - 1)
        for s, a in enumerate(self.codes):
            if a:
                for j, b in enumerate(bc):
                    if b:
                        out[s + j] = add(out[s + j], mul(a, power(b, p ** s)))
        return LinearizedPoly._new(field, out)

    def frobenius_twist(self) -> "LinearizedPoly":
        """L(x)^p, again linearized: coefficients to the p, indices shifted."""
        field = self.field
        power, p = field.pow, field.p
        return LinearizedPoly._new(field, [0] + [power(c, p) for c in self.codes])

    def __repr__(self):
        return f"LinearizedPoly({self.field!r}, codes={list(self.codes)})"


def _frobenius_minus_x(field: Field, k: int) -> LinearizedPoly:
    """x^{p^k} - x on p-power coefficients."""
    codes = [0] * (k + 1)
    codes[0] = field.neg(1)
    codes[k] = 1
    return LinearizedPoly._new(field, codes)


def xq_minus_x_linearized(field: Field) -> LinearizedPoly:
    """x^q - x viewed on p-power coefficients."""
    return _frobenius_minus_x(field, field.n)


def is_linearized(poly: Poly) -> LinearizedPoly | None:
    """Linearized view of a dense polynomial, or None.

    Requires every monomial exponent to be a power of p and a zero constant
    term; the zero polynomial qualifies.
    """
    p = poly.field.p
    lin: dict[int, int] = {}
    for e, c in enumerate(poly.codes):
        if c == 0:
            continue
        if not _is_p_power_exp(e, p):
            return None
        lin[_p_power_index(e, p)] = c
    out = [0] * (max(lin) + 1 if lin else 0)
    for i, c in lin.items():
        out[i] = c
    return LinearizedPoly._new(poly.field, out)


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
        codes = [0]
        for b in self.basis:
            scaled = [field.mul(b.code, k) for k in range(field.p)]
            codes = [field.add(e, s) for s in scaled for e in codes]
        return [field.from_code(c) for c in sorted(codes)]

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
    outer = [0]
    for d in digits[1:]:
        if d.degree > 0:
            raise PreconditionError("inner polynomial does not divide target")
        outer.extend(d.codes or (0,))
    view = is_linearized(Poly._new(field, outer))
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
    add, mul, p = field.add, field.mul, field.p
    rows = [[field.pow(u.code, p ** i) for i in range(bound)] + [w.code]
            for u, w in pts]
    # Gaussian elimination over the big field
    for col in range(bound):
        piv = next((r for r in range(col, bound) if rows[r][col]), None)
        if piv is None:
            raise PreconditionError("singular linearized interpolation system")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [mul(v, inv) for v in rows[col]]
        for r in range(bound):
            if r != col and rows[r][col]:
                k = field.neg(rows[r][col])
                rows[r] = [add(a, mul(k, b)) for a, b in zip(rows[r], rows[col])]
    return LinearizedPoly._new(field, [row[bound] for row in rows])


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
    return kernel(_frobenius_minus_x(field, k))


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
