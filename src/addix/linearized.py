"""p-linearized polynomials, F_p-subspaces of GF(p^n) and their duality.

A linearized polynomial sum(a_i x^{p^i}) induces an F_p-linear map on the
field.  It holds the codes of its p-power coefficient vector on the core it
shares with Poly; lin_coeffs is a read-only Elt view.  Its values come
from that core's one value scan, planned from its terms (p^i, a_i).  Every
F_p-subspace has a monic linearized vanishing polynomial dividing x^q - x,
and conversely the kernel of such a polynomial is a subspace, read by
restricted_kernel for any map F_p-linear on a subspace; both directions
live here, with expansion in a polynomial base, linearized interpolation
(poly._newton, growing its vanishing polynomial by vanishing_poly's step),
coset representatives and image subspaces, both returned as codes
(coset_reps, image_codes); basis, elements() and reduce are the Elt views.
Composition and its quotient share one twisted row on p-power
coefficients: L divides T exactly when T = N o L, and N comes by right
division with no dense polynomial.
Subspaces hold reduced echelon rows of codes from one Gaussian elimination
on (left, right) code pairs by the row kernel Field.sub_row: spans
eliminate generator codes, restricted_kernel eliminates (value, row) pairs
and spans the rows whose values clear to zero, with no Elt.  The canonical
coset representatives are the codes whose pivot digits are zero, read off
two tables by coset_keys (coset_key is its one-code case): reduce,
contains and coset_reps share that one rule.  Value tables, members,
representatives and key tables are spans of codes, by Field.span_codes.
"""

from __future__ import annotations

import itertools

from .errors import InvariantViolation, PreconditionError
from .field import Elt, Field
from .poly import CodeVector, Poly, _newton


def _twisted_row(field: Field, acc, s: int, c: int, codes) -> None:
    """acc[s + j] += c * codes[j]^(p^s) for each j, in place: the row that
    c x^{p^s} contributes to a composition with sum(codes[j] x^{p^j})."""
    add, mul, power, ps = field.add, field.mul, field.pow, field.p ** s
    for j, b in enumerate(codes):
        if b:
            acc[s + j] = add(acc[s + j], mul(c, power(b, ps)))


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

    def _terms(self):
        p = self.field.p
        return ((p ** i, c) for i, c in enumerate(self.codes))

    def eval(self, point: Elt) -> Elt:
        return Elt(self.field, next(self.values_at((self.field.code(point),))))

    def values(self) -> list[int]:
        """Codes of self at every field element, in code order, by linearity:
        the span of its values on the basis e_i = p^i, so the table costs
        q - 1 adds after n evaluations."""
        field = self.field
        return field.span_codes(self.values_at([field.p ** i for i in range(field.n)]))

    def to_poly(self) -> Poly:
        return Poly._from_terms(self.field, self._terms())

    def compose(self, inner: "LinearizedPoly") -> "LinearizedPoly":
        """self(inner(x)), computed on p-power coefficients."""
        bc = self._operand(inner)
        out = [0] * (len(self.codes) + len(bc) - 1)
        for s, a in enumerate(self.codes):
            _twisted_row(self.field, out, s, a, bc)
        return LinearizedPoly._new(self.field, out)

    def _adjoin(self, b: int, c: int) -> "LinearizedPoly":
        """(x^p - c^{p-1} x) o self, for c = self(b) nonzero: for self = V
        vanishing on a span, that of the span with b adjoined, as it maps
        V(x) -> V(x)^p - V(b)^{p-1} V(x), zero on V's roots and at b."""
        field = self.field
        step = LinearizedPoly._new(field, (field.neg(field.pow(c, field.p - 1)), 1))
        return step.compose(self)

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
    term; the zero polynomial qualifies.  The view reads the codes at the
    exponents p^i, so it holds every nonzero code exactly when poly qualifies.
    """
    codes, p = poly.codes, poly.field.p
    lin, e = [], 1
    while e < len(codes):
        lin.append(codes[e])
        e *= p
    if sum(map(bool, codes)) != sum(map(bool, lin)):
        return None
    return LinearizedPoly._new(poly.field, lin)


# ---------------------------------------------------------------------------
# F_p-subspaces, canonical reduced-echelon bases held as codes, and the one
# elimination on codes that builds them.


def _eliminate(field: Field, pairs, rows: list) -> list[tuple[int, int]]:
    """Gaussian elimination on (left, right) code pairs by their left codes.
    rows holds (pivot p^i, left, right) triples whose left codes have pivot
    digit 1 and zeros at the pivots of the rows before them.  Each pair has
    its left digit d at each pivot in turn cleared by subtracting d times
    the row (Field.sub_row; a zero right code is skipped), so a cleared
    digit stays cleared.  A pair left nonzero is appended to rows, scaled to
    digit 1 at its lowest nonzero digit, its pivot.  Returns the pairs as
    reduced, before scaling."""
    p, sub, out = field.p, field.sub_row, []
    for left, right in pairs:
        for piv, row_left, row_right in rows:
            d = left // piv % p
            if d:
                left = sub(left, d, row_left)
                if row_right:
                    right = sub(right, d, row_right)
        out.append((left, right))
        if left:
            piv = 1
            while left // piv % p == 0:
                piv *= p
            d = left // piv % p
            if d != 1:
                d = pow(d, -1, p)
                left, right = field.mul(left, d), field.mul(right, d)
            rows.append((piv, left, right))
    return out


class Subspace:
    """F_p-subspace of the field, held as a reduced echelon basis of codes.

    Each row is the code of a basis element whose lowest nonzero base-p
    digit, its pivot, is 1; every other row has digit 0 there, and rows
    ascend by pivot, so equal subspaces compare equal structurally.  Pivots
    are kept as the place values p^i of their digits.  The rows come from
    the one elimination on codes, of the generators that Subspace(field,
    elements) checks and unwraps, or of the codes given to _from_codes.
    """

    # _keys memoises the (low, high) tables of coset_keys, unset until first use
    __slots__ = ("field", "_rows", "_pivots", "_keys")

    def __init__(self, field: Field, generators=()):
        """Span of the generators; a dependent one is skipped."""
        self.field = field
        self._span(map(field.code, generators))

    @classmethod
    def _from_codes(cls, field: Field, codes) -> "Subspace":
        sub = cls.__new__(cls)
        sub.field = field
        sub._span(codes)
        return sub

    def _span(self, codes) -> None:
        echelon, rows = [], []
        _eliminate(self.field, ((c, 0) for c in codes), echelon)
        # again on its rows in reverse order, clearing each out of those after it
        _eliminate(self.field, ((row, 0) for _, row, _ in reversed(echelon)), rows)
        rows.sort()
        self._pivots = tuple(piv for piv, _, _ in rows)
        self._rows = tuple(row for _, row, _ in rows)

    @classmethod
    def full(cls, field):
        """The whole field: the unit codes p^i are already reduced echelon
        rows, each its own pivot, so no row needs clearing."""
        sub = cls.__new__(cls)
        sub.field = field
        sub._rows = sub._pivots = tuple(field.p ** i for i in range(field.n))
        return sub

    @property
    def rows(self) -> tuple[int, ...]:
        """The codes of the echelon rows, ascending by pivot."""
        return self._rows

    @property
    def basis(self) -> tuple[Elt, ...]:
        """The echelon rows as elements, ascending by pivot."""
        return tuple(map(self.field.from_code, self._rows))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return self.dim == self.field.n

    def reduce(self, v: Elt) -> Elt:
        """Canonical representative of v + self (pivot digits cleared)."""
        return self.field.from_code(self.coset_key(v))

    def coset_key(self, v: Elt) -> int:
        return self.coset_keys([self.field.code(v)])[0]

    def coset_keys(self, codes) -> list[int]:
        """The code of reduce(v) for each code v in codes, a list or set, in
        its order.  The key is F_p-linear, so with h = n // 2 a code v has the
        key low[v mod p^h] + high[v div p^h], the two tables being built once
        per subspace.  The zero subspace keys each code to itself."""
        field = self.field
        if not self._rows:
            return list(codes)
        split = field.p ** (field.n // 2)
        try:
            low, high = self._keys
        except AttributeError:
            low, high = self._keys = self._key_tables()
        return field.add_codes([low[v % split] for v in codes],
                               [high[v // split] for v in codes])

    def _key_tables(self) -> tuple[list[int], list[int]]:
        """The keys of the codes below p^h and of the multiples of p^h, the
        spans of the keys of the unit codes p^i below and above p^h.  A
        pivot's key is the pivot minus its row, whose other pivot digits are
        zero; every other unit code is its own key."""
        field = self.field
        minus = dict(zip(self._pivots, map(field.neg, self._rows)))
        units = [field.p ** i for i in range(field.n)]
        keys = field.add_codes(units, [minus.get(u, 0) for u in units])
        h = field.n // 2
        return field.span_codes(keys[:h]), field.span_codes(keys[h:])

    def contains(self, v: Elt) -> bool:
        return self.coset_key(v) == 0

    __contains__ = contains

    def elements(self) -> list[Elt]:
        """All p^dim members, ascending code order."""
        field = self.field
        return [field.from_code(c) for c in sorted(field.span_codes(self._rows))]

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return self._rows == other._rows and self.field == other.field
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"Subspace({self.field!r}, dim={self.dim}, basis_codes={list(self._rows)})"


def coset_reps(subspace: Subspace) -> tuple[int, ...]:
    """The codes of one representative per coset of the subspace, ascending,
    so the first is 0: the codes whose pivot digits are zero, which are the
    values of coset_key, spanned by the unit codes p^i that are not pivots."""
    field = subspace.field
    pivots = set(subspace._pivots)
    units = [w for w in (field.p ** i for i in range(field.n)) if w not in pivots]
    return tuple(field.span_codes(units))


def restricted_kernel(subspace: Subspace, values) -> Subspace:
    """The members of the subspace that a map sends to 0, given the codes of
    its values at the subspace's echelon rows, in order; the map must be
    F_p-linear on the subspace.

    The pairs (value, row) are eliminated on their left codes; the right
    codes of those whose left codes vanish span the kernel, by the same
    elimination: O(dim^2) code operations and no evaluation.
    """
    reduced = _eliminate(subspace.field, zip(values, subspace._rows), [])
    return Subspace._from_codes(subspace.field, [right for left, right in reduced if not left])


def kernel(linpoly: LinearizedPoly) -> Subspace:
    """Roots of a nonzero linearized polynomial inside the field: its
    restricted kernel on the whole field, from its n values on the
    coordinate basis e_i = p^i, not q evaluations."""
    if linpoly.is_zero():
        raise PreconditionError("kernel of the zero map is everything")
    full = Subspace.full(linpoly.field)
    return restricted_kernel(full, linpoly.values_at(full.rows))


def require_splitting_monic(base: LinearizedPoly) -> Subspace:
    """The kernel of base; PreconditionError unless base is monic and splits
    into distinct roots inside the field, i.e. divides x^q - x."""
    if not base.is_monic():
        raise PreconditionError("base must be monic")
    ker = kernel(base)
    if base.field.p ** ker.dim != base.degree:
        raise PreconditionError("base does not divide x^q - x")
    return ker


def vanishing_poly(subspace: Subspace) -> LinearizedPoly:
    """Monic linearized polynomial of degree p^dim whose roots are exactly
    the subspace, built by adjoining one echelon row at a time."""
    acc = LinearizedPoly.identity(subspace.field)
    for row in subspace._rows:
        c = next(acc.values_at((row,)))
        if not c:
            raise InvariantViolation("basis vector already annihilated during construction")
        acc = acc._adjoin(row, c)
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


def _outer_codes(digits, constant: int) -> list[int] | None:
    """Codes of the outer polynomial read off Euclidean digits: constant,
    then the code of each digit above index zero, or None when one of those
    digits is not constant."""
    outer = [constant]
    for d in digits[1:]:
        if d.degree > 0:
            return None
        outer.extend(d.codes or (0,))
    return outer


def compose_quotient(target, inner: LinearizedPoly) -> LinearizedPoly:
    """The linearized polynomial N with N(inner(x)) == target(x).

    inner must be separable and divide target; target must be linearized.
    Right division on p-power coefficients: with m the top index of inner,
    the top remaining index s + m fixes n_s, and the twisted row of
    n_s x^{p^s} o inner is subtracted; inner divides target when none remains.
    """
    if not inner.is_separable():
        raise PreconditionError("inner polynomial must be separable (nonzero x coefficient)")
    if not isinstance(target, LinearizedPoly):
        target = is_linearized(target)
        if target is None:
            raise PreconditionError("target is not linearized")
    field, ic = inner.field, inner.codes
    acc = list(inner._operand(target))
    m = len(ic) - 1
    quo = [0] * max(len(acc) - m, 0)
    for s in reversed(range(len(quo))):
        quo[s] = field.mul(acc[s + m], field.pow(ic[m], -field.p ** s))
        _twisted_row(field, acc, s, field.neg(quo[s]), ic)
    if any(acc):
        raise PreconditionError("inner polynomial does not divide target")
    return LinearizedPoly._new(field, quo)


def complement(linpoly: LinearizedPoly) -> LinearizedPoly:
    """The linearized polynomial C with C(L(x)) == x^q - x == L(C(x)).

    L must be monic, linearized, and divide x^q - x; both composition orders
    are verified exactly on p-power coefficients.
    """
    if not linpoly.is_monic():
        raise PreconditionError("complement needs a monic linearized polynomial")
    whole = xq_minus_x_linearized(linpoly.field)
    try:
        comp = compose_quotient(whole, linpoly)
    except PreconditionError:
        raise PreconditionError("polynomial does not divide x^q - x") from None
    if comp.compose(linpoly) != whole or linpoly.compose(comp) != whole:
        raise InvariantViolation("complement does not commute to x^q - x")
    return comp


def linearized_interpolate(field: Field, pairs) -> LinearizedPoly:
    """Unique sum(c_i x^{p^i}), i < #pairs, through the given (point, value)
    pairs; the points must be F_p-independent."""
    out = _newton(LinearizedPoly, field, [(field.code(u), field.code(w)) for u, w in pairs])
    if out is None:
        raise PreconditionError("singular linearized interpolation system")
    return out


def subspace_image(linmap: LinearizedPoly, subspace: Subspace) -> Subspace:
    """Image of the subspace under the linear map: its basis, mapped in one scan."""
    field = subspace.field.owns(linmap)
    return Subspace._from_codes(field, linmap.values_at(subspace._rows))


def image_codes(linmap: LinearizedPoly) -> list[int]:
    """The codes of every value of the linear map on the field, ascending:
    the span of its values on a basis, so no full-field scan is needed."""
    field = linmap.field
    return sorted(field.span_codes(subspace_image(linmap, Subspace.full(field)).rows))


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
    yield Subspace._from_codes(field, ())
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free_slots = [(i, j) for i, piv in enumerate(pivots)
                          for j in range(piv + 1, n) if j not in pivot_set]
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                rows = [p ** piv for piv in pivots]
                for (i, j), v in zip(free_slots, fill):
                    rows[i] += v * p ** j
                yield Subspace._from_codes(field, rows)
