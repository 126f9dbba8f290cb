"""Dense univariate polynomials over a Field.

Coefficients are stored as element codes, constant-term first with no
trailing zeros; the zero polynomial is the empty vector and reports degree
-1.  Inner loops run on codes, the hot ones (evaluation, division and
products) as fused kernels of Field; Elt is the API boundary (constructors
take Elt sequences, coeffs is a read-only Elt view).  Field.horner is the one
Horner kernel: values_at plans a vector of either kind once from its nonzero
terms, and the bands F_i of P0(x+y) - P0(x) - P0(y) = sum_i F_i(y) x^i come
on demand from the top index (shift_bands) as the terms they are planned
from; shift_expand is their dense view.  Also Euclidean division and monic
gcd, composition (shift_arg composes with x + offset), the CLI's text
grammar and _newton, the one interpolation loop of both kinds, on codes.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ParseError, PreconditionError
from .field import Elt, Field


class CodeVector:
    """Coefficient vector over one field as a tuple of element codes with no
    trailing zeros: the core Poly and LinearizedPoly share for construction,
    the additive group, scaling, equality, hashing and evaluation."""

    # _plan memoises the horner_plan of values_at, unset until first use
    __slots__ = ("field", "codes", "_plan")

    def __init__(self, field: Field, coeffs=()):
        self.field = field
        self._set(field, list(map(field.code, coeffs)))

    def _set(self, field, codes):
        end = len(codes)
        while end and not codes[end - 1]:
            end -= 1
        self.field = field
        self.codes = tuple(codes[:end])

    @classmethod
    def _new(cls, field, codes):
        """Instance over codes already known to be in range."""
        obj = cls.__new__(cls)
        obj._set(field, codes)
        return obj

    @classmethod
    def _from_terms(cls, field, terms):
        """Instance of the (exponent, code) terms, ascending by exponent."""
        codes = []
        for e, c in terms:
            codes.extend([0] * (e - len(codes)) + [c])
        return cls._new(field, codes)

    @classmethod
    def from_codes(cls, field, codes):
        """Instance over codes, each range-checked by Field.check_code."""
        return cls._new(field, list(map(field.check_code, codes)))

    def is_zero(self) -> bool:
        return not self.codes

    def _operand(self, other):
        """Codes of a same-kind operand over the same field, or None."""
        if not isinstance(other, type(self)):
            return None
        if other.field is not self.field:
            self.field.owns(other)
        return other.codes

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.codes
        if len(a) < len(b):
            a, b = b, a
        return self._new(self.field, self.field.add_codes(a, b) + list(a[len(b):]))

    def __sub__(self, other):
        if self._operand(other) is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return self._new(self.field, [neg(c) for c in self.codes])

    def scale(self, k: Elt):
        """Every coefficient times k."""
        mul, k = self.field.mul, self.field.code(k)
        return self._new(self.field, [mul(c, k) for c in self.codes])

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.codes == other.codes and (self.field is other.field
                                                  or self.field == other.field)
        return NotImplemented

    def __hash__(self):
        return hash(self.codes)

    def values_at(self, points):
        """Codes of self at each code in points, by Field.horner over the
        nonzero (exponent, code) terms that each kind lists in _terms, so
        cost follows the terms, not the degree.  The plan is built once per
        vector.  Lazy: a scan that decides early stops early."""
        try:
            plan = self._plan
        except AttributeError:
            plan = self._plan = self.field.horner_plan(self._terms())
        return self.field.horner(plan, points)


class Poly(CodeVector):
    # Memo of this immutable object, unset until first use: the
    # AdditiveDecomposition that decompose.maximal_decomposition returns.
    __slots__ = ("_decomposition",)

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls._new(field, ())

    @classmethod
    def one(cls, field):
        return cls._new(field, (1,))

    @classmethod
    def x(cls, field):
        return cls._new(field, (0, 1))

    @classmethod
    def constant(cls, field, value: Elt):
        return cls(field, (value,))

    @classmethod
    def monomial(cls, field, coeff: Elt, exp: int):
        if exp < 0:
            raise PreconditionError("monomial exponent must be nonnegative")
        return cls._new(field, (0,) * exp + cls.constant(field, coeff).codes)

    # -- structure

    @property
    def coeffs(self) -> tuple[Elt, ...]:
        """Coefficients as elements, constant term first."""
        return tuple(map(self.field.from_code, self.codes))

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.codes) - 1

    def constant_term(self) -> Elt:
        return self.field.from_code(self.codes[0] if self.codes else 0)

    def leading(self) -> Elt:
        if not self.codes:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.field.from_code(self.codes[-1])

    def _operand(self, other):
        if isinstance(other, Elt):
            return (self.field.code(other),)
        return super()._operand(other)

    # -- ring operations

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if isinstance(other, Elt):
            return self.scale(other)
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return Poly._new(self.field, self.field.mul_codes(self.codes, b))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        bc = self._operand(other)
        if not bc:
            raise ZeroDivisionError("division by zero polynomial")
        quo, rem = self.field.divmod_codes(self.codes, bc)
        return Poly._new(self.field, quo), Poly._new(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.codes[-1] == 1:
            return self
        return self.scale(self.leading().inv())

    def _terms(self):
        return enumerate(self.codes)

    def eval(self, point: Elt) -> Elt:
        return Elt(self.field, next(self.values_at((self.field.code(point),))))

    def values(self):
        """Codes of self at every field element, in code order (lazy)."""
        return self.values_at(range(self.field.q))

    def _adjoin(self, x: int, wx: int) -> "Poly":
        """self * (X - x), vanishing at x as well: _newton's step."""
        return Poly._new(self.field, self.field.mul_codes(self.codes, (self.field.neg(x), 1)))

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x))."""
        if self.degree <= 0:
            return self
        field = self.field
        add, ic = field.add, self._operand(inner)
        acc = [self.codes[-1]]
        for c in reversed(self.codes[:-1]):
            acc = field.mul_codes(acc, ic) or [0]
            acc[0] = add(acc[0], c)
        return Poly._new(field, acc)

    def shift_arg(self, offset: Elt) -> "Poly":
        """self(x + offset)."""
        return self.compose(Poly.x(self.field) + offset)

    def __repr__(self):
        return f"Poly({self.field!r}, {poly_to_str(self)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def reduce_mod_xq_minus_x(a: Poly) -> Poly:
    """Remainder of a modulo x^q - x: exponents e >= q fold to
    ((e - 1) mod (q - 1)) + 1.  Preserves the induced map on the field."""
    field = a.field
    q = field.q
    if a.degree < q:
        return a
    add = field.add
    out = [0] * q
    for e, c in enumerate(a.codes):
        if c:
            t = e if e < q else ((e - 1) % (q - 1)) + 1
            out[t] = add(out[t], c)
    return Poly._new(field, out)


def _lucas_terms(e: int, p: int) -> tuple[tuple[int, int], ...]:
    """(i, C(e, i) mod p) for the 0 < i < e with C(e, i) nonzero mod p,
    ascending in i.  By Lucas's theorem C(e, i) mod p is the product of the
    binomials of the base-p digits of e and i, nonzero exactly when no digit
    of i exceeds the matching digit of e; the terms are built digit by
    digit, lowest first."""
    terms, rest, weight = [(0, 1)], e, 1
    while rest:
        rest, digit = divmod(rest, p)
        if digit:
            row = [1]   # C(digit, k), k = 0 .. digit, by a running product
            for k in range(digit):
                row.append(row[-1] * (digit - k) // (k + 1))
            terms = [(i + k * weight, b * r % p)
                     for k, r in enumerate(row) for i, b in terms]
        weight *= p
    # ascending, so i = 0 comes first and i = e last
    return tuple(terms[1:-1])


# The Lucas terms of the exponents below _LUCAS_CACHE_SIZE are cached on
# (e, p), in as many entries.  An entry for e holds prod(digit + 1) - 2 < e
# pairs over e's base-p digits, so at most 254, and the cache under 65,000
# pairs at any mix of primes.  A decompose benchmark cycle (degree <= 96)
# reads 54 keys 282 times, in 3.8-4.1 ms in process with the cache against
# 4.7-5.0 ms without.  Higher exponents, met only at degree 256 and up, are
# built afresh: their entries would hold up to 2^popcount(e) pairs at p = 2.
_LUCAS_CACHE_SIZE = 256
_cached_lucas_terms = lru_cache(maxsize=_LUCAS_CACHE_SIZE)(_lucas_terms)


def shift_bands(poly: Poly):
    """The bands of shift_expand on demand, F_(d-1) first and F_1 last,
    each as its nonzero (power, code) terms ascending by power, the terms
    Field.horner_plan takes.  The nonzero c_e are read in descending e, and
    band i takes terms only from exponents above i, so F_i is yielded as
    soon as e = i + 1 has been read: a caller that stops after F_i reads no
    exponent below i + 1.  Each (i, t) comes from the single e = i + t, at
    the i that _lucas_terms(e, p) lists, so the cost follows the nonzero
    terms and their digits, not d^2.  A band with no terms is yielded
    empty, so the k-th band yielded is F_(d-k).
    """
    p, mul = poly.field.p, poly.field.mul
    pending = {}
    for e in range(poly.degree, 1, -1):
        if c := poly.codes[e]:
            terms = _cached_lucas_terms(e, p) if e < _LUCAS_CACHE_SIZE else _lucas_terms(e, p)
            for i, b in terms:
                # a binomial mod p is a prime-subfield scalar: its own code
                pending.setdefault(i, []).append((e - i, c if b == 1 else mul(c, b)))
        yield pending.pop(e - 1, [])[::-1]


def shift_expand(poly: Poly) -> list[Poly]:
    """Polynomials F_1, ..., F_{d-1} with
    P0(x+y) - P0(x) - P0(y) = sum_{i=1}^{d-1} F_i(y) x^i for P0 = poly - poly(0).

    F_i(y) = sum_{t>=1} C(i+t, i) c_{i+t} y^t: the bands of shift_bands,
    each as a Poly, in index order.  Constant input yields the empty list."""
    return [Poly._from_terms(poly.field, terms) for terms in shift_bands(poly)][::-1]


def _newton(kind, field: Field, pairs):
    """The interpolant of kind, Poly or LinearizedPoly, through (point,
    value) code pairs by Newton's rule, or None at a point x with w(x) = 0.

    With w vanishing on the points so far, acc + w * (y - acc(x)) / w(x)
    keeps every earlier value and takes y at x; then w._adjoin makes w
    vanish at x too.  w starts as the codes (1,): 1 as a Poly, x as a
    LinearizedPoly.  w(x) is zero exactly when x repeats a point or, for
    the linearized kind, lies in the F_p-span of the points before it."""
    add, mul, neg = field.add, field.mul, field.neg
    acc, w = kind._new(field, ()), kind._new(field, (1,))
    for x, y in pairs:
        wx = next(w.values_at((x,)))
        if not wx:
            return None
        k = mul(add(y, neg(next(acc.values_at((x,))))), field.inv(wx))
        acc = acc + kind._new(field, [mul(c, k) for c in w.codes])
        w = w._adjoin(x, wx)
    return acc


def lagrange_interpolate(field: Field, points) -> Poly:
    """Unique polynomial of degree < len(points) through the given
    (abscissa, value) pairs; abscissae must be distinct."""
    pts = [(field.code(x), field.code(y)) for x, y in points]
    if not pts:
        raise PreconditionError("interpolation needs at least one point")
    out = _newton(Poly, field, pts)
    if out is None:
        raise PreconditionError("duplicated interpolation abscissa")
    return out


# ---------------------------------------------------------------------------
# Text grammar.
#
#   expr    := ['+'|'-'] term (('+'|'-') term)*
#   term    := factor ('*' factor)*
#   factor  := atom ('^' uint)?
#   atom    := '(' expr ')' | 'x' | '[' uint ']' | uint | 'a' uint?
#
# Bare integers are prime-subfield scalars (mod p); '[k]' is the element of
# code k; 'a' is the residue class of the defining generator, with 'a3' and
# 'a^3' both meaning its cube.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(a\d*)|(x)|(\[)|(\])|(\()|(\))|(\^)|(\*)|(\+)|(-))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected character at {text[pos:]!r}")
        pos = m.end()
        groups = m.groups()
        if groups[0] is not None:
            out.append(("num", int(groups[0])))
        elif groups[1] is not None:
            out.append(("gen", int(groups[1][1:]) if len(groups[1]) > 1 else 1))
        elif groups[2] is not None:
            out.append(("x", None))
        else:
            for sym, g in zip("[]()^*+-", groups[3:]):
                if g is not None:
                    out.append((sym, None))
                    break
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, field: Field):
        self.toks = tokens
        self.i = 0
        self.field = field

    def peek(self):
        return self.toks[self.i][0]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}")
        self.i += 1
        return tok

    def expr(self) -> Poly:
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer")
            return base ** val
        return base

    def atom(self) -> Poly:
        kind, val = self.take()
        field = self.field
        if kind == "num":
            return Poly.constant(field, field.from_int(val))
        if kind == "x":
            return Poly.x(field)
        if kind == "gen":
            if field.n == 1:
                raise ParseError("generator symbol 'a' needs an extension field")
            gen = field.from_code(field.p)
            return Poly.constant(field, gen ** val)
        if kind == "[":
            k, code = self.take()
            if k != "num":
                raise ParseError("expected element code inside brackets")
            self.take("]")
            if not 0 <= code < field.q:
                raise ParseError(f"element code {code} out of range")
            return Poly.constant(field, field.from_code(code))
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def parse_poly(text: str, field: Field) -> Poly:
    parser = _Parser(_tokenize(text), field)
    result = parser.expr()
    parser.take("end")
    return result


def _coeff_str(code: int, p: int) -> str:
    if code < p:
        return str(code)
    return f"[{code}]"


def poly_to_str(poly: Poly) -> str:
    """Canonical rendering; always re-parses to an equal polynomial."""
    if poly.is_zero():
        return "0"
    p = poly.field.p
    terms = []
    for e in range(poly.degree, -1, -1):
        c = poly.codes[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(_coeff_str(c, p))
            continue
        var = "x" if e == 1 else f"x^{e}"
        if c == 1:
            terms.append(var)
        else:
            terms.append(f"{_coeff_str(c, p)}*{var}")
    return " + ".join(terms)
