"""Dense univariate polynomials over a Field.

Coefficients are stored constant-term first with no trailing zeros; the zero
polynomial is the empty vector and reports degree -1.  Includes Euclidean
division and monic gcd, composition, the additive shift expansion
P0(x+y) - P0(x) - P0(y) = sum_i F_i(y) x^i, Lagrange interpolation, and the
text grammar shared with the CLI.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError
from .field import Elt, Field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].code == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, value: Elt):
        return cls(field, (value,))

    @classmethod
    def monomial(cls, field, coeff: Elt, exp: int):
        if coeff.code == 0:
            return cls(field, ())
        return cls(field, (field.zero,) * exp + (coeff,))

    @classmethod
    def from_codes(cls, field, codes):
        return cls(field, tuple(field.from_code(c) for c in codes))

    # -- structure

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Elt:
        return self.coeffs[0] if self.coeffs else self.field.zero

    def leading(self) -> Elt:
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise PreconditionError("polynomials over different fields")

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, Elt):
            other = Poly.constant(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        if isinstance(other, Elt):
            other = Poly.constant(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if isinstance(other, Elt):
            if other.code == 0:
                return Poly(self.field, ())
            return Poly(self.field, tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.field, ())
        zero = self.field.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.code:
                for j, bj in enumerate(b):
                    if bj.code:
                        out[i + j] = out[i + j] + ai * bj
        return Poly(self.field, out)

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
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        db = other.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Poly(self.field, ()), self
        inv_lead = other.leading().inv()
        quo = [self.field.zero] * (len(rem) - db)
        bc = other.coeffs
        while len(rem) - 1 >= db and rem:
            shift = len(rem) - 1 - db
            factor = rem[-1] * inv_lead
            quo[shift] = factor
            neg = -factor
            for j, bj in enumerate(bc):
                if bj.code:
                    rem[shift + j] = rem[shift + j] + neg * bj
            while rem and rem[-1].code == 0:
                rem.pop()
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead.code == 1:
            return self
        return self * lead.inv()

    def eval(self, point: Elt) -> Elt:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x))."""
        if self.degree <= 0:
            return self
        acc = Poly.constant(self.field, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * inner + c
        return acc

    def shift_arg(self, offset: Elt) -> "Poly":
        """self(x + offset), by Horner in (x + offset)."""
        zero = self.field.zero
        out: list[Elt] = []
        for c in reversed(self.coeffs):
            prev = zero
            for i, v in enumerate(out):
                out[i] = prev + v * offset
                prev = v
            out.append(prev)
            out[0] = out[0] + c
        return Poly(self.field, out)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs and (self.field is other.field
                                                    or self.field == other.field)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(c.code for c in self.coeffs))

    def __repr__(self):
        return f"Poly({self.field!r}, {poly_to_str(self)!r})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def xq_minus_x(field: Field) -> Poly:
    """The dense field equation x^q - x.  Length q+1; use sparingly."""
    coeffs = [field.zero] * (field.q + 1)
    coeffs[1] = -field.one
    coeffs[field.q] = field.one
    return Poly(field, coeffs)


def pow_x_mod(modpoly: Poly, e: int) -> Poly:
    """x^e mod modpoly by repeated squaring; never materializes x^e."""
    if modpoly.degree < 1:
        raise PreconditionError("modulus must have degree >= 1")
    field = modpoly.field
    result = Poly.one(field) % modpoly
    base = Poly.x(field) % modpoly
    while e:
        if e & 1:
            result = (result * base) % modpoly
        base = (base * base) % modpoly
        e >>= 1
    return result


def gcd_with_xq_minus_x(a: Poly) -> Poly:
    """gcd(a, x^q - x), reducing x^q mod a first so q-length vectors never
    appear.  a must be nonzero."""
    if a.is_zero():
        raise PreconditionError("gcd_with_xq_minus_x needs a nonzero polynomial")
    field = a.field
    if a.degree == 0:
        return Poly.one(field)
    folded = pow_x_mod(a, field.q) - Poly.x(field)
    return poly_gcd(a, folded % a)


def reduce_mod_xq_minus_x(a: Poly) -> Poly:
    """Remainder of a modulo x^q - x: exponents e >= q fold to
    ((e - 1) mod (q - 1)) + 1.  Preserves the induced map on the field."""
    field = a.field
    q = field.q
    if a.degree < q:
        return a
    out = [field.zero] * q
    for e, c in enumerate(a.coeffs):
        if c.code:
            t = e if e < q else ((e - 1) % (q - 1)) + 1
            out[t] = out[t] + c
    return Poly(field, out)


# ---------------------------------------------------------------------------
# Binomial coefficients mod p (Lucas), with factorial tables per prime.

_fact_cache: dict[int, tuple[list[int], list[int]]] = {}


def _fact_tables(p: int):
    tabs = _fact_cache.get(p)
    if tabs is None:
        fact = [1] * p
        for i in range(2, p):
            fact[i] = fact[i - 1] * i % p
        inv = [pow(f, p - 2, p) if p > 1 else 1 for f in fact]
        tabs = (fact, inv)
        _fact_cache[p] = tabs
    return tabs


def binom_mod_p(m: int, r: int, p: int) -> int:
    if r < 0 or r > m:
        return 0
    fact, inv = _fact_tables(p)
    out = 1
    while m or r:
        a, b = m % p, r % p
        if b > a:
            return 0
        out = out * fact[a] % p * inv[b] % p * inv[a - b] % p
        m //= p
        r //= p
    return out


def shift_expand(poly: Poly) -> list[Poly]:
    """Polynomials F_1, ..., F_{d-1} with
    P0(x+y) - P0(x) - P0(y) = sum_{i=1}^{d-1} F_i(y) x^i for P0 = poly - poly(0).

    F_i(y) = sum_{t>=1} C(i+t, i) c_{i+t} y^t with binomials mod p; the
    constant term always cancels.  Constant input yields the empty list.
    """
    d = poly.degree
    if d < 1:
        return []
    field = poly.field
    p = field.p
    cs = poly.coeffs
    out = []
    for i in range(1, d):
        band = [field.zero]
        for t in range(1, d - i + 1):
            b = binom_mod_p(i + t, i, p)
            band.append(cs[i + t] * b if b else field.zero)
        out.append(Poly(field, band))
    return out


def lagrange_interpolate(field: Field, points) -> Poly:
    """Unique polynomial of degree < len(points) through the given
    (abscissa, value) pairs; abscissae must be distinct."""
    pts = list(points)
    if not pts:
        raise PreconditionError("interpolation needs at least one point")
    seen = set()
    for xv, _ in pts:
        if xv.code in seen:
            raise PreconditionError("duplicated interpolation abscissa")
        seen.add(xv.code)
    # full product W(x) = prod (x - x_j), then per-point synthetic division
    w = Poly.one(field)
    for xv, _ in pts:
        w = w * Poly(field, (-xv, field.one))
    acc = Poly.zero(field)
    for xv, yv in pts:
        if yv.code == 0:
            continue
        quotient = w // Poly(field, (-xv, field.one))
        denom = quotient.eval(xv)
        acc = acc + quotient * (yv * denom.inv())
    return acc


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


def _coeff_str(c: Elt) -> str:
    if c.code < c.field.p:
        return str(c.code)
    return f"[{c.code}]"


def poly_to_str(poly: Poly) -> str:
    """Canonical rendering; always re-parses to an equal polynomial."""
    if poly.is_zero():
        return "0"
    terms = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if c.code == 0:
            continue
        if e == 0:
            terms.append(_coeff_str(c))
            continue
        var = "x" if e == 1 else f"x^{e}"
        if c.code == 1:
            terms.append(var)
        else:
            terms.append(f"{_coeff_str(c)}*{var}")
    return " + ".join(terms)
