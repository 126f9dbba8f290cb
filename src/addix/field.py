"""Exact arithmetic in GF(p) and GF(p^n).

A field is fixed by a prime p, an extension degree n and a monic irreducible
modulus of degree n over F_p.  An element is its integer code
sum(c_i * p**i) over the coefficient vector (c_0, ..., c_{n-1}) of its
residue class; code 0 is the additive identity and code 1 the multiplicative
identity.  Arithmetic runs on codes through tables built once per field
beside a canonical primitive element g: exp/log serve mul, pow and inv, and
the Zech logarithm Z, defined by 1 + g^m = g^Z[m], turns addition into
g^a + g^b = g^(a + Z[b - a]) with one rule for every p.  The _fp_* helpers
on plain coefficient lists are the one F_p[x] arithmetic: they validate and
select the modulus, find the primitive element and build the exp table.
"""

from __future__ import annotations

import os
import threading

from .errors import ParseError, PreconditionError

HARD_MAX_Q = 1 << 20
_ELT_CACHE_MAX = 1 << 16


def size_cap() -> int:
    """Active cap on q.  ADDIX_MAX_Q may lower it, never raise it."""
    raw = os.environ.get("ADDIX_MAX_Q")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            return HARD_MAX_Q
        if cap > 0:
            return min(cap, HARD_MAX_Q)
    return HARD_MAX_Q


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _digits(code: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        code, r = divmod(code, p)
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# F_p[x] on plain int lists (ascending coefficients): the one F_p[x]/(m)
# arithmetic, behind the modulus, the primitive element and the exp table.

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_mod(a, b, p):
    a = list(a)
    _fp_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for j, bj in enumerate(b):
            a[shift + j] = (a[shift + j] - factor * bj) % p
        _fp_trim(a)
    return a


def _fp_gcd_degree(a, b, p):
    a, b = list(a), list(b)
    _fp_trim(a)
    _fp_trim(b)
    while b:
        a, b = b, _fp_mod(a, b, p)
    return len(a) - 1


def _fp_powmod(base, e, mod, p):
    result = [1]
    base = _fp_mod(base, mod, p)
    while e:
        if e & 1:
            result = _fp_mod(_fp_mul(result, base, p), mod, p)
        base = _fp_mod(_fp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _fp_is_irreducible(modulus, p):
    """Monic degree-n modulus is irreducible iff it shares no factor with
    x^{p^i} - x for any i <= n/2 (those products cover every irreducible of
    degree <= n/2, and a reducible monic degree-n poly must have one)."""
    n = len(modulus) - 1
    if n == 1:
        return True
    u = [0, 1]
    for _ in range(n // 2):
        u = _fp_powmod(u, p, modulus, p)
        diff = list(u)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        if _fp_gcd_degree(modulus, _fp_trim(diff), p) != 0:
            return False
    return True


# ---------------------------------------------------------------------------


class Elt:
    """Immutable element of a Field, held as its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: "Field", code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{n-1}) of the code."""
        f = self.field
        return _digits(self.code, f.p, f.n)

    def _coerce(self, other):
        if isinstance(other, Elt):
            if other.field is not self.field and other.field != self.field:
                raise PreconditionError("operands belong to different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.code, other.code
        if a == 0:
            return other
        if b == 0:
            return self
        f = self.field
        f._ensure_tables()
        log = f._log
        la = log[a]
        z = f._zech[(log[b] - la) % (f.q - 1)]
        if z < 0:
            return f.zero
        return f.from_code(f._exp[(la + z) % (f.q - 1)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self * (self.field.p - 1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        a, b = self.code, other.code
        if a == 0 or b == 0:
            return f.zero
        f._ensure_tables()
        return f.from_code(f._exp[(f._log[a] + f._log[b]) % (f.q - 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        if self.code == 0:
            if e == 0:
                return f.one
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.zero
        f._ensure_tables()
        return f.from_code(f._exp[(f._log[self.code] * e) % (f.q - 1)])

    def inv(self) -> "Elt":
        if self.code == 0:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        f._ensure_tables()
        return f.from_code(f._exp[(-f._log[self.code]) % (f.q - 1)])

    def frobenius(self) -> "Elt":
        """a -> a^p."""
        return self ** self.field.p

    def __eq__(self, other):
        if isinstance(other, Elt):
            return self.code == other.code and (self.field is other.field
                                                or self.field == other.field)
        return NotImplemented

    def __hash__(self):
        return hash((self.code, self.field.p, self.field.modulus))

    def __bool__(self):
        return self.code != 0

    def __int__(self):
        return self.code

    def __repr__(self):
        return f"<{self.code} in {self.field!r}>"


class Field:
    """GF(p^n) realized as F_p[x]/(modulus), with canonical element codes."""

    __slots__ = ("p", "n", "q", "modulus", "primitive",
                 "_elts", "_exp", "_log", "_zech", "_lock", "_zero", "_one")

    def __init__(self, p: int, n: int, modulus=None):
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"characteristic must be prime, got {p}")
        if p > (1 << 16):
            raise PreconditionError("characteristic above 2^16 not supported")
        if not isinstance(n, int) or n < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        cap = size_cap()
        if q > cap:
            raise PreconditionError(f"field size {q} exceeds cap {cap}")
        self.p = p
        self.n = n
        self.q = q

        if modulus is None:
            self.modulus = self._scan_modulus(p, n, q)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != n + 1 or mod[-1] != 1:
                raise PreconditionError("modulus must be monic of degree n")
            if not _fp_is_irreducible(list(mod), p):
                raise PreconditionError("supplied modulus is reducible")
            self.modulus = mod

        self._elts = None
        self._exp = None
        self._log = None
        self._zech = None
        self._lock = threading.Lock()
        self._zero = Elt(self, 0)
        self._one = Elt(self, 1)
        self.primitive = self.from_code(self._scan_primitive())

    @staticmethod
    def _scan_modulus(p, n, q):
        # smallest low-part code sum(c_i p^i) whose monic lift is irreducible
        for code in range(q):
            cand = list(_digits(code, p, n)) + [1]
            if _fp_is_irreducible(cand, p):
                return tuple(cand)
        raise PreconditionError("no irreducible modulus found")  # unreachable

    def _scan_primitive(self) -> int:
        q, p, n = self.q, self.p, self.n
        mod = list(self.modulus)
        cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
        for code in range(1, q):
            a = _fp_trim(list(_digits(code, p, n)))
            if all(_fp_powmod(a, e, mod, p) != [1] for e in cofactors):
                return code
        raise PreconditionError("no primitive element found")  # unreachable

    def _ensure_tables(self):
        """Build exp, log and Zech tables on first use.  _exp is assigned
        last: readers test it without the lock."""
        if self._exp is not None:
            return
        with self._lock:
            if self._exp is not None:
                return
            q, p = self.q, self.p
            mod = list(self.modulus)
            g = _fp_trim(list(self.primitive.coeffs))
            exp = [0] * (q - 1)
            log = [0] * q
            log[0] = -1
            acc = [1]
            for m in range(q - 1):
                code = 0
                for c in reversed(acc):
                    code = code * p + c
                exp[m] = code
                log[code] = m
                acc = _fp_mod(_fp_mul(acc, g, p), mod, p)
            # 1 + g^m adds 1 to the constant digit; log[0] = -1 marks 1 + g^m = 0
            zech = [log[c - c % p + (c + 1) % p] for c in exp]
            self._log = log
            self._zech = zech
            self._exp = exp

    # -- element construction

    def from_code(self, code: int) -> Elt:
        if not 0 <= code < self.q:
            raise PreconditionError(f"element code {code} out of range [0, {self.q})")
        cache = self._elts
        if cache is not None:
            return cache[code]
        if self.q <= _ELT_CACHE_MAX:
            return self.elements()[code]
        return Elt(self, code)

    def from_coeffs(self, coeffs) -> Elt:
        p = self.p
        cs = [int(c) % p for c in coeffs]
        if len(cs) > self.n:
            raise PreconditionError("coefficient vector longer than extension degree")
        code = 0
        for c in reversed(cs):
            code = code * p + c
        return self.from_code(code)

    def from_int(self, k: int) -> Elt:
        """Prime-subfield scalar k mod p."""
        return self.from_code(k % self.p)

    @property
    def zero(self) -> Elt:
        return self._zero

    @property
    def one(self) -> Elt:
        return self._one

    def elements(self) -> tuple[Elt, ...]:
        """All q elements in ascending code order; index 0 is zero."""
        if self._elts is None:
            with self._lock:
                if self._elts is None:
                    self._elts = tuple(Elt(self, c) for c in range(self.q))
        return self._elts

    def dlog(self, a: Elt) -> int:
        """Exponent m in [0, q-2] with primitive**m == a; a must be nonzero."""
        if a.code == 0:
            raise PreconditionError("discrete log of zero is undefined")
        self._ensure_tables()
        return self._log[a.code]

    def __eq__(self, other):
        if isinstance(other, Field):
            return self.p == other.p and self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"


def parse_field_spec(text: str) -> Field:
    """Field spec grammar: "p^n" or "p^n/c0,c1,...,cn" (constant term first).

    Grammar violations raise ParseError; a well-formed spec naming an
    unsupported field (composite p, reducible modulus, size over the cap)
    raises PreconditionError.
    """
    text = text.strip()
    modulus = None
    if "/" in text:
        text, _, tail = text.partition("/")
        try:
            modulus = [int(tok) for tok in tail.split(",")]
        except ValueError:
            raise ParseError(f"bad modulus coefficients: {tail!r}") from None
    if "^" in text:
        head, _, deg = text.partition("^")
    else:
        head, deg = text, "1"
    try:
        p, n = int(head), int(deg)
    except ValueError:
        raise ParseError(f"bad field spec: {text!r}") from None
    if modulus is not None and len(modulus) != n + 1:
        raise ParseError(f"modulus needs {n + 1} coefficients, got {len(modulus)}")
    return Field(p, n, modulus)
