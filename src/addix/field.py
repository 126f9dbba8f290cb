"""Exact arithmetic in GF(p) and GF(p^n).

A field is fixed by a prime p, an extension degree n and a monic irreducible
modulus of degree n over F_p.  An element is its integer code
sum(c_i * p**i) over the coefficient vector (c_0, ..., c_{n-1}) of its
residue class; code 0 is the additive identity and code 1 the multiplicative
identity.  Field.add/neg/mul/inv/pow are the one arithmetic on codes,
through tables built when the field is constructed, beside a canonical
primitive element g: exp/log serve mul, pow and inv, and the Zech logarithm Z,
defined by 1 + g^m = g^Z[m], turns addition into g^a + g^b = g^(a + Z[b - a])
with one rule for every p.  The fused kernels on code vectors are part of
that one arithmetic: value scans planned from (exponent, code) terms, so
dense and linearized polynomials share them (horner_plan, horner), an XOR
of term values at p = 2 and Horner on logs at odd p, and one
multiply-add row shared by long division and the schoolbook product
(divmod_codes, mul_codes) run whole loops on discrete logs with the same
tables, and dlogs reads codes' discrete logs off them, so no module but this
one reads them.  The addition kernels join them: sums of code vectors
(add_codes), the F_p-span of generator codes (span_codes), from which value
tables, subspace members and coset tables are read, code - d * row, the row
operation of every echelon elimination and, at d = p - 1, of add (sub_row),
and the row test f(x + u) = f(x) + v on a value table (translates) that
the brute additive kernel and the translator check share.  Codes are
F_p-digit vectors, so at p = 2 their sum is XOR; that choice is made here
and nowhere else, and odd p keeps the Zech rule inlined.
Polynomials, subspaces and internal results hold codes; Elt is the API
boundary, built only where a caller reads elements, and its operators
delegate here.  owns and code are the one same-field rule: owns refuses an
operand over another field, by identity first and equality after, and code
unwraps an element of this field.  A constructed Field is immutable and holds
every table, so no arithmetic builds or guards state.  There is no element
cache: a field builds zero, one and its primitive element, and from_code a
fresh Elt.  The _fp_* helpers on plain coefficient lists are the one F_p[x]
arithmetic: they validate and select the modulus, find the primitive element
and give the n columns g * x^i of the map a -> g * a, from which the tables
are read.
"""

from __future__ import annotations

import itertools
import os

from .errors import ParseError, PreconditionError

HARD_MAX_Q = 1 << 20


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


def _digit_shift(c: int, p: int, k: int) -> list[int]:
    """Codes of x + c, digit by digit mod p, at each code x below p^k: p
    blocks of the entries below p^i, digit i set to (j + c_i) mod p in
    block j."""
    out = [0]
    for i, d in enumerate(_digits(c, p, k)):
        unit = p ** i
        out = [t + (j + d) % p * unit for j in range(p) for t in out]
    return out


# ---------------------------------------------------------------------------
# F_p[x] on plain int lists (ascending coefficients): the one F_p[x]/(m)
# arithmetic, behind the modulus, the primitive element and the columns of
# the map a -> g * a.

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
            if other.field is not self.field:
                self.field.owns(other)
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        return Elt(f, f.add(self.code, other.code))

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
        f = self.field
        return Elt(f, f.neg(self.code))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        return Elt(f, f.mul(self.code, other.code))

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
        return Elt(f, f.pow(self.code, e))

    def inv(self) -> "Elt":
        return self ** -1

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

    __slots__ = ("p", "n", "q", "modulus", "zero", "one", "primitive",
                 "_exp", "_log", "_zech")

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

        self.zero = Elt(self, 0)
        self.one = Elt(self, 1)
        self.primitive = Elt(self, self._scan_primitive())
        self._exp, self._log, self._zech = self._tables()

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

    def _tables(self):
        """(exp, log, Zech) tables.  a -> g * a is F_p-linear on digit
        vectors, so its table T is the F_p-span of the columns g * x^i in
        span_codes' layout, each block one column added by _digit_shift
        tables of the low h and high n - h digits; exp is the walk from 1 by
        T and log its inverse.  T, and so the tables, hold the int objects
        of ints, one per value: q int objects in all, not 2q."""
        q, p, n = self.q, self.p, self.n
        mod = list(self.modulus)
        g = _fp_trim(list(self.primitive.coeffs))
        h = n // 2
        split = p ** h
        ints = list(range(q))
        table = [0]
        for i in range(n):
            column = _fp_mod(_fp_mul([0] * i + [1], g, p), mod, p)  # g * x^i
            column = sum(c * p ** j for j, c in enumerate(column))
            low = _digit_shift(column % split, p, h)
            high = [split * c for c in _digit_shift(column // split, p, n - h)]
            size = len(table)
            for _ in range(p - 1):
                table += [ints[low[a % split] + high[a // split]] for a in table[-size:]]
        exp = [0] * (q - 1)
        log = [0] * q
        log[0] = -1
        code = 1
        for m in itertools.islice(ints, q - 1):
            exp[m] = code
            log[code] = m
            code = table[code]
        del table, ints
        # 1 + g^m adds 1 to the constant digit; log[0] = -1 marks 1 + g^m = 0
        zech = [log[c - c % p + (c + 1) % p] for c in exp]
        return exp, log, zech

    # -- arithmetic on codes

    def add(self, a: int, b: int) -> int:
        """Code of a + b = a - (p - 1) * b, by the row kernel sub_row."""
        return self.sub_row(a, self.p - 1, b) if b else a

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        log = self._log
        return self._exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- fused kernels on code vectors
    #
    # Inside these loops an element is its discrete log, with -1 (the log
    # table's own entry for code 0) marking zero: a product is a sum of logs
    # and a sum is one Zech lookup, g^a + g^b = g^(a + Z[b - a]), so no step
    # calls add or mul.  Logs are reduced mod q - 1; Z[b - a] reads a
    # negative difference from the end of the table, which is Z at b - a
    # mod q - 1.  The one exception is horner at p = 2, whose sum is a code:
    # the XOR of term values read off exp.

    def horner_plan(self, terms) -> tuple:
        """Scan plan of sum(c x^e) over terms, (e, c) pairs ascending by
        exponent, holding one pair per nonzero term, so a polynomial's cost
        is its nonzero terms, not its degree.  At p = 2: (value at 0, terms),
        terms holding (e, log c) for each nonzero c x^e with e > 0.
        At odd p, a log-domain Horner plan: (value at 0, low, log of the
        leading coefficient, steps), steps holding one (gap, log c) pair per
        lower nonzero term c x^e, descending, gap being the distance in
        exponent from the term before, and low the lowest exponent with a
        nonzero coefficient.  The pairs are held in a list: as tuples of
        every length they would outlive their polynomials in the
        interpreter's per-length tuple free lists, raising peak memory."""
        log = self._log
        terms = [(e, c) for e, c in terms if c]
        if self.p == 2:
            at_zero = terms.pop(0)[1] if terms and not terms[0][0] else 0
            return at_zero, [(e, log[c]) for e, c in terms]
        terms = terms[::-1] or [(0, 0)]
        steps = [(high - e, log[c]) for (high, _), (e, c) in zip(terms, terms[1:])]
        low, last = terms[-1]
        return (last if low == 0 else 0), low, log[terms[0][1]], steps

    def horner(self, plan, points):
        """Codes of the planned polynomial at each code in points, q points
        costing q * (nonzero terms) steps.  At p = 2 a sum of codes is their
        XOR, so a nonzero x gets the value at 0 XOR exp[lc + e * log x] (mod
        q - 1) over the terms, each step one table read with no Zech lookup
        and no zero test.  At odd p the accumulator is a log: acc * x^gap is
        la + gap * lx and acc + c is la + Z[lc - la].  A generator, so a
        scan that decides early stops early."""
        exp, log, zech, m = self._exp, self._log, self._zech, self.q - 1
        if self.p == 2:
            at_zero, steps = plan
            for x in points:
                v = at_zero
                if x:
                    lx = log[x]
                    for e, lc in steps:
                        v ^= exp[(lc + e * lx) % m]
                yield v
            return
        at_zero, low, lead, steps = plan
        for x in points:
            if not x:
                yield at_zero
                continue
            lx = log[x]
            la = lead
            for gap, lc in steps:
                if la < 0:
                    la = lc
                else:
                    la = (la + gap * lx) % m
                    z = zech[lc - la]
                    la = -1 if z < 0 else la + z
            yield 0 if la < 0 else exp[(la + low * lx) % m]

    def _axpy(self, acc, shift, lf, terms):
        """acc[shift + j] += g^(lf + lt) for each (j, lt) in terms, in place,
        on a vector of logs: the one multiply-add row of long division and
        the schoolbook product."""
        zech, m = self._zech, self.q - 1
        for j, lt in terms:
            k = shift + j
            r = acc[k]
            if r < 0:
                acc[k] = (lf + lt) % m
            else:
                z = zech[(lf + lt - r) % m]
                acc[k] = -1 if z < 0 else (r + z) % m

    def _to_codes(self, logs) -> list[int]:
        exp = self._exp
        return [exp[v] if v >= 0 else 0 for v in logs]

    def mul_codes(self, a, b) -> list[int]:
        """Schoolbook product of two code vectors: one row per nonzero
        coefficient of the shorter one."""
        if not a or not b:
            return []
        log = self._log
        if len(a) > len(b):
            a, b = b, a
        acc = [-1] * (len(a) + len(b) - 1)
        terms = [(j, log[c]) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                self._axpy(acc, i, log[c], terms)
        return self._to_codes(acc)

    def divmod_codes(self, a, b) -> tuple[list[int], list[int]]:
        """(quotient, remainder) code lists of a by b, both without trailing
        zeros and b nonzero.  Each row subtracts factor * b below the leading
        term, which cancels exactly, with b's other nonzero terms held as
        logs; the remainder is returned without trailing zeros."""
        db = len(b) - 1
        if len(a) <= db:
            return [], list(a)
        exp, log, m = self._exp, self._log, self.q - 1
        rem = [log[c] for c in a]
        lead, minus = log[b[-1]], log[self.p - 1]
        terms = [(j, log[c]) for j, c in enumerate(b[:-1]) if c]
        quo = [0] * (len(rem) - db)
        while len(rem) > db:
            shift = len(rem) - 1 - db
            lf = (rem.pop() - lead) % m
            quo[shift] = exp[lf]
            self._axpy(rem, shift, lf + minus, terms)
            while rem and rem[-1] < 0:
                rem.pop()
        return quo, self._to_codes(rem)

    # -- addition kernels on code vectors
    #
    # A code is the F_p-digit vector of its element, so at p = 2 a sum is the
    # XOR of codes; at odd p it is one Zech lookup on logs, inlined.

    def add_codes(self, xs, ys) -> list[int]:
        """Codes of x + y for each pair of codes from xs and ys, up to the
        shorter of the two."""
        if self.p == 2:
            return [x ^ y for x, y in zip(xs, ys)]
        exp, log, zech, m = self._exp, self._log, self._zech, self.q - 1
        out = []
        append = out.append
        for x, y in zip(xs, ys):
            if not x:
                append(y)
            elif not y:
                append(x)
            else:
                la = log[x]
                z = zech[log[y] - la]
                append(0 if z < 0 else exp[(la + z) % m])
        return out

    def span_codes(self, gens) -> list[int]:
        """Codes of every F_p-combination sum(d_i * gens[i]), the one with
        digits d_i at index sum(d_i * p^i): the first generator varies
        fastest, and the entries below p^(i+1) are those below p^i plus
        d * gens[i] for each d, each block the one before it plus gens[i]."""
        table = [0]
        for g in gens:
            size = len(table)
            for _ in range(self.p - 1):
                table += self.add_codes(table[-size:], itertools.repeat(g))
        return table

    def translates(self, table, u: int, v: int) -> bool:
        """Whether table[x + u] == table[x] + v at every code x, table being
        a map's values in code order: one row of f(x + u) = f(x) + M(u)."""
        shifted = self.add_codes(range(self.q), itertools.repeat(u))
        return [table[x] for x in shifted] == self.add_codes(table, itertools.repeat(v))

    def sub_row(self, code: int, d: int, row: int) -> int:
        """Code of code - d * row for a digit 0 < d < p and a nonzero row:
        XOR at p = 2; at odd p one sum of logs for -d * row, one Zech lookup."""
        if self.p == 2:
            return code ^ row
        exp, log, zech, m = self._exp, self._log, self._zech, self.q - 1
        lr = (log[row] + log[self.p - d]) % m  # -d * row
        if not code:
            return exp[lr]
        z = zech[lr - log[code]]
        return 0 if z < 0 else exp[(log[code] + z) % m]

    # -- element construction

    def check_code(self, code: int) -> int:
        """code itself; PreconditionError unless it is in range [0, q)."""
        if not 0 <= code < self.q:
            raise PreconditionError(f"element code {code} out of range [0, {self.q})")
        return code

    def from_code(self, code: int) -> Elt:
        return Elt(self, self.check_code(code))

    def from_int(self, k: int) -> Elt:
        """Prime-subfield scalar k mod p."""
        return self.from_code(k % self.p)

    def elements(self) -> tuple[Elt, ...]:
        """All q elements in ascending code order, index 0 zero, built afresh
        on each call: a scan of codes reads range(q) instead."""
        return tuple(map(Elt, itertools.repeat(self), range(self.q)))

    def dlogs(self, codes) -> list[int]:
        """dlog of each nonzero code in codes, in order, building no Elt."""
        log = self._log
        return [log[c] for c in codes if c]

    def dlog(self, a: Elt) -> int:
        """Exponent m in [0, q-2] with primitive**m == a; a must be nonzero."""
        code = self.code(a)
        if code == 0:
            raise PreconditionError("discrete log of zero is undefined")
        return self._log[code]

    # -- the same-field rule

    def owns(self, *operands) -> "Field":
        """This field; PreconditionError unless each operand's field is this
        one, by identity first and equality after."""
        for o in operands:
            if o.field is not self and o.field != self:
                raise PreconditionError("operands belong to different fields")
        return self

    def code(self, e: Elt) -> int:
        """The code of e, which owns checks is an element of this field.
        A non-Elt is refused, not coerced: an int k is code k as a code
        and k mod p as a prime-subfield scalar."""
        try:
            if e.field is self:
                return e.code
        except AttributeError:
            pass
        if not isinstance(e, Elt):
            raise PreconditionError(f"expected an element of {self!r}, got {type(e).__name__}")
        self.owns(e)
        return e.code

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
