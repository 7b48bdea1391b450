"""Exact arithmetic in Q(q), the field of rational functions in one variable q.

Elements are kept in a unique canonical form (gcd-reduced, integer content
cleared, denominator with positive leading coefficient) so that equality is
structural and values are hashable.  Negative powers of q are represented by
pure q-power denominators, e.g. q + q^-1 is stored as (q^2+1)/q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


class QFieldError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# Integer polynomials in q.
#
# An IntPoly is a tuple of ints, coefficient of q^k at index k, with no
# trailing zeros; the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

IntPoly = tuple

P_ZERO: IntPoly = ()
P_ONE: IntPoly = (1,)
P_Q: IntPoly = (0, 1)


def ptrim(coeffs) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pconst(n: int) -> IntPoly:
    return (n,) if n else ()


def pmono(c: int, k: int) -> IntPoly:
    if c == 0:
        return ()
    return (0,) * k + (c,)


def pdeg(a: IntPoly) -> int:
    return len(a) - 1


def pval(a: IntPoly) -> int:
    """Valuation: index of the lowest nonzero coefficient (0 for a = 0)."""
    for i, c in enumerate(a):
        if c:
            return i
    return 0


def padd(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return ptrim(c)


def pneg(a: IntPoly) -> IntPoly:
    return tuple(-x for x in a)


def psub(a: IntPoly, b: IntPoly) -> IntPoly:
    return padd(a, pneg(b))


def pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    if len(a) == 1:
        s = a[0]
        return tuple(s * x for x in b)
    if len(b) == 1:
        s = b[0]
        return tuple(s * x for x in a)
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    c[i + j] += x * y
    return ptrim(c)


def pshift(a: IntPoly, k: int) -> IntPoly:
    """Multiply by q^k (k >= 0) or divide exactly by q^-k (k < 0)."""
    if not a:
        return ()
    if k >= 0:
        return (0,) * k + a
    assert all(c == 0 for c in a[:-k]), "inexact q-power division"
    return a[-k:]


def pcontent(a: IntPoly) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def pprimitive(a: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a
    return tuple(c // g for c in a)


def peval_one(a: IntPoly) -> int:
    return sum(a)


def is_pmono(a: IntPoly) -> bool:
    return bool(a) and all(c == 0 for c in a[:-1])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b over Z (b nonzero, deg a >= deg b)."""
    r = list(a)
    db, lb = pdeg(b), b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
    return ptrim(r)


def pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[q], primitive with positive leading coefficient."""
    a, b = pprimitive(a), pprimitive(b)
    if not a:
        return b
    if not b:
        return a
    # common q-power factor
    va, vb = pval(a), pval(b)
    v = min(va, vb)
    a, b = a[va:], b[vb:]
    if len(a) < len(b):
        a, b = b, a
    while b:
        if pdeg(b) == 0:
            b = P_ONE if any(a) else b
            a = b
            break
        r = _prem(a, b)
        a, b = b, pprimitive(r)
    return pshift(pprimitive(a), v)


def pdiv_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a / b over Z[q]; raises if the division is not exact.

    When a = b*q with integer q, every synthetic-division step divides
    exactly, so plain integer arithmetic suffices.
    """
    if not b:
        raise QFieldError("division by zero polynomial")
    if not a:
        return ()
    if len(a) < len(b):
        raise QFieldError("inexact polynomial division")
    r = list(a)
    db, lb = pdeg(b), b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        num = r[i + db]
        if num % lb:
            raise QFieldError("inexact polynomial division")
        c = num // lb
        q[i] = c
        if c:
            for j, bc in enumerate(b):
                r[i + j] -= c * bc
    if any(r):
        raise QFieldError("inexact polynomial division")
    return ptrim(q)


def prender(a: IntPoly) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            base = "q" if k == 1 else f"q^{k}"
            term = base if abs(c) == 1 else f"{abs(c)}*{base}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    s = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        s += sign + term
    return s


# ---------------------------------------------------------------------------
# Canonical rational functions.
# ---------------------------------------------------------------------------

class RatFunc:
    """A canonical element of Q(q).

    Instances are immutable; num and den are IntPoly tuples with den nonzero,
    gcd(num, den) = 1 after clearing integer content, and den having positive
    leading coefficient.  Equality and hashing are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: IntPoly, den: IntPoly, _raw: bool = False):
        if not _raw:
            num, den = _canonical_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash((num, den)))

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return (RatFunc, (self.num, self.den, True))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RatFunc":
        if n == 0:
            return RF_ZERO
        if n == 1:
            return RF_ONE
        return RatFunc(pconst(n), P_ONE, _raw=True)

    @staticmethod
    def from_fraction(x: Fraction) -> "RatFunc":
        return RatFunc(pconst(x.numerator), pconst(x.denominator))

    @staticmethod
    def q_power(k: int) -> "RatFunc":
        if k == 0:
            return RF_ONE
        if k > 0:
            return RatFunc(pmono(1, k), P_ONE, _raw=True)
        return RatFunc(P_ONE, pmono(1, -k), _raw=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return RatFunc(padd(self.num, other.num), self.den)
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        if self.den == other.den:
            return RatFunc(psub(self.num, other.num), self.den)
        return RatFunc(
            psub(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __neg__(self) -> "RatFunc":
        if not self.num:
            return self
        return RatFunc(pneg(self.num), self.den, _raw=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not self.num or not other.num:
            return RF_ZERO
        if self is RF_ONE or self.num == P_ONE and self.den == P_ONE:
            return other
        if other.num == P_ONE and other.den == P_ONE:
            return self
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            raise QFieldError("division by zero in Q(q)")
        if not self.num:
            return RF_ZERO
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other: int) -> "RatFunc":
        if not isinstance(other, int):
            return NotImplemented
        return RatFunc.from_int(other) / self

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise QFieldError("division by zero in Q(q)")
        return RatFunc(self.den, self.num)

    # -- specialization ----------------------------------------------------

    def eval_at_one(self) -> Fraction:
        d = peval_one(self.den)
        if d == 0:
            raise QFieldError("not regular at q=1")
        return Fraction(peval_one(self.num), d)

    def regular_at_one(self) -> bool:
        return peval_one(self.den) != 0

    def order_at_one(self) -> int:
        """Vanishing order at q = 1 (negative for a pole)."""
        if not self.num:
            raise QFieldError("order of zero is undefined")
        return _one_multiplicity(self.num) - _one_multiplicity(self.den)

    def shift_at_one(self, k: int) -> "RatFunc":
        """Multiply by (q-1)^k (k may be negative)."""
        if k == 0 or not self.num:
            return self
        factor = P_ONE
        for _ in range(abs(k)):
            factor = pmul(factor, (-1, 1))
        if k > 0:
            return RatFunc(pmul(self.num, factor), self.den)
        return RatFunc(self.num, pmul(self.den, factor))

    # -- comparisons / misc -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if not self.num:
            return "0"
        ns = prender(self.num)
        if self.den == P_ONE:
            return ns
        if len([c for c in self.num if c]) > 1:
            ns = f"({ns})"
        ds = prender(self.den)
        if len([c for c in self.den if c]) > 1 or pcontent(self.den) != 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return self.render()


def _one_multiplicity(p: IntPoly) -> int:
    """Multiplicity of the root q = 1."""
    k = 0
    while p and peval_one(p) == 0:
        p = pdiv_exact(p, (-1, 1))
        k += 1
    return k


def _canonical_pair(num: IntPoly, den: IntPoly):
    num, den = ptrim(num), ptrim(den)
    if not den:
        raise QFieldError("division by zero in Q(q)")
    if not num:
        return (), P_ONE
    # common q-power
    v = min(pval(num), pval(den))
    if v:
        num, den = num[v:], den[v:]
    # polynomial gcd, skipped when the denominator is a monomial
    if not is_pmono(den) and not is_pmono(num) and pdeg(den) > 0 and pdeg(num) > 0:
        g = pgcd(num, den)
        if g != P_ONE:
            num, den = pdiv_exact(num, g), pdiv_exact(den, g)
    # integer content and sign
    c = _int_gcd(pcontent(num), pcontent(den))
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


RF_ZERO = RatFunc((), P_ONE, _raw=True)
RF_ONE = RatFunc(P_ONE, P_ONE, _raw=True)
RF_Q = RatFunc(P_Q, P_ONE, _raw=True)
RF_MINUS_ONE = RatFunc((-1,), P_ONE, _raw=True)


# ---------------------------------------------------------------------------
# Top-level operations.
# ---------------------------------------------------------------------------

def rf_canonicalize(num, den) -> RatFunc:
    """Canonical representative of num/den; idempotent."""
    return RatFunc(ptrim(num), ptrim(den))


def rf_eval_at_one(a: RatFunc) -> Fraction:
    return a.eval_at_one()


def q_int(n: int, d: int = 1) -> RatFunc:
    """Balanced q-integer [n] in q^d: (q^{dn} - q^{-dn}) / (q^d - q^{-d})."""
    num = psub(pmono(1, 2 * d * abs(n)), P_ONE)
    den = psub(pmono(1, 2 * d), P_ONE)
    r = RatFunc(pmul(num, pmono(1, d)), pmul(den, pmono(1, d * abs(n))))
    return -r if n < 0 else r


def q_binomial(m: int, r: int, d: int = 1) -> RatFunc:
    """Balanced q-binomial coefficient [m choose r] in q^d.

    Symmetric under q <-> q^-1 and under r <-> m-r; specializes to the
    ordinary binomial coefficient at q = 1.
    """
    if d < 1:
        raise QFieldError("q_binomial requires d >= 1")
    if r < 0 or r > m:
        raise QFieldError(f"q_binomial index out of range: ({m}, {r})")
    r = min(r, m - r)
    out = RF_ONE
    for s in range(1, r + 1):
        out = out * q_int(m - r + s, d) / q_int(s, d)
    return out


# ---------------------------------------------------------------------------
# Text format: integers, q, ^, + - * /, parentheses.
# ---------------------------------------------------------------------------

def parse_ratfunc(text: str) -> RatFunc:
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_expr():
        t = peek()
        if t in ("+", "-"):
            take()
            v = parse_term()
            if t == "-":
                v = -v
        else:
            v = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def parse_term():
        v = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            v = v * rhs if op == "*" else v / rhs
        return v

    def parse_factor():
        t = peek()
        if t == "-":
            take()
            return -parse_factor()
        v = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            e = take()
            if not isinstance(e, int):
                raise QFieldError(f"expected integer exponent in {text!r}")
            e *= sign
            if v == RF_Q:
                return RatFunc.q_power(e)
            out = RF_ONE
            base = v if e >= 0 else v.inverse()
            for _ in range(abs(e)):
                out = out * base
            return out
        return v

    def parse_atom():
        t = take()
        if t == "(":
            v = parse_expr()
            if take() != ")":
                raise QFieldError(f"unbalanced parentheses in {text!r}")
            return v
        if t == "q":
            return RF_Q
        if isinstance(t, int):
            return RatFunc.from_int(t)
        raise QFieldError(f"unexpected token {t!r} in {text!r}")

    v = parse_expr()
    if pos[0] != len(tokens):
        raise QFieldError(f"trailing input in {text!r}")
    return v


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "q^+-*/()":
            out.append(ch)
            i += 1
        else:
            raise QFieldError(f"bad character {ch!r} in {text!r}")
    return out
