"""Exact arithmetic in Q(q), the field of rational functions in one variable q.

Elements are kept in a unique canonical form (gcd-reduced, integer content
cleared, denominator with positive leading coefficient) so that equality is
structural and values are hashable; `RatFunc(num, den)` canonicalizes any
pair.  Negative powers of q are represented by pure q-power denominators,
e.g. q + q^-1 is stored as (q^2+1)/q.

Nearly every coefficient the package meets is a Laurent polynomial c(q)/q^k,
in Z[q, q^-1].  Its canonical form is num/q^k with den exactly q^k (integer
content 1 by construction, and num has a nonzero constant term when k > 0),
so sums, differences, products and negations of Laurent values, and
quotients by a unit +-q^j, are built in that form directly, with no gcd or
content computation.  Any other value, such as 1/(q + q^-1), goes through
the general canonicalization `_canonical_pair` (polynomial gcd by
primitive pseudo-remainders, von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 6).

`RatFunc.render` writes a value as text, and `parse_ratfunc` reads it back
through `ast`: the text format is the Python expression grammar cut down to
integer literals, the name q, unary + and -, + - * /, parentheses, and ^ for
** with a signed integer-literal exponent.  Every signed sum the package
prints is joined by `join_signed`.
"""

from __future__ import annotations

import ast
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
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def pneg(a: IntPoly) -> IntPoly:
    return tuple(-x for x in a)


def psub(a: IntPoly, b: IntPoly) -> IntPoly:
    if not b:
        return a
    c = list(a)
    if len(c) < len(b):
        c.extend([0] * (len(b) - len(c)))
    for i, x in enumerate(b):
        c[i] -= x
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    # a monomial factor c q^s, such as a q-power, is a scale and a shift
    if not any(a[:-1]):
        s = a[-1]
        return (0,) * (len(a) - 1) + tuple(s * x for x in b)
    if not any(b[:-1]):
        s = b[-1]
        return (0,) * (len(b) - 1) + tuple(s * x for x in a)
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    c[i + j] += x * y
    # the leading coefficient is a[-1] * b[-1], nonzero for trimmed a and b
    return tuple(c) if c[-1] else ptrim(c)


def pshift(a: IntPoly, k: int) -> IntPoly:
    """Multiply by q^k (k >= 0) or divide exactly by q^-k (k < 0)."""
    if not a:
        return ()
    if k >= 0:
        return (0,) * k + a
    if any(a[:-k]):
        raise QFieldError("inexact q-power division")
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
        parts.append(("-" if c < 0 else "+", term))
    return join_signed(parts)


def join_signed(parts) -> str:
    """The sum "a-b+c" of the (sign, term) pairs [("+", "a"), ("-", "b"),
    ("+", "c")]: signs joined to their terms, a leading "+" dropped."""
    return "".join(sign + term for sign, term in parts).removeprefix("+")


# ---------------------------------------------------------------------------
# Canonical rational functions.
# ---------------------------------------------------------------------------

class RatFunc:
    """A canonical element of Q(q).

    Instances are immutable; num and den are IntPoly tuples with den nonzero,
    gcd(num, den) = 1 after clearing integer content, and den having positive
    leading coefficient.  Equality and hashing are structural.

    A value whose den is a pure q-power is a Laurent polynomial num/q^k, and
    its canonical form has den exactly pmono(1, k) and, for k > 0, a nonzero
    constant term in num; the slot k holds that k, or -1 for any other den.
    Sums, differences, products and negations of two Laurent values, and
    quotients by a unit +-q^j, stay Laurent and take the Laurent path: one
    pmul or aligned padd and a trim of the common q-power, with no gcd and
    no content.  Everything else is canonicalized by `_canonical_pair`, and
    both paths give the same (num, den).
    """

    __slots__ = ("num", "den", "k", "_hash")

    def __init__(self, num: IntPoly, den: IntPoly, _raw: bool = False):
        if not _raw:
            num, den = _canonical_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "k", len(den) - 1 if den[-1] == 1 and not any(den[:-1]) else -1)
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
        """q^k, one shared object per k."""
        r = _Q_POWERS.get(k)
        if r is None:
            r = _Q_POWERS[k] = _laurent(P_ONE, -k)
        return r

    # -- predicates --------------------------------------------------------

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
        k1, k2 = self.k, other.k
        if k1 >= 0 and k2 >= 0:
            return _laurent_sum(self.num, k1, other.num, k2)
        if self.den == other.den:
            return RatFunc(padd(self.num, other.num), self.den)
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "RatFunc":
        if not self.num:
            return self
        return _make(pneg(self.num), self.den, self.k)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not self.num or not other.num:
            return RF_ZERO
        if self is RF_ONE or self.num == P_ONE and self.den == P_ONE:
            return other
        if other.num == P_ONE and other.den == P_ONE:
            return self
        k1, k2 = self.k, other.k
        if k1 >= 0 and k2 >= 0:
            return _laurent(pmul(self.num, other.num), k1 + k2)
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            raise QFieldError("division by zero in Q(q)")
        if not self.num:
            return RF_ZERO
        k1, k2, unit = self.k, other.k, other.num
        if k1 >= 0 and k2 >= 0 and unit[-1] in (1, -1) and not any(unit[:-1]):
            # other = +-q^(j - k2) with j = deg(unit)
            num = self.num if unit[-1] == 1 else pneg(self.num)
            return _laurent(num, k1 + len(unit) - 1 - k2)
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other: int) -> "RatFunc":
        if not isinstance(other, int):
            return NotImplemented
        return RatFunc.from_int(other) / self

    def inverse(self) -> "RatFunc":
        return RF_ONE / self

    # -- specialization ----------------------------------------------------

    def eval_at_one(self) -> Fraction:
        d = peval_one(self.den)
        if d == 0:
            raise QFieldError("not regular at q=1")
        return Fraction(peval_one(self.num), d)

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


# The Laurent path builds canonical values directly, skipping __init__.
_new = object.__new__
_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__
_set_k = RatFunc.k.__set__
_set_hash = RatFunc._hash.__set__
_Q_DENS = {0: P_ONE}  # k -> pmono(1, k), one shared tuple per k


def _make(num: IntPoly, den: IntPoly, k: int) -> RatFunc:
    r = _new(RatFunc)
    _set_num(r, num)
    _set_den(r, den)
    _set_k(r, k)
    _set_hash(r, hash((num, den)))
    return r


def _laurent(num: IntPoly, k: int) -> RatFunc:
    """The canonical form of num/q^k for a Laurent-path num (any k)."""
    if not num:
        return RF_ZERO
    if k < 0:
        return _make((0,) * -k + num, P_ONE, 0)
    v = 0
    while v < k and not num[v]:
        v += 1
    if v:
        num = num[v:]
        k -= v
    den = _Q_DENS.get(k)
    if den is None:
        den = _Q_DENS[k] = pmono(1, k)
    return _make(num, den, k)


def _laurent_sum(a: IntPoly, ka: int, b: IntPoly, kb: int) -> RatFunc:
    """a/q^ka + b/q^kb, over the larger denominator."""
    if ka < kb:
        a = (0,) * (kb - ka) + a
        ka = kb
    elif kb < ka:
        b = (0,) * (ka - kb) + b
    return _laurent(padd(a, b), ka)


RF_ZERO = RatFunc((), P_ONE, _raw=True)
RF_ONE = RatFunc(P_ONE, P_ONE, _raw=True)
RF_Q = RatFunc(P_Q, P_ONE, _raw=True)
_Q_POWERS = {0: RF_ONE}  # k -> q^k, see RatFunc.q_power


# ---------------------------------------------------------------------------
# Top-level operations.
# ---------------------------------------------------------------------------

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
# Text format (see the module docstring).
# ---------------------------------------------------------------------------

_LITERAL_CHARS = frozenset("0123456789q^+-*/()")
_BINARY_OPS = {
    ast.Add: RatFunc.__add__,
    ast.Sub: RatFunc.__sub__,
    ast.Mult: RatFunc.__mul__,
    ast.Div: RatFunc.__truediv__,
}


def parse_ratfunc(text: str) -> RatFunc:
    """The value of a Q(q) literal such as "(q^2+1)/q" or "-3*q^-2".

    The text, with ^ read as **, is parsed by `ast`, and its syntax tree is
    evaluated over a whitelist; anything else raises QFieldError.
    """
    for ch in text:
        if ch not in _LITERAL_CHARS and not ch.isspace():
            raise QFieldError(f"bad character {ch!r} in {text!r}")
    if "**" in text:
        raise QFieldError(f"bad operator '**' in {text!r}; powers are written ^")
    try:
        return _eval_literal(ast.parse(text.strip().replace("^", "**"), mode="eval").body, text)
    except (SyntaxError, RecursionError) as exc:
        raise QFieldError(f"cannot parse {text!r} as a Q(q) literal") from exc


def _eval_literal(node, text: str) -> RatFunc:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return RatFunc.from_int(node.value)
    if isinstance(node, ast.Name) and node.id == "q":
        return RF_Q
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        v = _eval_literal(node.operand, text)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        lhs, rhs = _eval_literal(node.left, text), _eval_literal(node.right, text)
        return _BINARY_OPS[type(node.op)](lhs, rhs)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        # the exponent is an integer literal, signed by at most one unary op
        e = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
        if not (isinstance(e, ast.Constant) and type(e.value) is int):
            raise QFieldError(f"expected integer exponent in {text!r}")
        return _power(_eval_literal(node.left, text), ast.literal_eval(node.right))
    raise QFieldError(f"unexpected {ast.unparse(node)!r} in {text!r}")


def _power(base: RatFunc, e: int) -> RatFunc:
    if base == RF_Q:
        return RatFunc.q_power(e)
    out = RF_ONE
    factor = base if e >= 0 else base.inverse()
    for _ in range(abs(e)):
        out = out * factor
    return out
