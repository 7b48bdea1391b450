import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_helpers import regular_at_one
from qcoiso import qfield
from qcoiso.qfield import (
    QFieldError,
    RatFunc,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    padd,
    parse_ratfunc,
    pconst,
    pgcd,
    pmono,
    pmul,
    pneg,
    products_memoized,
    ptrim,
    q_binomial,
    q_int,
)


def rf(s):
    return parse_ratfunc(s)


def _psub(a, b):
    return padd(a, pneg(b))


def test_canonicalize_common_factor():
    # (q^2 - 1) / (q - 1) -> q + 1
    assert RatFunc((-1, 0, 1), (-1, 1)) == rf("q+1")


def test_canonicalize_content():
    assert RatFunc((0, 2), (4,)) == rf("q/2")


def test_canonicalize_sign():
    assert RatFunc((-1,), (-1, -1)) == rf("1/(q+1)")


def test_canonicalize_idempotent():
    x = RatFunc((0, 2, 2), (0, 0, 4))
    y = RatFunc(x.num, x.den)
    assert x == y


def test_negative_powers_stored_as_denominator():
    x = rf("q + q^-1")
    assert x.num == (1, 0, 1)
    assert x.den == (0, 1)


def test_arith_add_simplifies_to_q():
    a = rf("1/(q+q^-1)")
    b = rf("q^2/(q+q^-1)")
    assert a + b == RF_Q


def test_arith_inverse_pair():
    assert RF_Q * rf("q^-1") == RF_ONE


def test_arith_sub_self_random():
    rng = random.Random(7)
    for _ in range(50):
        x = _random_ratfunc(rng)
        assert x - x == RF_ZERO


def test_div_by_zero():
    with pytest.raises(QFieldError):
        RF_ONE / RF_ZERO
    with pytest.raises(QFieldError):
        RatFunc((1,), ())


def test_eval_at_one():
    assert rf("1-q").eval_at_one() == 0
    assert rf("1/(q+q^-1)").eval_at_one() == Fraction(1, 2)
    with pytest.raises(QFieldError):
        rf("1/(q-1)").eval_at_one()


def test_q_binomial_goldens():
    assert q_binomial(2, 1, 1) == rf("q + q^-1")
    assert q_binomial(5, 0, 2) == RF_ONE
    assert q_binomial(4, 2, 1) == rf("q^4 + q^2 + 2 + q^-2 + q^-4")


def test_q_binomial_symmetry_and_errors():
    for m in range(7):
        for r in range(m + 1):
            assert q_binomial(m, r, 2) == q_binomial(m, m - r, 2)
    with pytest.raises(QFieldError):
        q_binomial(3, 4, 1)
    with pytest.raises(QFieldError):
        q_binomial(3, -1, 1)


def test_q_binomial_at_one_is_binomial():
    from math import comb

    for m in range(8):
        for r in range(m + 1):
            for d in (1, 2, 3):
                assert q_binomial(m, r, d).eval_at_one() == comb(m, r)


def test_q_int_balanced():
    assert q_int(2, 1) == rf("q + q^-1")
    assert q_int(3, 2) == rf("q^4 + 1 + q^-4")
    assert q_int(-2, 1) == -rf("q + q^-1")


def _random_poly(rng, maxdeg=4, span=6):
    return tuple(rng.randint(-span, span) for _ in range(rng.randint(1, maxdeg)))


def _random_ratfunc(rng):
    num = _random_poly(rng)
    den = ()
    while not any(den):
        den = _random_poly(rng)
    return RatFunc(num, den)


def test_field_axioms_random():
    rng = random.Random(20260809)
    for _ in range(300):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (RF_ONE / a) == RF_ONE


def test_canonical_uniqueness_under_common_multiplier():
    rng = random.Random(99)
    for _ in range(100):
        num, den = _random_poly(rng), ()
        while not any(den):
            den = _random_poly(rng)
        mult = ()
        while not any(mult):
            mult = _random_poly(rng)
        from qcoiso.qfield import pmul

        assert RatFunc(pmul(num, mult), pmul(den, mult)) == RatFunc(
            num, den
        )


def test_eval_at_one_is_ring_morphism():
    rng = random.Random(3)
    for _ in range(100):
        a, b = _random_ratfunc(rng), _random_ratfunc(rng)
        if not (regular_at_one(a) and regular_at_one(b)):
            continue
        assert (a + b).eval_at_one() == a.eval_at_one() + b.eval_at_one()
        assert (a * b).eval_at_one() == a.eval_at_one() * b.eval_at_one()


def test_render_canonical():
    x = -(RF_Q * RF_Q) / (rf("q^2+1")) * RF_Q
    assert x.render() == "-q^3/(q^2+1)"
    assert rf("q+q^-1").render() == "(q^2+1)/q"


def test_parse_render_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        x = _random_ratfunc(rng)
        assert parse_ratfunc(x.render()) == x


@pytest.mark.parametrize(
    "text",
    ["", "q+", "(q", "q^", "qq", "x", "q**2", "2q", "q^2^3", "q^q", "1.5", "0^-1"],
)
def test_parse_rejects_malformed_literals(text):
    with pytest.raises(QFieldError):
        parse_ratfunc(text)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def _literals(draw, depth=3):
    """(text, value) of a Q(q) literal, the value computed directly in RatFunc
    arithmetic, or None where the literal divides by zero."""
    kind = draw(st.sampled_from(["int", "q", "unary", "binary", "power"] if depth else ["int", "q"]))
    if kind == "int":
        n = draw(st.integers(0, 12))
        return str(n), RatFunc.from_int(n)
    if kind == "q":
        return "q", RF_Q
    a_text, a = draw(_literals(depth - 1))
    if kind == "unary":
        sign = draw(st.sampled_from("+-"))
        return f"{sign}({a_text})", None if a is None else (-a if sign == "-" else a)
    if kind == "power":
        e = draw(st.integers(-3, 3))
        if a is None or (e < 0 and not a):
            return f"({a_text})^{e}", None
        value = RF_ONE
        for _ in range(abs(e)):
            value = value * a
        return f"({a_text})^{e}", value if e >= 0 else RF_ONE / value
    op = draw(st.sampled_from("+-*/"))
    b_text, b = draw(_literals(depth - 1))
    text = f"({a_text}){op}({b_text})"
    if a is None or b is None or (op == "/" and not b):
        return text, None
    return text, _OPS[op](a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_literals())
def test_parse_matches_direct_arithmetic(literal):
    text, value = literal
    if value is None:
        with pytest.raises(QFieldError):
            parse_ratfunc(text)
    else:
        assert parse_ratfunc(text) == value
        assert parse_ratfunc(text.replace("(", " ( ")) == value


_coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


@st.composite
def _values(draw):
    """Canonical values through the general path: Laurent ones num/q^k (zero,
    negative leading coefficients and valuations up to 6 included), and ones
    whose denominator is not a pure q-power."""
    num = (0,) * draw(st.integers(0, 6)) + tuple(draw(_coeffs))
    if draw(st.booleans()):
        den = pmono(1, draw(st.integers(0, 8)))
    else:
        den = tuple(draw(_coeffs))
        if not any(den):
            den = (draw(st.sampled_from([-3, 2, 5])),)
    return RatFunc(num, den)


def _sympy_poly(p, q):
    return sum(c * q**i for i, c in enumerate(p))


def _sympy(x, q):
    return _sympy_poly(x.num, q) / _sympy_poly(x.den, q)


def _is_laurent(x):
    return x.k >= 0 and x.den == pmono(1, x.k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_values(), _values())
def test_laurent_path_matches_canonical_path_and_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    # each operation against the general canonical form of its raw pair
    cases = [
        ("+", a + b, RatFunc(padd(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den))),
        ("-", a - b, RatFunc(_psub(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den))),
        ("*", a * b, RatFunc(pmul(a.num, b.num), pmul(a.den, b.den))),
        ("neg", -a, RatFunc(pneg(a.num), a.den)),
    ]
    if b:
        cases.append(("/", a / b, RatFunc(pmul(a.num, b.den), pmul(a.den, b.num))))
    else:
        with pytest.raises(QFieldError):
            a / b
    sa, sb = _sympy(a, q), _sympy(b, q)
    exact = {"+": sa + sb, "-": sa - sb, "*": sa * sb, "neg": -sa}
    if b:
        exact["/"] = sa / sb
    for op, got, slow in cases:
        assert (got.num, got.den, got.k) == (slow.num, slow.den, slow.k), op
        assert got == slow and hash(got) == hash(slow), op
        assert sympy.cancel(_sympy(got, q) - exact[op]) == 0, op
        # Laurent inputs give a Laurent result, except dividing by a non-unit
        if _is_laurent(a) and _is_laurent(b) and op != "/":
            assert _is_laurent(got), op
        back = pickle.loads(pickle.dumps(got))
        assert back == got and hash(back) == hash(got) and back.k == got.k, op
    # the marker agrees with the denominator on every value
    for x in (a, b):
        assert (x.k >= 0) == (x.den == pmono(1, len(x.den) - 1))
        assert x.k < 0 or x.k == len(x.den) - 1


def test_q_powers_are_shared():
    for k in range(-6, 7):
        assert RatFunc.q_power(k) is RatFunc.q_power(k)
        assert RatFunc.q_power(k) == RatFunc(pmono(1, max(k, 0)), pmono(1, max(-k, 0)))
    assert RatFunc.q_power(0) is RF_ONE
    assert RatFunc.q_power(3) * RatFunc.q_power(-3) == RF_ONE


def _same(x, y):
    return (x.num, x.den, x.k, hash(x), x.render()) == (y.num, y.den, y.k, hash(y), y.render())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_values(), _values()), min_size=1, max_size=12), st.integers(1, 4))
def test_memoized_products_equal_fresh_ones(pairs, cap):
    """Inside products_memoized() every product, first computed or looked up,
    equals the one computed outside it, also after a small cap has cleared the
    memo; nested scopes restore the outer memo, and an exception leaves none."""
    fresh = [a * b for a, b in pairs]
    assert qfield._product_memo is None
    with products_memoized():
        outer = qfield._product_memo
        for _ in range(2):
            for (a, b), expected in zip(pairs, fresh):
                assert _same(a * b, expected)
        assert len(outer) <= len(pairs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qfield, "_PRODUCT_MEMO_CAP", cap)
            with products_memoized():
                inner = qfield._product_memo
                assert inner == {} and inner is not outer
                for _ in range(2):
                    for (a, b), expected in zip(pairs, fresh):
                        assert _same(a * b, expected)
                        assert len(inner) <= cap
        assert qfield._product_memo is outer
        with pytest.raises(QFieldError):
            with products_memoized():
                pairs[0][0] * pairs[0][1]
                RF_ONE / RF_ZERO
        assert qfield._product_memo is outer
    assert qfield._product_memo is None
    with pytest.raises(QFieldError):
        with products_memoized():
            RF_ONE / RF_ZERO
    assert qfield._product_memo is None


def test_memo_answers_a_repeated_product():
    a, b = rf("q^2+3-q^-1"), rf("1/(q+q^-1)")
    with products_memoized():
        first = a * b
        assert qfield._product_memo == {(a, b): first}
        assert a * b is first
        # zero and one operands never reach the memo
        assert a * RF_ONE is a and RF_ZERO * b is RF_ZERO
        assert len(qfield._product_memo) == 1


def _raw_ops(a, b):
    """Each operation on a and b through the general canonicalization of its
    raw pair, RatFunc(num, den)."""
    cases = {
        "+": RatFunc(padd(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den)),
        "-": RatFunc(_psub(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den)),
        "*": RatFunc(pmul(a.num, b.num), pmul(a.den, b.den)),
    }
    if b:
        cases["/"] = RatFunc(pmul(a.num, b.den), pmul(a.den, b.num))
    if a:
        cases["1/x"] = RatFunc(a.den, a.num)
    return cases


def _fast_ops(a, b):
    cases = {"+": a + b, "-": a - b, "*": a * b}
    if b:
        cases["/"] = a / b
    if a:
        cases["1/x"] = 1 / a
    return cases


# numerators of balanced q-integers [n] in q^d, such as q^2+1 for [2]: the
# factors that non-Laurent coefficients are made of
_Q_INT_FACTORS = [q_int(n, d).num for n in range(2, 5) for d in (1, 2)]


@st.composite
def _factored(draw):
    """c * q^v * a product of q-integer numerators, as a raw polynomial."""
    p = pmono(draw(st.sampled_from([1, -1, 2, -3, 6])), draw(st.integers(0, 3)))
    for f in draw(st.lists(st.sampled_from(_Q_INT_FACTORS), max_size=3)):
        p = pmul(p, f)
    return p


@st.composite
def _structured(draw):
    """A canonical value from a raw pair of products of q-integer factors,
    q-powers and integer contents, so that operands share factors; zero now
    and then."""
    num = () if draw(st.integers(0, 9)) == 0 else draw(_factored())
    return RatFunc(num, draw(_factored()))


@st.composite
def _structured_pairs(draw):
    """(a, b, relation): b unrelated to a, its negation, a - L or a * L for a
    Laurent L, so that zero and Laurent results come from non-Laurent
    operands."""
    a = draw(_structured())
    relation = draw(st.sampled_from(["free", "free", "neg", "sum", "ratio"]))
    laurent = RatFunc(draw(_factored()), pmono(1, draw(st.integers(0, 4))))
    if relation == "free":
        b = draw(_structured())
    elif relation == "neg":
        b = RatFunc(pneg(a.num), a.den)
    elif relation == "sum":
        # a + b = L
        b = RatFunc(_psub(pmul(laurent.num, a.den), pmul(a.num, laurent.den)), pmul(laurent.den, a.den))
    else:
        # b / a = L
        b = RatFunc(pmul(a.num, laurent.num), pmul(a.den, laurent.den))
    return a, b, relation, laurent


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_structured_pairs())
def test_cross_cancelled_arithmetic_matches_canonical_path(pair):
    """+ - * / and 1/x on canonical values that share q-integer factors give
    exactly the canonical form of the raw pair; one case in eight is also
    checked against sympy."""
    a, b, relation, laurent = pair
    fast, slow = _fast_ops(a, b), _raw_ops(a, b)
    assert fast.keys() == slow.keys()
    for op, got in fast.items():
        want = slow[op]
        assert _same(got, want), op
    if relation == "neg":
        assert fast["+"] is RF_ZERO or not fast["+"]
    if relation == "sum":
        assert _is_laurent(fast["+"]) and fast["+"] == laurent
    if relation == "ratio" and a:
        assert _is_laurent(b / a) and b / a == laurent
    if hash((a, b)) % 8 == 0:
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        sa, sb = _sympy(a, q), _sympy(b, q)
        exact = {"+": sa + sb, "-": sa - sb, "*": sa * sb}
        if b:
            exact["/"] = sa / sb
        if a:
            exact["1/x"] = 1 / sa
        for op, got in fast.items():
            assert sympy.cancel(_sympy(got, q) - exact[op]) == 0, op


def test_operators_never_canonicalize_canonical_operands(monkeypatch):
    """Sums, differences, products and quotients of canonical values, Laurent
    or not, are built without `_canonical_pair`, which stays the
    canonicalization behind RatFunc(num, den)."""
    values = [rf(t) for t in [
        "0", "1", "-2", "q", "3*q^-2", "q+q^-1", "1/2", "1/(q+q^-1)",
        "(q^4+1)/(q^2+1)", "-6*q/(q^4+q^2+1)", "(q^2+1)^2/(3*q^3)",
        "2/((q^2+1)*(q^4+1))", "q^-1/(q^4+q^2+1)",
    ]]
    calls = []
    original = qfield._canonical_pair
    monkeypatch.setattr(qfield, "_canonical_pair", lambda num, den: calls.append((num, den)) or original(num, den))
    for a in values:
        for b in values:
            _fast_ops(a, b)
    assert calls == []
    assert RatFunc((0, 2), (4,)) == rf("q/2") and calls == [((0, 2), (4,))]


_gcd_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(ptrim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_gcd_polys, _gcd_polys, _gcd_polys, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_pgcd_matches_sympy(common, a, b, shared_v, va, vb):
    """pgcd of two polynomials with a planted common factor and q-power
    factors is sympy's gcd, made primitive with a positive leading
    coefficient; the gcd used by the cross-cancelled operators agrees."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    common = pmul(pmono(1, shared_v), common or (1,))
    a = pmul(pmul(common, pmono(1, va)), a)
    b = pmul(pmul(common, pmono(1, vb)), b)
    want = sympy.Poly(sympy.gcd(_sympy_poly(a, q), _sympy_poly(b, q)), q)
    if want.is_zero:
        want_t = ()
    else:
        want = want.primitive()[1]
        if want.LC() < 0:
            want = -want
        want_t = tuple(int(c) for c in reversed(want.all_coeffs()))
    got = pgcd(a, b)
    assert got == want_t
    if got:
        assert got[-1] > 0 and qfield.pcontent(got) == 1
    if a and b:
        assert qfield._gcd(a, b) == got
