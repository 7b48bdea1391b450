import random
from fractions import Fraction

import pytest

from qcoiso.qfield import (
    QFieldError,
    RatFunc,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    parse_ratfunc,
    pconst,
    pmono,
    q_binomial,
    q_int,
    rf_canonicalize,
    rf_eval_at_one,
)


def rf(s):
    return parse_ratfunc(s)


def test_canonicalize_common_factor():
    # (q^2 - 1) / (q - 1) -> q + 1
    assert rf_canonicalize((-1, 0, 1), (-1, 1)) == rf("q+1")


def test_canonicalize_content():
    assert rf_canonicalize((0, 2), (4,)) == rf("q/2")


def test_canonicalize_sign():
    assert rf_canonicalize((-1,), (-1, -1)) == rf("1/(q+1)")


def test_canonicalize_idempotent():
    x = rf_canonicalize((0, 2, 2), (0, 0, 4))
    y = rf_canonicalize(x.num, x.den)
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
        rf_canonicalize((1,), ())


def test_eval_at_one():
    assert rf_eval_at_one(rf("1-q")) == 0
    assert rf_eval_at_one(rf("1/(q+q^-1)")) == Fraction(1, 2)
    with pytest.raises(QFieldError):
        rf_eval_at_one(rf("1/(q-1)"))


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
                assert rf_eval_at_one(q_binomial(m, r, d)) == comb(m, r)


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
    return rf_canonicalize(num, den)


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
            assert a * a.inverse() == RF_ONE


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

        assert rf_canonicalize(pmul(num, mult), pmul(den, mult)) == rf_canonicalize(
            num, den
        )


def test_eval_at_one_is_ring_morphism():
    rng = random.Random(3)
    for _ in range(100):
        a, b = _random_ratfunc(rng), _random_ratfunc(rng)
        if not (a.regular_at_one() and b.regular_at_one()):
            continue
        assert rf_eval_at_one(a + b) == rf_eval_at_one(a) + rf_eval_at_one(b)
        assert rf_eval_at_one(a * b) == rf_eval_at_one(a) * rf_eval_at_one(b)


def test_render_canonical():
    x = -(RF_Q * RF_Q) / (rf("q^2+1")) * RF_Q
    assert x.render() == "-q^3/(q^2+1)"
    assert rf("q+q^-1").render() == "(q^2+1)/q"


def test_parse_render_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        x = _random_ratfunc(rng)
        assert parse_ratfunc(x.render()) == x
