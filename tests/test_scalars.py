from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from garside.scalars import ONE, SQRT2, SQRT3, SQRT5, TWO, ZERO, Scalar


def test_basic_identities():
    assert SQRT2 * SQRT2 == TWO
    assert SQRT3 * SQRT3 == Scalar.from_rational(3)
    assert SQRT2 * SQRT3 == Scalar.sqrt_of(6)
    assert SQRT2 * Scalar.sqrt_of(6) == 2 * SQRT3
    assert Scalar.sqrt_of(10) * Scalar.sqrt_of(15) == 5 * Scalar.sqrt_of(6)


def test_golden_ratio_satisfies_its_equation():
    phi = (ONE + SQRT5) * Scalar.from_rational(Fraction(1, 2))
    assert phi * phi == phi + ONE


def test_sign_of_close_values():
    # sqrt2 + sqrt3 - sqrt5 is small (~0.91e-1... actually 0.9) but nonzero
    x = SQRT2 + SQRT3 - SQRT5
    assert x.sign() == 1
    # 3 - 2*sqrt2 and sqrt2 - 1 squared agree: (sqrt2-1)^2 = 3 - 2 sqrt2
    y = (SQRT2 - ONE) * (SQRT2 - ONE) - (Scalar.from_rational(3) - 2 * SQRT2)
    assert y.sign() == 0 and y.is_zero()


def test_tiny_nonzero_sign_is_exact():
    # (sqrt2 - 1)^20 is ~ 1.1e-8; interval refinement must still resolve it
    x = ONE
    for _ in range(20):
        x = x * (SQRT2 - ONE)
    assert x.sign() == 1
    assert (-x).sign() == -1


def test_total_order_matches_floats():
    values = [ZERO, ONE, SQRT2, SQRT3, SQRT5, SQRT2 + SQRT3, -SQRT2, 2 * ONE]
    by_exact = sorted(values)
    by_float = sorted(values, key=float)
    assert [float(v) for v in by_exact] == [float(v) for v in by_float]


def test_equality_and_hash():
    a = SQRT2 + ONE
    b = ONE + SQRT2
    assert a == b and hash(a) == hash(b)
    assert a != SQRT2
    assert Scalar.from_rational(2) == 2


def test_unsupported_sqrt_rejected():
    with pytest.raises(ValueError):
        Scalar.sqrt_of(7)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
scalars = st.builds(
    lambda a, b, c, d: Scalar.from_rational(a)
    + Scalar.from_rational(b) * SQRT2
    + Scalar.from_rational(c) * SQRT3
    + Scalar.from_rational(d) * SQRT5,
    small_rationals,
    small_rationals,
    small_rationals,
    small_rationals,
)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a


@given(scalars)
def test_sign_consistent_with_float(x):
    approx = float(x)
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)
    assert (x - x).sign() == 0


def test_sign_beyond_float_range_is_exact():
    huge = Scalar([10**400, -1, 0, 0, 0, 0, 0, 0])
    assert huge.sign() == 1 and (-huge).sign() == -1
    # the sqrt2 term overflows to inf as a float, yet the sum is negative
    x = Scalar([0, 1294 * 10**305, 0, 0, 0, -72 * 10**305, -18 * 10**306, -18 * 10**306])
    assert x.sign() == -1 and (-x).sign() == 1
