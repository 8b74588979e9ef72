import ast
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from garside.scalars import HALF, ONE, SQRT2, SQRT3, SQRT5, TWO, ZERO, Scalar


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


def test_only_ints_and_fractions_are_accepted():
    assert Scalar.from_rational(Fraction(3, 4)) * 4 == Scalar.from_rational(3)
    assert Scalar([Fraction(1, 2), 1, 0, 0, 0, 0, 0, 0]) == HALF + SQRT2
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            Scalar.from_rational(bad)
        with pytest.raises(TypeError):
            Scalar([bad, 0, 0, 0, 0, 0, 0, 0])


def test_no_module_imports_fractions():
    src = Path(__file__).resolve().parent.parent / "src" / "garside"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "fractions" not in {n.split(".")[0] for n in names}, path.name


# ---------------------------------------------------------------------------
# Independent oracle: Fraction coefficients on the same basis, decimal signs

MODEL_BASIS = (1, 2, 3, 5, 6, 10, 15, 30)


def _basis_product(d1, d2):
    """(e, k) with sqrt(d1)*sqrt(d2) = e*sqrt(k), k squarefree, by search."""
    for k in MODEL_BASIS:
        q, r = divmod(d1 * d2, k)
        if r == 0 and isqrt(q) ** 2 == q:
            return isqrt(q), k
    raise AssertionError((d1, d2))


class Model:
    """A value of Q(sqrt2, sqrt3, sqrt5) as a dict sqrt(d) -> Fraction."""

    def __init__(self, coeffs):
        self.c = {d: Fraction(x) for d, x in zip(MODEL_BASIS, coeffs)}

    def coeffs(self):
        return [self.c[d] for d in MODEL_BASIS]

    def __add__(self, other):
        return Model([self.c[d] + other.c[d] for d in MODEL_BASIS])

    def __sub__(self, other):
        return Model([self.c[d] - other.c[d] for d in MODEL_BASIS])

    def __mul__(self, other):
        out = dict.fromkeys(MODEL_BASIS, Fraction(0))
        for d1, x in self.c.items():
            for d2, y in other.c.items():
                e, k = _basis_product(d1, d2)
                out[k] += x * y * e
        return Model([out[d] for d in MODEL_BASIS])

    def sign(self):
        # 120 digits decide every sign met below: the drawn values are zero
        # or beyond 1e-50 in size, and the huge and tiny cases are far from
        # their rounding error
        if not any(self.c.values()):
            return 0
        with localcontext() as ctx:
            ctx.prec = 120
            value = sum(
                Decimal(x.numerator) / Decimal(x.denominator) * Decimal(d).sqrt()
                for d, x in self.c.items()
            )
        return 1 if value > 0 else -1

    def __repr__(self):
        terms = [
            str(x) if d == 1 else f"{x}*r{d}" for d, x in self.c.items() if x != 0
        ]
        return " + ".join(terms) if terms else "0"


def assert_matches(scalar, model):
    assert repr(scalar) == repr(model)
    assert scalar.sign() == model.sign()
    assert scalar.is_zero() == (model.sign() == 0)
    rebuilt = Scalar(model.coeffs())
    assert scalar == rebuilt and hash(scalar) == hash(rebuilt)


model_coeffs = st.lists(
    st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 4))),
    ),
    min_size=8,
    max_size=8,
)


@given(model_coeffs, model_coeffs)
def test_scalar_agrees_with_fraction_model(p, q):
    x, y = Model(p), Model(q)
    a, b = Scalar(p), Scalar(q)
    assert_matches(a, x)
    assert_matches(a + b, x + y)
    assert_matches(a - b, x - y)
    assert_matches(a * b, x * y)
    assert_matches(a - a, x - x)
    assert (a == b) == (x.coeffs() == y.coeffs())
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@pytest.mark.parametrize("coeffs", [
    # a numerator beyond the float range, and a float sum beyond it
    [10**400, -1, 0, 0, 0, 0, 0, 0],
    [0, 1294 * 10**305, 0, 0, 0, -72 * 10**305, -18 * 10**306, -18 * 10**306],
    # p - q*sqrt2 = -1/(p + q*sqrt2) for p^2 - 2q^2 = -1: within the float margin
    [1607521, -1136689, 0, 0, 0, 0, 0, 0],
])
def test_exact_sign_cases_agree_with_fraction_model(coeffs):
    for sign in (1, -1):
        values = [sign * c for c in coeffs]
        assert_matches(Scalar(values), Model(values))
        half = Model([Fraction(1, 2)] + [0] * 7)
        assert_matches(Scalar(values) * HALF, Model(values) * half)


def test_tiny_power_agrees_with_fraction_model():
    scalar, model = ONE, Model([1] + [0] * 7)
    for _ in range(20):
        scalar, model = scalar * (SQRT2 - ONE), model * Model([-1, 1, 0, 0, 0, 0, 0, 0])
    assert_matches(scalar, model)
    assert_matches(-scalar, Model([0] * 8) - model)
