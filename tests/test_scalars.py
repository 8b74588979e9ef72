import ast
import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, sqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from garside.scalars import PHI, SQRT2, SQRT3, Scalar, sign_of

SQRT5 = PHI + PHI - 1
# sqrt(d) for the squarefree divisors of 30
SQRT_OF = {1: 1, 2: SQRT2, 3: SQRT3, 5: SQRT5, 6: SQRT2 * SQRT3,
           10: SQRT2 * SQRT5, 15: SQRT3 * SQRT5, 30: SQRT2 * SQRT3 * SQRT5}
# a Z-basis of the ring Z[sqrt2, sqrt3, phi]
RING_BASIS = (1, SQRT2, SQRT3, PHI, SQRT2 * SQRT3, SQRT2 * PHI, SQRT3 * PHI,
              SQRT2 * SQRT3 * PHI)
_FLOAT_PHI = (1 + sqrt(5)) / 2
RING_FLOATS = (1.0, sqrt(2), sqrt(3), _FLOAT_PHI, sqrt(6), sqrt(2) * _FLOAT_PHI,
               sqrt(3) * _FLOAT_PHI, sqrt(6) * _FLOAT_PHI)


def combine(coeffs, basis):
    """sum(c * e) over the basis, by the ring operations under test."""
    out = 0
    for c, e in zip(coeffs, basis):
        out = out + c * e
    return out


def test_basic_identities():
    for square, n in ((SQRT2 * SQRT2, 2), (SQRT3 * SQRT3, 3), (SQRT5 * SQRT5, 5)):
        assert type(square) is int and square == n
    assert SQRT2 * SQRT_OF[6] == 2 * SQRT3
    assert SQRT_OF[10] * SQRT_OF[15] == 5 * SQRT_OF[6]
    assert SQRT_OF[30] * SQRT_OF[30] == 30


def test_golden_ratio_satisfies_its_equation():
    assert PHI * PHI == PHI + 1
    assert PHI * (PHI - 1) == 1 and type(PHI * (PHI - 1)) is int


def test_sign_of_close_values():
    # sqrt2 + sqrt3 - sqrt5 is about 0.91: close, but nonzero
    x = SQRT2 + SQRT3 - SQRT5
    assert x.sign() == 1
    # (sqrt2 - 1)^2 = 3 - 2*sqrt2, so their difference is the int 0
    y = (SQRT2 - 1) * (SQRT2 - 1) - (3 - 2 * SQRT2)
    assert y == 0 and type(y) is int and sign_of(y) == 0


def test_tiny_nonzero_sign_is_exact():
    # (sqrt2 - 1)^20 is ~ 1.1e-8; interval refinement must still resolve it
    x = 1
    for _ in range(20):
        x = x * (SQRT2 - 1)
    assert x.sign() == 1
    assert (-x).sign() == -1


def test_total_order_matches_floats():
    pairs = [(0, 0.0), (1, 1.0), (SQRT2, sqrt(2)), (SQRT3, sqrt(3)), (SQRT5, sqrt(5)),
             (PHI, _FLOAT_PHI), (SQRT2 + SQRT3, sqrt(2) + sqrt(3)), (-SQRT2, -sqrt(2)),
             (2, 2.0)]
    by_exact = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    by_float = sorted(range(len(pairs)), key=lambda i: pairs[i][1])
    assert by_exact == by_float


def test_equality_and_hash():
    a = SQRT2 + 1
    b = 1 + SQRT2
    assert a == b and hash(a) == hash(b)
    assert a != SQRT2
    # a Scalar never equals an int: a value in Z is always an int
    assert SQRT2 != 0 and PHI != 1 and (PHI + 1) - PHI == 1
    for same in ((SQRT2 + PHI) - PHI, (PHI + SQRT2) * (PHI - SQRT2) - PHI * PHI + 2 + SQRT2):
        assert same == SQRT2 and hash(same) == hash(SQRT2)


def test_only_ints_and_scalars_are_accepted():
    with pytest.raises(TypeError):
        Scalar([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError):
        Scalar()
    ops = (operator.add, operator.sub, operator.mul, operator.lt)
    for bad in (0.5, Fraction(1, 2), Fraction(2)):
        for op in ops:
            with pytest.raises(TypeError):
                op(SQRT2, bad)
            with pytest.raises(TypeError):
                op(bad, SQRT2)


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
            assert not {"fractions", "numbers"} & {n.split(".")[0] for n in names}, path.name


def test_scalars_module_uses_no_float():
    path = Path(__file__).resolve().parent.parent / "src" / "garside" / "scalars.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        assert not (isinstance(node, ast.Constant) and type(node.value) is float)
        assert not (isinstance(node, ast.Name) and node.id in ("float", "sqrt"))


ring_coeffs = st.lists(
    st.one_of(st.just(0), st.integers(-8, 8)), min_size=8, max_size=8
)
scalars = ring_coeffs.map(lambda coeffs: combine(coeffs, RING_BASIS))


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a * 0 == 0


@given(ring_coeffs)
def test_sign_consistent_with_float(coeffs):
    x = combine(coeffs, RING_BASIS)
    approx = sum(c * f for c, f in zip(coeffs, RING_FLOATS))
    if abs(approx) > 1e-9:
        assert sign_of(x) == (1 if approx > 0 else -1)
    assert sign_of(x - x) == 0 and type(x - x) is int


def test_sign_beyond_float_range_is_exact():
    huge = 10**400 - SQRT2
    assert huge.sign() == 1 and (-huge).sign() == -1
    # the sqrt2 term overflows to inf as a float, yet the sum is negative
    x = combine([0, 1294 * 10**305, 0, 0, 0, -72 * 10**305, -18 * 10**306, -18 * 10**306],
                SQRT_OF.values())
    assert x.sign() == -1 and (-x).sign() == 1


# ---------------------------------------------------------------------------
# Independent oracle: Fraction coefficients over sqrt(1), ..., sqrt(30),
# decimal signs

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

    def is_integer(self):
        return self.c[1].denominator == 1 and not any(x for d, x in self.c.items() if d != 1)

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


def model_int(n):
    return Model([n] + [0] * 7)


def model_sqrt(d):
    return Model([int(e == d) for e in MODEL_BASIS])


MODEL_PHI = Model([Fraction(1, 2), 0, 0, Fraction(1, 2), 0, 0, 0, 0])
MODEL_RING_BASIS = tuple(
    model_sqrt(d) * (MODEL_PHI if with_phi else model_int(1))
    for with_phi, d in ((0, 1), (0, 2), (0, 3), (1, 1), (0, 6), (1, 2), (1, 3), (1, 6))
)


def model_of(coeffs, basis=MODEL_RING_BASIS):
    out = model_int(0)
    for c, e in zip(coeffs, basis):
        out = out + model_int(c) * e
    return out


def rebuild(model):
    """The model's value rebuilt over the ring basis: sqrt5 = 2*phi - 1, so
    c*sqrt(d) + e*sqrt(5d) = (c - e)*sqrt(d) + 2e*sqrt(d)*phi."""
    c = model.c
    ring = {}
    for d in (1, 2, 3, 6):
        ring[d], ring[d, "phi"] = c[d] - c[5 * d], 2 * c[5 * d]
    order = (1, 2, 3, (1, "phi"), 6, (2, "phi"), (3, "phi"), (6, "phi"))
    coeffs = [ring[key] for key in order]
    assert all(x.denominator == 1 for x in coeffs), model
    return combine([int(x) for x in coeffs], RING_BASIS)


def level(x):
    """The tower level of an int or a Scalar, after checking its canonical
    form: an int, or a + b*w at a level k >= 1 with b nonzero and a, b below k."""
    if type(x) is int:
        return 0
    assert type(x) is Scalar and x.k in (1, 2, 3)
    assert level(x.a) < x.k and level(x.b) < x.k and not (type(x.b) is int and x.b == 0)
    return x.k


def assert_matches(x, model):
    """x, an int or a Scalar in canonical form, has the model's value."""
    level(x)
    assert repr(x) == repr(model)
    assert sign_of(x) == model.sign()
    assert (type(x) is int) == model.is_integer()
    rebuilt = rebuild(model)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@given(ring_coeffs, ring_coeffs, st.integers(-5, 5))
def test_scalar_agrees_with_fraction_model(p, q, n):
    x, y, m = model_of(p), model_of(q), model_int(n)
    a, b = combine(p, RING_BASIS), combine(q, RING_BASIS)
    assert_matches(a, x)
    assert_matches(a + b, x + y)
    assert_matches(a - b, x - y)
    assert_matches(a * b, x * y)
    assert_matches(a - a, x - x)
    assert_matches(n - a * n, m - x * m)
    assert a - a == 0 and type(a - a) is int
    assert (a == b) == (p == q)  # the ring basis is a Z-basis
    assert a * b == b * a and hash(a * b) == hash(b * a)
    c = (a + b) - b
    assert c == a and hash(c) == hash(a) and type(c) is type(a)


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
        x = combine(values, SQRT_OF.values())
        model = Model(values)
        assert_matches(x, model)
        assert_matches(x * PHI, model * MODEL_PHI)


def test_tiny_power_agrees_with_fraction_model():
    scalar, model = 1, model_int(1)
    for _ in range(20):
        scalar, model = scalar * (SQRT2 - 1), model * Model([-1, 1, 0, 0, 0, 0, 0, 0])
    assert_matches(scalar, model)
    assert_matches(-scalar, model_int(0) - model)
