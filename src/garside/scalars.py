"""Exact arithmetic over the real field Q(sqrt2, sqrt3, sqrt5).

Every value is stored as a rational linear combination of sqrt(d) for the
eight squarefree divisors d of 30.  Addition, multiplication, equality and
sign are exact; no floating point enters any decision.  Sign is computed
by interval refinement with integer square roots, which terminates because
the sqrt(d) are linearly independent over Q, so a nonzero combination is
bounded away from zero.

This field contains 2*cos(pi/m) for m in {2, 3, 4, 5, 6} as well as the
value 2 used for unbounded edge labels, which is all the geometric
representation of the supported Coxeter systems needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isfinite, isqrt, nan, sqrt

#: Squarefree divisors of 30, indexing the basis (sqrt(1), sqrt(2), ..., sqrt(30)).
BASIS = (1, 2, 3, 5, 6, 10, 15, 30)
_INDEX = {d: i for i, d in enumerate(BASIS)}

# sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2).
_MUL = tuple(
    tuple((gcd(d1, d2), _INDEX[d1 * d2 // gcd(d1, d2) ** 2]) for d2 in BASIS)
    for d1 in BASIS
)

_ZERO = Fraction(0)
_COERCIBLE = (int, Fraction)


@total_ordering
class Scalar:
    """An element of Q(sqrt2, sqrt3, sqrt5), immutable and hashable."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != len(BASIS):
            raise ValueError(f"expected {len(BASIS)} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        c = [_ZERO] * len(BASIS)
        c[0] = Fraction(q)
        return cls(c)

    @classmethod
    def sqrt_of(cls, d: int) -> "Scalar":
        if d not in _INDEX:
            raise ValueError(f"sqrt({d}) is not in the supported field")
        c = [_ZERO] * len(BASIS)
        c[_INDEX[d]] = Fraction(1)
        return cls(c)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Scalar([-a for a in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [_ZERO] * len(BASIS)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = _MUL[i]
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                g, k = row[j]
                out[k] += a * b * g
        return Scalar(out)

    __rmul__ = __mul__

    # -- decisions --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        A floating-point evaluation with a rigorous error margin settles
        almost every call; the interval refinement below is the exact
        fallback for values too close to zero for floats to decide.
        """
        nonzero = [(c, d) for c, d in zip(self.coeffs, BASIS) if c != 0]
        if not nonzero:
            return 0
        if len(nonzero) == 1:
            return 1 if nonzero[0][0] > 0 else -1
        approx = 0.0
        magnitude = 1.0
        try:
            for c, d in nonzero:
                cf = float(c)
                approx += cf * _FLOAT_SQRT[d]
                magnitude += abs(cf)
        except OverflowError:
            approx = nan  # a coefficient beyond the float range
        # each term carries relative float error < 4 ulp, summed over <= 8 terms;
        # a sum that left the float range is inf or nan and decides nothing
        if isfinite(approx) and abs(approx) > 1e-11 * magnitude:
            return 1 if approx > 0 else -1
        bits = 32
        while True:
            lo = hi = _ZERO
            for c, d in nonzero:
                if d == 1:
                    lo += c
                    hi += c
                    continue
                r = isqrt(d << (2 * bits))
                slo = Fraction(r, 1 << bits)
                shi = Fraction(r + 1, 1 << bits)
                if c > 0:
                    lo += c * slo
                    hi += c * shi
                else:
                    lo += c * shi
                    hi += c * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
            if bits > 1 << 16:  # unreachable for nonzero values
                raise ArithmeticError(f"sign refinement did not converge: {self!r}")

    def __eq__(self, other):
        if self is other:
            return True
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.coeffs == other.coeffs

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return self._hash

    def __float__(self):
        return float(sum(float(c) * sqrt(d) for c, d in zip(self.coeffs, BASIS)))

    def __repr__(self):
        terms = []
        for c, d in zip(self.coeffs, BASIS):
            if c == 0:
                continue
            terms.append(str(c) if d == 1 else f"{c}*r{d}")
        return " + ".join(terms) if terms else "0"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, _COERCIBLE):
        return Scalar.from_rational(x)
    return NotImplemented


_FLOAT_SQRT = {d: sqrt(d) for d in BASIS}

ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)
TWO = Scalar.from_rational(2)
SQRT2 = Scalar.sqrt_of(2)
SQRT3 = Scalar.sqrt_of(3)
SQRT5 = Scalar.sqrt_of(5)
