"""Exact arithmetic over the real field Q(sqrt2, sqrt3, sqrt5).

A value is (n_1 sqrt(1) + ... + n_8 sqrt(30)) / D over the eight squarefree
divisors d of 30: eight integer numerators over one positive denominator,
with gcd(n_1, ..., n_8, D) = 1, so equality and hashing compare ints.  Sign
is a float filter with a rigorous error margin, which only answers when the
margin rules out a wrong sign, then an exact interval refinement with integer
square roots.  That terminates because the sqrt(d) are linearly independent
over Q, so a nonzero combination is bounded away from zero.

This field contains 2*cos(pi/m) for m in {2, 3, 4, 5, 6} as well as the
value 2 used for unbounded edge labels, which is all the geometric
representation of the supported Coxeter systems needs.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, isfinite, isqrt, lcm, nan, sqrt
from numbers import Rational

#: Squarefree divisors of 30, indexing the basis (sqrt(1), sqrt(2), ..., sqrt(30)).
BASIS = (1, 2, 3, 5, 6, 10, 15, 30)
_INDEX = {d: i for i, d in enumerate(BASIS)}

# sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) with g = gcd(d1, d2).
_MUL = tuple(
    tuple((gcd(d1, d2), _INDEX[d1 * d2 // gcd(d1, d2) ** 2]) for d2 in BASIS)
    for d1 in BASIS
)

_ZEROS = (0,) * len(BASIS)


@total_ordering
class Scalar:
    """An element of Q(sqrt2, sqrt3, sqrt5), immutable and hashable."""

    __slots__ = ("nums", "den", "_hash")

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(BASIS):
            raise ValueError(f"expected {len(BASIS)} coefficients, got {len(coeffs)}")
        if not all(isinstance(c, Rational) for c in coeffs):
            raise TypeError(f"coefficients must be ints or Fractions: {coeffs}")
        den = lcm(*(c.denominator for c in coeffs))
        return _scalar(tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        return cls((q,) + _ZEROS[1:])

    @classmethod
    def sqrt_of(cls, d: int) -> "Scalar":
        if d not in _INDEX:
            raise ValueError(f"sqrt({d}) is not in the supported field")
        return cls([int(b == d) for b in BASIS])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return _scalar(tuple(a * p + b * q for a, b in zip(self.nums, other.nums)), den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = list(_ZEROS)
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            row = _MUL[i]
            for j, b in enumerate(other.nums):
                if b == 0:
                    continue
                g, k = row[j]
                out[k] += a * b * g
        return _scalar(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    # -- decisions --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        A floating-point evaluation with a rigorous error margin settles
        almost every call; the interval refinement below is the exact
        fallback for values too close to zero for floats to decide.  The
        denominator is positive, so the numerators alone decide.
        """
        nonzero = [(n, d) for n, d in zip(self.nums, BASIS) if n]
        if not nonzero:
            return 0
        if len(nonzero) == 1:
            return 1 if nonzero[0][0] > 0 else -1
        approx = 0.0
        magnitude = 1.0
        try:
            for n, d in nonzero:
                f = float(n)
                approx += f * _FLOAT_SQRT[d]
                magnitude += abs(f)
        except OverflowError:
            approx = nan  # a numerator beyond the float range
        # each term carries relative float error < 4 ulp, summed over <= 8 terms;
        # a sum that left the float range is inf or nan and decides nothing
        if isfinite(approx) and abs(approx) > 1e-11 * magnitude:
            return 1 if approx > 0 else -1
        # bounds on 2**bits times the value, from r <= 2**bits * sqrt(d) < r + 1
        bits = 32
        while True:
            lo = hi = 0
            for n, d in nonzero:
                r = isqrt(d << (2 * bits))
                lo += n * (r if n > 0 else r + 1)
                hi += n * (r + 1 if n > 0 else r)
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
        return self._hash == other._hash and self.nums == other.nums and self.den == other.den

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return self._hash

    def __float__(self):
        return float(sum((n / self.den) * sqrt(d) for n, d in zip(self.nums, BASIS)))

    def __repr__(self):
        terms = []
        for n, d in zip(self.nums, BASIS):
            if n == 0:
                continue
            g = gcd(n, self.den)
            c = str(n // g) if g == self.den else f"{n // g}/{self.den // g}"
            terms.append(c if d == 1 else f"{c}*r{d}")
        return " + ".join(terms) if terms else "0"


def _scalar(nums: tuple[int, ...], den: int) -> Scalar:
    """The Scalar nums / den, den > 0, reduced to lowest terms."""
    g = gcd(den, *nums)
    if g != 1:
        nums, den = tuple(n // g for n in nums), den // g
    out = object.__new__(Scalar)
    object.__setattr__(out, "nums", nums)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "_hash", hash((nums, den)))
    return out


def _coerce(x):
    if type(x) is Scalar:
        return x
    if isinstance(x, Rational):
        return Scalar.from_rational(x)
    return NotImplemented


_FLOAT_SQRT = {d: sqrt(d) for d in BASIS}

ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)
TWO = Scalar.from_rational(2)
HALF = _scalar((1,) + _ZEROS[1:], 2)
SQRT2 = Scalar.sqrt_of(2)
SQRT3 = Scalar.sqrt_of(3)
SQRT5 = Scalar.sqrt_of(5)
