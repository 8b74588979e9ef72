"""Exact arithmetic over the real field Q(sqrt2, sqrt3, sqrt5), as a tower.

A `Scalar` is a + b*w at one level k of the tower Q < Q(sqrt2) <
Q(sqrt2, sqrt3) < Q(sqrt2, sqrt3, sqrt5).  Levels 1, 2 and 3 adjoin
w = sqrt2, sqrt3 and phi = (1 + sqrt5)/2, with w^2 = p + q*w for (p, q) =
(2, 0), (3, 0) and (1, 1); there b is nonzero and a, b lie below level k,
as ints or as Scalars of a lower level.  Level 0 is Q: the reduced fraction
a/b with b > 0.  So the level and the pair are unique to the value, and
equality and hashing compare them; a rational Scalar hashes like its int or
Fraction.

2cos(pi/m) is 0, 1, sqrt2, phi, sqrt3 or 2 for m = 2, 3, 4, 5, 6 and
infinity: algebraic integers.  So the roots of a system with one label among
4, 5 and 6 have coordinates a + b*w with a and b ints, and those of a system
with labels 2, 3 and infinity only are plain ints (see `coxeter`).

Sign is exact and uses no float.  The conjugate w' of w is negative, so
a + b*w has the sign of a when a and b agree, and otherwise sign(a) times
the sign of the norm (a + b*w)(a + b*w') = a^2 + q*a*b - p*b^2, which lies
one level down.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, lcm, sqrt
from numbers import Rational
from sys import hash_info

#: Squarefree divisors of 30, indexing the basis (sqrt(1), sqrt(2), ..., sqrt(30)).
BASIS = (1, 2, 3, 5, 6, 10, 15, 30)

# per level: w^2 = _P[k] + _Q[k]*w, and w as a float
_P = (0, 2, 3, 1)
_Q = (0, 0, 0, 1)
_FLOAT_W = (0.0, sqrt(2), sqrt(3), (1 + sqrt(5)) / 2)


def sign_of(x) -> int:
    """Exact sign of an int or a Scalar: -1, 0 or +1."""
    if type(x) is Scalar:
        return x.sign()
    return (x > 0) - (x < 0)


@total_ordering
class Scalar:
    """An element of Q(sqrt2, sqrt3, sqrt5), hashable; its slots are never reassigned."""

    __slots__ = ("a", "b", "k")

    def __new__(cls, coeffs):
        """The value sum(c * sqrt(d)) of eight rational coefficients over BASIS."""
        coeffs = tuple(coeffs)
        if len(coeffs) != len(BASIS):
            raise ValueError(f"expected {len(BASIS)} coefficients, got {len(coeffs)}")
        out = ZERO
        for c, d in zip(coeffs, BASIS):
            out = out + cls.from_rational(c) * _SQRT[d]
        return out

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        if not isinstance(q, Rational):
            raise TypeError(f"not an int or a Fraction: {q!r}")
        return _rational(q.numerator, q.denominator)

    @classmethod
    def sqrt_of(cls, d: int) -> "Scalar":
        if d not in _SQRT:
            raise ValueError(f"sqrt({d}) is not in the supported field")
        return _SQRT[d]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        k = self.k
        if type(other) is int:
            return _make(self.a + other, self.b, k) if k else _make(self.a + other * self.b, self.b, 0)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        j = other.k
        if j == k:
            if not k:
                return _rational(self.a * other.b + other.a * self.b, self.b * other.b)
            b = self.b + other.b
            return _make(self.a + other.a, b, k) if b else _lift(self.a + other.a)
        if j > k:
            self, other, k = other, self, j
        return _make(self.a + _plain(other), self.b, k)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.k) if self.k else _make(-self.a, self.b, 0)

    def __sub__(self, other):
        k = self.k
        if type(other) is Scalar and other.k == k and k:
            b = self.b - other.b
            return _make(self.a - other.a, b, k) if b else _lift(self.a - other.a)
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        k = self.k
        if type(other) is int and (k or self.b == 1):
            return _make(self.a * other, self.b * other if k else 1, k) if other else ZERO
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        j = other.k
        if j == k:
            if not k:
                return _rational(self.a * other.a, self.b * other.b)
            a, b, c, e = self.a, self.b, other.a, other.b
            if not c and e == 1:  # times w, with w^2 = p + q*w
                a, b = _P[k] * b, a + b if _Q[k] else a
            else:
                be = b * e
                b = a * e + b * c
                if _Q[k]:
                    b = b + be
                a = a * c + _P[k] * be
            return _make(a, b, k) if b else _lift(a)
        if j > k:
            self, other, k = other, self, j
        if other.is_zero():
            return ZERO
        other = _plain(other)
        return _make(self.a * other, self.b * other, k)

    __rmul__ = __mul__

    # -- decisions --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.k and not self.a

    def __bool__(self):
        return bool(self.k or self.a)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1 (see the module docstring)."""
        a, b, k = self.a, self.b, self.k
        sa = sign_of(a)
        if not k:
            return sa
        sb = sign_of(b)
        if sa == sb or not sa:
            return sb
        return sa * sign_of(a * a + _Q[k] * a * b - _P[k] * b * b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            if type(other) is not int and not isinstance(other, Rational):
                return NotImplemented
            return not self.k and self.a == other.numerator and self.b == other.denominator
        return self.k == other.k and self.a == other.a and self.b == other.b

    def __lt__(self, other):
        if _coerce(other) is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        a, b, k = self.a, self.b, self.k
        if k:
            return hash((a, b, k))
        if b == 1:
            return hash(a)
        # as Fraction hashes a/b: a times the inverse of b modulo the hash prime
        m = hash_info.modulus
        return hash(abs(a) * pow(b, -1, m) % m * (1 if a > 0 else -1))

    def __float__(self):
        if not self.k:
            return self.a / self.b
        return float(self.a) + float(self.b) * _FLOAT_W[self.k]

    def __repr__(self):
        nums, den = _flat(self)
        terms = []
        for d in BASIS:
            n = nums.get(d, 0)
            if n == 0:
                continue
            g = gcd(n, den)
            c = str(n // g) if g == den else f"{n // g}/{den // g}"
            terms.append(c if d == 1 else f"{c}*r{d}")
        return " + ".join(terms) if terms else "0"


def _make(a, b, k: int) -> Scalar:
    """The Scalar a + b*w at level k, or a/b at level 0; every Scalar is made here."""
    out = object.__new__(Scalar)
    out.a, out.b, out.k = a, b, k
    return out


def _rational(n: int, d: int) -> Scalar:
    """The rational Scalar n/d, d > 0, in lowest terms."""
    g = gcd(n, d)
    return _make(n // g, d // g, 0)


def _coerce(x):
    if type(x) is Scalar:
        return x
    if isinstance(x, Rational):
        return _rational(x.numerator, x.denominator)
    return NotImplemented


def _lift(x) -> Scalar:
    """A component as a Scalar: itself, or an int at level 0."""
    return x if type(x) is Scalar else _make(x, 1, 0)


def _plain(x: Scalar):
    """A Scalar as a component: an int if it is one, else itself."""
    return x.a if not x.k and x.b == 1 else x


def _flat(x) -> tuple[dict[int, int], int]:
    """(nums, den) with x = sum(nums[d] * sqrt(d)) / den over BASIS."""
    if type(x) is not Scalar:
        return {1: x}, 1
    if not x.k:
        return {1: x.a}, x.b
    (na, da), (nb, db) = _flat(x.a), _flat(x.b)
    p = (0, 2, 3, 5)[x.k]
    # b*sqrt(p), or b*phi = (b + b*sqrt5)/2; b's basis elements are prime to p
    wb = {d * p: n for d, n in nb.items()}
    if p == 5:
        wb, db = {**nb, **wb}, 2 * db
    den = lcm(da, db)
    out = {d: n * (den // da) for d, n in na.items()}
    for d, n in wb.items():
        out[d] = out.get(d, 0) + n * (den // db)
    return out, den


ZERO = _make(0, 1, 0)
ONE = _make(1, 1, 0)
TWO = _make(2, 1, 0)
HALF = _make(1, 2, 0)
SQRT2 = _make(0, 1, 1)
SQRT3 = _make(0, 1, 2)
PHI = _make(0, 1, 3)
SQRT5 = _make(-1, 2, 3)
_SQRT = {1: ONE, 2: SQRT2, 3: SQRT3, 5: SQRT5, 6: SQRT2 * SQRT3,
         10: SQRT2 * SQRT5, 15: SQRT3 * SQRT5, 30: SQRT2 * SQRT3 * SQRT5}
