"""Exact arithmetic in the ring Z[sqrt2, sqrt3, phi], as a tower.

A `Scalar` is a + b*w at one level k of the tower Z < Z[sqrt2] <
Z[sqrt2, sqrt3] < Z[sqrt2, sqrt3, phi].  Levels 1, 2 and 3 adjoin
w = sqrt2, sqrt3 and phi = (1 + sqrt5)/2, with w^2 = p + q*w for (p, q) =
(2, 0), (3, 0) and (1, 1).  The coefficient b is nonzero, and a and b lie
below level k, as ints or as Scalars of a lower level.  There is no level
0: a value in Z is a plain int, never a Scalar, and every operation whose
result lies in Z returns an int.  So the level and the pair are unique to
the value, equality and hashing compare them, and a Scalar never equals an
int.

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
from math import gcd, lcm

#: Squarefree divisors of 30, indexing the basis (sqrt(1), sqrt(2), ..., sqrt(30)).
BASIS = (1, 2, 3, 5, 6, 10, 15, 30)

# per level: w^2 = _P[k] + _Q[k]*w
_P = (0, 2, 3, 1)
_Q = (0, 0, 0, 1)


def sign_of(x) -> int:
    """Exact sign of an int or a Scalar: -1, 0 or +1."""
    if type(x) is Scalar:
        return x.sign()
    return (x > 0) - (x < 0)


@total_ordering
class Scalar:
    """An element of Z[sqrt2, sqrt3, phi] outside Z, hashable; its slots
    are never reassigned.  Scalars come from SQRT2, SQRT3 and PHI by
    arithmetic with ints and each other, never from a constructor."""

    __slots__ = ("a", "b", "k")

    def __new__(cls, *args, **kwargs):
        raise TypeError("Scalars come from SQRT2, SQRT3 and PHI by arithmetic")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        k = self.k
        if type(other) is int:
            return _make(self.a + other, self.b, k)
        if type(other) is not Scalar:
            return NotImplemented
        j = other.k
        if j == k:
            b = self.b + other.b
            return _make(self.a + other.a, b, k) if b else self.a + other.a
        if j > k:
            self, other, k = other, self, j
        return _make(self.a + other, self.b, k)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.k)

    def __sub__(self, other):
        k = self.k
        if type(other) is Scalar and other.k == k:
            b = self.b - other.b
            return _make(self.a - other.a, b, k) if b else self.a - other.a
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        k = self.k
        if type(other) is int:
            return _make(self.a * other, self.b * other, k) if other else 0
        if type(other) is not Scalar:
            return NotImplemented
        j = other.k
        if j == k:
            a, b, c, e = self.a, self.b, other.a, other.b
            if not c and e == 1:  # times w, with w^2 = p + q*w
                a, b = _P[k] * b, a + b if _Q[k] else a
            else:
                be = b * e
                b = a * e + b * c
                if _Q[k]:
                    b = b + be
                a = a * c + _P[k] * be
            return _make(a, b, k) if b else a
        if j > k:
            self, other, k = other, self, j
        return _make(self.a * other, self.b * other, k)

    __rmul__ = __mul__

    # -- decisions --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1 or +1 (see the module docstring)."""
        a, b, k = self.a, self.b, self.k
        sa, sb = sign_of(a), sign_of(b)
        if sa == sb or not sa:
            return sb
        return sa * sign_of(a * a + _Q[k] * a * b - _P[k] * b * b)

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented
        return self.k == other.k and self.a == other.a and self.b == other.b

    def __lt__(self, other):
        if type(other) is not int and type(other) is not Scalar:
            return NotImplemented
        return sign_of(self - other) < 0

    def __hash__(self):
        return hash((self.a, self.b, self.k))

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
    """The Scalar a + b*w at level k >= 1, b nonzero; every Scalar is made here."""
    out = object.__new__(Scalar)
    out.a, out.b, out.k = a, b, k
    return out


def _flat(x) -> tuple[dict[int, int], int]:
    """(nums, den) with x = sum(nums[d] * sqrt(d)) / den over BASIS."""
    if type(x) is not Scalar:
        return {1: x}, 1
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


SQRT2 = _make(0, 1, 1)
SQRT3 = _make(0, 1, 2)
PHI = _make(0, 1, 3)
