"""Shared fixtures: the six test systems and independent oracle models.

The oracle models implement the same groups through entirely different
representations (affine integer maps, permutations, integer matrices,
window notation, a standalone quadratic-field matrix model written here),
so brute-force enumerations over them are independent of the package's
root-based arithmetic.
"""

from fractions import Fraction
from itertools import product

import pytest

from garside import CoxeterSystem, make_system


def _dinf():
    return make_system(["s", "t"], {("s", "t"): 0}, "D-infinity")


def _s3():
    return make_system(["s", "t"], {("s", "t"): 3}, "I2(3)")


def _i24():
    return make_system(["s", "t"], {("s", "t"): 4}, "I2(4)")


def _affine_a2():
    return make_system(
        ["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}, "affine-A2"
    )


def _aa_product():
    return make_system(
        ["a", "b", "c", "d"], {("a", "b"): 0, ("c", "d"): 0}, "A1~xA1~"
    )


def _triangle_334():
    return make_system(
        ["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 4}, "triangle-334"
    )


def _affine_g2():
    return make_system(["s", "t", "u"], {("s", "t"): 6, ("t", "u"): 3}, "affine-G2")


_BUILDERS = {
    "dinf": _dinf,
    "s3": _s3,
    "i24": _i24,
    "affine_a2": _affine_a2,
    "aa_product": _aa_product,
    "triangle_334": _triangle_334,
    "affine_g2": _affine_g2,
}

_cache: dict[str, CoxeterSystem] = {}


def get_system(name: str) -> CoxeterSystem:
    if name not in _cache:
        _cache[name] = _BUILDERS[name]()
    return _cache[name]


# affine-G2 (labels 6, 3, 2) has shadows of up to 361 members: it serves the
# few tests that need large shadows and is left out of the common sweep
ALL_SYSTEMS = tuple(name for name in _BUILDERS if name != "affine_g2")
RANK2_SYSTEMS = ("dinf", "s3", "i24")
FINITE_SYSTEMS = ("s3", "i24")


@pytest.fixture(params=ALL_SYSTEMS)
def system(request) -> CoxeterSystem:
    return get_system(request.param)


@pytest.fixture
def dinf():
    return get_system("dinf")


@pytest.fixture
def s3():
    return get_system("s3")


@pytest.fixture
def i24():
    return get_system("i24")


@pytest.fixture
def affine_a2():
    return get_system("affine_a2")


@pytest.fixture
def triangle_334():
    return get_system("triangle_334")


@pytest.fixture
def aa_product():
    return get_system("aa_product")


# ---------------------------------------------------------------------------
# Oracle models


class OracleModel:
    """A concrete faithful model of a test group, independent of roots."""

    def __init__(self, gens, compose, identity):
        self.gens = gens
        self.compose = compose
        self.identity = identity


def _oracle_dinf():
    # maps x -> a*x + b on the integers, s: x -> -x, t: x -> 2 - x
    def compose(f, g):  # f after g? words act by right multiplication: (fg)
        return (f[0] * g[0], f[0] * g[1] + f[1])

    return OracleModel([(-1, 0), (-1, 2)], compose, (1, 0))


def _oracle_perm(n, gens):
    def compose(p, q):  # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(n))

    return OracleModel(gens, compose, tuple(range(n)))


def _oracle_i24():
    # reflections across the x-axis and the diagonal generate dihedral-8
    def mat_mul(a, b):
        return (
            (
                a[0][0] * b[0][0] + a[0][1] * b[1][0],
                a[0][0] * b[0][1] + a[0][1] * b[1][1],
            ),
            (
                a[1][0] * b[0][0] + a[1][1] * b[1][0],
                a[1][0] * b[0][1] + a[1][1] * b[1][1],
            ),
        )

    s = ((1, 0), (0, -1))
    t = ((0, 1), (1, 0))
    return OracleModel([s, t], mat_mul, ((1, 0), (0, 1)))


def _oracle_affine_a2():
    # window notation for the affine symmetric group on 3 letters:
    # f is the tuple (f(1), f(2), f(3)) of a bijection with f(x+3) = f(x)+3
    def evaluate(f, x):
        r = (x - 1) % 3
        return f[r] + (x - 1 - r)

    def compose(f, g):
        return tuple(evaluate(f, g[i]) for i in range(3))

    s1 = (2, 1, 3)
    s2 = (1, 3, 2)
    s0 = (0, 2, 4)  # swaps 3 and 4 periodically
    return OracleModel([s1, s2, s0], compose, (1, 2, 3))


def _oracle_product_of_dinf():
    base = _oracle_dinf()

    def compose(x, y):
        return (base.compose(x[0], y[0]), base.compose(x[1], y[1]))

    e = (base.identity, base.identity)
    gens = [
        (base.gens[0], base.identity),
        (base.gens[1], base.identity),
        (base.identity, base.gens[0]),
        (base.identity, base.gens[1]),
    ]
    return OracleModel(gens, compose, e)


def _oracle_triangle_334():
    # 3x3 reflection matrices over Q(sqrt2); entries are pairs (a, b) = a + b*sqrt2
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def qadd(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def qmul(x, y):
        return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def qscale(c, x):
        return (c * x[0], c * x[1])

    # Gram matrix: B(s,t) = B(t,u) = -1/2, B(s,u) = -sqrt2/2, diagonal 1
    half = Fraction(1, 2)
    gram = [
        [one, (-half, Fraction(0)), (Fraction(0), -half)],
        [(-half, Fraction(0)), one, (-half, Fraction(0))],
        [(Fraction(0), -half), (-half, Fraction(0)), one],
    ]

    def reflection(i):
        rows = []
        for r in range(3):
            row = []
            for c in range(3):
                entry = one if r == c else zero
                if r == i:
                    entry = qadd(entry, qscale(Fraction(-2), gram[i][c]))
                row.append(entry)
            rows.append(tuple(row))
        return tuple(rows)

    def mat_mul(a, b):
        out = []
        for r in range(3):
            row = []
            for c in range(3):
                acc = zero
                for k in range(3):
                    acc = qadd(acc, qmul(a[r][k], b[k][c]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    identity = tuple(
        tuple(one if r == c else zero for c in range(3)) for r in range(3)
    )
    return OracleModel([reflection(0), reflection(1), reflection(2)], mat_mul, identity)


_ORACLES = {
    "dinf": _oracle_dinf,
    "s3": lambda: _oracle_perm(3, [(1, 0, 2), (0, 2, 1)]),
    "i24": _oracle_i24,
    "affine_a2": _oracle_affine_a2,
    "aa_product": _oracle_product_of_dinf,
    "triangle_334": _oracle_triangle_334,
}

_oracle_ball_cache: dict[tuple[str, int], dict] = {}


def oracle_ball(name: str, radius: int) -> dict:
    """Brute-force word enumeration over the oracle model.

    Returns a dict keyed by oracle element value with entries
    (length, shortlex_word, frozenset_of_reduced_words); words are tuples
    of generator indices in the same order as the system's generators.
    """
    key = (name, radius)
    if key in _oracle_ball_cache:
        return _oracle_ball_cache[key]
    model = _ORACLES[name]()
    rank = len(model.gens)
    table: dict = {model.identity: (0, (), {()})}
    for length in range(1, radius + 1):
        for word in product(range(rank), repeat=length):
            value = model.identity
            for letter in word:
                value = model.compose(value, model.gens[letter])
            known = table.get(value)
            if known is None:
                table[value] = (length, word, {word})
            elif known[0] == length:
                known[2].add(word)
    out = {
        value: (length, word, frozenset(words))
        for value, (length, word, words) in table.items()
    }
    _oracle_ball_cache[key] = out
    return out


def oracle_eval(name: str, word) -> object:
    """Evaluate a word (generator indices) in the oracle model."""
    model = _ORACLES[name]()
    value = model.identity
    for letter in word:
        value = model.compose(value, model.gens[letter])
    return value
