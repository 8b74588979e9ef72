"""Reference models of the three benchmark groups, written without garside.

Each model represents group elements by concrete values that compose
exactly, so a word can be evaluated and two words compared without any of
the package's root arithmetic:

* affine-A2 as affine permutations of Z in window notation;
* triangle-334 as 3x3 matrices of the geometric representation, with
  entries a + b*sqrt(2) in Q(sqrt 2).  The generator matrices have integer
  a and b, so every product does too and the arithmetic stays in Python
  ints;
* A1~xA1~ as pairs of affine maps x -> a*x + b of Z.

A breadth-first search over the model gives, for every element of a ball,
its length and its ShortLex-least word.  Words are tuples of generator
indices in the declared generator order.
"""

from __future__ import annotations


class Model:
    """A faithful model of one Coxeter group on concrete values."""

    def __init__(self, name, generators, gens, identity, compose, group_text):
        self.name = name
        self.generators = generators
        self.gens = gens
        self.identity = identity
        self.compose = compose
        self.group_text = group_text
        self._index = {g: i for i, g in enumerate(generators)}
        # layers[n] maps each element of length n to its ShortLex-least word
        self._layers = [{identity: ()}]
        self._length = {identity: 0}

    # -- words ---------------------------------------------------------------

    def parse(self, text: str) -> tuple[int, ...]:
        """A word as printed by garside: '-' is empty, letters concatenate."""
        text = text.strip()
        if text in ("", "-"):
            return ()
        letters = list(text) if " " not in text else text.split()
        return tuple(self._index[x] for x in letters)

    def render(self, word) -> str:
        return "".join(self.generators[i] for i in word) if word else "-"

    def times_generator(self, value, letter: int):
        return self.compose(value, self.gens[letter])

    def evaluate(self, word):
        value = self.identity
        for letter in word:
            value = self.times_generator(value, letter)
        return value

    def prefix_values(self, word) -> list:
        """Values of every prefix of the word, the empty prefix first."""
        out = [self.identity]
        for letter in word:
            out.append(self.times_generator(out[-1], letter))
        return out

    # -- the ball ------------------------------------------------------------

    def _grow(self, radius: int) -> None:
        while len(self._layers) <= radius:
            previous = self._layers[-1]
            layer = {}
            # previous words in ShortLex order, letters in order: the first
            # word reaching a new element is its ShortLex-least word
            for value, word in sorted(previous.items(), key=lambda kv: kv[1]):
                for letter in range(len(self.gens)):
                    image = self.times_generator(value, letter)
                    if image not in self._length:
                        self._length[image] = len(self._layers)
                        layer[image] = word + (letter,)
            self._layers.append(layer)

    def ball_size(self, radius: int) -> int:
        self._grow(radius)
        return sum(len(layer) for layer in self._layers[: radius + 1])

    def ball_values(self, radius: int) -> set:
        self._grow(radius)
        return {v for layer in self._layers[: radius + 1] for v in layer}

    def length(self, value, at_most: int) -> int | None:
        """Length of an element if it is at most `at_most`, else None."""
        self._grow(at_most)
        n = self._length.get(value)
        return n if n is not None and n <= at_most else None

    def normal_form(self, value, at_most: int):
        """ShortLex-least word of an element of length <= at_most, else None."""
        n = self.length(value, at_most)
        return None if n is None else self._layers[n][value]

    def is_reduced(self, word) -> bool:
        return self.length(self.evaluate(word), len(word)) == len(word)


# ---------------------------------------------------------------------------
# affine-A2: window notation


def _affine_a2() -> Model:
    def evaluate(f, x):
        r = (x - 1) % 3
        return f[r] + (x - 1 - r)

    def compose(f, g):
        return tuple(evaluate(f, g[i]) for i in range(3))

    gens = [(2, 1, 3), (1, 3, 2), (0, 2, 4)]  # s1, s2 and the affine s0
    text = "name: affine-A2\ngenerators: s t u\nmatrix:\n1 3 3\n3 1 3\n3 3 1\n"
    return Model("affine-A2", ("s", "t", "u"), gens, (1, 2, 3), compose, text)


# ---------------------------------------------------------------------------
# triangle-334: matrices over Q(sqrt 2), entries (a, b) = a + b*sqrt(2)


def _qmul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sign(x) -> int:
    """Exact sign of a + b*sqrt(2)."""
    a, b = x
    if a >= 0 and b >= 0:
        return 0 if a == 0 and b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: compare a^2 with 2 b^2
    return (1 if a > 0 else -1) if a * a > 2 * b * b else (1 if b > 0 else -1)


def _triangle_334() -> Model:
    zero, one = (0, 0), (1, 0)
    # c[i][j] = -2 B(alpha_i, alpha_j) = 2 cos(pi / m_ij) off the diagonal
    c = [
        [None, (1, 0), (0, 1)],
        [(1, 0), None, (1, 0)],
        [(0, 1), (1, 0), None],
    ]

    def reflection(i):
        # column j is s_i(alpha_j) = alpha_j + c_ij alpha_i; column i is -alpha_i
        rows = []
        for r in range(3):
            row = []
            for col in range(3):
                if r == i:
                    row.append((-1, 0) if col == i else c[i][col])
                else:
                    row.append(one if r == col else zero)
            rows.append(tuple(row))
        return tuple(rows)

    def compose(a, b):
        return tuple(
            tuple(
                _qadd(_qadd(_qmul(a[r][0], b[0][col]), _qmul(a[r][1], b[1][col])),
                      _qmul(a[r][2], b[2][col]))
                for col in range(3)
            )
            for r in range(3)
        )

    def times_generator(a, i):
        # a * s_i: column i of a is negated and added, scaled by c_ij, to column j
        return tuple(
            tuple((-x[0], -x[1]) if col == i else _qadd(row[col], _qmul(x, c[i][col]))
                  for col, _ in enumerate(row))
            for row in a for x in (row[i],)
        )

    identity = tuple(tuple(one if r == col else zero for col in range(3)) for r in range(3))
    gens = [reflection(i) for i in range(3)]
    text = "name: triangle-334\ngenerators: s t u\nmatrix:\n1 3 4\n3 1 3\n4 3 1\n"
    model = Model("triangle-334", ("s", "t", "u"), gens, identity, compose, text)
    model.times_generator = times_generator
    model.is_reduced = lambda word: _matrix_reduced(model, word)
    return model


def _matrix_reduced(model: Model, word) -> bool:
    """l(ps) > l(p) iff p(alpha_s) is a positive root, checked at every prefix.

    Needs no ball, so it serves words of any length."""
    value = model.identity
    for letter in word:
        if any(q_sign(row[letter]) < 0 for row in value):
            return False
        value = model.times_generator(value, letter)
    return True


# ---------------------------------------------------------------------------
# A1~ x A1~: pairs of affine maps of Z


def _aa_product() -> Model:
    def affine(f, g):  # f after g
        return (f[0] * g[0], f[0] * g[1] + f[1])

    def compose(x, y):
        return (affine(x[0], y[0]), affine(x[1], y[1]))

    e = (1, 0)
    s, t = (-1, 0), (-1, 2)  # x -> -x and x -> 2 - x generate D-infinity
    gens = [(s, e), (t, e), (e, s), (e, t)]
    text = "name: A1~xA1~\ngenerators: a b c d\nmatrix:\n1 0 2 2\n0 1 2 2\n2 2 1 0\n2 2 0 1\n"
    return Model("A1~xA1~", ("a", "b", "c", "d"), gens, (e, e), compose, text)


MODELS = {
    "affine-A2": _affine_a2,
    "triangle-334": _triangle_334,
    "A1~xA1~": _aa_product,
}

_built: dict[str, Model] = {}


def model(name: str) -> Model:
    if name not in _built:
        _built[name] = MODELS[name]()
    return _built[name]


def mlow_size(group: str, m: int) -> int | None:
    """Closed-form number of m-low elements, where one is known.

    affine-A2: the m-low elements gate the regions of the (m+1)-Shi
    arrangement of A2, and there are (3(m+1)+1)^2 of those (Shi;
    Athanasiadis).  A1~xA1~: each A1~ factor has 2m+3 m-low elements, and
    the m-low elements of a product are the products of theirs.
    """
    if group == "affine-A2":
        return (3 * (m + 1) + 1) ** 2
    if group == "A1~xA1~":
        return (2 * m + 3) ** 2
    return None
