"""Coxeter systems: elements, words, walls and exact group arithmetic.

A `CoxeterSystem` is built from a `CoxeterMatrix` (symmetric integer matrix,
``0`` encoding an unbounded label).  Group elements are kept in ShortLex
normal form under the declared generator order, and a system interns them:
one object per normal form, so equality of elements is identity.  Each
element carries its Cayley-graph edges, the products g*s and the inverse,
filled on first use, so multiplication is a lookup once an edge has been
walked (Casselman, Computation in Coxeter groups I).  All length and
descent decisions go through the geometric representation on roots,
computed exactly in the ring the labels need: root coordinates are plain
ints when every label is 2, 3 or infinity; otherwise a coordinate outside
Z is a `Scalar` of Z[sqrt2], Z[sqrt3] or Z[phi] (nested when several of
the labels 4, 5, 6 occur), and one in Z is still an int.  There is no
floating point and no tolerance anywhere.

The module also owns the group definition file format: an ordered list of
generator names followed by the matrix, rejected with line-precise errors
when malformed.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Iterator, Sequence

from .scalars import PHI, SQRT2, SQRT3, Scalar, sign_of

#: Serialized label value that stands for an unbounded (infinite) edge label.
INFINITE_LABEL = 0

# 2*cos(pi/m) for the supported finite labels; INFINITE_LABEL maps to 2.
_TWO_COS = {2: 0, 3: 1, 4: SQRT2, 5: PHI, 6: SQRT3, INFINITE_LABEL: 2}

SUPPORTED_LABELS = (2, 3, 4, 5, 6, INFINITE_LABEL)


class UnsupportedLabelError(ValueError):
    """A finite Coxeter label outside the exactly representable range."""


class GroupFileError(ValueError):
    """Malformed group definition file; message carries line/field detail."""


class MixedSystemError(ValueError):
    """Operands belong to different Coxeter systems."""


class InternalInconsistencyError(RuntimeError):
    """A theorem-guaranteed uniqueness or closure property failed: a bug."""


# ---------------------------------------------------------------------------
# Coxeter matrix and the group definition file


def _generator_name_fault(name: str) -> str | None:
    """Why `name` cannot name a generator, or None.  The text formats write
    the identity as '-', split names at whitespace, list words with ',' and
    start comments with '#', and the DOT export writes names inside '"'
    quotes, where '\\' escapes."""
    if name == "-":
        return "'-' names the identity, not a generator"
    if not name or any(c.isspace() or c in ',#"\\' for c in name):
        return f"generator name {name!r} is empty or holds whitespace, ',', '#', '\"' or '\\'"
    return None


@dataclass(frozen=True)
class CoxeterMatrix:
    """Ordered generator names with a symmetric label matrix (0 = infinity)."""

    generators: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        n = len(self.generators)
        if n == 0:
            raise ValueError("a Coxeter matrix needs at least one generator")
        for g in self.generators:
            fault = _generator_name_fault(g)
            if fault:
                raise ValueError(fault)
        if len(set(self.generators)) != n:
            raise ValueError("generator names must be distinct")
        name = self.name
        if name is not None and (
            name != name.strip() or "#" in name or len(name.splitlines()) != 1
        ):
            # the group file writes the name on one 'name:' line, strips it
            # and cuts it at '#'
            raise ValueError(
                f"display name {name!r} is empty, has outer whitespace or holds '#' or a line break"
            )
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"matrix must be {n}x{n}")
        for i in range(n):
            if self.entries[i][i] != 1:
                raise ValueError(f"diagonal entry m[{i},{i}] must be 1")
            for j in range(n):
                m = self.entries[i][j]
                if i != j and m != INFINITE_LABEL and m < 2:
                    raise ValueError(f"off-diagonal entry m[{i},{j}]={m} must be 0 or >= 2")
                if m != self.entries[j][i]:
                    raise ValueError(
                        f"matrix not symmetric: m[{i},{j}]={m} but m[{j},{i}]={self.entries[j][i]}"
                    )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def label(self, i: int, j: int) -> int:
        """Label between generators i and j; INFINITE_LABEL means unbounded."""
        return self.entries[i][j]

    def canonical_text(self) -> str:
        rows = "\n".join(" ".join(str(m) for m in row) for row in self.entries)
        return f"generators: {' '.join(self.generators)}\nmatrix:\n{rows}\n"

    def content_hash(self) -> str:
        return sha256(self.canonical_text().encode("utf-8")).hexdigest()


def parse_group_file(text: str) -> CoxeterMatrix:
    """Parse a group definition file.

    Format (UTF-8 text, '#' comments and blank lines ignored)::

        name: optional display name
        generators: s t u
        matrix:
        1 3 3
        3 1 3
        3 3 1

    The matrix uses 0 for an unbounded label.  Errors name the offending
    line and field; a repeated 'name:' or 'generators:' line is an error.
    """
    name: str | None = None
    generators: tuple[str, ...] | None = None
    rows: list[tuple[int, ...]] = []
    in_matrix = False
    matrix_line = 0
    seen: dict[str, int] = {}  # directive -> line of its first occurrence
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_matrix:
            fields = line.split()
            row = []
            for col, tok in enumerate(fields, start=1):
                try:
                    row.append(int(tok))
                except ValueError:
                    raise GroupFileError(
                        f"line {lineno}, entry {col}: {tok!r} is not an integer"
                    ) from None
            if generators is not None and len(row) != len(generators):
                raise GroupFileError(
                    f"line {lineno}: expected {len(generators)} entries, got {len(row)}"
                )
            rows.append(tuple(row))
            continue
        directive = line.split(":", 1)[0]
        if directive in seen:
            raise GroupFileError(
                f"line {lineno}: repeated '{directive}:' (first on line {seen[directive]})"
            )
        seen[directive] = lineno
        if line.startswith("name:"):
            name = line[len("name:"):].strip() or None
        elif line.startswith("generators:"):
            generators = tuple(line[len("generators:"):].split())
            if not generators:
                raise GroupFileError(f"line {lineno}: empty generator list")
            for g in generators:
                fault = _generator_name_fault(g)
                if fault:
                    raise GroupFileError(f"line {lineno}: {fault}")
        elif line.startswith("matrix:"):
            if generators is None:
                raise GroupFileError(f"line {lineno}: 'matrix:' before 'generators:'")
            if line != "matrix:":
                raise GroupFileError(f"line {lineno}: text after 'matrix:' on its line")
            in_matrix = True
            matrix_line = lineno
        else:
            raise GroupFileError(f"line {lineno}: unrecognized directive {line!r}")
    if generators is None:
        raise GroupFileError("missing 'generators:' line")
    if not in_matrix:
        raise GroupFileError("missing 'matrix:' section")
    if len(rows) != len(generators):
        raise GroupFileError(
            f"matrix starting at line {matrix_line}: expected {len(generators)} rows, got {len(rows)}"
        )
    try:
        return CoxeterMatrix(generators, tuple(rows), name)
    except ValueError as exc:
        raise GroupFileError(str(exc)) from None


def format_group_file(matrix: CoxeterMatrix) -> str:
    lines = []
    if matrix.name:
        lines.append(f"name: {matrix.name}")
    lines.append(f"generators: {' '.join(matrix.generators)}")
    lines.append("matrix:")
    lines.extend(" ".join(str(m) for m in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Roots


class Root:
    """A root in simple-root coordinates, each an int or, outside Z, a
    `Scalar`, so a value has one form; positive or negative, never mixed.

    A system interns the roots it hands out: one object per value, built
    once and kept under its coefficient tuple, with a dense `id` (simple
    roots first) and its negative as the partner that `-` and `abs` return.
    A root built outside a system has `id` None.  Equality and hashing
    compare values, so correctness never depends on interning.
    """

    __slots__ = ("coeffs", "_hash", "_sign", "id", "_neg")

    def __init__(self, coeffs: Sequence[int | Scalar]):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_hash", hash(self.coeffs))
        object.__setattr__(self, "_sign", 0)
        object.__setattr__(self, "id", None)
        object.__setattr__(self, "_neg", None)

    def __setattr__(self, name, value):
        raise AttributeError("Root is immutable")

    def sign(self) -> int:
        """+1 for a positive root, -1 for a negative one."""
        cached = self._sign
        if cached:
            return cached
        out = 0
        for c in self.coeffs:
            s = sign_of(c)
            if s == 0:
                continue
            if out == 0:
                out = s
            elif out != s:
                raise InternalInconsistencyError(
                    f"mixed-sign root coordinates: {self.coeffs}"
                )
        if out == 0:
            raise InternalInconsistencyError("zero vector is not a root")
        object.__setattr__(self, "_sign", out)
        return out

    def __neg__(self) -> "Root":
        return self._neg or Root(tuple(-c for c in self.coeffs))

    def abs(self) -> "Root":
        return self if self.sign() > 0 else -self

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Root):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Root({', '.join(repr(c) for c in self.coeffs)})"


# ---------------------------------------------------------------------------
# Words

Word = tuple[int, ...]  # generator indices under the declared order


def word_prefix(v: Word, i: int) -> Word:
    """The prefix of length min(i, |v|)."""
    if i < 0:
        raise ValueError("prefix index must be >= 0")
    return v[: min(i, len(v))]


def word_infix(v: Word, i: int, j: int) -> Word:
    """The subword of the length-j prefix with the length-(i-1) prefix removed."""
    if not 1 <= i <= j:
        raise ValueError("infix requires 1 <= i <= j")
    return word_prefix(v, j)[i - 1 :]


def shortlex_key(g: "Element") -> tuple[int, Word]:
    """Sort key of the ShortLex order under the declared generator order."""
    return len(g.word), g.word


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Elements


class Element:
    """A group element, identified with its ShortLex-least reduced word.

    Elements are interned by their system (`CoxeterSystem.element`), one
    object per normal form, so equality and hashing are identity; building
    one directly raises `TypeError`.  `mask` is its inversion set: bit i is
    set iff the interned root of id i separates it from the identity.
    `_right[s]` (g*s) and `_inverse` are its Cayley-graph neighbours, filled
    on first use by `right_multiply` and `inverse`; `element`, `multiply` and
    `inverse` walk `_right` and call `right_multiply` only where it is empty.
    """

    __slots__ = ("system", "word", "mask", "_right", "_inverse")

    def __new__(cls, *args, **kwargs):
        raise TypeError("elements are interned: build them with CoxeterSystem.element")

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "Element") -> "Element":
        return self.system.multiply(self, other)

    def inverse(self) -> "Element":
        return self.system.inverse(self)

    def is_identity(self) -> bool:
        return not self.word

    def __lt__(self, other: "Element") -> bool:
        """ShortLex order under the declared generator order."""
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __le__(self, other: "Element") -> bool:
        return self == other or self < other

    def __repr__(self):
        return f"<{self.system.render_word(self.word)}>"

    def __str__(self):
        return self.system.render_word(self.word)


def _new_element(system: "CoxeterSystem", word: Word, mask: int) -> Element:
    """A new element with no neighbours yet; only `CoxeterSystem._intern` calls it."""
    el = object.__new__(Element)
    object.__setattr__(el, "system", system)
    object.__setattr__(el, "word", word)
    object.__setattr__(el, "mask", mask)
    object.__setattr__(el, "_right", [None] * system.rank)
    object.__setattr__(el, "_inverse", None)
    return el


@dataclass(frozen=True)
class CayleyBall:
    """All elements of length <= radius, in ShortLex order."""

    radius: int
    elements: tuple[Element, ...]

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Element) -> bool:
        # elements[0] is the identity, so it names the ball's system
        return g.system is self.elements[0].system and g.length <= self.radius


# ---------------------------------------------------------------------------
# The system


class CoxeterSystem:
    """A finitely generated Coxeter system with exact root arithmetic.

    All values handed out (elements, roots, balls) are immutable; internal
    caches only grow and never change published results.  Results derived
    from the system elsewhere in the package live in its named memo tables
    (`cache`), so they are freed together with the system.
    """

    def __init__(self, matrix: CoxeterMatrix):
        for i in range(matrix.rank):
            for j in range(matrix.rank):
                if i != j and matrix.entries[i][j] not in _TWO_COS:
                    raise UnsupportedLabelError(
                        f"label m[{i},{j}]={matrix.entries[i][j]} not supported; "
                        f"supported labels are {SUPPORTED_LABELS} (0 = infinity)"
                    )
        self.matrix = matrix
        self.rank = matrix.rank
        self.generator_names = matrix.generators
        # between a written word's letters: nothing when every name is one
        # character, so the names concatenate, and a space otherwise
        self.word_separator = "" if all(len(n) == 1 for n in matrix.generators) else " "
        self._gen_index = {g: i for i, g in enumerate(matrix.generators)}
        # _two_b[s]: the pairs (t, 2B(alpha_s, alpha_t)) with a nonzero value,
        # 2 for t = s and -2cos(pi/m) otherwise: ints when m is 2, 3 or infinity
        self._two_b = tuple(
            tuple(
                (t, 2 if s == t else -_TWO_COS[matrix.entries[s][t]])
                for t in range(self.rank)
                if s == t or matrix.entries[s][t] != 2
            )
            for s in range(self.rank)
        )
        # interned roots by coefficient tuple and by id, and their images:
        # _reflections[s][id]
        self._canonical: dict[tuple, Root] = {}
        self._roots: list[Root] = []
        self._reflections = tuple([] for _ in range(self.rank))
        self.simple_roots = self._adopt(
            [tuple(int(t == s) for t in range(self.rank)) for s in range(self.rank)]
        )
        self._elements: dict[Word, Element] = {}
        self.identity = self._intern((), 0)
        object.__setattr__(self.identity, "_inverse", self.identity)
        self.gens = tuple(self._intern((s,), 1 << s) for s in range(self.rank))
        self._ball_layers: list[list[Element]] = [[self.identity]]
        # root_descent's tables; every descent ends at a simple root
        self._root_depth: dict[Root, int] = dict.fromkeys(self.simple_roots, 1)
        self._separation: dict[Root, int] = dict.fromkeys(self.simple_roots, 0)
        self._memo: dict[str, dict] = {}

    # -- basic plumbing ----------------------------------------------------

    def _intern(self, word: Word, mask: int | None = None) -> Element:
        """The element interned under a normal-form word; else, with no mask
        given, `element(word)` for any word."""
        el = self._elements.get(word)
        if el is None:
            if mask is None:
                return self.element(word)
            el = self._elements[word] = _new_element(self, word, mask)
        return el

    def _own(self, *elements: Element) -> None:
        for x in elements:
            if x.system is not self:
                raise MixedSystemError("elements from different systems")

    def cache(self, name: str) -> dict:
        """The memo table of that name for results derived from this system."""
        return self._memo.setdefault(name, {})

    def generator(self, name: str) -> Element:
        try:
            return self.gens[self._gen_index[name]]
        except (KeyError, TypeError):  # a name that cannot be hashed is unknown too
            raise ValueError(f"unknown generator {name!r}") from None

    def render_word(self, word: Word) -> str:
        """Deterministic textual form of a word; the empty word prints as '-'."""
        return self.word_separator.join(map(self.generator_names.__getitem__, word)) or "-"

    def parse_word(self, text: str) -> Word:
        text = text.strip()
        if text == "-" or not text:
            return ()
        if not self.word_separator and " " not in text:
            letters = list(text)
        else:
            letters = text.split()
        out = []
        for letter in letters:
            if letter not in self._gen_index:
                raise ValueError(f"unknown generator {letter!r} in word {text!r}")
            out.append(self._gen_index[letter])
        return tuple(out)

    # -- root action --------------------------------------------------------

    def _intern_root(self, root: Root) -> Root:
        """This system's canonical object for the value of root (see `Root`):
        root itself when it is the one of its id here, else looked up by value."""
        i, roots = root.id, self._roots
        if i is not None and i < len(roots) and roots[i] is root:
            return root
        return self._canonical.get(root.coeffs) or self._adopt((root.coeffs,))[0]

    def _adopt(self, values: Sequence[tuple]) -> tuple[Root, ...]:
        """Intern new roots of these coefficient tuples, then their negatives,
        numbering them in that order; returns the new roots."""
        roots = tuple(map(Root, values))
        negatives = [Root([-c for c in root.coeffs]) for root in roots]
        for root, neg in (*zip(roots, negatives), *zip(negatives, roots)):
            object.__setattr__(root, "_neg", neg)
            object.__setattr__(root, "id", len(self._roots))
            self._canonical[root.coeffs] = root
            self._roots.append(root)
            for row in self._reflections:
                row.append(None)
        return roots

    def reflect(self, s: int, root: Root) -> Root:
        """Apply the simple reflection for generator index s to a root.

        The result is this system's interned root (see `Root`), read from
        the one reflection table `_reflections[s][id]`; a root from elsewhere
        is first looked up by value.  Entries are filled on first use, for
        the root, its image and their negatives (s_s is a linear involution);
        an image is looked up by its coefficients and built only if new.
        """
        root = self._intern_root(root)
        row = self._reflections[s]
        out = row[root.id]
        if out is None:
            coeffs = list(root.coeffs)
            coeffs[s] = coeffs[s] - self._pairing(s, root)
            coeffs = tuple(coeffs)
            out = self._canonical.get(coeffs) or self._adopt((coeffs,))[0]
            row[root.id], row[out.id] = out, root
            row[root._neg.id], row[out._neg.id] = out._neg, root._neg
        return out

    def _pairing(self, s: int, root: Root) -> int | Scalar:
        """2B(alpha_s, root) for the standard symmetric form with B(alpha, alpha) = 1."""
        coeffs, c = root.coeffs, 0
        for t, w in self._two_b[s]:
            x = coeffs[t]
            if x:
                c = c + w * x
        return c

    def act_word(self, word: Word, root: Root) -> Root:
        """Image of a root under the element represented by `word`."""
        out, table = self._intern_root(root), self._reflections
        for s in reversed(word):
            out = table[s][out.id] or self.reflect(s, out)
        return out

    def act_inverse_word(self, word: Word, root: Root) -> Root:
        """Image of a root under the inverse of the element of `word`."""
        return self.act_word(word[::-1], root)

    def _reflect_mask(self, s: int, mask: int) -> int:
        """The mask of the images under s of the roots of a mask, the union
        of their bits, read off the mask's bits lowest first."""
        row, roots, out = self._reflections[s], self._roots, 0
        while mask:
            low = mask & -mask
            k = low.bit_length() - 1
            out |= 1 << (row[k] or self.reflect(s, roots[k])).id
            mask ^= low
        return out

    # -- normal forms --------------------------------------------------------

    def right_multiply(self, g: Element, s: int) -> Element:
        """Normal form of g * (generator s), found in one scan of g's word.

        A suffix x = w[i:] of g's normal form w starts with its smallest left
        descent, and x*s changes x's inversion set by gamma_i = x(alpha_s)
        only.  So the first i with gamma_{i+1} = alpha_w[i] drops w[i], the
        first with gamma_i = alpha_t, t < w[i], inserts t; else s is appended.
        The edge is stored on both ends: (g*s)*s = g.
        """
        if g.system is not self:
            raise MixedSystemError("elements from different systems")
        out = g._right[s]
        if out is not None:
            return out
        word, table = g.word, self._reflections
        gammas = [self.simple_roots[s]]
        for a in reversed(word):
            gammas.append(table[a][gammas[-1].id] or self.reflect(a, gammas[-1]))
        gammas.reverse()
        # gammas are interned, and alpha_t is the root of id t < rank
        for i, a in enumerate(word):
            if gammas[i + 1].id == a:
                out = word[:i] + word[i + 1 :]
                break
            if gammas[i].id < a:
                out = word[:i] + (gammas[i].id,) + word[i:]
                break
        else:
            if gammas[0].sign() < 0:
                raise InternalInconsistencyError(f"no letter of {word} drops for descent {s}")
            out = word + (int(s),)  # a bool letter is stored as its int
        out = self._intern(out, g.mask ^ (1 << gammas[0].abs().id))
        g._right[s] = out
        out._right[s] = g
        return out

    def element(self, word) -> Element:
        """Normal form of an arbitrary word (string, names, or indices),
        walked over the stored edges as in `multiply`; a bool reads as its int."""
        if isinstance(word, str):
            word = self.parse_word(word)
        g, rank = self.identity, self.rank
        for s in word:
            if type(s) is not int:
                s = int(s) if isinstance(s, int) else self.generator(s).word[0]
            if not 0 <= s < rank:
                raise ValueError(f"generator index {s} out of range")
            g = g._right[s] or self.right_multiply(g, s)
        return g

    def multiply(self, g: Element, h: Element) -> Element:
        if g.system is not self or h.system is not self:
            raise MixedSystemError("elements from different systems")
        out = g
        for s in h.word:
            out = out._right[s] or self.right_multiply(out, s)
        return out

    def left_multiply(self, s: int, g: Element) -> Element:
        """Normal form of (generator s) * g: s then g's, with no walk over g,
        where s is no left descent of g and N(s g) = {alpha_s} + s N(g) holds
        no alpha_t with t < s (s is then its least left descent); else `multiply`.
        The gate walks (`shi.walk_gates`) do not call it: the fallback is off their path."""
        self._own(g)
        if g.mask >> s & 1 or self._reflect_mask(s, (1 << s) - 1) & g.mask:
            return self.multiply(self.gens[s], g)
        return self._intern((int(s),) + g.word, 1 << s | self._reflect_mask(s, g.mask))

    def inverse(self, g: Element) -> Element:
        """g^-1, stored on g and on g^-1 when first built."""
        if g.system is not self:
            raise MixedSystemError("elements from different systems")
        out = g._inverse
        if out is None:
            out = self.identity
            for s in reversed(g.word):
                out = out._right[s] or self.right_multiply(out, s)
            object.__setattr__(g, "_inverse", out)
            object.__setattr__(out, "_inverse", g)
        return out

    def word_metric(self, g: Element, h: Element) -> int:
        """d(g, h) = l(g^{-1} h), the number of walls separating g and h:
        the popcount of the XOR of their inversion bitmasks."""
        self._own(g, h)
        return (g.mask ^ h.mask).bit_count()

    # -- descents, inversions, walls ----------------------------------------

    def descents(self, g: Element, side: str) -> frozenset[str]:
        """Generators s with l(sg) < l(g) (left) or l(gs) < l(g) (right): bit s
        (the id of alpha_s) of the mask of g (left) or of g^-1 (right)."""
        self._own(g)
        if side == "left":
            mask = g.mask
        elif side == "right":
            mask = self.inverse(g).mask
        else:
            raise ValueError("side must be 'left' or 'right'")
        return frozenset(self.generator_names[s] for s in range(self.rank) if mask >> s & 1)

    def inversion_walls(self, g: Element) -> frozenset[Root]:
        """Positive roots of the walls separating the identity from g.

        There are exactly l(g) of them; g <= h in right weak order iff the
        set for g is contained in the set for h.  A view built from g's
        inversion bitmask (see `Element`), one root per set bit.
        """
        return self.separating_walls(self.identity, g)

    def separating_walls(self, g: Element, h: Element) -> frozenset[Root]:
        """Walls with g and h in different half-spaces; size equals d(g, h).
        Read off the XOR of their inversion bitmasks."""
        self._own(g, h)
        return frozenset(self._roots[k] for k in set_bits(g.mask ^ h.mask))

    def is_suffix(self, w: Element, g: Element) -> bool:
        """True iff g = u*w with l(g) = l(u) + l(w): iff w^-1 <= g^-1 in the
        right weak order, read off the inverses' masks."""
        self._own(w, g)
        mask = self.inverse(w).mask
        return self.inverse(g).mask & mask == mask

    # -- balls ----------------------------------------------------------------

    def ball(self, radius: int) -> CayleyBall:
        """All elements of length <= radius, ShortLex-ordered, cached.

        A layer holds the products g*s, g in the previous layer in order and
        s ascending, that grow and end in s: each element once, in order.
        Once a layer is empty the group is finite and the ball is all of it.
        """
        if radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {radius}")
        while len(self._ball_layers) <= radius and self._ball_layers[-1]:
            layer = []
            for g in self._ball_layers[-1]:
                for s in range(self.rank):
                    h = self.right_multiply(g, s)
                    if h.length > g.length and h.word[-1] == s:
                        layer.append(h)
            self._ball_layers.append(layer)
        flat: list[Element] = []
        for layer in self._ball_layers[: radius + 1]:
            flat.extend(layer)
        return CayleyBall(radius, tuple(flat))

    def ball_walls(self, radius: int) -> tuple[Root, ...]:
        """Positive roots of all walls dual to an edge met by the ball."""
        walls = set()
        for g in self.ball(radius):
            for s in range(self.rank):
                walls.add(self.act_word(g.word, self.simple_roots[s]).abs())
        return tuple(sorted(walls, key=self.root_sort_key))

    # -- root descent -----------------------------------------------------------

    def root_descent(self, root: Root) -> tuple[int, int]:
        """Depth of a wall's positive root, and the walls separating it from id.

        The depth is the minimal length of w with w(root) negative; the
        vertex-to-wall distance in the Cayley graph is depth - 1.  One walk
        descends the root graph to a simple root, always through the first
        s with B(alpha_s, root) > 0, and records both values on the way:
        every step adds one to the depth, and a step with 2B >= 2 also sheds
        exactly one separating wall, while a step with 0 < 2B < 2 sheds none.
        """
        root = root.abs()
        depths, counts = self._root_depth, self._separation
        depth = depths.get(root)
        if depth is not None:
            return depth, counts[root]
        chain: list[tuple[Root, int]] = []
        current = root
        while current not in depths:
            for s in range(self.rank):
                b = self._pairing(s, current)
                if sign_of(b) > 0:
                    chain.append((current, 1 if sign_of(b - 2) >= 0 else 0))
                    current = self.reflect(s, current)
                    break
            else:
                raise InternalInconsistencyError(
                    f"positive root with no descent direction: {current}"
                )
        depth, count = depths[current], counts[current]
        for r, bump in reversed(chain):
            depth += 1
            count += bump
            depths[r], counts[r] = depth, count
        return depth, count

    def root_depth(self, root: Root) -> int:
        """Depth of a positive root (see `root_descent`)."""
        depth = self._root_depth.get(root.abs())
        return depth if depth is not None else self.root_descent(root)[0]

    def root_sort_key(self, root: Root):
        """Deterministic total order on roots: by depth, then coordinates."""
        return (self.root_depth(root), root.coeffs)

    def render_root(self, root: Root) -> str:
        """The root as a sum of simple roots; a coefficient of several terms
        is bracketed."""
        parts = []
        for name, c in zip(self.generator_names, root.coeffs):
            if c == 1:
                parts.append(f"a_{name}")
            elif c:
                text = repr(c)
                parts.append(f"({text})*a_{name}" if " + " in text else f"{text}*a_{name}")
        return " + ".join(parts) if parts else "0"


def make_system(
    generators: Sequence[str], labels: dict[tuple[str, str], int], name: str | None = None
) -> CoxeterSystem:
    """Convenience constructor: unlisted pairs default to label 2 (commuting).

    A label naming an unknown generator, or a pair labelled twice in both
    orders with different values, raises ValueError."""
    gens = tuple(generators)
    index = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    entries = [[2] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = 1
    given: dict[frozenset, int] = {}
    for (a, b), m in labels.items():
        for g in (a, b):
            if g not in index:
                raise ValueError(f"label of ({a!r}, {b!r}) names unknown generator {g!r}")
        pair = frozenset((a, b))
        if given.setdefault(pair, m) != m:
            raise ValueError(f"pair ({a!r}, {b!r}) is labelled both {given[pair]} and {m}")
        i, j = index[a], index[b]
        entries[i][j] = m
        entries[j][i] = m
    return CoxeterSystem(CoxeterMatrix(gens, tuple(tuple(r) for r in entries), name))
