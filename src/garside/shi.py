"""Small roots, Shi sign patterns, and the gates of the Shi partitions.

A wall is m-elementary when at most m walls separate it from the identity
vertex.  Two independent routes compute these sets:

* the fast route walks the root graph outward from the simple roots,
  updating the separation count by +1, 0 or -1 under a simple reflection
  as 2B(alpha_s, root), read off the reflected root, is <= -2, strictly
  between -2 and 2, or >= 2;
* the oracle route counts separating walls directly from the definition on
  a finite Cayley ball, using nothing but half-space signs.

The fast route is only trusted where the two agree; the test suite holds
them against each other on every supported system.  The count of a single
wall comes from the inward walk, `CoxeterSystem.root_descent`, which the
tests also hold against the outward walk.

`sign_patterns` walks the reachable sign patterns over the m-elementary
walls once; they are the states of the canonical reduced-word automaton
(`automata.canonical_automaton`), and the gate of each m-Shi part is the
inverse of the shortest word realizing its pattern (`shi_gates`).  The
tests check the gates against per-part minima computed naively on balls.
Whether one element is a gate is decided locally, from the least m for
which it is m-low (`low_index`, read by `is_shi_gate`); the tests hold that
against the definition, a scan of the length-l(g) ball.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .coxeter import (
    CoxeterSystem,
    Element,
    InternalInconsistencyError,
    Root,
    Word,
)
from .scalars import sign_of

_MAX_ROOTS = 200_000  # size limit of both walks; the sets are provably finite


class RootLimitExceeded(Exception):
    """The small-root or sign-pattern walk for some m outgrew `_MAX_ROOTS`:
    the set is finite, but too large to enumerate here."""


@dataclass(frozen=True)
class SmallRootSet:
    """The m-elementary walls of a system: in `root_sort_key` order, as a set
    and as a bitmask over root ids.  A simple reflection of one of them is
    found with `system.reflect`; it stays m-elementary iff it is in `roots`.
    """

    system: CoxeterSystem
    m: int
    ordered: tuple[Root, ...]
    roots: frozenset[Root]
    mask: int

    def __len__(self):
        return len(self.ordered)

    def __contains__(self, root: Root) -> bool:
        return root in self.roots


@dataclass(frozen=True)
class SignVector:
    """Which m-elementary walls separate a vertex from the identity."""

    bits: tuple[bool, ...]

    def __len__(self):
        return len(self.bits)


def separation_count(system: CoxeterSystem, root: Root) -> int:
    """Number of walls separating the identity vertex from this wall.

    Read off the descent walk of `CoxeterSystem.root_descent`.
    """
    return system.root_descent(root)[1]


def elementary_walls(system: CoxeterSystem, m: int) -> SmallRootSet:
    """The finite set of m-elementary walls (fast root-graph route)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    per_system = system.cache("small_roots")
    if m in per_system:
        return per_system[m]

    values: dict[Root, int] = {alpha: 0 for alpha in system.simple_roots}
    queue: deque[Root] = deque(system.simple_roots)
    while queue:
        beta = queue.popleft()
        n_beta = values[beta]
        for s in range(system.rank):
            if beta == system.simple_roots[s]:
                continue
            gamma = system.reflect(s, beta)
            # s(beta) = beta - 2B(alpha_s, beta) alpha_s
            two_b = beta.coeffs[s] - gamma.coeffs[s]
            if sign_of(two_b - 2) >= 0:
                delta = -1
            elif sign_of(two_b + 2) <= 0:
                delta = 1
            else:
                delta = 0
            n_gamma = n_beta + delta
            known = values.get(gamma)
            if known is not None:
                if known != n_gamma:
                    raise InternalInconsistencyError(
                        f"separation count mismatch at {gamma}: {known} vs {n_gamma}"
                    )
                continue
            values[gamma] = n_gamma
            if n_gamma <= m:
                queue.append(gamma)
                if len(values) > _MAX_ROOTS:
                    raise RootLimitExceeded(
                        f"the small-root walk for m={m} passed {_MAX_ROOTS} roots"
                    )

    kept = [root for root, n in values.items() if n <= m]
    ordered = tuple(sorted(kept, key=system.root_sort_key))
    mask = sum(1 << root.id for root in kept)
    out = per_system[m] = SmallRootSet(system, m, ordered, frozenset(kept), mask)
    return out


# ---------------------------------------------------------------------------
# Oracle route: wall counting on a ball, straight from the definition


def wall_separation_oracle(system: CoxeterSystem, radius: int) -> dict[Root, int]:
    """For each wall met by the ball, count the walls separating it from id.

    A wall W' separates id from W when every vertex adjacent to W lies on
    the far side of W'.  Both the wall universe and the adjacent-vertex sets
    are truncated to the ball, so counts are only reliable when the ball is
    comfortably larger than the walls under scrutiny; the tests pin radii
    where this holds.
    """
    ball = system.ball(radius)
    adjacency: dict[Root, list[Element]] = {}
    for g in ball:
        for s in range(system.rank):
            wall = system.act_word(g.word, system.simple_roots[s]).abs()
            adjacency.setdefault(wall, []).append(g)
    inversions = {g: system.inversion_walls(g) for g in ball}
    counts: dict[Root, int] = {}
    for beta, vertices in adjacency.items():
        n = 0
        for gamma in adjacency:
            if gamma == beta:
                continue
            if all(gamma in inversions[x] for x in vertices):
                n += 1
        counts[beta] = n
    return counts


def elementary_walls_oracle(system: CoxeterSystem, m: int, radius: int) -> tuple[Root, ...]:
    """m-elementary walls per the ball-restricted wall-count definition."""
    counts = wall_separation_oracle(system, radius)
    return tuple(
        sorted((r for r, c in counts.items() if c <= m), key=system.root_sort_key)
    )


# ---------------------------------------------------------------------------
# Closeness, sign vectors, gates


def m_close(wall: Root, g: Element, m: int) -> bool:
    """True iff at most m walls separate g from the given wall."""
    system = g.system
    moved = system.act_inverse_word(g.word, wall).abs()
    return separation_count(system, moved) <= m


def shi_sign_vector(g: Element, m: int) -> SignVector:
    """Membership pattern of g against the m-elementary walls.

    Two elements lie in the same m-Shi part iff their vectors are equal.
    """
    srs = elementary_walls(g.system, m)
    return SignVector(tuple(g.mask >> root.id & 1 == 1 for root in srs.ordered))


def sign_patterns(
    system: CoxeterSystem, m: int
) -> tuple[list[Word], list[tuple[int, int, int]]]:
    """The reachable m-Shi sign patterns, walked breadth-first from id.

    Returns a shortest (ShortLex-first) reduced word for each pattern, in
    the order the walk finds them, and the transitions ``(i, s, j)``:
    reading the non-descent letter s in pattern i leads to pattern j.
    Patterns are tracked on inverses: reading a reduced word for g keeps
    the set of m-elementary walls sent negative by g, which is the
    separation pattern of g^{-1}.  The reachable patterns are the states
    of the canonical reduced-word automaton, so the walk terminates.
    """
    roots = elementary_walls(system, m).roots
    states: list[frozenset] = [frozenset()]
    index: dict[frozenset, int] = {states[0]: 0}
    witnesses: list[Word] = [()]
    transitions: list[tuple[int, int, int]] = []
    # `states` grows as new patterns are found; reading it in order is the BFS
    for i, state in enumerate(states):
        for s in range(system.rank):
            alpha = system.simple_roots[s]
            if alpha in state:
                continue  # s is a descent: not a reduced continuation
            nxt = {alpha}
            for gamma in state:
                image = system.reflect(s, gamma)
                if image in roots:
                    nxt.add(image)
            key = frozenset(nxt)
            j = index.get(key)
            if j is None:
                j = index[key] = len(states)
                states.append(key)
                witnesses.append(witnesses[i] + (s,))
            transitions.append((i, s, j))
        if len(states) > _MAX_ROOTS:
            raise RootLimitExceeded(
                f"the sign-pattern walk for m={m} passed {_MAX_ROOTS} patterns"
            )
    return witnesses, transitions


def shi_gates(system: CoxeterSystem, m: int) -> tuple[Element, ...]:
    """Gates of the m-Shi partition, ShortLex sorted: the m-low elements.

    One gate per reachable sign pattern; the gate is the unique weak-order
    minimum of its part, obtained as the inverse of the shortest word
    whose element sends exactly that pattern of m-elementary walls
    negative.
    """
    per_system = system.cache("shi_gates")
    if m in per_system:
        return per_system[m]
    witnesses, _ = sign_patterns(system, m)
    out = per_system[m] = _inverses_sorted(system, witnesses)
    return out


def _inverses_sorted(system: CoxeterSystem, words) -> tuple[Element, ...]:
    """The inverses of the elements of reduced words, ShortLex sorted.  The
    reversed word is a reduced word of the inverse, so each takes one walk."""
    return tuple(sorted(system.element(word[::-1]) for word in words))


def low_index(g: Element) -> int:
    """The least m for which g is m-low: the largest separation count over
    the walls between g and g*s, for the right descents s of g (bit s of the
    mask of g^-1); 0 for the identity.

    Parts are convex, so g is the minimum of its m-Shi part iff each of
    those walls is m-elementary (Dyer & Hohlweg, Adv. Math. 2016).
    """
    system = g.system
    right = system.inverse(g).mask
    below = (system.right_multiply(g, s) for s in range(system.rank) if right >> s & 1)
    walls = (wall for h in below for wall in system.separating_walls(g, h))
    return max((separation_count(system, wall) for wall in walls), default=0)


def is_shi_gate(g: Element, m: int) -> bool:
    """True iff g is the minimum of its m-Shi part (an m-low element)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return low_index(g) <= m
