"""Small roots, Shi sign patterns, and the gates of the Shi partitions.

A wall is m-elementary when at most m walls separate it from the identity
vertex.  Two independent routes compute the set E_m of these walls:

* the fast route walks the root graph outward from the simple roots, one
  depth at a time, updating the separation count by +1, 0 or -1 under a
  simple reflection as 2B(alpha_s, root), read off the reflected root, is
  <= -2, strictly between -2 and 2, or >= 2;
* the oracle route counts separating walls directly from the definition on
  a finite Cayley ball, using nothing but half-space signs.

The fast route is only trusted where the two agree; the test suite holds
them against each other on every supported system.  The outward walk
keeps the depth and count of each wall it finds; the count of any single
wall comes from the inward walk, `CoxeterSystem.root_descent`, which the
tests also hold against the outward walk.

E_m is numbered in its sorted order, `SmallRootSet.ordered`: bit k of a
sign pattern is the k-th wall, as in `shi_sign_vector`.  `sign_patterns`
walks the reachable patterns, held as ints, once; they are the states of
the canonical reduced-word automaton (`automata.canonical_automaton`).
Along the walk it gives the gates of the m-Shi parts, each read off a
shorter one by masks with no group product (`walk_gates`), and their
table, L_m's (`gate_walk`).  The tests check the gates against part minima
on balls and the left-product walk, the table against the below-x scan,
and the walk against one over root sets.  Whether one element is a gate is
decided from the least m for which it is m-low (`low_index`, read by
`is_shi_gate`); the tests hold that against a scan of the length-l(g) ball.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .coxeter import (CoxeterSystem, Element, InternalInconsistencyError, Root, Word, set_bits,
                      shortlex_key)
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
    `depths` and `counts` give each wall of `ordered` the depth and the
    separation count that the walk met it at, as `root_descent` gives them.
    """

    system: CoxeterSystem
    m: int
    ordered: tuple[Root, ...]
    roots: frozenset[Root]
    mask: int
    depths: tuple[int, ...]
    counts: tuple[int, ...]

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
    """Walls separating the identity vertex from this wall (`root_descent`)."""
    return system.root_descent(root)[1]


def elementary_walls(system: CoxeterSystem, m: int) -> SmallRootSet:
    """The finite set of m-elementary walls (fast root-graph route), sorted
    by the depths the walk finds, as `root_sort_key` sorts them."""
    if m < 0:
        raise ValueError("m must be >= 0")
    per_system = system.cache("small_roots")
    if m in per_system:
        return per_system[m]

    # Separation counts by root id (alpha_s has id s).  The walk goes by layers,
    # the kept roots of depth 1, 2, ...: a kept root's descent path is kept, so
    # it is met first from the layer below it, by a step with 2B < 0.
    values: dict[int, int] = dict.fromkeys(range(system.rank), 0)
    queue, sizes = deque(system.simple_roots), []  # sizes[d - 1]: the roots of depth d
    while queue:
        sizes.append(len(queue))  # the queue holds one whole layer
        for _ in range(sizes[-1]):
            beta = queue.popleft()
            n_beta = values[beta.id]
            for s in range(system.rank):
                if beta.id == s:
                    continue
                gamma = system.reflect(s, beta)
                # s(beta) = beta - 2B(alpha_s, beta) alpha_s
                two_b = beta.coeffs[s] - gamma.coeffs[s]
                # the count drops by one where 2B >= 2 and grows by one where 2B <= -2
                delta = -1 if sign_of(two_b - 2) >= 0 else int(sign_of(two_b + 2) <= 0)
                n_gamma = n_beta + delta
                known = values.get(gamma.id)
                if known is not None:
                    if known != n_gamma:
                        raise InternalInconsistencyError(
                            f"separation count mismatch at {gamma}: {known} vs {n_gamma}"
                        )
                    continue
                values[gamma.id] = n_gamma
                if n_gamma <= m:
                    if delta < 0 or not delta and sign_of(two_b) > 0:
                        raise InternalInconsistencyError(f"{gamma} met from above its depth")
                    queue.append(gamma)
                    if len(values) > _MAX_ROOTS:
                        raise RootLimitExceeded(
                            f"the small-root walk for m={m} passed {_MAX_ROOTS} roots"
                        )
    # `values` met the kept roots layer by layer; sort each layer by coordinates
    kept = iter([system._roots[i] for i, n in values.items() if n <= m])
    ordered = tuple(r for n in sizes for r in sorted(islice(kept, n), key=lambda r: r.coeffs))
    mask = sum(1 << root.id for root in ordered)
    depths = tuple(d for d, n in enumerate(sizes, 1) for _ in range(n))
    counts = tuple(values[root.id] for root in ordered)
    out = per_system[m] = SmallRootSet(system, m, ordered, frozenset(ordered), mask, depths, counts)
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
    return tuple(sorted((r for r, c in counts.items() if c <= m), key=system.root_sort_key))


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


def sign_patterns(system: CoxeterSystem, m: int) -> tuple[list[Word], list[tuple[int, int, int]]]:
    """The reachable m-Shi sign patterns, walked breadth-first from id.

    Returns a shortest (ShortLex-first) reduced word for each pattern, in
    the order the walk finds them, and the transitions ``(i, s, j)``:
    reading the non-descent letter s in pattern i leads to pattern j.
    Patterns are tracked on inverses: reading a reduced word for g keeps
    the set of m-elementary walls sent negative by g, which is the
    separation pattern of g^{-1}.  The reachable patterns are the states
    of the canonical reduced-word automaton, so the walk terminates.  A
    pattern is an int over E_m, bit k for `ordered[k]`: reading s maps its
    set bits through one table of images, and s is a descent iff the bit of
    alpha_s is set.
    """
    ordered = elementary_walls(system, m).ordered
    bit = {root.id: 1 << k for k, root in enumerate(ordered)}
    reflect = lambda s, beta: system._reflections[s][beta.id] or system.reflect(s, beta)
    # img[s][k]: the bit of s(beta_k), 0 when that image leaves E_m
    img = [[bit.get(reflect(s, beta).id, 0) for beta in ordered] for s in range(system.rank)]
    simple = [bit[s] for s in range(system.rank)]  # alpha_s has root id s
    states, index = [0], {0: 0}
    witnesses, transitions = [()], []
    # `states` grows as new patterns are found; reading it in order is the BFS
    for i, state in enumerate(states):
        for s, alpha in enumerate(simple):
            if state & alpha:
                continue  # s is a descent: not a reduced continuation
            # the union of alpha_s and the kept images of the state's walls
            key, row, rest = alpha, img[s], state
            while rest:
                low = rest & -rest
                key |= row[low.bit_length() - 1]
                rest ^= low
            j = index.get(key)
            if j is None:
                j = index[key] = len(states)
                states.append(key)
                witnesses.append(witnesses[i] + (s,))
            transitions.append((i, s, j))
        if len(states) > _MAX_ROOTS:
            raise RootLimitExceeded(f"the sign-pattern walk for m={m} passed {_MAX_ROOTS} patterns")
    return witnesses, transitions


def shi_gates(system: CoxeterSystem, m: int) -> tuple[Element, ...]:
    """Gates of the m-Shi partition, ShortLex sorted: the m-low elements,
    one per reachable sign pattern, each the weak-order minimum of its part."""
    return gate_walk(system, m)[0]


def gate_walk(system: CoxeterSystem, m: int):
    """`walk_gates` of the sign-pattern walk, kept per system: the m-Shi
    partition is the partition by projection onto L_m (Dyer & Hohlweg, Adv.
    Math. 2016), so the walk's table is L_m's delta."""
    per_system = system.cache("shi_gates")
    if m not in per_system:
        per_system[m] = walk_gates(system, *sign_patterns(system, m))
    return per_system[m]


def walk_gates(system: CoxeterSystem, states, transitions):
    """The gates of a breadth-first walk from id over reduced words (one per
    state), ShortLex sorted, and its transitions (i, s, j) as a table on
    their ranks: delta[rank i][s] = rank j, None where no transition is.
    State j's gate is the inverse of its shortest witness; the first
    transition into j extends the witness of i by s, so gate_j = s gate_i,
    of mask alpha_s + s N(gate_i).  Its normal form is its least left
    descent t, then y = t gate_j's: gate_i if t = s, else a gate walked
    before, found by mask (the gates are suffix-closed), with no product."""
    gates, by_mask = [system.identity] + [None] * (len(states) - 1), {0: system.identity}
    for i, s, j in transitions:
        if gates[j] is None:
            y, mask = gates[i], 1 << s | system._reflect_mask(s, gates[i].mask)
            t = (mask & -mask).bit_length() - 1  # bit s is set, so t <= s
            if t != s and (y := by_mask.get(system._reflect_mask(t, mask ^ 1 << t))) is None:
                raise InternalInconsistencyError(
                    f"gate {system.render_word((s,) + gates[i].word)} by letter "
                    f"{system.generator_names[s]}: its suffix after {system.generator_names[t]} "
                    f"was not walked before it; the walk is not breadth-first")
            gates[j] = by_mask[mask] = system._intern((t,) + y.word, mask)
    order = sorted(range(len(gates)), key=lambda k: shortlex_key(gates[k]))
    rank = {k: a for a, k in enumerate(order)}
    delta = [[None] * system.rank for _ in order]
    for i, s, j in transitions:
        delta[rank[i]][s] = rank[j]
    return tuple(map(gates.__getitem__, order)), delta


def low_index(g: Element) -> int:
    """The least m for which g is m-low: the largest separation count over
    the walls between g and g*s, for the right descents s of g (bit s of the
    mask of g^-1); 0 for the identity.  The wall is the one set bit of the
    XOR of the inversion masks of g and g*s.

    Parts are convex, so g is the minimum of its m-Shi part iff each of
    those walls is m-elementary (Dyer & Hohlweg, Adv. Math. 2016).
    """
    system = g.system
    out = 0
    for s in set_bits(system.inverse(g).mask & (1 << system.rank) - 1):
        wall = (g.mask ^ system.right_multiply(g, s).mask).bit_length() - 1
        out = max(out, separation_count(system, system._roots[wall]))
    return out


def is_shi_gate(g: Element, m: int) -> bool:
    """True iff g is the minimum of its m-Shi part (an m-low element)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return low_index(g) <= m
