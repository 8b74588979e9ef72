"""The right weak order: comparisons, meets, bounded joins, lower intervals.

g precedes h when g lies on a geodesic from the identity to h; equivalently
no wall separates g from both the identity and h.  The wall test, one `&`
of inversion bitmasks, is the working one; the length test l(g) + l(g^-1 h)
= l(h), by a normal-form product, is kept as its oracle.  Meets and joins
materialise lower intervals, which is deliberate: these routines serve as
oracles for everything downstream, so clarity and exhaustiveness win over
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coxeter import CoxeterSystem, Element, InternalInconsistencyError


@dataclass(frozen=True)
class WeakOrderInterval:
    """The set of elements below a fixed top in the right weak order."""

    top: Element
    members: tuple[Element, ...]
    member_set: frozenset[Element]

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, g: Element) -> bool:
        return g in self.member_set


@dataclass(frozen=True)
class NoUpperBoundWithin:
    """Verdict of a bounded join search: nothing found inside the cutoff ball.

    This never asserts nonexistence; an upper bound may live beyond the ball.
    """

    radius: int


def weak_leq(g: Element, h: Element) -> bool:
    """g <= h in right weak order (wall characterisation)."""
    g.system._own(h)
    return g.mask & h.mask == g.mask


def weak_leq_by_lengths(g: Element, h: Element) -> bool:
    """The equivalent length characterisation: l(g) + l(g^-1 h) = l(h)."""
    system = g.system
    return g.length + system.multiply(system.inverse(g), h).length == h.length


def _fold_below(g: Element, table: str, fold):
    """The value at g of a fold down the weak order: the value of x is
    fold(x, [(s, value of x*s) for each right descent s of x]), memoised in
    the system's table of that name.  The right descents of x are the set
    bits of the mask of x^-1.  An explicit stack replaces recursion."""
    system = g.system
    cache = system.cache(table)
    stack = [g]
    while stack:
        x = stack[-1]
        if x in cache:
            stack.pop()
            continue
        right = system.inverse(x).mask
        below = [(s, system.right_multiply(x, s)) for s in range(system.rank) if right >> s & 1]
        pending = [y for _, y in below if y not in cache]
        if pending:
            stack.extend(pending)
        else:
            cache[stack.pop()] = fold(x, [(s, cache[y]) for s, y in below])
    return cache[g]


def _lower_set(g: Element) -> frozenset[Element]:
    fold = lambda x, below: frozenset({x}.union(*(v for _, v in below)))
    return _fold_below(g, "lower_sets", fold)


def lower_interval(g: Element) -> WeakOrderInterval:
    """All x with x <= g: exactly the prefixes of reduced words of g."""
    members = _lower_set(g)
    return WeakOrderInterval(g, tuple(sorted(members)), members)


def meet(elements: Iterable[Element]) -> Element:
    """Greatest common lower bound of a nonempty set (always exists)."""
    elements = list(elements)
    if not elements:
        raise ValueError("meet of an empty set")
    common = _lower_set(elements[0])
    for g in elements[1:]:
        if g.system is not elements[0].system:
            raise ValueError("meet across different systems")
        common &= _lower_set(g)
    best = max(common, key=lambda x: (x.length, x.word))
    for c in common:
        if not weak_leq(c, best):
            raise InternalInconsistencyError(
                f"meet candidates not gathered under {best}: {c} incomparable"
            )
    return best


def join_bounded(elements: Iterable[Element], bound: Element) -> Element:
    """Least upper bound of a set all of whose members lie below `bound`."""
    elements = list(elements)
    if not elements:
        raise ValueError("join of an empty set")
    for a in elements:
        if not weak_leq(a, bound):
            raise ValueError(f"precondition violated: {a} is not below {bound}")
    candidates = [
        x for x in _lower_set(bound) if all(weak_leq(a, x) for a in elements)
    ]
    best = min(candidates, key=lambda x: (x.length, x.word))
    for c in candidates:
        if not weak_leq(best, c):
            raise InternalInconsistencyError(
                f"join candidates not generated over {best}: {c} incomparable"
            )
    return best


def join_search(elements: Iterable[Element], cutoff: int):
    """Join if some common upper bound exists in the cutoff ball.

    Returns the join `Element`, or `NoUpperBoundWithin(cutoff)`.  A negative
    verdict leaves existence beyond the ball undecided.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("join of an empty set")
    system: CoxeterSystem = elements[0].system
    for x in system.ball(cutoff):
        if all(weak_leq(a, x) for a in elements):
            return join_bounded(elements, x)
    return NoUpperBoundWithin(cutoff)
