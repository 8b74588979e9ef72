"""The right weak order: comparisons, meets, joins, lower intervals.

g precedes h when g lies on a geodesic from the identity to h; equivalently
no wall separates g from both the identity and h.  The wall test, one `&`
of inversion bitmasks, is the working one; the length test l(g) + l(g^-1 h)
= l(h), by a normal-form product, is kept as its oracle.  Meets and joins
build no lower interval: a meet climbs from the identity inside the AND of
the members' masks, and a join is decided exactly by a scan of the m-low
elements, returning None when no upper bound exists anywhere in the group.
Folds down the order give lower intervals and reduced words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable

from .coxeter import Element, shortlex_key
from .shi import low_index, shi_gates


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


def reduced_words(g: Element) -> frozenset:
    """All reduced words of g (minimal-length words evaluating to it): a
    reduced word of g*s then s, for each right descent s; () for the identity.
    They are the maximal chains of the lower interval [e, g]."""
    fold = lambda x, below: (
        frozenset(w + (s,) for s, ws in below for w in ws) or frozenset({()})
    )
    return _fold_below(g, "reduced_words", fold)


def lower_interval(g: Element) -> WeakOrderInterval:
    """All x with x <= g: exactly the prefixes of reduced words of g."""
    members = _lower_set(g)
    return WeakOrderInterval(g, tuple(sorted(members, key=shortlex_key)), members)


def meet(elements: Iterable[Element]) -> Element:
    """Greatest common lower bound of a nonempty set (always exists).

    The common lower bounds are the elements whose masks lie inside the AND
    of the members' masks, and they form the interval [e, meet] (Björner &
    Brenti, GTM 231, ch. 3).  So climbing from the identity by any letter
    that lengthens the element and keeps its mask inside the AND ends at the
    meet, and only there."""
    elements = list(elements)
    if not elements:
        raise ValueError("meet of an empty set")
    system = elements[0].system
    system._own(*elements)
    return _climb_inside(system, reduce(and_, (g.mask for g in elements)))


def _climb_inside(system, allowed: int) -> Element:
    """Climb from the identity by any letter that lengthens the element and
    keeps its mask inside `allowed`.  Where the elements with masks inside it
    have a largest one, the climb ends there: they are a lower set."""
    x = system.identity
    while True:
        for s in range(system.rank):
            y = x._right[s] or system.right_multiply(x, s)
            if len(y.word) > len(x.word) and y.mask & allowed == y.mask:
                x = y
                break
        else:
            return x


def _first_above(candidates, elements) -> Element | None:
    """The first of the candidates above every element, or None."""
    above = (x for x in candidates if all(a.mask & x.mask == a.mask for a in elements))
    return next(above, None)


def join(elements: Iterable[Element]) -> Element | None:
    """Least common upper bound of a nonempty set, or None if there is none.

    For the largest `low_index` m of the members, L_m, the m-low elements, is
    a finite Garside shadow holding every member (Dyer & Hohlweg, Adv. Math.
    2016), so it holds their join whenever one exists.  The join is the
    shortest common upper bound, so it is the ShortLex-first gate above every
    member, and if no gate lies above them all, nothing in the group does."""
    elements = list(elements)
    if not elements:
        raise ValueError("join of an empty set")
    system = elements[0].system
    system._own(*elements)
    return _first_above(shi_gates(system, max(map(low_index, elements))), elements)
