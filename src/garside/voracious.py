"""Voracious projections, the voracious language, and its automaton.

Given a Garside shadow B, the voracious projection sends g to nu(g) = g*b,
b = projection_B(g^{-1}), once per element into the shadow's step table
(`_step`); iterating it walks any element down to the identity in steps
of bounded length.  The voracious words of g are L(nu(g)) Red(b^{-1}),
built along the chain by `language_of`, which keeps none, and their union
over all g is the voracious language of B.  For finite B the
language is recognized by an automaton whose states are the shadow
members: an edge runs from b to w whenever projecting w*b onto B gives
back w, labelled by the element w^{-1}, which reads all reduced words of
w^{-1} (the maximal chains of [e, w^{-1}]; Björner & Brenti, GTM 231,
ch. 3).  No label word is stored: acceptance reads a table built lazily
from the automaton's prefix index, and the exports list an edge's words
only when they write it.  Every projection, the edges' too, folds words
through the shadow's transition table `GarsideShadow.delta`, which the
walk or the join scan that made the shadow gave.

A second, independent projection is implemented straight from the
original wall description (walls separating g from the identity that are
closest to g); the two must coincide for the shadow of low elements, and
the tests compare them exhaustively on balls.

`cross_validate_regularity` compares the automaton's language with the
slice, built element by element as in `enumerate_language`, accept states
included (predicted by the below-x scan of `shadows`, which reads no
table, so the table is checked, not trusted), and returns the
`regularity` line of a verification report as a `CheckResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Acceptance, Automaton
from .coxeter import Element, InternalInconsistencyError, Word
from .shadows import CheckResult, GarsideShadow, _fold, _top_below
from .shi import separation_count
from .weak_order import _climb_inside, reduced_words


@dataclass(frozen=True)
class VoraciousChain:
    """The strictly length-decreasing iteration of the projection down to id."""

    element: Element
    steps: tuple[Element, ...]  # element, nu(element), ..., identity


@dataclass(frozen=True)
class LanguageSlice:
    """All voracious words of bounded length, the union of `language_of`
    over a ball."""

    max_len: int
    words: frozenset  # all words in the slice


def _step(shadow: GarsideShadow, g: Element) -> tuple[Element, Element, frozenset]:
    """(nu(g), b, Red(b^-1)) for b = projection_B(g^-1) and nu(g) = g*b: g's
    entry in the shadow's step table, folded and multiplied on first use."""
    step = shadow.steps.get(g)
    if step is None:
        system, b = shadow.system, _fold(shadow, g)
        step = shadow.steps[g] = system.multiply(g, b), b, reduced_words(system.inverse(b))
    return step


def voracious_projection(shadow: GarsideShadow, g: Element) -> Element:
    """One voracious step: g times the shadow projection of its inverse."""
    return _step(shadow, g)[0]


def voracious_chain(shadow: GarsideShadow, g: Element) -> VoraciousChain:
    table, steps, n = shadow.steps, [g], len(g.word)
    while n:
        g = (table.get(g) or _step(shadow, g))[0]
        if len(g.word) >= n:
            raise InternalInconsistencyError(f"voracious projection failed to shorten {steps[-1]}")
        n = len(g.word)
        steps.append(g)
    return VoraciousChain(steps[0], tuple(steps))


def op_voracious_projection(g: Element) -> Element:
    """The original voracious projection, from its wall description.

    Takes the walls separating g from the identity that no wall separates
    from g, and returns the largest element below g not cut off from the
    identity by any of them.  Serves as an independent oracle for the
    projection attached to the shadow of low elements.

    g^-1 maps the wall that step i of g's word crosses to the one that step
    l-i+1 of its reverse crosses, so two mask walks give the critical walls.
    The p <= g whose masks miss them are a lower set: the climb inside their
    masks ends at its top, which the tests check is above all of it.
    """
    system, critical = g.system, 0
    up, down = _prefix_masks(system, g.word), _prefix_masks(system, g.word[::-1])[::-1]
    for i in range(g.length):
        if separation_count(system, system._roots[(down[i] ^ down[i + 1]).bit_length() - 1]) == 0:
            critical |= up[i] ^ up[i + 1]
    return _climb_inside(system, g.mask & ~critical)


def _prefix_masks(system, word: Word) -> list[int]:
    """The inversion bitmasks of a word's prefixes, by length, walked over
    the stored Cayley edges; no walk is memoised."""
    out = [system.identity]
    for s in word:
        out.append(out[-1]._right[s] or system.right_multiply(out[-1], s))
    return [p.mask for p in out]


# ---------------------------------------------------------------------------
# The language


def language_of(shadow: GarsideShadow, g: Element) -> frozenset:
    """The voracious words for g: minimal-length words built step by step.

    The words for the identity are just the empty word; otherwise every
    word for the projection nu = g*b, b the projection of g^{-1}, extends
    by every reduced word of the remaining segment nu^{-1} g = b^{-1}.
    All results are reduced words of g.  The chain is read off the step
    table from g down, each step's tail Red(b^{-1}), kept there, going in
    front of the words built so far, so long elements need no recursion.
    """
    steps, out = shadow.steps, [()]
    while g.word:
        g, _, words = steps.get(g) or _step(shadow, g)
        out = [u + v for u in words for v in out]
    return frozenset(out)


def enumerate_language(shadow: GarsideShadow, max_len: int) -> LanguageSlice:
    """The voracious language cut at max_len.

    Voracious words are geodesic, so the slice is the union of the
    per-element languages over the ball of the same radius."""
    words = (language_of(shadow, g) for g in shadow.system.ball(max_len))
    return LanguageSlice(max_len, frozenset().union(*words))


# ---------------------------------------------------------------------------
# The automaton of the language


def build_voracious_fsa(shadow: GarsideShadow) -> Automaton:
    """The element-labelled automaton of the voracious language.

    States are the shadow members (ShortLex order, identity first), all
    accepting, start at the identity.  For members b and w with
    projection_B(w b) = w there is an edge b -> w labelled by the element
    w^{-1}: it reads every reduced word of w^{-1}, and none is listed.
    Pairs with w = id are skipped: for b != id the projection of b is b
    itself, and the identity pair would only add an empty-labelled
    self-loop.  Since B is closed under suffixes, the labels' prefixes are
    the inverses of the members, so the prefix index has |B| nodes.

    For w b reduced, folding w's letters from the right through the
    shadow's delta from b gives projection_B(w b) (`shadows` docstring).
    w b is reduced iff w^{-1} and b share no inversion, and then so is
    w' b for each suffix w' of w.  So for each b a walk of B's suffix tree
    (w's parent is w less its first letter) prunes the branches that stop
    being reduced and finds the w that the fold gives back.
    """
    system, states = shadow.system, shadow.ordered
    if states[0] != system.identity:
        raise InternalInconsistencyError("identity must be the first shadow member")
    index = {b.word: i for i, b in enumerate(states)}
    children = [[] for _ in states]  # children[k]: (j, s) where w_j's word is s + w_k's
    for j, w in enumerate(states[1:], 1):
        children[index[w.word[1:]]].append((j, w.word[0]))
    inverse_masks = [system.inverse(w).mask for w in states]
    edges = []
    for i, b in enumerate(states):
        found = []
        stack = [(0, i)]  # (w, projection_B(w b)) for reduced w b
        while stack:
            k, fold = stack.pop()
            for j, s in children[k]:
                if inverse_masks[j] & b.mask:
                    continue
                step = shadow.delta[fold][s]
                if step == j:
                    found.append(j)
                stack.append((j, step))
        edges.extend((i, j, system.inverse(states[j])) for j in sorted(found))
    return Automaton(
        generator_names=system.generator_names,
        state_labels=tuple(system.render_word(b.word) for b in states),
        start=0,
        accepts=frozenset(range(len(states))),
        edges=tuple(edges),
    )


def fsa_accepts(aut: Automaton, word: Word) -> Acceptance:
    """Decomposition acceptance; reports the labels of all accepting runs.
    The result is the one the automaton's table state for `word` stores."""
    return aut._read(word)[2]


def cross_validate_regularity(shadow: GarsideShadow, max_len: int) -> CheckResult:
    """Exact comparison of the automaton language against the enumerated slice.

    Also checks that each voracious word is accepted exactly at the
    projection of the inverse of its element, as the automaton predicts.
    A failure's witness lists the first missing and extra words and names
    the first word accepted at other states than predicted.
    """
    system, render = shadow.system, shadow.system.render_word
    aut, ball = build_voracious_fsa(shadow), system.ball(max_len)
    from_automaton = aut.enumerate_language(max_len)
    languages, mismatches = [], []
    for g in ball:
        predicted = render(_top_below(shadow.ordered, system.inverse(g))[0].word)
        languages.append(words := language_of(shadow, g))
        for word in words:
            if word in from_automaton:  # else missing
                got = sorted(aut.state_labels[q] for q in from_automaton[word])
                if got != [predicted]:
                    mismatches.append((word, got, predicted))
    slice_ = LanguageSlice(max_len, frozenset().union(*languages))  # as `enumerate_language`
    missing = tuple(sorted(slice_.words - set(from_automaton)))
    extra = tuple(sorted(set(from_automaton) - slice_.words))
    details = f"max-len={max_len} words={len(slice_.words)}"
    if not missing and not extra and not mismatches:
        return CheckResult("regularity", True, details)
    listed = lambda words: "(" + ", ".join(map(render, words[:3])) + ")"
    witness = f"missing={listed(missing)} extra={listed(extra)}"
    if mismatches:
        word, got, predicted = min(mismatches)
        witness += f" word={render(word)} states={','.join(got)} predicted={predicted}"
    return CheckResult("regularity", False, details, witness)
