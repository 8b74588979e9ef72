"""Finite state automata over a generator alphabet, and cone types.

The `Automaton` type is a finite directed multigraph whose edges carry
labels.  A label is a group element other than the identity, standing for
all of its reduced words, so an edge reading exponentially many words
stores one reference.  A word is accepted when it splits into subwords,
each a reduced word of the label of one edge, along a path from the start
state to an accept state.  The same type serves three roles: the canonical
automaton recognizing reduced words (states are sign patterns over the
m-elementary walls), its minimization (states are cone types), both with
one edge per letter labelled by the generator, and the automaton of a
voracious language built elsewhere.

Enumeration walks one prefix index built with the automaton: its nodes are
the elements below a label in the right weak order, the prefixes of the
reduced words of g being the elements of [e, g].  Acceptance reads a table
built lazily from it (the subset construction), one lookup per letter.  No
label's words are listed on the way; the exports list them on demand.

Acceptance is implemented twice on purpose: once by that table, and once by
expanding every label into a chain of fresh single-letter states and running
the resulting NFA.  The two must agree everywhere; the tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import CoxeterSystem, Element, InternalInconsistencyError, Word, set_bits, shortlex_key
from .shi import sign_patterns, walk_gates
from .weak_order import reduced_words


def label_words(label: Element) -> tuple[Word, ...]:
    """The words of an edge label: its reduced words in lexicographic order."""
    return tuple(sorted(reduced_words(label)))


def _prefix_index(
    edges, generator_names: tuple[str, ...]
) -> tuple[list[dict[int, int]], list[tuple[tuple[int, int], ...]]]:
    """The prefixes of the labels as nodes, node 0 the empty prefix: the
    union of the labels' lower intervals in the right weak order in ShortLex
    order, the identity first, x*s extended by s for each right descent s
    of x.

    `step[node]` maps a letter to the node one letter longer, and
    `fire[node]` lists (source mask, dst) for each dst that an edge reaches
    when its label ends at that node: the edge from state q fires iff bit q
    of the mask is set."""
    if not edges:
        return [{}], [()]
    labels = [label for _, _, label in edges]
    if not all(isinstance(g, Element) for g in labels):
        raise ValueError("edge labels must be group elements")
    system = labels[0].system
    system._own(*labels)
    if system.generator_names != generator_names:
        raise ValueError("edge labels must be elements over the automaton's generators")
    if any(g.is_identity() for g in labels):
        raise ValueError("an element label must not be the identity")
    arrows = []  # (x*s, s, x)
    nodes = set(labels)
    stack = list(nodes)
    while stack:
        x = stack.pop()
        for s in set_bits(system.inverse(x).mask & (1 << system.rank) - 1):  # x s < x
            y = system.right_multiply(x, s)
            arrows.append((y, s, x))
            if y not in nodes:
                nodes.add(y)
                stack.append(y)
    ids = {x: i for i, x in enumerate(sorted(nodes, key=shortlex_key))}
    step: list[dict[int, int]] = [{} for _ in ids]
    for y, s, x in arrows:
        step[ids[y]][s] = ids[x]
    ends: dict[int, dict[int, int]] = {}
    for src, dst, g in edges:
        sources = ends.setdefault(ids[g], {})
        sources[dst] = sources.get(dst, 0) | 1 << src
    fire: list[tuple[tuple[int, int], ...]] = [()] * len(step)
    for node, sources in ends.items():
        fire[node] = tuple((mask, dst) for dst, mask in sources.items())
    return step, fire


@dataclass(frozen=True)
class Acceptance:
    """Whether a word is accepted, and the sorted labels of its accept states."""

    accepted: bool
    states: tuple[str, ...]


REJECTED = Acceptance(False, ())


@dataclass(frozen=True)
class Automaton:
    """Finite state automaton with element edge labels.

    States are integers 0..n-1 with deterministic witness labels; every
    label is an element other than the identity, all of one system whose
    generators are `generator_names`.  `_index` is the prefix index
    (step, fire) of the labels, built once with the edges' validation;
    `_table` is the acceptance table (`_move`), whose states store their
    accept states and `Acceptance`, and `_nfa_delta` the letter table of
    the oracle `nfa_accepting_states`, each built on first use.
    """

    generator_names: tuple[str, ...]
    state_labels: tuple[str, ...]
    start: int
    accepts: frozenset[int]
    edges: tuple[tuple[int, int, Element], ...]
    _index: tuple = field(init=False, compare=False, repr=False)
    _table: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _nfa_delta: list | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.state_labels)
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        if not all(0 <= q < n for q in self.accepts):
            raise ValueError("accept state out of range")
        for src, dst, _ in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "_index", _prefix_index(self.edges, self.generator_names))

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    # -- acceptance and enumeration, both read from the prefix index ----------

    def accepting_states(self, word: Word) -> frozenset[int]:
        """All accept states reachable by decompositions consuming `word`."""
        return self._read(word)[1]

    def _read(self, word: Word) -> tuple:
        """The entry of the table state `word` reaches: one lookup per
        letter in the table, whose missing moves `_move` adds."""
        if self._table is None:
            start = ((0, 1 << self.start),)
            object.__setattr__(self, "_table", ({start: 0}, [self._entry(start, 1 << self.start)], [{}]))
        moves = self._table[2]
        state = 0
        for letter in word:
            nxt = moves[state].get(letter)
            state = self._move(state, letter) if nxt is None else nxt
        return self._table[1][state]

    def _entry(self, config: tuple, reach: int) -> tuple:
        """(configuration, accept states, `Acceptance`) of a new table state."""
        accepting = self.accepts.intersection(set_bits(reach))
        labels = tuple(sorted(self.state_labels[q] for q in accepting))
        return config, accepting, Acceptance(True, labels) if accepting else REJECTED

    def _move(self, state: int, letter: int) -> int:
        """The table state after `letter` from `state`, added if new.  The
        table holds configuration ids, `_entry` by id, and moves by id and
        letter.  A configuration holds (node, mask) for each prefix-index
        node where a decomposition thread stands, mask the states it began
        at; node 0 holds the states reached.  Threads step down the index
        and fire the edges whose labels end where they stand.
        Threads begun at distinct positions have read distinct lengths, so
        their nodes (numbered in ShortLex order) differ and stay increasing."""
        self._check_letter(letter)
        (step, fire), (ids, states, moves) = self._index, self._table
        threads, reach = [], 0
        for node, mask in states[state][0]:
            child = step[node].get(letter)
            if child is not None:  # one node's fire entries have distinct dsts
                threads.append((child, mask))
                reach |= sum(1 << dst for sources, dst in fire[child] if mask & sources)
        config = (((0, reach),) if reach else ()) + tuple(threads)
        nxt = moves[state][letter] = ids.setdefault(config, len(states))
        if nxt == len(states):
            states.append(self._entry(config, reach))
            moves.append({})
        return nxt

    def _check_letter(self, letter) -> None:
        if letter not in range(len(self.generator_names)):
            raise ValueError(f"{letter!r} is not a letter: letters are 0..{len(self.generator_names) - 1}")

    def accepts_word(self, word: Word) -> bool:
        return bool(self.accepting_states(word))

    def enumerate_language(self, max_len: int) -> dict[Word, frozenset[int]]:
        """All accepted words of length <= max_len (>= 0) with their accept states."""
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {max_len}")
        steps = self._label_steps(max_len)
        found: dict[Word, set[int]] = {}
        frontier: list[tuple[int, Word]] = [(self.start, ())]
        seen: set[tuple[int, Word]] = set(frontier)
        while frontier:
            state, word = frontier.pop()
            if state in self.accepts:
                found.setdefault(word, set()).add(state)
            room = max_len - len(word)
            for dst, label_word in steps[state]:
                if len(label_word) <= room:
                    item = (dst, word + label_word)
                    if item not in seen:
                        seen.add(item)
                        frontier.append(item)
        return {w: frozenset(states) for w, states in found.items()}

    def _label_steps(self, max_len: int) -> list[list[tuple[int, Word]]]:
        """For each state, (dst, word) per edge out of it and per word of
        that edge's label no longer than max_len: one walk of the index."""
        step, fire = self._index
        steps: list[list[tuple[int, Word]]] = [[] for _ in self.state_labels]
        walk = [(0, ())]
        while walk:
            node, prefix = walk.pop()
            if len(prefix) >= max_len:
                continue
            for letter, child in step[node].items():
                longer = prefix + (letter,)
                for sources, dst in fire[child]:
                    for src in set_bits(sources):
                        steps[src].append((dst, longer))
                walk.append((child, longer))
        return steps

    # -- exports ------------------------------------------------------------

    def _rendered_edges(self):
        """(src, dst, the label's words joined by ',') for each edge."""
        for src, dst, label in self.edges:
            yield src, dst, ",".join(map(label.system.render_word, label_words(label)))

    def to_text(self) -> str:
        lines = ["# automaton v1"]
        lines.append(f"alphabet: {' '.join(self.generator_names)}")
        lines.append(f"states: {self.n_states}")
        for i, label in enumerate(self.state_labels):
            flags = []
            if i == self.start:
                flags.append("start")
            if i in self.accepts:
                flags.append("accept")
            lines.append(f"state: {i} label={label} {' '.join(flags)}".rstrip())
        for src, dst, rendered in self._rendered_edges():
            lines.append(f"edge: {src} -> {dst} labels={rendered}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point,label=""];']
        for i, label in enumerate(self.state_labels):
            shape = "doublecircle" if i in self.accepts else "circle"
            lines.append(f'  n{i} [label="{label}",shape={shape}];')
        lines.append(f"  __start -> n{self.start};")
        for src, dst, rendered in self._rendered_edges():
            lines.append(f'  n{src} -> n{dst} [label="{rendered}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def letter_expanded(aut: Automaton) -> Automaton:
    """Language-equivalent automaton whose labels are all generators.

    Every reduced word of a longer label becomes a chain of fresh
    intermediate states; the result is nondeterministic in general.
    """
    labels = list(aut.state_labels)
    edges: list[tuple[int, int, Element]] = []
    for src, dst, label in aut.edges:
        gens = label.system.gens
        for word in label_words(label):
            prev = src
            for k, letter in enumerate(word):
                if k == len(word) - 1:
                    nxt = dst
                else:
                    labels.append(f"chain:{src}-{dst}:{k}")
                    nxt = len(labels) - 1
                edges.append((prev, nxt, gens[letter]))
                prev = nxt
    return Automaton(
        generator_names=aut.generator_names,
        state_labels=tuple(labels),
        start=aut.start,
        accepts=aut.accepts,
        edges=tuple(sorted(edges)),
    )


def nfa_accepting_states(aut: Automaton, word: Word) -> frozenset[int]:
    """Subset-simulation acceptance for an automaton labelled by generators.

    It reads only the edges, through delta[state][letter] -> states, built
    on the first call for each automaton and kept on it."""
    delta = aut._nfa_delta
    if delta is None:
        delta = [{} for _ in aut.state_labels]
        for src, dst, label in aut.edges:
            if label.length != 1:
                raise ValueError("nfa_accepting_states requires single-letter labels")
            delta[src].setdefault(label.word[0], set()).add(dst)
        object.__setattr__(aut, "_nfa_delta", delta)
    current = {aut.start}
    for letter in word:
        aut._check_letter(letter)
        current = set().union(*(delta[q].get(letter, ()) for q in current))
    return frozenset(q for q in current if q in aut.accepts)


# ---------------------------------------------------------------------------
# The canonical reduced-word automaton and its minimization


def canonical_automaton(system: CoxeterSystem, m: int = 0) -> Automaton:
    """Deterministic automaton accepting exactly the reduced words.

    States are the reachable inversion patterns over the m-elementary
    walls (`shi.sign_patterns`), labelled by their shortest words; reading
    a non-descent letter updates the pattern.  All states accept (the
    language is prefix-closed); descent letters lead to an implicit dead
    state.
    """
    witnesses, transitions = sign_patterns(system, m)
    return Automaton(
        generator_names=system.generator_names,
        state_labels=tuple(system.render_word(w) for w in witnesses),
        start=0,
        accepts=frozenset(range(len(witnesses))),
        edges=tuple(sorted((i, j, system.gens[s]) for i, s, j in transitions)),
    )


def minimize(aut: Automaton) -> Automaton:
    """Minimal deterministic automaton for the same language.

    Requires single-letter labels and a deterministic transition relation.
    Works with an explicit dead state so that missing transitions count in
    the refinement, then drops it again; minimization is idempotent.
    """
    alphabet = tuple(range(len(aut.generator_names)))
    n = aut.n_states
    dead = n
    delta = [[dead] * len(alphabet) for _ in range(n + 1)]
    gens: dict[int, Element] = {}  # letter -> its generator label
    for src, dst, label in aut.edges:
        if label.length != 1:
            raise ValueError("minimize requires single-letter labels")
        a = label.word[0]
        gens[a] = label
        if delta[src][a] != dead:
            raise ValueError("minimize requires a deterministic automaton")
        delta[src][a] = dst

    # Moore partition refinement, dead state included.
    cls = [1 if q in aut.accepts else 0 for q in range(n)] + [0]
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = [0] * (n + 1)
        for q in range(n + 1):
            sig = (cls[q],) + tuple(cls[delta[q][a]] for a in alphabet)
            new_cls[q] = signatures.setdefault(sig, len(signatures))
        if new_cls == cls:
            break
        cls = new_cls

    dead_cls = cls[dead]
    # deterministic relabeling: BFS from the start class in letter order;
    # `rep` grows as classes are found, so reading it in order is the BFS
    relabel: dict[int, int] = {cls[aut.start]: 0}
    witness: list[Word] = [()]
    rep: list[int] = [aut.start]
    for i, q in enumerate(rep):
        for a in alphabet:
            c = cls[delta[q][a]]
            if c != dead_cls and c not in relabel:
                relabel[c] = len(rep)
                rep.append(delta[q][a])
                witness.append(witness[i] + (a,))

    edges = [
        (i, relabel[cls[delta[q][a]]], gens[a])
        for i, q in enumerate(rep)
        for a in alphabet
        if cls[delta[q][a]] != dead_cls
    ]
    accepts = frozenset(i for i, q in enumerate(rep) if q in aut.accepts)
    # a nonempty witness reads edges, whose labels all come from one system
    render = next(iter(gens.values())).system.render_word if gens else None
    labels = tuple(render(w) if w else aut.state_labels[0] for w in witness)
    return Automaton(
        generator_names=aut.generator_names,
        state_labels=labels,
        start=0,
        accepts=accepts,
        edges=tuple(sorted(edges)),
    )


# ---------------------------------------------------------------------------
# Cone types


def cone_type_automaton(system: CoxeterSystem) -> Automaton:
    """Minimal automaton for the reduced words; states are the cone types."""
    cache = system.cache("cone_types")
    if not cache:
        cache[0] = minimize(canonical_automaton(system, 0))
    return cache[0]


def cone_type_id(g: Element) -> int:
    """Canonical identifier of the cone type of g: the one state that g's word
    reaches in the minimized automaton, which is deterministic and all accepting."""
    for state in cone_type_automaton(g.system).accepting_states(g.word):
        return state
    raise InternalInconsistencyError(f"normal form {g} walked into a dead state: not reduced?")


def cone_type_gates(system: CoxeterSystem) -> tuple[Element, ...]:
    """Gates of the cone-type partition, the smallest Garside shadow: x and
    y share a part when x^{-1} and y^{-1} reach the same minimized-automaton
    state, so a gate is the inverse of the BFS-shortest word to its state.
    The tests check each against its part's minimum on a ball."""
    return cone_type_walk(system)[0]


def cone_type_walk(system: CoxeterSystem):
    """`shi.walk_gates` of `cone_type_automaton`: its states are numbered
    breadth-first and its edges sorted, so the first edge into a state is
    the walk's.  Its table is the cone-type shadow's delta (the cone-type
    partition is the partition by projection onto it)."""
    aut = cone_type_automaton(system)
    return walk_gates(system, aut.state_labels, [(i, g.word[0], j) for i, j, g in aut.edges])


def cone_type_fingerprint(g: Element, radius: int) -> frozenset[Element]:
    """Ball slice of the cone type of g: elements f with l(gf) = l(g) + l(f)."""
    system = g.system
    return frozenset(f for f in system.ball(radius)
                     if system.multiply(g, f).length == g.length + f.length)
