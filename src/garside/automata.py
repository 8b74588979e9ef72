"""Finite state automata over a generator alphabet, and cone types.

The `Automaton` type is a finite directed multigraph whose edges carry
finite sets of words; a word is accepted when it decomposes into subwords
labelling an edge-path from the start state to an accept state.  The same
type serves three roles: the canonical automaton recognizing reduced words
(states are sign patterns over the m-elementary walls), its minimization
(states are cone types), and the word-labelled automaton of a voracious
language built elsewhere.

Acceptance is implemented twice on purpose: once by dynamic programming
over subword decompositions, and once by expanding every label into a
chain of fresh single-letter states and running the resulting NFA.  The
two must agree everywhere; the tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import CoxeterSystem, Element, InternalInconsistencyError, Word, render_word
from .shi import _inverses_sorted, sign_patterns


@dataclass(frozen=True)
class Automaton:
    """Finite state automaton with word-set edge labels.

    States are integers 0..n-1 with deterministic witness labels; every
    label set is nonempty and contains no empty word.  `_out` maps a state
    to its out-edges (dst, labels), built once with the edges' validation.
    """

    generator_names: tuple[str, ...]
    state_labels: tuple[str, ...]
    start: int
    accepts: frozenset[int]
    edges: tuple[tuple[int, int, tuple[Word, ...]], ...]
    _out: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.state_labels)
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        out: dict[int, list] = {}
        for src, dst, labels in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("edge endpoint out of range")
            if not labels or any(len(w) == 0 for w in labels):
                raise ValueError("edge label sets must be nonempty sets of nonempty words")
            out.setdefault(src, []).append((dst, labels))
        object.__setattr__(self, "_out", out)

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    # -- acceptance: subword-decomposition dynamic programming -------------

    def accepting_states(self, word: Word) -> frozenset[int]:
        """All accept states reachable by decompositions consuming `word`."""
        n = len(word)
        reachable: list[set[int]] = [set() for _ in range(n + 1)]
        reachable[0].add(self.start)
        for i in range(n + 1):
            for state in reachable[i]:
                for dst, labels in self._out.get(state, ()):
                    for lab in labels:
                        j = i + len(lab)
                        if j <= n and word[i:j] == lab:
                            reachable[j].add(dst)
        return frozenset(q for q in reachable[n] if q in self.accepts)

    def accepts_word(self, word: Word) -> bool:
        return bool(self.accepting_states(word))

    def enumerate_language(self, max_len: int) -> dict[Word, frozenset[int]]:
        """All accepted words of length <= max_len with their accept states."""
        found: dict[Word, set[int]] = {}
        frontier: list[tuple[int, Word]] = [(self.start, ())]
        seen: set[tuple[int, Word]] = set(frontier)
        while frontier:
            state, word = frontier.pop()
            if state in self.accepts:
                found.setdefault(word, set()).add(state)
            for dst, labels in self._out.get(state, ()):
                for lab in labels:
                    if len(word) + len(lab) <= max_len:
                        item = (dst, word + lab)
                        if item not in seen:
                            seen.add(item)
                            frontier.append(item)
        return {w: frozenset(states) for w, states in found.items()}

    # -- exports ------------------------------------------------------------

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
        for src, dst, labels in self.edges:
            rendered = ",".join(render_word(self.generator_names, w) for w in labels)
            lines.append(f"edge: {src} -> {dst} labels={rendered}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point,label=""];']
        for i, label in enumerate(self.state_labels):
            shape = "doublecircle" if i in self.accepts else "circle"
            lines.append(f'  n{i} [label="{label}",shape={shape}];')
        lines.append(f"  __start -> n{self.start};")
        for src, dst, labels in self.edges:
            rendered = ",".join(render_word(self.generator_names, w) for w in labels)
            lines.append(f'  n{src} -> n{dst} [label="{rendered}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def letter_expanded(aut: Automaton) -> Automaton:
    """Language-equivalent automaton whose labels are all single letters.

    Every multi-letter label becomes a chain of fresh intermediate states;
    the result is nondeterministic in general.
    """
    labels = list(aut.state_labels)
    accepts = set(aut.accepts)
    edges: list[tuple[int, int, tuple[Word, ...]]] = []
    for src, dst, words in aut.edges:
        for word in sorted(words):
            prev = src
            for k, letter in enumerate(word):
                if k == len(word) - 1:
                    nxt = dst
                else:
                    labels.append(f"chain:{src}-{dst}:{k}")
                    nxt = len(labels) - 1
                edges.append((prev, nxt, ((letter,),)))
                prev = nxt
    return Automaton(
        generator_names=aut.generator_names,
        state_labels=tuple(labels),
        start=aut.start,
        accepts=frozenset(accepts),
        edges=tuple(sorted(edges)),
    )


def nfa_accepting_states(aut: Automaton, word: Word) -> frozenset[int]:
    """Subset-simulation acceptance for a single-letter automaton."""
    step: dict[tuple[int, int], set[int]] = {}
    for src, dst, labels in aut.edges:
        for lab in labels:
            if len(lab) != 1:
                raise ValueError("nfa_accepting_states requires single-letter labels")
            step.setdefault((src, lab[0]), set()).add(dst)
    current = {aut.start}
    for letter in word:
        nxt: set[int] = set()
        for q in current:
            nxt |= step.get((q, letter), set())
        current = nxt
        if not current:
            break
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
    merged: dict[tuple[int, int], list[Word]] = {}
    for i, s, j in transitions:
        merged.setdefault((i, j), []).append((s,))
    return Automaton(
        generator_names=system.generator_names,
        state_labels=tuple(system.render_word(w) for w in witnesses),
        start=0,
        accepts=frozenset(range(len(witnesses))),
        edges=tuple(sorted((i, j, tuple(words)) for (i, j), words in merged.items())),
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
    for src, dst, labels in aut.edges:
        for lab in labels:
            if len(lab) != 1:
                raise ValueError("minimize requires single-letter labels")
            if delta[src][lab[0]] != dead:
                raise ValueError("minimize requires a deterministic automaton")
            delta[src][lab[0]] = dst

    # Moore partition refinement, dead state included.
    cls = [1 if q in aut.accepts else 0 for q in range(n)] + [0]
    while True:
        signatures: dict[tuple, int] = {}
        new_cls = [0] * (n + 1)
        for q in range(n + 1):
            sig = (cls[q],) + tuple(cls[delta[q][a]] for a in alphabet)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_cls[q] = signatures[sig]
        if new_cls == cls:
            break
        cls = new_cls

    dead_cls = cls[dead]
    # deterministic relabeling: BFS from the start class in letter order
    relabel: dict[int, int] = {cls[aut.start]: 0}
    witness: list[Word] = [()]
    rep: list[int] = [aut.start]
    queue = [0]
    while queue:
        i = queue.pop(0)
        q = rep[i]
        for a in alphabet:
            tgt = delta[q][a]
            c = cls[tgt]
            if c == dead_cls:
                continue
            if c not in relabel:
                relabel[c] = len(rep)
                rep.append(tgt)
                witness.append(witness[i] + (a,))
                queue.append(len(rep) - 1)

    edges: list[tuple[int, int, tuple[Word, ...]]] = []
    for i, q in enumerate(rep):
        merged: dict[int, list[Word]] = {}
        for a in alphabet:
            c = cls[delta[q][a]]
            if c == dead_cls:
                continue
            merged.setdefault(relabel[c], []).append((a,))
        for j in sorted(merged):
            edges.append((i, j, tuple(sorted(merged[j]))))
    accepts = frozenset(i for i, q in enumerate(rep) if q in aut.accepts)
    labels = tuple(
        aut.state_labels[0] if not w else render_word(aut.generator_names, w) for w in witness
    )
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
    """Gates of the cone-type partition: the smallest Garside shadow.

    The partition groups x and y when the cone types of x^{-1} and y^{-1}
    agree, i.e. when their inverses reach the same minimized-automaton
    state; the gate of a part is therefore the inverse of the BFS-shortest
    word reaching that state.  Each gate is the weak-order minimum of its
    part, which the tests check against ball enumerations.
    """
    labels = cone_type_automaton(system).state_labels
    return _inverses_sorted(system, map(system.parse_word, labels))


def cone_type_fingerprint(g: Element, radius: int) -> frozenset[Element]:
    """Ball slice of the cone type of g: elements f with l(gf) = l(g) + l(f)."""
    system = g.system
    return frozenset(
        f
        for f in system.ball(radius)
        if system.multiply(g, f).length == g.length + f.length
    )
