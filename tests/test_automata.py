from itertools import product

import pytest

from garside import (
    Acceptance,
    Automaton,
    CoxeterSystem,
    MixedSystemError,
    canonical_automaton,
    cone_type_automaton,
    cone_type_fingerprint,
    cone_type_gates,
    cone_type_id,
    fsa_accepts,
    label_words,
    letter_expanded,
    make_system,
    minimize,
    nfa_accepting_states,
    shi_gates,
    weak_leq,
)
from garside.automata import cone_type_walk
from garside.shi import walk_gates

from conftest import (
    ALL_SYSTEMS,
    assert_table_ignores_reading_order,
    fresh_automaton,
    get_system,
    oracle_ball,
)


def test_automaton_invariants_enforced(dinf, s3):
    names, st = dinf.generator_names, dinf.element("st")
    with pytest.raises(ValueError, match="start state out of range"):
        Automaton(("s",), ("-",), 2, frozenset({0}), ())
    with pytest.raises(ValueError, match="accept state out of range"):
        Automaton(("s",), ("-",), 0, frozenset({0, 5}), ())
    with pytest.raises(ValueError, match="endpoint out of range"):
        Automaton(names, ("-",), 0, frozenset({0}), ((0, 1, st),))
    with pytest.raises(ValueError, match="identity"):
        Automaton(names, ("-",), 0, frozenset({0}), ((0, 0, dinf.identity),))
    # a word tuple is not a label, alone or beside an element
    for edges in (((0, 0, ((0,),)),), ((0, 0, st), (0, 0, ((0,),)))):
        with pytest.raises(ValueError, match="must be group elements"):
            Automaton(names, ("-",), 0, frozenset({0}), edges)
    with pytest.raises(MixedSystemError):
        Automaton(names, ("-",), 0, frozenset({0}), ((0, 0, st), (0, 0, s3.element("st"))))
    # a label of a system with other generators could not be written out
    for other in (("s",), ("s", "u")):
        with pytest.raises(ValueError, match="automaton's generators"):
            Automaton(other, ("-",), 0, frozenset({0}), ((0, 0, st),))


def test_enumerate_language_rejects_a_negative_length(s3):
    # as the voracious slice does: no length gives the empty word alone
    aut = Automaton(s3.generator_names, ("-", "x"), 0, frozenset({0, 1}), ((0, 1, s3.gens[0]),))
    assert aut.enumerate_language(0) == {(): {0}}
    for max_len in (-1, -5):
        with pytest.raises(ValueError, match=f"^max_len must be >= 0, got {max_len}$"):
            aut.enumerate_language(max_len)


def test_element_label_reads_its_reduced_words(s3):
    # one edge labelled by the longest element of I2(3) reads exactly its two
    # reduced words, and its prefix index has one node per element below it
    sts = s3.element("sts")
    aut = Automaton(s3.generator_names, ("-", "x"), 0, frozenset({1}), ((0, 1, sts),))
    assert label_words(sts) == ((0, 1, 0), (1, 0, 1))
    assert aut.enumerate_language(5) == {(0, 1, 0): {1}, (1, 0, 1): {1}}
    assert len(aut._index[0]) == 6  # one prefix node per element of [e, sts]
    assert "edge: 0 -> 1 labels=sts,tst" in aut.to_text()
    for length in range(6):
        for word in product(range(2), repeat=length):
            assert aut.accepts_word(word) == (word in label_words(sts))


def test_automaton_equality_ignores_the_edge_index(system):
    # the prefix index and the acceptance table are derived from the edges:
    # warm or cold, they must not change equality or hashing, nor show in
    # the repr
    aut = cone_type_automaton(system)
    twin = Automaton(
        aut.generator_names, aut.state_labels, aut.start, aut.accepts, aut.edges
    )
    assert twin == aut and hash(twin) == hash(aut) and repr(twin) == repr(aut)
    assert "_index" not in repr(aut)
    cold = fresh_automaton(aut)
    twin.accepting_states((0, 1, 0))
    assert twin._table is not None and cold._table is None
    assert twin == cold and hash(twin) == hash(cold) and repr(twin) == repr(cold)
    assert "_table" not in repr(twin)
    assert twin != Automaton(
        aut.generator_names, aut.state_labels, aut.start, aut.accepts, aut.edges[1:]
    )


def test_the_acceptance_table_ignores_reading_order(system):
    # every word up to length 5 (4 for rank 4), reduced or not, in ShortLex
    # order, on the canonical automaton and the cone-type automaton
    length = 5 if system.rank <= 3 else 4
    words = [w for n in range(length + 1) for w in product(range(system.rank), repeat=n)]
    for aut in (canonical_automaton(system, 1), cone_type_automaton(system)):
        ahead = assert_table_ignores_reading_order(aut, words)
        assert all(nfa_accepting_states(aut, w) == states for w, states in ahead.items())


def test_the_acceptance_table_is_built_on_first_use(s3):
    # a table state per configuration: one thread at node 0 to start; a
    # word past the dead state stays there
    sts = s3.element("sts")
    aut = Automaton(s3.generator_names, ("-", "x"), 0, frozenset({1}), ((0, 1, sts),))
    assert aut._table is None
    assert aut.accepting_states((0, 1, 0)) == {1}
    ids, states, moves = aut._table
    assert states[0][:2] == (((0, 1),), frozenset())
    assert len(ids) == len(states) == len(moves) == 4
    assert aut.accepting_states((0, 0, 1, 0, 1)) == frozenset()
    dead = moves[moves[1][0]]
    assert states[moves[1][0]][:2] == ((), frozenset()) and set(dead.values()) == {moves[1][0]}


def test_the_acceptance_table_reports_only_accept_states(s3):
    # state 0 is reached again but does not accept: the table's accept
    # states are the reached ones that accept, as the oracle's are
    sts, t = s3.element("sts"), s3.generator("t")
    aut = Automaton(s3.generator_names, ("-", "x"), 0, frozenset({1}), ((0, 1, sts), (1, 0, t), (1, 1, t)))
    nfa = letter_expanded(aut)
    for length in range(9):
        for word in product(range(2), repeat=length):
            assert aut.accepting_states(word) == nfa_accepting_states(nfa, word), word
    assert aut.accepting_states((0, 1, 0, 1)) == {1}
    assert (((0, 0b11),), {1}) in [(c[:1], states) for c, states, _ in aut._table[1]]


def test_a_table_state_stores_the_sorted_labels_of_its_accept_states(s3):
    # one word reaches three states, two of them accepting, whose labels
    # sort against their numbers: the state's one result lists those two
    s = s3.generator("s")
    edges = ((0, 0, s), (0, 1, s), (0, 2, s))
    aut = Automaton(s3.generator_names, ("z", "m", "a"), 0, frozenset({0, 2}), edges)
    result = fsa_accepts(aut, (0,))
    assert result == Acceptance(True, ("a", "z"))
    assert fsa_accepts(aut, (0,)) is result
    assert aut._table[1][aut._table[2][0][0]][1:] == ({0, 2}, result)


def test_canonical_accepts_empty_and_rejects_ss(system):
    aut = canonical_automaton(system, 0)
    assert aut.accepts_word(())
    assert not aut.accepts_word((0, 0))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("m", [0, 1])
def test_canonical_accepts_exactly_reduced_words(name, m):
    system = get_system(name)
    aut = canonical_automaton(system, m)
    mini = minimize(aut)
    radius = 6 if system.rank <= 3 else 5
    table = oracle_ball(name, radius)
    reduced = set()
    for _, (_, _, words) in table.items():
        reduced.update(words)
    for length in range(radius + 1):
        for word in product(range(system.rank), repeat=length):
            expectation = word in reduced
            assert aut.accepts_word(word) == expectation
            assert mini.accepts_word(word) == expectation


def test_dinf_minimized_has_three_states(dinf):
    aut = minimize(canonical_automaton(dinf, 0))
    assert aut.n_states == 3


def test_dinf_accepts_exactly_alternating_up_to_8(dinf):
    aut = canonical_automaton(dinf, 0)
    mini = minimize(aut)
    for length in range(9):
        for word in product(range(2), repeat=length):
            alternating = all(a != b for a, b in zip(word, word[1:]))
            assert aut.accepts_word(word) == alternating
            assert mini.accepts_word(word) == alternating


def test_state_counts_match_gate_counts(system):
    # one canonical-automaton state per m-Shi part, one minimized state
    # per cone type
    for m in (0, 1, 2):
        assert canonical_automaton(system, m).n_states == len(shi_gates(system, m))
    assert cone_type_automaton(system).n_states == len(cone_type_gates(system))


def test_minimize_is_idempotent(system):
    mini = minimize(canonical_automaton(system, 0))
    again = minimize(mini)
    assert again.n_states == mini.n_states
    assert again.edges == mini.edges


def test_minimized_automata_agree_across_m(system):
    base = minimize(canonical_automaton(system, 0))
    for m in (1, 2):
        other = minimize(canonical_automaton(system, m))
        assert other.n_states == base.n_states


def test_minimize_requires_single_letters(dinf):
    # a label of length two is the one edge st, not the two letters s, t
    aut = Automaton(dinf.generator_names, ("-",), 0, frozenset({0}), ((0, 0, dinf.element("st")),))
    with pytest.raises(ValueError, match="single-letter"):
        minimize(aut)
    with pytest.raises(ValueError, match="single-letter"):
        nfa_accepting_states(aut, (0, 1))
    s = dinf.generator("s")
    forked = Automaton(dinf.generator_names, ("-", "x"), 0, frozenset({0}), ((0, 0, s), (0, 1, s)))
    with pytest.raises(ValueError, match="deterministic"):
        minimize(forked)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("m", [0, 1, 2])
def test_canonical_and_minimized_edges_are_generators(name, m):
    # one edge per letter, and no two letters join one pair of states: were
    # s != t to lead from the state of g to one state, both would be right
    # descents of gs, so gs would end in the longest element of <s, t> and
    # t would already be a right descent of g, which could not read it
    system = get_system(name)
    canonical = canonical_automaton(system, m)
    for aut in (canonical, minimize(canonical)):
        assert all(label in system.gens for _, _, label in aut.edges)
        pairs = [(src, dst) for src, dst, _ in aut.edges]
        assert len(pairs) == len(set(pairs))


def test_cone_type_gates_spec_examples(dinf, s3):
    assert [str(g) for g in cone_type_gates(dinf)] == ["-", "s", "t"]
    assert len(cone_type_gates(s3)) == 6


def test_gamma_inside_low_elements(system):
    assert set(cone_type_gates(system)) <= set(shi_gates(system, 0))


def test_fingerprint_of_identity_is_whole_ball(system):
    ball = system.ball(3)
    assert cone_type_fingerprint(system.identity, 3) == frozenset(ball)


def test_fingerprint_prefix_closed(system):
    for g in system.ball(3):
        fp = cone_type_fingerprint(g, 3)
        for f in fp:
            for i in range(f.length):
                prefix = system._intern(f.word[:i])
                assert prefix in fp


def test_cone_type_id_matches_fingerprints(system):
    radius = 5 if system.rank <= 3 else 4
    ball = list(system.ball(radius))
    fingerprints = {g: cone_type_fingerprint(g, 4) for g in ball}
    for g in ball:
        for h in ball:
            same_state = cone_type_id(g) == cone_type_id(h)
            assert same_state == (fingerprints[g] == fingerprints[h])


def test_gamma_gates_are_part_minima(system):
    gates = cone_type_gates(system)
    by_state = {cone_type_id(system.inverse(b)): b for b in gates}
    assert len(by_state) == len(gates)
    for g in system.ball(5):
        gate = by_state[cone_type_id(system.inverse(g))]
        assert weak_leq(gate, g)


def test_letter_expansion_preserves_language(s3):
    # sts reads its two reduced words sts and tst; st and t read one each
    sts, st, t = s3.element("sts"), s3.element("st"), s3.generator("t")
    aut = Automaton(
        s3.generator_names,
        ("-", "x"),
        0,
        frozenset({1}),
        ((0, 1, sts), (0, 1, t), (1, 1, st)),
    )
    expanded = letter_expanded(aut)
    assert all(label in s3.gens for _, _, label in expanded.edges)
    for length in range(8):
        for word in product(range(2), repeat=length):
            direct = aut.accepts_word(word)
            via_nfa = bool(nfa_accepting_states(expanded, word))
            assert direct == via_nfa


def test_exports_are_deterministic(system):
    aut = minimize(canonical_automaton(system, 0))
    assert aut.to_text() == minimize(canonical_automaton(system, 0)).to_text()
    dot = aut.to_dot()
    assert dot.startswith("digraph automaton {")
    assert dot.count("->") >= aut.n_states  # start edge plus transitions
    text = aut.to_text()
    assert f"states: {aut.n_states}" in text


def test_multi_letter_names_render_with_spaces():
    system = make_system(["x1", "y"], {("x1", "y"): 3})
    aut = cone_type_automaton(system)
    assert aut.state_labels == ("-", "x1", "y", "x1 y", "y x1", "x1 y x1")
    assert "edge: 0 -> 1 labels=x1" in aut.to_text()
    assert '[label="y"]' in aut.to_dot()


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("affine_g2", "h3"))
def test_the_cone_type_table_is_the_minimized_canonical_automaton(name):
    # the reference route: minimize the canonical automaton, then walk the
    # gates over its sorted edges
    system = CoxeterSystem(get_system(name).matrix)
    walk = cone_type_walk(system)
    assert "automaton" not in system.cache("cone_types")  # the walk builds none
    aut, mini = cone_type_automaton(system), minimize(canonical_automaton(system, 0))
    assert aut.to_text() == mini.to_text()
    assert aut.to_dot() == mini.to_dot()
    edges = [(i, g.word[0], j) for i, j, g in mini.edges]
    assert walk == walk_gates(system, mini.state_labels, edges)
