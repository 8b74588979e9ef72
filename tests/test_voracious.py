from dataclasses import replace
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from garside import automata, voracious, weak_order
from garside.automata import REJECTED
from garside import (
    Acceptance,
    GarsideShadow,
    InternalInconsistencyError,
    MixedSystemError,
    b_projection,
    build_voracious_fsa,
    canonical_automaton,
    cone_type_automaton,
    cross_validate_regularity,
    enumerate_language,
    fsa_accepts,
    garside_closure,
    label_words,
    language_of,
    letter_expanded,
    nfa_accepting_states,
    op_voracious_projection,
    reduced_words,
    shadow_from_gates,
    voracious_chain,
    voracious_projection,
    weak_leq,
)

from conftest import (
    _BUILDERS,
    ALL_SYSTEMS,
    FINITE_SYSTEMS,
    assert_table_ignores_reading_order,
    chain_words,
    fold_chain,
    fresh_automaton,
    get_system,
    languages,
    oracle_ball,
    scan_projection,
)


def low(system):
    return shadow_from_gates(system, "low")


SHADOW_KINDS = (("low", None), ("gamma", None), ("m-low", 1))


# ---------------------------------------------------------------------------
# The projection


def test_projection_spec_examples(dinf):
    shadow = low(dinf)
    assert voracious_projection(shadow, dinf.identity).is_identity()
    for s in dinf.gens:
        assert voracious_projection(shadow, s).is_identity()
    assert voracious_projection(shadow, dinf.element("stst")) == dinf.element("sts")


def test_projection_shortens_and_stays_below(system):
    shadow = low(system)
    for g in system.ball(6):
        nu = voracious_projection(shadow, g)
        assert weak_leq(nu, g)
        if not g.is_identity():
            assert nu.length < g.length
        assert system.word_metric(nu, g) <= shadow.constant_m


@pytest.mark.parametrize("foreign", ["s3", "affine_a2"])
@pytest.mark.parametrize(
    "project", [b_projection, voracious_projection, voracious_chain, language_of]
)
def test_projections_reject_foreign_elements(project, foreign):
    # s3 has D-infinity's rank, so its letters index the transition table
    # and a fold would give a wrong member; affine A2 has a letter too many
    shadow = low(get_system("dinf"))
    for g in list(get_system(foreign).ball(3))[1:]:
        with pytest.raises(MixedSystemError):
            project(shadow, g)


def test_chain_terminates_quickly(system):
    shadow = low(system)
    for g in system.ball(6):
        chain = voracious_chain(shadow, g)
        assert chain.steps[0] == g
        assert chain.steps[-1].is_identity()
        assert len(chain.steps) <= g.length + 1
        lengths = [x.length for x in chain.steps]
        assert lengths == sorted(lengths, reverse=True)
        for a, b in zip(chain.steps, chain.steps[1:]):
            assert system.word_metric(a, b) <= shadow.constant_m


def test_a_chain_step_that_does_not_shorten_raises():
    # a step table entry x -> (y, ...) with y no shorter than x stops the
    # chain with an inconsistency at x, at its first step or a later one;
    # the first two y have chains that end and avoid x, so a weaker guard
    # shows as a missing error, not as an endless loop
    system = _BUILDERS["affine_a2"]()
    shadow = low(system)
    g = system.element("stustu")
    steps = voracious_chain(shadow, g).steps
    assert len(steps) >= 3

    def ending_elsewhere(x, length):
        return next(y for y in system.ball(length) if y.length == length and y is not x
                    and x not in voracious_chain(shadow, y).steps)

    for x, y in ((g, ending_elsewhere(g, g.length)),
                 (steps[1], ending_elsewhere(steps[1], steps[1].length + 1)),
                 (g, g)):
        entry = shadow.steps[x]
        shadow.steps[x] = (y,) + entry[1:]
        with pytest.raises(InternalInconsistencyError, match=f"failed to shorten {x}$"):
            voracious_chain(shadow, g)
        shadow.steps[x] = entry
    assert voracious_chain(shadow, g).steps == steps


def test_original_projection_examples(dinf):
    assert op_voracious_projection(dinf.identity).is_identity()
    assert op_voracious_projection(dinf.gens[0]).is_identity()
    assert op_voracious_projection(dinf.element("stst")) == dinf.element("sts")


def projection_by_wall_scan(g):
    """The original projection read straight off the walls: every wall of
    N(g) moved back by g^-1 to count the walls between it and g, and every
    element below g compared with the closest ones as sets of roots."""
    from garside.shi import separation_count
    from garside.weak_order import _lower_set

    system = g.system
    critical = [
        wall
        for wall in system.inversion_walls(g)
        if separation_count(system, system.act_inverse_word(g.word, wall)) == 0
    ]
    candidates = [p for p in _lower_set(g) if system.inversion_walls(p).isdisjoint(critical)]
    best = max(candidates, key=lambda p: (p.length, p.word))
    assert all(weak_leq(p, best) for p in candidates), g
    return best


@pytest.mark.parametrize(
    "name, radius", [(name, 6) for name in ALL_SYSTEMS] + [("affine_g2", 8), ("h3", 8)]
)
def test_original_projection_matches_the_wall_scan(name, radius):
    # the mask route maps back only the critical walls, read off N(g^-1)
    system = get_system(name)
    for g in system.ball(radius):
        assert op_voracious_projection(g) is projection_by_wall_scan(g), g


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_original_projection_matches_low_projection(name):
    system = get_system(name)
    shadow = low(system)
    for g in system.ball(6):
        assert op_voracious_projection(g) == voracious_projection(shadow, g)


def test_projection_monotone_between_g_and_nu(system):
    # if nu(g) <= g' <= g then nu(g') <= nu(g)
    from garside.weak_order import _lower_set

    shadow = low(system)
    for g in system.ball(6):
        nu = voracious_projection(shadow, g)
        for g2 in _lower_set(g):
            if weak_leq(nu, g2):
                assert weak_leq(voracious_projection(shadow, g2), nu)


# ---------------------------------------------------------------------------
# The language


def test_reduced_words_match_oracle():
    for name in ALL_SYSTEMS:
        system = get_system(name)
        table = oracle_ball(name, 5 if system.rank >= 4 else 6)
        for value, (_, shortlex, words) in table.items():
            assert reduced_words(system.element(shortlex)) == words


def test_language_spec_examples(dinf):
    shadow = low(dinf)
    assert language_of(shadow, dinf.identity) == {()}
    assert language_of(shadow, dinf.gens[0]) == {(0,)}
    assert language_of(shadow, dinf.element("st")) == {(0, 1)}


def test_language_of_long_element_needs_no_recursion():
    # one voracious step per letter: 3000 steps, past the recursion limit;
    # a fresh system, so its 3000 table steps are freed with it.  The chain
    # of (st)^600, read off the table those steps filled, is the fresh folds'
    dinf = _BUILDERS["dinf"]()
    shadow = low(dinf)
    g = dinf.element("st" * 1500)
    assert language_of(shadow, g) == {g.word}
    h = dinf.element("st" * 600)
    assert h in shadow.steps
    assert voracious_chain(shadow, h).steps == fold_chain(shadow, h)


@pytest.mark.parametrize("name", list(_BUILDERS))
@pytest.mark.parametrize("kind,m", SHADOW_KINDS)
def test_language_and_chain_match_the_word_model(name, kind, m):
    # the chain read off the step table is the fresh folds', and the words
    # built along it are those of the definition over the oracle's words
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    radius = 5 if system.rank >= 4 else 6
    for g in system.ball(radius):
        steps = fold_chain(shadow, g)
        assert voracious_chain(shadow, g).steps == steps
        assert language_of(shadow, g) == chain_words(name, radius, shadow, steps), g


def test_language_words_are_reduced_and_represent(system):
    shadow = low(system)
    for g in system.ball(6):
        words = language_of(shadow, g)
        assert words
        for word in words:
            assert len(word) == g.length
            assert system.element(word) == g


def test_slice_spec_examples(dinf):
    shadow = low(dinf)
    assert enumerate_language(shadow, 0).words == {()}
    words4 = enumerate_language(shadow, 4).words
    expected = {(), (0,), (1,)}
    for length in range(2, 5):
        expected.add(tuple((0, 1) * 3)[:length])
        expected.add(tuple((1, 0) * 3)[:length])
    assert words4 == expected


@pytest.mark.parametrize("name", FINITE_SYSTEMS)
def test_full_group_shadow_gives_all_reduced_words(name):
    system = get_system(name)
    everything = garside_closure(system, [], 8)
    for g in system.ball(4):
        assert voracious_projection(everything, g).is_identity()
        assert language_of(everything, g) == reduced_words(g)
    slice_ = enumerate_language(everything, 4)
    brute = set()
    for g in system.ball(4):
        brute |= reduced_words(g)
    assert slice_.words == brute


# ---------------------------------------------------------------------------
# The automaton


def test_dinf_automaton_spec_shape(dinf):
    shadow = low(dinf)
    aut = build_voracious_fsa(shadow)
    assert aut.n_states == 3
    assert len(aut.edges) == 4
    rendered = {
        (aut.state_labels[a], aut.state_labels[b], label_words(label))
        for a, b, label in aut.edges
    }
    assert rendered == {
        ("-", "s", ((0,),)),
        ("-", "t", ((1,),)),
        ("s", "t", ((1,),)),
        ("t", "s", ((0,),)),
    }
    assert aut.accepts == frozenset(range(3))  # all states accept
    assert aut.state_labels[aut.start] == "-"


def test_acceptance_examples(dinf):
    aut = build_voracious_fsa(low(dinf))
    empty = fsa_accepts(aut, ())
    assert empty.accepted and empty.states == ("-",)
    stst = fsa_accepts(aut, dinf.parse_word("stst"))
    assert stst.accepted and stst.states == ("t",)
    assert not fsa_accepts(aut, dinf.parse_word("ss")).accepted


def assert_accepted_at_projection_of_inverse(shadow, max_len):
    system = shadow.system
    aut = build_voracious_fsa(shadow)
    for g, words in languages(shadow, max_len).items():
        expected = system.render_word(scan_projection(shadow, system.inverse(g)).word)
        for word in words:
            result = fsa_accepts(aut, word)
            assert result.accepted
            assert result.states == (expected,)


def test_accept_state_is_projection_of_inverse(system):
    assert_accepted_at_projection_of_inverse(low(system), 6)


def test_accept_state_is_projection_of_inverse_on_a_large_shadow():
    # affine G2's m-low(2) shadow: 361 states and 2,618 edges whose labels
    # stand for about 30 million words, none of which is listed
    system = get_system("affine_g2")
    shadow = shadow_from_gates(system, "m-low", 2)
    aut = build_voracious_fsa(shadow)
    assert (len(shadow), len(aut.edges)) == (361, 2618)
    assert len(aut._index[0]) == 361  # B is suffix-closed: its inverses are the prefixes
    assert_accepted_at_projection_of_inverse(shadow, 4)


def test_dp_acceptance_equals_letter_expansion():
    # every word up to length 5, reduced or not: the acceptance table and
    # the NFA of the letter-expanded automaton reach the same accept states
    for name in ALL_SYSTEMS:
        system = get_system(name)
        for kind, m in (("gamma", None), ("low", None), ("m-low", 1)):
            aut = build_voracious_fsa(shadow_from_gates(system, kind, m))
            nfa = letter_expanded(aut)
            for length in range(0, 6):
                for word in product(range(system.rank), repeat=length):
                    dp = {aut.state_labels[q] for q in aut.accepting_states(word)}
                    via_nfa = {nfa.state_labels[q] for q in nfa_accepting_states(nfa, word)}
                    assert dp == via_nfa, (name, kind, m, word)


ORACLE_KINDS = (("gamma", None), ("low", None), ("m-low", 1))


@cache
def automaton_and_oracle(name, kind, m):
    """The voracious automaton of a shadow with its letter expansion, kept
    across calls so that its acceptance table stays warm."""
    shadow = shadow_from_gates(get_system(name), kind, m)
    aut = build_voracious_fsa(shadow)
    return shadow, aut, letter_expanded(aut)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(ALL_SYSTEMS),
    kind=st.sampled_from(ORACLE_KINDS),
    data=st.data(),
)
def test_the_table_agrees_with_the_oracle_on_long_words(name, kind, data):
    # words of up to 14 letters, each with the least voracious word of its
    # element and that word followed by a drawn tail, so that both accepted
    # and rejected words reach deep into the table
    shadow, aut, nfa = automaton_and_oracle(name, *kind)
    system = shadow.system
    letters = st.integers(0, system.rank - 1)
    word = data.draw(st.lists(letters, max_size=14).map(tuple))
    voracious_word = min(language_of(shadow, system.element(word)))
    tail = data.draw(st.lists(letters, max_size=14 - len(voracious_word)).map(tuple))
    for w in (word, voracious_word, voracious_word + tail):
        dp = {aut.state_labels[q] for q in aut.accepting_states(w)}
        assert dp == {nfa.state_labels[q] for q in nfa_accepting_states(nfa, w)}, w
    assert aut.accepting_states(voracious_word)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_the_voracious_table_ignores_reading_order(name):
    # every word up to length 5 (4 for rank 4), on fresh automata
    system = get_system(name)
    length = 5 if system.rank <= 3 else 4
    words = [w for n in range(length + 1) for w in product(range(system.rank), repeat=n)]
    for kind, m in ORACLE_KINDS:
        assert_table_ignores_reading_order(automaton_and_oracle(name, kind, m)[1], words)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_acceptance_results_are_stored_per_table_state(name):
    # each table state keeps one result: the sorted labels of its accept
    # states, or REJECTED; cold and warm reads return that one object, and
    # two automata of one system never return each other's results
    system = _BUILDERS[name]()
    length = 4 if system.rank <= 3 else 3
    words = [w for n in range(length + 1) for w in product(range(system.rank), repeat=n)]
    low_aut, mlow_aut = (build_voracious_fsa(shadow_from_gates(system, kind, m))
                         for kind, m in (("low", None), ("m-low", 1)))
    results = []  # equal automata (a finite group's two shadows) are still two tables
    for aut in (canonical_automaton(system, 1), cone_type_automaton(system), low_aut, mlow_aut):
        reader, expect = fresh_automaton(aut), fresh_automaton(aut)
        cold = [fsa_accepts(reader, w) for w in words]
        for w, result in zip(words, cold):
            labels = tuple(sorted(aut.state_labels[q] for q in expect.accepting_states(w)))
            assert result == (Acceptance(True, labels) if labels else REJECTED), w
            assert fsa_accepts(reader, w) is result, w
        stored = {id(entry[2]) for entry in reader._table[1]}
        assert {id(r) for r in cold} <= stored
        results.append(stored - {id(REJECTED)})
    assert results[2] and results[3] and results[2].isdisjoint(results[3])


@pytest.mark.parametrize("word,letter", [("stu", "'s'"), ((0, 7), "7"), ((-1,), "-1"), ((0, 0, 9), "9")])
def test_a_word_of_non_letters_raises(word, letter):
    # a string, an out-of-range letter, a negative one and a bad letter past
    # the dead state raise on both routes, cold or warm, and enter no table
    _, aut, nfa = automaton_and_oracle("affine_a2", "low", None)
    assert fsa_accepts(aut, (0, 1, 2)).states == ("ut",)
    match = f"^{letter} is not a letter: letters are 0..2$"
    for reader in (fresh_automaton(aut), aut):
        with pytest.raises(ValueError, match=match):
            fsa_accepts(reader, word)
        assert not any(set(moves) - {0, 1, 2} for moves in reader._table[2])
    with pytest.raises(ValueError, match=match):
        nfa_accepting_states(nfa, word)


def old_layout(shadow, aut, dot):
    """The exports as they were written when every edge stored its words:
    the edge b -> w lists sorted(reduced_words(w^-1))."""
    system = shadow.system
    edges = []
    for src, dst, _ in aut.edges:
        words = sorted(reduced_words(system.inverse(shadow.ordered[dst])))
        edges.append((src, dst, ",".join(system.render_word(w) for w in words)))
    if dot:
        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point,label=""];']
        lines += [f'  n{i} [label="{label}",shape=doublecircle];'
                  for i, label in enumerate(aut.state_labels)]
        lines.append("  __start -> n0;")
        lines += [f'  n{a} -> n{b} [label="{words}"];' for a, b, words in edges]
        return "\n".join(lines + ["}"]) + "\n"
    lines = ["# automaton v1", f"alphabet: {' '.join(system.generator_names)}",
             f"states: {aut.n_states}"]
    lines += [f"state: {i} label={label} {'start ' if i == 0 else ''}accept"
              for i, label in enumerate(aut.state_labels)]
    lines += [f"edge: {a} -> {b} labels={words}" for a, b, words in edges]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,kind,m", [
    ("triangle_334", "low", None),
    ("triangle_334", "gamma", None),
    ("affine_a2", "low", None),
    ("aa_product", "m-low", 1),
    ("dinf", "low", None),
    ("s3", "low", None),
])
def test_exports_list_each_edge_as_its_sorted_reduced_words(name, kind, m):
    shadow = shadow_from_gates(get_system(name), kind, m)
    aut = build_voracious_fsa(shadow)
    assert aut.to_text() == old_layout(shadow, aut, dot=False)
    assert aut.to_dot() == old_layout(shadow, aut, dot=True)


def oracle_fsa_edges(shadow):
    """The oracle for `build_voracious_fsa`: the double loop over pairs of
    members, with an edge b -> w for w != e exactly when projecting w*b
    onto B gives back w, the projection taken by the below-x scan rather
    than through the transition table the automaton folds."""
    system = shadow.system
    projection = cache(lambda x: scan_projection(shadow, x))
    return tuple(
        (i, j, system.inverse(w))
        for i, b in enumerate(shadow.ordered)
        for j, w in enumerate(shadow.ordered)
        if not w.is_identity() and projection(system.multiply(w, b)) == w
    )


@pytest.mark.parametrize("name", list(_BUILDERS))
@pytest.mark.parametrize("kind,m", SHADOW_KINDS)
def test_automaton_walk_matches_the_pair_oracle(name, kind, m):
    shadow = shadow_from_gates(get_system(name), kind, m)
    aut = build_voracious_fsa(shadow)
    expected = oracle_fsa_edges(shadow)
    assert aut.edges == expected
    reference = replace(aut, edges=expected)
    assert aut.to_text() == reference.to_text()
    assert aut.to_dot() == reference.to_dot()


def test_automaton_walk_matches_the_pair_oracle_on_a_large_shadow():
    # the exports of affine G2's m-low(2) automaton would list about 30
    # million words, so only the edges are compared
    shadow = shadow_from_gates(get_system("affine_g2"), "m-low", 2)
    assert build_voracious_fsa(shadow).edges == oracle_fsa_edges(shadow)


def test_building_and_accepting_list_no_word(monkeypatch):
    # the expected verdicts come first, from the language of a twin system;
    # the tested system is fresh, so no memo table holds words of other tests
    twin = _BUILDERS["triangle_334"]()
    twin_low = low(twin)
    words = [g.word for g in twin.ball(6)] + [(0, 0, 1), (1, 2, 1, 2, 1, 2)]
    expected = []
    for word in words:
        g = twin.element(word)
        accept = b_projection(twin_low, twin.inverse(g))
        voracious_word = word in language_of(twin_low, g)
        expected.append((voracious_word, (str(accept),) if voracious_word else ()))

    def no_words(g):
        raise AssertionError("reduced_words called")

    for module in (automata, voracious, weak_order):
        monkeypatch.setattr(module, "reduced_words", no_words)
    system = _BUILDERS["triangle_334"]()
    aut = build_voracious_fsa(low(system))
    got = [fsa_accepts(aut, word) for word in words]
    assert [(r.accepted, r.states) for r in got] == expected
    assert 0 < sum(accepted for accepted, _ in expected) < len(words)
    assert not system.cache("reduced_words")


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("kind,m", [("gamma", None), ("low", None), ("m-low", 1)])
def test_regularity_cross_validation(name, kind, m):
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    report = cross_validate_regularity(shadow, 6)
    assert report.passed, report.witness


def test_regularity_failure_names_accept_state_mismatch(monkeypatch, affine_a2):
    # the same language, accepted at the wrong states: only the witness's
    # word names the fault, since no word is missing or extra
    build = voracious.build_voracious_fsa

    def reversed_labels(shadow):
        aut = build(shadow)
        return replace(aut, state_labels=aut.state_labels[::-1])

    monkeypatch.setattr(voracious, "build_voracious_fsa", reversed_labels)
    report = cross_validate_regularity(low(affine_a2), 3)
    assert not report.passed
    assert report.details == "max-len=3 words=22"
    assert report.witness == "missing=() extra=() word=- states=usts predicted=-"


def test_regularity_failure_renders_the_missing_words(monkeypatch, affine_a2):
    # without the first edge (- -> s, labelled s) the automaton misses the
    # words that start with its only reduced word
    build = voracious.build_voracious_fsa

    def first_edge_dropped(shadow):
        aut = build(shadow)
        return replace(aut, edges=aut.edges[1:])

    monkeypatch.setattr(voracious, "build_voracious_fsa", first_edge_dropped)
    report = cross_validate_regularity(low(affine_a2), 3)
    assert not report.passed
    assert report.details == "max-len=3 words=22"
    assert report.witness == "missing=(s, stu, sut) extra=()"


def test_regularity_checks_the_transition_table(affine_a2):
    # a wrong delta entry reaches the automaton and the language slice
    # alike; only a prediction that does not read delta can see it
    shadow = low(affine_a2)
    position = {b: i for i, b in enumerate(shadow.ordered)}
    table = [row[:] for row in shadow.delta]
    s, t = affine_a2.gens[:2]
    assert table[position[s]][1] == position[t * s]  # projection_B(ts) = ts
    table[position[s]][1] = position[t]
    fake = GarsideShadow(affine_a2, shadow.ordered, shadow.members, shadow.constant_m, "fake",
                         table)
    report = cross_validate_regularity(fake, 3)
    assert not report.passed
    assert report.witness == "missing=() extra=() word=st states=t predicted=ts"


def test_no_edges_into_identity(system):
    aut = build_voracious_fsa(low(system))
    identity_state = aut.start
    for _, dst, _ in aut.edges:
        assert dst != identity_state
