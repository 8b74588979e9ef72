from itertools import product

import pytest

from garside import (
    b_projection,
    build_voracious_fsa,
    cross_validate_regularity,
    enumerate_language,
    fsa_accepts,
    garside_closure,
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

from conftest import _BUILDERS, ALL_SYSTEMS, FINITE_SYSTEMS, get_system, oracle_ball


def low(system):
    return shadow_from_gates(system, "low")


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


def test_original_projection_examples(dinf):
    assert op_voracious_projection(dinf.identity).is_identity()
    assert op_voracious_projection(dinf.gens[0]).is_identity()
    assert op_voracious_projection(dinf.element("stst")) == dinf.element("sts")


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
    # a fresh system, so its 3000 cached languages are freed with it
    dinf = _BUILDERS["dinf"]()
    g = dinf.element("st" * 1500)
    assert language_of(low(dinf), g) == {g.word}


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
        (aut.state_labels[a], aut.state_labels[b], labels)
        for a, b, labels in aut.edges
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


def test_accept_state_is_projection_of_inverse(system):
    shadow = low(system)
    aut = build_voracious_fsa(shadow)
    slice_ = enumerate_language(shadow, 6)
    for g, words in slice_.by_element.items():
        expected = system.render_word(
            b_projection(shadow, system.inverse(g)).word
        )
        for word in words:
            result = fsa_accepts(aut, word)
            assert result.accepted
            assert result.states == (expected,)


def test_dp_acceptance_equals_letter_expansion(dinf, s3, affine_a2):
    for system in (dinf, s3, affine_a2):
        aut = build_voracious_fsa(low(system))
        nfa = letter_expanded(aut)
        for length in range(0, 6):
            for word in product(range(system.rank), repeat=length):
                dp = aut.accepting_states(word)
                via_nfa = nfa_accepting_states(nfa, word)
                assert bool(dp) == bool(via_nfa)
                if dp:
                    assert {aut.state_labels[q] for q in dp} == {
                        nfa.state_labels[q] for q in via_nfa
                    }


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("kind,m", [("gamma", None), ("low", None), ("m-low", 1)])
def test_regularity_cross_validation(name, kind, m):
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    report = cross_validate_regularity(shadow, 6)
    assert report.ok, (report.missing_from_automaton, report.extra_in_automaton)


def test_no_edges_into_identity(system):
    aut = build_voracious_fsa(low(system))
    identity_state = aut.start
    for _, dst, _ in aut.edges:
        assert dst != identity_state
