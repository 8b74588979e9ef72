from collections import defaultdict

import pytest

from garside import (
    CoxeterSystem,
    RootLimitExceeded,
    elementary_walls,
    elementary_walls_oracle,
    is_shi_gate,
    low_index,
    m_close,
    separation_count,
    shi_gates,
    shi_sign_vector,
    wall_separation_oracle,
    weak_leq,
)
from garside import shi
from conftest import ALL_SYSTEMS, get_system


def test_simple_walls_always_elementary(system):
    srs = elementary_walls(system, 0)
    for alpha in system.simple_roots:
        assert alpha in srs


def test_dinf_sigma_is_the_two_simple_walls(dinf):
    srs = elementary_walls(dinf, 0)
    assert srs.roots == frozenset(dinf.simple_roots)


def test_sigma_sizes_monotone(system):
    sizes = [len(elementary_walls(system, m)) for m in range(4)]
    assert sizes == sorted(sizes)
    for m in range(3):
        assert elementary_walls(system, m).roots <= elementary_walls(system, m + 1).roots


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("m", [0, 1, 2])
def test_fast_route_matches_wall_count_oracle(name, m):
    system = get_system(name)
    radius = 6
    fast = elementary_walls(system, m).roots
    oracle = set(elementary_walls_oracle(system, m, radius))
    assert fast == oracle


def test_separation_counts_match_oracle(system):
    counts = wall_separation_oracle(system, 6)
    # compare on walls well inside the window, where truncation cannot bite
    for wall, oracle_count in counts.items():
        if system.root_depth(wall) <= 3:
            assert separation_count(system, wall) == oracle_count


def test_m_close_spec_examples(dinf):
    alpha_s = dinf.simple_roots[0]
    assert m_close(alpha_s, dinf.identity, 0)
    assert m_close(alpha_s, dinf.gens[0], 0)
    wall_tst = dinf.act_word(dinf.parse_word("t"), dinf.simple_roots[0])
    assert not m_close(wall_tst, dinf.identity, 0)
    assert m_close(wall_tst, dinf.identity, 1)


def test_reflection_table_markers(dinf):
    roots = elementary_walls(dinf, 0).roots
    alpha_s, alpha_t = dinf.simple_roots
    assert dinf.reflect(0, alpha_s).sign() < 0
    assert dinf.reflect(0, alpha_t) not in roots  # leaves the set
    assert dinf.reflect(1, alpha_s) not in roots


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_descent_walk_agrees_with_outward_walk(name):
    # the inward walk of root_descent against the outward walk of
    # elementary_walls: members count at most m walls, and each positive
    # simple reflection of a member that leaves the set counts more
    system = get_system(name)
    for m in range(3):
        srs = elementary_walls(system, m)
        for beta in srs.ordered:
            assert separation_count(system, beta) <= m
            for s in range(system.rank):
                gamma = system.reflect(s, beta)
                if gamma.sign() > 0 and gamma not in srs:
                    assert separation_count(system, gamma) > m


def _sign_patterns_over_root_sets(system, m):
    """Oracle for `shi.sign_patterns`: the same breadth-first walk with each
    pattern held as a frozenset of Root objects, imaged root by root."""
    roots = elementary_walls(system, m).roots
    states = [frozenset()]
    index = {states[0]: 0}
    witnesses, transitions = [()], []
    for i, state in enumerate(states):
        for s in range(system.rank):
            alpha = system.simple_roots[s]
            if alpha in state:
                continue
            key = frozenset({alpha} | {system.reflect(s, g) for g in state} & roots)
            j = index.get(key)
            if j is None:
                j = index[key] = len(states)
                states.append(key)
                witnesses.append(witnesses[i] + (s,))
            transitions.append((i, s, j))
    return witnesses, transitions


_PATTERN_CASES = [(name, m) for name in ALL_SYSTEMS for m in range(4)]
_PATTERN_CASES += [(name, m) for name in ("affine_g2", "h3") for m in (0, 1)]


@pytest.mark.parametrize("name, m", _PATTERN_CASES)
def test_bitmask_sign_patterns_match_the_root_set_walk(name, m):
    system = get_system(name)
    assert shi.sign_patterns(system, m) == _sign_patterns_over_root_sets(system, m)


@pytest.mark.parametrize("name, m", _PATTERN_CASES)
def test_walk_depth_order_is_the_root_sort_key_order(name, m):
    # the outward walk's depths against root_descent's inward ones; a fresh
    # system, so root_descent starts from its simple roots alone
    system = CoxeterSystem(get_system(name).matrix)
    srs = elementary_walls(system, m)
    assert srs.ordered == tuple(sorted(srs.roots, key=system.root_sort_key))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_low_index_matches_the_wall_set_definition(name):
    # the largest separation count over separating_walls(g, g*s), s a right
    # descent of g, against the one bit of the mask XOR that low_index reads
    system = get_system(name)
    for g in system.ball(6 if system.rank <= 3 else 5):
        right = [s for s in range(system.rank) if system.right_multiply(g, s).length < g.length]
        walls = [w for s in right for w in system.separating_walls(g, system.right_multiply(g, s))]
        expected = max((separation_count(system, w) for w in walls), default=0)
        assert low_index(g) == expected, str(g)


def test_sign_vectors(dinf):
    assert not any(shi_sign_vector(dinf.identity, 0).bits)
    s, t = dinf.gens
    st = dinf.element("st")
    assert shi_sign_vector(st, 0) == shi_sign_vector(s, 0)
    assert shi_sign_vector(s, 0) != shi_sign_vector(t, 0)


def test_dinf_gates(dinf):
    assert [str(g) for g in shi_gates(dinf, 0)] == ["-", "s", "t"]
    assert [str(g) for g in shi_gates(dinf, 1)] == ["-", "s", "t", "st", "ts"]


def test_finite_group_gates_are_everything(s3, i24):
    assert len(shi_gates(s3, 0)) == 6
    assert len(shi_gates(i24, 0)) == 8


def test_gate_sets_nest(system):
    for m in (0, 1):
        assert set(shi_gates(system, m)) <= set(shi_gates(system, m + 1))


def test_affine_a2_has_sixteen_shi_parts(affine_a2):
    # the classical count of Shi regions for this group
    assert len(shi_gates(affine_a2, 0)) == 16


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("m", [0, 1])
def test_gates_are_part_minima_on_balls(name, m):
    system = get_system(name)
    gates = shi_gates(system, m)
    roots = elementary_walls(system, m).roots
    radius = 6 if system.rank <= 3 else 5
    parts = defaultdict(list)
    for g in system.ball(radius):
        parts[frozenset(system.inversion_walls(g) & roots)].append(g)
    gate_by_pattern = {
        frozenset(system.inversion_walls(b) & roots): b for b in gates
    }
    assert len(gate_by_pattern) == len(gates)  # patterns distinguish gates
    for pattern, members in parts.items():
        gate = gate_by_pattern[pattern]
        lengths = min(h.length for h in members)
        if gate in members:
            assert gate.length == lengths
            for h in members:
                assert weak_leq(gate, h)


def test_is_shi_gate(system):
    for b in shi_gates(system, 0):
        assert is_shi_gate(b, 0)
    # some non-gate: any ball element outside the gate set
    gates = set(shi_gates(system, 0))
    for g in system.ball(3):
        if g not in gates:
            assert not is_shi_gate(g, 0)
    with pytest.raises(ValueError, match="m must be >= 0"):
        is_shi_gate(system.identity, -1)


def _gate_by_ball_scan(g, m):
    """The definition: no other element of length <= l(g) is in g's m-Shi part."""
    system = g.system
    small = elementary_walls(system, m).mask
    return not any(
        h != g and (h.mask ^ g.mask) & small == 0 for h in system.ball(g.length)
    )


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_local_gate_test_matches_ball_scan(name):
    system = get_system(name)
    radius = 6 if system.rank <= 3 else 5
    for m in range(4):
        for g in system.ball(radius):
            assert is_shi_gate(g, m) == _gate_by_ball_scan(g, m), (str(g), m)


def test_root_depth_matches_bfs_layers(system):
    # BFS over the root graph is the definitional route to depth
    frontier = set(system.simple_roots)
    seen = dict.fromkeys(frontier, 1)
    for depth in range(2, 7):
        nxt = set()
        for root in frontier:
            for s in range(system.rank):
                image = system.reflect(s, root)
                if image.sign() > 0 and image not in seen:
                    seen[image] = depth
                    nxt.add(image)
        frontier = nxt
    for root, depth in seen.items():
        if depth <= 5:
            assert system.root_depth(root) == depth


def test_walks_past_the_size_limit_raise_a_typed_error(monkeypatch):
    # affine-A2 has 12 1-elementary walls and 49 1-Shi sign patterns
    system = CoxeterSystem(get_system("affine_a2").matrix)
    elementary_walls(system, 1)  # cached before the limit drops
    monkeypatch.setattr(shi, "_MAX_ROOTS", 10)
    with pytest.raises(RootLimitExceeded, match="small-root walk for m=2 passed 10 roots"):
        elementary_walls(system, 2)
    with pytest.raises(RootLimitExceeded, match="sign-pattern walk for m=1 passed 10 patterns"):
        shi_gates(system, 1)
