import pytest

from garside import (
    MixedSystemError,
    join,
    lower_interval,
    make_system,
    meet,
    weak_leq,
)
from garside.weak_order import weak_leq_by_lengths

from conftest import _BUILDERS, get_system


def test_weak_leq_spec_examples(dinf):
    s, t = dinf.gens
    st = dinf.element("st")
    assert weak_leq(dinf.identity, st)
    assert weak_leq(s, st)
    assert not weak_leq(t, st)


def test_weak_leq_rejects_mixed_systems(dinf, affine_a2, triangle_334):
    with pytest.raises(MixedSystemError):
        weak_leq(dinf.element("stst"), affine_a2.element("stu"))
    # same rank and names, different labels: inversion masks do not compare
    with pytest.raises(MixedSystemError):
        weak_leq(affine_a2.element("st"), triangle_334.element("sts"))
    twin = make_system(["s", "t"], {("s", "t"): 0})
    with pytest.raises(MixedSystemError):
        weak_leq(dinf.identity, twin.identity)


def test_weak_leq_characterisations_agree(system):
    ball = list(system.ball(5))
    for g in ball:
        for h in ball:
            assert weak_leq(g, h) == weak_leq_by_lengths(g, h)


def test_weak_leq_is_partial_order(system):
    ball = list(system.ball(5 if system.rank <= 3 else 4))
    rel = {(g, h) for g in ball for h in ball if weak_leq(g, h)}
    for g in ball:
        assert (g, g) in rel
    for g, h in rel:
        if g != h:
            assert (h, g) not in rel
    below = {}
    for g, h in rel:
        below.setdefault(h, set()).add(g)
    for g, h in rel:
        assert below.get(g, set()) <= below.get(h, set())  # transitivity


def test_meet_spec_examples(s3):
    s, t = s3.gens
    st, sts = s3.element("st"), s3.element("sts")
    assert meet([st]) == st
    assert meet([s, t]).is_identity()
    assert meet([st, sts]) == st


def test_meet_is_greatest_lower_bound(system):
    ball = list(system.ball(4))
    for g in ball:
        for h in ball:
            m = meet([g, h])
            assert weak_leq(m, g) and weak_leq(m, h)
            for c in ball:
                if weak_leq(c, g) and weak_leq(c, h):
                    assert weak_leq(c, m)


def test_meet_and_join_reject_mixed_systems(dinf, affine_a2):
    for op in (meet, join):
        with pytest.raises(MixedSystemError):
            op([dinf.gens[0], affine_a2.gens[0]])


def test_join_bounded_spec_examples(s3):
    s, t = s3.gens
    assert join([s]) == s
    assert join([s3.identity]).is_identity()
    assert join([s, t]) == s3.element("sts")


def test_join_bounded_is_least_upper_bound(system):
    ball = list(system.ball(4))
    for bound in ball:
        inside = [x for x in ball if weak_leq(x, bound)]
        for a in inside:
            for b in inside:
                j = join([a, b])
                assert weak_leq(a, j) and weak_leq(b, j) and weak_leq(j, bound)
                for c in inside:
                    if weak_leq(a, c) and weak_leq(b, c):
                        assert weak_leq(j, c)


def test_iterated_pairwise_join_matches_full_join(s3, i24, affine_a2):
    for system in (s3, i24, affine_a2):
        ball = list(system.ball(4))
        for bound in ball:
            inside = [x for x in ball if weak_leq(x, bound)]
            for a in inside:
                for b in inside:
                    for c in inside:
                        assert join([a, b, c]) == join([join([a, b]), c])


def test_join_search(dinf, s3):
    s, t = s3.gens
    assert join([s3.gens[0]]) == s3.gens[0]
    assert join([s, t]) == s3.element("sts")
    # D-infinity has no upper bound of s and t anywhere
    assert join(dinf.gens) is None


@pytest.mark.parametrize("name", _BUILDERS)
def test_join_matches_ball_oracle(name):
    # the oracle: a join, when it exists, is the ShortLex-first common upper
    # bound; a pair from ball(R) with none in ball(2R + 6) is taken to have none
    system = get_system(name)
    radius = 3 if name == "affine_g2" else 4
    small = list(system.ball(radius))
    # the finite H3 is whole at radius 15, the length of its longest element
    big = system.ball(15 if name == "h3" else 2 * radius + 6)
    unbounded = 0
    for i, a in enumerate(small):
        for b in small[i:]:
            expected = next((x for x in big if weak_leq(a, x) and weak_leq(b, x)), None)
            assert join([a, b]) == expected, (a, b)
            unbounded += expected is None
    if name in ("s3", "i24", "h3"):
        assert unbounded == 0
    else:
        assert unbounded > 0


def test_lower_interval(dinf, s3):
    assert [str(g) for g in lower_interval(dinf.identity)] == ["-"]
    assert len(lower_interval(dinf.gens[0])) == 2
    full = lower_interval(s3.element("sts"))
    assert len(full) == 6
    assert s3.element("ts") in full


def test_lower_interval_is_prefix_set(system):
    for g in system.ball(4):
        members = lower_interval(g).member_set
        expected = {x for x in system.ball(4) if weak_leq(x, g)}
        assert members == expected
