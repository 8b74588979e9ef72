import gc
import random
import weakref

import pytest

from garside import (
    CoxeterSystem,
    CutoffExceeded,
    MixedSystemError,
    ShadowFileError,
    b_projection,
    cone_type_gates,
    garside_closure,
    is_shi_gate,
    join_bounded,
    lower_interval,
    partition_part,
    refinement_check,
    shadow_from_gates,
    shadow_from_text,
    shadow_to_text,
    language_of,
    make_shadow,
    make_system,
    validate_shadow,
    weak_leq,
)

from conftest import ALL_SYSTEMS, get_system, oracle_ball, oracle_eval, _BUILDERS

SHADOW_KINDS = (("low", None), ("m-low", 1), ("m-low", 2), ("gamma", None))


def test_shadow_constants(dinf, s3):
    assert shadow_from_gates(dinf, "low").constant_m == 1
    gamma = shadow_from_gates(s3, "gamma")
    assert len(gamma) == 6 and gamma.constant_m == 3


def test_validate_spec_examples(dinf, s3):
    assert validate_shadow(dinf, [dinf.identity, *dinf.gens]).ok
    result = validate_shadow(dinf, [dinf.identity, dinf.gens[0]])
    assert not result.ok and "generator" in result.violation
    result = validate_shadow(s3, [s3.identity, *s3.gens])
    assert not result.ok
    assert "join" in result.violation and s3.element("sts") in result.witness


def test_validate_reports_missing_suffix(s3):
    sts = s3.element("sts")
    full = {s3.identity, *s3.gens, sts, s3.element("st")}
    result = validate_shadow(s3, full)  # "ts" missing, a suffix of sts
    assert not result.ok and "suffix" in result.violation


def test_violation_witnesses_are_fixed():
    # Elements hash by the address of their system, so a witness taken in
    # hash order would change from one system object to the next; the
    # ShortLex-first witness does not.
    systems = [
        (
            make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}),
            make_system(["s", "t", "u"], {}),
        )
        for _ in range(8)
    ]
    for affine, cube in systems:
        e = affine.element
        result = validate_shadow(affine, [affine.identity, *affine.gens, e("stus"), e("tuts")])
        assert result.violation == "suffix tus of stus missing"
        e = cube.element
        result = validate_shadow(cube, [cube.identity, *cube.gens, e("st"), e("su"), e("tu")])
        assert result.violation == "join stu of tu and s missing"


def test_validation_rejects_elements_of_another_system(affine_a2, triangle_334):
    low = shadow_from_gates(affine_a2, "low")
    with pytest.raises(MixedSystemError):
        make_shadow(affine_a2, [*low.members, triangle_334.identity], "x")
    foreign = triangle_334.element("st")
    with pytest.raises(MixedSystemError):
        validate_shadow(affine_a2, [affine_a2.identity, *affine_a2.gens, foreign])
    with pytest.raises(MixedSystemError):
        garside_closure(affine_a2, [foreign], 12)


@pytest.mark.parametrize("name", ["s3", "dinf"])
def test_suffix_verdict_matches_reduced_word_definition(name):
    # the definition: every suffix of every reduced word of a member, taken
    # from the oracle model, is a member; checked on every subset of ball(3)
    # that holds the identity and the generators
    system = get_system(name)
    table = oracle_ball(name, 3)
    element = {value: system.element(word) for value, (_, word, _) in table.items()}
    suffixes = {
        element[value]: {element[oracle_eval(name, w[i:])] for w in words for i in range(len(w) + 1)}
        for value, (_, _, words) in table.items()
    }
    base = {system.identity, *system.gens}
    rest = sorted(set(element.values()) - base)
    for bits in range(1 << len(rest)):
        members = base | {g for i, g in enumerate(rest) if bits >> i & 1}
        closed = all(suffixes[b] <= members for b in members)
        violation = validate_shadow(system, members).violation or ""
        assert closed == (not violation.startswith("suffix")), sorted(members)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("kind,m", SHADOW_KINDS)
def test_gate_shadows_validate(name, kind, m):
    shadow = shadow_from_gates(get_system(name), kind, m)
    assert shadow.constant_m == max(g.length for g in shadow)
    assert validate_shadow(shadow.system, shadow.members).ok


def _join_verdict_by_ball_scan(system, members):
    """Oracle for the join scan of `validate_shadow`: the Cayley-ball scan it
    replaced.  Scans ball(max(2 * longest member, largest finite label, 2))
    in ShortLex order for an x below which the members have no maximum, so
    a join beyond that ball goes unseen.  Takes a suffix-closed set; returns
    (ok, violation)."""
    for s in system.gens:
        if s not in members:
            return False, f"generator {s} missing"
    entries = system.matrix.entries
    labels = [entries[i][j] for i in range(system.rank) for j in range(i) if entries[i][j]]
    radius = max(2 * max(g.length for g in members), *labels, 2)
    members = sorted(members)
    for x in system.ball(radius):
        below = [b for b in members if weak_leq(b, x)]
        top = below[-1]
        for b in below:
            if not weak_leq(b, top):
                return False, f"join {join_bounded([top, b], x)} of {top} and {b} missing"
    return True, None


def _oracle_families(system, rng):
    """Suffix-closed candidate sets: the low, gamma and m-low(1) shadows,
    each without its longest member, and each plus a random element and all
    its suffixes (the inverses of the prefixes of its inverse)."""
    for kind, m in (("low", None), ("gamma", None), ("m-low", 1)):
        shadow = shadow_from_gates(system, kind, m)
        yield shadow.members - {shadow.ordered[-1]}
        ball = system.ball(shadow.constant_m + 2).elements
        for _ in range(6):
            g = system.inverse(rng.choice(ball))
            yield shadow.members | {system.inverse(x) for x in lower_interval(g)}


@pytest.mark.parametrize("name", _BUILDERS)
def test_join_scan_matches_ball_scan_oracle(name):
    system = get_system(name)
    rng = random.Random(20161)
    verdicts = []
    for members in _oracle_families(system, rng):
        result = validate_shadow(system, members)
        assert (result.ok, result.violation) == _join_verdict_by_ball_scan(system, members)
        verdicts.append(result.ok)
    assert len(verdicts) == 21
    if name != "dinf":  # D-infinity has no joins, so every set is valid
        assert not all(verdicts)


def test_validation_and_closure_read_no_ball(monkeypatch):
    # fresh systems, so no memo table of another test hides a ball call
    g2, a2, tri = (_BUILDERS[n]() for n in ("affine_g2", "affine_a2", "triangle_334"))
    text = shadow_to_text(shadow_from_gates(g2, "m-low", 2))
    expected = {
        system: shadow_from_gates(system, "gamma").members for system in (a2, tri)
    }
    low = shadow_from_gates(a2, "low")
    broken = low.members - {low.ordered[-1]}
    verdict = _join_verdict_by_ball_scan(a2, broken)
    stu = a2.element("stu")

    def no_ball(self, radius):
        raise AssertionError("ball() called")

    monkeypatch.setattr(CoxeterSystem, "ball", no_ball)
    assert validate_shadow(a2, low.members).ok
    result = validate_shadow(a2, broken)
    assert (result.ok, result.violation) == verdict
    again = shadow_from_text(g2, text)
    assert len(again) == 361 and shadow_to_text(again) == text
    for system, members in expected.items():
        assert garside_closure(system, [], 8).members == members
    assert len(garside_closure(a2, [stu], 12)) == 28


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_gamma_is_smallest(name):
    system = get_system(name)
    gamma = set(cone_type_gates(system))
    for kind, m in SHADOW_KINDS:
        shadow = shadow_from_gates(system, kind, m)
        assert gamma <= shadow.members


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("kind,m", SHADOW_KINDS)
def test_members_gate_their_shi_parts(name, kind, m):
    # containment in the M-low set, by the gate criterion
    shadow = shadow_from_gates(get_system(name), kind, m)
    for b in shadow:
        assert is_shi_gate(b, shadow.constant_m)


def test_closure_fills_finite_groups(s3, i24, dinf):
    assert len(garside_closure(s3, [], 8)) == 6
    assert len(garside_closure(i24, [], 8)) == 8
    assert {str(g) for g in garside_closure(dinf, [], 8)} == {"-", "s", "t"}


def test_closure_is_fixed_point_on_valid_shadows(affine_a2):
    low = shadow_from_gates(affine_a2, "low")
    again = garside_closure(affine_a2, low.members, 10)
    assert again.members == low.members


@pytest.mark.parametrize(
    "name,cutoff", [("affine_a2", 8), ("triangle_334", 10), ("aa_product", 8)]
)
def test_closure_of_empty_seed_is_the_smallest_shadow(name, cutoff):
    # the closure has to add joins here, which once raised KeyError mid-scan
    system = get_system(name)
    closure = garside_closure(system, [], cutoff)
    assert closure.members == shadow_from_gates(system, "gamma").members


def test_closure_of_seed_adds_its_joins(affine_a2):
    stu = affine_a2.element("stu")
    closure = garside_closure(affine_a2, [stu], 12)
    assert stu in closure
    assert len(closure) == 28
    assert validate_shadow(affine_a2, closure.members).ok


def test_closure_cutoff(s3):
    with pytest.raises(CutoffExceeded):
        garside_closure(s3, [], 2)


def test_projection_spec_examples(dinf):
    low = shadow_from_gates(dinf, "low")
    assert b_projection(low, dinf.identity).is_identity()
    for s in dinf.gens:
        assert b_projection(low, s) == s
    assert b_projection(low, dinf.element("st")) == dinf.gens[0]
    # inversion masks of another system's elements do not compare
    with pytest.raises(MixedSystemError):
        b_projection(low, get_system("s3").element("st"))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_projection_properties(name):
    system = get_system(name)
    shadow = shadow_from_gates(system, "low")
    radius = min(shadow.constant_m + 4, 7)
    for g in system.ball(radius):
        p = b_projection(shadow, g)
        assert p in shadow
        assert weak_leq(p, g)
        assert b_projection(shadow, p) == p
        for b in shadow:
            if weak_leq(b, g):
                assert weak_leq(b, p)


def test_partition_parts(dinf):
    low = shadow_from_gates(dinf, "low")
    s = dinf.gens[0]
    assert [str(g) for g in partition_part(low, dinf.identity, 3)] == ["-"]
    assert [str(g) for g in partition_part(low, s, 3)] == ["s", "st", "sts"]
    assert s in partition_part(low, s, 1)
    with pytest.raises(ValueError, match="not a member"):
        partition_part(low, dinf.element("st"), 3)


def test_part_gates(system):
    shadow = shadow_from_gates(system, "low")
    for b in shadow:
        for g in partition_part(shadow, b, 5):
            assert weak_leq(b, g)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_refinement_gamma_low_low1(name):
    system = get_system(name)
    gamma = shadow_from_gates(system, "gamma")
    low = shadow_from_gates(system, "low")
    low1 = shadow_from_gates(system, "m-low", 1)
    assert refinement_check(gamma, low, 6).ok
    assert refinement_check(low, low1, 6).ok
    assert refinement_check(low, low, 6).ok  # vacuous


def test_refinement_precondition(dinf):
    low = shadow_from_gates(dinf, "low")
    low1 = shadow_from_gates(dinf, "m-low", 1)
    with pytest.raises(ValueError, match="inside"):
        refinement_check(low1, low, 4)


def test_serialization_roundtrip(system):
    for kind, m in (("low", None), ("gamma", None)):
        shadow = shadow_from_gates(system, kind, m)
        text = shadow_to_text(shadow)
        again = shadow_from_text(system, text)
        assert again.members == shadow.members
        assert again.provenance == shadow.provenance
        assert again.constant_m == shadow.constant_m
        assert shadow_to_text(again) == text


def test_serialization_rejects_corruption(s3, dinf):
    low = shadow_from_gates(s3, "gamma")
    text = shadow_to_text(low)
    # drop one element line: axioms break
    lines = text.strip().splitlines()
    removed = "\n".join(
        line for line in lines if line.strip() != "sts"
    ).replace("elements: 6", "elements: 5")
    with pytest.raises(ShadowFileError):
        shadow_from_text(s3, removed + "\n")
    # wrong group
    with pytest.raises(ShadowFileError, match="different group"):
        shadow_from_text(dinf, text)
    # non-normal-form word
    broken = text.replace("\nsts", "\ntst")
    with pytest.raises(ShadowFileError, match="normal form"):
        shadow_from_text(s3, broken)
    # a repeated member line, with the count raised to match
    repeated = text.replace("elements: 6", "elements: 7") + "sts\n"
    with pytest.raises(ShadowFileError, match="listed twice"):
        shadow_from_text(s3, repeated)
    # a member line with an unknown generator
    with pytest.raises(ShadowFileError, match="unknown generator"):
        shadow_from_text(s3, text.replace("\nsts", "\nstx"))
    # count fields that are not integers
    for field, bad in (("elements: 6", "elements: many"), ("constant-m: 3", "constant-m: x4")):
        assert field in text
        with pytest.raises(ShadowFileError, match="not an integer"):
            shadow_from_text(s3, text.replace(field, bad))


def test_dropped_systems_are_freed():
    # memo tables live on the system and the shadow, so nothing derived
    # from a system keeps it alive once the caller lets go of it
    refs = []
    for _ in range(4):
        system = make_system(
            ["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}
        )
        low = shadow_from_gates(system, "low")
        g = system.element("stsu")
        assert b_projection(low, g) in low
        assert language_of(low, g)
        refs += [weakref.ref(system), weakref.ref(low)]
    del system, low, g
    gc.collect()
    assert [r for r in refs if r() is not None] == []
