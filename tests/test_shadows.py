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
    join,
    meet,
    lower_interval,
    partition_part,
    reduced_words,
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

from garside.automata import cone_type_automaton
from garside.coxeter import InternalInconsistencyError, shortlex_key
from garside.shadows import GarsideShadow, _check_walk
from garside.shi import gate_walk, sign_patterns

from conftest import ALL_SYSTEMS, get_system, oracle_ball, oracle_eval, scan_projection, _BUILDERS

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


def _count_calls(monkeypatch, *names):
    """Counters on functions of `garside.shadows`, looked up there at call time."""
    import garside.shadows as module

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def _witness_gates(system, kind, m):
    """The gates as the inverses of the walk's witness words, each built by
    one walk from the identity over its reversed word."""
    if kind == "gamma":
        words = map(system.parse_word, cone_type_automaton(system).state_labels)
    else:
        words = sign_patterns(system, m or 0)[0]
    return sorted((system.element(word[::-1]) for word in words), key=shortlex_key)


@pytest.mark.parametrize("name", _BUILDERS)
@pytest.mark.parametrize("kind,m", SHADOW_KINDS)
def test_gate_shadow_delta_is_the_walk_and_matches_the_scan(monkeypatch, name, kind, m):
    # a fresh system, so no memo of another test builds the shadow; the
    # walk's table must equal the below-x scan's entry for entry, and the
    # gates the inverses of the witnesses, with no join scan on the way
    system = _BUILDERS[name]()
    calls = _count_calls(monkeypatch, "validate_shadow", "_join_failures", "_top_below")
    shadow = shadow_from_gates(system, kind, m)
    delta = shadow.delta
    assert calls == {"validate_shadow": 0, "_join_failures": 0, "_top_below": 0}
    monkeypatch.undo()
    assert list(shadow.ordered) == _witness_gates(system, kind, m)
    scanned = GarsideShadow(system, shadow.ordered, shadow.members, shadow.constant_m, "scan")
    assert delta == scanned.delta
    assert shadow_from_gates(system, kind, m) is shadow


def test_the_walk_check_rejects_a_wrong_table(affine_a2):
    gates, delta = gate_walk(affine_a2, 1)
    _check_walk(affine_a2, gates, delta)
    # an entry sending b by s to a member not below s*b, then a missing entry
    i, s = next((i, s) for i, row in enumerate(delta) for s, j in enumerate(row) if j is not None)
    above = affine_a2.multiply(affine_a2.gens[s], gates[i])
    for wrong_j in (next(k for k, c in enumerate(gates) if c.mask & ~above.mask), None):
        wrong = [list(row) for row in delta]
        wrong[i][s] = wrong_j
        with pytest.raises(InternalInconsistencyError, match="delta is wrong"):
            _check_walk(affine_a2, gates, wrong)


@pytest.mark.parametrize(
    "kind,m",
    [
        ("m-low", True),  # a bool is an int, but would be cached as m-low(1)
        ("m-low", False),
        ("m-low", 1.5),
        ("m-low", 1.0),
        ("m-low", "1"),
        ("m-low", None),
        ("m-low", -1),
        ("low", 3),  # would build a second low shadow beside the first
        ("low", 0),
        ("gamma", 5),
        ("mlow", 1),
        ("closure", None),
    ],
)
def test_shadow_from_gates_checks_its_m(kind, m):
    system = _BUILDERS["affine_a2"]()
    with pytest.raises(ValueError, match="gate kinds are"):
        shadow_from_gates(system, kind, m)
    assert system.cache("gate_shadows") == {}
    assert shadow_from_gates(system, "m-low", 1).provenance == "m-low(1)"
    assert shadow_from_gates(system, "m-low", 0) is shadow_from_gates(system, "low")


def test_a_gate_shadow_reloads_as_itself(monkeypatch):
    system = _BUILDERS["triangle_334"]()
    shadows = [shadow_from_gates(system, kind, m) for kind, m in SHADOW_KINDS]
    calls = _count_calls(monkeypatch, "validate_shadow")
    for shadow in shadows:
        assert shadow_from_text(system, shadow_to_text(shadow)) is shadow
    assert calls["validate_shadow"] == 0


def test_a_low_file_reloads_as_the_low_shadow_of_a_fresh_system(monkeypatch):
    text = shadow_to_text(shadow_from_gates(_BUILDERS["affine_g2"](), "low"))
    fresh = _BUILDERS["affine_g2"]()
    calls = _count_calls(monkeypatch, "validate_shadow")
    again = shadow_from_text(fresh, text)
    assert calls["validate_shadow"] == 0
    assert again is shadow_from_gates(fresh, "low") and shadow_to_text(again) == text


@pytest.mark.parametrize("kind,m", (("m-low", 1), ("gamma", None)))
def test_other_gate_files_validate_on_a_fresh_system(monkeypatch, kind, m):
    shadow = shadow_from_gates(_BUILDERS["affine_g2"](), kind, m)
    text = shadow_to_text(shadow)
    fresh = _BUILDERS["affine_g2"]()
    calls = _count_calls(monkeypatch, "validate_shadow")
    again = shadow_from_text(fresh, text)
    assert calls["validate_shadow"] == 1
    assert shadow_to_text(again) == text and again.members == {
        fresh.element(g.word) for g in shadow.members}
    assert fresh.cache("gate_shadows") == {}  # loading built no gate shadow


def test_a_provenance_number_starts_no_walk(monkeypatch):
    # the low elements labelled m-low(50) load as such, by validation over
    # L_0; nothing walks the sign patterns of E_50
    system = _BUILDERS["affine_g2"]()
    text = shadow_to_text(shadow_from_gates(system, "low"))
    text = text.replace("provenance: low", "provenance: m-low(50)")
    walked = []
    monkeypatch.setattr("garside.shi.sign_patterns",
                        lambda system, m, _walk=sign_patterns: walked.append(m) or _walk(system, m))
    fresh = _BUILDERS["affine_g2"]()
    assert shadow_from_text(fresh, text).provenance == "m-low(50)"
    assert shadow_from_text(system, text).provenance == "m-low(50)"
    assert walked == [0]


def test_a_relabelled_gate_file_keeps_its_label(monkeypatch):
    system = _BUILDERS["triangle_334"]()
    gamma = shadow_from_gates(system, "gamma")
    low1 = shadow_from_gates(system, "m-low", 1)
    text = shadow_to_text(low1).replace("provenance: m-low(1)", "provenance: gamma")
    calls = _count_calls(monkeypatch, "validate_shadow")
    for target in (system, _BUILDERS["triangle_334"]()):
        again = shadow_from_text(target, text)
        assert again.provenance == "gamma" and again is not gamma
        assert [g.word for g in again] == [g.word for g in low1]
    assert calls["validate_shadow"] == 2


def test_a_closure_is_not_validated_again(monkeypatch):
    system = _BUILDERS["affine_a2"]()
    stu = system.element("stu")
    calls = _count_calls(monkeypatch, "validate_shadow", "make_shadow")
    closure = garside_closure(system, [stu], 12)
    assert calls == {"validate_shadow": 0, "make_shadow": 0}
    monkeypatch.undo()
    assert len(closure) == 28 and validate_shadow(system, closure.members).ok


def _join_verdict_by_ball_scan(system, members):
    """Oracle for the join scan of `validate_shadow`: the Cayley-ball scan it
    replaced.  Scans ball(max(2 * longest member, largest finite label, 2))
    in ShortLex order for an x below which the members have no maximum, so
    a join beyond that ball goes unseen; the missing join it names is the
    ShortLex-first common upper bound in the same ball.  Takes a
    suffix-closed set; returns (ok, violation)."""
    for s in system.gens:
        if s not in members:
            return False, f"generator {s} missing"
    entries = system.matrix.entries
    labels = [entries[i][j] for i in range(system.rank) for j in range(i) if entries[i][j]]
    radius = max(2 * max(g.length for g in members), *labels, 2)
    members = sorted(members)
    ball = system.ball(radius)
    for x in ball:
        below = [b for b in members if weak_leq(b, x)]
        top = below[-1]
        for b in below:
            if not weak_leq(b, top):
                j = next(y for y in ball if weak_leq(top, y) and weak_leq(b, y))
                return False, f"join {j} of {top} and {b} missing"
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


def test_meets_joins_validation_and_closure_build_no_lower_interval(monkeypatch):
    # the expected values come first, from ball scans and the gate shadows
    a2, tri = get_system("affine_a2"), get_system("triangle_334")
    ball = list(a2.ball(3))
    bounds = {
        (g, h): [x for x in a2.ball(12) if weak_leq(g, x) and weak_leq(h, x)]
        for g in ball for h in ball
    }
    low = shadow_from_gates(a2, "low")
    broken = low.members - {low.ordered[-1]}
    verdict = _join_verdict_by_ball_scan(a2, broken)
    gammas = [shadow_from_gates(system, "gamma").members for system in (a2, tri)]

    def no_lower_set(g):
        raise AssertionError("_lower_set called")

    monkeypatch.setattr("garside.weak_order._lower_set", no_lower_set)
    for g in ball:
        for h in ball:
            below = [x for x in ball if weak_leq(x, g) and weak_leq(x, h)]
            m = meet([g, h])
            assert all(weak_leq(x, m) for x in below) and m in below
            above = bounds[(g, h)]
            assert join([g, h]) == (above[0] if above else None)
    result = validate_shadow(a2, broken)
    assert (result.ok, result.violation) == verdict
    for system, members in zip((a2, tri), gammas):
        assert garside_closure(system, [], 8).members == members


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


def fold(shadow, letters):
    i = 0
    for s in letters:
        i = shadow.delta[i][s]
    return shadow.ordered[i]


@pytest.mark.parametrize(
    "name,radius", [(name, 7) for name in ALL_SYSTEMS] + [("affine_g2", 6), ("h3", 6)]
)
@pytest.mark.parametrize("kind,m", (("low", None), ("gamma", None), ("m-low", 1)))
def test_every_reduced_word_folds_to_the_scan(name, radius, kind, m):
    # projection_B(s x) = projection_B(s projection_B(x)) for s x > x, so every
    # reduced word of g, not only its normal form, folds to projection_B(g)
    # from its last letter and to projection_B(g^-1) from its first
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    for g in system.ball(radius):
        below_g = scan_projection(shadow, g)
        below_inverse = scan_projection(shadow, system.inverse(g))
        assert b_projection(shadow, g) is below_g
        for word in reduced_words(g):
            assert fold(shadow, word[::-1]) is below_g, (g, word)
            assert fold(shadow, word) is below_inverse, (g, word)


def test_transition_table_asserts_a_maximum(s3):
    # {e, s, t, st, ts} is suffix-closed but lacks the join sts of st and ts,
    # so below t*st = sts the members have no maximum
    members = frozenset(s3.element(w) for w in ("", "s", "t", "st", "ts"))
    ordered = tuple(sorted(members, key=shortlex_key))
    fake = GarsideShadow(s3, ordered, members, 2, "not join-closed")
    with pytest.raises(InternalInconsistencyError, match="no maximum"):
        fake.delta


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
    assert refinement_check(gamma, low, 6).passed
    assert refinement_check(low, low1, 6).passed
    assert refinement_check(low, low, 6).passed  # vacuous


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
    # a second header line must not silently replace the first
    for line in text.splitlines()[1:5]:
        key = line.split(":", 1)[0]
        with pytest.raises(ShadowFileError, match=f"repeated field '{key}'"):
            shadow_from_text(s3, text.replace(line, f"{line}\n{key}: 0"))


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
