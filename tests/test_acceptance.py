"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Test systems: the infinite dihedral group, the dihedral groups of
orders 6 and 8, the affine triangle system, the product of two infinite
dihedral systems, and the hyperbolic (3,3,4) triangle system.
"""

from garside import (
    build_voracious_fsa,
    check_first_ftp,
    check_second_ftp,
    cone_type_gates,
    cross_validate_regularity,
    elementary_walls,
    enumerate_language,
    garside_closure,
    is_shi_gate,
    language_of,
    op_voracious_projection,
    reduced_words,
    refinement_check,
    shadow_from_gates,
    validate_shadow,
    voracious_projection,
    wall_separation_oracle,
    weak_leq,
)
from garside.weak_order import _lower_set

from conftest import ALL_SYSTEMS, get_system

GATE_KINDS = (("low", None), ("m-low", 1), ("m-low", 2), ("gamma", None))


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {description}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_small_root_routes_agree():
    """Dominance-built and wall-count-built m-elementary walls coincide."""
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        counts = wall_separation_oracle(system, 8)
        for m in (0, 1, 2):
            fast = elementary_walls(system, m).roots
            oracle = {root for root, c in counts.items() if c <= m}
            if fast != oracle:
                failures.append((name, m, len(fast), len(oracle)))
    _report(
        1,
        "small-root construction matches ball wall-count oracle (m=0,1,2, radius 8)",
        not failures,
        str(failures) if failures else "6 systems x 3 values of m",
    )


def test_criterion_02_infinite_dihedral_ground_truths():
    dinf = get_system("dinf")
    ok = elementary_walls(dinf, 0).roots == frozenset(dinf.simple_roots)
    low = shadow_from_gates(dinf, "low")
    gamma = shadow_from_gates(dinf, "gamma")
    expected = {dinf.identity, *dinf.gens}
    ok = ok and low.members == expected and gamma.members == expected
    aut = build_voracious_fsa(low)
    ok = ok and aut.n_states == 3 and len(aut.edges) == 4
    slice_ = enumerate_language(low, 8)
    alternating = {()}
    for length in range(1, 9):
        alternating.add(tuple((0, 1) * 5)[:length])
        alternating.add(tuple((1, 0) * 5)[:length])
    ok = ok and slice_.words == alternating
    _report(
        2,
        "infinite dihedral: simple walls, low set, automaton shape, alternating words",
        ok,
    )


def test_criterion_03_garside_axioms():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        gamma = set(cone_type_gates(system))
        for kind, m in GATE_KINDS:
            shadow = shadow_from_gates(system, kind, m)
            if not validate_shadow(system, shadow.members).ok:
                failures.append((name, kind, m, "axioms"))
            if not gamma <= shadow.members:
                failures.append((name, kind, m, "gamma containment"))
            if not all(is_shi_gate(b, shadow.constant_m) for b in shadow):
                failures.append((name, kind, m, "not inside the M-low set"))
    _report(
        3,
        "shadow axioms, smallest-shadow containment, M-low containment",
        not failures,
        str(failures) if failures else "4 shadows x 6 systems",
    )


def test_criterion_04_original_projection_agrees():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        low = shadow_from_gates(system, "low")
        for g in system.ball(7):
            if op_voracious_projection(g) != voracious_projection(low, g):
                failures.append((name, str(g)))
    _report(
        4,
        "wall-description projection equals low-shadow projection (radius 7)",
        not failures,
        str(failures[:3]) if failures else "all ball elements, 6 systems",
    )


def test_criterion_05_monotonicity_and_refinement():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        low = shadow_from_gates(system, "low")
        for g in system.ball(6):
            nu = voracious_projection(low, g)
            for g2 in _lower_set(g):
                if weak_leq(nu, g2) and not weak_leq(
                    voracious_projection(low, g2), nu
                ):
                    failures.append((name, "monotone", str(g), str(g2)))
        gamma = shadow_from_gates(system, "gamma")
        low1 = shadow_from_gates(system, "m-low", 1)
        if not refinement_check(gamma, low, 6).passed:
            failures.append((name, "gamma-in-low"))
        if not refinement_check(low, low1, 6).passed:
            failures.append((name, "low-in-low1"))
    _report(
        5,
        "projection monotonicity and projection refinement (radius 6)",
        not failures,
        str(failures[:3]) if failures else "zero counterexamples",
    )


def test_criterion_06_regularity():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        for kind, m in (("gamma", None), ("low", None), ("m-low", 1)):
            shadow = shadow_from_gates(system, kind, m)
            report = cross_validate_regularity(shadow, 8)
            if not report.passed:
                failures.append((name, kind, m))
    _report(
        6,
        "automaton language equals voracious language with predicted accept states (length 8)",
        not failures,
        str(failures) if failures else "3 shadows x 6 systems",
    )


def test_criterion_07_first_fellow_traveller():
    failures = []
    checked = 0
    for name in ALL_SYSTEMS:
        system = get_system(name)
        shadows = {}
        for kind, m in (("gamma", None), ("low", None), ("m-low", 1)):
            shadow = shadow_from_gates(system, kind, m)
            if shadow.members in shadows:
                continue  # gamma and low coincide on several systems
            shadows[shadow.members] = shadow
        for shadow in shadows.values():
            report = check_first_ftp(shadow, 8)
            checked += report.pairs_checked
            if not report.passed:
                failures.append(
                    (name, shadow.provenance, report.max_deviation, report.witness)
                )
    _report(
        7,
        "first fellow-traveller deviation within twice the length constant (radius 8)",
        not failures,
        str(failures) if failures else f"{checked} word pairs",
    )


def test_criterion_08_second_fellow_traveller():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        low = shadow_from_gates(system, "low")
        report = check_second_ftp(low, 7)
        if not report.plateau:
            failures.append((name, "no plateau", report.max_deviation, report.extended_max))
        elif report.extended_max > report.theoretical_bound:
            failures.append(
                (name, "bound exceeded: investigate", report.extended_max,
                 report.theoretical_bound)
            )
    _report(
        8,
        "second fellow-traveller deviation plateaus (radii 7-8) within the proven bound",
        not failures,
        str(failures) if failures else "6 systems",
    )


def test_criterion_09_step_bound():
    failures = []
    for name in ALL_SYSTEMS:
        system = get_system(name)
        for kind, m in GATE_KINDS:
            shadow = shadow_from_gates(system, kind, m)
            for g in system.ball(8):
                if system.word_metric(voracious_projection(shadow, g), g) > shadow.constant_m:
                    failures.append((name, kind, m, str(g)))
    _report(
        9,
        "projection step length bounded by the shadow constant (radius 8)",
        not failures,
        str(failures[:3]) if failures else "4 shadows x 6 systems",
    )


def test_criterion_10_finite_groups_degenerate_cases():
    failures = []
    for name in ("s3", "i24"):
        system = get_system(name)
        diameter = 3 if name == "s3" else 4
        everything = garside_closure(system, [], 8)
        if len(everything) != len(system.ball(diameter)):
            failures.append((name, "closure is not the whole group"))
            continue
        all_reduced = set()
        for g in system.ball(diameter):
            if language_of(everything, g) != reduced_words(g):
                failures.append((name, f"language of {g}"))
            all_reduced |= reduced_words(g)
        if enumerate_language(everything, diameter).words != all_reduced:
            failures.append((name, "language slice"))
    _report(
        10,
        "closure of the empty seed is the whole finite group; its language is all reduced words",
        not failures,
        str(failures) if failures else "2 finite systems",
    )
