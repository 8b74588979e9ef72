import inspect
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from garside import (
    CheckResult,
    CoxeterSystem,
    FellowTravellerReport,
    check_condition_one,
    check_first_ftp,
    check_lemma_chain,
    check_second_ftp,
    estimate_parallel_wall,
    full_suite,
    language_of,
    make_system,
    parallel_wall_constant,
    shadow_from_gates,
)
from garside import scalars, verify, voracious
from garside.shi import elementary_walls, separation_count
from garside.verify import (
    _chain_columns,
    _max_deviation,
    _neighbour_deviations,
    _prefix_masks,
    check_low_containment,
    check_original_projection,
    check_projection_monotone,
    check_refinement_by_shi,
    check_step_bound,
)
from garside.shadows import refinement_check
from garside.voracious import cross_validate_regularity

from conftest import _BUILDERS, ALL_SYSTEMS, get_system, languages



def low(system):
    return shadow_from_gates(system, "low")


def test_condition_one(dinf, s3):
    report = check_condition_one(low(dinf), 6)
    assert report.passed and report.details == "radius=6 elements=13 max-words=1"
    # with the whole finite group as shadow, the top element has 2 words
    from garside import garside_closure

    everything = garside_closure(s3, [], 8)
    report = check_condition_one(everything, 3)
    assert report.passed and report.details == "radius=3 elements=6 max-words=2"


def test_condition_one_fails_on_a_word_of_another_element():
    # the step table files the step of ts, (id, st, {ts}), under st, so the
    # words of st become those of ts: condition one names the first element
    # with a word that does not spell it, and the suite still reports every
    # check
    system = _BUILDERS["affine_a2"]()
    shadow = low(system)
    g, other = system.element("st"), system.element("ts")
    shadow.steps[g] = voracious._step(shadow, other)
    assert language_of(shadow, g) == language_of(shadow, other) == {other.word}
    report = check_condition_one(shadow, 3)
    assert not report.passed and report.witness == "g=st word=ts"
    lines = full_suite(shadow, 3).to_text().splitlines()
    assert lines[5] == (
        "check: condition-one FAIL radius=3 elements=19 max-words=2 witness=g=st word=ts"
    )
    assert lines[-1] == "result: FAIL"


def test_each_element_is_walked_once_per_suite():
    # condition one computes the steps of ball(R), second-ftp only those of
    # the last layer of ball(R + 1), and every other check none: each step
    # is folded once and filed in the step table
    class Walks(dict):
        def __init__(self):
            super().__init__()
            self.walked = []

        def __setitem__(self, g, step):
            self.walked.append(g)
            super().__setitem__(g, step)

    system = _BUILDERS["triangle_334"]()
    shadow = replace(low(system), steps=Walks())
    radius = 6
    full_suite(shadow, radius)
    assert shadow.steps.walked == list(system.ball(radius + 1))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_the_suite_keeps_no_chain(name):
    # the suite reads the step table alone: no chain is stored on the shadow
    shadow = low(_BUILDERS[name]())
    full_suite(shadow, 4)
    assert shadow.steps and not shadow.chains


def test_first_ftp_dinf(dinf):
    report = check_first_ftp(low(dinf), 6)
    assert report.passed
    assert report.max_deviation == 1
    assert report.theoretical_bound == 2
    assert report.pairs_checked > 0


def test_first_ftp_affine(affine_a2):
    report = check_first_ftp(low(affine_a2), 6)
    assert report.passed
    assert report.max_deviation <= report.theoretical_bound


def test_parallel_wall_estimates(dinf, affine_a2):
    assert estimate_parallel_wall(dinf, 0, 6) == 0
    assert estimate_parallel_wall(affine_a2, 0, 6) == 0
    # a lower bound for the exact constant
    assert estimate_parallel_wall(affine_a2, 1, 6) <= parallel_wall_constant(affine_a2, 1)
    # monotone in the radius
    for m in (1, 2):
        small = estimate_parallel_wall(affine_a2, m, 5)
        large = estimate_parallel_wall(affine_a2, m, 7)
        assert small <= large


def test_parallel_wall_constant_matches_its_oracle(system):
    for m in range(6):
        assert estimate_parallel_wall(system, m, 5) == parallel_wall_constant(system, m), m


@pytest.mark.parametrize("name", _BUILDERS)
def test_walls_below_m_are_read_off_the_m_elementary_walls(name):
    # parallel_wall_constant(system, m) reads E_{m-1} off E_m this way
    system = get_system(name)
    for m in range(1, 6):
        kept = {
            root for root in elementary_walls(system, m).ordered
            if separation_count(system, root) <= m - 1
        }
        assert kept == elementary_walls(system, m - 1).roots, m


@pytest.mark.parametrize("name", _BUILDERS)
def test_the_small_root_walk_meets_each_wall_at_its_descent(name):
    # the depths and counts that the outward walk keeps against the inward
    # walk of root_descent, on a fresh system, whose descent tables the walk
    # does not fill; Q(m) read off the walk against Q(m) read off root_descent
    system = CoxeterSystem(get_system(name).matrix)
    for m in range(4):
        walls = elementary_walls(system, m)
        descents = [system.root_descent(root) for root in walls.ordered]
        assert list(zip(walls.depths, walls.counts)) == descents, m
        if m:
            assert parallel_wall_constant(system, m) == max(d for d, n in descents if n < m) - 1


def test_parallel_wall_estimate_is_below_on_a_small_ball(affine_a2):
    assert estimate_parallel_wall(affine_a2, 5, 4) == 8
    assert parallel_wall_constant(affine_a2, 5) == 9


def test_parallel_wall_constant_of_rank_one():
    a1 = make_system(["s"], {}, "A1")
    assert [parallel_wall_constant(a1, m) for m in range(-1, 6)] == [0] * 7


def test_second_ftp_dinf(dinf):
    shadow = low(dinf)
    report = check_second_ftp(shadow, 6)
    assert report.passed and report.plateau
    assert report.max_deviation <= report.theoretical_bound
    m, q = shadow.constant_m, parallel_wall_constant(dinf, shadow.constant_m)
    assert report.theoretical_bound == 4 * m * (m + q) + 2 * q


@pytest.mark.parametrize("name", ALL_SYSTEMS)
@pytest.mark.parametrize("kind, m", [("low", None), ("gamma", None), ("m-low", 1)])
def test_column_scan_matches_the_pair_scan(name, kind, m):
    # each Cayley edge of the slice is scanned once, from its shorter end;
    # its deviation is the maximum over all word pairs in both orientations
    # (left multiplication is an isometry), it counts the word pairs of
    # both, and its witness is the pair scan's first
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    radius = 5
    by_element = languages(shadow, radius)
    prefixes = partial(_prefix_masks, system)
    for side in ("right", "left"):
        expected = [
            (g, s, h)
            for g in by_element
            for s in system.gens
            if (h := system.multiply(g, s) if side == "right" else system.multiply(s, g))
            in by_element
            and h.length == g.length + 1
        ]
        scanned = []
        table = _chain_columns(shadow, system.ball(radius))
        for g, s, h, n, d, witness_of in _neighbour_deviations(shadow, radius, side, table):
            scanned.append((g, s, h))
            words, words2 = by_element[g], by_element[h]
            if side == "right":
                path = prefixes
            else:  # s times the prefixes: g to h, and h back to g = s*h
                path = lambda v: prefixes(s.word + v)[1:]
            assert n == 2 * len(words) * len(words2)
            assert (d, witness_of()) == _max_deviation(words, words2, path, prefixes), (side, g, s)
            assert d == _max_deviation(words2, words, path, prefixes)[0], (side, h, s)
        assert scanned == expected


def prefix_columns_by_words(shadow, g):
    """The word route to g's prefix columns, the oracle for the chain's:
    column i-1 holds the masks of the distinct length-i prefixes of g's
    words, each word walked over the Cayley edges and staying at its last
    point past its end; sorted."""
    words = language_of(shadow, g)
    n = max(map(len, words))
    columns = [set() for _ in range(n)]
    for v in words:
        points = _prefix_masks(shadow.system, v)
        for column, p in zip(columns, points[1:] + points[-1:] * (n - len(v))):
            column.add(p)
    return [sorted(column) for column in columns]


@pytest.mark.parametrize("name", list(_BUILDERS))
@pytest.mark.parametrize("kind, m", [("low", None), ("gamma", None), ("m-low", 1)])
def test_chain_columns_match_the_word_route(name, kind, m):
    # the scans take maxima over columns, so only their sets are compared
    system = get_system(name)
    shadow = shadow_from_gates(system, kind, m)
    for g, (n, columns, end) in _chain_columns(shadow, system.ball(10)).items():
        assert n == len(language_of(shadow, g)) and end is g, g
        assert [sorted(column) for column in columns] == prefix_columns_by_words(shadow, g), g


@pytest.mark.parametrize("name", ["dinf", "affine_a2", "triangle_334", "aa_product"])
def test_first_ftp_bound_violation_names_the_pair_scan_witness(name):
    # with M = 0 the bound is 0, so the first positive deviation fails the
    # check; its witness is the first rise of the pair scan over every
    # (g, g*s) in scan order, and its pairs are those of every such pair
    system = get_system(name)
    radius = 5
    shadow = replace(low(system), constant_m=0)
    by_element = languages(shadow, radius)
    prefixes = partial(_prefix_masks, system)
    best = pairs = 0
    for g, words in by_element.items():
        for s in system.gens:
            words2 = by_element.get(system.multiply(g, s))
            if words2 is not None:
                pairs += len(words) * len(words2)
                d, at = _max_deviation(words, words2, prefixes, prefixes)
                if d > best:
                    best, (v, v2, i) = d, at
    report = check_first_ftp(shadow, radius)
    assert not report.passed and report.theoretical_bound == 0
    assert (report.max_deviation, report.pairs_checked) == (best, pairs)
    render = system.render_word
    assert report.witness == f"v={render(v)} v'={render(v2)} i={i}"


def test_lemma_chain(dinf, affine_a2):
    assert check_lemma_chain(low(dinf), 6).passed
    assert check_lemma_chain(low(affine_a2), 7).passed


def test_single_checks_pass(system):
    shadow = low(system)
    assert check_projection_monotone(shadow, 5).passed
    assert check_original_projection(shadow, 5).passed
    assert check_step_bound(shadow, 6).passed
    assert check_low_containment(shadow).passed
    assert check_refinement_by_shi(shadow, 6).passed


def test_full_suite_dinf(dinf):
    bundle = full_suite(low(dinf), 6)
    assert bundle.all_passed
    text = bundle.to_text()
    assert "result: pass" in text
    assert text == full_suite(low(dinf), 6).to_text()  # deterministic


def test_full_suite_s3_gamma(s3):
    bundle = full_suite(shadow_from_gates(s3, "gamma"), 3)
    assert bundle.all_passed


def test_rational_system_creates_no_scalar(monkeypatch):
    # labels 2, 3 and infinity only: every root coordinate and pairing is an int
    def refuse(*args):
        raise AssertionError(f"a Scalar was made: {args}")

    monkeypatch.setattr("garside.scalars._make", refuse)
    shadow = low(_BUILDERS["affine_a2"]())
    assert full_suite(shadow, 4).all_passed


@pytest.mark.parametrize("name", ["triangle_334", "affine_g2", "h3", "triangle_456"])
def test_scalars_are_made_in_canonical_form(monkeypatch, name):
    # a Scalar is a + b*w at a level k >= 1 with b nonzero, and a value in Z
    # is an int: no computation makes a Scalar that equals an int
    make = scalars._make

    def checked(a, b, k):
        assert k >= 1 and (type(b) is scalars.Scalar or b != 0), (a, b, k)
        return make(a, b, k)

    monkeypatch.setattr("garside.scalars._make", checked)
    if name == "triangle_456":
        system = make_system(["s", "t", "u"], {("s", "t"): 4, ("s", "u"): 5, ("t", "u"): 6})
    else:
        system = _BUILDERS[name]()
    assert full_suite(low(system), 4).all_passed
    for root in system._canonical.values():
        assert all(type(c) in (int, scalars.Scalar) for c in root.coeffs), root


def test_full_suite_affine_a2(affine_a2):
    for kind, m in (("gamma", None), ("low", None), ("m-low", 1)):
        bundle = full_suite(shadow_from_gates(affine_a2, kind, m), 7)
        assert bundle.all_passed, bundle.to_text()


def test_report_fields_are_stable(dinf):
    bundle = full_suite(low(dinf), 5)
    lines = bundle.to_text().splitlines()
    names = [line.split()[1] for line in lines if line.startswith("check:")]
    assert names == [
        "condition-one",
        "regularity",
        "first-ftp",
        "second-ftp",
        "projection-monotone",
        "original-projection",
        "step-bound",
        "low-containment",
        "refinement-by-shi",
    ]


GOLDEN_REPORTS = {
    ("dinf", "low", 5): """\
# verification report v1
system: D-infinity
shadow: low
constant-m: 1
radius: 5
check: condition-one pass radius=5 elements=11 max-words=1
check: regularity pass max-len=5 words=11
check: first-ftp pass radius=5 max-deviation=1 bound=2 pairs=20
check: second-ftp pass radius=5 max-deviation=1 extended=1 plateau=True bound=4
check: projection-monotone pass radius=5 pairs=21
check: original-projection pass radius=5 elements=11
check: step-bound pass radius=5 max-step=1 bound=1
check: low-containment pass M=1 members=3
check: refinement-by-shi pass radius=5 M=1 parts=5
result: pass
""",
    ("triangle_334", "gamma", 4): """\
# verification report v1
system: triangle-334
shadow: gamma
constant-m: 5
radius: 4
check: condition-one pass radius=4 elements=35 max-words=2
check: regularity pass max-len=4 words=42
check: first-ftp pass radius=4 max-deviation=4 bound=10 pairs=110
check: second-ftp pass radius=4 max-deviation=3 extended=3 plateau=True bound=232
check: projection-monotone pass radius=4 pairs=129
check: step-bound pass radius=4 max-step=4 bound=5
check: low-containment pass M=5 members=18
check: refinement-by-shi pass radius=4 M=5 parts=35
result: pass
""",
}


@pytest.mark.parametrize("name, kind, radius", GOLDEN_REPORTS)
def test_full_report_is_byte_stable(name, kind, radius):
    # a passing line prints no witness, though a fellow-traveller report
    # keeps the witness of its largest deviation
    report = full_suite(shadow_from_gates(get_system(name), kind), radius).to_text()
    assert report == GOLDEN_REPORTS[name, kind, radius]


def _report(provenance, name, m, radius, lines):
    head = ["# verification report v1", f"system: {name}", f"shadow: {provenance}",
            f"constant-m: {m}", f"radius: {radius}"]
    return "\n".join(head + [f"check: {line}" for line in lines] + ["result: pass", ""])


# the reports of the benchmark's four verify inputs as the scan over every
# ordered neighbour pair, with its own table of prefix columns per check, gave
# them, and the witnesses that the two fellow-traveller lines keep
PINNED_REPORTS = {
    ("triangle_334", "low", None, 7): (_report("low", "triangle-334", 5, 7, [
        "condition-one pass radius=7 elements=132 max-words=4",
        "regularity pass max-len=7 words=186",
        "first-ftp pass radius=7 max-deviation=4 bound=10 pairs=654",
        "second-ftp pass radius=7 max-deviation=3 extended=3 plateau=True bound=232",
        "projection-monotone pass radius=6 pairs=377",
        "original-projection pass radius=7 elements=132",
        "step-bound pass radius=7 max-step=5 bound=5",
        "low-containment pass M=5 members=18",
        "refinement-by-shi pass radius=7 M=5 parts=132",
    ]), ("v=sus v'=usus i=2", "v=st v'=sts s=t i=1")),
    ("affine_a2", "low", None, 8): (_report("low", "affine-A2", 4, 8, [
        "condition-one pass radius=8 elements=109 max-words=4",
        "regularity pass max-len=8 words=190",
        "first-ftp pass radius=8 max-deviation=2 bound=8 pairs=906",
        "second-ftp pass radius=8 max-deviation=3 extended=3 plateau=True bound=190",
        "projection-monotone pass radius=6 pairs=289",
        "original-projection pass radius=8 elements=109",
        "step-bound pass radius=8 max-step=4 bound=4",
        "low-containment pass M=4 members=16",
        "refinement-by-shi pass radius=8 M=4 parts=109",
    ]), ("v=st v'=tst i=1", "v=st v'=sts s=t i=1")),
    ("aa_product", "m-low", 1, 6): (_report("m-low(1)", "A1~xA1~", 4, 6, [
        "condition-one pass radius=6 elements=85 max-words=12",
        "regularity pass max-len=6 words=297",
        "first-ftp pass radius=6 max-deviation=4 bound=8 pairs=3968",
        "second-ftp pass radius=6 max-deviation=3 extended=3 plateau=True bound=118",
        "projection-monotone pass radius=6 pairs=493",
        "step-bound pass radius=6 max-step=4 bound=4",
        "low-containment pass M=4 members=25",
        "refinement-by-shi pass radius=6 M=4 parts=81",
    ]), ("v=abc v'=cdab i=2", "v=ac v'=cba s=b i=1")),
    ("triangle_334", "gamma", None, 6): (_report("gamma", "triangle-334", 5, 6, [
        "condition-one pass radius=6 elements=88 max-words=2",
        "regularity pass max-len=6 words=118",
        "first-ftp pass radius=6 max-deviation=4 bound=10 pairs=378",
        "second-ftp pass radius=6 max-deviation=3 extended=3 plateau=True bound=232",
        "projection-monotone pass radius=6 pairs=377",
        "step-bound pass radius=6 max-step=5 bound=5",
        "low-containment pass M=5 members=18",
        "refinement-by-shi pass radius=6 M=5 parts=88",
    ]), ("v=sus v'=usus i=2", "v=st v'=sts s=t i=1")),
}


@pytest.mark.parametrize("name, kind, m, radius", PINNED_REPORTS)
def test_reports_match_the_scan_of_every_ordered_pair(name, kind, m, radius):
    # one deviation per Cayley edge, on one column table for both checks,
    # changes no byte of a report and no kept witness
    bundle = full_suite(shadow_from_gates(_BUILDERS[name](), kind, m), radius)
    text, witnesses = PINNED_REPORTS[name, kind, m, radius]
    assert bundle.to_text() == text
    kept = tuple(c.witness for c in bundle.checks if isinstance(c, FellowTravellerReport))
    assert kept == witnesses


def test_every_check_returns_one_report_line(affine_a2):
    # each check is one `check:` line: a CheckResult, or a FellowTravellerReport,
    # which is a CheckResult carrying the figures of its line
    shadow = low(affine_a2)
    checks = [
        fn for name, fn in vars(verify).items()
        if name.startswith("check_") and inspect.isfunction(fn)
    ]
    assert len(checks) == 9
    results = [
        fn(shadow, 3) if "radius" in inspect.signature(fn).parameters else fn(shadow)
        for fn in checks
    ]
    results += [cross_validate_regularity(shadow, 3), refinement_check(shadow, shadow, 3)]
    for result in results:
        assert type(result) in (CheckResult, FellowTravellerReport), result
        assert isinstance(result.name, str) and result.name
        assert isinstance(result.passed, bool) and result.passed
        assert isinstance(result.details, str) and result.details
        assert isinstance(result.witness, str)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


def test_the_suite_builds_one_language_slice(monkeypatch):
    # condition one and the fellow-traveller scans read language_of; only
    # regularity builds a slice
    built = []

    class Counted(voracious.LanguageSlice):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(voracious, "LanguageSlice", Counted)
    full_suite(low(_BUILDERS["triangle_334"]()), 6)
    assert len(built) == 1


def test_the_suite_builds_one_chain_table_at_radius_plus_one(monkeypatch):
    # condition one and the first scan read its ball(R) entries
    radii = []
    real = verify._chain_columns

    def counted(shadow, ball):
        radii.append(ball.radius)
        return real(shadow, ball)

    monkeypatch.setattr(verify, "_chain_columns", counted)
    full_suite(low(_BUILDERS["triangle_334"]()), 6)
    assert radii == [7]


@pytest.mark.parametrize("kind, m", [("low", None), ("gamma", None), ("m-low", 1)])
def test_the_suite_builds_no_lower_set_longer_than_m(kind, m):
    # the chain table and projection-monotone read [e, b^-1] for the step
    # tails b, which are at most M long; original-projection climbs
    system = _BUILDERS["triangle_334"]()
    shadow = shadow_from_gates(system, kind, m)
    assert full_suite(shadow, 8).all_passed
    lower_sets = system.cache("lower_sets")
    assert lower_sets and max(g.length for g in lower_sets) <= shadow.constant_m


_MONOTONE_FAILURE = """
import sys
from garside import verify, make_system, shadow_from_gates
padding = [object() for _ in range(int(sys.argv[1]))]
real = verify.voracious_projection
verify.voracious_projection = lambda shadow, x: x if x.length == 2 else real(shadow, x)
system = make_system(["s", "t", "u"], {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3})
print(verify.check_projection_monotone(shadow_from_gates(system, "low"), 6).witness)
"""


def test_a_projection_monotone_witness_does_not_depend_on_memory_addresses():
    # the lower set is a frozenset of elements hashed by identity, so its
    # order changes from process to process; the witness is the ShortLex
    # first failing g' below the first failing g
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parent.parent))
    for padding in (0, 1, 7, 100, 333, 2048):
        done = subprocess.run([sys.executable, "-c", _MONOTONE_FAILURE, str(padding)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "g=sts g'=st\n", padding
