import ast
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from garside import (
    CoxeterMatrix,
    CoxeterSystem,
    Element,
    GroupFileError,
    MixedSystemError,
    Root,
    UnsupportedLabelError,
    format_group_file,
    make_system,
    parse_group_file,
    word_infix,
    word_prefix,
)
from garside.coxeter import set_bits, shortlex_key
from garside.scalars import PHI, SQRT2, SQRT3
from garside.shi import elementary_walls

from conftest import (
    ALL_SYSTEMS, _BUILDERS, _ORACLES as ORACLES, get_system, oracle_ball, oracle_eval,
)
from test_scalars import Model, assert_matches


# ---------------------------------------------------------------------------
# Matrix and group file


def test_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CoxeterMatrix(("s", "t"), ((1, 3), (4, 1)))
    with pytest.raises(ValueError, match="diagonal"):
        CoxeterMatrix(("s", "t"), ((2, 3), (3, 1)))
    with pytest.raises(ValueError, match=">= 2"):
        CoxeterMatrix(("s", "t"), ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="distinct"):
        CoxeterMatrix(("s", "s"), ((1, 3), (3, 1)))
    with pytest.raises(ValueError, match="unknown generator 'x'"):
        make_system(["s", "t"], {("s", "x"): 3})
    with pytest.raises(ValueError, match=r"pair \('t', 's'\) is labelled both 3 and 4"):
        make_system(["s", "t"], {("s", "t"): 3, ("t", "s"): 4})
    # the same label given in both orders is no conflict
    assert make_system(["s", "t"], {("s", "t"): 3, ("t", "s"): 3}).matrix.label(0, 1) == 3


@pytest.mark.parametrize("name", ["-", "", "s,", "a b", "a\tb", 'x"', "x\\", "x#"])
def test_unsafe_generator_names_rejected(name):
    # '-' writes the identity, whitespace separates names, ',' separates
    # label words and '#' starts a comment, so files written with such a
    # name could not be read back; '"' and '\' would end or escape the
    # quoted labels of the dot export
    with pytest.raises(ValueError, match="names the identity|empty or holds whitespace"):
        CoxeterMatrix((name, "t"), ((1, 3), (3, 1)))
    with pytest.raises(ValueError):
        make_system([name, "t"], {(name, "t"): 3})


def test_unsupported_label_rejected():
    matrix = CoxeterMatrix(("s", "t"), ((1, 7), (7, 1)))
    with pytest.raises(UnsupportedLabelError, match="m\\[0,1\\]=7"):
        CoxeterSystem(matrix)


def test_group_file_roundtrip(system):
    text = format_group_file(system.matrix)
    again = parse_group_file(text)
    assert again == system.matrix


# the file writes the display name on one stripped 'name:' line where '#'
# starts a comment, so it could not give back the second list's names
WRITABLE_NAMES = [None, "affine-A2 (demo)", "tri: 3/3/4, name: twice"]
UNWRITABLE_NAMES = ["a#b", "#", " pad ", "pad ", "a\nb", "a\rb", ""]


@pytest.mark.parametrize("name", WRITABLE_NAMES + UNWRITABLE_NAMES)
def test_group_file_roundtrip_keeps_names(name):
    if name in UNWRITABLE_NAMES:
        with pytest.raises(ValueError, match="display name"):
            CoxeterMatrix(("s", "t"), ((1, 3), (3, 1)), name)
        return
    matrix = CoxeterMatrix(("\u03c3", "t:1"), ((1, 0), (0, 1)), name)
    assert parse_group_file(format_group_file(matrix)) == matrix


def test_group_file_errors_cite_lines():
    with pytest.raises(GroupFileError, match="line 3, entry 2"):
        parse_group_file("generators: s t\nmatrix:\n1 x\n0 1\n")
    with pytest.raises(GroupFileError, match="line 3: expected 2 entries"):
        parse_group_file("generators: s t\nmatrix:\n1 0 3\n0 1\n")
    with pytest.raises(GroupFileError, match="before 'generators:'"):
        parse_group_file("matrix:\n1\n")
    with pytest.raises(GroupFileError, match="not symmetric"):
        parse_group_file("generators: s t\nmatrix:\n1 3\n4 1\n")
    with pytest.raises(GroupFileError, match=r"line 2: repeated 'generators:' \(first on line 1\)"):
        parse_group_file("generators: s t\ngenerators: a b c\nmatrix:\n1 3 3\n3 1 3\n3 3 1\n")
    with pytest.raises(GroupFileError, match=r"line 4: repeated 'name:' \(first on line 1\)"):
        parse_group_file("name: one\ngenerators: s t\n# a comment\nname: two\nmatrix:\n1 3\n3 1\n")
    with pytest.raises(GroupFileError, match="line 2: text after 'matrix:'"):
        parse_group_file("generators: s t\nmatrix: 9 9 9\n1 3\n3 1\n")


def test_comments_and_name_parsed():
    matrix = parse_group_file(
        "# a comment\nname: demo\ngenerators: s t\nmatrix:\n1 0\n0 1\n"
    )
    assert matrix.name == "demo"
    assert matrix.entries == ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# Roots and reflections


def test_reflect_spec_examples(dinf, s3):
    alpha_s, alpha_t = dinf.simple_roots
    assert dinf.reflect(0, alpha_s) == -alpha_s
    # commuting generators fix each other's simple root
    aa = get_system("aa_product")
    assert aa.reflect(0, aa.simple_roots[2]) == aa.simple_roots[2]
    # unbounded label: reflect(s, alpha_t) = alpha_t + 2 alpha_s
    image = dinf.reflect(0, alpha_t)
    assert image.coeffs == (2, 1) and all(type(c) is int for c in image.coeffs)


def test_reflect_involution(system):
    for root in system.ball_walls(3):
        for s in range(system.rank):
            assert system.reflect(s, system.reflect(s, root)) == root


def test_roots_are_interned(system):
    met = list(system.simple_roots)
    for g in system.ball(6):
        for s in range(system.rank):
            root = system.act_word(g.word, system.simple_roots[s])
            met += [root, root.abs(), -root, system.reflect(s, root)]
        met += system.inversion_walls(g)
    for m in range(3):
        met += elementary_walls(system, m).ordered
    met += system.ball_walls(6)
    for root in met:
        assert system._canonical.get(root.coeffs) is root and -(-root) is root
    roots = sorted(system._canonical.values(), key=lambda root: root.id)
    assert [root.id for root in roots] == list(range(len(roots)))
    assert all(a is b for a, b in zip(roots, system.simple_roots))
    twin = CoxeterSystem(system.matrix)  # its roots are equal but other objects
    for root in met[::7]:
        rebuilt = Root(root.coeffs)
        assert rebuilt.id is None and rebuilt == root and hash(rebuilt) == hash(root)
        assert system._intern_root(rebuilt) is root
        assert system.reflect(0, rebuilt) is system.reflect(0, root)
        foreign = twin.reflect(0, twin.reflect(0, rebuilt))
        assert foreign is not root and system._intern_root(foreign) is root


def test_reflect_mask_is_the_union_of_the_images(system):
    # the bit loop of _reflect_mask against one reflect per set bit
    masks = [g.mask for g in system.ball(4)]
    masks += [elementary_walls(system, m).mask for m in range(3)]
    for s in range(system.rank):
        for mask in masks:
            images = [system.reflect(s, system._roots[k]).id for k in set_bits(mask)]
            assert system._reflect_mask(s, mask) == reduce(int.__or__, (1 << i for i in images), 0)


# arithmetic detours that leave a coordinate's ring and come back to it
DETOURS = (
    lambda c: (c + SQRT2) - SQRT2,
    lambda c: (c - PHI) + PHI,
    lambda c: c * SQRT3 * SQRT3 - 2 * c,
    lambda c: (c * SQRT2 + 1) * SQRT2 - SQRT2 - c,
)


@pytest.mark.parametrize("name", _BUILDERS)
def test_roots_rebuilt_from_scalars_intern_to_the_canonical_root(name):
    # a value has one form, an int when it lies in Z, whatever computed it
    system = get_system(name)
    a2 = get_system("affine_a2")
    assert a2._intern_root(Root(((1 + PHI) - PHI, SQRT2 - SQRT2, 0))) is a2.simple_roots[0]
    for root in system.ball_walls(3) + elementary_walls(system, 2).ordered:
        for r in (root, -root):
            for detour in DETOURS:
                rebuilt = Root(tuple(detour(c) for c in r.coeffs))
                assert [type(c) for c in rebuilt.coeffs] == [type(c) for c in r.coeffs]
                assert rebuilt == r and hash(rebuilt) == hash(r)
                assert system._intern_root(rebuilt) is r


def test_render_root_brackets_coefficients_of_several_terms(triangle_334, dinf):
    root = Root((1, 1, 1 + SQRT2))
    assert root in triangle_334.ball_walls(3)
    assert triangle_334.render_root(root) == "a_s + a_t + (1 + 1*r2)*a_u"
    assert triangle_334.render_root(Root((1, 0, SQRT2))) == "a_s + 1*r2*a_u"
    # rational systems print as before
    assert dinf.render_root(dinf.reflect(0, dinf.simple_roots[1])) == "2*a_s + a_t"
    assert dinf.render_root(-dinf.simple_roots[0]) == "-1*a_s"


# 2cos(pi/m) for each label, over the Fraction model's basis
# (1, r2, r3, r5, r6, r10, r15, r30); phi = 1/2 + r5/2
MODEL_TWO_COS = {
    2: [0] * 8,
    3: [1] + [0] * 7,
    4: [0, 1] + [0] * 6,
    5: [Fraction(1, 2), 0, 0, Fraction(1, 2), 0, 0, 0, 0],
    6: [0, 0, 1] + [0] * 5,
}
# rank-3 systems whose roots nest two or three of the quadratic rings
MIXED_LABELS = {
    "4-6": {("s", "t"): 4, ("s", "u"): 6, ("t", "u"): 3},
    "4-5": {("s", "t"): 4, ("s", "u"): 5},
    "5-6": {("s", "t"): 5, ("s", "u"): 6},
    "4-5-6": {("s", "t"): 4, ("s", "u"): 5, ("t", "u"): 6},
}


@pytest.mark.parametrize("labels", MIXED_LABELS.values(), ids=MIXED_LABELS)
def test_mixed_label_roots_match_the_fraction_model(labels):
    system = make_system(["s", "t", "u"], labels)
    two_cos = {(s, t): Model(MODEL_TWO_COS[system.matrix.label(s, t)])
               for s in range(3) for t in range(3) if s != t}

    def reflect(s, v):
        # s(v) = v - 2B(alpha_s, v) alpha_s, with 2B(alpha_s, v) = 2v_s - sum 2cos(pi/m) v_t
        pairing = v[s] + v[s]
        for t in range(3):
            if t != s:
                pairing = pairing - two_cos[s, t] * v[t]
        return [x - pairing if t == s else x for t, x in enumerate(v)]

    walls = system.ball_walls(3)
    for g in system.ball(3):
        for s in range(3):
            root = system.act_word(g.word, system.simple_roots[s])
            v = [Model([int(t == s)] + [0] * 7) for t in range(3)]
            for a in reversed(g.word):
                v = reflect(a, v)
            for c, x in zip(root.coeffs, v):
                assert_matches(c, x)
            assert root.sign() == next(x.sign() for x in v if x.sign())
            assert root.abs() in walls


# ---------------------------------------------------------------------------
# Normal forms against the oracle models


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("affine_g2", "h3"))
def test_normal_forms_match_oracle(name):
    system = get_system(name)
    radius = 5 if system.rank >= 4 else 6
    table = oracle_ball(name, radius)
    ball = system.ball(radius)
    assert len(ball) == len(table)
    for value, (length, shortlex_word, _) in table.items():
        g = system.element(shortlex_word)
        assert g.length == length
        assert g.word == shortlex_word  # ShortLex-least reduced word


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_arbitrary_words_normalize_like_oracle(name):
    # words up to one length reach drops and inserts inside the normal form;
    # on a fresh system the first pass fills the neighbour and inverse slots
    # of the elements, and the second pass reads them back
    system = _BUILDERS[name]()
    length = 5 if system.rank >= 4 else 6
    table = oracle_ball(name, length)
    by_value = {value: word for value, (_, word, _) in table.items()}
    model, layer = ORACLES[name](), [()]
    values = {(): model.identity}  # every word up to `length`, one product each
    for _ in range(length):
        layer = [w + (s,) for w in layer for s in range(system.rank)]
        values.update((w, model.compose(values[w[:-1]], model.gens[w[-1]])) for w in layer)
    expect = lambda word: by_value[values[word]]

    for i, word in enumerate(values):
        g, h = system.element(word), system.element(word[::-1])
        assert g.word == expect(word)
        first, second = (g, h) if i % 2 else (h, g)  # fill from either side first
        assert system.inverse(first) is second
        assert system.inverse(second) is first
    for g in system.ball(length - 1):
        assert None not in g._right and g._inverse is not None
        for s in range(system.rank):
            assert system.right_multiply(g, s).word == expect(g.word + (s,))
        assert system.inverse(g).word == expect(g.word[::-1])
        assert system.inverse(system.inverse(g)) is g


def test_spec_normal_form_examples(s3, dinf):
    assert s3.element("tst") == s3.element("sts")
    assert s3.element("tst").word == (0, 1, 0)
    assert s3.element("ss").is_identity()
    assert s3.element("").is_identity()
    assert s3.element("sts").length == 3


def test_multiply_inverse_metric(dinf, system):
    s, t = dinf.gens
    assert dinf.multiply(s, s).is_identity()
    assert dinf.word_metric(dinf.element("st"), dinf.element("ts")) == 4
    for g in system.ball(3):
        assert system.multiply(g, system.inverse(g)).is_identity()
        assert system.word_metric(g, g) == 0


@pytest.mark.parametrize("name", ALL_SYSTEMS + ("affine_g2", "h3"))
def test_left_products_match_oracle(name):
    # on a fresh system, so that the shortcut interns each product first;
    # its word and inversion set must be those of the oracle's normal form
    system, other = _BUILDERS[name](), get_system(name)
    radius = 4 if system.rank >= 4 else 5
    table = oracle_ball(name, radius + 1)
    for g in list(system.ball(radius)):
        for s in range(system.rank):
            h = system.left_multiply(s, g)
            expected = table[oracle_eval(name, (s,) + g.word)][1]
            assert h.word == expected, (g, s)
            assert system.inversion_walls(h) == other.inversion_walls(other.element(expected))
    with pytest.raises(MixedSystemError):
        system.left_multiply(0, other.identity)


def test_set_bits():
    assert list(set_bits(0)) == []
    assert list(set_bits(0b101101)) == [0, 2, 3, 5]
    assert list(set_bits(1 << 300 | 2)) == [1, 300]


def test_mixed_system_multiplication_rejected(dinf, s3):
    with pytest.raises(ValueError, match="different systems"):
        dinf.multiply(dinf.gens[0], s3.gens[0])


def test_mixed_system_metric_and_walls_rejected(dinf, s3, affine_a2):
    # bitmasks index roots by per-system ids, so a mixed comparison must raise
    a, b = dinf.element("stst"), affine_a2.element("stu")
    for call in (dinf.word_metric, dinf.separating_walls, affine_a2.word_metric):
        with pytest.raises(MixedSystemError):
            call(a, b)
    with pytest.raises(MixedSystemError):
        s3.word_metric(s3.element("st"), dinf.element("st"))
    with pytest.raises(MixedSystemError):
        dinf.inversion_walls(s3.element("st"))


def test_ball_membership_checks_the_system(affine_a2, triangle_334):
    assert triangle_334.element("st") not in affine_a2.ball(3)
    assert affine_a2.element("st") in affine_a2.ball(3)


def test_mixed_system_suffix_rejected(affine_a2, triangle_334):
    with pytest.raises(MixedSystemError):
        affine_a2.is_suffix(triangle_334.element("s"), affine_a2.element("ts"))


def test_mixed_system_descents_rejected(affine_a2, triangle_334):
    for side in ("left", "right"):
        with pytest.raises(MixedSystemError):
            affine_a2.descents(triangle_334.element("st"), side)


def test_mixed_system_inverse_and_step_rejected(affine_a2, triangle_334):
    # a foreign element must not reach the memo tables of normal forms
    for call in (affine_a2.inverse, lambda g: affine_a2.right_multiply(g, 2)):
        with pytest.raises(MixedSystemError):
            call(triangle_334.element("st"))
    assert affine_a2.inverse(affine_a2.element("st")) == affine_a2.element("ts")


# ---------------------------------------------------------------------------
# Interned elements: identity is equality


@pytest.mark.parametrize("word", ["", "s", "tst", "sts", "stsuts", "ss", "tsstu", "uuu"])
def test_elements_are_interned(affine_a2, word):
    # normal-form and non-normal words alike give the one interned object
    g = affine_a2.element(word)
    assert affine_a2.element(word) is g
    assert affine_a2.element(g.word) is g
    assert affine_a2.multiply(g, affine_a2.identity) is g


def test_systems_of_one_matrix_do_not_share_elements():
    a, b = _BUILDERS["affine_a2"](), _BUILDERS["affine_a2"]()
    assert a.matrix == b.matrix
    for word in ("", "s", "stu"):
        assert a.element(word) != b.element(word)
        assert a.element(word).word == b.element(word).word
    assert a.identity not in {b.identity}


def test_foreign_element_with_filled_slots_rejected():
    # both systems have the same matrix, so a neighbour read from the foreign
    # element's own slots would look right: the system check runs on a hit too
    a, b = _BUILDERS["affine_a2"](), _BUILDERS["affine_a2"]()
    g = a.element("stu")
    for s in range(a.rank):
        a.right_multiply(g, s)
    a.inverse(g)
    assert None not in g._right and g._inverse is not None
    for s in range(b.rank):
        with pytest.raises(MixedSystemError):
            b.right_multiply(g, s)
    with pytest.raises(MixedSystemError):
        b.inverse(g)
    for operands in ((g, b.gens[0]), (b.gens[0], g), (g, a.gens[0])):
        with pytest.raises(MixedSystemError):
            b.multiply(*operands)


def test_elements_are_immutable(affine_a2):
    g = affine_a2.element("st")
    affine_a2.inverse(g)
    for name in ("system", "word", "mask", "_right", "_inverse", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert g.word == (0, 1) and g._inverse is affine_a2.element("ts")


def test_elements_cannot_be_built_outside_their_system(affine_a2):
    g = affine_a2.element("st")
    with pytest.raises(TypeError, match="interned"):
        Element(affine_a2, g.word, g.mask)
    with pytest.raises(TypeError, match="interned"):
        Element()
    assert affine_a2.element("st") is g


def test_unknown_generator_name_in_word_list(affine_a2):
    with pytest.raises(ValueError, match="unknown generator 'x'"):
        affine_a2.element(["s", "x"])
    assert affine_a2.element(["s", "t"]) == affine_a2.element("st")


def test_element_checks_letters_alike_on_every_route(affine_a2):
    # a string is parsed first and a name converted where it is read; every
    # route walks the stored edges, checking each letter before it indexes
    # them, and gives the same element or the same ValueError
    system, names = affine_a2, affine_a2.generator_names
    for word in ((), (0,), (0, 1, 2, 1, 0, 0), (2, 1, 2, 1, 0, 2, 0)):
        g = system.element(word)
        assert system.element(list(word)) is g
        assert system.element(system.render_word(word)) is g
        assert system.element(tuple(names[s] for s in word)) is g
    st = system.element((0, 1))
    for s in range(system.rank):
        system.right_multiply(st, s)  # st._right[-1] is now st*u
    for bad, message in ((-1, "generator index -1 out of range"),
                         (system.rank, "generator index 3 out of range"),
                         (1.0, "unknown generator 1.0"),
                         ([1], "unknown generator [1]"),
                         ("x", "unknown generator 'x'")):
        for word in ((0, 1, bad), [0, 1, bad], ("s", "t", bad)):
            with pytest.raises(ValueError) as info:
                system.element(word)
            assert str(info.value) == message, word
    with pytest.raises(ValueError, match="unknown generator 'x'"):
        system.element("stx")
    # bool is an int: True is the letter 1 on every route, and is interned
    # as 1 by every route that builds an element, even the first to reach it
    for word in ((0, True), [0, True], ("s", True)):
        assert system.element(word) is st
    fresh = _BUILDERS["affine_a2"]()
    g = fresh.element((0, True, False, 2, True))
    for word in ((0, True), (True, 0, 2, True)):
        assert fresh.element(word) is fresh.element(tuple(map(int, word)))
    assert fresh.right_multiply(g, True) is fresh.multiply(g, fresh.gens[1])
    assert fresh.left_multiply(True, g) is fresh.multiply(fresh.gens[1], g)
    assert fresh.right_multiply(fresh.gens[2], True).word == (2, 1)
    assert fresh.left_multiply(True, fresh.gens[0]).word == (1, 0)
    assert all(type(s) is int for word in fresh._elements for s in word)
    assert all(type(s) is int for word in system._elements for s in word)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ALL_SYSTEMS), data=st.data())
def test_long_tuple_words_match_the_oracle(name, data):
    # a long walk u u^-1 v ends at v's element, whose ShortLex word the
    # oracle ball gives; the long word u alone evaluates in the oracle like
    # its normal form, as the converted list route finds it
    system = get_system(name)
    radius = 5 if system.rank >= 4 else 6
    letters = st.integers(0, system.rank - 1)
    u = data.draw(st.lists(letters, min_size=20, max_size=60).map(tuple))
    v = data.draw(st.lists(letters, max_size=radius).map(tuple))
    expected = oracle_ball(name, radius)[oracle_eval(name, v)][1]
    for _ in range(2):  # the second pass reads the edges the first stored
        assert system.element(u + u[::-1] + v).word == expected
        g = system.element(u)
        assert g is system.element(list(u))
        assert g.length <= len(u) and oracle_eval(name, g.word) == oracle_eval(name, u)


def test_descents(dinf):
    assert dinf.descents(dinf.identity, "left") == frozenset()
    assert dinf.descents(dinf.gens[0], "left") == frozenset({"s"})
    assert dinf.descents(dinf.element("st"), "left") == frozenset({"s"})
    assert dinf.descents(dinf.element("st"), "right") == frozenset({"t"})
    with pytest.raises(ValueError):
        dinf.descents(dinf.identity, "up")


def test_descents_are_length_decreases(system):
    for g in system.ball(4):
        for name in system.generator_names:
            s = system.generator(name)
            left = system.multiply(s, g).length < g.length
            right = system.multiply(g, s).length < g.length
            assert (name in system.descents(g, "left")) == left
            assert (name in system.descents(g, "right")) == right


def test_separating_walls(s3, dinf, system):
    assert dinf.separating_walls(dinf.gens[0], dinf.gens[0]) == frozenset()
    assert dinf.separating_walls(dinf.identity, dinf.gens[0]) == frozenset(
        {dinf.simple_roots[0]}
    )
    assert len(s3.separating_walls(s3.identity, s3.element("sts"))) == 3
    ball = system.ball(4)
    for g in ball:
        for h in ball:
            assert len(system.separating_walls(g, h)) == system.word_metric(g, h)


def test_length_equals_inversion_count(system):
    for g in system.ball(5):
        assert len(system.inversion_walls(g)) == g.length


def test_inversion_walls_of_a_long_element(dinf):
    # far deeper than the interpreter's recursion limit
    g = dinf.element("st" * 550)
    assert len(dinf.inversion_walls(g)) == 1100


def _fresh_system(name: str, radius: int) -> CoxeterSystem:
    """A new copy of a test system whose ball elements were first met longest
    first, so that some of them came from length-decreasing products."""
    system = CoxeterSystem(get_system(name).matrix)
    for g in sorted(get_system(name).ball(radius), key=lambda g: -g.length):
        for s in range(system.rank):
            system.right_multiply(system.element(g.word), s)
    return system


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_word_metric_matches_oracle(name):
    # d(g, h) is the length of g^-1 h, evaluated in the oracle model from the
    # reversed word of g (generators are involutions) followed by h's word
    rank = get_system(name).rank
    radius = 4 if rank == 2 else 3
    system = _fresh_system(name, radius)
    lengths = {value: entry[0] for value, entry in oracle_ball(name, 2 * radius).items()}
    model = ORACLES[name]()
    ball = list(system.ball(radius))
    evaluate = lambda word: reduce(model.compose, [model.gens[s] for s in word], model.identity)
    inverse = {g: evaluate(g.word[::-1]) for g in ball}
    value = {h: evaluate(h.word) for h in ball}
    for g in ball:
        for h in ball:
            assert system.word_metric(g, h) == lengths[model.compose(inverse[g], value[h])]


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_inversion_walls_match_chain_definition(name):
    # N(w_1...w_k) = {w_1...w_j (alpha_{w_{j+1}}) : j < k}, one reflection chain each
    system = _fresh_system(name, 6)
    twin = CoxeterSystem(system.matrix)  # meets each word first through _intern
    for g in system.ball(6):
        w = g.word
        chain = {system.act_word(w[:j], system.simple_roots[w[j]]) for j in range(len(w))}
        assert system.inversion_walls(g) == chain
        assert twin.inversion_walls(twin._intern(w)) == chain


def test_only_labelled_oracles_read_inversion_walls():
    rules = [
        # hot paths compare inversion bitmasks; the frozenset view is for oracles
        ({"inversion_walls"}, {"op_voracious_projection", "wall_separation_oracle"}),
        # descents and walls come from the masks; chains of reflections are
        # for the oracles and for the closeness of one wall to one element
        (
            {"act_word", "act_inverse_word"},
            {
                "op_voracious_projection",
                "wall_separation_oracle",
                "estimate_parallel_wall",
                "m_close",
            },
        ),
        # the fellow-traveller scans compare columns of prefix points; the
        # scan over every word pair is their oracle, run only for a witness
        ({"_max_deviation"}, {"_witness"}),
    ]
    src = Path(__file__).resolve().parent.parent / "src" / "garside"

    def calls(node, methods):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None)) in methods
        ]

    for path in sorted(src.glob("*.py")):
        if path.name == "coxeter.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for methods, allowed in rules:
            in_oracles = {
                id(call)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name in allowed
                for call in calls(fn, methods)
            }
            stray = [call.lineno for call in calls(tree, methods) if id(call) not in in_oracles]
            assert not stray, f"{path.name} calls {sorted(methods)} at lines {stray}"


def test_triangle_inequality_radius4(dinf, s3, affine_a2):
    for system in (dinf, s3, affine_a2):
        ball = list(system.ball(4))
        for g in ball:
            for h in ball:
                dgh = system.word_metric(g, h)
                assert dgh == system.word_metric(h, g)
                for k in ball:
                    assert dgh <= system.word_metric(g, k) + system.word_metric(k, h)


def test_is_suffix(dinf, system):
    s, t = dinf.gens
    ts = dinf.element("ts")
    assert dinf.is_suffix(s, ts)
    assert not dinf.is_suffix(t, ts)
    ball = system.ball(3)
    for g in ball:
        assert system.is_suffix(system.identity, g)
        assert system.is_suffix(g, g)
        # the mask read against its definition by lengths
        for w in ball:
            expected = system.multiply(g, w.inverse()).length + w.length == g.length
            assert system.is_suffix(w, g) == expected


def test_ball_is_prefix_closed_and_sorted(system):
    ball = system.ball(4)
    elements = list(ball)
    assert elements == sorted(elements)
    members = set(elements)
    for g in elements:
        for i in range(g.length):
            assert system._intern(g.word[:i]) in members


def test_word_prefix_and_infix():
    v = (0, 1, 2, 1)
    assert word_prefix(v, 0) == ()
    assert word_prefix(v, 2) == (0, 1)
    assert word_prefix(v, 9) == v
    assert word_infix(v, 1, 3) == (0, 1, 2)
    assert word_infix(v, 3, 4) == (2, 1)
    # v(i, j) is v(j) with the prefix v(i-1) removed
    for i in range(1, 5):
        for j in range(i, 5):
            assert word_prefix(v, i - 1) + word_infix(v, i, j) == word_prefix(v, j)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("dinf", "s3", "affine_a2", "triangle_334")),
    data=st.data(),
)
def test_normalization_is_stable(name, data):
    system = get_system(name)
    word = data.draw(
        st.lists(st.integers(0, system.rank - 1), max_size=10).map(tuple)
    )
    g = system.element(word)
    # renormalizing the normal form is a fixed point
    assert system.element(g.word) == g
    # multiplying by s twice returns to g
    for s in range(system.rank):
        h = system.right_multiply(system.right_multiply(g, s), s)
        assert h == g


def test_render_parse_roundtrip(system):
    for g in system.ball(4):
        assert system.parse_word(system.render_word(g.word)) == g.word
    assert system.render_word(()) == "-"
    assert system.parse_word("-") == ()


def test_negative_ball_radius_rejected(dinf):
    dinf.ball(3)  # cached layers must not turn a negative radius into a slice
    with pytest.raises(ValueError, match="radius"):
        dinf.ball(-1)


@pytest.mark.parametrize("name, size, longest", [("s3", 6, 3), ("i24", 8, 4)])
def test_a_ball_past_a_finite_group_stops_at_its_first_empty_layer(name, size, longest):
    system = _BUILDERS[name]()  # fresh, so no layer is stored yet
    ball = system.ball(10**6)
    assert len(ball) == size and max(g.length for g in ball) == longest
    assert len(system._ball_layers) == longest + 2  # the last one empty
    assert system.ball(10**7).elements == ball.elements


def test_render_word_joins_multi_letter_names_with_spaces():
    st = make_system(["s", "t"], {("s", "t"): 0})
    xy = make_system(["x1", "y"], {("x1", "y"): 3})
    assert st.render_word((0, 1, 0)) == "sts"
    assert xy.render_word((0, 1)) == "x1 y"
    assert xy.render_word(()) == "-"


def test_system_render_word_matches_the_module_function():
    # the renderer that used to be a module function is now the system's method; it
    # must still agree with the explicit join: one-character names concatenate, and
    # any longer name puts spaces between all
    for system, sep in (
        (get_system("aa_product"), ""),
        (make_system(["x1", "y"], {("x1", "y"): 3}), " "),
    ):
        for g in system.ball(3):
            names = [system.generator_names[s] for s in g.word]
            assert system.render_word(g.word) == (sep.join(names) or "-")


def test_shortlex_key_sorts_as_element_order(system):
    ball = list(system.ball(5))[::-1]
    assert sorted(ball, key=shortlex_key) == sorted(ball)
    assert [g.word for g in sorted(ball, key=shortlex_key)] == [g.word for g in system.ball(5)]
