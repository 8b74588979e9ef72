"""Garside shadows, their projections, partitions and serialization.

A Garside shadow is a set of elements containing the generators, closed
under suffixes, and closed under existing joins.  Suffix closure is checked
locally, on s*b for the left descents s of each member b.  A suffix-closed
set is join-closed iff below every element x the members have a maximum; a
failing x yields a pair whose join is missing.  Scanning L_m, the m-low
elements for the least m with every member m-low (`shi.low_index`),
decides this exactly.  L_m is a finite Garside shadow (Dyer & Hohlweg,
*Small roots, low elements, and the weak order in Coxeter groups*, Adv.
Math. 2016), so it holds the join of any members with an upper bound; and
the ShortLex-first failing x is the join of the members below it, since
that join lies below x with the same members below it.  So the scan of L_m
names the same witness as a scan of any Cayley ball holding that x.  Both
scans run in ShortLex order, so every run names the same witness.

The projection of g onto a shadow B is the join of the shadow elements
below g.  For a valid shadow that join is itself a shadow element below g,
so it is found directly as the longest candidate, with the dominance over
all other candidates asserted rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import CoxeterSystem, Element, InternalInconsistencyError
from .shi import low_index, shi_gates
from .automata import cone_type_gates
from .weak_order import join_bounded


class CutoffExceeded(Exception):
    """A closure's join scan would read elements longer than the cutoff."""


class ShadowFileError(ValueError):
    """Malformed or mismatched serialized shadow."""


@dataclass(frozen=True)
class ValidationResult:
    """`search_radius`, the length of the longest element the join scan read
    (0 if it did not run), sizes the scan as the ball that covers it; the
    benchmark's tracer reads it."""

    ok: bool
    violation: str | None = None
    witness: tuple = ()
    search_radius: int = 0

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class GarsideShadow:
    """A validated finite Garside shadow with its length constant.

    The last two fields memoise the projection onto the shadow and the
    voracious language of each element; they take no part in equality.
    """

    system: CoxeterSystem
    ordered: tuple[Element, ...]
    members: frozenset[Element]
    constant_m: int
    provenance: str
    projection_cache: dict = field(default_factory=dict, compare=False, repr=False)
    language_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self):
        return len(self.ordered)

    def __iter__(self):
        return iter(self.ordered)

    def __contains__(self, g: Element) -> bool:
        return g in self.members


def _missing_suffixes(system: CoxeterSystem, members):
    """The suffix scan: yields (b, s*b) for each member b in ShortLex order
    and left descent s of b (bit s of its mask) with s*b not a member.  By
    induction on length, the members' suffixes are all members iff none is."""
    for b in sorted(members):
        for s in range(system.rank):
            if b.mask >> s & 1:
                w = system.multiply(system.gens[s], b)
                if w not in members:
                    yield b, w


def _top_below(members, x: Element) -> tuple[Element, list[Element]]:
    """The below-x scan over ShortLex-sorted, suffix-closed members: the
    last member below x, which is a longest one, and the members below x
    but not below it.  The identity is a member, so one is below x."""
    below = [b for b in members if b.mask & x.mask == b.mask]
    top = below[-1]
    return top, [b for b in below if b.mask & top.mask != b.mask]


def _join_failures(members, gates):
    """The join-closure scan: for each of the ShortLex-sorted m-low elements
    x in turn, the pairs of members below x that have no maximum among the
    members below x.  Exact when every member is m-low (module docstring).

    Yields (top, b, x) with top and b from `_top_below`; their join exists
    and lies below x.
    """
    members = sorted(members)
    for x in gates:
        top, strays = _top_below(members, x)
        for b in strays:
            yield top, b, x


def validate_shadow(system: CoxeterSystem, elements) -> ValidationResult:
    """Check the Garside shadow axioms for a finite element set.

    Returns Valid, or a Violation carrying the ShortLex-first missing
    generator, suffix or join.  Joins are decided over L_m, the m-low
    elements for the least m with every member m-low: L_m is a Garside
    shadow (Dyer & Hohlweg, Adv. Math. 2016), so it holds every join of
    members, and the first failing element of the group lies in it (module
    docstring).  Elements of another system raise MixedSystemError.
    """
    members = frozenset(elements)
    system._own(*members)
    for s in system.gens:
        if s not in members:
            return ValidationResult(
                False, f"generator {s} missing", (s,), 0
            )
    for b, w in _missing_suffixes(system, members):
        return ValidationResult(False, f"suffix {w} of {b} missing", (b, w), 0)

    gates = shi_gates(system, max(map(low_index, members)))
    search_radius = gates[-1].length
    for top, b, x in _join_failures(members, gates):
        j = join_bounded([top, b], x)
        return ValidationResult(
            False,
            f"join {j} of {top} and {b} missing",
            (top, b, j),
            search_radius,
        )
    return ValidationResult(True, None, (), search_radius)


def make_shadow(system: CoxeterSystem, elements, provenance: str) -> GarsideShadow:
    """Validate and wrap an element set; raises on a failed validation."""
    result = validate_shadow(system, elements)
    if not result:
        raise ValueError(f"not a Garside shadow: {result.violation}")
    members = frozenset(elements)
    return GarsideShadow(
        system=system,
        ordered=tuple(sorted(members)),
        members=members,
        constant_m=max(g.length for g in members),
        provenance=provenance,
    )


def shadow_from_gates(system: CoxeterSystem, kind: str, m: int | None = None) -> GarsideShadow:
    """The shadows of gates: low elements, m-low elements, or cone-type gates.

    Validation failure here is a fatal internal error, not a user error.
    Results are cached per system, so repeated calls share one validated
    object (and its projection cache).
    """
    cache = system.cache("gate_shadows")
    cache_key = (kind, m)
    if cache_key in cache:
        return cache[cache_key]
    if kind == "low":
        gates, provenance = shi_gates(system, 0), "low"
    elif kind == "m-low":
        if m is None:
            raise ValueError("m-low needs the closeness parameter m")
        gates, provenance = shi_gates(system, m), f"m-low({m})"
    elif kind == "gamma":
        gates, provenance = cone_type_gates(system), "gamma"
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    try:
        shadow = cache[cache_key] = make_shadow(system, gates, provenance)
    except ValueError as exc:
        raise InternalInconsistencyError(
            f"{provenance} gates failed shadow validation: {exc}"
        ) from None
    return shadow


def garside_closure(system: CoxeterSystem, seed, cutoff: int) -> GarsideShadow:
    """Smallest shadow containing the seed, by fixed-point closure.

    For the least m with the seed and the generators m-low, the Garside
    shadow L_m holds the closure (module docstring), so suffixes and the
    joins found by scanning L_m are added until nothing changes.  Raises
    CutoffExceeded when L_m holds an element longer than the cutoff."""
    current: set[Element] = {system.identity, *system.gens}
    current.update(seed)
    system._own(*current)
    m = max(map(low_index, current))
    gates = shi_gates(system, m)
    if gates[-1].length > cutoff:
        raise CutoffExceeded(
            f"the join scan reads the {m}-low elements, up to length "
            f"{gates[-1].length}; cutoff is {cutoff}"
        )
    while True:
        size = len(current)
        while missing := {w for _, w in _missing_suffixes(system, current)}:
            current |= missing
        bounds = {(top, b): x for top, b, x in _join_failures(current, gates)}
        current |= {join_bounded(pair, x) for pair, x in bounds.items()}
        if len(current) == size:
            break
    return make_shadow(system, current, "closure-of-seed")


# ---------------------------------------------------------------------------
# Projection and partition


def b_projection(shadow: GarsideShadow, g: Element) -> Element:
    """The join of the shadow elements below g.

    The result is the longest shadow member below g; that it bounds every
    other candidate is asserted, since for a valid shadow the join of the
    candidates is itself a candidate."""
    cache = shadow.projection_cache
    hit = cache.get(g)
    if hit is not None:
        return hit
    shadow.system._own(g)
    top, strays = _top_below(shadow.ordered, g)
    if strays:
        raise InternalInconsistencyError(
            f"projection candidates of {g} have no maximum: {top} vs {strays[0]}"
        )
    cache[g] = top
    return top


def partition_part(shadow: GarsideShadow, b: Element, radius: int) -> tuple[Element, ...]:
    """Ball slice of the fiber of the projection over b; b gates the part."""
    if b not in shadow:
        raise ValueError(f"{b} is not a member of the shadow")
    return tuple(
        g for g in shadow.system.ball(radius) if b_projection(shadow, g) == b
    )


@dataclass(frozen=True)
class RefinementReport:
    ok: bool
    radius: int
    classes_checked: int
    counterexample: tuple = ()


def refinement_check(
    small: GarsideShadow, large: GarsideShadow, radius: int
) -> RefinementReport:
    """Verify that the partition of the larger shadow refines the smaller's.

    For all x, y in the ball: equal projections onto the large shadow force
    equal projections onto the small one.  A counterexample is an
    implementation bug, not a property of the input."""
    if not small.members <= large.members:
        raise ValueError("refinement_check requires the first shadow inside the second")
    by_large: dict[Element, Element] = {}
    for x in small.system.ball(radius):
        key = b_projection(large, x)
        mine = b_projection(small, x)
        if by_large.setdefault(key, mine) != mine:
            return RefinementReport(False, radius, len(by_large), (x, key))
    return RefinementReport(True, radius, len(by_large))


# ---------------------------------------------------------------------------
# Serialization

_SHADOW_HEADER = "# garside shadow v1"


def shadow_to_text(shadow: GarsideShadow) -> str:
    lines = [
        _SHADOW_HEADER,
        f"group-hash: {shadow.system.matrix.content_hash()}",
        f"provenance: {shadow.provenance}",
        f"constant-m: {shadow.constant_m}",
        f"elements: {len(shadow)}",
    ]
    lines.extend(shadow.system.render_word(g.word) for g in shadow.ordered)
    return "\n".join(lines) + "\n"


def shadow_from_text(system: CoxeterSystem, text: str) -> GarsideShadow:
    """Reload a serialized shadow; revalidates both hash and axioms."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0].strip() != _SHADOW_HEADER:
        raise ShadowFileError("missing shadow header")
    fields: dict[str, str] = {}
    body: list[str] = []
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ":" in ln and not body and ln.split(":", 1)[0] in (
            "group-hash",
            "provenance",
            "constant-m",
            "elements",
        ):
            key, value = ln.split(":", 1)
            fields[key] = value.strip()
        else:
            body.append(ln)
    for required in ("group-hash", "provenance", "constant-m", "elements"):
        if required not in fields:
            raise ShadowFileError(f"missing field {required!r}")
    if fields["group-hash"] != system.matrix.content_hash():
        raise ShadowFileError("shadow was computed for a different group")
    try:
        n_elements, constant_m = int(fields["elements"]), int(fields["constant-m"])
    except ValueError as exc:
        raise ShadowFileError(f"a count field is not an integer: {exc}") from None
    if len(body) != n_elements:
        raise ShadowFileError(
            f"expected {fields['elements']} elements, found {len(body)}"
        )
    members = set()
    for word_text in body:
        try:
            g = system.element(word_text)
        except ValueError as exc:
            raise ShadowFileError(str(exc)) from None
        if system.render_word(g.word) != word_text:
            raise ShadowFileError(f"word {word_text!r} is not a normal form")
        if g in members:
            raise ShadowFileError(f"element {word_text!r} is listed twice")
        members.add(g)
    try:
        shadow = make_shadow(system, members, fields["provenance"])
    except ValueError as exc:
        raise ShadowFileError(str(exc)) from None
    if shadow.constant_m != constant_m:
        raise ShadowFileError(
            f"constant-m mismatch: file says {fields['constant-m']}, "
            f"recomputed {shadow.constant_m}"
        )
    return shadow
