"""Garside shadows, their projections, partitions and serialization.

A Garside shadow is a set of elements containing the generators, closed
under suffixes, and closed under existing joins.  Suffix closure is checked
locally, on s*b for the left descents s of each member b.  A suffix-closed
set is join-closed iff below every element x the members have a maximum; a
failing x yields a pair whose join is missing.  Scanning L_m, the m-low
elements for the least m with every member m-low (`shi.low_index`),
decides this exactly: L_m is a finite Garside shadow (Dyer & Hohlweg,
*Small roots, low elements, and the weak order in Coxeter groups*, Adv.
Math. 2016), so it holds the join of any members with an upper bound, and
the ShortLex-first failing x is that missing join (`validate_shadow`): the
witness a ShortLex scan of any ball holding x names, the same in every run.

The projection of g onto a shadow B is the join of the shadow elements
below g.  For s x > x, projection_B(s x) = projection_B(s projection_B(x))
(Hohlweg, Nadeau & Williams, J. Algebra 2016).  So any reduced word of g,
read through B's transition table delta(b, s) = projection_B(s b) from its
last letter, gives projection_B(g), and from its first, projection_B(g^-1).
The gate shadows L_m and the cone-type gates are shadows by theorem, and
their partitions, m-Shi and by cone type, are the walks that find them, so
a walk is its shadow's table: `shadow_from_gates` and its reloads scan nothing.
Any other shadow B lies in some L_m, and every member of B below g is below
projection_{L_m}(g), so projection_B = projection_B o projection_{L_m}: the
join scan that validates B (or ends its closure) finds projection_B on each
m-low element, and B's table is those tops read through L_m's walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import CoxeterSystem, Element, InternalInconsistencyError, set_bits, shortlex_key
from .shi import gate_walk, low_index
from .automata import cone_type_walk
from .weak_order import _first_above


class CutoffExceeded(Exception):
    """A closure's join scan would read elements longer than the cutoff."""


class ShadowFileError(ValueError):
    """Malformed or mismatched serialized shadow."""


@dataclass(frozen=True)
class ValidationResult:
    """`search_radius`, the length of the longest element the join scan read
    (0 if it did not run), sizes the scan as the ball that covers it; the
    benchmark's tracer reads it.  A valid result carries `delta`, the
    transition table of the members in ShortLex order (`GarsideShadow`)."""

    ok: bool
    violation: str | None = None
    witness: tuple = ()
    search_radius: int = 0
    delta: list | None = field(default=None, repr=False)

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class CheckResult:
    """The result of one check on a ball, as it reads on one `check:` line
    of a verification report: the check's name, its verdict, its figures,
    and a witness that names the first failure (printed only on failure)."""

    name: str
    passed: bool
    details: str
    witness: str = ""


@dataclass(frozen=True)
class GarsideShadow:
    """A finite Garside shadow with its length constant, built by
    `make_shadow` (validated), `garside_closure` or `shadow_from_gates`.

    `delta[i][s] = j` names projection_B(s b_i) = b_j for b_i = ordered[i],
    None if s is a left descent of b_i; a gate shadow takes it from its
    walk, any other from the join scan that validated or closed it (module
    docstring).  Equality ignores it, `steps`, the voracious-step table
    g -> (nu(g), b, Red(b^-1)) that `voracious._step` fills, and `chains`,
    g -> its `VoraciousChain` for each g that `voracious_chain` was asked
    for; no word set is kept.
    """

    system: CoxeterSystem
    ordered: tuple[Element, ...]
    members: frozenset[Element]
    constant_m: int
    provenance: str
    delta: list[list[int | None]] = field(compare=False, repr=False)
    steps: dict = field(default_factory=dict, compare=False, repr=False)
    chains: dict = field(default_factory=dict, compare=False, repr=False)

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
    for b in sorted(members, key=shortlex_key):
        for s in set_bits(b.mask & (1 << system.rank) - 1):  # s b < b
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


def _join_scan(members, gates):
    """The join-closure scan: `_top_below` of each of the ShortLex-sorted
    m-low elements x in turn, lazily.  Each stray b makes (top, b) a pair
    whose join exists below x; exact when every member is m-low.  With no
    strays, top = projection_B(x) (module docstring)."""
    members = sorted(members, key=shortlex_key)
    return (_top_below(members, x) for x in gates)


def _scanned_delta(gates, delta, tops):
    """B's delta from L_m's, for tops[k] = projection_B(gates[k]): the
    members are the gates that are their own tops, in ShortLex order, and
    delta_B(b, s) = projection_B(projection_{L_m}(s b)) is the top at L_m's
    entry (module docstring)."""
    index = {x: i for i, x in enumerate(x for x, top in zip(gates, tops) if top is x)}
    return [[j if j is None else index[tops[j]] for j in row]
            for x, row in zip(gates, delta) if x in index]


def validate_shadow(system: CoxeterSystem, elements) -> ValidationResult:
    """Check the Garside shadow axioms for a finite element set.

    Returns Valid, with delta, or a Violation carrying the ShortLex-first
    missing generator, suffix or join; joins and delta by the scan of L_m
    (module docstring).  The first failing x is the missing join of `top`
    and its first stray b: j = join(top, b) <= x is in L_m and fails, since
    a maximum of the members below j would be j, a member below x longer
    than top.  So j, no later than x in ShortLex, is x.  Elements of
    another system raise MixedSystemError.
    """
    members = frozenset(elements)
    system._own(*members)
    for s in system.gens:
        if s not in members:
            return ValidationResult(False, f"generator {s} missing", (s,))
    for b, w in _missing_suffixes(system, members):
        return ValidationResult(False, f"suffix {w} of {b} missing", (b, w))

    gates, delta = gate_walk(system, max(map(low_index, members)))
    if members == frozenset(gates):  # L_m itself, a shadow by theorem
        return ValidationResult(True, delta=delta)
    search_radius, tops = gates[-1].length, []
    for x, (top, strays) in zip(gates, _join_scan(members, gates)):
        if strays:
            return ValidationResult(False, f"join {x} of {top} and {strays[0]} missing",
                                    (top, strays[0], x), search_radius)
        tops.append(top)
    return ValidationResult(True, None, (), search_radius, _scanned_delta(gates, delta, tops))


def make_shadow(system: CoxeterSystem, elements, provenance: str) -> GarsideShadow:
    """Validate and wrap an element set, such as a file's; raises on a failed
    validation, or on a `low` provenance (which `verify` trusts) for other
    elements than the low shadow's.  The system's gate shadow that the
    provenance names, if built and of these members, is returned itself, not
    validated again (the low one is built to compare; a number in the
    provenance starts no walk).  Otherwise delta is validation's."""
    members = frozenset(elements)
    if provenance == "low":
        shadow_from_gates(system, "low")
    for built in system.cache("gate_shadows").values():
        if (built.provenance, built.members) == (provenance, members):
            return built
    result = validate_shadow(system, members)
    if not result:
        raise ValueError(f"not a Garside shadow: {result.violation}")
    if provenance == "low":
        raise ValueError("provenance low, but the members are not the low elements")
    return _shadow(system, members, provenance, result.delta)


def _shadow(system: CoxeterSystem, members, provenance: str, delta) -> GarsideShadow:
    """The shadow of members known to form one, with `delta` on their
    ShortLex order, which `_check_walk` tests."""
    ordered = tuple(sorted(members, key=shortlex_key))
    _check_walk(system, ordered, delta)
    return GarsideShadow(system, ordered, frozenset(ordered), ordered[-1].length, provenance, delta)


def _check_walk(system: CoxeterSystem, gates, delta) -> None:
    """The check of a shadow's table: delta[i][s] = j is None iff s is a
    left descent of b = gates[i], and else names c = gates[j] below s b.
    N(s b) is alpha_s and s N(b), so c <= s b iff s sends the other walls
    of c into N(b): one mask test, through the reflection table."""
    for b, row in zip(gates, delta):
        for s, j in enumerate(row):
            image = 0 if j is None else system._reflect_mask(s, gates[j].mask & ~(1 << s))
            if (j is None) != bool(b.mask >> s & 1) or image & ~b.mask:
                raise InternalInconsistencyError(f"the shadow's delta is wrong at {b}, {s}")


def shadow_from_gates(system: CoxeterSystem, kind: str, m: int | None = None) -> GarsideShadow:
    """The shadows of gates: the low elements (`low`), the m-low elements for
    an int m >= 0 (`m-low`; m = 0 gives the low shadow), or the cone-type
    gates (`gamma`).  Their walk (`shi.gate_walk`, `automata.cone_type_walk`)
    gives delta too (module docstring).  Results are cached per system, so
    repeated calls share one object."""
    if kind == "m-low" and type(m) is int and m >= 0:  # a bool is not an m
        if not m:
            kind, m = "low", None
    elif kind not in ("low", "gamma") or m is not None:
        raise ValueError(f"gate kinds are low, gamma, and m-low with an int m >= 0; "
                         f"not {kind!r} with m={m!r}")
    cache = system.cache("gate_shadows")
    if (kind, m) not in cache:
        gates, delta = cone_type_walk(system) if kind == "gamma" else gate_walk(system, m or 0)
        cache[kind, m] = _shadow(system, gates, kind if m is None else f"m-low({m})", delta)
    return cache[kind, m]


def garside_closure(system: CoxeterSystem, seed, cutoff: int) -> GarsideShadow:
    """Smallest shadow containing the seed, by fixed-point closure.

    For the least m with the seed and the generators m-low, the Garside
    shadow L_m holds the closure (module docstring), so suffixes and the
    joins found by scanning L_m, each the first of those gates above its
    pair, are added until nothing changes; the last scan, over the closure,
    gives delta.  Raises CutoffExceeded when L_m holds an element longer
    than the cutoff."""
    current: set[Element] = {system.identity, *system.gens, *seed}
    system._own(*current)
    m = max(map(low_index, current))
    gates, delta = gate_walk(system, m)
    if gates[-1].length > cutoff:
        raise CutoffExceeded(f"the join scan reads the {m}-low elements, up to length "
                             f"{gates[-1].length}; cutoff is {cutoff}")
    while True:
        size = len(current)
        while missing := {w for _, w in _missing_suffixes(system, current)}:
            current |= missing
        scan = list(_join_scan(current, gates))
        current |= {_first_above(gates, (top, b)) for top, strays in scan for b in strays}
        if len(current) == size:  # both scans came back empty: a shadow
            break
    tops = [top for top, _ in scan]
    return _shadow(system, current, "closure-of-seed", _scanned_delta(gates, delta, tops))


# ---------------------------------------------------------------------------
# Projection and partition


def _fold(shadow: GarsideShadow, g: Element, step: int = 1) -> Element:
    """projection_B(g^-1): g's normal form read through `delta` from its
    first letter; projection_B(g) with step -1, read from its last."""
    if g.system is not shadow.system:  # inline test: `_own` raises, but costs a call
        shadow.system._own(g)
    delta, i = shadow.delta, 0
    for s in g.word[::step]:
        i = delta[i][s]
    return shadow.ordered[i]


def b_projection(shadow: GarsideShadow, g: Element) -> Element:
    """The join of the shadow elements below g (module docstring)."""
    return _fold(shadow, g, -1)


def partition_part(shadow: GarsideShadow, b: Element, radius: int) -> tuple[Element, ...]:
    """Ball slice of the fiber of the projection over b; b gates the part."""
    if b not in shadow:
        raise ValueError(f"{b} is not a member of the shadow")
    return tuple(g for g in shadow.system.ball(radius) if b_projection(shadow, g) == b)


def _first_split(elements, key, value):
    """The refinement scan: the first element whose key's class already
    holds a different value (None if there is none), and the number of
    classes seen by then."""
    classes: dict = {}
    for x in elements:
        mine = value(x)
        if classes.setdefault(key(x), mine) != mine:
            return x, len(classes)
    return None, len(classes)


def refinement_check(small: GarsideShadow, large: GarsideShadow, radius: int) -> CheckResult:
    """Verify that the partition of the larger shadow refines the smaller's.

    For all x, y in the ball: equal projections onto the large shadow force
    equal projections onto the small one.  A counterexample is an
    implementation bug, not a property of the input."""
    if not small.members <= large.members:
        raise ValueError("refinement_check requires the first shadow inside the second")
    x, parts = _first_split(small.system.ball(radius), lambda x: b_projection(large, x),
                            lambda x: b_projection(small, x))
    if x is not None:
        return CheckResult("refinement", False, f"radius={radius}", f"x={x}")
    return CheckResult("refinement", True, f"radius={radius} parts={parts}")


# ---------------------------------------------------------------------------
# Serialization

_SHADOW_HEADER = "# garside shadow v1"
_SHADOW_FIELDS = ("group-hash", "provenance", "constant-m", "elements")


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
    """Reload a serialized shadow; checks the hash, and revalidates the axioms
    unless they are a gate shadow already built (`make_shadow`)."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0].strip() != _SHADOW_HEADER:
        raise ShadowFileError("missing shadow header")
    fields: dict[str, str] = {}
    body: list[str] = []
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, colon, value = ln.partition(":")
        if colon and not body and key in _SHADOW_FIELDS:
            if key in fields:
                raise ShadowFileError(f"repeated field {key!r}")
            fields[key] = value.strip()
        else:
            body.append(ln)
    for required in _SHADOW_FIELDS:
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
            # a normal form interned already is read, not walked from id
            g = system._intern(system.parse_word(word_text))
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
