"""Exhaustive verification of the structural claims on Cayley balls.

Every check here is exhaustive over a ball, never sampled, and each report
is deterministic given (system, shadow, radius).  A check returns one
`CheckResult` (defined in `shadows`, beside `refinement_check`), which is
one `check:` line of a report; the fellow-traveller checks return a
`FellowTravellerReport`, a CheckResult that also keeps the figures of its
line.  `full_suite` lists the checks, and `VerdictBundle.to_text` prints
a witness only on a failed line.

The fellow-traveller bounds are theorems, so a violation is treated as an
implementation bug.  The second bound involves the parallel-wall constant,
which is computed exactly from the small roots (`parallel_wall_constant`);
its ball estimate is kept only as an oracle for the tests.

Condition one and the fellow-traveller scans read the voracious chain,
not word sets: the words of g are L(nu(g)) Red(b^-1) (`voracious`), so
g's prefix columns are nu(g)'s, then the layers of nu(g)*[e, b^-1], built
in one table (`_chain_columns`) that `full_suite` shares among the three
checks, over the ball of radius + 1, and that a check called alone builds
for itself.  Condition one checks each chain step on the walk that builds
them.  The scans compare the columns of two elements position by position,
never word pairs; the scan over every word pair, `_max_deviation`, is
their oracle, and runs on the words of `language_of` only to name a
report's witness when a check's running maximum rises.  Left
multiplication is an isometry, so each Cayley edge is visited once, from
its shorter end.  `original-projection` compares with the wall
description, which climbs to its answer and builds no lower set
(`op_voracious_projection`); `projection-monotone` scans [nu(g), g] as
nu(g)*[e, b^-1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, product, starmap
from operator import xor

from .coxeter import CoxeterSystem, Element, shortlex_key
from .shadows import CheckResult, GarsideShadow, _first_split, b_projection
from .shi import elementary_walls, is_shi_gate, separation_count
from .voracious import (
    _prefix_masks,
    _step,
    cross_validate_regularity,
    language_of,
    op_voracious_projection,
    voracious_chain,
    voracious_projection,
)
from .weak_order import _lower_set, weak_leq


@dataclass(frozen=True, kw_only=True)
class FellowTravellerReport(CheckResult):
    """A fellow-traveller check's line, with the figures it is made of.
    The witness is kept when the check passes, for the largest deviation."""

    pairs_checked: int
    max_deviation: int
    theoretical_bound: int | None
    extended_max: int | None = None  # second kind: max at radius + 1
    plateau: bool | None = None


@dataclass(frozen=True)
class VerdictBundle:
    system_name: str
    shadow_provenance: str
    constant_m: int
    radius: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            "# verification report v1",
            f"system: {self.system_name}",
            f"shadow: {self.shadow_provenance}",
            f"constant-m: {self.constant_m}",
            f"radius: {self.radius}",
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"check: {c.name} {status} {c.details}"
            if c.witness and not c.passed:
                line += f" witness={c.witness}"
            lines.append(line)
        lines.append(f"result: {'pass' if self.all_passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Condition (1): surjectivity with finite fibers


def check_condition_one(shadow: GarsideShadow, radius: int) -> CheckResult:
    """Every ball element is represented by at least one (and finitely many)
    voracious words, and each of them spells it: by induction, iff each
    step has l(nu(g)) + l(b) = l(g) and nu(g)*b^-1 = g, that is, iff the
    walk building g's prefix columns (`_chain_columns`) ends at g, at l(g)."""
    return _condition_one(shadow, radius, _chain_columns(shadow, shadow.system.ball(radius)))


def _condition_one(shadow: GarsideShadow, radius: int, table: dict) -> CheckResult:
    system = shadow.system
    ball = system.ball(radius)  # the table's first entries, as it is in ShortLex order
    most = max(n for n, _, _ in islice(table.values(), len(ball)))
    details = f"radius={radius} elements={len(ball)} max-words={most}"
    for g, (_, columns, end) in islice(table.items(), len(ball)):
        if end is not g or len(columns) != g.length:  # so every word of g fails
            word = system.render_word(min(language_of(shadow, g)))
            return CheckResult("condition-one", False, details, f"g={g} word={word}")
    return CheckResult("condition-one", True, details)


# ---------------------------------------------------------------------------
# Fellow traveller properties


def _max_deviation(words, words2, path, prefixes):
    """Largest distance between the i-th point of path(v) and the length-i
    prefix of v2, over v in words, v2 in words2 and i up to the longer word;
    paths and prefixes stay at their last point past the end of the word.

    Points are inversion bitmasks (see `_prefix_masks`), padded to the
    longest word, so a distance is the popcount of an XOR.  Returns the
    maximum and its first witness (v, v2, i) in iteration order, or
    (0, None) when no distance is positive.
    """
    n = max(map(len, (*words, *words2)))
    masks = lambda points: points[1:] + points[-1:] * (n + 1 - len(points))
    rows2 = [(v2, masks(prefixes(v2))) for v2 in words2]
    best, witness = 0, None
    for v in words:
        row = masks(path(v))
        for v2, row2 in rows2:
            dists = list(map(int.bit_count, map(xor, row, row2)))
            d = max(dists, default=0)
            if d > best:
                best, witness = d, (v, v2, dists.index(d) + 1)
    return best, witness


def _witness(shadow: GarsideShadow, g: Element, h: Element, path, prefixes):
    """The pair scan's first witness (v, v2, i) over g's and h's sorted words."""
    words, words2 = (sorted(language_of(shadow, x)) for x in (g, h))
    return _max_deviation(words, words2, path, prefixes)[1]


def _chain_columns(shadow: GarsideShadow, ball) -> dict:
    """g -> (|L(g)|, g's prefix columns, where g's words end) over a ShortLex
    ball; column i-1 holds the masks of the distinct length-i prefixes.  The
    words are L(nu(g)) Red(b^-1), and the prefixes of the reduced words of
    b^-1 are [e, b^-1]: so g's columns are nu(g)'s (shorter, so there first),
    then the layers by length of x*[e, b^-1], x where nu(g)'s words end."""
    system = shadow.system
    walks, table = {}, {}
    for g in ball:
        nu, b, words = _step(shadow, g)
        if b not in walks:  # [e, b^-1] less e, each p after p less its last letter
            walks[b] = sorted(_lower_set(system.inverse(b)), key=shortlex_key)[1:]
        count, columns, end = table.get(nu, (1, (), g))  # the identity's nu is itself
        points, layers, x = {(): end}, [[] for _ in range(b.length)], end  # p.word: end*p
        for p in walks[b]:  # the last is b^-1
            x, s = points[p.word[:-1]], p.word[-1]
            x = points[p.word] = x._right[s] or system.right_multiply(x, s)
            layers[len(p.word) - 1].append(x.mask)
        table[g] = count * len(words), columns + tuple(map(tuple, layers)), x
    return table


def _neighbour_deviations(shadow: GarsideShadow, max_len: int, side: str, table: dict):
    """The scan of both fellow-traveller checks, one visit per Cayley edge:
    for g in the ball of radius max_len and s with h = g*s ("right") or s*g
    ("left") one letter longer, yields (g, s, h, n, d, witness), reading the
    columns from `table`, the chain table of that ball or of a larger one:
    n word pairs, their `_max_deviation` d, and a function computing its
    first witness (v, v2, i) with the pair scan.

    d is the largest distance within a column: column i holds the distinct
    length-i prefixes of g's words (on the left, s times them, ending at h)
    against those of h's, and past the end a word stays at its last point.
    So a pair costs the sum over i of the column sizes' product, not
    |L(g)|*|L(h)|*l.  Left multiplication by s is an isometry, d(s*p, q) =
    d(p, s*q), so (h, s, g) has the d of (g, s, h), and n counts the word
    pairs of both: 2*|L(g)|*|L(h)|.  The shorter end comes first in
    ShortLex order, so a running maximum would not rise at the other one.
    """
    system = shadow.system
    ball = system.ball(max_len)
    prefixes = partial(_prefix_masks, system)
    if side == "left":
        # s*p for the prefix points p, keyed as column points are: s*g =
        # (s*g')*t for g = g'*t, g' earlier in ShortLex order.  No point of
        # a shorter element's word lies on the top layer.
        lefts = {system.identity.mask: system.gens}
        for g in islice(ball, 1, None):
            if len(g.word) == max_len:
                break
            t = g.word[-1]  # the ball made g from g*t, and stored that edge
            lefts[g.mask] = [x._right[t] or system.right_multiply(x, t) for x in lefts[g._right[t].mask]]
    for g in ball:
        if len(g.word) == max_len:
            break  # a longer neighbour lies outside the ball
        n_g, columns_g, _ = table[g]
        for i, s in enumerate(system.gens):
            h = (g._right[i] or system.right_multiply(g, i)) if side == "right" else lefts[g.mask][i]
            if len(h.word) < len(g.word):
                continue
            n_h, columns_h, _ = table[h]
            cols_g, end = columns_g, g.mask
            if side == "left":  # s times g's prefixes, ending at h
                cols_g, end = [[lefts[p][i].mask for p in c] for c in cols_g], h.mask
            pairs = chain.from_iterable(map(product, [*cols_g, [end]], columns_h))
            d = max(map(int.bit_count, starmap(xor, pairs)))
            path = prefixes if side == "right" else lambda v, s=s.word: prefixes(s + v)[1:]
            yield g, s, h, 2 * n_g * n_h, d, partial(_witness, shadow, g, h, path, prefixes)


def check_first_ftp(shadow: GarsideShadow, radius: int) -> FellowTravellerReport:
    """Deviation of prefixes of voracious words for g and g*s, against 2M."""
    return _first_ftp(shadow, radius, _chain_columns(shadow, shadow.system.ball(radius)))


def _first_ftp(shadow: GarsideShadow, radius: int, table: dict) -> FellowTravellerReport:
    render = shadow.system.render_word
    bound = 2 * shadow.constant_m
    best = pairs = 0
    witness = ""
    for _, _, _, n, d, witness_of in _neighbour_deviations(shadow, radius, "right", table):
        pairs += n
        if d > best:
            best, (v, v2, i) = d, witness_of()
            witness = f"v={render(v)} v'={render(v2)} i={i}"
    return FellowTravellerReport(
        name="first-ftp",
        passed=best <= bound,
        details=f"radius={radius} max-deviation={best} bound={bound} pairs={pairs}",
        witness=witness,
        pairs_checked=pairs,
        max_deviation=best,
        theoretical_bound=bound,
    )


def parallel_wall_constant(system: CoxeterSystem, m: int) -> int:
    """The parallel-wall constant Q(m), exactly.

    The largest distance from a vertex to a wall separated from it by at
    most m-1 walls.  Moved to the identity vertex, such a wall is an
    (m-1)-elementary wall, at distance its depth minus one, so Q(m) is a
    maximum over the finite set of small roots (Brink & Howlett, Math.
    Ann. 1993).  They are read off the m-elementary walls, which `verify`
    needs for the Shi check anyway: the ones separated by at most m-1 walls,
    with the depths and counts the walk that found them met them at.
    """
    if m <= 0:
        return 0
    walls = elementary_walls(system, m)
    return max(depth for depth, n in zip(walls.depths, walls.counts) if n < m) - 1


def estimate_parallel_wall(system: CoxeterSystem, m: int, radius: int) -> int:
    """Oracle for `parallel_wall_constant`: its lower bound on a ball.

    Maximal distance from a ball vertex to a ball wall separated from it by
    at most m-1 walls, straight from the definition.  Distance from a vertex
    to a wall is the word metric to the nearest endpoint of a dual edge,
    computed exactly via root depth.
    """
    q_hat = 0
    walls = system.ball_walls(radius)
    for g in system.ball(radius):
        for wall in walls:
            moved = system.act_inverse_word(g.word, wall).abs()
            if separation_count(system, moved) <= m - 1:
                q_hat = max(q_hat, system.root_depth(moved) - 1)
    return q_hat


def check_second_ftp(shadow: GarsideShadow, radius: int) -> FellowTravellerReport:
    """Deviation of prefixes of voracious words for g and s*g.

    Passes when the maximum over the radius+1 ball stays within the proven
    bound 4M(M+Q)+2Q, with Q the exact parallel-wall constant.  Whether the
    maximum over the radius ball already equals it (`plateau`) is reported
    for information only.
    """
    return _second_ftp(shadow, radius, _chain_columns(shadow, shadow.system.ball(radius + 1)))


def _second_ftp(shadow: GarsideShadow, radius: int, table: dict) -> FellowTravellerReport:
    system = shadow.system
    render = system.render_word
    m_const = shadow.constant_m
    q = parallel_wall_constant(system, m_const)
    bound = 4 * m_const * (m_const + q) + 2 * q
    best = best_extended = pairs = 0
    witness = ""
    for g, s, h, n, d, witness_of in _neighbour_deviations(shadow, radius + 1, "left", table):
        pairs += n
        if d > best_extended:
            best_extended, (v, v2, i) = d, witness_of()
            witness = f"v={render(v)} v'={render(v2)} s={s} i={i}"
        if d > best and len(h.word) <= radius:  # g is the shorter end
            best = d
    return FellowTravellerReport(
        name="second-ftp",
        passed=best_extended <= bound,
        details=f"radius={radius} max-deviation={best} extended={best_extended} "
        f"plateau={best == best_extended} bound={bound}",
        witness=witness,
        pairs_checked=pairs,
        max_deviation=best,
        theoretical_bound=bound,
        extended_max=best_extended,
        plateau=best == best_extended,
    )


# ---------------------------------------------------------------------------
# Lemma-level scans


def check_lemma_chain(shadow: GarsideShadow, radius: int) -> CheckResult:
    """Interleaving of the iterated projections of g and of g*s below it."""
    system = shadow.system
    checked = 0
    for g in system.ball(radius):
        right = system.inverse(g).mask  # bit i set iff g*s_i is below g
        chain_g = voracious_chain(shadow, g).steps
        for i, s in enumerate(system.gens):
            if not right >> i & 1:
                continue
            chain_g2 = voracious_chain(shadow, system.right_multiply(g, i)).steps
            n = max(len(chain_g), len(chain_g2))
            a, a2 = (c + c[-1:] * (n + 1 - len(c)) for c in (chain_g, chain_g2))
            for k in range(1, n + 1):
                checked += 1
                if not (weak_leq(a2[k], a[k]) and weak_leq(a[k], a2[k - 1])):
                    return CheckResult(
                        "lemma-chain", False, f"radius={radius}", f"g={g} s={s} k={k}"
                    )
    return CheckResult("lemma-chain", True, f"radius={radius} links={checked}")


def check_projection_monotone(shadow: GarsideShadow, radius: int) -> CheckResult:
    """Between the projection of g and g, the projection only descends."""
    system = shadow.system
    checked = 0
    for g in system.ball(radius):
        nu = voracious_projection(shadow, g)  # [nu, g] = nu*[e, nu^-1 g], empty unless nu <= g
        tail = system.multiply(system.inverse(nu), g)
        above = [system.multiply(nu, p) for p in _lower_set(tail)] if weak_leq(nu, g) else []
        checked += len(above)
        failed = [g2 for g2 in above if not weak_leq(voracious_projection(shadow, g2), nu)]
        if failed:
            g2 = min(failed, key=shortlex_key)  # the lower set's order is not stable
            return CheckResult("projection-monotone", False, f"radius={radius}", f"g={g} g'={g2}")
    return CheckResult("projection-monotone", True, f"radius={radius} pairs={checked}")


def check_original_projection(shadow: GarsideShadow, radius: int) -> CheckResult:
    """The wall-description projection agrees with the low-shadow one."""
    ball = shadow.system.ball(radius)
    for g in ball:
        if op_voracious_projection(g) != voracious_projection(shadow, g):
            return CheckResult("original-projection", False, f"radius={radius}", f"g={g}")
    return CheckResult("original-projection", True, f"radius={radius} elements={len(ball)}")


def check_step_bound(shadow: GarsideShadow, radius: int) -> CheckResult:
    """d(projection of g, g) <= M on the whole ball."""
    system, m = shadow.system, shadow.constant_m
    worst = max(system.word_metric(voracious_projection(shadow, g), g) for g in system.ball(radius))
    return CheckResult("step-bound", worst <= m, f"radius={radius} max-step={worst} bound={m}")


def check_low_containment(shadow: GarsideShadow) -> CheckResult:
    """Every shadow member gates its own M-Shi part (membership in L_M)."""
    m = shadow.constant_m
    for b in shadow.ordered:
        if not is_shi_gate(b, m):
            return CheckResult("low-containment", False, f"M={m}", f"member={b}")
    return CheckResult("low-containment", True, f"M={m} members={len(shadow)}")


def check_refinement_by_shi(shadow: GarsideShadow, radius: int) -> CheckResult:
    """Equal M-Shi parts force equal shadow projections on the ball.

    The partition attached to the M-low shadow is the M-Shi partition, so
    the comparison runs on sign patterns directly."""
    system = shadow.system
    m = shadow.constant_m
    small = elementary_walls(system, m).mask
    x, parts = _first_split(
        system.ball(radius), lambda x: x.mask & small, lambda x: b_projection(shadow, x)
    )
    if x is not None:
        return CheckResult("refinement-by-shi", False, f"radius={radius} M={m}", f"x={x}")
    return CheckResult("refinement-by-shi", True, f"radius={radius} M={m} parts={parts}")


# ---------------------------------------------------------------------------
# The full suite


def full_suite(shadow: GarsideShadow, radius: int) -> VerdictBundle:
    """Run every structural check against one shadow at one radius.  Condition
    one and the fellow-traveller scans share one chain table over ball(radius
    + 1), built after regularity, so that its word sets are gone by then."""
    for g in shadow.system.ball(radius):  # the step table fills in ShortLex order
        _step(shadow, g)
    regularity = cross_validate_regularity(shadow, radius)
    table = _chain_columns(shadow, shadow.system.ball(radius + 1))
    checks = [
        _condition_one(shadow, radius, table),
        regularity,
        _first_ftp(shadow, radius, table),
        _second_ftp(shadow, radius, table),
        check_projection_monotone(shadow, min(radius, 6)),
    ]
    if shadow.provenance == "low":
        checks.append(check_original_projection(shadow, radius))
    checks.append(check_step_bound(shadow, radius))
    checks.append(check_low_containment(shadow))
    checks.append(check_refinement_by_shi(shadow, radius))
    return VerdictBundle(
        system_name=shadow.system.matrix.name or "unnamed",
        shadow_provenance=shadow.provenance,
        constant_m=shadow.constant_m,
        radius=radius,
        checks=tuple(checks),
    )
