"""The three benchmark workloads.

A workload has a `setup` (timed as part of ``setup_s``), a fixed list of
operations per round, a check of one round's outputs against the models,
and a one-line description of the result sizes of each operation.
`isolate_each_op` is set where operations are long enough to be set apart
one by one: garbage is collected and the machine's speed sampled around
each, rather than once per round.  The program is reached only through its public functions and through
``garside.cli.main``, always looked up on the module at call time so that
the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from pathlib import Path

import checks
from models import model

GROUPS = ("affine-A2", "triangle-334", "A1~xA1~")


def _system(g, group: str):
    """A fresh CoxeterSystem parsed from the group's definition text."""
    return g.CoxeterSystem(g.parse_group_file(model(group).group_text))


def _random_word(rng, letters: int, length: int) -> tuple[int, ...]:
    """Uniform letters, never the same letter twice in a row."""
    word = [rng.randrange(letters)]
    while len(word) < length:
        x = rng.randrange(letters - 1)
        word.append(x if x < word[-1] else x + 1)
    return tuple(word)


class Op:
    """One operation: a label, what it runs, and what it needs to be checked."""

    def __init__(self, label: str, run, **info):
        self.label = label
        self.run = run
        self.info = info


# ---------------------------------------------------------------------------


class ShadowBuild:
    """Cold shadow builds: a fresh system, one shadow, a text round trip."""

    name = "shadow-build"
    isolate_each_op = True
    setup_repeats = 7
    SHADOWS = [(group, kind, m) for group in GROUPS
               for kind, m in (("low", None), ("gamma", None), ("m-low", 1))
               ] + [("A1~xA1~", "m-low", 2)]

    def __init__(self, seed: int, workdir):
        self.rng = random.Random(seed)

    def setup(self, g) -> None:
        self.g = g

    def release(self) -> None:
        self.g = None

    def round_ops(self, index: int) -> list[Op]:
        order = list(self.SHADOWS)
        self.rng.shuffle(order)
        return [Op(f"{group} {self.provenance(kind, m)}", self._build(group, kind, m),
                   group=group, kind=kind, m=m, provenance=self.provenance(kind, m))
                for group, kind, m in order]

    def _build(self, group, kind, m):
        def run():
            g = self.g
            system = _system(g, group)
            shadow = g.shadow_from_gates(system, kind, m)
            text = g.shadow_to_text(shadow)
            return shadow, text, g.shadow_from_text(system, text)
        return run

    @staticmethod
    def provenance(kind, m) -> str:
        return kind if m is None else f"{kind}({m})"

    def check(self, ops, outputs) -> list[list[str]]:
        words = {}
        problems = []
        for op, out in zip(ops, outputs):
            if out is None:
                problems.append([])
                continue
            group, prov = op.info["group"], op.info["provenance"]
            shadow, text, reloaded = out
            ws = [x.word for x in shadow.ordered]
            found = checks.check_shadow_text(model(group), text, prov)
            if shadow.provenance != prov or shadow.constant_m != max(map(len, ws)):
                found.append(f"provenance {shadow.provenance!r} or constant_m {shadow.constant_m} wrong")
            if checks.parse_shadow_text(model(group), text)[1] != ws:
                found.append("the saved text differs from the shadow")
            if [x.word for x in reloaded.ordered] != ws or reloaded.provenance != prov:
                found.append("the reloaded shadow differs from the saved one")
            words[(group, prov)] = ws
            problems.append(found)
        # gamma <= low <= m-low(1) <= m-low(2): the smallest shadow is inside
        # every shadow, and m-low elements are (m+1)-low
        chain = ("gamma", "low", "m-low(1)", "m-low(2)")
        for i, op in enumerate(ops):
            group, prov = op.info["group"], op.info["provenance"]
            k = chain.index(prov)
            inner = (group, chain[k - 1])
            if k and inner in words and (group, prov) in words:
                problems[i] += checks.check_nested(
                    model(group), words[inner], words[(group, prov)], f"{inner[1]} in {prov}")
        return problems

    def describe(self, op, out) -> str:
        shadow = out[0]
        system = shadow.system
        g = self.g
        roots = len(g.elementary_walls(system, op.info["m"] or 0))
        states = (f" states={g.cone_type_automaton(system).n_states}"
                  if op.info["kind"] == "gamma" else "")
        return (f"elements={len(shadow)} constant_m={shadow.constant_m} "
                f"roots={roots}{states} text_bytes={len(out[1])}")


# ---------------------------------------------------------------------------


class CliSession:
    """In-process `garside` CLI calls, as a user would chain them."""

    name = "cli-session"
    isolate_each_op = True
    setup_repeats = 7
    INPUTS = [
        ("triangle-334", "low", 7),
        ("affine-A2", "low", 8),
        ("A1~xA1~", "mlow=1", 6),
        ("triangle-334", "gamma", 6),
    ]

    def __init__(self, seed: int, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        for group in GROUPS:
            (workdir / f"{group}.txt").write_text(model(group).group_text, encoding="ascii")

    def setup(self, g) -> None:
        self.g = g

    def release(self) -> None:
        self.g = None

    def _word(self, group) -> str:
        mdl = model(group)
        return mdl.render(_random_word(self.rng, len(mdl.gens), self.rng.randint(8, 12)))

    def round_ops(self, index: int) -> list[Op]:
        rdir = self.workdir / f"round{index}"
        rdir.mkdir()
        cache = rdir / "cache"
        order = list(self.INPUTS)
        self.rng.shuffle(order)
        ops = []
        for group, kind, radius in order:
            gp = str(self.workdir / f"{group}.txt")
            base = rdir / f"{group}-{kind}"
            sp = f"{base}.shadow"
            word = self._word(group)
            info = dict(group=group, kind=kind, radius=radius, word=word, base=base,
                        provenance={"low": "low", "gamma": "gamma"}.get(kind, "m-low(1)"))
            calls = [
                ("shadow", ["shadow", "--group", gp, "--kind", kind, "--no-cache", "--out", sp]),
                ("automaton", ["automaton", "--group", gp, "--shadow", sp, "--format", "text",
                               "--no-cache", "--out", f"{base}.automaton"]),
                ("language", ["language", "--group", gp, "--shadow", sp, "--max-len", str(radius),
                              "--no-cache", "--out", f"{base}.language"]),
                ("project", ["project", "--group", gp, "--shadow", sp, "--word", word, "--no-cache"]),
                ("verify-miss", ["verify", "--group", gp, "--shadow", sp, "--radius", str(radius),
                                 "--out", f"{base}.report"]),
                ("verify-hit", ["verify", "--group", gp, "--shadow", sp, "--radius", str(radius),
                                "--out", f"{base}.report2"]),
            ]
            for command, argv in calls:
                ops.append(Op(f"{group} {kind} {command}", self._call(argv, cache),
                              command=command, **info))
        return ops

    def _call(self, argv, cache):
        def run():
            os.environ["GARSIDE_CACHE_DIR"] = str(cache)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.g.cli.main(argv)
            return code, out.getvalue()
        return run

    def check(self, ops, outputs) -> list[list[str]]:
        problems = []
        for op, out in zip(ops, outputs):
            if out is None:
                problems.append([])
                continue
            code, stdout = out
            i = op.info
            mdl = model(i["group"])
            found = [] if code == 0 else [f"exit code {code}"]
            shadow_text = self._read(op, "shadow")
            _, shadow_words = checks.parse_shadow_text(mdl, shadow_text)
            constant_m = max(len(w) for w in shadow_words)
            language = self._read(op, "language")
            cmd = i["command"]
            if cmd == "shadow":
                found += checks.check_shadow_text(mdl, shadow_text, i["provenance"])
            elif cmd == "automaton":
                found += checks.check_automaton_text(
                    mdl, self._read(op, "automaton"), shadow_words)
            elif cmd == "language":
                found += checks.check_language_text(mdl, language, i["radius"])
            elif cmd == "project":
                found += checks.check_project_output(mdl, stdout, i["word"], shadow_words, constant_m)
            else:
                report = self._read(op, "report")
                if cmd == "verify-hit":
                    if self._read(op, "report2") != report:
                        found.append("the cached report differs from the computed one")
                elif not any(i["base"].parent.glob("cache/*.txt")):
                    found.append("verify wrote nothing to the result cache")
                found += checks.check_report(
                    mdl, report, i["radius"], i["provenance"], constant_m,
                    sum(1 for ln in language.splitlines() if ln.strip()),
                    checks.language_per_element(mdl, language))
            problems.append(found)
        return problems

    def describe(self, op, out) -> str:
        cmd = op.info["command"]
        if cmd == "shadow":
            fields, _ = checks.parse_shadow_text(model(op.info["group"]), self._read(op, "shadow"))
            return f"elements={fields['elements']} constant_m={fields['constant-m']}"
        if cmd == "automaton":
            text = self._read(op, "automaton")
            return f"states={text.count('state: ')} edges={text.count('edge: ')}"
        if cmd == "language":
            return f"words={len(self._read(op, 'language').split())}"
        if cmd == "project":
            chain = [ln for ln in out[1].splitlines() if ln.startswith("chain: ")]
            return f"chain_steps={len(chain[0].split()) - 1}"
        _, found = checks.parse_report(self._read(op, "report"))
        return (f"elements={found['condition-one'][1]['elements']} "
                f"words={found['regularity'][1]['words']} "
                f"first_ftp_pairs={found['first-ftp'][1]['pairs']}")

    @staticmethod
    def _read(op, suffix: str) -> str:
        return Path(f"{op.info['base']}.{suffix}").read_text(encoding="ascii")


# ---------------------------------------------------------------------------


class WarmQuery:
    """A fixed batch of queries against one prebuilt system, shadow and
    automaton, answered again in every round.

    The first round fills the program's caches; later rounds answer from
    them.  Replaying one batch keeps the work of a round independent of how
    many rounds came before, so a faster machine or program does not also
    get warmer caches.  Outputs of later rounds must equal the first
    round's, which went through every check.
    """

    name = "warm-query"
    isolate_each_op = False
    setup_repeats = 3
    GROUP = "triangle-334"
    QUERIES = 1000
    MAX_LEN = 20

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.words = [_random_word(rng, 3, rng.randint(1, self.MAX_LEN))
                      for _ in range(self.QUERIES)]
        self.first_round: dict[str, tuple] = {}  # label -> (plain output, problems)

    def setup(self, g) -> None:
        self.g = g
        self.system = _system(g, self.GROUP)
        self.shadow = g.shadow_from_gates(self.system, "low")
        self.automaton = g.build_voracious_fsa(self.shadow)

    def release(self) -> None:
        self.g = self.system = self.shadow = self.automaton = None

    def round_ops(self, index: int) -> list[Op]:
        return [Op(f"q{k}", self._query(w), word=w) for k, w in enumerate(self.words)]

    def _query(self, word):
        def run():
            g, system, shadow = self.g, self.system, self.shadow
            element = system.element(word)
            chain = g.voracious_chain(shadow, element)
            voracious_word = min(g.language_of(shadow, element))
            return element, chain, voracious_word, g.fsa_accepts(self.automaton, voracious_word)
        return run

    @staticmethod
    def _plain(out) -> tuple:
        element, chain, word, acceptance = out
        return (element.word, [x.word for x in chain.steps], tuple(word),
                acceptance.accepted, tuple(acceptance.states))

    def check(self, ops, outputs) -> list[list[str]]:
        mdl = model(self.GROUP)
        system, shadow = self.system, self.shadow
        problems = []
        for op, out in zip(ops, outputs):
            if out is None:
                problems.append([])
                continue
            plain = self._plain(out)
            earlier = self.first_round.get(op.label)
            if earlier is not None:
                same = plain == earlier[0]
                problems.append(earlier[1] if same else ["differs from the first round's answer"])
                continue
            nf = plain[0]
            inverse = system.element(tuple(reversed(nf)))
            label = system.render_word(self.g.b_projection(shadow, inverse).word)
            found = checks.check_query(mdl, op.info["word"], *plain, label, shadow.constant_m)
            self.first_round[op.label] = (plain, found)
            problems.append(found)
        return problems

    def describe(self, op, out) -> str:
        element, chain, word, acceptance = out
        return (f"length={element.length} chain_steps={len(chain.steps) - 1} "
                f"words={len(self.g.language_of(self.shadow, element))} "
                f"state={'|'.join(acceptance.states)}")


WORKLOADS = {w.name: w for w in (ShadowBuild, CliSession, WarmQuery)}
