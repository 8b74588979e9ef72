"""Self-test of the benchmark's checks: every check must catch a fault.

    python3 bench/selftest.py

Runs one round of each workload against the program, confirms that no
operation fails, then corrupts one output at a time and confirms that the
round's judgement counts that operation as failed.  Exits 1 if a clean
operation fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import garside  # noqa: E402
import garside.cli  # noqa: E402,F401
from run import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures = 0


def _round(name: str, workdir: Path):
    workload = WORKLOADS[name](1, workdir)
    workload.setup(garside)
    ops = workload.round_ops(0)
    outputs = [op.run() for op in ops]
    found = judge(workload, ops, outputs)
    bad = [(op.label, f) for op, f in zip(ops, found) if f]
    _report(not bad, f"{name}: a clean round passes every check", bad[:2])
    return workload, ops, outputs


def _report(ok: bool, what: str, detail="") -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}{'' if ok else f'  {detail}'}")


def _expect_failed(workload, ops, outputs, index: int, what: str, first_round=True) -> None:
    if first_round:
        # judge as a first round, where every output goes through every check
        getattr(workload, "first_round", {}).clear()
    found = judge(workload, ops, outputs)[index]
    _report(bool(found), f"{workload.name}: {what} -> {ops[index].label} failed",
            "the corruption was not noticed")


def _find(ops, **info) -> int:
    return next(i for i, op in enumerate(ops) if all(op.info.get(k) == v for k, v in info.items()))


def _swap(word: tuple, at: int = 0) -> tuple:
    w = list(word)
    w[at], w[at + 1] = w[at + 1], w[at]
    return tuple(w)


def _fake_shadow(shadow, words):
    elements = [SimpleNamespace(word=w) for w in words]
    return SimpleNamespace(ordered=elements, provenance=shadow.provenance,
                           constant_m=max(len(w) for w in words))


def shadow_build(workdir: Path) -> None:
    workload, ops, outputs = _round("shadow-build", workdir)
    i = _find(ops, group="affine-A2", kind="low")
    shadow, text, reloaded = outputs[i]
    words = [x.word for x in shadow.ordered]

    fake = list(outputs)
    fake[i] = (_fake_shadow(shadow, words[:-1]), text, _fake_shadow(shadow, words[:-1]))
    _expect_failed(workload, ops, fake, i, "a shadow missing a member")

    swapped = [_swap(w) if len(w) == 3 else w for w in words]
    fake[i] = (_fake_shadow(shadow, swapped), text, _fake_shadow(shadow, swapped))
    _expect_failed(workload, ops, fake, i, "a member with two letters swapped")

    fake[i] = (shadow, text, _fake_shadow(shadow, words[:-1]))
    _expect_failed(workload, ops, fake, i, "a reload that lost a member")

    fake[i] = (shadow, text.replace("elements: 16", "elements: 15"), reloaded)
    _expect_failed(workload, ops, fake, i, "a saved shadow with a wrong element count")

    # triangle-334 has no closed form: gamma <= low must catch a lost member
    j = _find(ops, group="triangle-334", kind="low")
    shadow, text, _ = outputs[j]
    longest = [x.word for x in shadow.ordered][:-1]
    fake = list(outputs)
    fake[j] = (_fake_shadow(shadow, longest), text, _fake_shadow(shadow, longest))
    _expect_failed(workload, ops, fake, j, "a triangle-334 low shadow missing a member")


def cli_session(workdir: Path) -> None:
    workload, ops, outputs = _round("cli-session", workdir)

    def corrupt(command, suffix, edit, what, group="affine-A2"):
        i = _find(ops, group=group, command=command)
        path = Path(f"{ops[i].info['base']}.{suffix}")
        saved = path.read_text(encoding="ascii")
        path.write_text(edit(saved), encoding="ascii")
        try:
            _expect_failed(workload, ops, outputs, i, what)
        finally:
            path.write_text(saved, encoding="ascii")

    def fail_one_check(report):
        return report.replace("check: step-bound pass", "check: step-bound FAIL", 1)

    corrupt("verify-miss", "report", fail_one_check, "a report with one FAIL line")
    corrupt("verify-hit", "report2", lambda t: t.replace("radius=8", "radius=9", 1),
            "a cached report that differs from the computed one")
    corrupt("language", "language", lambda t: t.replace("-\n", "", 1),
            "a language slice without the empty word")
    corrupt("automaton", "automaton", lambda t: t.replace("labels=s\n", "labels=t\n", 1),
            "an automaton edge with a wrong label")
    corrupt("shadow", "shadow",
            lambda t: t.replace("elements: 16", "elements: 15").rsplit("\n", 2)[0] + "\n",
            "a shadow file missing a member")

    i = _find(ops, group="affine-A2", command="project")
    code, stdout = outputs[i]
    fake = list(outputs)
    fake[i] = (code, stdout.replace(" -\n", "\n"))
    _expect_failed(workload, ops, fake, i, "a chain that stops short of the identity")
    j = _find(ops, group="affine-A2", command="shadow")
    fake = list(outputs)
    fake[j] = (2, outputs[j][1])
    _expect_failed(workload, ops, fake, j, "an exit code other than 0")


def warm_query(workdir: Path) -> None:
    workload, ops, outputs = _round("warm-query", workdir)
    i = next(k for k, (g, *_rest) in enumerate(outputs)
             if g.length >= 4 and g.word[1] != g.word[2])
    element, chain, word, acceptance = outputs[i]

    fake = list(outputs)
    fake[i] = (SimpleNamespace(word=_swap(element.word, 1), length=element.length),
               chain, word, acceptance)
    _expect_failed(workload, ops, fake, i, "a normal form with two letters swapped")

    fake[i] = (element, chain, word, SimpleNamespace(accepted=False, states=()))
    _expect_failed(workload, ops, fake, i, "a voracious word the automaton rejects")

    fake[i] = (element, chain, _swap(word, len(word) - 2), acceptance)
    _expect_failed(workload, ops, fake, i, "a voracious word with two letters swapped")

    steps = chain.steps
    fake[i] = (element, SimpleNamespace(steps=steps[:1] + steps), word, acceptance)
    _expect_failed(workload, ops, fake, i, "a chain that repeats a step")

    fake[i] = (element, SimpleNamespace(steps=steps[:-1]), word, acceptance)
    _expect_failed(workload, ops, fake, i, "a chain that stops short of the identity")

    judge(workload, ops, outputs)  # a clean first round, remembered
    fake[i] = (element, chain, word, SimpleNamespace(accepted=True, states=("-",)))
    _expect_failed(workload, ops, fake, i, "a later round that answers differently",
                   first_round=False)


def main() -> int:
    for test in (shadow_build, cli_session, warm_query):
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
        try:
            test(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    sys.exit(main())
