"""A tour of the command line
=============================

The same pipeline as the library demos, driven through the CLI: define a
group file, compute a shadow, export the automaton, dump the language,
verify, and inspect one word.  Everything lands in a temporary directory,
which is removed at the end.
"""

import tempfile
from pathlib import Path

from garside.cli import main

with tempfile.TemporaryDirectory(prefix="garside-demo-") as tmp:
    workdir = Path(tmp)
    group = workdir / "dinf.txt"
    group.write_text("name: D-infinity\ngenerators: s t\nmatrix:\n1 0\n0 1\n")

    shadow = workdir / "low.txt"
    automaton = workdir / "automaton.dot"
    language = workdir / "language.txt"
    report = workdir / "report.txt"

    steps = [
        ["shadow", "--group", str(group), "--kind", "low", "--out", str(shadow)],
        ["automaton", "--group", str(group), "--shadow", str(shadow),
         "--format", "dot", "--out", str(automaton)],
        ["language", "--group", str(group), "--shadow", str(shadow),
         "--max-len", "5", "--out", str(language)],
        ["verify", "--group", str(group), "--shadow", str(shadow),
         "--radius", "6", "--out", str(report)],
        ["project", "--group", str(group), "--shadow", str(shadow), "--word", "tsts"],
    ]

    for argv in steps:
        print(f"$ garside {' '.join(argv)}")
        code = main(argv + ["--no-cache"])
        print(f"  -> exit {code}")

    print("\nlanguage slice:")
    print(language.read_text())
    print("verification verdict:", report.read_text().strip().splitlines()[-1])
