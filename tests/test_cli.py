import os
import stat
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from garside import CoxeterSystem, cli, parse_group_file, shadow_from_gates
from garside.cli import main
from garside.verify import _max_deviation, _prefix_masks

from conftest import languages

DINF = "name: D-infinity\ngenerators: s t\nmatrix:\n1 0\n0 1\n"
S3 = "name: I2(3)\ngenerators: s t\nmatrix:\n1 3\n3 1\n"
A2 = "name: affine-A2\ngenerators: s t u\nmatrix:\n1 3 3\n3 1 3\n3 3 1\n"
BAD = "generators: s t\nmatrix:\n1 3\n4 1\n"


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("GARSIDE_CACHE_DIR", str(tmp_path / "cache"))
    (tmp_path / "dinf.txt").write_text(DINF)
    (tmp_path / "s3.txt").write_text(S3)
    (tmp_path / "a2.txt").write_text(A2)
    (tmp_path / "bad.txt").write_text(BAD)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_shadow_low(workspace):
    out = workspace / "L.txt"
    assert run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", out) == 0
    text = out.read_text()
    assert "provenance: low" in text
    assert "constant-m: 1" in text
    assert text.strip().splitlines()[-3:] == ["-", "s", "t"]


def test_shadow_kinds(workspace):
    for kind in ("gamma", "mlow=1", "closure"):
        out = workspace / f"{kind}.txt"
        assert run("shadow", "--group", workspace / "s3.txt", "--kind", kind, "--out", out) == 0
    assert "elements: 6" in (workspace / "gamma.txt").read_text()
    assert "elements: 6" in (workspace / "closure.txt").read_text()


def test_shadow_closure_with_seed(workspace):
    seed = workspace / "seed.txt"
    seed.write_text("st\n")
    out = workspace / "closed.txt"
    assert run(
        "shadow", "--group", workspace / "dinf.txt", "--kind", "closure",
        "--seed", seed, "--out", out,
    ) == 0
    body = out.read_text().strip().splitlines()
    assert body[-4:] == ["-", "s", "t", "st"]


def test_shadow_closure_with_seed_that_needs_joins(workspace):
    seed = workspace / "seed.txt"
    seed.write_text("stu\n")
    out = workspace / "closed.txt"
    assert run(
        "shadow", "--group", workspace / "a2.txt", "--kind", "closure",
        "--seed", seed, "--out", out,
    ) == 0
    text = out.read_text()
    assert "elements: 28" in text and "\nstu\n" in text


@pytest.mark.parametrize("group, cutoff, code", [
    # the join scan reads the low elements: I2(3) has one of length 3, and
    # the 16 of affine-A2 are at most 4 long
    ("s3.txt", 2, 2),
    ("a2.txt", 4, 0),
])
def test_closure_cutoff_bounds_the_scanned_length(workspace, capsys, group, cutoff, code):
    out = workspace / "closed.txt"
    assert run("shadow", "--group", workspace / group, "--kind", "closure",
               "--cutoff", cutoff, "--out", out) == code
    if code:
        assert capsys.readouterr().err.startswith("error: cutoff-exceeded:")
        assert not out.exists()
    else:
        assert "elements: 16" in out.read_text()


def test_negative_cutoff_is_an_argument_error(workspace, capsys, monkeypatch):
    # checked before any work, as a negative --radius or --max-len is
    monkeypatch.setattr(cli, "garside_closure", lambda *args: pytest.fail("closure built"))
    out = workspace / "closed.txt"
    assert run("shadow", "--group", workspace / "a2.txt", "--kind", "closure",
               "--cutoff", "-1", "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: bad-radius:")
    assert not out.exists()


def test_mlow0_is_the_low_shadow(workspace):
    # the 0-low elements are the low ones: one shadow, with provenance low,
    # so verify runs the low shadow's original-projection check on it too
    texts = []
    for kind in ("low", "mlow=0"):
        shadow, report = workspace / f"{kind}.txt", workspace / f"{kind}.report"
        assert run("shadow", "--group", workspace / "a2.txt", "--kind", kind, "--out", shadow) == 0
        assert run("verify", "--group", workspace / "a2.txt", "--shadow", shadow,
                   "--radius", "5", "--out", report) == 0
        texts.append((shadow.read_text(), report.read_text()))
    assert texts[0] == texts[1]
    assert "provenance: low" in texts[1][0]
    assert "check: original-projection pass" in texts[1][1]
    system = CoxeterSystem(parse_group_file(A2))
    assert shadow_from_gates(system, "m-low", 0) is shadow_from_gates(system, "low")


def test_negative_m_is_a_bad_kind(workspace, capsys):
    code = run("shadow", "--group", workspace / "a2.txt", "--kind", "mlow=-1",
               "--out", workspace / "x.txt")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad-kind:")


def test_negative_radius_exits_1(workspace, capsys):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "a2.txt", "--kind", "low", "--out", shadow)
    capsys.readouterr()
    for command, flag, value in (("verify", "--radius", "-1"), ("language", "--max-len", "-3")):
        out = workspace / f"{command}.txt"
        code = run(command, "--group", workspace / "a2.txt", "--shadow", shadow,
                   flag, value, "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad-radius:")
        assert not out.exists()


def test_python_m_garside_runs_the_cli(workspace):
    # the package runs as a module, with main's exit code, without installing it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "garside", "verify", "--group", str(workspace / "a2.txt"),
         "--shadow", str(workspace / "L.txt"), "--radius", "-1", "--out", str(workspace / "r.txt")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: bad-radius:")
    assert not (workspace / "r.txt").exists()


@pytest.mark.parametrize("argv, message", [
    (("verify", "--group", "g", "--shadow", "b", "--radius", "x", "--out", "o"),
     "argument --radius: invalid int value: 'x'"),
    (("verify", "--group", "g", "--shadow", "b", "--out", "o"),
     "the following arguments are required: --radius"),
    (("frob",), "argument command: invalid choice: 'frob'"),
])
def test_a_usage_error_exits_1(workspace, argv, message, capsys):
    # argument errors share exit 1 with I/O and parse errors; argparse's 2 is
    # reserved here for shadow validation
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: usage: {message}")
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    for argv in (("--help",), ("verify", "--help")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert "usage: garside" in capsys.readouterr().out


def test_malformed_matrix_exits_1(workspace, capsys):
    code = run("shadow", "--group", workspace / "bad.txt", "--kind", "low",
               "--out", workspace / "x.txt")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:")
    assert "m[0,1]=3" in err


def test_repeated_generators_line_exits_1(workspace, capsys):
    group = workspace / "twice.txt"
    group.write_text("generators: s t\ngenerators: a b c\nmatrix:\n1 3 3\n3 1 3\n3 3 1\n")
    out = workspace / "x.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:") and "line 2" in err and "line 1" in err
    assert not out.exists()


def test_generator_named_like_the_identity_exits_1(workspace, capsys):
    # '-' writes the identity in shadow files, so such a shadow could not be read back
    group = workspace / "dash.txt"
    group.write_text("generators: - t\nmatrix:\n1 3\n3 1\n")
    out = workspace / "x.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:") and "line 1" in err and "'-'" in err
    assert not out.exists()


def test_generator_name_with_a_comma_exits_1(workspace, capsys):
    # 'generators: s, t' would name a generator 's,', and the automaton file
    # would write 'labels=s, t s,,t s, t', which cannot be read back
    group = workspace / "comma.txt"
    group.write_text("generators: s, t\nmatrix:\n1 3\n3 1\n")
    out = workspace / "x.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:") and "line 1" in err and "'s,'" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ['x"', "x\\"])
def test_generator_name_with_a_quote_or_backslash_exits_1(workspace, name, capsys):
    # the dot export writes names inside '"' quotes, so a generator 'x"'
    # would write 'label="x""', which is not DOT
    group = workspace / "quote.txt"
    group.write_text(f"generators: {name} t\nmatrix:\n1 3\n3 1\n")
    out = workspace / "A.dot"
    assert run("automaton", "--group", group, "--shadow", workspace / "L.txt",
               "--format", "dot", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:") and "line 1" in err and repr(name) in err
    assert not out.exists()


@pytest.mark.parametrize("kind, code, prefix", [
    ("group", 1, "group-parse"),
    ("shadow", 2, "shadow-invalid"),
    ("seed", 1, "bad-word"),
])
def test_non_utf8_input_file_exits_typed(workspace, kind, code, prefix, capsys):
    group, shadow, seed = workspace / "s3.txt", workspace / "L.txt", workspace / "seed.txt"
    run("shadow", "--group", group, "--kind", "low", "--out", shadow)
    seed.write_text("st\n")
    {"group": group, "shadow": shadow, "seed": seed}[kind].write_bytes(b"st\xff\n")
    capsys.readouterr()
    if kind == "shadow":
        argv = ("project", "--group", group, "--shadow", shadow, "--word", "st")
    else:
        argv = ("shadow", "--group", group, "--kind", "closure", "--seed", seed,
                "--out", workspace / "x.txt")
    assert run(*argv) == code
    assert capsys.readouterr().err.startswith(f"error: {prefix}:")


def test_undecodable_cache_entry_is_a_miss(workspace):
    group, first, again = workspace / "s3.txt", workspace / "a.txt", workspace / "b.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", first) == 0
    (entry,) = Path(os.environ["GARSIDE_CACHE_DIR"]).glob("*.txt")
    entry.write_bytes(b"\xff")
    assert run("shadow", "--group", group, "--kind", "low", "--out", again) == 0
    assert again.read_bytes() == first.read_bytes() == entry.read_bytes()


def test_unwritable_out_exits_1_and_leaves_no_temp_file(workspace, capsys):
    target = workspace / "taken"
    target.mkdir()
    code = run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", target)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")
    assert not list(workspace.rglob("*.tmp"))


def test_out_into_a_missing_directory_exits_1_and_makes_none(workspace, capsys):
    # as the shell's `>` would
    missing = workspace / "no" / "such"
    code = run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", missing / "x")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")
    assert not (workspace / "no").exists()


def test_a_missing_cache_directory_is_made(workspace, monkeypatch):
    cache = workspace / "deep" / "cache"
    monkeypatch.setenv("GARSIDE_CACHE_DIR", str(cache))
    out = workspace / "L.txt"
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", out) == 0
    assert len(list(cache.glob("*.txt"))) == 1


def _low_shadow_text(workspace):
    plain = workspace / "plain.txt"
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", plain) == 0
    return plain.read_text()


def test_out_writes_through_a_symlink(workspace):
    real, link = workspace / "real.txt", workspace / "link"
    real.write_text("old\n")
    link.symlink_to(real)
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", link) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == _low_shadow_text(workspace)
    # a dangling link makes the file it names
    real.unlink()
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", link) == 0
    assert link.is_symlink() and real.read_text() == _low_shadow_text(workspace)
    assert not list(workspace.rglob("*.tmp"))


def test_out_writes_into_a_fifo(workspace):
    fifo = workspace / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", fifo) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [_low_shadow_text(workspace)]


def test_new_out_file_gets_the_umask_mode(workspace):
    out = workspace / "new.txt"
    old = os.umask(0o027)
    try:
        assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", out) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_replaced_out_file_keeps_its_mode(workspace):
    out = workspace / "kept.txt"
    out.write_text("old\n")
    out.chmod(0o604)
    assert run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert out.read_text() == _low_shadow_text(workspace)


def test_automaton_export(workspace):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", shadow)
    dot = workspace / "aut.dot"
    assert run("automaton", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--format", "dot", "--out", dot) == 0
    content = dot.read_text()
    assert content.count("doublecircle") == 3
    assert content.count('" -> ') == 0  # sanity: labels quoted
    assert sum(1 for line in content.splitlines() if "->" in line and "__start" not in line) == 4
    text = workspace / "aut.txt"
    assert run("automaton", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--format", "text", "--out", text) == 0
    assert "states: 3" in text.read_text()


def test_automaton_rejects_mismatched_group(workspace):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", shadow)
    code = run("automaton", "--group", workspace / "s3.txt", "--shadow", shadow,
               "--format", "dot", "--out", workspace / "x.dot")
    assert code == 2


def test_corrupted_shadow_exits_2(workspace):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", shadow)
    text = shadow.read_text()
    corrupted = text.replace("elements: 6", "elements: 5").replace("\nsts", "")
    shadow.write_text(corrupted)
    code = run("language", "--group", workspace / "s3.txt", "--shadow", shadow,
               "--max-len", "3", "--out", workspace / "x.txt")
    assert code == 2


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("elements: 6", "elements: many"),
    lambda t: t.replace("constant-m: 3", "constant-m: x4"),
    lambda t: t.replace("elements: 6", "elements: 7") + "sts\n",
    lambda t: t.replace("\nsts", "\nstx"),
    lambda t: t.replace("provenance: low", "provenance: low\nprovenance: gamma"),
])
def test_malformed_count_or_repeated_line_exits_2(workspace, edit, capsys):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "s3.txt", "--kind", "low", "--out", shadow)
    shadow.write_text(edit(shadow.read_text()))
    code = run("verify", "--group", workspace / "s3.txt", "--shadow", shadow,
               "--radius", "2", "--out", workspace / "x.txt")
    assert code == 2
    assert "shadow-invalid" in capsys.readouterr().err


def test_language_slice(workspace):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", shadow)
    out = workspace / "lang.txt"
    assert run("language", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--max-len", "3", "--out", out) == 0
    assert out.read_text().splitlines() == ["-", "s", "t", "st", "ts", "sts", "tst"]
    zero = workspace / "lang0.txt"
    run("language", "--group", workspace / "dinf.txt", "--shadow", shadow,
        "--max-len", "0", "--out", zero)
    assert zero.read_text() == "-\n"


def test_full_group_language_line_count(workspace):
    shadow = workspace / "W.txt"
    run("shadow", "--group", workspace / "s3.txt", "--kind", "closure", "--out", shadow)
    out = workspace / "lang.txt"
    assert run("language", "--group", workspace / "s3.txt", "--shadow", shadow,
               "--max-len", "3", "--out", out) == 0
    lines = out.read_text().splitlines()
    # every element once, plus a second word for the longest element
    assert len(lines) == 7
    assert "sts" in lines and "tst" in lines


@pytest.mark.parametrize("command, flag", [("language", "--max-len"), ("verify", "--radius")])
def test_a_radius_past_a_finite_group_runs(workspace, command, flag):
    # the ball stops at the group's longest element
    group, shadow = workspace / "s3.txt", workspace / "L.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", shadow) == 0
    outs = [workspace / f"{radius}.txt" for radius in (3, 1000000)]
    for radius, out in zip((3, 1000000), outs):
        assert run(command, "--group", group, "--shadow", shadow, flag, radius, "--out", out) == 0
    if command == "language":
        assert outs[1].read_text() == outs[0].read_text()
    else:
        assert "radius: 1000000\n" in outs[1].read_text()


def test_verify_passes(workspace):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", shadow)
    report = workspace / "report.txt"
    assert run("verify", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--radius", "6", "--out", report) == 0
    assert report.read_text().rstrip().endswith("result: pass")


def test_verify_affine_gamma(workspace):
    shadow = workspace / "G.txt"
    run("shadow", "--group", workspace / "a2.txt", "--kind", "gamma", "--out", shadow)
    report = workspace / "report.txt"
    assert run("verify", "--group", workspace / "a2.txt", "--shadow", shadow,
               "--radius", "7", "--out", report) == 0


def test_verify_affine_mlow1_passes_without_a_plateau(workspace):
    # the second deviation still grows from radius 6 to 7 here; the proven
    # bound holds, and it alone decides the verdict
    shadow = workspace / "M1.txt"
    run("shadow", "--group", workspace / "a2.txt", "--kind", "mlow=1", "--out", shadow)
    report = workspace / "report.txt"
    assert run("verify", "--group", workspace / "a2.txt", "--shadow", shadow,
               "--radius", "6", "--out", report) == 0
    text = report.read_text()
    assert "plateau=False" in text
    assert text.rstrip().endswith("result: pass")


def _first_pair_scan_witness(system, shadow, max_len):
    """The second check's witness straight from the pair scan: the first
    (v, v', s, i) reaching the largest deviation, in scan order."""
    by_element = languages(shadow, max_len)
    prefixes = partial(_prefix_masks, system)
    best, witness = 0, None
    for g, words in by_element.items():
        for s in system.gens:
            words2 = by_element.get(system.multiply(s, g))
            if words2 is not None:
                path = lambda v: prefixes(s.word + v)[1:]
                d, at = _max_deviation(words, words2, path, prefixes)
                if d > best:
                    best, witness = d, (*at, s)
    v, v2, i, s = witness
    return f"v={system.render_word(v)} v'={system.render_word(v2)} s={s} i={i}"


def test_second_ftp_bound_violation_exits_3(workspace, monkeypatch):
    # a negative parallel-wall constant puts the bound below any deviation
    monkeypatch.setattr("garside.verify.parallel_wall_constant", lambda system, m: -m)
    for group in (workspace / "dinf.txt", workspace / "a2.txt"):
        shadow = workspace / "L.txt"
        run("shadow", "--group", group, "--kind", "low", "--out", shadow)
        report = workspace / "report.txt"
        assert run("verify", "--group", group, "--shadow", shadow,
                   "--radius", "4", "--out", report) == 3
        text = report.read_text()
        assert "check: second-ftp FAIL" in text
        assert text.rstrip().endswith("result: FAIL")
        # the FAIL line names the pair scan's first witness of the maximum
        system = CoxeterSystem(parse_group_file(group.read_text()))
        expected = _first_pair_scan_witness(system, shadow_from_gates(system, "low"), 5)
        line = next(x for x in text.splitlines() if x.startswith("check: second-ftp"))
        assert line.endswith(f" witness={expected}"), (line, expected)


def test_root_limit_exits_2(workspace, monkeypatch, capsys):
    # the small-root walk of affine-A2 for m=2 meets 18 walls; below that
    # limit the shadow is not built, and the CLI says why
    monkeypatch.setattr("garside.shi._MAX_ROOTS", 10)
    out = workspace / "x.txt"
    assert run("shadow", "--group", workspace / "a2.txt", "--kind", "mlow=2",
               "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: root-limit: the small-root walk for m=2")
    assert not out.exists()


def test_project(workspace, capsys):
    shadow = workspace / "L.txt"
    run("shadow", "--group", workspace / "dinf.txt", "--kind", "low", "--out", shadow)
    assert run("project", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--word", "stst") == 0
    out = capsys.readouterr().out
    assert "pi: s" in out
    assert "nu: sts" in out
    assert "chain: stst sts st s -" in out
    # a word that normalizes to the identity
    run("project", "--group", workspace / "dinf.txt", "--shadow", shadow, "--word", "ss")
    out = capsys.readouterr().out
    assert "element: -" in out and "chain: -" in out
    # unknown letter
    assert run("project", "--group", workspace / "dinf.txt", "--shadow", shadow,
               "--word", "sxt") == 1


def test_project_chain_with_multi_letter_names(workspace, capsys):
    # steps of multi-letter names render with spaces, so " | " separates them
    group = workspace / "x123.txt"
    group.write_text("generators: x1 x2 x3\nmatrix:\n1 3 0\n3 1 4\n0 4 1\n")
    shadow = workspace / "L.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--out", shadow) == 0
    assert run("project", "--group", group, "--shadow", shadow,
               "--word", "x1 x2 x3 x1 x3 x2") == 0
    out = capsys.readouterr().out
    assert "element: x1 x2 x3 x1 x3 x2\n" in out
    assert "chain: x1 x2 x3 x1 x3 x2 | x1 x2 x3 x1 | x1 x2 x3 | x1 | -\n" in out


def test_determinism_and_cache_transparency(workspace):
    shadow = workspace / "L.txt"
    group = workspace / "dinf.txt"
    run("shadow", "--group", group, "--kind", "low", "--out", shadow)
    a, b, c = (workspace / n for n in ("a.txt", "b.txt", "c.txt"))
    run("automaton", "--group", group, "--shadow", shadow, "--format", "text", "--out", a)
    # second run hits the cache
    run("automaton", "--group", group, "--shadow", shadow, "--format", "text", "--out", b)
    # third run bypasses it
    run("automaton", "--group", group, "--shadow", shadow, "--format", "text",
        "--out", c, "--no-cache")
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    cache_files = list(Path(os.environ["GARSIDE_CACHE_DIR"]).glob("*.txt"))
    assert cache_files  # something was cached


def test_verify_failure_exit_code(workspace, monkeypatch):
    # an artificially assembled shadow file that validates as a shadow but
    # belongs to another group is the mismatch path (exit 2); a genuinely
    # failing check is hard to produce honestly, so exercise exit 3 via a
    # doctored report through the cache.
    shadow = workspace / "L.txt"
    group = workspace / "dinf.txt"
    run("shadow", "--group", group, "--kind", "low", "--out", shadow)
    report = workspace / "report.txt"
    assert run("verify", "--group", group, "--shadow", shadow,
               "--radius", "4", "--out", report) == 0
    # poison the cache entry for this exact query and re-run: the doctored
    # failing payload must surface exit code 3
    cache_dir = Path(os.environ["GARSIDE_CACHE_DIR"])
    entries = sorted(cache_dir.glob("*.txt"), key=lambda p: p.stat().st_mtime)
    target = entries[-1]
    target.write_text(report.read_text().replace("result: pass", "result: FAIL"))
    assert run("verify", "--group", group, "--shadow", shadow,
               "--radius", "4", "--out", report) == 3


def test_cached_results_are_keyed_on_the_code(workspace, monkeypatch):
    shadow = workspace / "L.txt"
    group = workspace / "dinf.txt"
    run("shadow", "--group", group, "--kind", "low", "--out", shadow)
    report = workspace / "report.txt"
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4", "--out", report)
    assert run(*verify) == 0
    cache_dir = Path(os.environ["GARSIDE_CACHE_DIR"])
    target = max(cache_dir.glob("*.txt"), key=lambda p: p.stat().st_mtime)
    target.write_text(report.read_text().replace("result: pass", "result: FAIL"))
    assert run(*verify) == 3  # same code: the cached payload is served
    monkeypatch.setattr(cli, "_code_fingerprint", lambda: "changed code")
    assert run(*verify) == 0  # changed code: a miss, so the suite runs again
    assert report.read_text().rstrip().endswith("result: pass")


# ---------------------------------------------------------------------------
# One parser per process, cache lookups before the shadow is parsed, and
# cache stores that cannot fail a command


def _dinf_low_shadow(workspace):
    group, shadow = workspace / "dinf.txt", workspace / "L.txt"
    assert run("shadow", "--group", group, "--kind", "low", "--no-cache", "--out", shadow) == 0
    return group, shadow


def test_successive_calls_share_one_parser_but_not_its_flags(workspace, monkeypatch):
    group, shadow = _dinf_low_shadow(workspace)
    parser = cli.build_parser()
    calls = []
    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv) or parse(argv))
    automaton = ("automaton", "--group", group, "--shadow", shadow, "--out", workspace / "a.txt")
    assert run(*automaton, "--no-cache") == 0
    assert not Path(os.environ["GARSIDE_CACHE_DIR"]).exists()
    assert run(*automaton) == 0  # no --no-cache carried over: the result is stored
    assert len(list(Path(os.environ["GARSIDE_CACHE_DIR"]).glob("*.txt"))) == 1
    assert len(calls) == 2 and cli.build_parser() is parser


def test_a_failed_parse_leaves_the_next_call_unharmed(workspace, capsys):
    group, shadow = _dinf_low_shadow(workspace)
    assert run("verify", "--group", group, "--radius", "x") == 1
    capsys.readouterr()
    assert run("verify", "--group", group, "--shadow", shadow, "--radius", "3",
               "--out", workspace / "r.txt") == 0


def test_a_command_replaced_after_the_first_call_is_the_one_called(workspace, monkeypatch):
    group, shadow = _dinf_low_shadow(workspace)
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "3",
              "--out", workspace / "r.txt")
    assert run(*verify) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.radius) or 7)
    assert run(*verify) == 7 and seen == [3]


def test_a_cache_hit_does_not_parse_the_shadow(workspace, monkeypatch):
    group, shadow = _dinf_low_shadow(workspace)
    first, again = workspace / "r1.txt", workspace / "r2.txt"
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4", "--out")
    assert run(*verify, first) == 0

    def no_parse(system, text):
        raise AssertionError("shadow parsed on a cache hit")

    monkeypatch.setattr(cli, "shadow_from_text", no_parse)
    assert run(*verify, again) == 0
    assert again.read_bytes() == first.read_bytes()


def test_a_changed_shadow_text_is_a_miss(workspace, monkeypatch):
    group, shadow = _dinf_low_shadow(workspace)
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4",
              "--out", workspace / "r.txt")
    assert run(*verify) == 0
    parsed = []
    parse = cli.shadow_from_text
    monkeypatch.setattr(cli, "shadow_from_text",
                        lambda system, text: parsed.append(text) or parse(system, text))
    shadow.write_text(shadow.read_text() + "# the same shadow, another text\n")
    assert run(*verify) == 0
    assert parsed == [shadow.read_text()]


@pytest.mark.parametrize("cache_flag", [(), ("--no-cache",)])
def test_an_invalid_shadow_exits_2_with_the_cache_on_or_off(workspace, capsys, cache_flag):
    group, shadow = _dinf_low_shadow(workspace)
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4",
              "--out", workspace / "r.txt", *cache_flag)
    assert run(*verify) == 0
    shadow.write_text(shadow.read_text().replace("\nt\n", "\nst\n"))
    capsys.readouterr()
    assert run(*verify) == 2
    assert capsys.readouterr().err.startswith("error: shadow-invalid:")
    assert run(*verify) == 2  # nothing was stored for the invalid text


def test_a_cache_dir_that_is_a_file_warns_and_the_command_succeeds(workspace, monkeypatch, capsys):
    group, shadow = _dinf_low_shadow(workspace)
    blocked = workspace / "not-a-dir"
    blocked.write_text("")
    monkeypatch.setenv("GARSIDE_CACHE_DIR", str(blocked))
    report, words = workspace / "r.txt", workspace / "w.txt"
    capsys.readouterr()
    assert run("verify", "--group", group, "--shadow", shadow, "--radius", "4",
               "--out", report) == 0
    assert report.read_text().rstrip().endswith("result: pass")
    assert run("language", "--group", group, "--shadow", shadow, "--max-len", "3",
               "--out", words) == 0
    assert words.read_text().splitlines()[:3] == ["-", "s", "t"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(ln.startswith("warning: cache: ") for ln in lines)


def test_a_cache_entry_that_is_a_directory_warns_and_is_left_alone(workspace, capsys):
    group, shadow = _dinf_low_shadow(workspace)
    report = workspace / "r.txt"
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4", "--out", report)
    assert run(*verify) == 0
    (entry,) = Path(os.environ["GARSIDE_CACHE_DIR"]).glob("*.txt")
    expected = report.read_bytes()
    entry.unlink()
    entry.mkdir()
    report.unlink()
    capsys.readouterr()
    assert run(*verify) == 0
    assert report.read_bytes() == expected
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"warning: cache: cannot write {entry}:")
    assert entry.is_dir() and not list(workspace.rglob("*.tmp"))


@pytest.mark.parametrize("method", ["is_file", "read_text"])
def test_an_unreadable_cache_entry_warns_and_is_a_miss(workspace, monkeypatch, capsys, method):
    # as an entry, or the cache directory, without read permission meets a
    # user who is not root: the command recomputes, writes --out and exits 0
    group, shadow = _dinf_low_shadow(workspace)
    report = workspace / "r.txt"
    verify = ("verify", "--group", group, "--shadow", shadow, "--radius", "4", "--out", report)
    assert run(*verify) == 0
    (entry,) = Path(os.environ["GARSIDE_CACHE_DIR"]).glob("*.txt")
    expected = report.read_bytes()
    report.unlink()
    original, suite, computed = getattr(Path, method), cli.full_suite, []

    def denied(self, *args, **kwargs):
        if self == entry:
            raise PermissionError(13, "Permission denied", str(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, denied)
    monkeypatch.setattr(cli, "full_suite", lambda *a: computed.append(a) or suite(*a))
    capsys.readouterr()
    assert run(*verify) == 0
    assert report.read_bytes() == expected and len(computed) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"warning: cache: cannot read {entry}: [Errno 13] Permission denied: '{entry}'"


# ---------------------------------------------------------------------------
# Cache keys that see the group's name, and a provenance that is checked


def test_a_renamed_group_is_a_cache_miss(workspace):
    # the report prints the group's name, so two groups that differ only in
    # their name must not share a cached report
    first, second = workspace / "first.txt", workspace / "second.txt"
    first.write_text(DINF.replace("D-infinity", "first"))
    second.write_text(DINF.replace("D-infinity", "second"))
    shadow = workspace / "L.txt"
    assert run("shadow", "--group", first, "--kind", "low", "--out", shadow) == 0
    reports = {}
    for group in (first, second):
        for flag in ((), ("--no-cache",)):
            out = workspace / f"{group.stem}{len(flag)}.txt"
            assert run("verify", "--group", group, "--shadow", shadow,
                       "--radius", "3", "--out", out, *flag) == 0
            reports[group.stem, bool(flag)] = out.read_text()
    assert "system: second\n" in reports["second", False]
    for name in ("first", "second"):
        assert reports[name, False] == reports[name, True]


@pytest.mark.parametrize("cache_flag", [(), ("--no-cache",)])
def test_a_low_provenance_must_list_the_low_elements(workspace, capsys, cache_flag):
    # verify runs original-projection on the word of the provenance line, so
    # an m-low(1) shadow relabelled low is rejected, not failed
    group = workspace / "a2.txt"
    m_low, gamma = workspace / "M1.txt", workspace / "G.txt"
    assert run("shadow", "--group", group, "--kind", "mlow=1", "--out", m_low) == 0
    assert run("shadow", "--group", group, "--kind", "gamma", "--out", gamma) == 0
    m_low.write_text(m_low.read_text().replace("provenance: m-low(1)", "provenance: low"))
    capsys.readouterr()
    assert run("verify", "--group", group, "--shadow", m_low, "--radius", "4",
               "--out", workspace / "r.txt", *cache_flag) == 2
    assert capsys.readouterr().err.startswith("error: shadow-invalid: provenance low")
    # on affine-A2 the cone-type gates are the low elements, so the same
    # members stay valid under the low provenance
    gamma.write_text(gamma.read_text().replace("provenance: gamma", "provenance: low"))
    report = workspace / "g.txt"
    assert run("verify", "--group", group, "--shadow", gamma, "--radius", "4",
               "--out", report, *cache_flag) == 0
    assert "check: original-projection pass radius=4" in report.read_text()
