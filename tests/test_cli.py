import os
from pathlib import Path

import pytest

from garside import cli
from garside.cli import main

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


def test_malformed_matrix_exits_1(workspace, capsys):
    code = run("shadow", "--group", workspace / "bad.txt", "--kind", "low",
               "--out", workspace / "x.txt")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group-parse:")
    assert "m[0,1]=3" in err


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


def test_second_ftp_bound_violation_exits_3(workspace, monkeypatch):
    # a negative parallel-wall constant puts the bound below any deviation
    monkeypatch.setattr("garside.verify.parallel_wall_constant", lambda system, m: -m)
    shadow = workspace / "L.txt"
    group = workspace / "dinf.txt"
    run("shadow", "--group", group, "--kind", "low", "--out", shadow)
    report = workspace / "report.txt"
    assert run("verify", "--group", group, "--shadow", shadow,
               "--radius", "4", "--out", report) == 3
    text = report.read_text()
    assert "check: second-ftp FAIL" in text
    assert text.rstrip().endswith("result: FAIL")


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
