"""Command-line front end.

Subcommands: ``shadow`` (compute and serialize a Garside shadow),
``automaton`` (export the voracious-language automaton), ``language``
(dump a slice of the voracious language), ``verify`` (run the ball
verification suite), ``project`` (inspect projections of one word).

All outputs are deterministic; the file-producing commands go through a
content-addressed cache keyed by the group (name included), the computation
kind, its parameters and the code (directory from GARSIDE_CACHE_DIR, default
~/.cache/garside; ``--no-cache`` bypasses it).  A shadow file is keyed by
the hash of its text and parsed only on a miss; only a text that validated
is stored.  A cache entry that cannot be written gives a warning, not an
error.  Exit codes: 0 success, 1 I/O, parse or argument errors, 2 shadow
validation, group mismatch or an exceeded size limit, 3 failed
verification checks.  `main` builds its parser once per process and
picks the ``cmd_*`` function at each call.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

from . import __version__
from .coxeter import (
    CoxeterSystem,
    GroupFileError,
    UnsupportedLabelError,
    format_group_file,
    parse_group_file,
)
from .shadows import (
    CutoffExceeded,
    ShadowFileError,
    garside_closure,
    shadow_from_gates,
    shadow_from_text,
    shadow_to_text,
    b_projection,
)
from .shi import RootLimitExceeded
from .verify import full_suite
from .voracious import (
    build_voracious_fsa,
    enumerate_language,
    voracious_chain,
    voracious_projection,
)

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFY_FAILED = 3


class CliError(Exception):
    def __init__(self, code: int, prefix: str, message: str):
        super().__init__(message)
        self.code = code
        self.prefix = prefix


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an argument error (exit 1), not by exiting 2."""

    def error(self, message):
        raise CliError(EXIT_IO, "usage", message)


def _cache_dir() -> Path:
    return Path(os.environ.get("GARSIDE_CACHE_DIR") or Path.home() / ".cache" / "garside")


@functools.cache
def _code_fingerprint() -> str:
    """Package version and a hash of the package sources, once per process."""
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return f"{__version__}:{digest.hexdigest()}"


def _cache_key(*parts: str) -> str:
    """Key of a cached result: the format, the code that made it, the inputs."""
    head = (FORMAT_VERSION, _code_fingerprint())
    return sha256("\x1f".join(head + parts).encode("utf-8")).hexdigest()


def _cache_get(key: str) -> str | None:
    """A cached result, or None; an entry that is not UTF-8 text is a miss."""
    path = _cache_dir() / f"{key}.txt"
    try:
        return path.read_text(encoding="utf-8") if path.is_file() else None
    except UnicodeDecodeError:
        return None


def _cache_put(key: str, payload: str) -> None:
    """Store a result; a store that fails warns and does not fail the command."""
    path = _cache_dir() / f"{key}.txt"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _replace(path, payload, 0o666 & ~_umask())
    except OSError as exc:
        print(f"warning: cache: cannot write {path}: {exc}", file=sys.stderr)


def _umask() -> int:
    """The process's umask, which `os.umask` reads only by setting it."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _replace(target: Path, payload: str, mode: int) -> None:
    """Write a file whole or not at all: a temporary file beside it, with
    the given permission bits, renamed over it."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_out(path: str | Path, payload: str) -> None:
    """Write an output file whole or not at all, through `_replace`.

    A symlink is followed, and the file it names is written.  A target that
    exists and is not a regular file (a FIFO, a device) is written straight
    into.  A replaced file keeps its mode; a new one gets 0o666 less the
    umask, as `open` would give it."""
    target = Path(path)
    try:
        if target.is_symlink():
            target = Path(os.path.realpath(target))
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG | (0o666 & ~_umask())
        if not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
            return
        _replace(target, payload, stat.S_IMODE(mode))
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"cannot write {target}: {exc}") from exc


def _read_input(path: str, what: str, code: int, prefix: str) -> str:
    """An input file's text; one that is not UTF-8 ends as malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"cannot read {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(code, prefix, f"{what} file is not UTF-8: {exc}") from exc


def _load_system(group_path: str) -> CoxeterSystem:
    text = _read_input(group_path, "group", EXIT_IO, "group-parse")
    try:
        return CoxeterSystem(parse_group_file(text))
    except GroupFileError as exc:
        raise CliError(EXIT_IO, "group-parse", str(exc)) from exc
    except UnsupportedLabelError as exc:
        raise CliError(EXIT_IO, "unsupported-label", str(exc)) from exc


def _read_shadow(shadow_path: str) -> tuple[str, str]:
    """A shadow file's text, and its hash for cache keys."""
    text = _read_input(shadow_path, "shadow", EXIT_VALIDATION, "shadow-invalid")
    return text, sha256(text.encode()).hexdigest()


def _parse_shadow(system: CoxeterSystem, text: str):
    """The shadow of a file's text, parsed and revalidated."""
    try:
        return shadow_from_text(system, text)
    except ShadowFileError as exc:
        raise CliError(EXIT_VALIDATION, "shadow-invalid", str(exc)) from exc


def _check_radius(flag: str, value: int) -> None:
    if value < 0:
        raise CliError(EXIT_IO, "bad-radius", f"{flag} must be >= 0, got {value}")


def _produce(args, system: CoxeterSystem, parts: tuple[str, ...], compute) -> str:
    """Cache-aware computation of a text artifact, keyed by the group (its
    name too, which reports print) and its parts."""
    group = sha256(format_group_file(system.matrix).encode("utf-8")).hexdigest()
    key = _cache_key(group, *parts)
    if not args.no_cache:
        hit = _cache_get(key)
        if hit is not None:
            return hit
    payload = compute()
    if not args.no_cache:
        _cache_put(key, payload)
    return payload


# ---------------------------------------------------------------------------
# Subcommands


def cmd_shadow(args) -> int:
    _check_radius("--cutoff", args.cutoff)
    system = _load_system(args.group)
    kind = args.kind
    if kind.startswith("mlow="):
        try:
            m = int(kind.split("=", 1)[1])
        except ValueError:
            m = -1
        if m < 0:
            raise CliError(EXIT_IO, "bad-kind", f"bad m in {kind!r}")
        kind_key, builder = f"mlow={m}", lambda: shadow_from_gates(system, "m-low", m)
    elif kind in ("low", "gamma"):
        kind_key, builder = kind, lambda: shadow_from_gates(system, kind)
    elif kind == "closure":
        seed_words = []
        seed_text = ""
        if args.seed:
            seed_text = _read_input(args.seed, "seed", EXIT_IO, "bad-word")
            for line in seed_text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    seed_words.append(line)
        try:
            seed = [system.element(w) for w in seed_words]
        except ValueError as exc:
            raise CliError(EXIT_IO, "bad-word", str(exc)) from exc
        kind_key = f"closure:{sha256(seed_text.encode()).hexdigest()}:{args.cutoff}"
        builder = lambda: garside_closure(system, seed, args.cutoff)
    else:
        raise CliError(
            EXIT_IO, "bad-kind", f"kind must be low, mlow=M, gamma or closure, not {kind!r}"
        )

    def compute() -> str:
        try:
            return shadow_to_text(builder())
        except CutoffExceeded as exc:
            raise CliError(EXIT_VALIDATION, "cutoff-exceeded", str(exc)) from exc
        except ValueError as exc:
            raise CliError(EXIT_VALIDATION, "shadow-invalid", str(exc)) from exc

    _write_out(args.out, _produce(args, system, ("shadow", kind_key), compute))
    return EXIT_OK


def cmd_automaton(args) -> int:
    if args.format not in ("dot", "text"):
        raise CliError(EXIT_IO, "bad-format", f"format must be dot or text, not {args.format!r}")
    system = _load_system(args.group)
    text, shadow_hash = _read_shadow(args.shadow)

    def compute() -> str:
        aut = build_voracious_fsa(_parse_shadow(system, text))
        return aut.to_dot() if args.format == "dot" else aut.to_text()

    parts = ("automaton", shadow_hash, args.format)
    _write_out(args.out, _produce(args, system, parts, compute))
    return EXIT_OK


def cmd_language(args) -> int:
    _check_radius("--max-len", args.max_len)
    system = _load_system(args.group)
    text, shadow_hash = _read_shadow(args.shadow)

    def compute() -> str:
        slice_ = enumerate_language(_parse_shadow(system, text), args.max_len)
        ordered = sorted(slice_.words, key=lambda w: (len(w), w))
        return "\n".join(system.render_word(w) for w in ordered) + "\n"

    parts = ("language", shadow_hash, str(args.max_len))
    _write_out(args.out, _produce(args, system, parts, compute))
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_radius("--radius", args.radius)
    system = _load_system(args.group)
    text, shadow_hash = _read_shadow(args.shadow)

    def compute() -> str:
        return full_suite(_parse_shadow(system, text), args.radius).to_text()

    payload = _produce(args, system, ("verify", shadow_hash, str(args.radius)), compute)
    _write_out(args.out, payload)
    if payload.rstrip().endswith("result: pass"):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_project(args) -> int:
    system = _load_system(args.group)
    shadow = _parse_shadow(system, _read_shadow(args.shadow)[0])
    try:
        g = system.element(args.word)
    except ValueError as exc:
        raise CliError(EXIT_IO, "bad-word", str(exc)) from exc
    render = lambda x: system.render_word(x.word)
    pi = b_projection(shadow, g)
    nu = voracious_projection(shadow, g)
    chain = voracious_chain(shadow, g)
    print(f"word: {args.word}")
    print(f"element: {render(g)}")
    print(f"pi: {render(pi)}")
    print(f"nu: {render(nu)}")
    # multi-letter names render with spaces, so their steps are split by " | "
    sep = " | " if system.word_separator else " "
    print(f"chain: {sep.join(render(x) for x in chain.steps)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call."""
    parser = _Parser(
        prog="garside",
        description="Garside shadows, voracious languages and their automata",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=True, help="group definition file")
    common.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shadow", parents=[common], help="compute a Garside shadow")
    p.add_argument("--kind", required=True, help="low | mlow=M | gamma | closure")
    p.add_argument("--seed", help="seed word list for closure (one word per line)")
    p.add_argument("--cutoff", type=int, default=12,
                   help="closure: longest m-low element the join scan may read")
    p.add_argument("--out", required=True)

    p = sub.add_parser("automaton", parents=[common], help="export the language automaton")
    p.add_argument("--shadow", required=True, help="serialized shadow file")
    p.add_argument("--format", default="text", help="dot | text")
    p.add_argument("--out", required=True)

    p = sub.add_parser("language", parents=[common], help="dump a language slice")
    p.add_argument("--shadow", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--shadow", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", parents=[common], help="project one word")
    p.add_argument("--shadow", required=True)
    p.add_argument("--word", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up at call time, so that a replaced cmd_* function is the one called
        return globals()[f"cmd_{args.command}"](args)
    except RootLimitExceeded as exc:
        print(f"error: root-limit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CliError as exc:
        print(f"error: {exc.prefix}: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
