"""Benchmark driver for garside: one workload, one process, one thread.

    python3 bench/run.py --workload shadow-build|cli-session|warm-query \
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory.  Set-up
(importing garside, plus the workload's own set-up) is repeated
`setup_repeats` times and its median is ``setup_s``.  The timed phase then
runs whole rounds of the workload's operations until S seconds have passed.
Each operation is timed alone.  Outside the timed regions, garbage is
collected before each operation (where the workload isolates its
operations) and every output is checked after each round.

Every time reported is scaled to a reference machine speed.  Other tenants
of a shared host slow it by up to 1.7x for stretches of tens of seconds,
and no statistic within one run removes a slowdown that covers the whole
run.  So a fixed pure-Python loop is timed just before and just after each
timed region (each operation where the workload isolates them, otherwise
each round, and each set-up), and the region's time is multiplied by
``CALIBRATION_REF_S`` over the median of those loop times: the time the
region would have taken had the loop taken ``CALIBRATION_REF_S``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the functions of every layer are
wrapped (see tracer.py) and the JSON carries the per-layer metrics instead.
Earlier lines give the result sizes of each operation of the first round.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _garside_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "garside" or n.startswith("garside.")}


def _import_garside():
    """A fresh import of the package and every module the workloads use."""
    for name in _garside_modules():
        del sys.modules[name]
    g = importlib.import_module("garside")
    importlib.import_module("garside.cli")
    return g


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "garside" / "__init__.py").is_file():
        _fail(f"no garside sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS  # noqa: E402  (needs HERE on sys.path)

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return _run(args, WORKLOADS[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# One calibration loop's time at the reference speed, in seconds: a round
# figure within its range (1.7 to 2.7 ms) on the 2-vCPU Xeon virtual machine
# under Python 3.11 where the benchmark was written.
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_SAMPLES = 3  # loops before and again after each timed region
# Tuples in a fixed scrambled order: the loop sorts them, as the program
# compares words and roots, besides doing integer arithmetic.
CALIBRATION_TUPLES = [(i * 7919 % 50, i * 104729 % 53, i % 47) for i in range(3000)]


def calibrate() -> list[float]:
    """Times of a fixed pure-Python loop, run a few times in a row now."""
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        x = 0
        for i in range(10000):
            x += i * i
        sorted(CALIBRATION_TUPLES)
        times.append(time.perf_counter() - start)
    return times


def at_reference_speed(seconds: float, calibration: list[float]) -> float:
    """`seconds` scaled by how far the calibration loop ran from its
    reference time around the timed region."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibration)


def judge(workload, ops, outputs) -> list[list[str]]:
    """What the checks found wrong with each operation of one round.

    An operation that raised is already failed; its output is None and the
    checks skip it."""
    try:
        return workload.check(ops, outputs)
    except Exception as exc:  # a check that cannot run fails the whole round
        return [[f"check raised {type(exc).__name__}: {exc}"]] * len(ops)


def _time_round(workload, index: int, tracer, op_times: dict, first_op: int):
    """Run one round, timing each operation alone at reference speed; an
    operation that raises is recorded with its error and no output."""
    ops = workload.round_ops(index)
    outputs, errors, elapsed, calibrations = [], [], [], []
    isolate = workload.isolate_each_op
    if not isolate:
        round_calibration = calibrate()
    for k, op in enumerate(ops):
        if isolate:
            gc.collect()
            before = calibrate()
        if tracer:
            tracer.op, tracer.active = first_op + k, True
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed.append(time.perf_counter() - start)
        if tracer:
            tracer.active = False
        if isolate:
            calibrations.append(before + calibrate())
        outputs.append(out)
        errors.append(err)
    if not isolate:
        calibrations = [round_calibration + calibrate()] * len(ops)
    for op, seconds, calibration in zip(ops, elapsed, calibrations):
        op_times.setdefault(op.label, []).append(at_reference_speed(seconds, calibration))
    return ops, outputs, errors


def _judge_round(workload, ops, outputs, errors, describe: bool) -> tuple[int, bool]:
    """Failed operations of a round, and whether any output was wrong.

    Prints the result sizes of each operation when `describe` is set."""
    failed, wrong = 0, False
    for op, out, err, found in zip(ops, outputs, errors, judge(workload, ops, outputs)):
        if err or found:
            failed += 1
            wrong = wrong or bool(found)
            print(f"FAILED {op.label}: {err or '; '.join(found[:3])}", file=sys.stderr)
        elif describe:
            print(f"{workload.name} {op.label}: {workload.describe(op, out)}")
    return failed, wrong


def _run(args, workload) -> int:
    setup_times = []
    for _ in range(workload.setup_repeats):
        workload.release()
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        g = _import_garside()
        workload.setup(g)
        seconds = time.perf_counter() - start
        setup_times.append(at_reference_speed(seconds, before + calibrate()))
    if not Path(g.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported garside from {g.__file__}, not from {SRC}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(list(_garside_modules().values()))

    gc.collect()
    op_times: dict[str, list[float]] = {}
    attempted = failed = rounds = 0
    wrong = False
    started = time.perf_counter()
    while True:
        ops, outputs, errors = _time_round(workload, rounds, tracer, op_times, attempted)
        if rounds == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        round_failed, round_wrong = _judge_round(workload, ops, outputs, errors, rounds == 0)
        del outputs
        attempted += len(ops)
        failed += round_failed
        wrong = wrong or round_wrong
        rounds += 1
        if rounds == 1 and tracer:
            gc.collect()
            tracer.systems_alive = tracer.count_systems_alive()
        if time.perf_counter() - started >= args.seconds:
            break

    completed = attempted - failed
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (completed / sum(map(sum, op_times.values())), "1/s"),
        # each operation's median over the rounds, then the median over operations
        "op_p50_s": (statistics.median(map(statistics.median, op_times.values())), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr if tracer else sys.stdout)
    print(f"rounds = {rounds}, attempted = {attempted}, failed = {failed}",
          file=sys.stderr if tracer else sys.stdout)
    if tracer:
        from tracer import PER_LAYER

        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in tracer.metrics(rounds).items()}
        trace_path = OUT / f"trace-{workload.name}.csv.gz"
        tracer.write_spans(trace_path)
        kept, total = tracer.span_count
        print(f"spans = {total}, the first {kept} written to {trace_path}", file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
