"""Per-layer tracing for the benchmark's traced runs.

`Tracer.install` wraps garside's functions and methods in place, at every
name a caller can look them up by: module globals that hold the same
function object (``garside.shadows.shi_gates`` as well as
``garside.shi.shi_gates``) and class attributes (``Scalar.__radd__`` as
well as ``Scalar.__add__``).  A wrapper does nothing but call through while
the tracer is inactive, so checks made between operations are not counted.

Timed layers record a span (name, start, end, parent span, operation id);
the first SPAN_LIMIT spans are kept in memory and written once, by
`write_spans`, when the run ends.  A layer's self time is its span's duration minus the time covered by
the spans directly inside it.  Counted layers only add to a counter.
Nothing here keeps a strong reference to a program object.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import weakref
from array import array
from collections import defaultdict
from pathlib import Path

# Spans beyond this many are not kept (their time still counts), which bounds
# the memory and the trace file of a run at about 40 MB.
SPAN_LIMIT = 1_000_000

# The per-layer metrics and their units, as BENCHMARK.json lists them.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


class Tracer:
    """Counters, self times and spans of the wrapped layers of one run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.totals: dict[str, float] = defaultdict(float)
        self.systems_alive = 0
        self._t0 = time.perf_counter()
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._names: list[str] = []
        self._next_span = 0
        self._spans = {k: array(t) for k, t in
                       (("id", "q"), ("name", "i"), ("parent", "q"), ("op", "i"),
                        ("start", "d"), ("end", "d"))}
        self._systems: list[weakref.ref] = []
        self._ball_built: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._shadow_ids: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._projections_seen: set = set()

    # -- wrappers ---------------------------------------------------------------

    def counted(self, fn, calls: str | None = None, after=None):
        tracer, totals = self, self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if calls is not None:
                totals[calls] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed(self, fn, seconds: str, calls: str | None = None, after=None):
        tracer, totals, stack, spans = self, self.totals, self._stack, self._spans
        name_id = len(self._names)
        self._names.append(seconds)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if calls is not None:
                totals[calls] += 1
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                totals[seconds] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span < SPAN_LIMIT:
                    spans["id"].append(span)
                    spans["name"].append(name_id)
                    spans["parent"].append(parent)
                    spans["op"].append(tracer.op)
                    spans["start"].append(start - tracer._t0)
                    spans["end"].append(end - tracer._t0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self, garside_modules) -> None:
        """Wrap every traced layer of the given garside modules in place."""
        m = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in garside_modules}
        cx, sc, sh, au = m["coxeter"], m["scalars"], m["shi"], m["automata"]
        sd, vo, ve, wo, cli = m["shadows"], m["voracious"], m["verify"], m["weak_order"], m["cli"]
        System, Scalar, Automaton = cx.CoxeterSystem, sc.Scalar, au.Automaton
        totals = self.totals
        original_ball = System.ball

        def adds(metric, size):
            """An after-hook adding size(args, result) to a metric."""
            def after(args, result):
                totals[metric] += size(args, result)
            return after

        def track_system(args, _):
            self._systems.append(weakref.ref(args[0]))

        def ball_built(args, result):
            system = args[0]
            before = self._ball_built.get(system, 0)
            if len(result) > before:
                totals["coxeter.ball_elements"] += len(result) - before
                self._ball_built[system] = len(result)

        def projection_seen(args, _):
            shadow, g = args
            key = (self._shadow_ids.setdefault(shadow, len(self._shadow_ids)), g.word)
            if key in self._projections_seen:
                totals["shadows.b_projection_repeats"] += 1
            else:
                self._projections_seen.add(key)

        pairs = adds("verify.ftp_pairs", lambda _, r: r.pairs_checked)

        def cache_lookup(args, hit):
            totals["cli.cache_misses" if hit is None else "cli.cache_hits"] += 1

        plan = [
            (Scalar.sign, self.counted, dict(calls="scalars.sign_calls")),
            (Scalar.__mul__, self.counted, dict(calls="scalars.mul_calls")),
            (Scalar.__add__, self.counted, dict(calls="scalars.add_calls")),
            (cx.Root.__eq__, self.counted, dict(calls="coxeter.root_eq_calls")),
            (System.__init__, self.counted, dict(after=track_system)),
            (System.reflect, self.counted, dict(calls="coxeter.reflect_calls")),
            (System.ball, self.timed, dict(seconds="coxeter.ball_s", after=ball_built)),
            (System.right_multiply, self.timed,
             dict(seconds="coxeter.right_multiply_s", calls="coxeter.right_multiply_calls")),
            (System.element, self.timed, dict(seconds="coxeter.element_s")),
            (System.inversion_walls, self.counted, dict(calls="coxeter.inversion_walls_calls")),
            (System.multiply, self.counted, dict(calls="coxeter.multiply_calls")),
            (System.inverse, self.counted, dict(calls="coxeter.inverse_calls")),
            (wo.weak_leq, self.counted, dict(calls="weak_order.weak_leq_calls")),
            (wo._lower_set, self.timed, dict(seconds="weak_order.lower_interval_s")),
            (sh.elementary_walls, self.timed, dict(seconds="shi.elementary_walls_s")),
            (sh.SmallRootSet.__init__, self.counted,
             dict(after=adds("shi.small_roots", lambda a, _: len(a[0].ordered)))),
            (sh.shi_gates, self.timed,
             dict(seconds="shi.shi_gates_s", after=adds("shi.gates", lambda _, r: len(r)))),
            (sh.is_shi_gate, self.timed, dict(seconds="shi.is_shi_gate_s")),
            (sh.separation_count, self.counted, dict(calls="shi.separation_count_calls")),
            (au.cone_type_automaton, self.timed,
             dict(seconds="automata.cone_type_automaton_s",
                  after=adds("automata.cone_type_states", lambda _, r: r.n_states))),
            (Automaton.enumerate_language, self.timed, dict(seconds="automata.enumerate_language_s")),
            (Automaton.accepting_states, self.timed, dict(seconds="automata.accepting_states_s")),
            (sd.validate_shadow, self.timed,
             dict(seconds="shadows.validate_shadow_s",
                  after=adds("shadows.validate_scan_elements",
                             lambda a, r: len(original_ball(a[0], r.search_radius)) if r.ok else 0))),
            (sd.shadow_from_text, self.timed, dict(seconds="shadows.shadow_from_text_s")),
            (sd.b_projection, self.timed,
             dict(seconds="shadows.b_projection_s", calls="shadows.b_projection_calls",
                  after=projection_seen)),
            (vo.voracious_chain, self.timed, dict(seconds="voracious.voracious_chain_s")),
            (vo.language_of, self.timed, dict(seconds="voracious.language_of_s")),
            (vo.reduced_words, self.counted, dict(calls="voracious.reduced_words_calls")),
            (vo.enumerate_language, self.timed,
             dict(seconds="voracious.enumerate_language_s",
                  after=adds("voracious.language_words", lambda _, r: len(r.words)))),
            (vo.build_voracious_fsa, self.timed,
             dict(seconds="voracious.build_voracious_fsa_s",
                  after=adds("voracious.fsa_edges", lambda _, r: len(r.edges)))),
            (ve.check_condition_one, self.timed, dict(seconds="verify.condition_one_s")),
            (vo.cross_validate_regularity, self.timed, dict(seconds="verify.regularity_s")),
            (ve.check_first_ftp, self.timed,
             dict(seconds="verify.first_ftp_s", after=pairs)),
            (ve.check_second_ftp, self.timed,
             dict(seconds="verify.second_ftp_s", after=pairs)),
            (ve.estimate_parallel_wall, self.timed, dict(seconds="verify.parallel_wall_s")),
            (ve.check_projection_monotone, self.timed, dict(seconds="verify.projection_monotone_s")),
            (ve.check_original_projection, self.timed, dict(seconds="verify.original_projection_s")),
            (ve.check_step_bound, self.timed, dict(seconds="verify.step_bound_s")),
            (ve.check_low_containment, self.timed, dict(seconds="verify.low_containment_s")),
            (ve.check_refinement_by_shi, self.timed, dict(seconds="verify.refinement_by_shi_s")),
            (cli.cmd_shadow, self.timed, dict(seconds="cli.shadow_s")),
            (cli.cmd_automaton, self.timed, dict(seconds="cli.automaton_s")),
            (cli.cmd_language, self.timed, dict(seconds="cli.language_s")),
            (cli.cmd_verify, self.timed, dict(seconds="cli.verify_s")),
            (cli.cmd_project, self.timed, dict(seconds="cli.project_s")),
            (cli._cache_get, self.counted, dict(after=cache_lookup)),
        ]
        owners = list(garside_modules)
        owners += [v for mod in garside_modules for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("garside")]
        for fn, kind, options in plan:
            wrapper = kind(fn, **options)
            replaced = 0
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
                        replaced += 1
            if not replaced:
                raise RuntimeError(f"traced function {fn.__qualname__} not found")

    # -- operations and results ------------------------------------------------------

    def count_systems_alive(self) -> int:
        """Systems built while tracing that are still reachable (call after gc)."""
        return sum(ref() is not None for ref in self._systems)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures: totals divided by the rounds the run completed."""
        out = {name: self.totals.get(name, 0.0) / rounds for name in PER_LAYER}
        out["coxeter.systems_alive"] = self.systems_alive
        calls = self.totals.get("shadows.b_projection_calls", 0.0)
        repeats = self.totals.get("shadows.b_projection_repeats", 0.0)
        out["shadows.b_projection_repeat_ratio"] = repeats / calls if calls else 0.0
        return out

    @property
    def span_count(self) -> tuple[int, int]:
        """Spans kept, and spans recorded in all."""
        return len(self._spans["id"]), self._next_span

    def write_spans(self, path) -> None:
        """The kept spans as gzipped CSV: span,name,start_s,end_s,parent,op."""
        s = self._spans
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            names = self._names
            for i in range(len(s["id"])):
                out.write(f"{s['id'][i]},{names[s['name'][i]]},{s['start'][i]:.7f},"
                          f"{s['end'][i]:.7f},{s['parent'][i]},{s['op'][i]}\n")
