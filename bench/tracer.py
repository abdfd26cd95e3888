"""Outside-in tracing of polysieve from the benchmark's side.

``Tracer.install`` wraps every public function of the library's layer
modules, under every name a module binds it to (``cli``, ``farey``,
``largesieve``, ``bv`` and ``normform`` import with ``from .x import y``),
plus ``MvPoly.evaluate`` and the ``conductor`` / ``is_primitive``
properties of ``DirichletCharacter``.  Nothing under ``src/`` changes.

Each wrapped call pushes a frame on one stack, so every call knows its
children's time and self time is duration minus child time.  Calls are not
kept one by one: every function adds to one aggregate (calls, total and self
time), which keeps the tracer from dominating the time it measures.  Time
outside any wrapped call, inside an op, belongs to ``cli``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "mvpoly", "boxes", "arith", "characters", "largesieve",
          "farey", "bv", "normform")

# (metric name, unit) in output order; per_layer in BENCHMARK.json lists the
# same names.  Times are shares of the traced batch's wall time, so that a
# layer a workload never calls reads 0 % rather than a constant 0 s.
METRICS = (
    ("trace.wall_s", "s"),
    ("host.speed_factor", "1"),
    *((f"{layer}.self_pct", "%") for layer in LAYERS),
    ("cli.parse_render.pct", "%"),
    ("cli.report_bytes", "B"),
    ("mvpoly.evaluate.calls", "count"),
    ("mvpoly.evaluate.pct", "%"),
    ("boxes.value_counts.calls", "count"),
    ("boxes.value_counts.pct", "%"),
    ("boxes.tuples", "count"),
    ("boxes.passes_per_op", "1"),
    ("boxes.distinct_per_tuple", "1"),
    ("arith.is_prime.calls", "count"),
    ("arith.is_prime.pct", "%"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.pct", "%"),
    ("arith.factorize.hit_ratio", "1"),
    ("arith.primes_up_to.pct", "%"),
    ("arith.von_mangoldt_table.calls", "count"),
    ("arith.von_mangoldt_table.pct", "%"),
    ("characters.enumerate_characters.calls", "count"),
    ("characters.enumerate_characters.pct", "%"),
    ("characters.enumerated", "count"),
    ("characters.primitive_share", "1"),
    ("characters.conductor.pct", "%"),
    ("characters.unit_group.hit_ratio", "1"),
    ("largesieve.empirical_delta.pct", "%"),
    ("largesieve.moduli", "count"),
    ("largesieve.exp_sums_all_residues.calls", "count"),
    ("largesieve.dft_points", "count"),
    ("largesieve.exp_sum.calls", "count"),
    ("farey.build_farey.pct", "%"),
    ("farey.min_spacing.pct", "%"),
    ("farey.max_close_points.pct", "%"),
    ("farey.points_total", "count"),
    ("farey.points_distinct", "count"),
    ("bv.discrepancy_sum.pct", "%"),
    ("bv.max_progression_discrepancy.calls", "count"),
    ("bv.max_progression_discrepancy.pct", "%"),
    ("bv.discrepancy_calls_per_modulus", "1"),
    ("bv.mean_value_sum.self_pct", "%"),
    ("normform.prime_divisor_search.self_pct", "%"),
    ("normform.norm_values", "count"),
    ("normform.witnesses", "count"),
)


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.counts = defaultdict(int)
        self.originals = {}  # name -> unwrapped callable
        self.op = -1
        self.ops = 0
        self.op_wall = 0.0
        self.scaled_wall = 0.0
        self.parse_render = 0.0
        self.report_bytes = 0
        # frame: [child time, name of the wrapped function]
        self._stack = [[0.0, "cli"]]
        self._moduli_seen = set()

    # -- installation -------------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {name: importlib.import_module(f"polysieve.{name}") for name in LAYERS}
        replace = {}   # id(original) -> wrapper
        for layer in LAYERS[1:]:
            mod = modules[layer]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    name = f"{layer}.{attr}"
                    tracer.originals[name] = value
                    replace[id(value)] = tracer._wrap(name, value)
        # The originals stay referenced from tracer.originals, so their ids
        # cannot be reused while the bindings are rewritten.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("polysieve."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])
        poly = modules["mvpoly"].MvPoly
        poly.evaluate = tracer._wrap("mvpoly.MvPoly.evaluate", poly.evaluate)
        char = modules["characters"].DirichletCharacter
        for prop in ("conductor", "is_primitive"):
            name = f"characters.DirichletCharacter.{prop}"
            setattr(char, prop, property(tracer._wrap(name, getattr(char, prop).fget)))
        return tracer

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
            if hook is not None:
                hook(args, result, parent[1])
            return result

        return wrapper

    # -- result hooks: counts read off arguments and return values ---------

    def _after_boxes_value_counts(self, args, result, parent):
        self.counts["boxes.tuples"] += sum(result.values())
        self.counts["boxes.distinct"] += len(result)
        if parent == "largesieve.sieve_sum":
            self.counts["largesieve.moduli"] += len({abs(v) for v in result if abs(v) > 1})

    def _after_farey_build_farey(self, args, result, parent):
        self.counts["farey.points_total"] += result.total_count
        self.counts["farey.points_distinct"] += result.distinct_count

    def _after_largesieve_exp_sums_all_residues(self, args, result, parent):
        self.counts["largesieve.dft_points"] += len(result)

    def _after_characters_enumerate_characters(self, args, result, parent):
        self.counts["characters.enumerated"] += len(result)

    def _after_characters_DirichletCharacter_is_primitive(self, args, result, parent):
        self.counts["characters.primitive"] += bool(result)

    def _after_bv_max_progression_discrepancy(self, args, result, parent):
        self._moduli_seen.add((self.op, args[0]))

    def _after_normform_prime_divisor_search(self, args, result, parent):
        self.counts["normform.norm_values"] += result.q_range ** args[0].num_form_vars
        self.counts["normform.witnesses"] += result.count

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self._stack[0][0] = 0.0

    def end_op(self, wall: float, duration: float | None, report_bytes: int,
               scaled_wall: float) -> None:
        """Close an op: the cli layer gets whatever no wrapped call took.

        scaled_wall is the op's wall time at the reference host speed; it
        feeds trace.wall_s, while the shares use the raw times.
        """
        self.ops += 1
        self.op_wall += wall
        self.scaled_wall += scaled_wall
        self.stats["cli"][0] += 1
        self.stats["cli"][1] += wall
        self.stats["cli"][2] += wall - self._stack[0][0]
        if duration is not None:
            self.parse_render += wall - duration
        self.report_bytes += report_bytes

    # -- results ------------------------------------------------------------

    def metrics(self, speed_factor: float) -> dict:
        """Every metric in METRICS; speed_factor is the run's host speed."""
        wall = self.op_wall
        s = self.stats

        def pct(seconds):
            return 100.0 * seconds / wall if wall else 0.0

        layer_self = defaultdict(float)
        for name, (_, _, self_s) in s.items():
            layer_self[name.split(".")[0]] += self_s
        c = self.counts
        calls = {name: st[0] for name, st in s.items()}
        total = {name: st[1] for name, st in s.items()}
        disc_calls = calls.get("bv.max_progression_discrepancy", 0)
        out = {
            "trace.wall_s": self.scaled_wall,
            "host.speed_factor": speed_factor,
            **{f"{layer}.self_pct": pct(layer_self[layer]) for layer in LAYERS},
            "cli.parse_render.pct": pct(self.parse_render),
            "cli.report_bytes": self.report_bytes,
            "boxes.tuples": c["boxes.tuples"],
            "boxes.passes_per_op": calls.get("boxes.value_counts", 0) / max(self.ops, 1),
            "boxes.distinct_per_tuple": (c["boxes.distinct"] / c["boxes.tuples"]
                                         if c["boxes.tuples"] else 0.0),
            "arith.factorize.hit_ratio": _hit_ratio(self.originals["arith.factorize"]),
            "characters.enumerated": c["characters.enumerated"],
            "characters.primitive_share": (
                c["characters.primitive"] / calls["characters.DirichletCharacter.is_primitive"]
                if calls.get("characters.DirichletCharacter.is_primitive") else 0.0),
            "characters.conductor.pct": pct(total.get(
                "characters.DirichletCharacter.conductor", 0.0)),
            "characters.unit_group.hit_ratio": _hit_ratio(
                self.originals["characters.unit_group"]),
            "largesieve.moduli": c["largesieve.moduli"],
            "largesieve.dft_points": c["largesieve.dft_points"],
            "farey.points_total": c["farey.points_total"],
            "farey.points_distinct": c["farey.points_distinct"],
            "bv.discrepancy_calls_per_modulus": (disc_calls / len(self._moduli_seen)
                                                 if disc_calls else 0.0),
            "bv.mean_value_sum.self_pct": pct(s["bv.mean_value_sum"][2]),
            "normform.prime_divisor_search.self_pct": pct(
                s["normform.prime_divisor_search"][2]),
            "normform.norm_values": c["normform.norm_values"],
            "normform.witnesses": c["normform.witnesses"],
        }
        short = {"mvpoly.evaluate": "mvpoly.MvPoly.evaluate"}
        for name, unit in METRICS:
            if name in out:
                continue
            stem, kind = name.rsplit(".", 1)
            fn = short.get(stem, stem)
            out[name] = calls.get(fn, 0) if kind == "calls" else pct(total.get(fn, 0.0))
        return {name: out[name] for name, _ in METRICS}
