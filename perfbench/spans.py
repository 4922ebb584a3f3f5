"""Per-layer spans, recorded from outside the program.

While one traced op runs, the tracer replaces functions of the fdr2d
modules with timing wrappers and puts the originals back afterwards.
fdr2d looks these functions up as module attributes at call time
(``engine.build_tensor``, ``_accel.pair_exceed_counts``, ...), so the
wrappers see every call without a change to the program. A hook whose
target is gone is reported as missing and the run goes on without it.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (-1 for the op's root span) and ``attrs``
holds the counts taken at that boundary. Spans stay in memory until the
run writes them out.
"""

import functools
import importlib
import time
from collections import defaultdict

# (module under fdr2d, attribute, span name). Several attributes may
# share a span name when they belong to one layer metric.
HOOKS = (
    ("io", "load_dataset", "io.load"),
    ("io", "save_table", "io.write"),
    ("cli", "_write_json", "io.write"),
    ("core", "validate", "core.validate"),
    ("samplers", "fit_for_strategy", "samplers.fit"),
    ("samplers", "draw_for_strategy", "samplers.draw"),
    ("stats", "make_evaluator", "stats.setup"),
    ("engine", "build_tensor", "engine.build_tensor"),
    ("engine", "make_grid", "engine.grid"),
    ("_accel", "pair_exceed_counts", "engine.count"),
    ("engine", "default_path", "engine.path"),
    ("engine", "fdp_tilde", "engine.path_step"),
    ("engine", "apply_method", "engine.apply"),
    ("engine", "fbar", "engine.fbar"),
    ("sim", "gen_dataset", "sim.gen"),
)

ROOT_SPAN = "op"


def _eval_attrs(args, out):
    # evaluator.pairs returns (marginal, conditional, failure count)
    return {"failed": int(out[2]), "evaluated": len(out[0])}


def _count_attrs(args, out):
    # one count per grid cell: g1 * g2
    return {"cells": int(out.size)}


_ATTRS = {"engine.count": _count_attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self._stack = []
        self._op = -1
        self._saved = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[5] = attrs(args, out)
            return out

        return traced

    def _wrap_make_evaluator(self, fn):
        setup = self._wrap("stats.setup", fn)

        @functools.wraps(fn)
        def make_evaluator(*args, **kwargs):
            evaluator = setup(*args, **kwargs)
            pairs = getattr(evaluator, "pairs", None)
            if callable(pairs):
                evaluator.pairs = self._wrap("stats.eval", pairs, _eval_attrs)
            else:
                self.missing.add(f"fdr2d.stats.{type(evaluator).__name__}.pairs")
            return evaluator

        return make_evaluator

    def _install(self):
        for module_name, attr, name in HOOKS:
            target = f"fdr2d.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"fdr2d.{module_name}")
            except ImportError:
                self.missing.add(target)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(target)
                continue
            if name == "stats.setup":
                wrapper = self._wrap_make_evaluator(fn)
            else:
                wrapper = self._wrap(name, fn, _ATTRS.get(name))
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def _uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def run(self, op_id, fn, *args):
        """Call ``fn(*args)`` as traced op ``op_id``; return (seconds, result)."""
        self._op = op_id
        self._install()
        try:
            root = self._open(ROOT_SPAN)
            try:
                out = fn(*args)
            finally:
                self._close(root)
        finally:
            self._uninstall()
        return root[2] - root[1], out

    def per_op(self):
        """{op: {"time": {span: s}, "self": {span: s}, "calls": {span: n}, "attrs": {key: sum}}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, attrs in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = defaultdict(lambda: {
            "time": defaultdict(float), "self": defaultdict(float),
            "calls": defaultdict(int), "attrs": defaultdict(int),
        })
        for k, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            rec = ops[op]
            rec["time"][name] += end - start
            rec["self"][name] += end - start - child_time[k]
            rec["calls"][name] += 1
            for key, value in (attrs or {}).items():
                rec["attrs"][key] += value
        return dict(ops)


def layer_metrics(rec):
    """The per-layer metrics of one traced op, by BENCHMARK.json name."""
    t, own, calls, attrs = rec["time"], rec["self"], rec["calls"], rec["attrs"]
    return {
        "stats.eval_s": t["stats.eval"],
        "stats.evals": calls["stats.eval"],
        "stats.eval_failed": attrs["failed"],
        "stats.eval_fail_ratio": attrs["failed"] / attrs["evaluated"] if attrs["evaluated"] else 0.0,
        "stats.setup_s": t["stats.setup"],
        "io.load_s": t["io.load"],
        "io.write_s": t["io.write"],
        "engine.fbar_s": t["engine.fbar"],
        "engine.build_tensor_s": t["engine.build_tensor"],
        "engine.build_tensor_self_s": own["engine.build_tensor"],
        "engine.grid_s": t["engine.grid"],
        "engine.count_s": t["engine.count"],
        "engine.grid_cells": attrs["cells"],
        "engine.path_s": t["engine.path"] + t["engine.path_step"],
        "engine.path_steps": calls["engine.path_step"],
        "engine.apply_self_s": own["engine.apply"],
        "samplers.fit_s": t["samplers.fit"],
        "samplers.draw_s": t["samplers.draw"],
        "samplers.draws": calls["samplers.draw"],
        "core.validate_s": t["core.validate"],
        "sim.gen_s": t["sim.gen"],
        "op.unattributed_frac": own[ROOT_SPAN] / t[ROOT_SPAN],
    }
