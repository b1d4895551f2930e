"""Outside-in span tracing of levellab's layers.

The library imports functions by name (``from levellab.spans import
derivative_spaces``), so replacing a function in its home module does not
reach the modules that imported it.  ``Tracer.install`` therefore rebinds
every name in every loaded ``levellab`` module that refers to a traced
function, and wraps ``Form.__pow__`` and ``Form.__mul__`` on the class.

Spans are kept in memory as tuples and written out at the end.  Each span
records wall time and ``time.thread_time()``; self time is computed per
thread, because the scanner runs ``classify`` on pool threads, which do
not inherit contextvars.  A span that starts on a thread with no open span
takes the open ``scan_ic`` span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

# span tuple fields
ID, PARENT, THREAD, NAME, ITEM, T0, T1, C0, C1, NOTE = range(10)
FIELDS = ("id", "parent", "thread", "name", "item", "t0", "t1", "c0", "c1", "note")


def _rref_note(args, result):
    rows, cols = np.shape(args[0])
    return (rows, cols, len(result))


def _classify_note(args, result):
    cert = result.certificate
    return cert is not None and cert.kind == "construction"


# (home module, function, span name, note, propagates to pool threads)
TARGETS = (
    ("levellab.forms", "format_form", "format", None, False),
    ("levellab.modules", "module_to_text", "format", None, False),
    ("levellab.constructions", "compressed_generic_module", "direct_build", None, False),
    ("levellab.classify", "classify", "classify", _classify_note, False),
    ("levellab.classify", "candidate_recipes", "recipes", None, False),
    ("levellab.classify", "build_recipe", "build_recipe", None, False),
    ("levellab.scans", "scan_ic", "scan", None, True),
    ("levellab.spans", "rref_mod_p", "rref", _rref_note, False),
    ("levellab.spans", "coefficient_matrix", "coef", None, False),
    ("levellab.spans", "derivative_spaces", "tower", None, False),
    ("levellab.modules", "h_vector", "h_vector", None, False),
    ("levellab.store", "store_append", "append", None, False),
    ("levellab.store", "store_verify", "verify", None, False),
)

# Which span names each workload must record at least once.
EXERCISED = {
    "scan_socle23": ("pow", "mul", "format", "profile", "trial", "classify", "recipes",
                     "build_recipe", "scan", "rref", "coef", "tower", "h_vector",
                     "append"),
    "replay_corpus": ("pow", "mul", "format", "build_recipe", "rref", "coef", "tower",
                      "h_vector", "verify"),
    "tower_codim": ("direct_build", "rref", "coef", "tower", "h_vector"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient = None
        self._item = None
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, note=None, propagate=False, wrap_arg=None):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else self._ambient
        span_id = next(self._ids)
        if wrap_arg is not None:
            args = wrap_arg(args)
        stack.append(span_id)
        if propagate:
            outer, self._ambient = self._ambient, span_id
        result = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            if propagate:
                self._ambient = outer
            noted = None
            if note is not None and result is not None:
                noted = note(args, result)
            self.spans.append((span_id, parent, threading.get_ident(), name, self._item,
                               t0, t1, c0, c1, noted))

    def item(self, index: int, fn, *args):
        """Run one benchmark item as a root span."""
        self._item = index
        try:
            return self._call("item", fn, args, {})
        finally:
            self._item = None

    # ------------------------------------------------------------ wrapping

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "levellab" and not mod_name.startswith("levellab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    bound += 1
        return bound

    def install(self) -> None:
        import levellab.constructions
        import levellab.forms

        tracer = self
        for home, fname, span, note, propagate in TARGETS:
            original = getattr(sys.modules[home], fname)

            def traced(*args, _fn=original, _span=span, _note=note, _prop=propagate,
                       **kwargs):
                return tracer._call(_span, _fn, args, kwargs, _note, _prop)

            functools.update_wrapper(traced, original)
            if self._rebind(original, traced) == 0:
                raise RuntimeError(f"{home}.{fname} is bound nowhere")

        def wrap_builder(args):
            builder = args[0]

            def trial(rng):
                return tracer._call("trial", builder, (rng,), {})

            return (trial,) + tuple(args[1:])

        profile = levellab.constructions.maximal_profile

        def traced_profile(*args, **kwargs):
            return tracer._call("profile", profile, args, kwargs,
                                note=lambda a, r: True, wrap_arg=wrap_builder)

        functools.update_wrapper(traced_profile, profile)
        self._rebind(profile, traced_profile)

        form = levellab.forms.Form
        for attr, span in (("__pow__", "pow"), ("__mul__", "mul")):
            original = form.__dict__[attr]

            def traced_op(a, b, _fn=original, _span=span):
                return tracer._call(_span, _fn, (a, b), {})

            self._undo.append((form, attr, original))
            setattr(form, attr, traced_op)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --------------------------------------------------------------- analysis


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and busy times from finished spans.

    Times ending in ``_s`` are thread CPU seconds summed over threads, so
    pool threads waiting on the interpreter lock add nothing; only
    ``scans.wall_s`` and ``scans.worker_wait_s`` are wall-clock based.
    """
    by_id = {s[ID]: s for s in spans}
    child_cpu: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and parent[THREAD] == s[THREAD]:
            child_cpu[s[PARENT]] = child_cpu.get(s[PARENT], 0.0) + s[C1] - s[C0]

    def parent_name(s):
        parent = by_id.get(s[PARENT])
        return None if parent is None else parent[NAME]

    def named(name, under=None, outermost=False):
        out = [s for s in spans if s[NAME] == name]
        if under is not None:
            out = [s for s in out if parent_name(s) == under]
        if outermost:
            out = [s for s in out if parent_name(s) != name]
        return out

    def busy(group):
        return sum(s[C1] - s[C0] for s in group)

    def self_busy(group):
        return sum(s[C1] - s[C0] - child_cpu.get(s[ID], 0.0) for s in group)

    def ratio(num, den):
        return num / den if den else 0.0

    rref = named("rref")
    cells = sum(s[NOTE][0] * s[NOTE][1] for s in rref)
    ops = sum(s[NOTE][0] * s[NOTE][1] * s[NOTE][2] for s in rref)
    rref_s = busy(rref)
    trials = len(named("trial"))
    tried = named("profile", under="classify")
    classify = named("classify")
    pooled = [s for s in classify
              if s[PARENT] in by_id and by_id[s[PARENT]][THREAD] != s[THREAD]]
    return {
        "forms.pow_calls": len(named("pow")),
        "forms.pow_s": busy(named("pow")),
        "forms.mul_calls": len(named("mul")),
        "forms.format_s": busy(named("format", outermost=True)),
        "constructions.trials": trials,
        "constructions.useful_trial_ratio": ratio(sum(1 for s in named("profile") if s[NOTE]),
                                                  trials),
        "constructions.build_s": busy(named("trial")),
        "constructions.direct_build_s": busy(named("direct_build", under="item")),
        "classify.calls": len(classify),
        "classify.self_s": self_busy(classify),
        "classify.arith_s": busy(named("recipes", outermost=True)),
        "classify.recipes_tried": len(tried),
        "classify.recipe_hit_ratio": ratio(sum(1 for s in classify if s[NOTE]), len(tried)),
        "scans.calls": len(named("scan")),
        "scans.wall_s": sum(s[T1] - s[T0] for s in named("scan")),
        "scans.worker_wait_s": sum((s[T1] - s[T0]) - (s[C1] - s[C0]) for s in pooled),
        "spans.rref_calls": len(rref),
        "spans.rref_s": rref_s,
        "spans.rref_cells": cells,
        "spans.rref_ops_computed": ops,
        "spans.rref_bytes_computed": 16 * ops,
        "spans.rref_gops_per_s": ratio(ops / 1e9, rref_s),
        "spans.coefficient_matrix_s": busy(named("coef")),
        "spans.tower_calls": len(named("tower")),
        "spans.tower_self_s": self_busy(named("tower")),
        "modules.h_vector_calls": len(named("h_vector")),
        "modules.h_vector_self_s": self_busy(named("h_vector")),
        "store.append_calls": len(named("append")),
        "store.append_s": busy(named("append")),
        "store.verify_records": len(named("verify")),
        "store.verify_self_s": self_busy(named("verify")),
        "store.replay_build_s": busy(named("build_recipe", under="verify")),
        "store.replay_tower_s": busy(named("h_vector", under="verify")),
    }


def missing_layers(spans: list[tuple], workload: str) -> list[str]:
    """Span names the workload must exercise but recorded zero times."""
    seen = {s[NAME] for s in spans}
    return [name for name in EXERCISED[workload] if name not in seen]
