"""Per-layer spans and counters, recorded around flagcalc's public functions.

Nothing in the program is edited: ``install`` replaces each traced function
with a wrapper at every module attribute that refers to it.  That matters
because callers bind names at import time -- ``presentation`` binds
``characteristic`` and the ``intlinalg`` functions, ``cli`` binds most of
the library, and ``intlinalg.kernel_basis`` calls ``smith_normal_form``
through intlinalg's own global -- so patching only the defining module
would miss them.

A wrapper records a span only for a top-level call of its group: while a
call of a group is open, nested calls of the same group run unrecorded
inside it.  ``FactoredEvaluator.evaluate`` recurses through
``self.evaluate`` (see ``Tracer.wrap_method``), and the intlinalg functions
call one another, so only the outermost call is counted and timed.  Spans stay in memory; ``summary``
reduces them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (defining module, attribute, layer, re-entry group)
FUNCTION_TARGETS = [
    ("flagcalc.characteristics", "characteristic", "characteristics.characteristic", None),
    ("flagcalc.characteristics", "multiply_schubert", "characteristics.multiply", None),
    ("flagcalc.characteristics", "class_factor_masks", "characteristics.masks", None),
    ("flagcalc.intlinalg", "solve_in_row_lattice", "intlinalg.solve", "intlinalg"),
    ("flagcalc.intlinalg", "smith_normal_form", "intlinalg.snf", "intlinalg"),
    ("flagcalc.intlinalg", "integer_diagonalize", "intlinalg.snf", "intlinalg"),
    ("flagcalc.intlinalg", "kernel_basis", "intlinalg.snf", "intlinalg"),
    ("flagcalc.intlinalg", "hnf_rows", "intlinalg.hnf", "intlinalg"),
    ("flagcalc.intlinalg", "lattice_contains", "intlinalg.hnf", "intlinalg"),
    ("flagcalc.intlinalg", "lattice_equal", "intlinalg.hnf", "intlinalg"),
    ("flagcalc.presentation", "expansion_matrix", "presentation.expansion", None),
    ("flagcalc.presentation", "find_generators", "presentation.generators", None),
    ("flagcalc.presentation", "find_relations", "presentation.relations", None),
    ("flagcalc.presentation", "schubert_polynomials", "presentation.schubpoly", None),
    ("flagcalc.weyl", "enumerate_cosets", "weyl.enumerate", None),
    ("flagcalc.oracle", "lr_coefficient", "oracle.lr", None),
]
# (defining module, class, method, layer)
METHOD_TARGETS = [
    ("flagcalc.characteristics", "FactoredEvaluator", "evaluate", "characteristics.eval"),
]

# Every per-layer metric the traced run reports, with its unit.  Values are
# per pass of the workload; ``trace.overhead_frac`` is added by run.py.
LAYER_METRICS = {
    "characteristics.eval.calls": "count",
    "characteristics.eval.s": "s",
    "characteristics.eval.memo_states": "count",
    "characteristics.eval.states_per_call": "count",
    "characteristics.masks.calls": "count",
    "characteristics.masks.searches": "count",
    "characteristics.masks.s": "s",
    "characteristics.masks.hit_ratio": "ratio",
    "characteristics.characteristic.calls": "count",
    "characteristics.characteristic.self_s": "s",
    "characteristics.multiply.calls": "count",
    "characteristics.multiply.s": "s",
    "intlinalg.solve.calls": "count",
    "intlinalg.solve.s": "s",
    "intlinalg.snf.calls": "count",
    "intlinalg.snf.s": "s",
    "intlinalg.hnf.calls": "count",
    "intlinalg.hnf.s": "s",
    "intlinalg.max_bits": "bits",
    "presentation.expansion.calls": "count",
    "presentation.expansion.s": "s",
    "presentation.expansion.entries": "count",
    "presentation.generators.s": "s",
    "presentation.relations.s": "s",
    "presentation.schubpoly.s": "s",
    "weyl.enumerate.calls": "count",
    "weyl.enumerate.s": "s",
    "weyl.cosets": "count",
    "cli.calls": "count",
    "cli.start_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "oracle.lr.calls": "count",
    "oracle.lr.s": "s",
}


def _max_bits(obj) -> int:
    """Largest bit length of any int inside nested lists, tuples or objects."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(x) for x in obj), default=0)
    if hasattr(obj, "__dict__"):
        return _max_bits(list(vars(obj).values()))
    return 0


def _mask_cache_hit(args) -> bool:
    """Whether class_factor_masks(table, w, u) will answer from its cache."""
    try:
        table, w, u = args[:3]
        return (u.m, u.i) in table._char_cache[w.word]["masks"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


class Tracer:
    """Spans and counters of one process; recording only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [layer, duration, child_duration]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()  # targets or counters the program lacks
        self.outer_s = 0.0  # time inside spans that have no traced parent
        self._open_groups: set[str] = set()
        self._stack: list[list] = []

    def _record(self, layer, group, fn, args, kwargs, before=None, after=None):
        if not self.active or group in self._open_groups:
            return fn(*args, **kwargs)
        try:
            state = before(args) if before else None
        except (AttributeError, TypeError):  # the program's objects changed shape
            state, after = None, None
            self.missing.add(f"{layer} counter")
        span = [layer, 0.0, 0.0]
        parent = self._stack[-1] if self._stack else None
        self._open_groups.add(group)
        self._stack.append(span)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[1] = time.perf_counter() - t0
            self._stack.pop()
            self._open_groups.discard(group)
            self.spans.append(span)
            if parent is not None:
                parent[2] += span[1]
            else:
                self.outer_s += span[1]
        if after:
            try:
                after(args, result, state)
            except (AttributeError, TypeError):  # the program's result changed shape
                self.missing.add(f"{layer} counter")
        return result

    def _hooks(self, layer):
        c = self.counters
        if layer == "characteristics.eval":
            def before(args):
                return len(args[0].memo)

            def after(args, result, n0):
                c["characteristics.eval.memo_states"] += len(args[0].memo) - n0
            return before, after
        if layer == "characteristics.masks":
            def before(args):
                return _mask_cache_hit(args)

            def after(args, result, hit):
                c["characteristics.masks.searches"] += 0 if hit else 1
            return before, after
        if layer.startswith("intlinalg."):
            def after(args, result, _):
                c["intlinalg.max_bits"] = max(c["intlinalg.max_bits"], _max_bits(result))
            return None, after
        if layer == "presentation.expansion":
            def after(args, result, _):
                c["presentation.expansion.entries"] += len(result.rows) * result.beta
            return None, after
        if layer == "weyl.enumerate":
            def after(args, result, _):
                c["weyl.cosets"] += result.size
            return None, after
        return None, None

    def wrap(self, fn, layer, group=None):
        group = group or layer
        before, after = self._hooks(layer)
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(layer, group, fn, args, kwargs, before, after)
        return wrapper

    def wrap_method(self, fn, layer):
        """Like ``wrap``, for a method that recurses through ``self.<name>``.

        For the duration of a top-level call the instance gets the unwrapped
        method as an attribute of its own, so the recursion bypasses the
        wrapper instead of paying for it on every nested call.
        """
        name = fn.__name__
        inner = self.wrap(fn, layer)

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not self.active or layer in self._open_groups:
                return fn(obj, *args, **kwargs)
            try:
                setattr(obj, name, fn.__get__(obj))
            except AttributeError:  # no instance dict: recursion stays wrapped
                return inner(obj, *args, **kwargs)
            try:
                return inner(obj, *args, **kwargs)
            finally:
                delattr(obj, name)
        return wrapper

    def summary(self) -> dict:
        """Totals per layer: calls, seconds, self seconds, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        for layer, dur, child in self.spans:
            out[layer + ".calls"] += 1
            out[layer + ".s"] += dur
            out[layer + ".self_s"] += dur - child
        for key, value in self.counters.items():
            out[key] = value
        return dict(out)


def install(tracer: Tracer):
    """Wrap every target at every flagcalc module attribute that names it.

    Returns a function that puts the originals back.  Targets the program no
    longer has are listed in ``tracer.missing`` and their metrics read 0.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "flagcalc" or name.startswith("flagcalc."))]
    undo = []
    for modname, attr, layer, group in FUNCTION_TARGETS:
        original = getattr(sys.modules.get(modname), attr, None)
        if original is None:
            tracer.missing.add(f"{modname}.{attr}")
            continue
        wrapper = tracer.wrap(original, layer, group)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))
    for modname, clsname, meth, layer in METHOD_TARGETS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        original = getattr(cls, meth, None)
        if original is None:
            tracer.missing.add(f"{modname}.{clsname}.{meth}")
            continue
        setattr(cls, meth, tracer.wrap_method(original, layer))
        undo.append((cls, meth, original))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return restore


def layer_metrics(totals: dict, passes: int) -> dict:
    """The per-layer metrics of LAYER_METRICS, per pass, from merged totals."""
    def get(key):
        return totals.get(key, 0.0)

    per_pass = {key: get(key) / passes for key in LAYER_METRICS}
    eval_calls = get("characteristics.eval.calls")
    per_pass["characteristics.eval.states_per_call"] = (
        get("characteristics.eval.memo_states") / eval_calls if eval_calls else 0.0)
    mask_calls = get("characteristics.masks.calls")
    per_pass["characteristics.masks.hit_ratio"] = (
        1.0 - get("characteristics.masks.searches") / mask_calls if mask_calls else 0.0)
    per_pass["intlinalg.max_bits"] = get("intlinalg.max_bits")
    return per_pass


def merge(into: dict, totals: dict) -> None:
    """Add one process's totals into another; bit widths take the maximum."""
    for key, value in totals.items():
        if key == "intlinalg.max_bits":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
