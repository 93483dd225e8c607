"""Span tracer that wraps endochart's layer functions from outside.

The library is not edited: `Tracer.install` replaces each wrapped function
in every module that binds it (``charts`` imports ``integrate_flow`` by
name, the package re-exports most functions) and each wrapped method on its
class, and `Tracer.uninstall` puts every original binding back.

Spans are kept in memory as ``[name, parent, start, end]`` lists.  Spans
nest strictly because the benchmark is single-threaded, so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "endochart"

# (module, function name) -> span group.  Groups are the per-layer metric
# prefixes; a callable group derives the name from the call's arguments.
SPAN_FUNCTIONS = {
    ("expr", "compile_expr"): "expr.compile",
    ("expr", "compile_vector"): "expr.compile",
    ("fields", "lie_bracket"): "fields.symbolic",
    ("fields", "nijenhuis"): "fields.symbolic",
    ("fields", "apply_endo"): "fields.symbolic",
    ("fields", "endo_power"): "fields.symbolic",
    ("structure", "constancy_check"): "structure.rank",
    ("structure", "rank_profile"): "structure.rank",
    ("structure", "nijenhuis_residual"): "structure.torsion",
    ("structure", "kernel_frame"): "structure.frames",
    ("structure", "image_frame"): "structure.frames",
    ("structure", "sum_distribution"): "structure.frames",
    ("structure", "involutivity_residual"): "structure.involutivity",
    ("flows", "integrate_flow"): "flows.integrate",
    ("flows", "integrate_with_transport"): "flows.transport",
    ("flows", "numeric_bracket"): "flows.bracket",
    ("charts", "validate_adapted_chart"): "charts.validate",
    ("charts", "hk_residuals"): lambda args, kwargs: (
        f"charts.hk.k{(args[0] if args else kwargs['state']).k}"),
    ("charts", "verify_integral_chart"): "charts.verify",
    ("corpus", "build_corpus_field"): "corpus.build",
}

# (module, class, method) -> span group.
SPAN_METHODS = {
    ("charts", "ChartMap", "forward"): "charts.forward",
    ("charts", "ChartMap", "coords"): "charts.coords",
}


def _rk4_steps(spec, t) -> int:
    """Steps `_rk4_point`/`_rk4_transport` take for flow time t."""
    t = float(t)
    if t == 0.0 or spec.settings.integrator != "rk4":
        return 0
    return max(1, math.ceil(abs(t) / spec.settings.step))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _spanned(self, group, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            if count is not None:
                count(args, kwargs)
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span (used for the benchmark's own op roots)."""
        return self._spanned(name, fn)(*args, **kwargs)

    def _count_steps(self, key):
        counts = self.counts

        def count(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            t = args[2] if len(args) > 2 else kwargs["t"]
            counts[key] += _rk4_steps(spec, t)
        return count

    def _counted_compile(self, fn):
        """compile_* wrapper whose returned callables count their calls."""
        counts = self.counts

        @functools.wraps(fn)
        def compile_counted(*args, **kwargs):
            compiled = fn(*args, **kwargs)

            def counted(x):
                counts["expr.evals"] += 1
                return compiled(x)
            return counted
        return self._spanned("expr.compile", compile_counted)

    def _counted_value(self, fn):
        """ComputedVectorField.value wrapper: evaluations and cache misses."""
        counts = self.counts

        @functools.wraps(fn)
        def value(field, p):
            before = field.cache_size()
            out = fn(field, p)
            counts["flows.computed.values"] += 1
            if field.cache_size() > before:
                counts["flows.computed.misses"] += 1
            return out
        return value

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every module-level binding of `original` at `replacement`."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every layer function in every endochart module binding it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for (mod_name, fn_name), group in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            if mod_name == "expr":
                wrapped = self._counted_compile(original)
            elif fn_name == "integrate_flow":
                wrapped = self._spanned(group, original,
                                        self._count_steps("flows.rk4_steps"))
            elif fn_name == "integrate_with_transport":
                wrapped = self._spanned(group, original,
                                        self._count_steps("flows.transport_steps"))
            else:
                wrapped = self._spanned(group, original)
            self._rebind(original, wrapped)
        for (mod_name, cls_name, meth), group in SPAN_METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._spanned(group, original))
        cls = sys.modules[f"{PACKAGE}.flows"].ComputedVectorField
        original = vars(cls)["value"]
        self._patches.append((cls, "value", original))
        cls.value = self._counted_value(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, Counter]:
        """Per span name: (self seconds, total seconds, calls)."""
        child = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(i, 0.0)
            total_s[name] += end - start
            calls[name] += 1
        return dict(self_s), dict(total_s), calls
