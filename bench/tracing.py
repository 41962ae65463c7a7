"""In-memory span tracing around the calls into kernel_lab's layer modules.

Tracing is installed from the outside, through the same module-attribute
seam that ``kernel_lab.debug`` patches: every public function of a layer
module is replaced, at every module attribute that binds it, by a wrapper
that records one span (name, start, end, parent).  ``from .x import y``
binds a separate name in each consumer module, so the package namespace,
the defining module and every consumer are all patched; containers of
functions held in module attributes (``acceptance.CRITERIA``,
``cli._DISPATCH``) are rebuilt with the wrappers.  A few methods and
scipy's ``quad`` as bound in ``fracop`` are wrapped by name.

Hot per-point callables (field and mollifier evaluation) get counting
hooks without spans, so their call volume does not distort the spans of
the functions that call them.  ``uninstall`` restores every original
attribute, so untraced passes run the unmodified program.
"""

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "kernel_lab"

# The package's modules that do work worth measuring; errors and debug
# are excluded.
LAYERS = (
    "specfun",
    "quadrature",
    "green",
    "fracop",
    "boundary",
    "rkhs",
    "domains",
    "hadamard",
    "report",
    "scenarios",
    "cli",
    "acceptance",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_points(domain, pts):
    pts = np.asarray(pts)
    if domain.kind == "interval":
        return int(pts.size)
    return 1 if pts.ndim == 1 else int(pts.shape[0])


def _report_bytes(text):
    # bytes up to the volatile field, which alone varies between runs
    return len(text[: text.rfind('"volatile"')].encode("utf-8"))


# Work counts recorded at span boundaries: span name -> (suffix, fn(args,
# kwargs) -> count).
_SPAN_COUNTS = {
    "specfun.boundary_integral_B_array": (
        "points", lambda a, k: int(np.size(_arg(a, k, 0, "r0")))),
    "quadrature.panel_integrate": (
        "panels", lambda a, k: max(len(_arg(a, k, 1, "breakpoints")) - 1, 0)),
    "green.green_fractional_profile": (
        "points", lambda a, k: int(np.size(_arg(a, k, 3, "y_arr")))),
    "boundary.apply_M_power": (
        "nodes", lambda a, k: _arg(a, k, 0, "field").grid.n),
    "domains.BoundaryGrid.field_from_function": (
        "nodes", lambda a, k: a[0].n),
    "rkhs.gram_matrix": (
        "pairs", lambda a, k: (lambda m: m * (m + 1) // 2)(len(_arg(a, k, 3, "points")))),
}

# Counts taken from a span's result: span name -> (metric, fn(result)).
_RESULT_COUNTS = {
    "report.Report.to_json": ("report.bytes", _report_bytes),
}

# Methods wrapped with spans: (module, class, method).
_SPAN_METHODS = (
    ("domains", "BoundaryGrid", "field_from_function"),
    ("rkhs", "KernelMatrix", "eigenvalues"),
    ("report", "Report", "to_json"),
)

# Methods hooked with a point count only: (module, class, method, metric).
_COUNT_METHODS = (
    ("fracop", "SampledInteriorField", "__call__", "fracop.SampledInteriorField.points"),
    ("fracop", "MollifierSpec", "density", "fracop.MollifierSpec.density.points"),
)

# Calls whose ToleranceError is a refusal to certify an answer.
_REFUSALS = ("fracop.frac_laplacian_apply",)


class Tracer:
    """Spans and counts of one traced pass.

    Spans live in parallel lists; ``parents[i]`` is the index of the span
    open when span i started, or -1.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._wrappers = {}

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, refusal=None):
        tracer = self
        count = _SPAN_COUNTS.get(name)
        result_count = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                tracer.counts[name + "." + count[0]] += count[1](args, kwargs)
            tracer._stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result_count is not None:
                    tracer.counts[result_count[0]] += result_count[1](result)
                return result
            except Exception as exc:
                if refusal is not None and isinstance(exc, refusal):
                    tracer.counts[name + ".refused"] += 1
                raise
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, metric, fn):
        tracer = self

        def counted(obj, pts, *args, **kwargs):
            tracer.counts[metric] += _n_points(obj.domain, pts)
            return fn(obj, pts, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _swap(self, value):
        """value with every traced function replaced; (new, changed)."""
        if inspect.isfunction(value) and value in self._wrappers:
            return self._wrappers[value], True
        if isinstance(value, (tuple, list)):
            parts = [self._swap(v) for v in value]
            if any(changed for _, changed in parts):
                return type(value)(p for p, _ in parts), True
        elif isinstance(value, dict):
            parts = {k: self._swap(v) for k, v in value.items()}
            if any(changed for _, changed in parts.values()):
                return {k: p for k, (p, _) in parts.items()}, True
        return value, False

    def install(self):
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        layer_of = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        tolerance_error = importlib.import_module(f"{PACKAGE}.errors").ToleranceError

        for module in modules:
            for value in vars(module).values():
                if (inspect.isfunction(value) and value.__module__ in layer_of
                        and not value.__name__.startswith("_")
                        and value not in self._wrappers):
                    name = f"{layer_of[value.__module__]}.{value.__name__}"
                    refusal = tolerance_error if name in _REFUSALS else None
                    self._wrappers[value] = self._span(name, value, refusal)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                new, changed = self._swap(value)
                if changed:
                    self._patch(module, attr, new)

        # scipy's quad is also bound in specfun; only the fracop binding is
        # the principal-value far field
        fracop = importlib.import_module(f"{PACKAGE}.fracop")
        self._patch(fracop, "quad", self._span("fracop.quad", fracop.quad))

        for mod, cls_name, method in _SPAN_METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
            name = f"{mod}.{cls_name}.{method}"
            self._patch(cls, method, self._span(name, vars(cls)[method]))
        for mod, cls_name, method, metric in _COUNT_METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), cls_name)
            self._patch(cls, method, self._counter(metric, vars(cls)[method]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
        return dict(out)

    def spans(self, origin):
        """Spans as (name index, start, end, parent) relative to origin."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        return {
            "names": list(index),
            "spans": [
                [index[n], s - origin, e - origin, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
