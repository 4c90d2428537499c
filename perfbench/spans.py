"""Timing spans recorded from outside the package.

``Instrumentation(tracer).install()`` replaces every public function of each ``e2qes``
module with a wrapper that records a span, at every place the function
is bound: module globals (including names re-imported into ``cli``,
``verify``, ``invariants`` and the package namespace) and module-level
tables such as the CLI's command map and the battery's check list.  It
also wraps a few methods and private helpers that carry one layer's work
(text parsing, evaluation, serialization), and ``sympy.lambdify`` and
``sympy.expand`` where the package calls them.  ``restore()`` undoes it.

Spans are (id, parent id, name, start, end, error type) and stay in
memory; ``summarize`` turns them into self time and counts per name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "timefunc", "model", "dyson", "algebra", "qes", "special",
           "observables", "invariants", "verify")
# methods and private helpers that carry one layer's work: (module, owner, attr)
EXTRA = (
    ("timefunc", None, "_parse_text"),
    ("timefunc", "TimeFunction", "__call__"),
    ("timefunc", "TimeFunction", "serialize"),
    ("timefunc", "TimeFunction", "derivative"),
    ("timefunc", "TimeFunction", "integrate_from_zero"),
    ("model", "CoefficientSet", "from_json_dict"),
    ("model", "CoefficientSet", "to_json_dict"),
    ("dyson", None, "_frame"),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, fn, *args, **kwargs):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def nested_in(self, prefix):
        return any(self.spans[i][2].startswith(prefix) for i in self.stack)


def _swap(value, mapping):
    """value with wrapped functions substituted, or value itself."""
    if callable(value) and id(value) in mapping:
        return mapping[id(value)][1]
    if isinstance(value, dict):
        new = {k: _swap(v, mapping) for k, v in value.items()}
        return new if any(new[k] is not value[k] for k in value) else value
    if isinstance(value, (tuple, list)):
        new = [_swap(v, mapping) for v in value]
        if any(a is not b for a, b in zip(new, value)):
            return type(value)(new)
    return value


class Instrumentation:
    """Installed wrappers and what they replaced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []  # (owner, attribute, original value)
        self.generators = None  # build_generators itself, for its cache counters

    def install(self):
        import sympy

        pkg = [m for name, m in list(sys.modules.items())
               if name == "e2qes" or name.startswith("e2qes.")]
        self.generators = sys.modules["e2qes.algebra"].build_generators
        mapping = {}  # id(original) -> (original, wrapper)
        for layer in MODULES:
            mod = sys.modules.get(f"e2qes.{layer}")
            if mod is None:  # not imported by this workload
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                mapping[id(fn)] = (fn, self.tracer.wrap(self._name(layer, attr, mod), fn))
        for layer, owner, attr in EXTRA:
            mod = sys.modules.get(f"e2qes.{layer}")
            if mod is None:
                continue
            target = getattr(mod, owner) if owner else mod
            if not hasattr(target, attr):
                print(f"perfbench: {layer}.{attr} not found; not traced", file=sys.stderr)
                continue
            raw = inspect.getattr_static(target, attr)
            fn = getattr(target, attr)
            name = f"{layer}.{attr.strip('_')}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.tracer.wrap(name, raw.__func__))
            else:
                wrapped = self.tracer.wrap(name, fn)
            if owner:
                self._set(target, attr, wrapped)
            else:
                mapping[id(fn)] = (fn, wrapped)
        for mod in pkg:
            for attr, value in list(vars(mod).items()):
                new = _swap(value, mapping)
                if new is not value:
                    self._set(mod, attr, new)
        for attr, name in (("lambdify", "timefunc.compile"), ("expand", None)):
            self._set(sympy, attr, self._sympy_wrapper(getattr(sympy, attr), name))

    def _name(self, layer, attr, mod):
        if layer == "verify" and attr.startswith("check_"):
            for check, fn in getattr(mod, "_ALL_CHECKS", ()):
                if fn is getattr(mod, attr):
                    return f"verify.{check}"
        return f"{layer}.{attr}"

    def _sympy_wrapper(self, fn, name):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:  # not called from the package
                return fn(*args, **kwargs)
            label = name or ("dyson.expand" if tracer.nested_in("dyson.")
                             else "sympy.expand")
            return tracer.span(label, fn, *args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def summarize(spans):
    """Self time, whole time, call count and escaping errors per span name."""
    child = defaultdict(float)
    for sid, parent, name, start, end, err in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for sid, parent, name, start, end, err in spans:
        self_s[name] += (end - start) - child[sid]
        total_s[name] += end - start
        calls[name] += 1
        if err:
            errors[name] += 1
    return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls),
            "errors": dict(errors)}


def merge(into, summary):
    for key in ("self_s", "total_s", "calls", "errors"):
        for name, v in summary[key].items():
            into[key][name] = into[key].get(name, 0) + v
    return into
