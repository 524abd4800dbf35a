"""Span recorder for the traced benchmark run.

At start-up the recorder rebinds every public function of the six haflab
layers to a timing wrapper, in every ``haflab*`` module namespace that
holds a reference to it (so ``sampling.hafnian_dp`` and ``cli.run_battery``
are wrapped too, not only ``matfun.hafnian_dp``).  Each call records one
span ``(name, start, end, parent, op)``; spans stay in memory until
``dump`` writes them once.  Self time is a span's duration minus the part
of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("matfun", "kernels", "sampling", "fock", "cli", "verify")

# Constructors that do real work are wrapped through __init__.
CLASSES = {"fock": ("FockBasis",)}


def _quadrature_tuples(args, kwargs, out):
    boxes = args[1] if len(args) > 1 else kwargs["boxes"]
    return {"sampling.quadrature_tuples": math.prod(len(b) for b in boxes)}


# Counters read at a layer boundary from the call's arguments or result.
COUNTERS = {
    "fock.FockBasis": lambda args, kwargs, out: {"fock.basis_states": args[0].size},
    "sampling.quadrature_haf_moment": _quadrature_tuples,
    "verify.run_battery": lambda args, kwargs, out: {
        "verify.checks": len(out),
        "verify.checks_failed": sum(not r.passed for r in out)},
}


class Recorder:
    """In-memory spans and counters; recording only while ``enabled``."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op)
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def span(self, name: str, fn, counter=None):
        """Wrap ``fn`` so that each call while enabled records a span."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    self.counters[key] += value
            return out

        return wrapper

    def install(self) -> int:
        """Rebind the public layer functions; returns how many were wrapped."""
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"haflab.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.span(name, obj, COUNTERS.get(name)))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                name = f"{layer}.{cls_name}"
                init = cls.__init__
                self._restore.append((cls, "__init__", init))
                cls.__init__ = self.span(name, init, COUNTERS.get(name))
        haflab_modules = [m for key, m in list(sys.modules.items())
                          if key == "haflab" or key.startswith("haflab.")]
        for mod in haflab_modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return len(wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> int:
        """Write every span once, one JSON list ``[name, start, end,
        parent, op]`` per line; returns the number of lines written."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        with open(path, "r", encoding="ascii") as fh:
            return sum(1 for _ in fh)


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the parent's interval)."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Total calls and self seconds per span name, plus per layer."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name]["calls"] += 1
        totals[name]["self_s"] += own
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += own
    return dict(totals)
