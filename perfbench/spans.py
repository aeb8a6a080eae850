"""Outside-in tracing of the tenfold layers.

The tracer replaces every public module-level function of each layer
module with a wrapper that records a span, wherever the function is bound:
its home module and every tenfold module that imported it by name (so
`boundary.extend_contraction` and `cli.check_membership` are traced too).
Spans are recorded only inside an operation, kept in memory, and reduced
to per-operation figures when the run ends.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "tenfold"
LAYERS = ("matcore", "basespace", "symclass", "invariants", "boundary",
          "toeplitz", "serialize", "cli", "catalog", "verify")
ROOT = "trace.glue"  # the operation's own span: benchmark code inside an op

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self._stack = []
        self._op = None
        self.counts = Counter()  # exact event counts at layer boundaries
        self.names = {ROOT, "toeplitz.FC.mul"}  # every span and counter name
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
                    self.names.add(f"{layer}.{name}")
        for mod in list(modules.values()) + [sys.modules[PACKAGE]]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        fc = modules["toeplitz"].FC
        for attr in ("__mul__", "__rmul__"):
            orig = fc.__dict__[attr]
            self._undo.append((fc, attr, orig))
            setattr(fc, attr, self._count("toeplitz.FC.mul", orig))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            if self._op is not None:
                counts[key] += 1
            return fn(*args)
        return counted

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        # membership reports carry `ok`; count passes to give a useful-work ratio
        judged = name == "symclass.check_membership"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if judged and out.ok:
                    counts[name + ".ok"] += 1
                return out
            finally:
                span[_END] = clock()
                stack.pop()
        return traced

    # -- operations ----------------------------------------------------------

    def begin(self, op_id):
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, op_id])

    def end(self):
        self.spans[self._stack.pop()][_END] = time.perf_counter()
        self._op = None

    # -- reduction -------------------------------------------------------------

    def summary(self, scale=1.0):
        """Per-operation means: calls and self ms per span name, self ms per
        layer, and the mean operation time (the sum of all self times).
        Times are multiplied by `scale`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        calls, self_s, layer_s = Counter(), defaultdict(float), defaultdict(float)
        ops, op_s = 0, 0.0
        for s, c in zip(self.spans, child):
            dur = s[_END] - s[_START]
            calls[s[_NAME]] += 1
            self_s[s[_NAME]] += dur - c
            layer_s[s[_NAME] if s[_NAME] == ROOT
                    else s[_NAME].split(".", 1)[0]] += dur - c
            if s[_PARENT] < 0:
                ops += 1
                op_s += dur
        n = max(ops, 1)
        ms = 1e3 * scale / n
        return {
            "ops": ops,
            "op_ms": ms * op_s,
            "calls": {k: v / n for k, v in calls.items()},
            "self_ms": {k: ms * v for k, v in self_s.items()},
            "layer_self_ms": {k: ms * v for k, v in layer_s.items()},
            "counts": {k: v / n for k, v in self.counts.items()},
            "raw_calls": dict(calls),
            "raw_counts": dict(self.counts),
        }
