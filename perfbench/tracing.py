"""Outside-in layer trace of dotdiode.

`Tracer` wraps every public function of the layer modules in every
namespace that binds it (module globals and module-level tables such as
`spectro_fit._SHAPES`), so a call is recorded however the caller reached
the function. Each call becomes a span (name, start, end, parent, op) kept
in memory; `restore()` puts every original back. Spans come from the
benchmark's files only; nothing inside the program is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "dataio", "device", "materials", "electrostatics", "transport",
          "qd_model", "spectro_fit")
METHODS = (("qd_model", "EmissionMap", "to_csv"),
           ("electrostatics", "BandDiagram", "to_csv"),
           ("transport", "IVCurve", "to_csv"))
# Called once per CSV value (2.4 million times for the large map); a span
# per call would swamp the writers it sits in.
UNTRACED = frozenset({"dataio.format_float"})
# Outermost spans of these names start a new op: one IV bias point or one
# band diagram. Every other span carries the op of the command around it.
OP_SPANS = frozenset({"transport.solve_drift_diffusion", "electrostatics.solve_bias"})


# What a call moved, measured from outside the function so that it does not
# depend on what the function returns: bytes of the file a writer left at
# its `path` argument, or rows of the columns a reader returned.
WRITERS = frozenset({"dataio.write_table", "qd_model.EmissionMap.to_csv",
                     "electrostatics.BandDiagram.to_csv", "transport.IVCurve.to_csv"})
READERS = frozenset({"dataio.read_table"})


def _amount_of(name, fn):
    """A function (args, kwargs, result) -> amount moved, or None."""
    if name in WRITERS:
        signature = inspect.signature(fn)
        return lambda args, kwargs, result: os.path.getsize(
            signature.bind(*args, **kwargs).arguments["path"])
    if name in READERS:
        return lambda args, kwargs, result: len(next(iter(result[0].values()), ()))
    return None


def traced_functions():
    """(span name, function) for each traced public function and method."""
    for layer in LAYERS:
        module = importlib.import_module(f"dotdiode.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                yield name, obj
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"dotdiode.{layer}"), cls_name)
        yield f"{layer}.{cls_name}.{method}", cls.__dict__[method]


def namespaces():
    """Every dict through which dotdiode code looks a function up by name."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dotdiode" and not mod_name.startswith("dotdiode."):
            continue
        ns = vars(module)
        yield ns
        for key, value in ns.items():
            if isinstance(value, dict) and not key.startswith("__"):
                yield value


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    amount: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Install with `with Tracer() as tracer:`; spans stay on `tracer.spans`."""

    def __init__(self):
        self.spans = []             # (name, start, end, parent index, op, amount)
        self.op = 0
        self.op_labels = {0: ""}
        self._stack = [-1]
        self._op_depth = 0
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def begin_op(self, label):
        """Start a new op (one CLI command) and return its id."""
        self.op = len(self.op_labels)
        self.op_labels[self.op] = label
        return self.op

    def install(self):
        wrappers = {}
        for name, fn in traced_functions():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for ns in namespaces():
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._undo.append((ns.__setitem__, key, value))
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"dotdiode.{layer}"), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, wrappers[id(original)][1])
            self._undo.append((functools.partial(setattr, cls), method, original))

    def restore(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        amount_of = _amount_of(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, 0)
            if amount_of is not None:
                spans[index] = (name, start, end, parent, self.op,
                                amount_of(args, kwargs, result))
            return result

        if name not in OP_SPANS:
            return traced

        @functools.wraps(fn)
        def traced_op(*args, **kwargs):
            if self._op_depth:
                return traced(*args, **kwargs)
            outer = self.op
            self._op_depth += 1
            self.begin_op(f"{self.op_labels[outer]}/{name}")
            try:
                return traced(*args, **kwargs)
            finally:
                self._op_depth -= 1
                self.op = outer

        return traced_op

    def stats(self):
        """Per span name: calls, inclusive and self time, amount, durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, amount) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += end - start - child_time[i]
            st.amount += amount
            st.durations.append(end - start)
        return out

    def child_calls(self, child, parent):
        """Number of `child` spans whose direct parent is a `parent` span."""
        spans = self.spans
        return sum(1 for name, _, _, p, _, _ in spans
                   if name == child and p >= 0 and spans[p][0] == parent)

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op, op label."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op,
                                     self.op_labels[op]]) + "\n")
