"""Spans and counters recorded around the package's layers from outside.

`Tracer.install` replaces, for the duration of a traced pass:
- every public function (listed in `__all__`) of the distributions,
  analytic, simulator and optimizer modules, in every package module that
  holds a reference to it, since the CLI and the other modules bind those
  names at import;
- `scipy.integrate.quad`, which the distributions module looks up at call
  time, and the integrands handed to it, to count evaluations;
- `sample` on each Distribution subclass.

A span is (name, start, end, parent index, op). Spans stay in memory and
are written out by the caller when the run ends. No package file changes.
"""
from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("distributions", "analytic", "simulator", "optimizer")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def op_span(self, op: str, name: str):
        self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.integrate

        from mginfpolling import distributions

        package = [m for name, m in sys.modules.items()
                   if name == "mginfpolling" or name.startswith("mginfpolling.")]
        for layer in LAYERS:
            module = sys.modules[f"mginfpolling.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrap(f"{layer}.{name}", fn)
                for holder in package:
                    if vars(holder).get(name) is fn:
                        self._patch(holder, name, traced)
        for cls in vars(distributions).values():
            if isinstance(cls, type) and issubclass(cls, distributions.Distribution) \
                    and "sample" in vars(cls):
                self._patch(cls, "sample",
                            self._wrap("distributions.sample", vars(cls)["sample"]))

        quad = scipy.integrate.quad
        counts = self.counts

        def counted_quad(func, *args, **kwargs):
            op = self.op
            counts[op, "quad_calls"] += 1

            def integrand(x, *fargs):
                counts[op, "integrand_evals"] += 1
                return func(x, *fargs)
            return quad(integrand, *args, **kwargs)

        self._patch(scipy.integrate, "quad", counted_quad)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, parent, op) in enumerate(spans)]
