"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the ``icpower`` layer
modules, in every module namespace that binds it, with a wrapper; ``remove``
puts the originals back.  The program itself is not changed.

Most wrappers record a span (name, start, end, parent) into flat in-memory
arrays.  The scalar hot functions in ``COUNTED`` are only counted: they run
millions of times per cycling pricing operation, and a span each would
both swamp the trace and distort the timings.  A counted call's time stays
in its caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("config", "network", "continuous", "numerics", "efficiency", "finite",
          "repeated", "cli")
COUNTED = ("continuous.packet_throughput", "continuous.ee_utility", "network.sinr",
           "network.effective_gain")
# Methods traced in addition to the modules' public functions.
METHODS = (("continuous", "SolveReport", "to_dict"),)
PRICED_BR = "continuous.best_response_priced"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}  # name -> [calls, calls inside a priced BR]
        self.results: dict[str, float] = defaultdict(float)
        self.priced_br_open = [0]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack, names, parents = self.stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        observe = _OBSERVERS.get(name)
        results = self.results
        br_open = self.priced_br_open if name == PRICED_BR else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if br_open is not None:
                br_open[0] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if br_open is not None:
                    br_open[0] -= 1
            if observe is not None:
                for key, value in observe(out):
                    results[key] += value
            return out

        return wrapper

    def _count(self, fn, name: str):
        cell = self.counts.setdefault(name, [0, 0])
        br_open = self.priced_br_open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if br_open[0]:
                cell[1] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"icpower.{m}") for m in LAYERS}
        namespaces = [importlib.import_module("icpower"), *mods.values()]
        wrappers = {}
        for m, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not inspect.isclass(obj):
                    name = f"{m}.{attr}"
                    make = self._count if name in COUNTED else self._span
                    wrappers[id(obj)] = (obj, make(obj, name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])
        for m, cls_name, meth in METHODS:
            cls = getattr(mods[m], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._span(fn, f"{m}.{cls_name}.{meth}"))

    def remove(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Each name's summed span duration minus the time its child spans cover."""
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def span_calls(self) -> dict[str, int]:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        per_name = np.bincount(name, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def write(self, path: Path) -> None:
        """Write the spans as columns: name index, parent span, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=float),
                            end=np.frombuffer(self.span_end, dtype=float))


def _dynamics(report):
    yield "continuous.br_dynamics.iterations", report.iterations
    yield "continuous.br_dynamics.converged", int(report.converged)


_OBSERVERS = {
    "efficiency.pareto_frontier": lambda frontier: [
        ("efficiency.pareto_frontier.points_out", len(frontier))],
    "continuous.br_dynamics": _dynamics,
}
