"""Layer spans recorded from outside the library.

``Tracer.installed()`` replaces the public functions and methods of the
``data``, ``model``, ``curvature``, ``cg`` and ``train`` modules with
wrappers that append one span (name, start, end, parent) per call to an
in-memory list, and puts the originals back on exit. Nothing is written
while the program runs; ``spans_jsonl`` serialises the list afterwards.

The training loop calls ``gradient``, ``rmse``, ``init_factors`` and
``cg_solve`` through names bound in the ``sofactor.train`` module, and
the package attribute ``sofactor.train`` is the ``train`` function, not
that module. The loop's names are therefore patched in
``sys.modules["sofactor.train"]``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    # exact counts gathered from call results, not from timing
    cg_iters: int = 0
    useful_steps: int = 0
    _stack: list = field(default_factory=list)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def wrap_rmse(self, fn):
        def traced(x, eval_set):
            return self._call(f"model.rmse.{eval_set.role}", fn, (x, eval_set), {})
        return traced

    def wrap_cg(self, fn):
        def traced(*args, **kwargs):
            result = self._call("cg.solve", fn, args, kwargs)
            self.cg_iters += result.iterations
            self.useful_steps += bool(np.any(result.delta))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        data = sys.modules["sofactor.data"]
        model = sys.modules["sofactor.model"]
        curvature = sys.modules["sofactor.curvature"]
        loop = sys.modules["sofactor.train"]
        ctx = curvature.CurvatureContext
        ds = data.IndexedDataset
        patches = [
            (data, "load_dataset", self.wrap("data.load", data.load_dataset)),
            (data, "split", self.wrap("data.split", data.split)),
            (data, "build_index", self.wrap("data.index", data.build_index)),
            (ds, "user_weighted_sums", self.wrap("data.scatter", ds.user_weighted_sums)),
            (ds, "service_weighted_sums", self.wrap("data.scatter", ds.service_weighted_sums)),
            (model, "save_factors", self.wrap("model.save", model.save_factors)),
            (loop, "train", self.wrap("train", loop.train)),
            (loop, "init_factors", self.wrap("model.init", loop.init_factors)),
            (loop, "gradient", self.wrap("model.gradient", loop.gradient)),
            (loop, "rmse", self.wrap_rmse(loop.rmse)),
            (loop, "cg_solve", self.wrap_cg(loop.cg_solve)),
            (ctx, "__init__", self.wrap("curvature.ctx_build", ctx.__init__)),
            (ctx, "damped_hvp", self.wrap("curvature.hvp", ctx.damped_hvp)),
            (ctx, "jacobian_vector", self.wrap("curvature.jv", ctx.jacobian_vector)),
            (loop.BestSnapshot, "consider",
             self.wrap("train.snapshot", loop.BestSnapshot.consider)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def span_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Median cost of one span: a wrapped empty call minus a bare one.

    It leaves out what a wrapper costs the wrapped code (cache and
    allocator effects), so span count times this is a lower bound.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def descendants(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span below it (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def spans_jsonl(pipelines) -> str:
    """One JSON object per span; ``pipeline`` ties the spans of one run together."""
    lines = []
    for pid, spans in pipelines:
        for i, s in enumerate(spans):
            lines.append(json.dumps({"pipeline": pid, "id": i, "name": s.name,
                                     "start": s.start, "end": s.end, "parent": s.parent}))
    return "\n".join(lines) + "\n"
