"""Call tracing for qcgraph from outside the library.

``Tracer.install`` wraps every public function of each qcgraph module, in
every ``qcgraph.*`` namespace that binds it (``from .weights import act``
leaves a second reference in ``cohomology``, ``external``, ``represent`` and
``factorize``), plus selected methods on their classes.  Each wrapper counts
calls and accumulates self time: its duration minus the time of wrapped
calls made inside it.  Calls into functions that cross a layer boundary
(the caller's module differs from the callee's) are also stored as spans
(name, start, end, parent, job id); hot leaf calls keep only counts and
time.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Optional

LAYERS = (
    "cli",
    "graph",
    "f2",
    "weights",
    "circle",
    "cohomology",
    "external",
    "represent",
    "factorize",
)

# methods traced on their classes: (module, class, attribute, reported name)
METHODS = (
    ("circle", "CircleValue", "__mul__", "circle.mul"),
    ("circle", "CircleValue", "__post_init__", "circle.new"),
    ("cohomology", "CocycleTable", "value", "cohomology.CocycleTable.value"),
    ("f2", "F2Span", "solve", "f2.F2Span.solve"),
)

# leaf functions called per table entry or per weight: counts and time only
HOT = {"weights.act"}

# functions whose distinct inputs are counted: (graph, level, boundary)
KEYED = {"weights.enumerate_admissible", "weights.orbits"}

SPAN_LIMIT = 200_000


def _instance_key(graph, k, boundary):
    return graph, k, frozenset(boundary.items())


class Tracer:
    """Counts, self times, distinct inputs and spans of qcgraph calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.keys: list[Optional[set]] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job id)
        self.span_count = 0  # span ids issued so far
        self.dropped_spans = 0
        self.active = False
        self.job: object = None
        # child-time accumulators, one per open call; the bottom entry is
        # the job itself
        self._child: list[float] = []
        # (span id, layer) of the innermost open span-recording call
        self._open: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._job_idx = self._register("job")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qcgraph" or name.startswith("qcgraph.")
        }
        wrappers: dict[int, Callable] = {}
        originals: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[f"qcgraph.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, layer, hot=name in HOT)
                originals[id(obj)] = obj
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        graph_cls = modules["qcgraph.graph"].Graph
        for attr, obj in list(vars(graph_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(
                    graph_cls, attr, self._wrap(obj, f"graph.{attr}", "graph", hot=True)
                )
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[f"qcgraph.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, layer, hot=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.keys.append(set() if name in KEYED else None)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, name: str, layer: str, hot: bool) -> Callable:
        idx = self._register(name)
        calls, self_s, child = self.calls, self.self_s, self._child
        keys = self.keys[idx]
        clock = time.perf_counter
        tracer = self

        if hot:

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                calls[idx] += 1
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    self_s[idx] += dur - child.pop()
                    child[-1] += dur

        else:
            opened = self._open
            spans = self.spans

            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                calls[idx] += 1
                if keys is not None:
                    keys.add(_instance_key(*args, **kwargs))
                parent_id, parent_layer = opened[-1]
                boundary = layer != parent_layer
                if boundary:
                    tracer.span_count += 1
                    span_id = tracer.span_count
                    opened.append((span_id, layer))
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    self_s[idx] += dur - child.pop()
                    child[-1] += dur
                    if boundary:
                        opened.pop()
                        if len(spans) < SPAN_LIMIT:
                            spans.append((span_id, idx, t0, t1, parent_id, tracer.job))
                        else:
                            tracer.dropped_spans += 1

        return functools.update_wrapper(wrapper, fn)

    # -- jobs --------------------------------------------------------------

    def run_job(self, job_id: object, fn: Callable[[], object]) -> object:
        """Run fn as one job: its wrapped calls are attributed to job_id."""
        self.job = job_id
        self.span_count += 1
        span_id = self.span_count
        self._child.append(0.0)
        self._open.append((span_id, "job"))
        self.calls[self._job_idx] += 1
        self.active = True
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._open.pop()
            self.self_s[self._job_idx] += t1 - t0 - self._child.pop()
            self.spans.append((span_id, self._job_idx, t0, t1, None, job_id))

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per traced name: calls, self time, distinct inputs."""
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": self.calls[i], "self_s": self.self_s[i]}
            if self.keys[i] is not None:
                out[name]["distinct"] = len(self.keys[i])
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self.self_s[i]
        return out

    def dump(self, path: str) -> None:
        """Write totals, per-layer self time and the stored spans as JSON."""
        doc = {
            "totals": self.totals(),
            "layer_self_s": self.layer_self_s(),
            "span_fields": ["id", "name", "start", "end", "parent", "job"],
            "spans": [
                [sid, self.names[idx], t0, t1, parent, job]
                for sid, idx, t0, t1, parent, job in self.spans
            ],
            "dropped_spans": self.dropped_spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
