"""Timing spans around the public calls of each layer, from outside.

The traced pass of the benchmark wraps one public entry point per layer
(``ExperimentSpec.from_json``, ``run_experiment``, ``Topology.path``,
``FluidEngine.run``, ...) with a span that records its wall time and
how much of that time its child spans covered.  Nothing inside
``src/repro`` changes: each wrapper is patched into every namespace a
caller looks the name up in (for example both
``repro.experiment.registry.build_design`` and
``repro.chaos.sample.build_design``) and removed again after the op.

Spans live in memory and can be written out as Chrome ``trace_event``
JSON at the end.  A layer's *self time* is its span's duration minus
the time covered by its child spans, so the self times of one op's
spans (root included) add up to the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name -> the (module, attribute path) pairs patched for it.
#: Where a function is imported by name into another module, every
#: namespace that calls it is listed, so no call escapes the wrapper.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "experiment.parse": (("repro.experiment.spec",
                          "ExperimentSpec.from_json"),),
    "experiment.run": (("repro.experiment", "run_experiment"),
                       ("repro.experiment.runner", "run_experiment"),
                       ("repro.serve.scheduler", "run_experiment")),
    "exec.map": (("repro.exec.runner", "ParallelRunner.map"),),
    "exec.cache.load": (("repro.exec.cache", "ResultCache.load"),),
    "exec.cache.store": (("repro.exec.cache", "ResultCache.store"),),
    "analysis.sweep": (("repro.analysis.sweep", "sweep"),
                       ("repro.analysis", "sweep")),
    "core.design": (("repro.experiment.registry", "build_design"),
                    ("repro.chaos.sample", "build_design")),
    "scenario.build": (("repro.scenario", "Scenario.from_spec"),),
    "scenario.run": (("repro.scenario", "Scenario.run"),),
    "tcp.measure": (("repro.tcp.connection", "TcpConnection.measure"),),
    "netsim.path": (("repro.netsim.topology", "Topology.path"),),
    "netsim.profile": (("repro.netsim.topology", "Topology.profile"),),
    "workloads.matrix": (("repro.workloads", "traffic_matrix"),
                         ("repro.workloads.matrix", "traffic_matrix")),
    "workloads.backbone": (("repro.workloads", "wan_backbone"),
                           ("repro.workloads.matrix", "wan_backbone")),
    "tcp.multiflow.init": (("repro.tcp.simulate",
                            "MultiFlowSimulation.__init__"),),
    "tcp.multiflow.run": (("repro.tcp.simulate", "MultiFlowSimulation.run"),),
    "fluid.classes": (("repro.fluid", "build_flow_classes"),
                      ("repro.fluid.classes", "build_flow_classes")),
    "fluid.engine": (("repro.fluid.engine", "FluidEngine.run"),),
}


#: Layers whose return value carries a count: layer -> (counter name,
#: how to read it off the result).
RESULT_COUNTERS: Dict[str, Tuple[str, Callable[[object], float]]] = {
    "exec.cache.load": ("hits", lambda entry: entry is not None),
    "fluid.classes": ("count", len),
    "fluid.engine": ("ticks", lambda result: result.ticks),
}


def _resolve(module: str, attr_path: str):
    """``(owner, attribute name)`` for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, name = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class SpanRecorder:
    """Collects spans in memory while its wrappers are installed.

    Spans are ``(root kind, layer, start, end, self time, depth)``
    tuples; ``root kind`` names the benchmark op they ran under
    (``cold``, ``warm``, ``run``, ``setup``), so layer totals can be
    reported per op of the kind the layer serves.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, float, float, float, int]] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        root = stack[0][0] if stack else frame[0]
        self.spans.append((root, frame[0], frame[1], end,
                           duration - frame[2], len(stack)))

    @contextlib.contextmanager
    def root(self, kind: str) -> Iterator[None]:
        """One benchmark op of ``kind`` (a root span)."""
        frame = self._enter(kind)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counter is not None:
                stack = self._stack()
                root = stack[0][0] if stack else layer
                name, read = counter
                self.counters[(root, f"{layer}.{name}")] += float(read(result))
            return result

        return wrapper

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        """Patch every layer target; :meth:`uninstall` restores them."""
        if self._saved:
            return
        for layer, targets in LAYER_TARGETS.items():
            for module, attr_path in targets:
                owner, name = _resolve(module, attr_path)
                original = (owner.__dict__[name] if isinstance(owner, type)
                            else getattr(owner, name))
                if isinstance(original, (staticmethod, classmethod)):
                    patched = type(original)(
                        self._wrap(layer, original.__func__))
                else:
                    patched = self._wrap(layer, original)
                self._saved.append((owner, name, original))
                setattr(owner, name, patched)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self, on: bool) -> Iterator[None]:
        """Install the wrappers for the body only when ``on``."""
        if on:
            self.install()
        try:
            yield
        finally:
            if on:
                self.uninstall()

    # -- summaries ------------------------------------------------------------
    def totals(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """``(root kind, layer) -> (calls, self seconds)``."""
        out: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0])
        for root, layer, _start, _end, self_s, _depth in self.spans:
            entry = out[(root, layer)]
            entry[0] += 1
            entry[1] += self_s
        return {key: (int(calls), total) for key, (calls, total)
                in out.items()}

    def roots(self, kind: str) -> Iterator[Tuple[float, float]]:
        """``(duration, self time)`` of each root span of ``kind``."""
        for root, layer, start, end, self_s, depth in self.spans:
            if depth == 0 and layer == kind:
                yield end - start, self_s

    def write_chrome_trace(self, path: str) -> None:
        """The spans as Chrome ``trace_event`` JSON (complete events)."""
        base = min((s[2] for s in self.spans), default=0.0)
        events = [
            {"name": layer, "cat": root, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - base) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"self_us": round(self_s * 1e6, 3)}}
            for root, layer, start, end, self_s, _depth in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def layer_table(recorder: SpanRecorder, main: str,
                homes: Optional[Dict[str, str]] = None) -> Dict[str, float]:
    """Per-op layer metrics from a recorder's spans.

    Each layer is reported against one root kind — ``homes[layer]``,
    else ``main`` — as its calls, self time and result counters summed
    over the spans under roots of that kind, divided by the number of
    such roots.  Layers never called report 0.  The table holds calls
    and self time for every layer, a superset of the ``per_layer``
    metrics in BENCHMARK.json.  ``bench.unattributed.frac`` is the
    share of the ``main`` ops' time that no wrapped layer covers.
    """
    homes = homes or {}
    totals = recorder.totals()
    n_roots = {kind: sum(1 for _ in recorder.roots(kind))
               for kind in {main, *homes.values()}}
    out: Dict[str, float] = {}
    for layer in LAYER_TARGETS:
        kind = homes.get(layer, main)
        per = max(1, n_roots[kind])
        calls, self_s = totals.get((kind, layer), (0, 0.0))
        out[f"{layer}.calls"] = calls / per
        out[f"{layer}.self_s"] = self_s / per
        if layer in RESULT_COUNTERS:
            name = f"{layer}.{RESULT_COUNTERS[layer][0]}"
            out[name] = recorder.counters.get((kind, name), 0.0) / per
    loads = out["exec.cache.load.calls"]
    out["exec.cache.hit_ratio"] = (out["exec.cache.load.hits"] / loads
                                   if loads else 0.0)
    ticks = out["fluid.engine.ticks"]
    out["fluid.engine.us_per_tick"] = (
        out["fluid.engine.self_s"] / ticks * 1e6 if ticks else 0.0)
    roots = list(recorder.roots(main))
    unattributed = sum(s for _, s in roots)
    wall = sum(d for d, _ in roots)
    out["bench.unattributed.self_s"] = (
        unattributed / len(roots) if roots else 0.0)
    out["bench.unattributed.frac"] = unattributed / wall if wall else 0.0
    return out
