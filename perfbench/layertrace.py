"""Per-layer timing wrappers installed from outside the program.

The benchmark attributes host time to the repository's layers without
adding spans under ``src/``: :func:`install` replaces each public entry
point named in :data:`LAYERS` with a wrapper that records a span.  Each
span knows its parent (a per-thread stack), so a layer's *self* time is
its span time minus the time of the wrapped calls it made.

Functions handed to ``execute_point`` are wrapped as the unreported
``measure`` layer, so ``robust.execute`` is the executor's own time,
minus the function it measured.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: layer -> entry points ("module:qualname"); a span per call.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "experiments": ("repro.experiments.registry:run_experiment",),
    "engine": (
        "repro.engine.simulator:Simulator.run_layer",
        "repro.engine.simulator:Simulator.run_gemm",
        "repro.engine.scaleout:ScaleOutSimulator.run_layer",
    ),
    "dataflow": (
        "repro.dataflow.factory:engine_for",
        "repro.dataflow.factory:engine_for_gemm",
    ),
    "memory": ("repro.memory.bandwidth:compute_dram_traffic",),
    "compiler": (
        "repro.perf.compiler:compile_search_space",
        "repro.perf.compiler:plan_estimates",
        "repro.perf.compiler:simulate_candidates",
        "repro.perf.compiler:best_scaleup_compiled",
        "repro.perf.compiler:best_scaleout_compiled",
    ),
    "analytical": (
        "repro.analytical.search:best_scaleup",
        "repro.analytical.search:best_scaleout",
        "repro.analytical.multiworkload:pareto_search",
    ),
    "dram.stream": ("repro.engine.tracefiles:dram_request_stream",),
    "dram.run": ("repro.dram.simulator:DramSimulator.run",),
    "store.open": ("repro.store.result_store:ResultStore.__init__",),
    "store.get": ("repro.store.result_store:ResultStore.get",),
    "store.put": ("repro.store.result_store:ResultStore.put",),
    "ledger.open": ("repro.store.ledger:SweepLedger.__init__",),
    "ledger.record": ("repro.store.ledger:SweepLedger.record",),
    "ledger.seal": ("repro.store.ledger:SweepLedger.flush",),
    "ledger.diff": ("repro.store.ledger:SweepLedger.diff_grid",),
    "robust.execute": (
        "repro.robust.executor:execute_grid",
        "repro.robust.executor:execute_point",
    ),
    "checkpoint.record": ("repro.robust.checkpoint:CheckpointStore.record",),
}

#: ``co_flags`` bit of a generator function (``inspect`` stays unimported).
CO_GENERATOR = 0x20

#: Unreported layer: the function ``execute_point`` measures.
MEASURE = "measure"

#: Daemon entry whose per-request duration is kept (not a layer).
SERVE_SUBMIT = "repro.serve.daemon:SimulationService.submit"


class LayerTracer:
    """Self time and covered wall time of wrapped calls."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (start, end) of every span with no parent, for coverage.
        self.top: List[Tuple[float, float]] = []
        #: correlation id -> seconds the daemon spent in ``submit``.
        self.submit_s: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, start: float, end: float, child: float,
               stack: List[List[float]]) -> None:
        spent = end - start
        with self._lock:
            self.self_s[layer] += spent - child
            if not stack:
                self.top.append((start, end))
        if stack:
            stack[-1][0] += spent

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if getattr(fn, "__code__", None) and fn.__code__.co_flags & CO_GENERATOR:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return self._timed_generator(layer, fn(*args, **kwargs))
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(layer, start, end, frame[0], stack)
        return wrapper

    def _timed_generator(self, layer: str, generator):
        """Time each ``next()``; a top-level consumer counts as covered
        from the first item to the last."""
        first = 0.0
        try:
            while True:
                stack = self._stack()
                frame = [0.0]
                stack.append(frame)
                start = time.perf_counter()
                first = first or start
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    with self._lock:
                        self.self_s[layer] += end - start - frame[0]
                    if stack:
                        stack[-1][0] += end - start
                yield item
        finally:
            if first and not self._stack():
                with self._lock:
                    self.top.append((first, time.perf_counter()))

    def wrap_execute_point(self, fn: Callable) -> Callable:
        wrapped = self.wrap("robust.execute", fn)

        @functools.wraps(fn)
        def execute_point(measured, *args, **kwargs):
            return wrapped(self.wrap(MEASURE, measured), *args, **kwargs)
        return execute_point

    def wrap_submit(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def submit(service, payload, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(service, payload, *args, **kwargs)
            finally:
                cid = kwargs.get("correlation_id")
                if cid:
                    with self._lock:
                        self.submit_s[cid] = time.perf_counter() - start
        return submit

    def covered_s(self) -> float:
        """Wall time inside at least one top-level span (any thread)."""
        total, reach = 0.0, float("-inf")
        for start, end in sorted(self.top):
            if end <= reach:
                continue
            total += end - max(start, reach)
            reach = end
        return total


def install(tracer: LayerTracer) -> None:
    """Swap every entry point for its wrapper, wherever it is bound.

    A module loaded already is patched now; any other is patched right
    after it first executes, so tracing imports nothing the program
    would not.  Module-level functions are also rebound in every loaded
    ``repro`` module (and ``__main__``) that imported them by name;
    methods are patched on the class.
    """
    pending: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            pending[module_name].append((qualname, layer))
    module_name, qualname = SERVE_SUBMIT.split(":")
    pending[module_name].append((qualname, SERVE_SUBMIT))

    def patch(module) -> None:
        wrappers = {}
        for qualname, layer in pending.pop(module.__name__, ()):
            owner = module
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            if layer == SERVE_SUBMIT:
                wrapper = tracer.wrap_submit(original)
            elif name == "execute_point":
                wrapper = tracer.wrap_execute_point(original)
            else:
                wrapper = tracer.wrap(layer, original)
            setattr(owner, name, wrapper)
            wrappers[id(original)] = wrapper
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "__main__" and not loaded_name.startswith("repro"):
                continue
            for attr, value in list(getattr(loaded, "__dict__", {}).items()):
                if id(value) in wrappers:
                    setattr(loaded, attr, wrappers[id(value)])

    for module_name in list(pending):
        if module_name in sys.modules:
            patch(sys.modules[module_name])
    sys.meta_path.insert(0, _PatchOnImport(pending, patch))


class _PatchOnImport:
    """Import hook: runs ``patch(module)`` right after a pending module
    executes, before any importer can bind its names."""

    def __init__(self, pending: Dict, patch: Callable) -> None:
        self.pending = pending
        self.patch = patch

    def find_spec(self, name, path=None, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        execute = spec.loader.exec_module

        def exec_module(module) -> None:
            execute(module)
            self.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def start() -> LayerTracer:
    """Install the wrappers and turn on ``repro.obs`` counters."""
    tracer = LayerTracer()
    install(tracer)
    from repro import obs

    obs.metrics.enable()
    return tracer


def dump(tracer: LayerTracer, path: str) -> None:
    """Write this process's spans and ``repro.obs`` counters as JSON."""
    from repro import obs

    record = {
        "self_s": dict(tracer.self_s),
        "covered_s": tracer.covered_s(),
        "submit_s": tracer.submit_s,
        "counters": obs.metrics.snapshot()["counters"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
