"""Per-layer timers installed from outside the program.

:class:`LayerTracer` replaces public entry points of the pipeline's
modules with thin wrappers that record a span per call.  Spans nest per
thread; a layer's *self time* is its spans' duration minus the time of
the spans they enclose, so the layers of one request add up without
double counting.  Nothing inside the program is changed or enabled: the
program's own tracer (``repro.observability.capture``) stays off,
because turning it on changes the work it observes.

An entry point that no longer exists (renamed, folded into another) is
skipped and listed in :attr:`LayerTracer.missing`; its layer then reports
zero calls and its time lands in ``unattributed_ms``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute path)``: the wrapped entry points.  One
#: layer may own several entry points.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("ir.from_dict", "repro.ir.serialize", "program_from_dict"),
    ("ir.digest", "repro.ir.serialize", "compile_digest"),
    ("service.resolve", "repro.service.api", "CompileRequest.resolve"),
    ("service.submit", "repro.service.service", "CompileService.submit"),
    ("service.store_get", "repro.service.store", "ArtifactStore.get"),
    ("service.store_put", "repro.service.store", "ArtifactStore.put"),
    ("service.store_put", "repro.service.store", "ArtifactStore.put_recipe"),
    ("service.artifact", "repro.service.store", "build_artifact"),
    ("service.router", "repro.service.fleet", "FleetRouter.submit"),
    ("service.router", "repro.service.router", "LRUCache.get"),
    ("runtime.compile", "repro.runtime.session", "GpuSession.compile"),
    ("analysis.analyze", "repro.analysis.analyzer", "analyze_program"),
    ("analysis.search", "repro.analysis.search", "search_mapping"),
    ("optim.passes", "repro.optim.pipeline", "build_plan_with_recipe"),
    ("optim.passes", "repro.optim.pipeline", "build_plan"),
    ("optim.recipe", "repro.optim.passes.recipe", "build_compile_recipe"),
    ("codegen", "repro.codegen.compiler", "compile_program"),
    ("runtime.launch_retune", "repro.runtime.launcher", "adjust_at_launch"),
    ("gpusim.cost", "repro.gpusim.cost", "estimate_kernel_cost"),
    ("observability.provenance", "repro.observability.provenance",
     "build_provenance"),
)
#: Every registered app's ``build`` is wrapped as this layer.
APP_BUILD_LAYER = "ir.build"
#: Layers the replay loop times itself (the HTTP handler's encode).
REPLAY_LAYERS = ("service.encode",)


def layer_names() -> List[str]:
    names = [APP_BUILD_LAYER] + [layer for layer, _, _ in ENTRY_POINTS]
    names += list(REPLAY_LAYERS)
    return list(dict.fromkeys(names))


def time_metric(layer: str) -> str:
    """``analysis.search`` -> ``analysis.search_ms``; ``codegen`` ->
    ``codegen.ms``."""
    return f"{layer}.ms" if "." not in layer else f"{layer}_ms"


def _search_result(tracer: "LayerTracer", result: Any) -> None:
    if not getattr(result, "cache_hit", False):
        tracer.count("analysis.candidates_scored",
                     getattr(result, "candidates_scored", 0))


def _lru_result(tracer: "LayerTracer", result: Any) -> None:
    tracer.count("service.lru_lookups")
    if result is not None:
        tracer.count("service.lru_hits")


#: Cheap counters read off an entry point's return value.
RESULT_HOOKS: Dict[str, Callable[["LayerTracer", Any], None]] = {
    "search_mapping": _search_result,
    "LRUCache.get": _lru_result,
}


class LayerTracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> List[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, layer: str, frame: List[float]) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1

    @contextmanager
    def span(self, layer: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(layer, frame)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self, fn: Callable, layer: str,
        on_result: Optional[Callable[["LayerTracer", Any], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                tracer._exit(layer, frame)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(original, layer, RESULT_HOOKS.get(path))
            if parents:
                self._patch(owner, attr, original, wrapper)
            else:
                # ``from x import f`` copies the binding into every
                # importer; rebind each copy, not just the definition.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "") or ""
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        try:
            from repro.apps import ALL_APPS
        except ImportError:
            self.missing.append("repro.apps.ALL_APPS")
        else:
            for app in ALL_APPS.values():
                self._patch(app, "build", app.build,
                            self.wrap(app.build, APP_BUILD_LAYER))

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def wrapper_overhead_s(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call (best of 5)."""
    tracer = LayerTracer()

    def noop() -> None:
        return None

    wrapped = tracer.wrap(noop, "calibration")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(samples):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / samples)
    return max(best, 0.0)
