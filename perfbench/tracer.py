"""In-memory span tracer that wraps the public functions of each layer.

A span is ``(id, name, start, end, parent, thread)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by the
coordinator and by a worker process share one time base).  Counters are
integers with a unit of ``count`` or ``bytes``; they are never spans.

Nothing here is imported by the repository: :func:`install` patches the
layer functions from outside, after the modules are loaded, so the
untraced runs execute exactly the code a user runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

#: Span name -> layer.  The self-time table groups spans by layer.
LAYER_OF = {
    "cli.import": "cli",
    "space.build": "runtime.space",
    "request.cache_key": "runtime.request",
    "cache.get": "runtime.cache",
    "cache.put": "runtime.cache",
    "harness.execute": "runtime.harness",
    "engine.run": "engine",
    "vector.batch": "vector",
    "sweep.run": "runtime.sweep",
    "check.cell": "oracle",
    "trace.export": "obs.export",
    "rundir.open": "obs.artifacts",
    "rundir.record_cell": "obs.artifacts",
    "rundir.finalize": "obs.artifacts",
    "rundir.summarize": "obs.report",
    "mc.check": "mc",
    "mc.explore": "mc.explore",
    "mc.canonical": "mc.explore",
    "mc.frontier_space": "mc",
    "mc.judge": "mc",
    "serve.plan": "serve",
    "serve.claim": "serve",
    "serve.submit": "serve",
    "serve.finalize": "serve",
    "serve.rtt.claim": "serve",
    "serve.rtt.submit": "serve",
    "serve.worker.execute": "serve",
    "bench.payload_size": "bench",
}

#: Modules imported before patching; the CLI loads some of them lazily.
LAYER_MODULES = (
    "repro.cli.main",
    "repro.runtime.space",
    "repro.runtime.request",
    "repro.runtime.cache",
    "repro.runtime.harness",
    "repro.runtime.sweep",
    "repro.vector.engine",
    "repro.obs.artifacts",
    "repro.obs.report",
    "repro.mc",
    "repro.mc.checker",
    "repro.mc.explore",
    "repro.mc.symmetry",
    "repro.mc.space",
    "repro.mc.properties",
    "repro.serve.coordinator",
    "repro.serve.api",
    "repro.serve.worker",
)


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: dict[int, tuple[str, float, int | None, int]] = {}
        self._count_lock = threading.Lock()  # serve handlers run on threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        self._open[span_id] = (name, perf_counter(), parent, threading.get_ident())
        stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        finished = perf_counter()
        name, started, parent, thread = self._open.pop(span_id)
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, name, started, finished, parent, thread))

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self._open[stack[-1]][0] if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counters[name] += int(amount)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    def dump(self, path: str) -> None:
        document = {
            "pid": os.getpid(),
            "spans": sorted(self.spans),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


#: ``after(tracer, args, result, outer_span_name)`` records counters.
After = Callable[[Tracer, tuple, Any, "str | None"], None]


def _wrap(tracer: Tracer, name: str, func: Callable, after: After | None) -> Callable:
    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        outer = tracer.current()
        span_id = tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if after is not None:
            after(tracer, args, result, outer)
        return result

    return traced


# -- counters taken at the layer boundaries ----------------------------------


def _count_keys(tracer: Tracer, keys: int, outer: str | None) -> None:
    # batch_cache_keys calls cache_key() itself (to verify each shape):
    # count calls and keys once, at the outermost key span.
    if outer != "request.cache_key":
        tracer.count("request.cache_key_calls")
        tracer.count("request.cache_keys", keys)


def _after_batch_keys(tracer: Tracer, args: tuple, keys: Any, outer: str | None) -> None:
    _count_keys(tracer, len(keys), outer)


def _after_cache_key(tracer: Tracer, args: tuple, key: Any, outer: str | None) -> None:
    _count_keys(tracer, 1, outer)


def _after_get(tracer: Tracer, args: tuple, hit: Any, outer: str | None) -> None:
    tracer.count("cache.misses" if hit is None else "cache.hits")


def _after_put(tracer: Tracer, args: tuple, _: Any, outer: str | None) -> None:
    cache, _request, result = args[:3]
    tracer.count("cache.stores")
    path = cache.directory / f"{result.request_key}.json"
    tracer.count("cache.bytes_written", path.stat().st_size)


def _after_execute(tracer: Tracer, args: tuple, result: Any, outer: str | None) -> None:
    # execute_batch runs non-vector cells through execute_request: count
    # each cell once, at the outermost harness span.
    if outer != "harness.execute":
        cells = len(result) if isinstance(result, list) else 1
        tracer.count("harness.cells_executed", cells)


def _after_vector(tracer: Tracer, args: tuple, results: Any, outer: str | None) -> None:
    fallback = sum(1 for r in results if r.extra.get("vector_fallback"))
    tracer.count("vector.fallback_cells", fallback)
    tracer.count("vector.kernel_cells", len(results) - fallback)


def _after_check(tracer: Tracer, args: tuple, check: Any, outer: str | None) -> None:
    tracer.count("check.cells")
    if not check.ok:
        tracer.count("check.failed")


def _after_export(tracer: Tracer, args: tuple, events: Any, outer: str | None) -> None:
    tracer.count("trace.events", events)
    tracer.count("trace.bytes", os.path.getsize(args[1]))


def _after_submit(tracer: Tracer, args: tuple, receipt: Any, outer: str | None) -> None:
    # The body ServeClient posts; encoding it again is the benchmark's
    # own cost, so it gets a span of its own outside every layer.
    with tracer.span("bench.payload_size"):
        body = json.dumps(args[1], sort_keys=True, default=repr).encode("utf-8")
    tracer.count("serve.payload_bytes", len(body))


def _after_explore(tracer: Tracer, args: tuple, exploration: Any, outer: str | None) -> None:
    stats = exploration.stats
    for field in (
        "states_generated",
        "states_visited",
        "revisit_pruned",
        "dominance_pruned",
        "leaves",
    ):
        tracer.count(f"mc.{field}", getattr(stats, field))


#: ``(module, attribute path, span name, counter hook)`` for every
#: wrapped entry point of the layers the benchmark decomposes.
TARGETS: tuple[tuple[str, str, str, After | None], ...] = (
    ("repro.runtime.space", "space_by_name", "space.build", None),
    ("repro.runtime.space", "vectorized_space", "space.build", None),
    ("repro.runtime.request", "ExecutionRequest.cache_key", "request.cache_key", _after_cache_key),
    ("repro.runtime.request", "batch_cache_keys", "request.cache_key", _after_batch_keys),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", _after_get),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", _after_put),
    ("repro.runtime.harness", "execute_request", "harness.execute", _after_execute),
    ("repro.runtime.harness", "execute_batch", "harness.execute", _after_execute),
    ("repro.runtime.harness", "RoundHarness.execute", "engine.run", None),
    ("repro.runtime.harness", "SSEmulationHarness.execute", "engine.run", None),
    ("repro.runtime.harness", "SPEmulationHarness.execute", "engine.run", None),
    ("repro.vector.engine", "execute_vector_batch", "vector.batch", _after_vector),
    ("repro.runtime.sweep", "SweepRunner.run", "sweep.run", None),
    ("repro.runtime.sweep", "check_cell", "check.cell", _after_check),
    ("repro.runtime.sweep", "SweepResult.write_merged_jsonl", "trace.export", _after_export),
    ("repro.obs.artifacts", "RunDir.open", "rundir.open", None),
    ("repro.obs.artifacts", "RunDir.record_cell", "rundir.record_cell", None),
    ("repro.obs.artifacts", "RunDir.finalize", "rundir.finalize", None),
    ("repro.obs.report", "summarize_sweep", "rundir.summarize", None),
    ("repro.mc.checker", "check", "mc.check", None),
    ("repro.mc.explore", "explore", "mc.explore", _after_explore),
    ("repro.mc.symmetry", "orbit_canonical", "mc.canonical", None),
    ("repro.mc.space", "frontier_space", "mc.frontier_space", None),
    ("repro.mc.properties", "evaluate_property", "mc.judge", None),
    ("repro.serve.coordinator", "Coordinator.__init__", "serve.plan", None),
    ("repro.serve.coordinator", "Coordinator.claim", "serve.claim", None),
    ("repro.serve.coordinator", "Coordinator.submit", "serve.submit", None),
    ("repro.serve.coordinator", "Coordinator.finalize", "serve.finalize", None),
    ("repro.serve.api", "ServeClient.claim", "serve.rtt.claim", None),
    ("repro.serve.api", "ServeClient.submit", "serve.rtt.submit", _after_submit),
    ("repro.serve.worker", "execute_shard", "serve.worker.execute", None),
)


def import_layers() -> None:
    for module in LAYER_MODULES:
        importlib.import_module(module)


def _rebind(original: Callable, replacement: Callable, modules: Iterable[Any]) -> None:
    """Point every ``from X import f`` binding of ``original`` at ``replacement``."""
    for module in modules:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def patch(module_name: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``module_name.path`` (a function or ``Class.method``) by ``wrap(it)``.

    A function is rebound in every loaded ``repro`` module that imported
    it by name, so load the callers first.
    """
    module = sys.modules[module_name]
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))
        return
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    original = getattr(module, path)
    _rebind(original, wrap(original), modules)


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`TARGETS`; call after :func:`import_layers`."""
    for module_name, path, span_name, after in TARGETS:
        patch(
            module_name,
            path,
            lambda func, span_name=span_name, after=after: _wrap(
                tracer, span_name, func, after
            ),
        )
