"""Layer attribution of host time by wrapping each layer's public entry points.

The traced benchmark run calls :func:`instrument` in a fresh interpreter
before it builds the testbed.  It leaves ``src/`` untouched on disk and
patches, in memory only:

* every public function and public method defined in a layer's modules
  (see :data:`LAYER_MODULES`), so a call that crosses into another layer
  opens a span of the callee's layer.  Generator functions get a proxy
  generator that opens a span around each resumption, because their body
  runs when the caller resumes them, not when it calls them;
* ``Process._resume`` of the DES kernel, so each resumption of a spawned
  process opens a span of the layer that defines the process's generator.

Calls within one layer open no span, which keeps the span count and the
tracing overhead proportional to layer crossings.  Spans stay in memory
as four parallel arrays (layer, parent, start, end); a layer's self time
is the duration of its spans minus the part their child spans cover, so
the self times of all layers sum to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from array import array
from collections import Counter
from typing import Any, Callable

#: Layer name -> the ``repro`` modules (or packages) whose code it owns.
#: A module belongs to the layer with the longest matching prefix.
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "tendermint.consensus": (
        "repro.tendermint.consensus",
        "repro.tendermint.node",
        "repro.tendermint.store",
        "repro.tendermint.validator",
    ),
    "tendermint.mempool": ("repro.tendermint.mempool",),
    "tendermint.rpc": ("repro.tendermint.rpc",),
    "tendermint.websocket": ("repro.tendermint.websocket",),
    "tendermint.merkle": ("repro.tendermint.merkle",),
    "cosmos.accounts": ("repro.cosmos.accounts",),
    "cosmos.bank": ("repro.cosmos.bank", "repro.cosmos.denom"),
    "cosmos.app": ("repro.cosmos.ante", "repro.cosmos.app"),
    "ibc.module": ("repro.ibc",),
    "relayer": ("repro.relayer",),
    "relayer.fleet": ("repro.relayer.fleet",),
    # The workload CLI submits users' ft-transfers: it is load generation,
    # not relaying, so chain-only runs show no relayer time.
    "workload": (
        "repro.workload",
        "repro.framework.workload",
        "repro.relayer.cli",
    ),
    "framework": ("repro.framework", "repro.analysis"),
}

#: Value types and leaf helpers every layer calls (hashing, ABCI/block
#: types, the state-write journal, gas meters, tx types).  They own no
#: layer: wrapping them would open a span per hash or per attribute read,
#: so their time counts toward the layer that calls them.
UNATTRIBUTED = (
    "repro.tendermint.abci",
    "repro.tendermint.crypto",
    "repro.tendermint.types",
    "repro.cosmos.gas",
    "repro.cosmos.journal",
    "repro.cosmos.tx",
)

#: Layers whose code is the event loop itself: never wrapped, so kernel
#: work (heap operations, event callbacks) stays in the enclosing span.
KERNEL_LAYER = "sim"

#: Packages imported before wrapping, so every layer module is loaded and
#: every ``from module import function`` binding can be redirected.
_PACKAGES = (
    "repro.sim",
    "repro.tendermint",
    "repro.cosmos",
    "repro.ibc",
    "repro.relayer",
    "repro.workload",
    "repro.framework",
    "repro.analysis",
)


class SpanRecorder:
    """Spans in memory: ``layer``, ``parent``, ``start`` and ``end`` arrays.

    Span ``i`` has layer name ``layers[layer[i]]`` and parent span index
    ``parent[i]`` (-1 for a root).  ``calls`` counts calls of every
    wrapped entry point by qualified name, including calls within one
    layer that open no span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Indices and layer ids of the open spans, above a -1 sentinel.
        self.open_spans: list[int] = [-1]
        self.open_layers: list[int] = [-1]
        self.calls: Counter[str] = Counter()

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def open(self, layer_id: int) -> None:
        self.open_spans.append(len(self.end))
        self.open_layers.append(layer_id)
        self.layer.append(layer_id)
        self.parent.append(self.open_spans[-2])
        self.end.append(0.0)
        self.start.append(self.clock())

    def close(self) -> None:
        self.end[self.open_spans.pop()] = self.clock()
        self.open_layers.pop()

    def __len__(self) -> int:
        return len(self.layer)


def self_times(recorder: SpanRecorder) -> dict[str, float]:
    """Host self seconds per layer: each span's duration, minus the
    duration of each of its children (charged back to the parent's layer).
    """
    totals = [0.0] * len(recorder.layers)
    layer, parent = recorder.layer, recorder.parent
    start, end = recorder.start, recorder.end
    for index in range(len(layer)):
        duration = end[index] - start[index]
        totals[layer[index]] += duration
        up = parent[index]
        if up >= 0:
            totals[layer[up]] -= duration
    return dict(zip(recorder.layers, totals))


def span_counts(recorder: SpanRecorder) -> dict[str, int]:
    """Number of spans opened per layer."""
    counts = Counter(recorder.layer)
    return {name: counts[i] for i, name in enumerate(recorder.layers)}


def layer_of_module(module: str) -> str | None:
    """The layer owning ``module`` (longest prefix match), or None."""
    if module in UNATTRIBUTED:
        return None
    best, best_len = None, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(
                prefix
            ) > best_len:
                best, best_len = layer, len(prefix)
    return best


# -- wrapping ---------------------------------------------------------------------


def _proxy(inner, layer_id: int, recorder: SpanRecorder):
    """Forward every send/throw to ``inner`` inside a span of ``layer_id``."""
    open_, close = recorder.open, recorder.close
    value: Any = None
    error: BaseException | None = None
    while True:
        open_(layer_id)
        try:
            target = inner.send(value) if error is None else inner.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            close()
        error = None
        try:
            value = yield target
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into inner
            error, value = exc, None


def _wrap(fn, layer_id: int, recorder: SpanRecorder, key: str):
    calls, open_layers = recorder.calls, recorder.open_layers

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            inner = fn(*args, **kwargs)
            if open_layers[-1] == layer_id:
                return inner
            proxy = _proxy(inner, layer_id, recorder)
            # Processes are named after their generator when unnamed.
            proxy.__name__ = inner.__name__
            proxy.__qualname__ = inner.__qualname__
            return proxy

    else:
        # SpanRecorder.open/close inlined: this is the per-call hot path.
        open_spans, ends, clock = recorder.open_spans, recorder.end, recorder.clock
        push_span, pop_span = open_spans.append, open_spans.pop
        push_layer, pop_layer = open_layers.append, open_layers.pop
        add_layer, add_parent = recorder.layer.append, recorder.parent.append
        add_start, add_end = recorder.start.append, ends.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if open_layers[-1] == layer_id:
                return fn(*args, **kwargs)
            add_parent(open_spans[-1])
            push_span(len(ends))
            push_layer(layer_id)
            add_layer(layer_id)
            add_end(0.0)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[pop_span()] = clock()
                pop_layer()

    return wrapper


def _import_layer_modules() -> None:
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.walk_packages(package.__path__, package_name + "."):
            importlib.import_module(info.name)


def _instrument_resume(recorder: SpanRecorder, file_layers: dict[str, int]) -> None:
    from repro.sim.core import Process

    original = Process._resume
    kernel = recorder.layer_id(KERNEL_LAYER)
    code_layers: dict[Any, int] = {}
    open_layers, open_, close = recorder.open_layers, recorder.open, recorder.close

    def _resume(self, trigger):
        code = getattr(self._generator, "gi_code", None)
        layer_id = code_layers.get(code)
        if layer_id is None:
            filename = code.co_filename if code is not None else ""
            layer_id = code_layers[code] = file_layers.get(filename, kernel)
        if open_layers[-1] == layer_id:
            return original(self, trigger)
        open_(layer_id)
        try:
            return original(self, trigger)
        finally:
            close()

    Process._resume = _resume


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points and ``Process._resume``.

    Meant for a fresh interpreter that runs one traced experiment: the
    patches are never undone.
    """
    _import_layer_modules()
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.") and module is not None
    ]
    file_layers: dict[str, int] = {}
    functions: dict[int, Any] = {}  # id(original) -> wrapper
    for module in modules:
        layer = layer_of_module(module.__name__)
        if layer is None:
            continue
        layer_id = recorder.layer_id(layer)
        if getattr(module, "__file__", None):
            file_layers[module.__file__] = layer_id
        if layer == KERNEL_LAYER:
            continue
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                if value.__module__ == module.__name__:
                    wrapped = _wrap(
                        value, layer_id, recorder, f"{module.__name__}.{name}"
                    )
                    functions[id(value)] = wrapped
                    setattr(module, name, wrapped)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if attr.startswith("_") or not isinstance(
                        member, types.FunctionType
                    ):
                        continue
                    key = f"{module.__name__}.{value.__qualname__}.{attr}"
                    setattr(value, attr, _wrap(member, layer_id, recorder, key))
    # Redirect ``from module import function`` bindings in other modules.
    for module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and id(value) in functions:
                setattr(module, name, functions[id(value)])
    _instrument_resume(recorder, file_layers)
