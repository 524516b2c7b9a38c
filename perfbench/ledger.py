"""Outside-in wall-clock ledger: spans around the public methods of each layer.

The ledger patches the public methods of the classes that make up a layer
(see :data:`LAYERS`) with a timing wrapper, and restores the originals when
the traced run ends.  Nothing inside the program changes: the spans sit at
the layer boundaries a caller can see.

Each span records its duration; a span stack subtracts child spans from
their parent, so a layer's *self* time is the time spent in its own code,
not in the layers it calls.  A call from a layer into itself (a public
method calling another public method of the same layer, or an override
calling ``super()``) is not a new span: it stays in the outer span and does
not count as a call, so ``calls`` counts layer-boundary crossings.  The
benchmark's own timed calls are root spans (:meth:`Ledger.root`); the root
self time is the unattributed remainder, so the self times of all layers
plus the remainder add up to the traced total exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "ledger.root"

#: Layer name -> ``(module, class names, method names or None for every
#: public method defined on the class)``.  Methods are patched on the class
#: that defines them, so subclasses inheriting a method share its span.
LAYERS: Dict[str, List[Tuple[str, Tuple[str, ...], Optional[Tuple[str, ...]]]]] = {
    "serve.sharded": [("repro.serve.sharded", ("ShardedIndex",), None)],
    "serve.cache": [("repro.serve.cache", ("ResultCache",), None)],
    "serve.batching": [("repro.serve.batching", ("BatchScheduler",), None)],
    "serve.metrics": [("repro.serve.metrics", ("MetricsRegistry",), None)],
    "serve.partition": [
        (
            "repro.serve.partition",
            ("Partitioner", "RangePartitioner", "HashPartitioner"),
            None,
        )
    ],
    "serve.router": [("repro.serve.router", ("ShardRouter",), None)],
    "serve.replication": [
        ("repro.serve.replication", ("ReplicaGroup", "ReplicatedShardRouter"), None)
    ],
    "serve.maintenance": [("repro.serve.maintenance", ("MaintenanceWorker",), None)],
    "core.index": [("repro.core.index", ("CgRXIndex",), None)],
    "core.updatable": [("repro.core.updatable", ("CgRXuIndex",), None)],
    "rtx": [
        (
            "repro.rtx.pipeline",
            ("RaytracingPipeline",),
            ("cast_axis_closest_batch", "cast_axis_all_batch"),
        )
    ],
    "gpu.cost_model": [
        ("repro.baselines.base", ("GpuIndex",), ("lookup_time_ms",)),
        ("repro.gpu.cost_model", ("CostModel",), None),
    ],
    "store": [
        ("repro.store.durability", ("DeploymentStore",), None),
        ("repro.store.backend", ("StorageBackend", "LocalDirBackend"), None),
    ],
}


def _public_functions(cls: type, names: Optional[Tuple[str, ...]]):
    """``(name, attribute)`` of the plain or class methods to patch on ``cls``."""
    for name, attribute in list(vars(cls).items()):
        if names is not None and name not in names:
            continue
        if names is None and name.startswith("_"):
            continue
        if isinstance(attribute, classmethod) or callable(attribute) and not isinstance(
            attribute, (staticmethod, type)
        ):
            yield name, attribute


class Ledger:
    """Span stack with per-layer self time, inclusive time and call counts.

    Only calls made inside a root span are traced; the benchmark's own
    set-up and checks call the same methods untraced.  ``observers`` maps
    ``(layer, method)`` to a callback ``observer(ledger, args, result)`` run
    after every traced call of that method returns (outside the span's
    timing, and also for calls inside a same-layer span), which is how the
    benchmark derives ratios such as cache hit rate or rays' node visits
    from arguments and return values.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``(parent layer, layer, method) -> calls`` of boundary crossings.
        self.edges: Dict[Tuple[str, str, str], int] = defaultdict(int)
        #: Free-form counts accumulated by observers.
        self.counts: Dict[str, float] = defaultdict(float)
        self.observers: Dict[Tuple[str, str], Callable] = {}
        # Frames are ``[layer, start_ns, child_ns]``.
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ spans

    @property
    def total_ns(self) -> int:
        """Wall time of every root span (the traced total)."""
        return self.inclusive_ns[ROOT]

    def enter(self, layer: str) -> Optional[list]:
        """Open a span; ``None`` when it continues the enclosing same-layer span."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return None
        frame = [layer, 0, 0]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: Optional[list], method: str) -> None:
        """Close ``frame``: charge self time, hand the duration to the parent."""
        if frame is None:
            return
        end = self.clock()
        stack = self._stack
        stack.pop()
        layer, start, child = frame
        duration = end - start
        self.self_ns[layer] += duration - child
        self.inclusive_ns[layer] += duration
        self.calls[layer] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.edges[(parent[0] if parent else "", layer, method)] += 1

    def root(self, fn: Callable, *args, **kwargs):
        """Run one of the benchmark's timed calls as a root span."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        frame = self.enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame, getattr(fn, "__name__", "call"))

    # --------------------------------------------------------------- patching

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        ledger = self
        observer = self.observers.get((layer, name))

        def traced(*args, **kwargs):
            if not ledger._stack:
                # Outside the benchmark's timed calls (set-up, checks).
                return fn(*args, **kwargs)
            frame = ledger.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger.exit(frame, name)
            if observer is not None:
                observer(ledger, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, layers: Dict = LAYERS) -> None:
        """Patch every listed method; :meth:`restore` undoes it."""
        import importlib

        if self._patched:
            raise RuntimeError("ledger already installed")
        for layer, targets in layers.items():
            for module_name, class_names, method_names in targets:
                module = importlib.import_module(module_name)
                for class_name in class_names:
                    cls = getattr(module, class_name)
                    for name, attribute in _public_functions(cls, method_names):
                        if isinstance(attribute, classmethod):
                            patched = classmethod(
                                self._wrap(layer, name, attribute.__func__)
                            )
                        else:
                            patched = self._wrap(layer, name, attribute)
                        self._patched.append((cls, name, attribute))
                        setattr(cls, name, patched)

    def restore(self) -> None:
        """Put every patched method back."""
        while self._patched:
            cls, name, attribute = self._patched.pop()
            setattr(cls, name, attribute)

    # ---------------------------------------------------------------- reports

    def layer_report(self, layers, ops: int) -> Dict[str, float]:
        """``<layer>.self_us_per_op`` / ``.calls_per_op`` plus ``ledger.other_frac``."""
        ops = max(1, int(ops))
        report: Dict[str, float] = {}
        for layer in layers:
            report[f"{layer}.self_us_per_op"] = self.self_ns.get(layer, 0) / 1e3 / ops
            report[f"{layer}.calls_per_op"] = self.calls.get(layer, 0) / ops
        total = self.total_ns
        report["ledger.other_frac"] = self.self_ns.get(ROOT, 0) / total if total else 0.0
        return report

    def edge_calls(self, parent: Optional[str], layer: str, methods=None) -> int:
        """Boundary crossings into ``layer`` from ``parent`` (from anywhere when
        ``None``), optionally only through the named methods."""
        return sum(
            count
            for (src, dst, method), count in self.edges.items()
            if (parent is None or src == parent)
            and dst == layer
            and (methods is None or method in methods)
        )
