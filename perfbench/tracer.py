"""Span tracer for the benchmark's traced run.

The program under test is not instrumented.  Instead, :class:`Tracer`
wraps the public functions of each layer from outside: every module of
the ``repro`` package that holds a reference to a wrapped function gets
the wrapper in its place (``repro.semiring.minplus`` binds
``minplus_gather`` from ``kernels``, so patching the defining module
alone would miss calls made through the importer), and methods are
wrapped on their class.  A target that no longer exists is reported as
absent instead of raising, so code deletions never break the benchmark.

Spans record name, start, end, parent span and the root they belong to
(one solve, one serving phase, ...).  They are kept in memory and
written out as JSON lines by :meth:`Tracer.write_jsonl` when the run
ends.  Spans are only recorded while a root is open, so the
benchmark's own correctness checks, which call the same functions, are
never attributed to a layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Measure = Callable[[tuple, dict], Dict[str, Any]]


@dataclass
class Span:
    """One timed call (or one root) in the trace."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    root: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public function of one layer that the traced run wraps."""

    layer: str
    name: str  # metric prefix, e.g. "minplus_gather"
    module: str
    qualname: str  # "func" or "Class.method"
    measure: Optional[Measure] = None


def _size(*arrays: Any) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _measure_minplus(args: tuple, kwargs: dict) -> Dict[str, Any]:
    a = np.asarray(args[0])
    b = np.asarray(args[1])
    m, k = a.shape
    p = b.shape[1]
    attrs: Dict[str, Any] = {
        "ops": m * k * p,
        # Operands and output as float64, as computed (not as measured).
        "bytes": 8 * (m * k + k * p + m * p),
    }
    kernels = sys.modules.get("repro.semiring.kernels")
    resolve = getattr(kernels, "resolve_kernel", None)
    attrs["kernel"] = (
        resolve(a, b, kwargs.get("kernel")) if resolve is not None else "unknown"
    )
    return attrs


def _measure_gather(args: tuple, kwargs: dict) -> Dict[str, Any]:
    weights = np.shape(args[0])
    columns = np.shape(args[2])[1]
    return {
        "ops": int(weights[0] * weights[1] * columns),
        "entries": int(weights[0] * columns),
    }


def _measure_k_smallest(args: tuple, kwargs: dict) -> Dict[str, Any]:
    matrix = np.shape(args[0])
    k = int(args[1] if len(args) > 1 else kwargs["k"])
    return {"elems": int(matrix[0] * matrix[1]), "kept": int(matrix[0] * min(k, matrix[1]))}


def _measure_pairs(offset: int) -> Measure:
    def measure(args: tuple, kwargs: dict) -> Dict[str, Any]:
        return {"items": _size(args[offset], args[offset + 1])}

    return measure


def _measure_k_nearest(args: tuple, kwargs: dict) -> Dict[str, Any]:
    sources = kwargs.get("sources", args[2] if len(args) > 2 else None)
    items = args[0].n if sources is None else int(np.size(sources))
    return {"items": items}


#: Every wrapped function, by layer (the module it is defined in).
TARGETS: Tuple[Target, ...] = (
    Target("repro.api", "api.solve", "repro.api", "ApspSolver.solve"),
    Target("repro.core", "knearest_iterated", "repro.core.knearest", "knearest_iterated"),
    Target("repro.core", "build_knearest_hopset", "repro.core.hopsets", "build_knearest_hopset"),
    Target("repro.core", "build_skeleton", "repro.core.skeleton", "build_skeleton"),
    Target("repro.core", "extend_estimate", "repro.core.skeleton", "extend_estimate"),
    Target("repro.core", "build_scaled_graph", "repro.core.weight_scaling", "build_scaled_graph"),
    Target("repro.semiring", "minplus", "repro.semiring.kernels", "minplus", _measure_minplus),
    Target("repro.semiring", "minplus_gather", "repro.semiring.kernels", "minplus_gather", _measure_gather),
    Target("repro.semiring", "k_smallest_in_rows", "repro.semiring.minplus", "k_smallest_in_rows", _measure_k_smallest),
    Target("repro.semiring", "hop_power_row_sparse", "repro.semiring.minplus", "hop_power_row_sparse"),
    Target("repro.graphs", "exact_apsp", "repro.graphs.distances", "exact_apsp"),
    Target("repro.graphs", "batched_sssp", "repro.graphs.adjacency", "batched_sssp"),
    Target("repro.graphs", "min_dedup_edges", "repro.graphs.adjacency", "min_dedup_edges"),
    Target("repro.graphs", "group_argmin", "repro.graphs.adjacency", "group_argmin"),
    Target("repro.graphs", "WeightedGraph.from_arrays", "repro.graphs.graph", "WeightedGraph.from_arrays"),
    Target("repro.spanners", "baswana_sengupta_spanner", "repro.spanners.baswana_sengupta", "baswana_sengupta_spanner"),
    Target("repro.serve", "DistanceOracle.query_many", "repro.serve.oracle", "DistanceOracle.query_many", _measure_pairs(1)),
    Target("repro.serve", "route_batch", "repro.serve.engine", "route_batch", _measure_pairs(1)),
    Target("repro.serve", "DistanceOracle.k_nearest", "repro.serve.oracle", "DistanceOracle.k_nearest", _measure_k_nearest),
)


class Tracer:
    """Wraps :data:`TARGETS` and records spans while a root is open."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Span] = None
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Roots and spans
    # ------------------------------------------------------------------ #

    @contextmanager
    def root(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a root span; calls on any thread record under it until exit."""
        span = Span(next(self._ids), name, "bench", time.perf_counter(), 0.0,
                    None, name, dict(attrs))
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            span.end = time.perf_counter()
            self._add(span)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a span measured by the benchmark itself (e.g. a request)."""
        root = self._root
        if root is not None:
            self._add(Span(next(self._ids), name, "bench", start, end,
                           root.id, root.name, dict(attrs)))

    def _add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            root = tracer._root
            if root is None:
                return fn(*args, **kwargs)
            attrs = target.measure(args, kwargs) if target.measure else {}
            stack = tracer._stack()
            parent = stack[-1] if stack else root.id
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._add(Span(span_id, target.name, target.layer, start,
                                 end, parent, root.name, attrs))

        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.name)
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(target.name)
                continue
            if owner_name:
                self._patch_class(target, owner, attr)
            else:
                self._patch_function(target, getattr(module, attr))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch_class(self, target: Target, cls: type, attr: str) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self._wrap(target, original.__func__))
        else:
            replacement = self._wrap(target, original)
        setattr(cls, attr, replacement)
        self._restore.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, target: Target, original: Callable) -> None:
        wrapper = self._wrap(target, original)
        for module_name, module in list(sys.modules.items()):
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, attr, original)
                    )

    # ------------------------------------------------------------------ #
    # Analysis and output
    # ------------------------------------------------------------------ #

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.duration - covered
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span in sorted(self.spans, key=lambda s: s.start):
                sink.write(json.dumps(asdict(span), sort_keys=True) + "\n")


__all__ = ["Span", "Target", "TARGETS", "Tracer"]
