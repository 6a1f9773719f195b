"""Spans around the program's layer functions, taken from outside the program.

Every span records a name (``layer.function``), start, end, parent span and
run id. Spans stay in memory and are handed back when the run ends. The
wrappers replace the module globals that call sites look up, plus the
``Tensor.backward`` and ``Adam.step`` methods, so the program's source is
untouched and ``uninstall`` restores every original.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import asdict, dataclass

# (module, attribute) -> span name. A function imported into several modules
# is wrapped at each call site that looks it up.
CALL_SITES = {
    ("fairspect.cli", "load_edge_list"): "graph.load_edge_list",
    ("fairspect.cli", "load_attributes"): "graph.load_attributes",
    ("fairspect.cli", "apply_missing_mask"): "graph.mask",
    ("fairspect.graph", "apply_missing_mask"): "graph.mask",
    ("fairspect.cli", "parse_mask_file"): "graph.mask",
    ("fairspect.cli", "make_split"): "graph.split",
    ("fairspect.graph", "from_edges"): "graph.from_edges",
    ("fairspect.synthetic", "from_edges"): "graph.from_edges",
    ("fairspect.graph", "is_connected"): "graph.checks",
    ("fairspect.graph", "is_bipartite"): "graph.checks",
    ("fairspect.model", "top_m_eigenpairs"): "spectral.top_m",
    ("fairspect.limits", "top_m_eigenpairs"): "spectral.top_m",
    ("fairspect.cli", "dense_eigendecomposition"): "spectral.dense_eigh",
    ("fairspect.limits", "dense_eigendecomposition"): "spectral.dense_eigh",
    ("fairspect.model", "zero_pad"): "encoding.zero_pad",
    ("fairspect.model", "eigenvalue_position_encoding"): "encoding.position_encoding",
    ("fairspect.cli", "prepare_inputs"): "model.prepare",
    ("fairspect.cli", "train"): "model.train",
    ("fairspect.model", "forward"): "model.forward",
    ("fairspect.cli", "predict"): "model.predict",
    ("fairspect.model", "predict"): "model.predict",
    ("fairspect.cli", "save_checkpoint"): "model.checkpoint",
    ("fairspect.cli", "build_report"): "fairness.report",
    ("fairspect.cli", "build_alignment_battery"): "limits.battery",
    ("fairspect.cli", "build_multiplicity_battery"): "limits.multiplicity_battery",
    ("fairspect.cli", "limit_check"): "limits.limit_check",
    ("fairspect.cli", "estimate_decay_rate"): "limits.decay",
    ("fairspect.cli", "multiplicity_bound_check"): "limits.multiplicity",
    ("fairspect.limits", "gen_synthetic"): "synthetic.gen",
    ("fairspect.cli", "gen_synthetic"): "synthetic.gen",
}

# (module, class, method) -> span name
METHOD_SITES = {
    ("fairspect.autodiff", "Tensor", "backward"): "autodiff.backward",
    ("fairspect.model", "Adam", "step"): "model.adam",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    error: str | None = None


class CountingMatrix:
    """Adjacency stand-in that counts vector products, then delegates."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    @property
    def shape(self):
        return self._inner.shape

    def __matmul__(self, x):
        self._tracer.counts["spectral.matvecs"] += 1 if x.ndim == 1 else x.shape[1]
        return self._inner @ x

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts = {"spectral.matvecs": 0}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), float("nan"),
                        tracer._stack[-1] if tracer._stack else None, tracer.run_id)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for (module_name, attr), name in CALL_SITES.items():
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        for (module_name, cls_name, attr), name in METHOD_SITES.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))
        graph_cls = importlib.import_module("fairspect.graph").Graph
        to_scipy = graph_cls.to_scipy
        tracer = self

        def counted_to_scipy(graph):
            matrix = to_scipy(graph)
            return CountingMatrix(matrix, tracer) if tracer.current() == "spectral.top_m" else matrix

        self._patch(graph_cls, "to_scipy", counted_to_scipy)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(s, span["start"]), min(e, span["end"]))
                   for s, e in children.get(i, [])]
        inside = [(s, e) for s, e in clipped if s < e]
        out.append(span["end"] - span["start"] - covered(inside))
    return out
