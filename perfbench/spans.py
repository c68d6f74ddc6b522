"""Outside-in spans around the module-level names the pipeline looks up.

Nothing inside the package is instrumented.  While a tracer is installed,
each name in WRAPPED is replaced, in the module where the pipeline looks
it up, by a wrapper that records a span (name, start, end, parent, op id)
plus a few work counters; `installed` puts every original back on exit.
Spans stay in memory until the run ends.

Parents are tracked with one stack, so the trace assumes the pipeline
calls these names from a single thread, which holds under the shipped
default of one factorization worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from pathlib import Path

# (module where the name is looked up, name, layer that defines it)
WRAPPED = (
    ("surface", "_spanning_tree_frames", "surface"),
    ("surface", "cylinder_basepoint_frame", "potentials"),
    ("surface", "iwasawa_grid", "iwasawa"),
    ("surface", "_sym_points", "surface"),
    ("surface", "mesh_from_grid", "surface"),
    ("iwasawa", "factor_samples", "iwasawa"),
    ("flow", "_rk_segment", "flow"),
    ("bessel", "_rk_segment", "bessel"),
    ("cli", "cylinder_basepoint_frame", "potentials"),
    ("cli", "monodromy", "flow"),
    ("cli", "trace_law_check", "flow"),
    ("cli", "bessel_integrate", "bessel"),
    ("cli", "delaunay_reference", "surface"),
    ("cli", "reflection_symmetry_check", "surface"),
    ("cli", "export_mesh", "cli"),
)

LAYER = {f"{mod}.{name}": layer for mod, name, layer in WRAPPED}


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, index: int, name: str, parent: int | None, op: int) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.op = op
        self.counts: dict = {}
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Collects spans; the benchmark opens one root span per operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, self.op)
        self.spans.append(s)
        self._stack.append(s.index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]


def _wrapper(tracer: Tracer, key: str, fn):
    if key.endswith("._rk_segment"):
        @functools.wraps(fn)
        def rk_segment(coeff, y, *args, **kwargs):
            with tracer.span(key) as s:
                members = math.prod(y.shape[:-2])
                s.counts.update(rhs_evals=0, rhs_members=0)

                def counted(t):
                    s.counts["rhs_evals"] += 1
                    s.counts["rhs_members"] += members
                    return coeff(t)

                return fn(counted, y, *args, **kwargs)
        return rk_segment

    if key == "iwasawa.factor_samples":
        @functools.wraps(fn)
        def factor_samples(phi, grid, nsec):
            with tracer.span(key) as s:
                s.counts.update(batch=int(phi.shape[0]), nsec=int(nsec))
                return fn(phi, grid, nsec)
        return factor_samples

    if key == "surface.iwasawa_grid":
        @functools.wraps(fn)
        def iwasawa_grid(*args, **kwargs):
            with tracer.span(key) as s:
                out = fn(*args, **kwargs)
                summary = out[2]
                s.counts.update(nodes=summary["nodes"],
                                failed=len(summary["failed_nodes"]))
                return out
        return iwasawa_grid

    if key == "cli.export_mesh":
        @functools.wraps(fn)
        def export_mesh(mesh, fmt, path):
            with tracer.span(key) as s:
                fn(mesh, fmt, path)
                s.counts["bytes"] = Path(path).stat().st_size
        return export_mesh

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with tracer.span(key):
            return fn(*args, **kwargs)
    return timed


def originals() -> dict:
    """The package's own objects behind every wrapped name, right now."""
    return {f"{mod}.{name}": getattr(importlib.import_module(f"besselcmc.{mod}"), name)
            for mod, name, _ in WRAPPED}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every name in WRAPPED for the duration of the block."""
    saved = []
    try:
        for mod, name, _ in WRAPPED:
            module = importlib.import_module(f"besselcmc.{mod}")
            fn = getattr(module, name)
            saved.append((module, name, fn))
            setattr(module, name, _wrapper(tracer, f"{mod}.{name}", fn))
        yield tracer
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def layer_times(spans: list[Span]) -> tuple[dict, dict]:
    """Per-name inclusive and self seconds of one operation's spans.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    inner: dict = {}
    for s in spans:
        if s.parent is not None:
            inner[s.parent] = inner.get(s.parent, 0.0) + (s.end - s.start)
    total: dict = {}
    own: dict = {}
    for s in spans:
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        own[s.name] = own.get(s.name, 0.0) + d - inner.get(s.index, 0.0)
    return total, own
