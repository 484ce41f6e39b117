"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: while ``Tracer.patched()``
is active, each public function of a layer is replaced, in every
``orbitconics`` module namespace that binds it, by a wrapper that opens a
span around the call.  The library itself is not modified, and the
composite functions (``sweep_locus``, ``invariant_report``, ``cli.main``)
then show the chain of public calls they make as nested spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

#: Layer name -> (module, public function) pairs whose calls it counts.
LAYERS = {
    "billiard.orbit": [("billiard", "orbit")],
    "centers.center": [("centers", "center"), ("centers", "orthic_cb_center")],
    "centers.derived": [
        ("centers", "excentral"),
        ("centers", "medial"),
        ("centers", "act"),
        ("centers", "orthic"),
    ],
    "kernel.circumconic": [("kernel", "solve_circumconic")],
    "kernel.ellipse_params": [("kernel", "conic_to_ellipse_params")],
    "kernel.inconic": [("kernel", "solve_inconic")],
    "circumbilliard": [("circumbilliard", "circumbilliard")],
    "conic_invariants.hyperbola": [
        ("conic_invariants", "feuerbach_hyperbola"),
        ("conic_invariants", "jerabek_excentral"),
    ],
    "conic_invariants.poristic_triangle": [("conic_invariants", "poristic_triangle")],
    "loci.sweep": [("loci", "sweep_locus"), ("loci", "invariant_report")],
    "loci.fit": [("loci", "fit_locus"), ("loci", "fit_by_shape_class")],
    "cli.main": [("cli", "main")],
    "svgout.render": [("svgout", "render_svg")],
}


class _Frame:
    __slots__ = ("id", "root", "child_time", "child_exc")

    def __init__(self, span_id: int, root: int):
        self.id = span_id
        self.root = root
        self.child_time = 0.0
        self.child_exc = None


class Tracer:
    """Keeps every span in memory as (id, parent, root, name, start, end, self, error).

    ``error`` is the exception type name when the exception was raised
    inside this span rather than passed up from a child span, so each
    failure is attributed to the one layer it came from.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = _Frame(span_id, parent.root if parent else span_id)
        self._stack.append(frame)
        exc = None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as err:
            exc = err
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            own_error = type(exc).__name__ if exc is not None and exc is not frame.child_exc else None
            self.spans.append(
                (span_id, parent.id if parent else None, frame.root, name,
                 start, end, duration - frame.child_time, own_error)
            )
            if parent is not None:
                parent.child_time += duration
                if exc is not None:
                    parent.child_exc = exc

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Route every layer function through a span while the block runs."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "orbitconics" or n.startswith("orbitconics.")]
        saved = []
        for layer, targets in LAYERS.items():
            for module_name, func_name in targets:
                original = getattr(importlib.import_module(f"orbitconics.{module_name}"), func_name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics and failure counts by exception type.

        ``self_frac`` is the layer's self time as a share of the summed
        duration of the root spans (the traced workload's wall time).
        """
        wall = sum(s[5] - s[4] for s in self.spans if s[1] is None) or 1.0
        by_layer = {layer: [] for layer in LAYERS}
        for span in self.spans:
            if span[3] in by_layer:
                by_layer[span[3]].append(span)
        metrics, failures = {}, {}
        for layer, mine in by_layer.items():
            errors = [s[7] for s in mine if s[7] is not None]
            durations = [s[5] - s[4] for s in mine]
            metrics[f"{layer}.calls"] = (len(mine), "count")
            metrics[f"{layer}.us_per_call"] = (
                1e6 * statistics.median(durations) if durations else 0.0, "us")
            metrics[f"{layer}.self_frac"] = (sum(s[6] for s in mine) / wall, "frac")
            metrics[f"{layer}.failed"] = (len(errors), "count")
            if errors:
                failures[layer] = {e: errors.count(e) for e in sorted(set(errors))}
        return metrics, failures

    def write(self, path) -> None:
        """Write the spans as CSV, times relative to the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write("id,parent,root,name,start_us,end_us,self_us,error\n")
            for sid, parent, root, name, start, end, self_time, error in sorted(self.spans):
                handle.write(
                    f"{sid},{'' if parent is None else parent},{root},{name},"
                    f"{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{self_time * 1e6:.3f},"
                    f"{error or ''}\n"
                )
