"""Outside-in tracing of eigmatch's layers, and the per-layer numbers from spans.

The tracer replaces public functions at the names their callers bound (for
example ``eigmatch.cli.fourier_coeffs``, ``eigmatch.galerkin.sorted_match``,
``eigmatch.core.ScalarSymbol.sample``) with wrappers that record one span per
call and return the wrapped function's result unchanged.  Nothing inside the
package changes.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """A traced function: span name, the bindings to wrap, and counters it feeds.

    ``count`` maps a call's result to increments of the named ``counters``,
    reported as ``<span name>.<counter>``.
    """

    name: str
    bindings: tuple[str, ...]
    counters: tuple[str, ...] = ()
    count: Callable[[object], tuple[int, ...]] | None = None


LAYERS = (
    Layer("toeplitz.fourier_coeffs", ("eigmatch.cli:fourier_coeffs",)),
    Layer("toeplitz.toeplitz_build", ("eigmatch.cli:toeplitz_build",)),
    Layer("core.sample", ("eigmatch.core:ScalarSymbol.sample",),
          ("points",), lambda values: (len(values),)),
    Layer("eig.eig_sym", ("eigmatch.cli:eig_sym",), ("dof",), lambda spectrum: (spectrum.n,)),
    Layer("eig.eig_sym_tridiag", ("eigmatch.cli:eig_sym_tridiag",),
          ("dof",), lambda spectrum: (spectrum.n,)),
    Layer("eig.eig_gen_sym_def", ("eigmatch.cli:eig_gen_sym_def",)),
    Layer("galerkin.assemble_KM", ("eigmatch.cli:assemble_KM",)),
    Layer("galerkin.infer_grid_assignment", ("eigmatch.cli:infer_grid_assignment",),
          ("found",), lambda found: (int(found is not None),)),
    Layer("galerkin.verify_eig_formula", ("eigmatch.cli:verify_eig_formula",),
          ("passed",), lambda result: (int(bool(result[0])),)),
    # symbol_e_branches calls symbol_f and symbol_h through galerkin's own names.
    Layer("galerkin.symbol", ("eigmatch.cli:symbol_f", "eigmatch.cli:symbol_h",
                              "eigmatch.cli:symbol_e_branches", "eigmatch.galerkin:symbol_f",
                              "eigmatch.galerkin:symbol_h")),
    Layer("galerkin.fd_matrix", ("eigmatch.cli:fd_matrix",)),
    Layer("match.sorted_match", ("eigmatch.cli:sorted_match", "eigmatch.galerkin:sorted_match",
                                 "eigmatch.match:sorted_match")),
    Layer("match.mn_curve", ("eigmatch.cli:mn_curve", "eigmatch.match:mn_curve")),
)

# Span fields, in the order they are stored and written.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread")


def _resolve(binding: str) -> tuple[object, str]:
    """'pkg.module:Attr.name' -> (object holding the last attribute, its name)."""
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans (id, name, start, end, parent id, thread id) and counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, layer.name, start, end, parent, threading.get_ident()))
            if layer.count is not None:
                increments = layer.count(result)
                with self._lock:
                    for key, value in zip(layer.counters, increments):
                        name = f"{layer.name}.{key}"
                        self.counters[name] = self.counters.get(name, 0) + value
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            for binding in layer.bindings:
                owner, attr = _resolve(binding)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer numbers from one pass's spans
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def peak_concurrency(intervals) -> int:
    """Largest number of (start, end) intervals open at one instant."""
    events = sorted(e for start, end in intervals for e in ((start, 1), (end, -1)))
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(spans, counters: dict[str, int], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``<layer>.busy_s`` is the wall time during which at least one call of the
    layer was running on any thread, including time the call waited for the
    interpreter lock; ``<layer>.calls`` counts its calls.  ``cli.self_s`` is
    the pass wall time covered by no span at all: argument parsing, thread
    pools, CSV output and the glue between layers.  ``cli.workers`` is the
    largest number of threads inside a span at the same moment (thread ids
    are reused across the CLI's short-lived pools, so they are not counted).
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [(s[2], s[3]) for s in spans if s[1] == layer.name]
        out[f"{layer.name}.busy_s"] = union_length(mine)
        out[f"{layer.name}.calls"] = len(mine)
        for key in layer.counters:
            out[f"{layer.name}.{key}"] = counters.get(f"{layer.name}.{key}", 0)
    out["cli.self_s"] = wall_s - union_length((s[2], s[3]) for s in spans)
    out["cli.workers"] = peak_concurrency((s[2], s[3]) for s in spans if s[4] is None)
    out["cli.wall_s"] = wall_s
    return out


def self_times(spans) -> dict[str, float]:
    """Per layer, the summed span durations not covered by child spans."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
    out: dict[str, float] = {}
    for span in spans:
        own = span[3] - span[2] - child_time.get(span[0], 0.0)
        out[span[1]] = out.get(span[1], 0.0) + own
    return out
