"""Span tracer that wraps lanemden's public functions from outside the package.

``harness``, ``cli`` and ``spectral`` bind their collaborators with
``from ... import``, so wrapping the defining module alone would miss most
calls: every module global that holds the original function is replaced, and
so is each entry of the verification suite's check table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

from workloads import VERIFY_CHECKS

MODULES = ("lanemden", "lanemden.steady", "lanemden.phase", "lanemden.spectral",
           "lanemden.harness", "lanemden.cli")


def _grid_points(args, kwargs, out) -> int:
    return len(out.radii)


def _points(args, kwargs, out) -> int:
    r = args[1] if len(args) > 1 else kwargs["r"]
    return len(r) if hasattr(r, "__len__") else 1


def _nodes(args, kwargs, out) -> int:
    return len(out.nodes)


def _error_rows(args, kwargs, out) -> int:
    return sum(row.verdict == "Error" for row in out)


# (module, function, count of work done by one call)
TARGETS = (
    ("steady", "integrate_gas_profile", _grid_points),
    ("steady", "pohozaev_residual", _points),
    ("steady", "scale_profile", None),
    ("spectral", "build_sl_data", None),
    ("spectral", "assemble", _nodes),
    ("spectral", "smallest_eigenpair", _nodes),
    ("spectral", "eigen_residual_strongform", None),
    ("spectral", "classify_stability", None),
    ("phase", "phase_trajectory", None),
    ("phase", "tail_convergence_rate", None),
    ("harness", "sweep_row", None),
    ("harness", "run_sweep", _error_rows),
    ("harness", "critical_density", None),
    ("harness", "verify_suite", None),
    ("cli", "main", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "count")

    def __init__(self, id: int, parent: Optional[int], name: str, start: float):
        self.id, self.parent, self.name, self.start = id, parent, name, start
        self.end = start
        self.child_s = 0.0
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # calls are single-threaded and nested, so children never overlap
        return self.duration - self.child_s


class Tracer:
    """Spans with parent ids, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if count is not None:
                span.count = count(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where it is looked up; restore the originals on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo = []
        for mod_name, fn_name, count in TARGETS:
            home = sys.modules[f"lanemden.{mod_name}"]
            original = getattr(home, fn_name, None)
            if original is None:
                sys.stderr.write(f"trace: lanemden.{mod_name}.{fn_name} not found, not traced\n")
                continue
            wrapper = self.wrap(original, f"{mod_name}.{fn_name}", count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        harness = sys.modules["lanemden.harness"]
        checks = getattr(harness, "_CHECKS", None)
        if checks is None:
            sys.stderr.write("trace: lanemden.harness._CHECKS not found, checks not traced\n")
        else:
            harness._CHECKS = tuple(
                (name, self.wrap(fn, f"harness.verify.{name}")) for name, fn in checks
            )
            undo.append((harness, "_CHECKS", checks))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def _percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-pass counts and self times of each traced function."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ())) / passes

    def total_s(name):
        return sum(s.duration for s in by_name.get(name, ())) / passes

    def count(name):
        return sum(s.count for s in by_name.get(name, ())) / passes

    names = {s.id: s.name for s in spans}
    rows_ms = [s.duration * 1e3 for s in by_name.get("harness.sweep_row", ())]
    m = {
        "steady.integrate_gas_profile.calls": calls("steady.integrate_gas_profile"),
        "steady.integrate_gas_profile.self_s": self_s("steady.integrate_gas_profile"),
        "steady.integrate_gas_profile.grid_points": count("steady.integrate_gas_profile"),
        "steady.pohozaev_residual.calls": calls("steady.pohozaev_residual"),
        "steady.pohozaev_residual.self_s": self_s("steady.pohozaev_residual"),
        "steady.pohozaev_residual.points": count("steady.pohozaev_residual"),
        "steady.scale_profile.calls": calls("steady.scale_profile"),
        "spectral.build_sl_data.self_s": self_s("spectral.build_sl_data"),
        "spectral.assemble.self_s": self_s("spectral.assemble"),
        "spectral.assemble.nodes": count("spectral.assemble"),
        "spectral.smallest_eigenpair.calls": calls("spectral.smallest_eigenpair"),
        "spectral.smallest_eigenpair.self_s": self_s("spectral.smallest_eigenpair"),
        "spectral.smallest_eigenpair.nodes": count("spectral.smallest_eigenpair"),
        "spectral.eigen_residual_strongform.self_s": self_s("spectral.eigen_residual_strongform"),
        "spectral.classify_stability.self_s": self_s("spectral.classify_stability"),
        "phase.phase_trajectory.self_s": self_s("phase.phase_trajectory"),
        "phase.tail_convergence_rate.self_s": self_s("phase.tail_convergence_rate"),
        "harness.sweep_row.p50_ms": _percentile(rows_ms, 50),
        "harness.sweep_row.p90_ms": _percentile(rows_ms, 90),
        "harness.sweep_row.calls": calls("harness.sweep_row"),
        "harness.critical_density.stars": sum(
            1 for s in by_name.get("harness.sweep_row", ())
            if names.get(s.parent) == "harness.critical_density"
        ) / passes,
        "harness.run_sweep.error_rows": count("harness.run_sweep"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for name in VERIFY_CHECKS:
        m[f"harness.verify.{name}_s"] = total_s(f"harness.verify.{name}")
    return m


def layer_split(spans: List[Span], passes: int, wall_s: float) -> Dict[str, float]:
    """Share of the untraced pass time spent in each group of layers (self time)."""
    groups = {
        "eigensolve": ("spectral.smallest_eigenpair",),
        "integration": ("steady.integrate_gas_profile", "steady.scale_profile"),
        "pohozaev": ("steady.pohozaev_residual",),
        "build_assemble_strongform": ("spectral.build_sl_data", "spectral.assemble",
                                      "spectral.eigen_residual_strongform"),
        "phase": ("phase.phase_trajectory", "phase.tail_convergence_rate"),
    }
    out = {}
    for group, names in groups.items():
        busy = sum(s.self_s for s in spans if s.name in names) / passes
        out[group] = busy / wall_s
    out["other"] = 1.0 - sum(out.values())
    return out
