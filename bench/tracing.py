"""Call spans around diracflow's public functions, and the layer metrics built from them.

The traced run replaces module attributes with timing wrappers from the
benchmark's own code; nothing under src/ is edited.  A name is patched
where its caller looks it up (fiber's `evaluate`, branches'
`eig_window`, ...), because `from .x import f` binds a second name.
Spans are kept in memory and turned into metrics after the pass.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    """One wrapped call: name, interval, parent span id, problem id and counters."""

    id: int
    name: str
    start: float
    parent: int | None
    problem: str | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; the open-span stack gives each its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.problem: str | None = None
        self._stack: list[Span] = []

    def wrap(self, fn, name: str, annotate=None):
        """Return fn timed as span `name`; annotate(args, kwargs, result) -> counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, self.clock(), parent, self.problem)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, [])) for s in spans}


# ---- what gets wrapped ------------------------------------------------------


def _fiber_bytes(args, kwargs, result):
    return {"bytes": 16 * (2 * args[0].N) ** 2}


def _eig_pairs(args, kwargs, result):
    return {"pairs": len(result), "max_residual": max((p.residual for p in result), default=0.0)}


def _filter_counts(args, kwargs, result):
    return {"in": len(args[0]), "kept": len(result)}


def _sweep_counts(args, kwargs, result):
    return {
        "samples": args[2].samples,
        "n_branches": len(result),
        "min_overlap": min((b.min_overlap for b in result), default=1.0),
    }


def _flow_counts(args, kwargs, result):
    return {"crossings": len(result.crossings)}


def _dense_bytes(args, kwargs, result):
    return {"bytes": 16 * args[0].dim**2}


def _nonzero_weights(args, kwargs, result):
    r = np.atleast_1d(result)
    return {"n": int(r.size), "nonzero": int(np.count_nonzero(np.abs(r) > 1e-14))}


def _trace_result(args, kwargs, result):
    return {"states_cut": int(result.n_states_cut)}


class _TimedLinalg:
    """scipy.linalg stand-in for oracle2d whose eigh is a span (the oracle's eigensolve)."""

    def __init__(self, linalg, tracer: Tracer):
        self._linalg = linalg
        self.eigh = tracer.wrap(linalg.eigh, "oracle2d.eigh")

    def __getattr__(self, name):
        return getattr(self._linalg, name)


# (module, attribute, span name, annotate); each entry patches the name its
# caller looks up.  `profiles.*` spans are the profile evaluations made by
# both assemblies and by the oracle's trace.
PATCHES = [
    ("diracflow.fiber", "evaluate", "profiles.evaluate", None),
    ("diracflow.fiber", "magnetic_potential", "profiles.magnetic_potential", None),
    ("diracflow.oracle2d", "evaluate", "profiles.evaluate", None),
    ("diracflow.oracle2d", "magnetic_potential", "profiles.magnetic_potential", None),
    ("diracflow.oracle2d", "derivative", "profiles.derivative", _nonzero_weights),
    ("diracflow.branches", "assemble_fiber", "fiber.assemble", _fiber_bytes),
    ("diracflow.branches", "eig_window", "fiber.eig_window", _eig_pairs),
    ("diracflow.branches", "filter_spurious", "fiber.filter", _filter_counts),
    ("diracflow.branches", "boundary_mass", "fiber.boundary_mass", None),
    ("diracflow.branches", "sweep_branches", "branches.sweep", _sweep_counts),
    ("diracflow.branches", "autoscale", "branches.autoscale", None),
    ("diracflow.flow", "spectral_flow", "flow.spectral_flow", _flow_counts),
    ("diracflow.flow", "conductivity", "flow.conductivity", None),
    ("diracflow.bulk", "predicted_sf", "bulk.predicted_sf", None),
    ("diracflow.oracle2d", "assemble_2d", "oracle2d.assemble", _dense_bytes),
    ("diracflow.oracle2d", "trace_conductivity", "oracle2d.trace", _trace_result),
]


@contextmanager
def installed(tracer: Tracer):
    """Patch every PATCHES entry (and oracle2d's linalg) for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, name, annotate in PATCHES:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, annotate))
        oracle = importlib.import_module("diracflow.oracle2d")
        saved.append((oracle, "sla", oracle.sla))
        oracle.sla = _TimedLinalg(oracle.sla, tracer)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---- layer metrics ----------------------------------------------------------

ORACLE_DIMS = (1536, 3072)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers with no calls report 0.

    A call that raised has a span but no counters.
    """
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(ss):
        return float(sum(s.duration for s in ss))

    def self_total(ss):
        return float(sum(own[s.id] for s in ss))

    def attr_sum(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    profiles = [s for s in spans if s.name.startswith("profiles.")]
    assemble, eig = named("fiber.assemble"), named("fiber.eig_window")
    filt, sweeps = named("fiber.filter"), named("branches.sweep")
    flows = [s for s in spans if s.name.startswith("flow.")]
    eig_ms = np.array([s.duration * 1e3 for s in eig])
    solves = len(eig)
    samples = attr_sum(sweeps, "samples")
    bisections = solves - samples
    steps = solves - len(sweeps)
    kept_in, kept = attr_sum(filt, "in"), attr_sum(filt, "kept")

    m = {
        "profiles.calls": len(profiles),
        "profiles.s": total(profiles),
        "fiber.assemble.calls": len(assemble),
        "fiber.assemble.s": self_total(assemble),
        "fiber.assemble.bytes_computed": attr_sum(assemble, "bytes"),
        "fiber.eig_window.calls": solves,
        "fiber.eig_window.s": self_total(eig),
        "fiber.eig_window.p50_ms": float(np.percentile(eig_ms, 50)) if solves else 0.0,
        "fiber.eig_window.p90_ms": float(np.percentile(eig_ms, 90)) if solves else 0.0,
        "fiber.eig_window.pairs": attr_sum(eig, "pairs"),
        "fiber.eig_window.max_residual": max((s.attrs.get("max_residual", 0.0) for s in eig), default=0.0),
        "fiber.filter.in": kept_in,
        "fiber.filter.kept": kept,
        "fiber.filter.kept_frac": kept / kept_in if kept_in else 0.0,
        "fiber.filter.s": self_total(filt),
        "fiber.self_s": self_total([s for s in spans if s.name.startswith("fiber.")]),
        "branches.sweep.s": total(sweeps),
        "branches.self_s": self_total(sweeps),
        "branches.samples": samples,
        "branches.solves": solves,
        "branches.bisections": bisections,
        "branches.step_accept_frac": steps / (steps + bisections) if steps + bisections else 0.0,
        "branches.n_branches": attr_sum(sweeps, "n_branches"),
        "branches.min_overlap": min((s.attrs["min_overlap"] for s in sweeps if s.attrs), default=0.0),
        "branches.autoscale.s": total(named("branches.autoscale")),
        "flow.s": total(flows),
        "flow.crossings": attr_sum(flows, "crossings"),
        "bulk.s": total(named("bulk.predicted_sf")),
    }
    for dim in ORACLE_DIMS:
        at = [s for s in spans if s.problem == f"dim{dim}"]
        traces = [s for s in at if s.name == "oracle2d.trace"]
        weights = [s for s in at if s.name == "profiles.derivative" and s.attrs.get("n") == dim]
        m[f"oracle2d.assemble.s.{dim}"] = total([s for s in at if s.name == "oracle2d.assemble"])
        m[f"oracle2d.assemble.bytes_computed.{dim}"] = attr_sum(
            [s for s in at if s.name == "oracle2d.assemble"], "bytes"
        )
        m[f"oracle2d.trace.s.{dim}"] = total(traces)
        m[f"oracle2d.eigh.s.{dim}"] = total([s for s in at if s.name == "oracle2d.eigh"])
        m[f"oracle2d.trace.live_states.{dim}"] = attr_sum(weights, "nonzero")
        m[f"oracle2d.trace.states_cut.{dim}"] = attr_sum(traces, "states_cut")
    return m
