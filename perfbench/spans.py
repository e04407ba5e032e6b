"""In-memory spans around the package's public functions.

A `Tracer` records one span per call: name, start, end, the span that caused
it and a few attributes taken from the call.  `Tracer.installed()` puts
wrappers at the module attributes the callers look up (for example
`stripshear.cli.evolve`, which `cli` calls, or
`stripshear.incremental.increment_solve`, which `stability_residual`
calls) and restores the originals on exit, so untraced operations run the
unmodified package.  The benchmark opens its own spans around the calls it
makes into the package (`cli.main`, the visco series).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from stripshear import DEFAULT_OPTIONS


def _increment_phase(args, kwargs, result) -> dict:
    gamma_prev = args[0] if args else kwargs["gamma_prev"]
    flowing = float(np.max(np.abs(gamma_prev.values))) > DEFAULT_OPTIONS.yield_tol
    return {"phase": "post_yield" if flowing else "pre_yield"}


def _newton_calls(args, kwargs, result) -> dict:
    return {"newton_calls": int(result.diagnostics["newton_calls"])}


def _visco_tau(args, kwargs, result) -> dict:
    return {"tau": float(args[1] if len(args) > 1 else kwargs["tau_next"])}


# (module, attribute, span name, attribute extractor).  Wrappers go where
# the callers look the names up, so each row names the calling module.
# `model` holds constructors only; its cost falls into set-up.
INSTRUMENTED = (
    ("stripshear.cli", "evolve", "incremental.evolve", None),
    ("stripshear.cli", "stability_residual", "incremental.stability_residual", None),
    ("stripshear.cli", "detect_yield", "incremental.detect_yield", None),
    ("stripshear.incremental", "increment_solve", "incremental.increment_solve",
     _increment_phase),
    ("stripshear.cli", "yield_variational", "yield_stress.yield_variational",
     _newton_calls),
    ("stripshear.cli", "theta_of_lambda", "yield_stress.theta_of_lambda", None),
    ("stripshear.cli", "minimizer_profile", "yield_stress.minimizer_profile", None),
    ("stripshear.cli", "simulate_visco", "viscoplastic.simulate_visco", None),
    ("stripshear.viscoplastic", "visco_step", "viscoplastic.visco_step", _visco_tau),
    ("stripshear.cli", "recover_displacement", "viscoplastic.recover_displacement",
     None),
    ("stripshear.cli", "mass", "functionals.mass", None),
    ("stripshear.cli", "relaxed_dissipation", "functionals.relaxed_dissipation", None),
    ("stripshear.incremental", "total_energy", "functionals.total_energy", None),
    ("stripshear.incremental", "dissipation", "functionals.dissipation", None),
    ("stripshear.yield_stress", "mass", "functionals.mass", None),
    ("stripshear.yield_stress", "relaxed_dissipation", "functionals.relaxed_dissipation",
     None),
    ("stripshear.cli", "render_line_plot", "svg.render_line_plot", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; a thread's first span is parented
    to the span open on the thread that created the tracer (the caller of a
    thread pool)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return stack, index

    @contextmanager
    def span(self, name: str, **attrs):
        stack, index = self._open(name)
        span = self.spans[index]
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span.attrs.update(extract(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every INSTRUMENTED name; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, extract in INSTRUMENTED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, extract))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time(self, index: int) -> float:
        """Span duration minus the union of its children's intervals."""
        span = self.spans[index]
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == index
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered
