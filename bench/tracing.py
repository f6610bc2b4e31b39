"""Span tracer that measures picardop's layers from the outside.

Every picardop module binds the names it imports when it is imported
(``picard`` does ``from .operators import apply``), so a wrapper only sees a
call if it replaces the name in the *calling* module: ``picardop.picard.apply``,
not ``picardop.operators.apply``. ``WRAPS`` lists those bindings. Spans are
recorded only inside a root span opened by the benchmark (one per task, or
one for set-up), so checks run between tasks stay untraced.

A span's self time is its duration minus the durations of its direct child
spans; its inclusive time is counted only for the outermost span of a name,
so nested spans of one name are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time

# (calling module, bound name, span name). The span name's first component is
# the layer the time is charged to.
WRAPS = (
    ("picard", "apply", "operators.apply"),
    ("picard", "lincomb", "spaces.lincomb"),
    ("picard", "norm", "spaces.norm"),
    ("calculus", "apply", "operators.apply"),
    ("calculus", "lincomb", "spaces.lincomb"),
    ("calculus", "norm", "spaces.norm"),
    ("calculus", "spectral_norm", "calculus.spectral_norm"),
    ("pign", "_iterate", "picard.solve"),
    ("pign", "apply", "operators.apply"),
    ("pign", "Graph", "operators.build"),
    ("pign", "GnnAggregateOperator", "operators.build"),
    ("pign", "gnn_lipschitz_report", "calculus.gnn_lipschitz_report"),
    ("pign", "rescale_to_contraction", "calculus.rescale_to_contraction"),
    ("pign", "planted_partition", "pign.planted_partition"),
    ("pign", "add_dropin_noise", "pign.add_dropin_noise"),
    ("pign", "pign_embed", "pign.pign_embed"),
    ("pign", "train_logistic_readout", "pign.train_logistic_readout"),
    ("pign", "write_text_atomic", "cli.write"),
    ("cli", "_load_config", "cli.load_config"),
    ("cli", "write_json_atomic", "cli.write"),
    ("cli", "write_text_atomic", "cli.write"),
    ("cli", "operator_from_config", "operators.build"),
    ("cli", "picard_solve", "picard.solve"),
    ("cli", "residual", "picard.residual"),
    ("cli", "banach_bounds", "picard.banach_bounds"),
    ("cli", "trace_csv_text", "picard.trace_csv_text"),
    ("cli", "frechet_check", "calculus.frechet_check"),
    ("cli", "gnn_lipschitz_report", "calculus.gnn_lipschitz_report"),
    ("cli", "rescale_to_contraction", "calculus.rescale_to_contraction"),
    ("cli", "spectral_norm", "calculus.spectral_norm"),
)


def _observe_solve(tracer, args, out):
    trace = out[1]
    tracer.count("picard.iterations", trace.iterations_used)
    tracer.count("picard.converged", int(trace.converged))


def _observe_write(tracer, args, out):
    tracer.count("cli.write.bytes", os.path.getsize(args[0]))


# Counters read from a call's arguments or result, after its span has closed.
OBSERVERS = {"picard.solve": _observe_solve, "cli.write": _observe_write}


class Tracer:
    """Aggregates spans by name into [calls, inclusive seconds, self seconds]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans as [name, start, child seconds]
        self.stats = {}
        self.counters = {}
        self._saved = []

    def begin(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        if all(frame[0] != name for frame in self.stack):
            entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call; recorded only under a root."""
        if not self.stack:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span (a task, or set-up) under which wrapped calls record."""
        if self.stack:
            raise RuntimeError(f"root span {name!r} opened inside {self.stack[-1][0]!r}")
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every name in ``WRAPS`` to a traced wrapper."""
        if self._saved:
            return
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(f"picardop.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}


class NullTracer:
    """Stand-in for untraced processes: spans and wrappers cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, fn, name: str):
        return fn
