"""Fixed-point iteration engine with convergence diagnostics.

One engine drives everything: the update

    y_{k+1} = alpha * y_k + (1 - alpha) * (f + lambda * T(y_k))

covers plain successive substitution (alpha = 0), the smoothed message-passing
loop, and the damped update x_{k+1} = (1 - m) T(x_k) + m x_k, which is
``picard_solve`` with lambda = 1, f = 0 and smoothing = m. The first update
always runs; afterwards the loop stops when the step norm ||y_{k+1} - y_k||
drops to epsilon. The residual ||lambda T(y_k) + f - y_k|| is logged at every
step; for alpha = 0 the two quantities coincide.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceError, config_value, integer
from .operators import Operator, apply, norm_in, require_operator
# norm is unused here, but bench/tracing.py's WRAPS rebinds picard.norm by name
from .spaces import NORM_KINDS, Space, lincomb, norm  # noqa: F401

DIVERGENCE_STEP_RATIO = 1e12


@dataclass(frozen=True)
class PicardConfig:
    """Solver parameters: shift lambda, tolerance, iteration cap, smoothing, norm."""

    lam: float
    epsilon: float
    max_iter: int
    smoothing: float = 0.0
    norm_kind: str = "discrete-L2"

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam == 0:
            raise ValueError("lambda must be finite and nonzero")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        try:
            # the CLI's integer rule: ints and integral floats, not booleans
            object.__setattr__(self, "max_iter", integer(self.max_iter))
        except ValueError:
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 <= self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in [0, 1]")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    @classmethod
    def from_json(cls, obj) -> "PicardConfig":
        """Parse the JSON section {lambda, epsilon, max_iter, smoothing, norm}.

        A missing or invalid value is a ConfigError naming ``picard.<field>``.
        """
        cfg = {"picard": obj}
        return cls(
            lam=config_value(cfg, "picard.lambda", "a finite nonzero number",
                             lambda v: v != 0),
            epsilon=config_value(cfg, "picard.epsilon", "a positive number",
                                 lambda v: v > 0),
            max_iter=config_value(cfg, "picard.max_iter", "an integer >= 1",
                                  lambda v: v >= 1, integer),
            smoothing=config_value(cfg, "picard.smoothing", "a number in [0, 1]",
                                   lambda v: 0 <= v <= 1, default=0.0),
            norm_kind=config_value(cfg, "picard.norm", f"one of {NORM_KINDS}",
                                   lambda v: v in NORM_KINDS, cast=None,
                                   default="discrete-L2"),
        )


@dataclass(frozen=True)
class StepRecord:
    """One iteration: index k, step norm ||y_{k+1} - y_k||, residual at y_k."""

    index: int
    step_norm: float
    residual: float


@dataclass
class IterationTrace:
    """Per-iteration history of a solve, and how it measured.

    ``space`` and ``norm_kind`` are those its steps were measured in: the
    operator's space and the config's norm.
    ``iterates`` holds y_0 .. y_N when the solve was asked to record them
    (needed for error bounds against a reference solution).
    """

    steps: list
    converged: bool
    space: Space
    norm_kind: str
    iterates: Optional[list] = None

    @property
    def iterations_used(self) -> int:
        return len(self.steps)

    def norm(self, x) -> float:
        """||x|| in the norm of the steps; x is a value of the space or its flat values."""
        return self.space.norm(self.norm_kind)(self.space.values(x))

    def distance(self, x, y) -> float:
        """||x - y|| in the norm of the steps, for x and y in either form."""
        return self.norm(self.space.lincomb(1.0, x, -1.0, y))

    @property
    def step_norms(self) -> np.ndarray:
        return np.array([s.step_norm for s in self.steps])

    @property
    def final_step(self) -> float:
        return self.steps[-1].step_norm if self.steps else math.nan


@dataclass(frozen=True)
class BanachBoundRecord:
    """Error bounds at iterate n for a contraction with constant k.

    a priori:     k^n / (1 - k) * ||u_0 - u_1||
    a posteriori: k / (1 - k) * ||u_{n-1} - u_n||   (undefined at n = 0)
    """

    n: int
    apriori_bound: float
    aposteriori_bound: Optional[float]
    actual_error: Optional[float] = None


def _iterate(op, cfg: PicardConfig, f, x0, record_iterates=False, record_run=None):
    recording = record_iterates
    # x0 and f are read once through op.space, whose norm measures the steps; every
    # step runs on flat arrays, and the iterates take x0's form by Operator.__call__'s rule
    yv, fv = op.space.values(x0), op.space.values(f)
    # a free row count would otherwise broadcast a one-row f over every token
    if fv.shape != yv.shape:
        raise ValueError(f"shape mismatch: {yv.shape} vs {fv.shape}")
    form = (lambda v: v) if yv is x0 else op.space.wrap
    lam, alpha, epsilon = cfg.lam, cfg.smoothing, cfg.epsilon
    flat_norm = op.space.norm(cfg.norm_kind)
    trace = IterationTrace([], False, op.space, cfg.norm_kind, [x0] if record_iterates else None)
    steps, iterates = trace.steps, trace.iterates
    first_step = None
    for k in range(cfg.max_iter):
        try:
            tv = apply(op, yv)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} (iteration {k})", trace) from exc
        # a subclass's _map can return the wrong shape, which broadcasting would hide
        if tv.shape != yv.shape:
            raise ValueError(f"shape mismatch: {tv.shape} vs {yv.shape}")
        # in-place forms of lam * tv + fv and alpha * yv + (1 - alpha) * target:
        # the same operations in the same order, with fewer temporaries
        target = np.multiply(tv, lam)
        target += fv
        diff = target - yv
        resid = flat_norm(diff)
        if alpha == 0.0:
            y_next, step = target, resid
        else:
            y_next = np.multiply(yv, alpha)
            y_next += (1.0 - alpha) * target
            step = flat_norm(y_next - yv)
        # a NaN or Inf entry always makes a norm non-finite, while finite
        # entries can overflow one, so the entries are checked only then
        if not (math.isfinite(resid) and math.isfinite(step)) and not all(
                np.isfinite(v).all() for v in (target, diff, y_next, y_next - yv)):
            raise DivergenceError(f"iterate became non-finite at iteration {k}", trace)
        steps.append(StepRecord(k, step, resid))
        yv = y_next
        if recording:
            iterates.append(form(yv))
            recording = record_run is None or (step > record_run.epsilon
                                               and len(steps) < record_run.max_iter)
        if first_step is None:
            first_step = step
        elif first_step > 0 and step > DIVERGENCE_STEP_RATIO * first_step:
            raise DivergenceError(
                f"step norm exceeded {DIVERGENCE_STEP_RATIO:g} x its initial value "
                f"at iteration {k}", trace)
        if step <= epsilon:
            trace.converged = True
            break
    return form(yv), trace


def picard_solve(op: Operator, cfg: PicardConfig, f, x0=None, record_iterates: bool = False,
                 record_run: Optional[PicardConfig] = None):
    """Solve lambda*T(x) + f = x by iterating y_{k+1} = f + lambda*T(y_k) from y_0 = f.

    With cfg.smoothing = alpha > 0 the update is damped:
    y_{k+1} = alpha*y_k + (1-alpha)*(f + lambda*T(y_k)). An explicit ``x0``
    overrides the y_0 = f initialization (used by uniqueness checks).

    ``record_iterates`` keeps the iterates in the trace; with ``record_run``, a
    shorter run's config, only that run's (through its first step <= its epsilon).

    ``op`` is an ``Operator``. ``op.space`` reads the start and ``f`` once (each
    a value of the space or its flat values, of one flat shape) and decides the
    norm: block values are flat arrays, whose blocks only ``op.space`` knows.
    The solution and the iterates come back in the start's form, as from
    ``op(start)``; every step applies ``op`` to flat values and checks the
    output's shape.

    Returns (solution, trace); raises DivergenceError (carrying the partial
    trace) when an iterate goes non-finite or steps grow by 1e12 over the first.
    """
    require_operator(op)
    return _iterate(op, cfg, f, f if x0 is None else x0, record_iterates, record_run)


def residual(op: Operator, lam: float, f, x, norm_kind: str = "discrete-L2") -> float:
    """The defect ||lambda*T(x) + f - x||, measured in op's space."""
    require_operator(op)
    shifted = lincomb(lam, apply(op, x), 1.0, f)
    return norm_in(op, lincomb(1.0, shifted, -1.0, x), norm_kind)


def predicted_iterations(k: float, lam: float, norm_Tf: float, epsilon: float) -> int:
    """Smallest nu with (|lambda| k)^nu * |lambda| * norm_Tf < epsilon.

    Requires |lambda|*k < 1, and covers the plain iteration (alpha = 0) from
    y_0 = f. After nu updates the residual is ||y_{nu+1} - y_nu||, at most
    (|lambda| k)^nu * ||y_1 - y_0||, and y_1 - y_0 = lambda * T(y_0). So with
    norm_Tf = ||T(y_0)|| this is an iteration count guaranteeing a residual
    below epsilon; passing a global bound M on ||T|| instead yields a nu that
    is uniform over the free term f.
    """
    if k < 0 or norm_Tf < 0:
        raise ValueError("k and norm_Tf must be nonnegative")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    r = abs(lam) * k
    if r >= 1:
        raise ValueError(f"|lambda|*k = {r:g} must be < 1")
    first_step = abs(lam) * norm_Tf
    if first_step < epsilon:
        return 0
    if r == 0:
        return 1
    nu = max(0, math.ceil(math.log(epsilon / first_step) / math.log(r)))
    while r ** nu * first_step >= epsilon:
        nu += 1
    while nu > 0 and r ** (nu - 1) * first_step < epsilon:
        nu -= 1
    return nu


def banach_bounds(trace: IterationTrace, k: float, reference=None) -> list:
    """A priori / a posteriori error bounds for each iterate of a contraction.

    Produces records for n = 0 .. iterations_used. ``actual_error`` is filled
    against ``reference`` (in either form) when given, which requires recorded
    iterates, and measured in the trace's norm, the one the bounds come from.
    """
    if not 0 <= k < 1:
        raise ValueError("contraction constant k must lie in [0, 1)")
    if not trace.steps:
        raise ValueError("trace is empty")
    if reference is not None and trace.iterates is None:
        raise ValueError("actual errors need a trace recorded with record_iterates=True")
    d01 = trace.steps[0].step_norm
    records = []
    for n in range(trace.iterations_used + 1):
        apriori = k ** n / (1 - k) * d01
        aposteriori = k / (1 - k) * trace.steps[n - 1].step_norm if n >= 1 else None
        actual = None
        if reference is not None:
            actual = trace.distance(trace.iterates[n], reference)
        records.append(BanachBoundRecord(n, apriori, aposteriori, actual))
    return records


def uniqueness_check(op: Operator, cfg: PicardConfig, f, seeds):
    """Run the iteration from two distinct starts and compare the limits.

    Returns (ok, distance): ok is True iff both runs converge and the final
    iterates differ by at most 10 * cfg.epsilon in the norm of the runs' steps.
    """
    require_operator(op)
    x0_a, x0_b = seeds
    sol_a, trace_a = picard_solve(op, cfg, f, x0=x0_a)
    sol_b, trace_b = picard_solve(op, cfg, f, x0=x0_b)
    distance = trace_a.distance(sol_a, sol_b)
    ok = trace_a.converged and trace_b.converged and distance <= 10 * cfg.epsilon
    return ok, distance


TRACE_CSV_HEADER = "iter,step_norm,residual,apriori_bound,aposteriori_bound,actual_error"


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def trace_csv_text(trace: IterationTrace, bounds: Optional[Sequence] = None) -> str:
    """Render a trace (and optional bound records, aligned by iterate index) as CSV."""
    out = io.StringIO()
    out.write(TRACE_CSV_HEADER + "\n")
    for i, (step, rec) in enumerate(itertools.zip_longest(trace.steps, bounds or ())):
        cells = [
            str(i),
            _fmt(step.step_norm if step else None),
            _fmt(step.residual if step else None),
            _fmt(rec.apriori_bound if rec else None),
            _fmt(rec.aposteriori_bound if rec else None),
            _fmt(rec.actual_error if rec else None),
        ]
        out.write(",".join(cells) + "\n")
    return out.getvalue()

