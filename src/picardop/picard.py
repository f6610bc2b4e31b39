"""Fixed-point iteration engine with convergence diagnostics.

One engine drives everything: the update

    y_{k+1} = alpha * y_k + (1 - alpha) * (f + lambda * T(y_k))

covers plain successive substitution (alpha = 0), the smoothed message-passing
loop, and the damped update x_{k+1} = (1 - m) T(x_k) + m x_k (f = 0, lambda = 1,
alpha = m). The first update always runs; afterwards the loop stops when the
step norm ||y_{k+1} - y_k|| drops to epsilon. The residual
||lambda T(y_k) + f - y_k|| is logged at every step; for alpha = 0 the two
quantities coincide.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceError, config_value, integer
from .operators import apply
from .spaces import (NORM_KINDS, flat_norm, lincomb, norm, space_values, unflatten_like,
                     zero_like)

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
    """Per-iteration history of a solve.

    ``iterates`` holds y_0 .. y_N when the solve was asked to record them
    (needed for error bounds against a reference solution).
    """

    steps: list
    converged: bool
    iterations_used: int
    iterates: Optional[list] = None

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


def _trace(steps, converged, iterates):
    return IterationTrace(steps=steps, converged=converged,
                          iterations_used=len(steps), iterates=iterates)


def _iterate(op, lam, f, alpha, x0, epsilon, max_iter, norm_kind,
             record_iterates=False, record_stop=None):
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    record_epsilon, record_max = record_stop or (epsilon, max_iter)
    recording = record_iterates
    # The space is fixed once: the steps run on flat float arrays, and only
    # the recorded iterates and the solution are wrapped in x0's grid or block
    # structure. The first step applies the operator to x0 itself, so that it
    # checks x0 lies in its domain and its output in f's space; the later
    # steps apply it to the flat values.
    fv, yv = space_values(f, x0)
    block_dims = getattr(x0, "block_dims", None)
    steps = []
    iterates = [x0] if record_iterates else None
    first_step = None
    converged = False
    for k in range(max_iter):
        try:
            ty = apply(op, yv if k else x0)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} (iteration {k})",
                                  _trace(steps, False, iterates)) from exc
        if k == 0:
            tv, _ = space_values(ty, f)
        else:
            tv = np.asarray(ty, dtype=float)
            if tv.shape != yv.shape:
                raise ValueError(f"shape mismatch: {tv.shape} vs {yv.shape}")
        target = lam * tv + fv
        diff = target - yv
        resid = flat_norm(diff, norm_kind, block_dims)
        if alpha == 0.0:
            y_next, step = target, resid
        else:
            y_next = alpha * yv + (1.0 - alpha) * target
            step = flat_norm(y_next - yv, norm_kind, block_dims)
        # a NaN or Inf entry always makes a norm non-finite, while finite
        # entries can overflow one, so the entries are checked only then
        if not (math.isfinite(resid) and math.isfinite(step)) and not all(
                np.isfinite(v).all() for v in (target, diff, y_next, y_next - yv)):
            raise DivergenceError(f"iterate became non-finite at iteration {k}",
                                  _trace(steps, False, iterates))
        steps.append(StepRecord(k, step, resid))
        yv = y_next
        if recording:
            iterates.append(unflatten_like(x0, yv))
            recording = step > record_epsilon and len(steps) < record_max
        if first_step is None:
            first_step = step
        elif first_step > 0 and step > DIVERGENCE_STEP_RATIO * first_step:
            raise DivergenceError(
                f"step norm exceeded {DIVERGENCE_STEP_RATIO:g} x its initial value "
                f"at iteration {k}", _trace(steps, False, iterates))
        if step <= epsilon:
            converged = True
            break
    return unflatten_like(x0, yv), _trace(steps, converged, iterates)


def picard_solve(op, cfg: PicardConfig, f, x0=None, record_iterates: bool = False,
                 record_run: Optional[PicardConfig] = None):
    """Solve lambda*T(x) + f = x by iterating y_{k+1} = f + lambda*T(y_k) from y_0 = f.

    With cfg.smoothing = alpha > 0 the update is damped:
    y_{k+1} = alpha*y_k + (1-alpha)*(f + lambda*T(y_k)). An explicit ``x0``
    overrides the y_0 = f initialization (used by uniqueness checks).

    ``record_iterates`` keeps the iterates in the trace; with ``record_run``, a
    shorter run's config, only that run's (through its first step <= its epsilon).

    The first step applies ``op`` to the start itself, which checks that it
    lies in the operator's domain; later steps apply it to the flat values.

    Returns (solution, trace); raises DivergenceError (carrying the partial
    trace) when an iterate goes non-finite or steps grow by 1e12 over the first.
    """
    start = f if x0 is None else x0
    record_stop = None if record_run is None else (record_run.epsilon, record_run.max_iter)
    return _iterate(op, cfg.lam, f, cfg.smoothing, start, cfg.epsilon,
                    cfg.max_iter, cfg.norm_kind, record_iterates, record_stop)


def damped_solve(op, lambda_mix: float, x0, epsilon: float, max_iter: int,
                 norm_kind: str = "discrete-L2", record_iterates: bool = False):
    """Iterate the damped update x_{i+1} = (1 - lambda_mix) T(x_i) + lambda_mix x_i.

    Same engine as picard_solve with f = 0, lambda = 1, alpha = lambda_mix;
    the fixed points are those of T itself.
    """
    if not 0.0 <= lambda_mix <= 1.0:
        raise ValueError("lambda_mix must lie in [0, 1]")
    return _iterate(op, 1.0, zero_like(x0), lambda_mix, x0, epsilon, max_iter,
                    norm_kind, record_iterates)


def residual(op, lam: float, f, x, norm_kind: str = "discrete-L2") -> float:
    """The defect ||lambda*T(x) + f - x||."""
    shifted = lincomb(lam, apply(op, x), 1.0, f)
    return norm(lincomb(1.0, shifted, -1.0, x), norm_kind)


def predicted_iterations(k: float, lam: float, norm_Tf: float, epsilon: float) -> int:
    """Smallest nu with (|lambda| k)^nu * norm_Tf < epsilon.

    Requires |lambda|*k < 1. With norm_Tf = ||T(y_0)|| this is the iteration
    count guaranteeing a residual below epsilon; passing a global bound M on
    ||T|| instead yields a nu that is uniform over the free term f.
    """
    if k < 0 or norm_Tf < 0:
        raise ValueError("k and norm_Tf must be nonnegative")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    r = abs(lam) * k
    if r >= 1:
        raise ValueError(f"|lambda|*k = {r:g} must be < 1")
    if norm_Tf == 0 or norm_Tf < epsilon:
        return 0
    if r == 0:
        return 1
    nu = max(0, math.ceil(math.log(epsilon / norm_Tf) / math.log(r)))
    while r ** nu * norm_Tf >= epsilon:
        nu += 1
    while nu > 0 and r ** (nu - 1) * norm_Tf < epsilon:
        nu -= 1
    return nu


def banach_bounds(trace: IterationTrace, k: float, reference=None,
                  norm_kind: str = "discrete-L2") -> list:
    """A priori / a posteriori error bounds for each iterate of a contraction.

    Produces records for n = 0 .. iterations_used. ``actual_error`` is filled
    against ``reference`` when given, which requires the trace to have recorded
    its iterates.
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
            actual = norm(lincomb(1.0, trace.iterates[n], -1.0, reference), norm_kind)
        records.append(BanachBoundRecord(n, apriori, aposteriori, actual))
    return records


def uniqueness_check(op, cfg: PicardConfig, f, seeds):
    """Run the iteration from two distinct starts and compare the limits.

    Returns (ok, distance): ok is True iff both runs converge and the final
    iterates differ by at most 10 * cfg.epsilon in cfg's norm.
    """
    x0_a, x0_b = seeds
    sol_a, trace_a = picard_solve(op, cfg, f, x0=x0_a)
    sol_b, trace_b = picard_solve(op, cfg, f, x0=x0_b)
    distance = norm(lincomb(1.0, sol_a, -1.0, sol_b), cfg.norm_kind)
    ok = trace_a.converged and trace_b.converged and distance <= 10 * cfg.epsilon
    return ok, distance


TRACE_CSV_HEADER = "iter,step_norm,residual,apriori_bound,aposteriori_bound,actual_error"


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def trace_csv_text(trace: IterationTrace, bounds: Optional[Sequence] = None) -> str:
    """Render a trace (and optional bound records, aligned by iterate index) as CSV."""
    out = io.StringIO()
    out.write(TRACE_CSV_HEADER + "\n")
    n_rows = len(trace.steps)
    if bounds is not None:
        n_rows = max(n_rows, len(bounds))
    for i in range(n_rows):
        step = trace.steps[i] if i < len(trace.steps) else None
        rec = bounds[i] if bounds is not None and i < len(bounds) else None
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

