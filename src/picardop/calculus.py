"""Operator differentiation and Lipschitz-constant machinery.

Provides the analytic derivative of the cubic attention map, central
finite-difference oracles, exact (SVD) spectral norms, a pair-sampled
Lipschitz lower bound, and the neighborhood-counting contraction certificate
for graph aggregation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NonFiniteError
from .operators import (
    AttentionOperator,
    GnnAggregateOperator,
    Operator,
    apply,
    neighborhood_membership_counts,
    norm_in,
    require_operator,
)
# norm is unused here, but bench/tracing.py's WRAPS rebinds calculus.norm by name
from .spaces import Space, all_finite, lincomb, norm  # noqa: F401

FD_DEFAULT_STEP = 1e-5


@dataclass(frozen=True)
class LipschitzEstimate:
    """A Lipschitz constant sampled over pairs: a lower bound, not a proven one.

    ``samples`` counts the non-degenerate pairs behind ``value``.
    """

    value: float
    samples: int
    seed: int


@dataclass(frozen=True)
class FrechetDirectionalResult:
    """Analytic vs finite-difference directional derivative at one point, or at
    each point of a stack: ``rel_error`` is then an (S,) array."""

    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_error: float | np.ndarray
    step: float


@dataclass(frozen=True)
class GnnLipschitzReport:
    """Contraction certificate for graph aggregation.

    L is the spectral norm of the shared weight matrix; coeffs[i] counts the
    neighborhoods node i belongs to; the map is certified contractive when
    L * alpha_max < 1.
    """

    L: float
    coeffs: np.ndarray
    alpha_max: int
    product: float

    @property
    def certified(self) -> bool:
        return self.product < 1.0


def _attention_points(op: AttentionOperator, Y, H):
    """Y and H as float arrays of one shape: an m x d point of ``op.space``, or an
    S x m x d stack of such points; a ValueError otherwise."""
    Y, H = np.asarray(Y, dtype=float), np.asarray(H, dtype=float)
    if Y.ndim not in (2, 3) or Y.shape[-1] != op.d:
        raise ValueError(f"expected an m x {op.d} matrix or an S x m x {op.d} stack, "
                         f"got shape {Y.shape}")
    if Y.shape != H.shape:
        raise ValueError(f"Y and H must share a shape, got {Y.shape} vs {H.shape}")
    return Y, H


def attention_frechet(op: AttentionOperator, Y, H) -> np.ndarray:
    """Derivative of the cubic attention map at Y in direction H.

    The map is a product of three terms linear in Y, so the derivative is the
    sum of the three single-substitution terms; it is linear in H. Y and H may
    be S x m x d stacks, whose points are differentiated in one pass.
    """
    Y, H = _attention_points(op, Y, H)
    Q, K, V = Y @ op.Wq, Y @ op.Wk, Y @ op.Wv
    Qh, Kh, Vh = H @ op.Wq, H @ op.Wk, H @ op.Wv
    return ((Qh @ K.swapaxes(-1, -2)) @ V + (Q @ Kh.swapaxes(-1, -2)) @ V
            + (Q @ K.swapaxes(-1, -2)) @ Vh)


def fd_directional(op: Operator, y, h, t: float = FD_DEFAULT_STEP):
    """Central-difference directional derivative (T(y + t h) - T(y - t h)) / (2 t),
    combined in ``op.space`` and returned in y's form."""
    require_operator(op)
    if t == 0:
        raise ValueError("step t must be nonzero")
    space = op.space
    yv = space.values(y)
    plus = apply(op, space.lincomb(1.0, yv, t, h))
    minus = apply(op, space.lincomb(1.0, yv, -t, h))
    out = space.lincomb(1.0 / (2 * t), plus, -1.0 / (2 * t), minus)
    return out if yv is y else space.wrap(out)


def frechet_check(op: AttentionOperator, Y, H,
                  t: float = FD_DEFAULT_STEP) -> FrechetDirectionalResult:
    """Compare the analytic attention derivative with the central difference, in L2.

    Y and H are one m x d pair or S x m x d stacks of S pairs. A stack runs the
    map, its derivative and the difference once over all its points; each point
    gets the same operations, and so the same bytes, as a pair on its own. The
    relative error is taken per point with ``np.vdot``, so ``rel_error`` is a
    float for a pair and an (S,) array for a stack. A non-finite map output is
    a DivergenceError, as in ``apply``.
    """
    require_operator(op)
    analytic = attention_frechet(op, Y, H)
    if t == 0:
        raise ValueError("step t must be nonzero")
    space = Space(analytic.shape)  # a stack is combined as one plain array
    shifted = space.lincomb(1.0, Y, t, H), space.lincomb(1.0, Y, -t, H)
    try:
        plus, minus = (op._map(X) for X in shifted)
    except NonFiniteError as exc:
        raise DivergenceError(str(exc)) from exc
    fd = space.lincomb(1.0 / (2 * t), plus, -1.0 / (2 * t), minus)
    gap = space.lincomb(1.0, analytic, -1.0, fd)
    l2 = space.norm("discrete-L2")
    per_point = (-1,) + analytic.shape[-2:]
    rel = np.array([l2(e) / max(l2(a), 1e-14)
                    for e, a in zip(gap.reshape(per_point), analytic.reshape(per_point))])
    return FrechetDirectionalResult(analytic, fd, rel if analytic.ndim == 3 else float(rel[0]), t)


def spectral_norm(A) -> float:
    """Largest singular value of A (exact, from the SVD); 0.0 for the zero matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    if not all_finite(A):
        raise ValueError("A must have finite entries")
    if not A.any():
        return 0.0
    return float(np.linalg.norm(A, 2))


def lipschitz_sample(op: Operator, sampler, n_pairs: int, seed: int = 0,
                     norm_kind: str = "discrete-L2",
                     extra_pairs=None) -> LipschitzEstimate:
    """Empirical Lipschitz constant: max of ||T(x)-T(y)|| / ||x-y|| over sampled pairs.

    ``sampler(rng)`` draws one point from the operator's domain. Pairs closer
    than 1e-12 are skipped. ``extra_pairs`` lets callers add hand-picked
    (x, y) pairs, e.g. aligned with a known worst-case direction. Distances
    are measured in the operator's space. The result is a lower bound on the
    true constant.
    """
    require_operator(op)
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    rng = np.random.default_rng(seed)
    sampled = ((sampler(rng), sampler(rng)) for _ in range(n_pairs))
    best = -np.inf
    used = 0
    for x, y in itertools.chain(sampled, extra_pairs or ()):
        gap = norm_in(op, lincomb(1.0, x, -1.0, y), norm_kind)
        if gap < 1e-12:
            continue
        ratio = norm_in(op, lincomb(1.0, apply(op, x), -1.0, apply(op, y)), norm_kind) / gap
        best = max(best, ratio)
        used += 1
    if used == 0:
        raise ValueError("all sampled pairs were degenerate (||x - y|| < 1e-12)")
    return LipschitzEstimate(value=float(best), samples=used, seed=seed)


def gnn_lipschitz_report(op: GnnAggregateOperator) -> GnnLipschitzReport:
    """Contraction certificate for the aggregation operator.

    coeffs[i] is the number of neighborhoods containing node i (its degree,
    plus one under self-inclusion); the direct-sum Lipschitz constant is
    bounded by spectral_norm(W) * max(coeffs).
    """
    L = spectral_norm(op.W)
    coeffs = neighborhood_membership_counts(op.graph)
    alpha_max = int(coeffs.max())
    return GnnLipschitzReport(L=L, coeffs=coeffs, alpha_max=alpha_max,
                              product=L * alpha_max)


def rescale_to_contraction(W, alpha_max: int, target: float) -> np.ndarray:
    """Scale W so that spectral_norm(W') * alpha_max equals the target in (0, 1)."""
    if not 0 < target < 1:
        raise ValueError("target must lie in (0, 1)")
    if alpha_max < 1:
        raise ValueError("alpha_max must be a positive count")
    W = np.asarray(W, dtype=float)
    sigma = spectral_norm(W)
    if sigma == 0:
        raise ValueError("cannot rescale the zero matrix")
    return W * (target / (sigma * alpha_max))
