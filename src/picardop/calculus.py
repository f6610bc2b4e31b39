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

from .operators import (
    AttentionOperator,
    GnnAggregateOperator,
    Operator,
    apply,
    neighborhood_membership_counts,
    norm_in,
)
from .spaces import lincomb, norm  # noqa: F401  (norm: bench/tracing.py's WRAPS rebinds it)

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
    """Analytic vs finite-difference directional derivative at one point."""

    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_error: float
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


def attention_frechet(op: AttentionOperator, Y, H) -> np.ndarray:
    """Derivative of the cubic attention map at Y in direction H.

    The map is a product of three terms linear in Y, so the derivative is the
    sum of the three single-substitution terms; it is linear in H.
    """
    Y, H = op.space.values(Y), op.space.values(H)
    if Y.shape != H.shape:
        raise ValueError(f"Y and H must share a shape, got {Y.shape} vs {H.shape}")
    Q, K, V = Y @ op.Wq, Y @ op.Wk, Y @ op.Wv
    Qh, Kh, Vh = H @ op.Wq, H @ op.Wk, H @ op.Wv
    return (Qh @ K.T) @ V + (Q @ Kh.T) @ V + (Q @ K.T) @ Vh


def fd_directional(op: Operator, y, h, t: float = FD_DEFAULT_STEP):
    """Central-difference directional derivative (T(y + t h) - T(y - t h)) / (2 t),
    combined in ``op.space`` and returned in y's form."""
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
    """Compare the analytic attention derivative with the central difference, in L2."""
    analytic = attention_frechet(op, Y, H)
    fd = fd_directional(op, Y, H, t)
    l2 = op.space.norm("discrete-L2")
    rel = l2(op.space.lincomb(1.0, analytic, -1.0, fd)) / max(l2(analytic), 1e-14)
    return FrechetDirectionalResult(analytic, fd, rel, t)


def spectral_norm(A) -> float:
    """Largest singular value of A (exact, from the SVD); 0.0 for the zero matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    if not np.all(np.isfinite(A)):
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
