"""Iterative graph message passing on synthetic planted-partition data.

The embedding loop is the damped fixed-point engine applied to the graph
aggregation operator; a logistic readout on the final embeddings measures how
much class signal survives feature noise, against a single-pass baseline.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import gnn_lipschitz_report, rescale_to_contraction
from .errors import config_value, integer
from .ioutil import write_text_atomic
from .operators import (GnnAggregateOperator, Graph, apply, neighborhood_membership_counts,
                        require_operator)
from .picard import IterationTrace, PicardConfig, _iterate
from .spaces import _real_array, require_finite

REPORT_CSV_HEADER = "seed,mode,noise_p,pign_acc,baseline_acc,iters_used"


@dataclass
class PlantedPartitionDataset:
    """Synthetic two-class graph: denser within classes, a class-mean feature gap."""

    graph: Graph
    features: np.ndarray  # read-only (n*d,) block values: node v's are [v*d, v*d + d)
    labels: np.ndarray
    params: dict


@dataclass
class PignResult:
    """One experiment run: final embeddings, solve trace, and both readout accuracies."""

    embeddings: np.ndarray  # (n*d,) block values of the operator's space
    trace: IterationTrace
    readout_accuracy: float
    baseline_accuracy: float
    seed: int
    mode: str
    noise_p: float


def planted_partition(n: int, d: int, p_in: float, p_out: float,
                      separation: float, seed: int) -> PlantedPartitionDataset:
    """Generate a balanced two-class planted partition with Gaussian features.

    Within-class edges appear with probability p_in, across-class with
    p_out < p_in. Node features are unit Gaussian noise around the class mean,
    which is +/- separation/2 on the first coordinate. Deterministic per seed.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even count >= 2")
    if d < 1:
        raise ValueError("d must be positive")
    if not (0 <= p_out < p_in <= 1):
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    coin = rng.random((n, n))
    same_class = labels[:, None] == labels[None, :]
    linked = np.where(same_class, coin < p_in, coin < p_out)
    graph = Graph(n, np.argwhere(np.triu(linked, 1)), include_self=True)
    feats = rng.standard_normal((n, d))
    feats[:, 0] += (2 * labels - 1) * (separation / 2.0)  # the class means
    feats.setflags(write=False)
    return PlantedPartitionDataset(
        graph=graph,
        features=feats.ravel(),
        labels=labels,
        params={"n": n, "d": d, "p_in": p_in, "p_out": p_out,
                "class_mean_separation": separation, "seed": seed},
    )


def add_dropin_noise(X: np.ndarray, p: float, magnitude: float, seed: int) -> np.ndarray:
    """A read-only copy of X with +magnitude added to floor(p * X.size) random entries."""
    if not 0 <= p <= 1:
        raise ValueError("noise fraction p must lie in [0, 1]")
    if not magnitude > 0:
        raise ValueError("magnitude must be positive")
    noisy = _real_array(X).copy()
    require_finite(noisy, "block values")
    count = int(p * noisy.size)  # the floor, as p >= 0
    idx = np.random.default_rng(seed).choice(noisy.size, size=count, replace=False)
    noisy.flat[idx] += magnitude
    noisy.setflags(write=False)
    return noisy


def pign_embed(op: GnnAggregateOperator, X: np.ndarray, alpha: float,
               n: int, epsilon: float, anchor: Optional[np.ndarray] = None):
    """Iterated message passing with smoothing: x_{k+1} = alpha x_k + (1-alpha) z_{k+1}.

    With anchor=None, z_{k+1} = op(x_k) (the homogeneous loop, whose fixed
    point under contraction is 0); with an anchor the update injects it every
    step, z_{k+1} = op(x_k) + anchor, which has a nontrivial unique fixed point
    for a certified operator. X and the anchor are flat block values of
    ``op.space``, as are the returned embeddings. The loop is ``picard_solve``'s,
    with lambda = 1, smoothing alpha, at most n steps and the direct-sum norm.
    Returns (embeddings, trace).
    """
    require_operator(op)
    cfg = PicardConfig(lam=1.0, epsilon=epsilon, max_iter=n, smoothing=alpha,
                       norm_kind="direct-sum")
    report = gnn_lipschitz_report(op)
    if not report.certified:
        warnings.warn(f"aggregation operator is not contraction-certified "
                      f"(L*alpha_max = {report.product:g} >= 1); iterations may not settle")
    f = np.zeros(op.space.flat_shape) if anchor is None else anchor
    return _iterate(op, cfg, f, X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def train_logistic_readout(embeddings, labels, split_seed: int = 0,
                           lr: float = 0.5, epochs: int = 500):
    """Binary logistic regression by full-batch gradient descent; held-out accuracy.

    Nodes are split 80/20 by a seeded permutation. Features are standardized
    with train-split statistics (constant coordinates are left unscaled) so
    both tiny and large embedding scales train on equal footing. Returns
    (weights, test_accuracy); the weight vector acts on standardized features
    with an intercept as its last component. ``embeddings`` is an (n, d)
    matrix (flat block values reshaped to their space's ``shape``); other
    shapes, a label other than 0 or 1 (naming ``labels``) and fewer than 3
    nodes, which would leave the train or the test set empty, are ValueErrors.

    With 0/1 labels the clipped log-loss is non-finite exactly when a
    probability is NaN, as ``p = (1 + tanh(z/2)) / 2`` otherwise lies in
    [0, 1]. So each epoch tests ``p`` for NaN, and the loss is computed only
    for the ValueError ("non-finite logistic loss at epoch <k>: ...") that
    such an epoch raises.
    """
    X = _real_array(embeddings)
    if X.ndim != 2:
        raise ValueError(f"embeddings must be an (n, d) matrix, got shape {X.shape}")
    y = np.asarray(labels)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} nodes")
    outside = ~np.isin(y, (0, 1))
    if outside.any():
        raise ValueError(f"labels must be 0 or 1, got {y[outside][0]}")
    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(n)
    n_train = int(round(0.8 * n))
    if not 0 < n_train < n:
        raise ValueError(f"an 80/20 split of {n} nodes leaves an empty train or test set")
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    mu = X[train_idx].mean(axis=0)
    sd = X[train_idx].std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    Z = (X - mu) / sd
    Zb = np.hstack([Z, np.ones((n, 1))])

    Ztr, ytr = Zb[train_idx], y[train_idx].astype(float)
    w = np.zeros(Zb.shape[1])
    m = Ztr.shape[0]
    for epoch in range(epochs):
        p = _sigmoid(Ztr @ w)
        if np.isnan(p).any():
            pc = np.clip(p, 1e-12, 1 - 1e-12)
            loss = -float(np.mean(ytr * np.log(pc) + (1 - ytr) * np.log(1 - pc)))
            raise ValueError(f"non-finite logistic loss at epoch {epoch}: "
                             f"loss={loss}, |w|={np.linalg.norm(w):g}, lr={lr}")
        w -= lr * (Ztr.T @ (p - ytr)) / m
    predictions = _sigmoid(Zb[test_idx] @ w) >= 0.5
    accuracy = float(np.mean(predictions == (y[test_idx] == 1)))
    return w, accuracy


def run_pign_experiment(cfg: dict, seeds: Sequence[int], csv_path=None):
    """Full pipeline per seed: dataset -> noise -> certified operator -> embed -> readout.

    The single-pass baseline applies the aggregation operator once with no
    iteration. Section seeds in the config act as base offsets; each run seed
    s is added to them, so identical configs and seeds reproduce identical
    results byte for byte. A missing or invalid config value is a ConfigError
    naming the field. Returns the list of PignResult; writes the per-seed CSV
    report when csv_path is given.
    """
    mode = config_value(cfg, "mode", "'anchored' or 'homogeneous'",
                        lambda v: v in ("anchored", "homogeneous"), cast=None, default="anchored")
    n_nodes = config_value(cfg, "dataset.n", "an even integer >= 4",
                           lambda v: v >= 4 and v % 2 == 0, integer)
    d = config_value(cfg, "dataset.d", "an integer >= 1", lambda v: v >= 1, integer)
    p_in = config_value(cfg, "dataset.p_in", "a number in (0, 1]", lambda v: 0 < v <= 1)
    p_out = config_value(cfg, "dataset.p_out", "a number in [0, dataset.p_in)",
                         lambda v: 0 <= v < p_in)
    separation = config_value(cfg, "dataset.separation", "a number")
    noise_p = config_value(cfg, "noise.p", "a number in [0, 1]", lambda v: 0 <= v <= 1)
    magnitude = (config_value(cfg, "noise.magnitude", "a positive number", lambda v: v > 0)
                 if noise_p > 0 else None)
    config_value(cfg, "operator.dim", f"the dataset feature dim {d}", lambda v: v == d, integer, d)
    target = config_value(cfg, "operator.target_contraction", "a number in (0, 1)",
                          lambda v: 0 < v < 1, default=0.9)
    alpha = config_value(cfg, "picard.alpha", "a number in [0, 1]", lambda v: 0 <= v <= 1)
    epsilon = config_value(cfg, "picard.epsilon", "a positive number", lambda v: v > 0)
    max_iter = config_value(cfg, "picard.max_iter", "an integer >= 1", lambda v: v >= 1, integer)
    lr = config_value(cfg, "readout.lr", "a positive number", lambda v: v > 0, default=0.5)
    epochs = config_value(cfg, "readout.epochs", "an integer >= 1", lambda v: v >= 1, integer, 500)
    ds_seed, noise_seed, op_seed, split_seed0 = (
        config_value(cfg, path, "an integer >= 0", lambda v: v >= 0, integer, 0)
        for path in ("dataset.seed", "noise.seed", "operator.seed", "readout.split_seed"))

    results = []
    for s in seeds:
        s = int(s)
        ds = planted_partition(n_nodes, d, p_in, p_out, separation, seed=ds_seed + s)
        X = ds.features
        if noise_p > 0:
            X = add_dropin_noise(X, noise_p, magnitude, seed=noise_seed + s)
        w_rng = np.random.default_rng(op_seed + s)
        W0 = w_rng.standard_normal((d, d))
        alpha_max = int(neighborhood_membership_counts(ds.graph).max())
        W = rescale_to_contraction(W0, alpha_max, target)
        op = GnnAggregateOperator(ds.graph, W)

        anchor = X if mode == "anchored" else None
        embeddings, trace = pign_embed(op, X, alpha, max_iter, epsilon, anchor=anchor)
        baseline = apply(op, X)

        _, acc = train_logistic_readout(embeddings.reshape(op.space.shape), ds.labels,
                                        split_seed0 + s, lr, epochs)
        _, acc_base = train_logistic_readout(baseline.reshape(op.space.shape), ds.labels,
                                             split_seed0 + s, lr, epochs)
        results.append(PignResult(embeddings=embeddings, trace=trace,
                                  readout_accuracy=acc, baseline_accuracy=acc_base,
                                  seed=s, mode=mode, noise_p=noise_p))

    if csv_path is not None:
        write_text_atomic(csv_path, report_csv_text(results))
    return results


def report_csv_text(results: Sequence[PignResult]) -> str:
    out = io.StringIO()
    out.write(REPORT_CSV_HEADER + "\n")
    for r in results:
        out.write(f"{r.seed},{r.mode},{r.noise_p!r},{r.readout_accuracy!r},"
                  f"{r.baseline_accuracy!r},{r.trace.iterations_used}\n")
    return out.getvalue()
