"""Concrete operators: affine maps, cubic attention, integral operators, graph aggregation.

Every operator is an immutable callable ``T`` acting on one of the vector-like
types from :mod:`picardop.spaces`. Solvers consume ``lambda*T(x) + f`` shifts.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import ConfigError, DivergenceError, NonFiniteError
from .spaces import (
    DirectSumVector,
    Grid,
    GridFunction,
    flatten_values,
    grid_from_json,
    load_matrix_text,
    load_vector_text,
)


def _finite_matrix(M, name: str, square: bool = False) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix")
    if square and M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    M.setflags(write=False)
    return M


class AffineOperator:
    """x -> A x + b; its exact Lipschitz constant is the spectral norm of A."""

    def __init__(self, A, b=None):
        self.A = _finite_matrix(A, "A", square=True)
        d = self.A.shape[0]
        b = np.zeros(d) if b is None else np.array(b, dtype=float)
        if b.shape != (d,):
            raise ValueError(f"b must be a length-{d} vector, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must have finite entries")
        b.setflags(write=False)
        self.b = b

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a length-{self.dim} vector, got shape {x.shape}")
        return self.A @ x + self.b


class AttentionOperator:
    """Softmax-free self-attention Y -> (Y Wq)(Y Wk)^T (Y Wv); cubic in Y.

    Y is an m x d matrix of m tokens; the weight matrices are d x d.
    """

    def __init__(self, Wq, Wk, Wv):
        self.Wq = _finite_matrix(Wq, "Wq", square=True)
        self.Wk = _finite_matrix(Wk, "Wk", square=True)
        self.Wv = _finite_matrix(Wv, "Wv", square=True)
        if not (self.Wq.shape == self.Wk.shape == self.Wv.shape):
            raise ValueError("Wq, Wk, Wv must share one square shape")

    @property
    def d(self) -> int:
        return self.Wq.shape[0]

    def __call__(self, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.d:
            raise ValueError(f"expected an m x {self.d} matrix, got shape {Y.shape}")
        Q = Y @ self.Wq
        K = Y @ self.Wk
        V = Y @ self.Wv
        return (Q @ K.T) @ V


class SeparableLinearKernel:
    """Integrand G(y, t, s) = K(t, s) * y with K(t, s) = c0 + c1*t + c2*s + c3*t*s."""

    name = "separable-linear"
    nonlinearity = staticmethod(lambda y: y)

    def __init__(self, params=(0.0, 0.0, 0.0, 1.0)):
        params = np.asarray(params, dtype=float)
        if params.shape != (4,):
            raise ValueError("kernel params must be 4 coefficients (c0, c1, c2, c3)")
        self.params = tuple(float(c) for c in params)

    def weight_matrix(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        c0, c1, c2, c3 = self.params
        return c0 + c1 * t[:, None] + c2 * s[None, :] + c3 * t[:, None] * s[None, :]

    def factors(self, t: np.ndarray, s: np.ndarray):
        """Rank-2 factors U (len(t) x 2) and V (len(s) x 2): U @ V.T is weight_matrix(t, s)."""
        c0, c1, c2, c3 = self.params
        return (np.column_stack((c0 + c1 * t, c2 + c3 * t)),
                np.column_stack((np.ones_like(s), s)))

    def __call__(self, y_val: float, t: float, s: float) -> float:
        c0, c1, c2, c3 = self.params
        return (c0 + c1 * t + c2 * s + c3 * t * s) * self.nonlinearity(y_val)


class BoundedNonlinearKernel(SeparableLinearKernel):
    """Integrand G(y, t, s) = K(t, s) * tanh(y); bounded in y, 1-Lipschitz nonlinearity."""

    name = "bounded-nonlinear"
    nonlinearity = staticmethod(np.tanh)


class TabulatedKernel:
    """Integrand G(y, t_i, s_j) = K[i, j] * y from an explicit kernel table on the grid."""

    name = "table"
    nonlinearity = staticmethod(lambda y: y)

    def __init__(self, table):
        self.table = _finite_matrix(table, "kernel table")

    def weight_matrix(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        if self.table.shape != (t.size, s.size):
            raise ValueError(f"kernel table shape {self.table.shape} does not match "
                             f"grid size {t.size}")
        return self.table


KERNELS = {
    SeparableLinearKernel.name: SeparableLinearKernel,
    BoundedNonlinearKernel.name: BoundedNonlinearKernel,
    TabulatedKernel.name: TabulatedKernel,
}


def make_kernel(name: str, params=None, table=None):
    """Build a registered integrand kernel by name."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; registered: {sorted(KERNELS)}")
    if name == TabulatedKernel.name:
        if table is None:
            raise ValueError("table kernel needs a 'table' matrix")
        return TabulatedKernel(table)
    return KERNELS[name]() if params is None else KERNELS[name](params)


class HammersteinOperator:
    """Quadrature integral operator: output(t_i) = sum_j w_j * G(y(s_j), t_i, s_j).

    Separable kernels apply through their rank-2 factors, U @ (phi @ Vw) with
    the weights folded into Vw, in O(n) time and memory; the n x n weight
    matrix ``_K`` is built only on request. Table kernels apply ``_K``.
    """

    def __init__(self, grid: Grid, kernel):
        self.grid = grid
        self.kernel = kernel
        if isinstance(kernel, SeparableLinearKernel):
            U, V = kernel.factors(grid.points, grid.points)
            Vw = V * grid.weights[:, None]
            U.setflags(write=False)
            Vw.setflags(write=False)
            self._factors = (U, Vw)
            # K is bilinear in (t, s), so its largest |K| on the grid is at a corner
            ends = grid.points[[0, -1]]
            checked = (kernel.weight_matrix(ends, ends), U, Vw)
        else:
            self._factors = None
            if self._K.shape != (grid.n, grid.n):
                raise ValueError("kernel weight matrix does not match the grid")
            checked = (self._K,)
        if not all(np.all(np.isfinite(M)) for M in checked):
            raise ValueError("kernel evaluates to non-finite values on the grid")

    @functools.cached_property
    def _K(self) -> np.ndarray:
        """The dense n x n kernel weight matrix K[i, j] = K(t_i, s_j)."""
        return self.kernel.weight_matrix(self.grid.points, self.grid.points)

    def __call__(self, y: GridFunction) -> GridFunction:
        if not isinstance(y, GridFunction) or not y.grid.matches(self.grid):
            raise ValueError("input must be a GridFunction on the operator's grid")
        phi = self.kernel.nonlinearity(y.values)
        if self._factors is None:
            out = self._K @ (self.grid.weights * phi)
        else:
            U, Vw = self._factors
            out = U @ (phi @ Vw)
        return GridFunction(self.grid, out)


class Graph:
    """Undirected graph stored as per-node sorted neighbor lists.

    ``include_self`` controls whether a node belongs to its own neighborhood
    during aggregation; the stored adjacency never contains self edges.
    """

    def __init__(self, n: int, edges=(), include_self: bool = True):
        if n < 1:
            raise ValueError("graph needs at least one node")
        neighbor_sets = [set() for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self edge ({u}, {v}) not allowed; "
                                 "use include_self to put nodes in their own neighborhood")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.include_self = bool(include_self)
        self.adjacency = tuple(np.array(sorted(s), dtype=int) for s in neighbor_sets)
        self._neighborhoods = tuple(
            np.array(sorted(s | {v}) if self.include_self else sorted(s), dtype=int)
            for v, s in enumerate(neighbor_sets)
        )

    @classmethod
    def from_neighbor_lists(cls, adjacency, include_self: bool = True) -> "Graph":
        """Build from explicit neighbor lists, enforcing undirected symmetry."""
        n = len(adjacency)
        edges = []
        for u, nbrs in enumerate(adjacency):
            seen = set()
            for v in nbrs:
                v = int(v)
                if v in seen:
                    raise ValueError(f"duplicate neighbor {v} at node {u}")
                seen.add(v)
                if not (0 <= v < n):
                    raise ValueError(f"neighbor {v} out of range at node {u}")
                edges.append((u, v))
        for u, v in edges:
            if u not in {int(w) for w in adjacency[v]}:
                raise ValueError(f"asymmetric adjacency: node {u} lists {v} but not vice versa")
        return cls(n, [(u, v) for u, v in edges if u < v], include_self=include_self)

    def neighborhood(self, v: int) -> np.ndarray:
        """Sorted neighborhood of v, including v itself when include_self is set."""
        return self._neighborhoods[v]

    def degree(self, v: int) -> int:
        return int(self.adjacency[v].size)

    def edge_count(self) -> int:
        return sum(a.size for a in self.adjacency) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()}, include_self={self.include_self})"


def graph_from_edgelist(path, n: int | None = None, include_self: bool = True) -> Graph:
    """Read an edge-list text file: one 0-indexed "u v" pair per line."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {line!r} in {path}")
            edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
        if n < 1:
            raise ValueError(f"empty edge list in {path} and no node count given")
    return Graph(n, edges, include_self=include_self)


def neighborhood_membership_counts(graph: Graph) -> np.ndarray:
    """For each node i, the number of nodes v with i in N(v): degree plus self-inclusion."""
    counts = np.array([graph.degree(i) for i in range(graph.n)], dtype=int)
    if graph.include_self:
        counts += 1
    return counts


class GnnAggregateOperator:
    """Max-pooling message passing: block v -> componentwise max of relu(W f_i), i in N(v).

    Empty neighborhoods aggregate to the zero block. W is shared across nodes
    and the nonlinearity is fixed to ReLU.
    """

    def __init__(self, graph: Graph, W):
        self.graph = graph
        self.W = _finite_matrix(W, "W", square=True)
        self.d = self.W.shape[0]

    def __call__(self, F: DirectSumVector) -> DirectSumVector:
        if not isinstance(F, DirectSumVector):
            raise ValueError("input must be a DirectSumVector")
        if F.n_blocks != self.graph.n:
            raise ValueError(f"expected {self.graph.n} blocks, got {F.n_blocks}")
        if not F.is_uniform() or F.block_dims[0] != self.d:
            raise ValueError(f"expected blocks of dim {self.d}, got {F.block_dims}")
        transformed = np.maximum(F.stacked() @ self.W.T, 0.0)
        out = np.zeros((self.graph.n, self.d))
        for v in range(self.graph.n):
            nb = self.graph.neighborhood(v)
            if nb.size:
                out[v] = transformed[nb].max(axis=0)
        return F.with_values(out.ravel())


def apply(op, x):
    """Evaluate an operator on a vector-like input.

    Non-finite output is reported as a DivergenceError so the solver can fail
    loudly when a map blows up. Grid functions and direct sums are checked
    when they are built; any other output is checked here.
    """
    try:
        out = op(x)
    except NonFiniteError as exc:
        raise DivergenceError(str(exc)) from exc
    if (not isinstance(out, (GridFunction, DirectSumVector))
            and not np.all(np.isfinite(flatten_values(out)))):
        raise DivergenceError("operator produced non-finite output")
    return out


def _matrix_entry(entry, base_dir: str, field: str) -> np.ndarray:
    if isinstance(entry, str):
        path = os.path.join(base_dir, entry)
        try:
            return load_matrix_text(path)
        except OSError as exc:
            raise ConfigError(field, f"cannot read matrix file: {exc}") from exc
    try:
        return np.array(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"not a numeric matrix: {exc}") from exc


def _vector_entry(entry, base_dir: str, field: str) -> np.ndarray:
    if isinstance(entry, str):
        path = os.path.join(base_dir, entry)
        try:
            return load_vector_text(path)
        except OSError as exc:
            raise ConfigError(field, f"cannot read vector file: {exc}") from exc
    try:
        return np.asarray(entry, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"not a numeric vector: {exc}") from exc


def graph_from_config(cfg: dict, base_dir: str = ".", field: str = "graph") -> Graph:
    include_self = bool(cfg.get("include_self", True))
    n = cfg.get("n")
    if "edgelist" in cfg:
        path = os.path.join(base_dir, cfg["edgelist"])
        try:
            return graph_from_edgelist(path, n=n, include_self=include_self)
        except OSError as exc:
            raise ConfigError(f"{field}.edgelist", f"cannot read edge list: {exc}") from exc
    if "edges" not in cfg:
        raise ConfigError(field, "needs 'edges' or an 'edgelist' file path")
    if n is None:
        raise ConfigError(f"{field}.n", "node count required with inline edges")
    try:
        return Graph(int(n), cfg["edges"], include_self=include_self)
    except ValueError as exc:
        raise ConfigError(f"{field}.edges", str(exc)) from exc


def operator_from_config(cfg: dict, base_dir: str = "."):
    """Build an operator from its JSON description.

    ``{"type": "affine"|"attention"|"hammerstein"|"gnn", ...}`` with matrices
    inline as nested lists or as text-file paths relative to the config file.
    """
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("operator.type", "operator config needs a 'type'")
    kind = cfg["type"]
    try:
        if kind == "affine":
            A = _matrix_entry(cfg["A"], base_dir, "operator.A")
            b = _vector_entry(cfg["b"], base_dir, "operator.b") if "b" in cfg else None
            return AffineOperator(A, b)
        if kind == "attention":
            return AttentionOperator(
                _matrix_entry(cfg["Wq"], base_dir, "operator.Wq"),
                _matrix_entry(cfg["Wk"], base_dir, "operator.Wk"),
                _matrix_entry(cfg["Wv"], base_dir, "operator.Wv"),
            )
        if kind == "hammerstein":
            grid = grid_from_json(cfg["grid"])
            table = cfg.get("table")
            if table is not None:
                table = _matrix_entry(table, base_dir, "operator.table")
            kernel = make_kernel(cfg.get("kernel", "separable-linear"),
                                 params=cfg.get("params"), table=table)
            return HammersteinOperator(grid, kernel)
        if kind == "gnn":
            graph = graph_from_config(cfg.get("graph", {}), base_dir, field="operator.graph")
            W = _matrix_entry(cfg["W"], base_dir, "operator.W")
            return GnnAggregateOperator(graph, W)
    except KeyError as exc:
        raise ConfigError(f"operator.{exc.args[0]}", "missing required field") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("operator", str(exc)) from exc
    raise ConfigError("operator.type", f"unknown operator type {kind!r}")
