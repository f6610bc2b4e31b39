"""Concrete operators: affine maps, cubic attention, integral operators, graph aggregation.

Every operator is an immutable callable ``T`` acting on one of the vector-like
types from :mod:`picardop.spaces`. Solvers consume ``lambda*T(x) + f`` shifts.

Three rules hold for every operator here:

- It accepts its domain's flat values as a plain float array and returns a
  plain array: a Hammerstein operator the grid's ``(n,)`` values, a graph
  aggregation the ``(n*d,)`` values of its blocks. Given a ``GridFunction`` or
  ``DirectSumVector`` it returns one; both forms share one map, so their
  values are the same bytes. Affine and attention maps act on plain arrays.
  A flat array is checked only for its shape; the grid or the block dims of
  an input are checked on the object form, which the solvers pass first.
- It checks its own output and raises ``NonFiniteError`` on a NaN or Inf entry.
- ``apply`` only turns that error into a ``DivergenceError``.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import (REQUIRED, ConfigError, DivergenceError, NonFiniteError, config_value,
                     integer)
from .spaces import (
    DirectSumVector,
    Grid,
    GridFunction,
    all_finite,
    grid_from_json,
    load_matrix_text,
    require_finite,
)

NON_FINITE_OUTPUT = "operator produced non-finite output"


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
        out = self.A @ x + self.b
        if not all_finite(out):
            raise NonFiniteError(NON_FINITE_OUTPUT)
        return out


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
        out = (Q @ K.T) @ V
        if not all_finite(out):
            raise NonFiniteError(NON_FINITE_OUTPUT)
        return out


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

    def __call__(self, y):
        """T(y) for a GridFunction on the grid, or for its ``(n,)`` values as a plain array."""
        if isinstance(y, GridFunction):
            if not y.grid.matches(self.grid):
                raise ValueError("input must be a GridFunction on the operator's grid")
            return GridFunction(self.grid, self._map(y.values))
        return self._map(_flat_input(y, self.grid.n))

    def _map(self, values: np.ndarray) -> np.ndarray:
        phi = self.kernel.nonlinearity(values)
        if self._factors is None:
            out = self._K @ (self.grid.weights * phi)
        else:
            U, Vw = self._factors
            out = U @ (phi @ Vw)
        require_finite(out, "grid function values")
        return out


class Graph:
    """Undirected graph in CSR form: N(v) is ``indices[indptr[v]:indptr[v + 1]]``.

    Each neighborhood is sorted and holds v itself when ``include_self`` is
    set; self edges are refused, duplicate and reversed pairs collapse.
    """

    def __init__(self, n: int, edges=(), include_self: bool = True):
        if n < 1:
            raise ValueError("graph needs at least one node")
        E = np.asarray(edges)
        if E.size == 0:
            E = np.empty((0, 2), dtype=np.int64)
        if E.dtype.kind not in "iu" or E.ndim != 2 or E.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs of integer node ids")
        out_of_range = ((E < 0) | (E >= n)).any(axis=1)
        if out_of_range.any():
            u, v = E[out_of_range.argmax()]
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        u, v = E.astype(np.int64).T
        loops = u == v
        if loops.any():
            w = u[loops.argmax()]
            raise ValueError(f"self edge ({w}, {w}) not allowed; "
                             "use include_self to put nodes in their own neighborhood")
        keys = [u * n + v, v * n + u]
        if include_self:
            keys.append(np.arange(n) * (n + 1))
        keys = np.sort(np.concatenate(keys))
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        self.n = n
        self.include_self = bool(include_self)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def neighborhood(self, v: int) -> np.ndarray:
        """Sorted neighborhood of v, including v itself when include_self is set."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


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
    return np.diff(graph.indptr)


class GnnAggregateOperator:
    """Max-pooling message passing: block v -> componentwise max of relu(W f_i), i in N(v).

    Empty neighborhoods aggregate to the zero block. W is shared across nodes
    and the nonlinearity is fixed to ReLU.
    """

    def __init__(self, graph: Graph, W):
        self.graph = graph
        self.W = _finite_matrix(W, "W", square=True)
        self.d = self.W.shape[0]
        # node v's segment of _members is N(v) then n, the index of a zero row
        self._members = np.insert(graph.indices, graph.indptr[1:], graph.n)
        self._starts = graph.indptr[:-1] + np.arange(graph.n)

    def __call__(self, F):
        """T(F) for a DirectSumVector of n blocks of dim d, or for its ``(n*d,)`` values."""
        if isinstance(F, DirectSumVector):
            if F.n_blocks != self.graph.n:
                raise ValueError(f"expected {self.graph.n} blocks, got {F.n_blocks}")
            if not F.is_uniform() or F.block_dims[0] != self.d:
                raise ValueError(f"expected blocks of dim {self.d}, got {F.block_dims}")
            return F.with_values(self._map(F.values))
        return self._map(_flat_input(F, self.graph.n * self.d))

    def _map(self, values: np.ndarray) -> np.ndarray:
        # relu output is >= 0, so the zero row leaves every maximum as it is
        # and gives an empty neighborhood the zero block
        transformed = np.zeros((self.graph.n + 1, self.d))
        np.maximum(values.reshape(self.graph.n, self.d) @ self.W.T, 0.0, out=transformed[:-1])
        out = np.maximum.reduceat(transformed[self._members], self._starts).ravel()
        require_finite(out, "block values")
        return out


def apply(op, x):
    """Evaluate an operator on a vector-like input or on its flat values.

    The operators of this module check their own output; their
    NonFiniteError is reported here as a DivergenceError, so the solver can
    fail loudly when a map blows up. The output of any other callable is not
    checked here; a non-finite one is caught later: in the Picard loop by its
    norm guard (DivergenceError "iterate became non-finite at iteration k");
    where it meets ``lincomb`` (``picard.residual``, ``calculus.fd_directional``
    and ``calculus.lipschitz_sample``) by that check (NonFiniteError "linear
    combination must be finite (no NaN/Inf)"); and in
    ``calculus.derivative_bound_lipschitz`` by ``spectral_norm`` on the
    Jacobian (ValueError "A must have finite entries").
    """
    try:
        return op(x)
    except NonFiniteError as exc:
        raise DivergenceError(str(exc)) from exc


def _flat_input(values, size: int) -> np.ndarray:
    if not isinstance(values, np.ndarray) or values.shape != (size,):
        got = getattr(values, "shape", type(values).__name__)
        raise ValueError(f"expected an array of {size} flat values, got {got}")
    return values


def _matrix_entry(entry, base_dir: str, field: str) -> np.ndarray:
    """A finite numeric array from an inline nested list or a text-file path."""
    if entry is None:
        raise ConfigError(field, "missing required field; must be a matrix or a file path")
    try:
        if isinstance(entry, str):
            M = load_matrix_text(os.path.join(base_dir, entry))
        else:
            M = np.array(entry, dtype=float)
    except OSError as exc:
        raise ConfigError(field, f"cannot read file: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"not a numeric array: {exc}") from exc
    if not np.all(np.isfinite(M)):
        raise ConfigError(field, "must be finite (no NaN/Inf)")
    return M


def graph_from_config(cfg: dict, base_dir: str = ".") -> Graph:
    """The graph at ``operator.graph`` of ``cfg``: an ``edgelist`` file, or ``edges`` and ``n``."""
    include_self = config_value(cfg, "operator.graph.include_self", "true or false",
                                lambda v: isinstance(v, bool), cast=None, default=True)
    edgelist = config_value(cfg, "operator.graph.edgelist", "a file path",
                            lambda v: isinstance(v, str), cast=None, default=None)
    if edgelist is None:
        edges = config_value(cfg, "operator.graph.edges", "a list of [u, v] pairs, or give "
                             "an 'edgelist' file", lambda v: isinstance(v, list), cast=None)
    n = config_value(cfg, "operator.graph.n", "an integer >= 1", lambda v: v >= 1, integer,
                     default=REQUIRED if edgelist is None else None)
    field = "operator.graph.edges" if edgelist is None else "operator.graph.edgelist"
    try:
        if edgelist is None:
            return Graph(n, [[integer(x) for x in pair] for pair in edges],
                         include_self=include_self)
        return graph_from_edgelist(os.path.join(base_dir, edgelist), n=n,
                                   include_self=include_self)
    except OSError as exc:
        raise ConfigError(field, f"cannot read edge list: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, str(exc)) from exc


OPERATOR_TYPES = ("affine", "attention", "hammerstein", "gnn")


def operator_from_config(cfg: dict, base_dir: str = "."):
    """Build an operator from its JSON description, the ``operator`` section of a config.

    ``{"type": "affine"|"attention"|"hammerstein"|"gnn", ...}`` with matrices
    inline as nested lists or as text-file paths relative to the config file.
    A bad entry is a ConfigError naming ``operator.<field>``.
    """
    root = {"operator": cfg}
    kind = config_value(root, "operator.type", f"one of {OPERATOR_TYPES}",
                        lambda t: t in OPERATOR_TYPES, cast=None)

    def matrix(key):
        return _matrix_entry(cfg.get(key), base_dir, f"operator.{key}")

    try:
        if kind == "affine":
            return AffineOperator(matrix("A"), None if cfg.get("b") is None
                                  else matrix("b").ravel())
        if kind == "attention":
            return AttentionOperator(matrix("Wq"), matrix("Wk"), matrix("Wv"))
        if kind == "hammerstein":
            grid = grid_from_json(cfg.get("grid"), "operator.grid")
            kernel = config_value(root, "operator.kernel", f"one of {sorted(KERNELS)}",
                                  lambda v: v in KERNELS, cast=None,
                                  default=SeparableLinearKernel.name)
            params, table = (None if cfg.get(key) is None else matrix(key)
                             for key in ("params", "table"))
            return HammersteinOperator(grid, make_kernel(kernel, params=params, table=table))
        return GnnAggregateOperator(graph_from_config(root, base_dir), matrix("W"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("operator", str(exc)) from exc
