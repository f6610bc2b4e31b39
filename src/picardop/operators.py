"""Concrete operators: affine maps, cubic attention, integral operators, graph aggregation.

Every operator is an immutable callable ``T`` on its ``space``, a
:class:`picardop.spaces.Space`. Solvers consume ``lambda*T(x) + f`` shifts.

Three rules hold for every operator here:

- Its space is ``(d,)`` for affine, ``(None, d)`` (m tokens) for attention,
  the grid's ``(n,)`` values for Hammerstein, and ``(n, d)`` blocks
  (``blocks=True``) for graph aggregation, on flat ``(n*d,)`` arrays. One
  shared ``__call__`` maps ``space.values(x)``; flat values come back flat,
  anything else goes through ``space.wrap``, and both forms give the same
  bytes. A flat array is checked only for its shape and dtype, so the solvers
  read their start and free term through ``op.space`` once, before their
  loops. The space also decides the norm: the solvers and ``norm_in`` measure
  flat values in ``space.norm(kind)``.
- Its ``_map`` checks its own output and raises ``NonFiniteError`` on a NaN or
  Inf entry.
- ``apply`` only turns that error into a ``DivergenceError``.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from ._blas import symv
from .errors import (REQUIRED, ConfigError, DivergenceError, NonFiniteError, config_value,
                     integer)
from .spaces import (
    Grid,
    Space,
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
    if not all_finite(M):
        raise ValueError(f"{name} must have finite entries")
    M.setflags(write=False)
    return M


class Operator:
    """An immutable map on its ``space``, and the one way to bring a custom map: a
    subclass sets ``space`` and defines ``_map(values)``, which maps flat values of
    ``space.flat_shape`` to a float array of that shape and checks it is finite."""

    def __call__(self, x):
        """T(x): flat values map to a plain array, a GridFunction to a GridFunction."""
        values = self.space.values(x)
        out = self._map(values)
        return out if values is x else self.space.wrap(out)


def require_operator(op) -> None:
    """A TypeError unless ``op`` is an ``Operator``; each public entry that takes
    an operator calls this once, before its work."""
    if not isinstance(op, Operator):
        raise TypeError(f"expected an Operator, got {type(op).__name__}: a custom map "
                        "must subclass picardop.Operator, setting space and defining _map")


class AffineOperator(Operator):
    """x -> A x + b; its exact Lipschitz constant is the spectral norm of A."""

    def __init__(self, A, b=None):
        self.A = _finite_matrix(A, "A", square=True)
        d = self.A.shape[0]
        b = np.zeros(d) if b is None else np.array(b, dtype=float)
        if b.shape != (d,):
            raise ValueError(f"b must be a length-{d} vector, got shape {b.shape}")
        if not all_finite(b):
            raise ValueError("b must have finite entries")
        b.setflags(write=False)
        self.b = b
        self.space = Space((d,))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def _map(self, x: np.ndarray) -> np.ndarray:
        out = self.A @ x + self.b
        if not all_finite(out):
            raise NonFiniteError(NON_FINITE_OUTPUT)
        return out


class AttentionOperator(Operator):
    """Softmax-free self-attention Y -> (Y Wq)(Y Wk)^T (Y Wv); cubic in Y.

    Y is an m x d matrix of m tokens; the weight matrices are d x d. ``_map``
    also takes an (S, m, d) stack of such matrices and maps each in one pass.
    """

    def __init__(self, Wq, Wk, Wv):
        self.Wq = _finite_matrix(Wq, "Wq", square=True)
        self.Wk = _finite_matrix(Wk, "Wk", square=True)
        self.Wv = _finite_matrix(Wv, "Wv", square=True)
        if not (self.Wq.shape == self.Wk.shape == self.Wv.shape):
            raise ValueError("Wq, Wk, Wv must share one square shape")
        self.space = Space((None, self.d))

    @property
    def d(self) -> int:
        return self.Wq.shape[0]

    def _map(self, Y: np.ndarray) -> np.ndarray:
        Q = Y @ self.Wq
        K = Y @ self.Wk
        V = Y @ self.Wv
        out = (Q @ K.swapaxes(-1, -2)) @ V
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


def _bitwise_symmetric(K: np.ndarray) -> bool:
    """True if the C-contiguous float64 matrix K equals its transpose bit for
    bit, so -0.0 and 0.0 differ. Compared in square tiles of the ``uint64``
    view, so that no n x n temporary is made."""
    bits = K.view(np.uint64)
    n, tile = K.shape[0], 512
    return all(np.array_equal(bits[i:i + tile, j:j + tile], bits[j:j + tile, i:i + tile].T)
               for i in range(0, n, tile) for j in range(i, n, tile))


class HammersteinOperator(Operator):
    """Quadrature integral operator: output(t_i) = sum_j w_j * G(y(s_j), t_i, s_j).

    Separable kernels apply through their rank-2 factors, U @ (phi @ Vw) with
    the weights folded into Vw, in O(n) time and memory; the n x n weight
    matrix ``_K`` is built only on request. Table kernels apply ``_K``: by a
    BLAS dsymv, which reads one triangle, when ``_K`` is read-only and equals
    its transpose bit for bit, else by a gemv.
    """

    def __init__(self, grid: Grid, kernel):
        self.grid = grid
        self.kernel = kernel
        self.space = Space((grid.n,), grid=grid)
        if isinstance(kernel, SeparableLinearKernel):
            U, V = kernel.factors(grid.points, grid.points)
            Vw = V * grid.weights[:, None]
            U.setflags(write=False)
            Vw.setflags(write=False)
            self._factors = (U, Vw)
            self._u_max = float(np.abs(U).max())
            # K is bilinear in (t, s), so its largest |K| on the grid is at a corner
            ends = grid.points[[0, -1]]
            checked = (kernel.weight_matrix(ends, ends), U, Vw)
        else:
            self._factors = None
            K = self._K
            if K.shape != (grid.n, grid.n):
                raise ValueError("kernel weight matrix does not match the grid")
            # a TabulatedKernel proved its table finite and made it read-only
            checked = () if isinstance(kernel, TabulatedKernel) else (K,)
            self._symmetric = (K.dtype == np.float64 and K.flags.c_contiguous
                               and not K.flags.writeable and _bitwise_symmetric(K))
        if not all(all_finite(M) for M in checked):
            raise ValueError("kernel evaluates to non-finite values on the grid")

    @functools.cached_property
    def _K(self) -> np.ndarray:
        """The dense n x n kernel weight matrix K[i, j] = K(t_i, s_j)."""
        return self.kernel.weight_matrix(self.grid.points, self.grid.points)

    def _map(self, values: np.ndarray) -> np.ndarray:
        """The output values for the ``(n,)`` input values, checked to be finite.

        ``ndarray.dot`` makes the same BLAS gemv calls as ``@`` without the
        ufunc dispatch, so the bytes are those of ``U @ (phi @ Vw)`` and, for
        a matrix that is not symmetric, ``K @ (w * phi)``. A rank-2 output
        whose entries are bounded far below overflow by its two coefficients
        is finite, and is not scanned.
        """
        phi = self.kernel.nonlinearity(values)
        if self._factors is None:
            v = self.grid.weights * phi
            out = symv(self._K, v) if self._symmetric else self._K.dot(v)
            require_finite(out, "grid function values")
            return out
        U, Vw = self._factors
        c = phi.dot(Vw)
        out = U.dot(c)
        # every |out_i| is at most max|U| * (|c_0| + |c_1|), up to rounding, so
        # a bound far below overflow proves the output finite without a scan
        c0, c1 = c.tolist()
        if not self._u_max * (abs(c0) + abs(c1)) < 1e300:
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


class GnnAggregateOperator(Operator):
    """Max-pooling message passing: block v -> componentwise max of relu(W f_i), i in N(v).

    Empty neighborhoods aggregate to the zero block. W is shared across nodes
    and the nonlinearity is fixed to ReLU.
    """

    def __init__(self, graph: Graph, W):
        self.graph = graph
        self.W = _finite_matrix(W, "W", square=True)
        self.d = self.W.shape[0]
        self.space = Space((graph.n, self.d), blocks=True)
        # edge (v, i) of the CSR index sends row i of relu(F W^T) to entries
        # v*d .. v*d + d - 1 of the output
        rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        self._targets = (rows[:, None] * self.d + np.arange(self.d)).ravel()
        self._targets.setflags(write=False)

    def _map(self, values: np.ndarray) -> np.ndarray:
        """The output values for the ``(n*d,)`` input values, checked to be finite.

        One scatter-max over the CSR edges: each node's block is the max of its
        neighbours' relu rows. relu output is >= 0, so the zero start leaves
        every maximum as it is and gives an empty neighborhood the zero block.
        """
        transformed = values.reshape(self.graph.n, self.d).dot(self.W.T)
        np.maximum(transformed, 0.0, out=transformed)
        out = np.zeros(values.size)
        np.maximum.at(out, self._targets, transformed[self.graph.indices].ravel())
        require_finite(out, "block values")
        return out


def apply(op: Operator, x):
    """Evaluate an operator on a value of its space or on its flat values; the
    NonFiniteError of the output check in its ``_map`` becomes a DivergenceError,
    so a solver fails loudly when a map blows up."""
    try:
        return op(x)
    except NonFiniteError as exc:
        raise DivergenceError(str(exc)) from exc


def norm_in(op: Operator, x, kind: str) -> float:
    """The ``kind`` norm of ``x`` in ``op.space``, so that flat values are
    measured by the operator's blocks too."""
    return op.space.norm(kind)(op.space.values(x))


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
    if not all_finite(M):
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
