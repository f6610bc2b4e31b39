"""Discretized function spaces: interval grids, grid functions, direct sums, and norms.

All values are immutable after construction and all operations are pure, so
they can be shared freely across threads. Arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError, config_value, integer

NORM_KINDS = ("discrete-L2", "sup", "direct-sum")


def all_finite(arr: np.ndarray) -> bool:
    """True if no entry of the float array is NaN or Inf.

    A NaN or Inf entry always makes the sum of squares non-finite, so one dot
    product screens the array; the entries are scanned only when that sum is
    not finite, which finite entries can also cause by overflowing it.
    ``np.vdot`` is used because, unlike ``dot``, it gives no overflow warning
    for such finite entries.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteError("<what> must be finite (no NaN/Inf)") unless all_finite(arr)."""
    if not all_finite(arr):
        raise NonFiniteError(f"{what} must be finite (no NaN/Inf)")


class Grid:
    """Quadrature grid on an interval: strictly increasing points, positive weights.

    The weights must sum to the interval length (within 1e-12 relative), so that
    ``sum(w_j * y_j)`` approximates the integral of ``y`` over ``[a, b]``.
    """

    def __init__(self, points, weights, rule: str | None = None):
        points = np.array(points, dtype=float)
        weights = np.array(weights, dtype=float)
        if points.ndim != 1 or weights.ndim != 1 or points.size != weights.size:
            raise ValueError("points and weights must be 1-D arrays of equal length")
        if points.size < 2:
            raise ValueError("grid needs at least 2 points")
        require_finite(points, "grid points")
        require_finite(weights, "grid weights")
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("grid weights must be positive")
        span = float(points[-1] - points[0])
        if abs(float(weights.sum()) - span) > 1e-12 * max(abs(span), 1.0):
            raise ValueError("grid weights must sum to b - a")
        points.setflags(write=False)
        weights.setflags(write=False)
        self.points = points
        self.weights = weights
        self.rule = rule

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def n(self) -> int:
        return int(self.points.size)

    def matches(self, other: "Grid") -> bool:
        return self is other or (
            self.points.size == other.points.size
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"Grid(a={self.a}, b={self.b}, n={self.n}, rule={self.rule!r})"


def grid_uniform(a: float, b: float, n: int, rule: str = "trapezoid") -> Grid:
    """Equispaced grid on [a, b] with composite trapezoid or Simpson weights.

    Trapezoid weights are h/2 at the endpoints and h in the interior; Simpson
    weights are h/3 * [1, 4, 2, 4, ..., 4, 1] and need an odd point count.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"need n >= 2 grid points, got {n}")
    points = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    if rule == "trapezoid":
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2
    elif rule == "simpson":
        if n < 3 or n % 2 == 0:
            raise ValueError("simpson rule needs an odd number of points (>= 3)")
        weights = np.full(n, 2 * h / 3)
        weights[1::2] = 4 * h / 3
        weights[0] = weights[-1] = h / 3
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    return Grid(points, weights, rule=rule)


def grid_from_json(obj: dict, field: str = "grid") -> Grid:
    """The uniform grid ``{a, b, n, rule}`` of ``grid_uniform``; a ConfigError names
    ``<field>.<key>`` for a bad value, ``field`` for one that grid_uniform rejects."""
    cfg = functools.reduce(lambda node, key: {key: node}, reversed(field.split(".")), obj)
    a, b = (config_value(cfg, f"{field}.{key}", "a number") for key in "ab")
    n = config_value(cfg, f"{field}.n", "an integer", cast=integer)
    rule = config_value(cfg, f"{field}.rule", "a quadrature rule name", cast=None,
                        default="trapezoid")
    try:
        return grid_uniform(a, b, n, rule)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


class GridFunction:
    """A function sampled on a grid: one finite value per grid point."""

    def __init__(self, grid: Grid, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size != grid.n:
            raise ValueError(f"expected {grid.n} values on the grid, got shape {values.shape}")
        require_finite(values, "grid function values")
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def same_space(self, other) -> bool:
        return isinstance(other, GridFunction) and self.grid.matches(other.grid)

    def __repr__(self) -> str:
        return f"GridFunction(n={self.grid.n}, values={self.values!r})"


class DirectSumVector:
    """Element of a direct sum of component spaces, stored as one flat array.

    ``values`` holds the blocks end to end and is read-only; ``blocks`` are
    read-only views into it. The direct-sum norm is the *sum* of the component
    L2 norms, so that for disjoint block concatenation the norm is additive.
    """

    def __init__(self, blocks: Sequence, block_dims: Sequence[int] | None = None):
        arrs = [np.asarray(b, dtype=float) for b in blocks]
        if any(b.ndim != 1 for b in arrs):
            raise ValueError("blocks must be 1-D vectors")
        dims = tuple(b.size for b in arrs)
        if block_dims is not None and tuple(block_dims) != dims:
            raise ValueError(f"block_dims {tuple(block_dims)} do not match actual dims {dims}")
        self._store(np.concatenate(arrs) if arrs else np.zeros(0), dims)

    def _store(self, values: np.ndarray, dims: tuple) -> None:
        if not dims:
            raise ValueError("need at least one block")
        if values.shape != (sum(dims),):
            raise ValueError(f"expected {sum(dims)} flat values for block dims {dims}, "
                             f"got shape {values.shape}")
        require_finite(values, "block values")
        values.setflags(write=False)
        self.values = values
        self.block_dims = dims

    def with_values(self, values) -> "DirectSumVector":
        """A vector with this block structure holding a copy of the flat ``values``."""
        out = DirectSumVector.__new__(DirectSumVector)
        out._store(np.array(values, dtype=float), self.block_dims)
        return out

    def same_space(self, other) -> bool:
        return isinstance(other, DirectSumVector) and self.block_dims == other.block_dims

    @functools.cached_property
    def blocks(self) -> tuple:
        ends = itertools.accumulate(self.block_dims)
        return tuple(self.values[end - d:end] for d, end in zip(self.block_dims, ends))

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def is_uniform(self) -> bool:
        dims = self.block_dims
        return dims.count(dims[0]) == len(dims)

    def stacked(self) -> np.ndarray:
        """Blocks as a read-only (n_blocks, d) view; requires uniform block dims."""
        if not self.is_uniform():
            raise ValueError("blocks have mixed dimensions")
        return self.values.reshape(self.n_blocks, self.block_dims[0])

    @classmethod
    def from_matrix(cls, M) -> "DirectSumVector":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2:
            raise ValueError("expected a 2-D matrix, one row per block")
        out = cls.__new__(cls)
        out._store(M.flatten(), (M.shape[1],) * M.shape[0])
        return out

    def __repr__(self) -> str:
        return f"DirectSumVector(n_blocks={self.n_blocks}, block_dims={self.block_dims})"


# Values stored as one read-only flat array plus a fixed structure.
_STRUCTURED = (GridFunction, DirectSumVector)


class Space:
    """An operator's domain: values of ``shape`` (``None``: a free row count).

    A ``grid`` space holds GridFunctions on the grid, a ``blocks`` space of shape
    ``(n, d)`` DirectSumVectors of n blocks of dim d, both mapped as flat arrays
    of ``flat_shape``; any other space holds plain float arrays of ``shape``.
    """

    def __init__(self, shape: tuple, grid: Grid | None = None, blocks: bool = False):
        self.shape = shape
        self.grid = grid
        self.blocks = blocks
        self.flat_shape = (math.prod(shape),) if blocks else shape

    def values(self, x) -> np.ndarray:
        """The flat values of ``x`` (an array of ``flat_shape`` as it is); a
        ValueError unless x lies in the space. Plain spaces convert by np.asarray."""
        if isinstance(x, np.ndarray) and x.shape == self.flat_shape:
            return x
        if self.grid is None and not self.blocks and not isinstance(x, _STRUCTURED):
            x = np.asarray(x, dtype=float)
            free = self.shape[0] is None
            if x.shape[free:] == self.shape[free:]:
                return x
        if isinstance(x, GridFunction) and self.grid is not None:
            if not x.grid.matches(self.grid):
                raise ValueError("input must be a GridFunction on the operator's grid")
            return x.values
        if isinstance(x, DirectSumVector) and self.blocks:
            n, d = self.shape
            if x.n_blocks != n:
                raise ValueError(f"expected {n} blocks, got {x.n_blocks}")
            if x.block_dims.count(d) != n:
                raise ValueError(f"expected blocks of dim {d}, got {x.block_dims}")
            return x.values
        want = " x ".join("m" if n is None else str(n) for n in self.flat_shape)
        got = getattr(x, "shape", type(x).__name__)
        raise ValueError(f"expected an array of {want} flat values, got {got}")

    def wrap(self, values: np.ndarray):
        """Flat ``values`` in the space's structured form; a plain space returns them."""
        if self.grid is not None:
            return GridFunction(self.grid, values)
        if self.blocks:
            return DirectSumVector.from_matrix(np.reshape(values, self.shape))
        return values


def _l2_norm(values: np.ndarray) -> float:
    return math.sqrt(np.vdot(values, values))  # np.linalg.norm's, without dot's overflow warning


def _sup_norm(values: np.ndarray) -> float:
    return float(np.abs(values).max()) if values.size else 0.0


def flat_norm_function(kind: str, block_dims: Sequence[int] | None = None):
    """The function ``values -> flat_norm(values, kind, block_dims)``, resolved once.

    A solver that takes many norms in one space picks the expression for its
    kind and block structure here, before its loop, instead of on every call.
    """
    if kind == "sup":
        return _sup_norm
    if kind != "direct-sum" or block_dims is None:
        return _l2_norm
    dims = tuple(block_dims)
    if dims.count(dims[0]) == len(dims):
        shape = (len(dims), dims[0])

        def uniform_blocks_norm(values: np.ndarray) -> float:
            S = values.reshape(shape)
            return float(np.add.accumulate(np.sqrt(np.vecdot(S, S)))[-1])
        return uniform_blocks_norm
    spans = [(end - d, end) for d, end in zip(dims, itertools.accumulate(dims))]

    def mixed_blocks_norm(values: np.ndarray) -> float:
        return float(sum(np.linalg.norm(values[start:end]) for start, end in spans))
    return mixed_blocks_norm


def flat_norm(values: np.ndarray, kind: str, block_dims: Sequence[int] | None = None) -> float:
    """The ``kind`` norm of a float array's entries.

    ``block_dims`` splits the entries, in order, into direct-sum blocks; without
    it the direct-sum norm is the L2 norm of one block. Uniform blocks take all
    their L2 norms in one ``vecdot`` and sum them left to right, as the Python
    ``sum`` over per-block ``np.linalg.norm`` calls that mixed dims use does.
    """
    return flat_norm_function(kind, block_dims)(values)


def norm(x, kind: str = "discrete-L2") -> float:
    """Norm of a vector-like value.

    discrete-L2 is sqrt(sum of squares), sup is the max absolute entry, and
    direct-sum is the sum of per-block L2 norms (a plain vector counts as a
    single block).
    """
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    values = x.values if isinstance(x, _STRUCTURED) else np.asarray(x, dtype=float)
    return flat_norm(values, kind, getattr(x, "block_dims", None))


def direct_sum_norm(x: DirectSumVector) -> float:
    """Sum of the per-block L2 norms."""
    return norm(x, "direct-sum")


def space_values(x, y):
    """The values of ``x`` and ``y`` as float arrays, once they are known to share a space.

    Grid functions must share one grid and direct sums one block structure (the
    flat ``values`` are returned); plain arrays must share one shape. Anything
    else is a ValueError.
    """
    if isinstance(x, _STRUCTURED) or isinstance(y, _STRUCTURED):
        if not (isinstance(x, _STRUCTURED) and x.same_space(y)):
            raise ValueError("operands must share one grid or one block structure")
        return x.values, y.values
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    return xa, ya


def lincomb(a: float, x, b: float, y):
    """Elementwise a*x + b*y for two vector-like values of matching shape."""
    xv, yv = space_values(x, y)
    out = a * xv + b * yv
    if isinstance(x, _STRUCTURED):
        return x.with_values(out)
    require_finite(out, "linear combination")
    return out


def zero_like(x):
    """The zero element of the space x lives in."""
    if isinstance(x, _STRUCTURED):
        return x.with_values(np.zeros(x.values.size))
    return np.zeros_like(np.asarray(x, dtype=float))


def flatten_values(x) -> np.ndarray:
    """All numeric entries of a vector-like value as one flat array."""
    if isinstance(x, _STRUCTURED):
        return x.values
    return np.asarray(x, dtype=float).ravel()


def unflatten_like(template, flat):
    """Rebuild a vector-like value with the template's structure from flat entries."""
    if isinstance(template, _STRUCTURED):
        return template.with_values(flat)
    return np.asarray(flat, dtype=float).reshape(np.asarray(template).shape)


def load_matrix_text(path) -> np.ndarray:
    """Read a numeric matrix: whitespace- or comma-separated values, one row per line."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
    if not rows:
        raise ValueError(f"no numeric rows in {path}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)
