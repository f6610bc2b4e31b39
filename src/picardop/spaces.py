"""Discretized function spaces: interval grids, grid functions, direct sums, and norms.

A ``Space`` is the one record of a value's structure: a shape, plus a grid or
block dims. GridFunctions and DirectSumVectors hold their flat values and their
space; ``Space.of(x)`` is any value's space. It checks, wraps and combines values
and owns the norms, so each helper here is ``Space.of(x)`` and ``Space`` calls.

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
        self.space = Space((grid.n,), grid=grid)
        self.values = self.space._copy(values)

    @property
    def grid(self) -> Grid:
        return self.space.grid

    def with_values(self, values) -> "GridFunction":
        return self.space.wrap(values)

    def __repr__(self) -> str:
        return f"GridFunction(n={self.grid.n}, values={self.values!r})"


class DirectSumVector:
    """Element of a direct sum of component spaces, stored as one flat array.

    ``values`` holds the blocks end to end and is read-only; ``blocks`` are
    read-only views into it, and ``space`` records their dims. The direct-sum
    norm is the *sum* of the component L2 norms, so that for disjoint block
    concatenation the norm is additive.
    """

    def __init__(self, blocks: Sequence, block_dims: Sequence[int] | None = None):
        arrs = [np.asarray(b, dtype=float) for b in blocks]
        if any(b.ndim != 1 for b in arrs):
            raise ValueError("blocks must be 1-D vectors")
        dims = tuple(b.size for b in arrs)
        if block_dims is not None and tuple(block_dims) != dims:
            raise ValueError(f"block_dims {tuple(block_dims)} do not match actual dims {dims}")
        uniform = bool(dims) and dims.count(dims[0]) == len(dims)
        self.space = Space((len(dims), dims[0]) if uniform else (sum(dims),), block_dims=dims)
        self.values = self.space._copy(np.concatenate(arrs))

    @property
    def block_dims(self) -> tuple:
        return self.space.block_dims

    def with_values(self, values) -> "DirectSumVector":
        """A vector with this block structure holding a copy of the flat ``values``."""
        return self.space.wrap(values)

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
        return Space(M.shape, block_dims=(M.shape[1],) * M.shape[0]).wrap(M)

    def __repr__(self) -> str:
        return f"DirectSumVector(n_blocks={self.n_blocks}, block_dims={self.block_dims})"


# Values stored as one read-only flat array plus their space.
_STRUCTURED = (GridFunction, DirectSumVector)


class Space:
    """The space of a value: values of ``shape`` (``None``: a free row count).

    A ``grid`` space holds GridFunctions on the grid, and a ``block_dims``
    space DirectSumVectors with blocks of those dims (``shape`` is (n, d) for
    n blocks of dim d, else the total dim); both are handled as flat arrays of
    ``flat_shape``. Any other space holds plain float arrays of ``shape``.
    ``Space.of(x)`` is the space of a value x; the space decides its norms.
    """

    def __init__(self, shape: tuple, grid: Grid | None = None,
                 block_dims: tuple | None = None):
        if block_dims is not None and not block_dims:
            raise ValueError("need at least one block")
        self.shape = shape
        self.grid = grid
        self.block_dims = block_dims if block_dims is None else tuple(block_dims)
        self.flat_shape = shape if block_dims is None else (sum(block_dims),)
        # values fit a free row count, (None, ...), by the dims after their first
        self._free = self.flat_shape[:1] == (None,)
        self._tail = self.flat_shape[self._free:]

    @staticmethod
    def of(x) -> "Space":
        """The space of a GridFunction or DirectSumVector, else plain arrays of x's shape."""
        if isinstance(x, _STRUCTURED):
            return x.space
        return Space(x.shape if isinstance(x, np.ndarray) else np.shape(x))

    def values(self, x) -> np.ndarray:
        """The flat values of ``x`` (an array of ``flat_shape`` as it is); a
        ValueError unless x lies in the space. Plain spaces convert by np.asarray."""
        if isinstance(x, np.ndarray) and x.shape[self._free:] == self._tail:
            return x
        if not isinstance(x, _STRUCTURED):
            if self.grid is None and self.block_dims is None:
                x = np.asarray(x, dtype=float)
                if x.shape[self._free:] == self._tail:
                    return x
        elif x.space.grid is not None and self.grid is not None:
            if not x.space.grid.matches(self.grid):
                raise ValueError("input must be a GridFunction on the operator's grid")
            return x.values
        elif x.space.block_dims is not None and self.block_dims is not None:
            dims, want = x.space.block_dims, self.block_dims
            if len(dims) != len(want):
                raise ValueError(f"expected {len(want)} blocks, got {len(dims)}")
            if dims != want:
                d = want[0] if want.count(want[0]) == len(want) else want
                raise ValueError(f"expected blocks of dim {d}, got {dims}")
            return x.values
        want = " x ".join("m" if n is None else str(n) for n in self.flat_shape)
        got = getattr(x, "shape", type(x).__name__)
        raise ValueError(f"expected an array of {want} flat values, got {got}")

    def wrap(self, values):
        """Flat ``values`` in the space's form, a ValueError unless they fit it: a
        GridFunction or DirectSumVector holding a finite read-only copy, or for a
        plain space a float array (the array itself when it is one)."""
        if self.grid is None and self.block_dims is None:
            return self.values(np.asarray(values, dtype=float))
        out = object.__new__(DirectSumVector if self.grid is None else GridFunction)
        out.space, out.values = self, self._copy(values)
        return out

    def _copy(self, values) -> np.ndarray:
        """A read-only float copy of a grid or block space's flat ``values`` (or
        blocks as a matrix of ``shape``); a ValueError unless of ``flat_shape``,
        a NonFiniteError unless finite."""
        values = np.array(values, dtype=float)
        if values.shape == self.shape != self.flat_shape:
            values = values.ravel()
        on_grid = self.grid is not None
        if values.shape != self.flat_shape:
            what = ("values on the grid" if on_grid
                    else f"flat values for block dims {self.block_dims}")
            raise ValueError(f"expected {self.flat_shape[0]} {what}, got shape {values.shape}")
        require_finite(values, "grid function values" if on_grid else "block values")
        values.setflags(write=False)
        return values

    def lincomb(self, a: float, x, b: float, y) -> np.ndarray:
        """The flat values of a*x + b*y for x and y in the space, in either form;
        a ValueError unless they share a shape, a NonFiniteError unless finite."""
        xv, yv = self.values(x), self.values(y)
        if xv.shape != yv.shape:
            raise ValueError(f"shape mismatch: {xv.shape} vs {yv.shape}")
        out = a * xv + b * yv
        require_finite(out, "linear combination")
        return out

    def norm(self, kind: str):
        """The function ``values -> the kind norm`` of the space's flat values.

        discrete-L2 is sqrt(sum of squares) and sup the max absolute entry.
        direct-sum is the sum of the blocks' L2 norms, and the L2 norm in a
        space without blocks (one block). Uniform blocks take all their L2
        norms in one ``vecdot`` and sum them left to right, as the Python
        ``sum`` over per-block ``np.linalg.norm`` calls that mixed dims use
        does. A solver resolves the function once, before its loop.
        """
        if kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
        if kind == "sup":
            return _sup_norm
        if kind != "direct-sum" or self.block_dims is None:
            return _l2_norm
        dims = self.block_dims
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


def _l2_norm(values: np.ndarray) -> float:
    return math.sqrt(np.vdot(values, values))  # np.linalg.norm's, without dot's overflow warning


def _sup_norm(values: np.ndarray) -> float:
    return float(np.abs(values).max()) if values.size else 0.0


def norm(x, kind: str = "discrete-L2") -> float:
    """The ``kind`` norm (see ``Space.norm``) of a vector-like value in its own space."""
    space = Space.of(x)
    return space.norm(kind)(space.values(x).astype(float, copy=False))


def direct_sum_norm(x: DirectSumVector) -> float:
    """Sum of the per-block L2 norms."""
    return norm(x, "direct-sum")


def lincomb(a: float, x, b: float, y):
    """Elementwise a*x + b*y in x's space, where y is a value of it or its flat values."""
    space = Space.of(x)
    return space.wrap(space.lincomb(a, x, b, y))


def zero_like(x):
    """The zero element of the space x lives in."""
    space = Space.of(x)
    return space.wrap(np.zeros(space.flat_shape))


def flatten_values(x) -> np.ndarray:
    """All numeric entries of a vector-like value as one flat array."""
    return Space.of(x).values(x).astype(float, copy=False).ravel()


def unflatten_like(template, flat):
    """Rebuild a vector-like value in the template's space from flat entries."""
    space = Space.of(template)
    return space.wrap(np.asarray(flat, dtype=float).reshape(space.flat_shape))


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
