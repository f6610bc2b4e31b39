import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from picardop import (
    GnnAggregateOperator,
    Graph,
    Grid,
    GridFunction,
    flatten_values,
    grid_from_json,
    grid_uniform,
    lincomb,
    load_matrix_text,
    norm,
)
from picardop.errors import NonFiniteError
from picardop.spaces import Space, require_finite


def block_space(n, d):
    """The space of n blocks of dim d, of shape (n, d) and flat shape (n*d,)."""
    return Space((n, d), blocks=True)


class TestGridUniform:
    def test_two_point_trapezoid(self):
        g = grid_uniform(0, 1, 2)
        assert np.array_equal(g.points, [0.0, 1.0])
        assert np.array_equal(g.weights, [0.5, 0.5])

    def test_three_point_trapezoid(self):
        g = grid_uniform(0, 1, 3)
        assert np.array_equal(g.points, [0.0, 0.5, 1.0])
        assert np.array_equal(g.weights, [0.25, 0.5, 0.25])

    def test_weight_normalization(self):
        g = grid_uniform(0, 1, 101)
        assert abs(g.weights.sum() - 1.0) <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            grid_uniform(0, 1, 1)
        with pytest.raises(ValueError):
            grid_uniform(1, 0, 5)
        with pytest.raises(ValueError):
            grid_uniform(0, 0, 5)

    def test_simpson_weights(self):
        g = grid_uniform(0, 2, 5, rule="simpson")
        h = 0.5
        assert np.allclose(g.weights, h / 3 * np.array([1, 4, 2, 4, 1]))
        assert abs(g.weights.sum() - 2.0) <= 1e-12

    def test_simpson_needs_odd_count(self):
        with pytest.raises(ValueError):
            grid_uniform(0, 1, 4, rule="simpson")

    def test_simpson_exact_on_cubics(self):
        g = grid_uniform(0, 1, 21, rule="simpson")
        approx = float(np.sum(g.weights * g.points ** 3))
        assert abs(approx - 0.25) <= 1e-12

    def test_trapezoid_exact_on_affine(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(-3, 3)
            b = a + rng.uniform(0.1, 5)
            n = int(rng.integers(2, 40))
            c0, c1 = rng.standard_normal(2)
            g = grid_uniform(a, b, n)
            approx = float(np.sum(g.weights * (c0 + c1 * g.points)))
            exact = c0 * (b - a) + c1 * (b * b - a * a) / 2
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


class TestGridInvariants:
    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 0.4], [0.3, 0.4, 0.3])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 1.0], [0.5, 0.0, 0.5])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError):
            Grid([0.0, 1.0], [0.5, 0.6])

    def test_points_are_immutable(self):
        g = grid_uniform(0, 1, 5)
        with pytest.raises(ValueError):
            g.points[0] = 3.0

    def test_json_round_trip(self):
        g = grid_uniform(-1, 2, 7, rule="trapezoid")
        g2 = grid_from_json(json.loads('{"a": -1, "b": 2.0, "n": 7.0, "rule": "trapezoid"}'))
        assert g2.matches(g)
        assert g2.rule == "trapezoid"


class TestGridFunction:
    def test_length_mismatch(self):
        g = grid_uniform(0, 1, 4)
        with pytest.raises(ValueError):
            GridFunction(g, [1.0, 2.0])

    def test_rejects_nan(self):
        g = grid_uniform(0, 1, 3)
        with pytest.raises(NonFiniteError):
            GridFunction(g, [1.0, np.nan, 0.0])


class TestNorms:
    def test_zero_vector(self):
        assert norm(np.zeros(5), "discrete-L2") == 0.0
        assert norm(np.zeros(5), "sup") == 0.0

    def test_three_four_five(self):
        assert norm(np.array([3.0, 4.0]), "discrete-L2") == 5.0

    def test_sup_is_max_abs(self):
        assert norm(np.array([1.0, -2.0, 1.0]), "sup") == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm(np.ones(3), "L1")

    def test_grid_function_norms(self):
        f = GridFunction(grid_uniform(0, 1, 2), [3.0, -4.0])
        assert norm(f, "discrete-L2") == 5.0
        assert norm(f, "sup") == 4.0

    def test_triangle_inequality_all_kinds(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            for kind in ("discrete-L2", "sup"):
                assert norm(x + y, kind) <= norm(x, kind) + norm(y, kind) + 1e-12
            space = block_space(2, 3)
            direct_sum = space.norm("direct-sum")
            lhs = direct_sum(space.lincomb(1.0, x, 1.0, y))
            assert lhs <= direct_sum(x) + direct_sum(y) + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.standard_normal(5)
            c = rng.uniform(-10, 10)
            for kind in ("discrete-L2", "sup"):
                got = norm(c * x, kind)
                want = abs(c) * norm(x, kind)
                assert abs(got - want) <= 1e-12 * max(want, 1.0)


class TestDirectSum:
    """The direct-sum norm of a block space: the sum of its blocks' L2 norms."""

    def test_zero_blocks(self):
        assert block_space(3, 2).norm("direct-sum")(np.zeros(6)) == 0.0

    def test_componentwise_sum(self):
        assert block_space(2, 2).norm("direct-sum")(np.array([3.0, 4.0, 0.0, 1.0])) == 6.0

    def test_single_block_reduces_to_l2(self):
        v = np.array([1.0, -2.0, 2.0])
        assert block_space(1, 3).norm("direct-sum")(v) == norm(v, "discrete-L2")

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            nx, ny, d = (int(k) for k in rng.integers(1, 5, 3))
            x, y = rng.standard_normal(nx * d), rng.standard_normal(ny * d)
            total = block_space(nx + ny, d).norm("direct-sum")(np.concatenate([x, y]))
            parts = (block_space(nx, d).norm("direct-sum")(x)
                     + block_space(ny, d).norm("direct-sum")(y))
            assert abs(total - parts) <= 1e-12 * max(total, 1.0)

    def test_block_shape_validated(self):
        with pytest.raises(ValueError, match=r"^expected 3 flat values for 1 blocks of dim 3"):
            block_space(1, 3).wrap([1.0, 2.0])

    def test_stacked_requires_uniform(self):
        # the stacked form is the (n, d) matrix: a (d, n) one of the same size is refused
        with pytest.raises(ValueError, match=r"got shape \(3, 1\)$"):
            block_space(1, 3).wrap(np.ones((3, 1)))

    def test_uniform_blocks_have_the_matrix_shape_from_both_constructors(self):
        gnn_space = GnnAggregateOperator(Graph(3), np.eye(2)).space
        assert gnn_space.shape == block_space(3, 2).shape == (3, 2)
        assert gnn_space.flat_shape == block_space(3, 2).flat_shape == (6,)


class TestSpace:
    @pytest.mark.parametrize("shape, values, message", [
        ((3,), np.ones(4), r"3 flat values, got \(4,\)"),
        ((3,), np.ones((3, 1)), r"3 flat values, got \(3, 1\)"),
        ((None, 2), np.ones((4, 3)), r"m x 2 flat values, got \(4, 3\)"),
        ((None, 2), np.ones(2), r"m x 2 flat values, got \(2,\)"),
    ])
    def test_plain_wrap_checks_the_shape(self, shape, values, message):
        with pytest.raises(ValueError, match="^expected an array of " + message):
            Space(shape).wrap(values)

    def test_plain_wrap_gives_a_float_array_with_any_free_row_count(self):
        out = Space((None, 2)).wrap([[1, 2], [3, 4], [5, 6]])
        assert out.dtype == np.float64 and out.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_block_wrap_gives_a_read_only_flat_copy_of_flat_values_or_the_matrix(self):
        space = block_space(3, 2)
        M = np.arange(6.0).reshape(3, 2)
        for values in (M.ravel(), M, M.tolist()):
            out = space.wrap(values)
            assert type(out) is np.ndarray and out.dtype == np.float64
            assert out.shape == (6,) and out.tolist() == M.ravel().tolist()
            assert not out.flags.writeable and not np.shares_memory(out, M)
        assert space.values(out) is out

    @pytest.mark.parametrize("values", [np.ones(5), np.ones((2, 3)), np.ones((3, 2, 1))])
    def test_block_wrap_names_the_expected_size(self, values):
        message = f"expected 6 flat values for 3 blocks of dim 2, got shape {values.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            block_space(3, 2).wrap(values)

    def test_block_wrap_refuses_non_finite_values(self):
        for values in ([1.0, np.nan, 0.0, 1.0, 2.0, 3.0], [[1.0, 2.0], [np.inf, 0.0], [0.0, 0.0]]):
            with pytest.raises(NonFiniteError, match=r"^block values must be finite"):
                block_space(3, 2).wrap(values)

    @pytest.mark.parametrize("space", [Space((2,)), Space((None, 2)), block_space(2, 1),
                                       Space((2,), grid=grid_uniform(0, 1, 2))],
                             ids=["plain", "free-rows", "blocks", "grid"])
    def test_complex_values_are_refused_by_name(self, space):
        message = r"^expected real values, got dtype complex128$"
        for values in (np.ones(2, dtype=complex), [1.0, 1j]):
            with pytest.raises(ValueError, match=message):
                space.wrap(values if space.shape[0] is not None else [values])
        x = np.ones(2, dtype=complex) if space.shape[0] is not None else np.ones((3, 2), complex)
        with pytest.raises(ValueError, match=message):
            space.values(x)


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def block_lists(draw, n, d):
    return [draw(arrays(np.float64, d, elements=FINITE)) for _ in range(n)]


@st.composite
def direct_sum_pairs(draw):
    """n >= 1 blocks of one dim d >= 0, twice, and two coefficients; with the blocks' space."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(0, 5))
    return (block_space(n, d), draw(block_lists(n, d)), draw(block_lists(n, d)),
            draw(FINITE), draw(FINITE))


class TestFlatStorageMatchesPerBlockReference:
    """Flat block values of a block space against per-block arithmetic, compared with ==."""

    @given(direct_sum_pairs())
    def test_layout_and_read_only_views(self, case):
        space, bx, _, _, _ = case
        x = space.wrap(np.concatenate(bx))
        assert x.tolist() == [v for b in bx for v in b]
        assert not x.flags.writeable
        d = space.shape[1]
        for v, ref in enumerate(bx):
            assert x[v * d:(v + 1) * d].tolist() == ref.tolist()
        assert x.reshape(space.shape).tolist() == [b.tolist() for b in bx]
        assert space.wrap(np.array(bx)).tolist() == x.tolist()

    @given(direct_sum_pairs())
    def test_lincomb(self, case):
        space, bx, by, a, b = case
        x, y = np.concatenate(bx), np.concatenate(by)
        ref = [v for p, q in zip(bx, by) for v in a * p + b * q]
        assert space.lincomb(a, x, b, y).tolist() == ref
        assert lincomb(a, x, b, y).tolist() == ref

    @given(direct_sum_pairs())
    def test_norms(self, case):
        space, bx, _, _, _ = case
        x = np.concatenate(bx)
        entries = [v for b in bx for v in b]
        assert space.norm("direct-sum")(x) == sum(np.linalg.norm(b) for b in bx)
        assert space.norm("discrete-L2")(x) == np.linalg.norm(np.array(entries))
        assert space.norm("sup")(x) == max((abs(v) for v in entries), default=0.0)
        # a flat value on its own has no blocks: its direct-sum norm is its L2 norm
        assert norm(x, "direct-sum") == norm(x, "discrete-L2")

    @given(direct_sum_pairs())
    def test_flat_round_trip(self, case):
        space, bx, by, _, _ = case
        x = space.wrap(np.concatenate(bx))
        flat = flatten_values(x)
        assert flat.tolist() == [v for b in bx for v in b]
        assert space.wrap(flat).tolist() == flat.tolist()
        assert space.wrap(np.concatenate(by)).tolist() == [v for b in by for v in b]
        assert space.norm("direct-sum")(np.zeros(space.flat_shape)) == 0.0

    def test_rejects_non_finite_once_for_all_blocks(self):
        with pytest.raises(NonFiniteError):
            block_space(1, 3).wrap([1.0, 2.0, np.inf])
        with pytest.raises(NonFiniteError):
            block_space(2, 2).wrap([[1.0, 2.0], [np.nan, 0.0]])

    def test_wrap_copies_its_input(self):
        # wrap, the one constructor of flat values, keeps a copy
        flat = np.array([1.0, 2.0, 3.0])
        x = block_space(1, 3).wrap(flat)
        flat[0] = 9.0
        assert x.tolist() == [1.0, 2.0, 3.0]


@st.composite
def scaled_blocks(draw):
    """n blocks of dim d and seeded Gaussian entries scaled by 1e-8 .. 1e8."""
    n, d = draw(st.integers(1, 200)), draw(st.integers(0, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8, 8))
    return n, d, rng.standard_normal(n * d) * scale


class TestFlatNorm:
    @settings(max_examples=300, deadline=None)
    @given(scaled_blocks())
    def test_direct_sum_equals_per_block_loop(self, case):
        n, d, values = case
        per_block = sum(np.linalg.norm(values[v * d:(v + 1) * d]) for v in range(n))
        assert block_space(n, d).norm("direct-sum")(values) == per_block


@st.composite
def seeded_non_finite(draw):
    """Finite entries up to 1e300 in magnitude, with NaN/+-Inf put at random positions."""
    shape = draw(st.one_of(st.tuples(st.integers(0, 300)),
                           st.tuples(st.integers(1, 20), st.integers(1, 20))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-300, 300, shape)
    if arr.size:
        spots = rng.integers(0, arr.size, draw(st.integers(0, 3)))
        arr.flat[spots] = rng.choice([np.nan, np.inf, -np.inf], spots.size)
    return arr


class TestRequireFinite:
    @settings(max_examples=300, deadline=None)
    @given(seeded_non_finite())
    def test_raises_exactly_when_an_entry_is_non_finite(self, arr):
        # entries above 1e154 overflow the dot-product screen, which must then
        # fall through to the entry scan, without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if np.isfinite(arr).all():
                require_finite(arr, "values")
            else:
                with pytest.raises(NonFiniteError) as err:
                    require_finite(arr, "values")
                assert str(err.value) == "values must be finite (no NaN/Inf)"


class TestLincomb:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        y = np.array([9.0, 9.0])
        assert np.array_equal(lincomb(1, x, 0, y), x)

    def test_convex_combination_of_equal_points(self):
        x = np.array([1.0, -4.0, 2.5])
        assert np.array_equal(lincomb(0.5, x, 0.5, x), x)

    def test_vector_addition(self):
        assert np.array_equal(lincomb(1, np.array([1.0, 2.0]), 1, np.array([3.0, 4.0])),
                              [4.0, 6.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lincomb(1, np.ones(2), 1, np.ones(3))

    def test_grid_function_needs_same_grid(self):
        f = GridFunction(grid_uniform(0, 1, 3), np.ones(3))
        g = GridFunction(grid_uniform(0, 2, 3), np.ones(3))
        with pytest.raises(ValueError):
            lincomb(1, f, 1, g)

    def test_direct_sum_structure_checked(self):
        with pytest.raises(ValueError, match=r"^expected an array of 3 flat values, got \(2,\)"):
            block_space(1, 3).lincomb(1, np.ones(3), 1, np.ones(2))

    def test_x_decides_the_form_and_y_may_be_its_flat_values(self):
        f = GridFunction(grid_uniform(0, 1, 3), [1.0, 2.0, 3.0])
        out = lincomb(2.0, f, 1.0, np.ones(3))
        assert isinstance(out, GridFunction) and out.grid is f.grid
        assert out.values.tolist() == [3.0, 5.0, 7.0]
        with pytest.raises(ValueError, match="expected an array of 3 flat values, got GridFunction"):
            lincomb(1.0, np.ones(3), 1.0, f)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_is_non_finite_error(self):
        big = np.full(2, 1e308)
        with pytest.raises(NonFiniteError):
            lincomb(10.0, big, 10.0, big)


class TestFileIngestion:
    def test_whitespace_and_commas(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2.5 3\n4,5,6\n# comment\n7\t8 9\n")
        M = load_matrix_text(path)
        assert M.shape == (3, 3)
        assert M[1, 2] == 6.0

    def test_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1\n2\n3\n")
        # a vector is read as one column, or one row, and ravelled by the caller
        assert np.array_equal(load_matrix_text(path), [[1.0], [2.0], [3.0]])
        path.write_text("1 2 3\n")
        assert np.array_equal(load_matrix_text(path).ravel(), [1.0, 2.0, 3.0])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError):
            load_matrix_text(path)
