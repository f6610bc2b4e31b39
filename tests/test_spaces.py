import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from picardop import (
    DirectSumVector,
    Grid,
    GridFunction,
    direct_sum_norm,
    flatten_values,
    grid_from_json,
    grid_uniform,
    lincomb,
    load_matrix_text,
    load_vector_text,
    norm,
    unflatten_like,
    zero_like,
)
from picardop.errors import NonFiniteError
from picardop.spaces import flat_norm, require_finite


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
            dx = DirectSumVector([x[:3], x[3:]])
            dy = DirectSumVector([y[:3], y[3:]])
            lhs = direct_sum_norm(lincomb(1.0, dx, 1.0, dy))
            assert lhs <= direct_sum_norm(dx) + direct_sum_norm(dy) + 1e-12

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
    def test_zero_blocks(self):
        assert direct_sum_norm(DirectSumVector([np.zeros(3), np.zeros(2)])) == 0.0

    def test_componentwise_sum(self):
        x = DirectSumVector([[3.0, 4.0], [0.0, 1.0]])
        assert direct_sum_norm(x) == 6.0

    def test_single_block_reduces_to_l2(self):
        v = np.array([1.0, -2.0, 2.0])
        assert direct_sum_norm(DirectSumVector([v])) == norm(v, "discrete-L2")

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            bx = [rng.standard_normal(rng.integers(1, 5)) for _ in range(3)]
            by = [rng.standard_normal(rng.integers(1, 5)) for _ in range(2)]
            x = DirectSumVector(bx)
            y = DirectSumVector(by)
            both = DirectSumVector(bx + by)
            total = direct_sum_norm(both)
            assert abs(total - (direct_sum_norm(x) + direct_sum_norm(y))) <= 1e-12 * max(total, 1.0)

    def test_block_dims_validated(self):
        with pytest.raises(ValueError):
            DirectSumVector([[1.0, 2.0]], block_dims=[3])

    def test_stacked_requires_uniform(self):
        with pytest.raises(ValueError):
            DirectSumVector([[1.0], [1.0, 2.0]]).stacked()


BLOCK_DIMS = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.tuples(st.integers(1, 8), st.integers(0, 5)).map(lambda nd: [nd[1]] * nd[0]),
)
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def block_lists(draw, dims):
    return [draw(arrays(np.float64, d, elements=FINITE)) for d in dims]


@st.composite
def direct_sum_pairs(draw):
    dims = draw(BLOCK_DIMS)
    return draw(block_lists(dims)), draw(block_lists(dims)), draw(FINITE), draw(FINITE)


class TestFlatStorageMatchesPerBlockReference:
    """The flat-array DirectSumVector against per-block arithmetic, compared with ==."""

    @given(direct_sum_pairs())
    def test_layout_and_read_only_views(self, case):
        bx, _, _, _ = case
        x = DirectSumVector(bx)
        assert x.block_dims == tuple(b.size for b in bx)
        assert x.values.tolist() == [v for b in bx for v in b]
        assert not x.values.flags.writeable
        for block, ref in zip(x.blocks, bx, strict=True):
            assert block.tolist() == ref.tolist()
            assert not block.flags.writeable
        if x.is_uniform():
            assert x.stacked().tolist() == [b.tolist() for b in bx]

    @given(direct_sum_pairs())
    def test_lincomb(self, case):
        bx, by, a, b = case
        got = lincomb(a, DirectSumVector(bx), b, DirectSumVector(by))
        ref = [a * p + b * q for p, q in zip(bx, by)]
        assert got.block_dims == tuple(r.size for r in ref)
        assert got.values.tolist() == [v for r in ref for v in r]

    @given(direct_sum_pairs())
    def test_norms(self, case):
        bx, _, _, _ = case
        x = DirectSumVector(bx)
        entries = [v for b in bx for v in b]
        assert norm(x, "direct-sum") == sum(np.linalg.norm(b) for b in bx)
        assert norm(x, "discrete-L2") == np.linalg.norm(np.array(entries))
        assert norm(x, "sup") == max((abs(v) for v in entries), default=0.0)

    @given(direct_sum_pairs())
    def test_zero_like_and_flat_round_trip(self, case):
        bx, by, _, _ = case
        x = DirectSumVector(bx)
        zero = zero_like(x)
        assert zero.block_dims == x.block_dims
        assert all(not z.any() for z in zero.blocks)
        flat = flatten_values(x)
        assert flat.tolist() == [v for b in bx for v in b]
        back = unflatten_like(x, flat)
        assert back.block_dims == x.block_dims
        assert [b.tolist() for b in back.blocks] == [b.tolist() for b in bx]
        other = unflatten_like(x, np.concatenate(by))
        assert [b.tolist() for b in other.blocks] == [b.tolist() for b in by]

    def test_rejects_non_finite_once_for_all_blocks(self):
        with pytest.raises(NonFiniteError):
            DirectSumVector([[1.0], [2.0, np.inf]])
        with pytest.raises(NonFiniteError):
            DirectSumVector.from_matrix([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(NonFiniteError):
            DirectSumVector([[1.0], [2.0, 3.0]]).with_values([1.0, np.nan, 3.0])

    def test_with_values_copies_its_input(self):
        flat = np.array([1.0, 2.0, 3.0])
        x = DirectSumVector([[0.0], [0.0, 0.0]]).with_values(flat)
        flat[0] = 9.0
        assert x.blocks[0].tolist() == [1.0]


@st.composite
def scaled_blocks(draw):
    """Uniform or mixed block dims and seeded Gaussian entries scaled by 1e-8 .. 1e8."""
    dims = draw(st.one_of(
        st.lists(st.integers(0, 70), min_size=1, max_size=40),
        st.tuples(st.integers(1, 200), st.integers(0, 70)).map(lambda nd: [nd[1]] * nd[0]),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8, 8))
    return tuple(dims), rng.standard_normal(sum(dims)) * scale


class TestFlatNorm:
    @settings(max_examples=300, deadline=None)
    @given(scaled_blocks())
    def test_direct_sum_equals_per_block_loop(self, case):
        dims, values = case
        ends = np.cumsum(dims)
        blocks = [values[end - d:end] for d, end in zip(dims, ends)]
        per_block = sum(np.linalg.norm(b) for b in blocks)
        assert flat_norm(values, "direct-sum", dims) == per_block
        assert norm(DirectSumVector(blocks), "direct-sum") == per_block


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
        x = DirectSumVector([[1.0, 2.0]])
        y = DirectSumVector([[1.0], [2.0]])
        with pytest.raises(ValueError):
            lincomb(1, x, 1, y)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflow_is_non_finite_error(self):
        big = np.full(2, 1e308)
        with pytest.raises(NonFiniteError):
            lincomb(10.0, big, 10.0, big)

    def test_zero_like_variants(self):
        g = grid_uniform(0, 1, 4)
        assert np.array_equal(zero_like(GridFunction(g, np.ones(4))).values, np.zeros(4))
        z = zero_like(DirectSumVector([[1.0], [2.0, 3.0]]))
        assert z.block_dims == (1, 2)
        assert direct_sum_norm(z) == 0.0


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
        assert np.array_equal(load_vector_text(path), [1.0, 2.0, 3.0])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError):
            load_matrix_text(path)
