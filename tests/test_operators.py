import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from picardop import (
    AffineOperator,
    AttentionOperator,
    GnnAggregateOperator,
    Graph,
    GridFunction,
    HammersteinOperator,
    Operator,
    PicardConfig,
    Space,
    apply,
    damped_solve,
    fd_directional,
    frechet_check,
    graph_from_edgelist,
    grid_uniform,
    lipschitz_sample,
    make_kernel,
    neighborhood_membership_counts,
    operator_from_config,
    pign_embed,
    picard_solve,
    residual,
    uniqueness_check,
)
import picardop
from picardop import _blas, picard
from picardop.errors import ConfigError, DivergenceError, NonFiniteError
from picardop.spaces import require_finite


class TestAffine:
    def test_constant_map(self):
        op = AffineOperator(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        for x in (np.zeros(3), np.ones(3), np.array([5.0, -2.0, 0.1])):
            assert np.array_equal(apply(op, x), [1.0, 2.0, 3.0])

    def test_identity(self):
        op = AffineOperator(np.eye(4))
        x = np.array([1.0, -2.0, 0.0, 4.0])
        assert np.array_equal(apply(op, x), x)

    def test_shape_validation(self):
        op = AffineOperator(np.eye(3))
        with pytest.raises(ValueError):
            apply(op, np.ones(4))
        with pytest.raises(ValueError):
            AffineOperator(np.ones((2, 3)))
        with pytest.raises(ValueError):
            AffineOperator(np.eye(2), [1.0, 2.0, 3.0])

    def test_lipschitz_ratio_never_exceeds_spectral_norm(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((6, 6))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        op = AffineOperator(A, rng.standard_normal(6))
        top = 0.0
        for _ in range(1000):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            gap = np.linalg.norm(x - y)
            if gap < 1e-12:
                continue
            ratio = np.linalg.norm(apply(op, x) - apply(op, y)) / gap
            assert ratio <= sigma + 1e-9
            top = max(top, ratio)
        # pairs aligned with the top right singular vector reach the constant
        v_top = np.linalg.svd(A)[2][0]
        x = rng.standard_normal(6)
        ratio = np.linalg.norm(apply(op, x + v_top) - apply(op, x)) / np.linalg.norm(v_top)
        top = max(top, ratio)
        assert top >= 0.99 * sigma

    def test_determinism(self):
        rng = np.random.default_rng(3)
        op = AffineOperator(rng.standard_normal((5, 5)), rng.standard_normal(5))
        x = rng.standard_normal(5)
        first = apply(op, x)
        second = apply(op, x)
        assert np.array_equal(first, second)


class TestAttention:
    def test_zero_input(self):
        rng = np.random.default_rng(4)
        op = AttentionOperator(*rng.standard_normal((3, 2, 2)))
        assert np.array_equal(apply(op, np.zeros((4, 2))), np.zeros((4, 2)))

    def test_single_token_cube(self):
        op = AttentionOperator([[1.0]], [[1.0]], [[1.0]])
        assert np.allclose(apply(op, np.array([[2.0]])), [[8.0]])
        y = -1.7
        assert np.allclose(apply(op, np.array([[y]])), [[y ** 3]])

    def test_degree_three_homogeneity(self):
        rng = np.random.default_rng(5)
        op = AttentionOperator(*rng.standard_normal((3, 3, 3)))
        for _ in range(50):
            Y = rng.standard_normal((4, 3))
            c = rng.uniform(-2, 2)
            lhs = apply(op, c * Y)
            rhs = c ** 3 * apply(op, Y)
            scale = max(np.abs(rhs).max(), 1e-30)
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_dimension_mismatch(self):
        op = AttentionOperator(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            apply(op, np.ones((3, 4)))


class TestHammerstein:
    def test_zero_kernel(self):
        g = grid_uniform(0, 1, 11)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 0]))
        out = apply(op, GridFunction(g, np.ones(11)))
        assert np.array_equal(out.values, np.zeros(11))

    def test_product_kernel_constant_input(self):
        # K(t,s) = t*s against y = 1: integral of t*s over s in [0,1] is t/2
        g = grid_uniform(0, 1, 1001)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        out = apply(op, GridFunction(g, np.ones(g.n)))
        assert np.max(np.abs(out.values - g.points / 2)) <= 1e-6

    def test_product_kernel_linear_input(self):
        # y(s) = s: integral of t*s^2 over [0,1] is t/3
        g = grid_uniform(0, 1, 1001)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        out = apply(op, GridFunction(g, g.points))
        assert np.max(np.abs(out.values - g.points / 3)) <= 1e-6

    def test_linear_kernel_is_linear_operator(self):
        rng = np.random.default_rng(6)
        g = grid_uniform(0, 1, 41)
        op = HammersteinOperator(g, make_kernel("separable-linear", rng.standard_normal(4)))
        for _ in range(50):
            y1 = GridFunction(g, rng.standard_normal(g.n))
            y2 = GridFunction(g, rng.standard_normal(g.n))
            a, b = rng.uniform(-3, 3, 2)
            combined = apply(op, GridFunction(g, a * y1.values + b * y2.values))
            split = a * apply(op, y1).values + b * apply(op, y2).values
            scale = max(np.abs(split).max(), 1e-30)
            assert np.abs(combined.values - split).max() <= 1e-10 * scale

    def test_bounded_nonlinear_kernel_is_bounded(self):
        g = grid_uniform(0, 1, 101)
        op = HammersteinOperator(g, make_kernel("bounded-nonlinear", [0, 0, 0, 1]))
        bound = np.abs(op._K) @ g.weights
        rng = np.random.default_rng(13)
        for scale in (0.1, 1.0, 100.0, 1e6):
            y = GridFunction(g, scale * rng.standard_normal(g.n))
            out = apply(op, y)
            assert np.all(np.abs(out.values) <= bound + 1e-12)

    def test_simpson_grid_integrates_smooth_kernel(self):
        g = grid_uniform(0, 1, 101, rule="simpson")
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        out = apply(op, GridFunction(g, g.points ** 2))
        # integral of t*s^3 over [0,1] is t/4; Simpson is exact on cubics
        assert np.max(np.abs(out.values - g.points / 4)) <= 1e-12

    def test_table_kernel_matches_separable(self):
        g = grid_uniform(0, 1, 31)
        table = np.outer(g.points, g.points)
        op_table = HammersteinOperator(g, make_kernel("table", table=table))
        op_sep = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        y = GridFunction(g, np.sin(g.points))
        assert np.allclose(apply(op_table, y).values,
                           apply(op_sep, y).values, atol=1e-14)

    def test_wrong_grid_rejected(self):
        g = grid_uniform(0, 1, 11)
        op = HammersteinOperator(g, make_kernel("separable-linear"))
        other = GridFunction(grid_uniform(0, 1, 21), np.ones(21))
        with pytest.raises(ValueError):
            apply(op, other)

    @settings(deadline=None)
    @example(name="separable-linear", params=[0.0, 0.0, 0.0, 1.0], rule_n=("trapezoid", 2),
             a=5e-324, length=1.5, scale=1.0, seed=3)
    @example(name="separable-linear", params=[0.0, 0.0, 0.0, 1.0], rule_n=("trapezoid", 2),
             a=5e-324, length=1.5, scale=1e3, seed=3)
    @given(name=st.sampled_from(["separable-linear", "bounded-nonlinear"]),
           params=st.lists(st.floats(-2, 2, allow_subnormal=False),
                           min_size=4, max_size=4),
           rule_n=st.one_of(st.tuples(st.just("trapezoid"), st.integers(2, 300)),
                            st.tuples(st.just("simpson"),
                                      st.integers(1, 149).map(lambda k: 2 * k + 1))),
           a=st.floats(-5, 5), length=st.floats(0.01, 10),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_separable_apply_matches_dense(self, name, params, rule_n, a, length,
                                           scale, seed):
        rule, n = rule_n
        g = grid_uniform(a, a + length, n, rule=rule)
        op = HammersteinOperator(g, make_kernel(name, params))
        y = GridFunction(g, scale * np.random.default_rng(seed).standard_normal(n))
        phi = op.kernel.nonlinearity(y.values)
        dense = op._K @ (g.weights * phi)
        bound = np.abs(op._K) @ (g.weights * np.abs(phi))
        # at a subnormal grid point, K's entries and the products in both forms
        # round to whole subnormal steps, which 1e-12 * bound underflows below
        underflow = np.finfo(float).smallest_subnormal * (
            g.n + (1 + np.abs(g.points).max()) * (g.weights @ np.abs(phi)))
        assert np.all(np.abs(apply(op, y).values - dense) <= 1e-12 * bound + underflow)

    def test_table_kernel_applies_dense_matrix(self):
        g = grid_uniform(0, 1, 201, rule="simpson")
        # exp(-|t - 2s|) is not symmetric, so the apply is K's gemv
        op = HammersteinOperator(g, make_kernel(
            "table", table=0.5 * np.exp(-np.abs(g.points[:, None] - 2 * g.points[None, :]))))
        y = GridFunction(g, np.cos(3 * g.points))
        assert not op._symmetric
        assert np.array_equal(apply(op, y).values, op._K @ (g.weights * y.values))

    @settings(deadline=None)
    @given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_symmetric_table_apply_is_within_the_dot_product_error_bound(self, n, seed,
                                                                         scale):
        rng = np.random.default_rng(seed)
        g = grid_uniform(0, 1, n)
        A = rng.uniform(-1.0, 1.0, (n, n))
        op = HammersteinOperator(g, make_kernel("table", table=A + A.T))
        assert op._symmetric
        y = GridFunction(g, scale * rng.standard_normal(n))
        v = g.weights * y.values
        K, v_ld = op._K.astype(np.longdouble), v.astype(np.longdouble)
        exact = K @ v_ld
        # any summation order in double is within gamma_n * |K| |v| of the exact
        # product; the long double reference adds its own, smaller gamma_n
        gamma = [n * u / (1 - n * u) for u in
                 (np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2)]
        bound = sum(gamma) * (np.abs(K) @ np.abs(v_ld))
        assert np.all(np.abs(apply(op, y).values - exact) <= bound)

    # the symmetry test compares 512 x 512 tiles: entries in a tile off the
    # diagonal, in a second diagonal tile and in the first
    @pytest.mark.parametrize("entry, nudge", [
        ((900, 3), lambda x: np.nextafter(x, np.inf)),
        ((700, 600), lambda x: np.nextafter(x, np.inf)),
        ((0, 1), np.negative),
    ], ids=["one-ulp-off-diagonal-tile", "one-ulp-diagonal-tile", "negative-zero"])
    def test_table_that_is_not_bitwise_symmetric_applies_by_gemv(self, entry, nudge):
        g = grid_uniform(0, 1, 1001)
        table = 0.5 * np.exp(-np.abs(g.points[:, None] - g.points[None, :]))
        table[0, 1] = table[1, 0] = 0.0
        assert HammersteinOperator(g, make_kernel("table", table=table))._symmetric
        table[entry] = nudge(table[entry])
        op = HammersteinOperator(g, make_kernel("table", table=table))
        y = GridFunction(g, np.cos(3 * g.points))
        assert not op._symmetric
        assert np.array_equal(apply(op, y).values, op._K.dot(g.weights * y.values))

    def test_symmetric_table_without_dsymv_gives_the_gemv_bytes(self, monkeypatch):
        g = grid_uniform(0, 1, 201, rule="simpson")
        op = HammersteinOperator(g, make_kernel(
            "table", table=0.5 * np.exp(-np.abs(g.points[:, None] - g.points[None, :]))))
        y = GridFunction(g, np.cos(3 * g.points))
        monkeypatch.setattr(_blas, "_dsymv", lambda: None)
        assert op._symmetric
        assert np.array_equal(apply(op, y).values, op._K.dot(g.weights * y.values))

    def test_symmetric_table_applies_repeat_bit_for_bit(self):
        g = grid_uniform(0, 1, 1001)
        op = HammersteinOperator(g, make_kernel(
            "table", table=0.5 * np.exp(-np.abs(g.points[:, None] - g.points[None, :]))))
        y = GridFunction(g, np.cos(3 * g.points))
        first = apply(op, y).values.tobytes()
        assert op._symmetric
        assert all(apply(op, y).values.tobytes() == first for _ in range(20))

    def test_import_and_symmetric_apply_load_no_scipy(self):
        # the dsymv binding is found on the first symmetric apply, not on
        # import, and never through scipy
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import picardop
            from picardop import _blas
            assert _blas._dsymv.cache_info().currsize == 0
            g = picardop.grid_uniform(0, 1, 11)
            table = np.exp(-np.abs(g.points[:, None] - g.points[None, :]))
            op = picardop.HammersteinOperator(g, picardop.make_kernel("table", table=table))
            picardop.apply(op, picardop.GridFunction(g, g.points))
            assert op._symmetric and _blas._dsymv.cache_info().currsize == 1
            print("scipy" in sys.modules)
        """)
        src = str(Path(picardop.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_separable_operator_stores_no_dense_matrix(self):
        g = grid_uniform(0, 1, 4001, rule="simpson")
        op = HammersteinOperator(g, make_kernel("bounded-nonlinear", [0.2, 0.1, 0.1, 0.3]))
        assert "_K" not in vars(op)
        apply(op, GridFunction(g, np.sin(g.points)))
        assert "_K" not in vars(op)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kernel_overflow_on_grid_rejected(self):
        # K(t, s) = 1e308 * t * s overflows on the grid wherever t * s > 1.8
        with pytest.raises(ValueError, match="non-finite"):
            HammersteinOperator(grid_uniform(0, 10, 11),
                                make_kernel("separable-linear", [0, 0, 0, 1e308]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_output_is_divergence(self):
        g = grid_uniform(0, 1, 11)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1e308]))
        with pytest.raises(DivergenceError):
            apply(op, GridFunction(g, np.full(g.n, 1e10)))

    @settings(deadline=None)
    @given(name=st.sampled_from(["separable-linear", "bounded-nonlinear"]),
           params=st.lists(st.floats(-1e308, 1e308), min_size=4, max_size=4),
           n=st.integers(2, 50), log_scale=st.floats(-10, 300),
           special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
           seed=st.integers(0, 2**32 - 1))
    def test_rank2_output_refused_exactly_when_an_entry_is_non_finite(
            self, name, params, n, log_scale, special, seed):
        g = grid_uniform(0, 1, n)
        rng = np.random.default_rng(seed)
        y = 10.0 ** log_scale * rng.standard_normal(n)
        if special is not None:
            y[rng.integers(n)] = special
        with np.errstate(all="ignore"):
            try:
                op = HammersteinOperator(g, make_kernel(name, params))
            except ValueError:
                return  # the kernel itself overflows on the grid
            U, Vw = op._factors
            expected = U @ (op.kernel.nonlinearity(y) @ Vw)
            if np.isfinite(expected).all():
                assert op(y).tobytes() == expected.tobytes()
            else:
                with pytest.raises(NonFiniteError,
                                   match="grid function values must be finite"):
                    op(y)


class TestGraph:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_symmetry(self):
        g = Graph(4, [(0, 1), (1, 2)], include_self=False)
        for u in range(4):
            for v in g.neighborhood(u):
                assert u in g.neighborhood(v)

    @given(st.data())
    def test_csr_matches_set_reference(self, data):
        # duplicate and reversed pairs must collapse as in a set-built graph
        n = data.draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
        include_self = data.draw(st.booleans())
        g = Graph(n, edges, include_self=include_self)
        want = [{v} if include_self else set() for v in range(n)]
        for u, v in edges:
            want[u].add(v)
            want[v].add(u)
        assert [g.neighborhood(v).tolist() for v in range(n)] == [sorted(s) for s in want]
        assert neighborhood_membership_counts(g).tolist() == [len(s) for s in want]

    @pytest.mark.parametrize("edges", [[(0, 0.5)], [("0", 1)], [(0, 1, 2)]])
    def test_rejects_non_integer_pairs(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    def test_neighborhood_with_self(self):
        g = Graph(3, [(0, 1)], include_self=True)
        assert list(g.neighborhood(0)) == [0, 1]
        assert list(g.neighborhood(2)) == [2]

    def test_membership_counts(self):
        path3 = Graph(3, [(0, 1), (1, 2)], include_self=False)
        assert list(neighborhood_membership_counts(path3)) == [1, 2, 1]
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], include_self=False)
        assert list(neighborhood_membership_counts(star)) == [4, 1, 1, 1, 1]
        single = Graph(1, [], include_self=True)
        assert list(neighborhood_membership_counts(single)) == [1]

    def test_edgelist_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n# comment\n")
        g = graph_from_edgelist(path, include_self=False)
        assert g.n == 3
        assert g.neighborhood(1).tolist() == [0, 2]


class TestGnnAggregate:
    def test_zero_features(self):
        rng = np.random.default_rng(10)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        op = GnnAggregateOperator(g, rng.standard_normal((3, 3)))
        out = apply(op, np.zeros(12))
        assert np.array_equal(out, np.zeros(12))

    def test_two_node_path_no_self(self):
        g = Graph(2, [(0, 1)], include_self=False)
        op = GnnAggregateOperator(g, np.eye(2))
        out = apply(op, np.array([1.0, -1.0, -2.0, 3.0]))
        assert np.array_equal(out, [0.0, 3.0, 1.0, 0.0])

    def test_single_node_with_self(self):
        g = Graph(1, [], include_self=True)
        op = GnnAggregateOperator(g, np.eye(2))
        out = apply(op, np.array([-1.0, 2.0]))
        assert np.array_equal(out, [0.0, 2.0])

    def test_isolated_node_zero_block(self):
        g = Graph(3, [(0, 1)], include_self=False)
        op = GnnAggregateOperator(g, np.eye(2))
        out = apply(op, np.array([1.0, 1.0, 2.0, 2.0, 5.0, 5.0]))
        assert np.array_equal(out[4:], [0.0, 0.0])

    def test_monotone_for_identity_weights(self):
        rng = np.random.default_rng(12)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        op = GnnAggregateOperator(g, np.eye(3))
        for _ in range(100):
            F = rng.standard_normal((5, 3))
            base = apply(op, F.ravel())
            i, j = rng.integers(0, 5), rng.integers(0, 3)
            F2 = F.copy()
            F2[i, j] += rng.uniform(0, 2)
            bumped = apply(op, F2.ravel())
            assert np.all(bumped >= base - 1e-15)

    @given(st.data())
    def test_matches_per_node_reference(self, data):
        # integer-valued entries keep every product and sum exact, so the
        # reference may apply W node by node and still compare with ==
        n = data.draw(st.integers(1, 7))
        d = data.draw(st.integers(1, 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges, include_self=data.draw(st.booleans()))
        entries = st.integers(-8, 8).map(float)
        W = data.draw(arrays(np.float64, (d, d), elements=entries))
        F = data.draw(arrays(np.float64, (n, d), elements=entries))
        op = GnnAggregateOperator(g, W)
        out = apply(op, op.space.wrap(F))
        assert op.space.block_dims == (d,) * n and out.shape == (n * d,)
        for v in range(n):
            messages = [np.maximum(W @ F[i], 0.0) for i in g.neighborhood(v)]
            want = np.max(messages, axis=0) if messages else np.zeros(d)
            assert out[v * d:(v + 1) * d].tolist() == want.tolist()

    def test_block_count_mismatch(self):
        g = Graph(2, [(0, 1)])
        op = GnnAggregateOperator(g, np.eye(2))
        with pytest.raises(ValueError, match=r"expected an array of 4 flat values, got \(2,\)"):
            apply(op, np.array([1.0, 2.0]))


def operator_and_input(family, rng):
    """An operator of ``family`` and an input in its domain's vector type (flat
    block values for gnn, made from a matrix by the operator's space)."""
    if family == "affine":
        d = int(rng.integers(1, 9))
        return (AffineOperator(rng.standard_normal((d, d)), rng.standard_normal(d)),
                rng.standard_normal(d))
    if family == "attention":
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        return AttentionOperator(*rng.standard_normal((3, d, d))), rng.standard_normal((m, d))
    if family == "gnn":
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        edges = rng.integers(0, n, (2 * n, 2))
        graph = Graph(n, edges[edges[:, 0] != edges[:, 1]], include_self=bool(rng.integers(2)))
        op = GnnAggregateOperator(graph, rng.standard_normal((d, d)))
        return op, op.space.wrap(rng.standard_normal((n, d)))
    n = int(rng.integers(2, 40))
    grid = grid_uniform(0.0, 1.0, n)
    kernel = (make_kernel("table", table=rng.standard_normal((n, n))) if family == "table"
              else make_kernel(family, params=rng.standard_normal(4)))
    return HammersteinOperator(grid, kernel), GridFunction(grid, rng.standard_normal(n))


OPERATOR_FAMILIES = ("affine", "attention", "separable-linear", "bounded-nonlinear", "table",
                     "gnn")


class TestFlatValues:
    @pytest.mark.parametrize("family", OPERATOR_FAMILIES)
    def test_flat_form_gives_the_same_bytes(self, family):
        rng = np.random.default_rng(OPERATOR_FAMILIES.index(family))
        for _ in range(20):
            op, x = operator_and_input(family, rng)
            values = getattr(x, "values", x)
            out = op(x)
            flat_out = op(values)
            assert type(out) is type(x) and type(flat_out) is np.ndarray
            assert flat_out.shape == values.shape
            assert flat_out.tobytes() == getattr(out, "values", out).tobytes()

    @pytest.mark.parametrize("family", ["table", "gnn"])
    def test_wrong_flat_shape_is_value_error(self, family):
        op, x = operator_and_input(family, np.random.default_rng(3))
        values = getattr(x, "values", x)
        other = (GridFunction(grid_uniform(0, 1, values.size), values) if family == "gnn"
                 else tuple(values))
        for bad in (values[:-1], np.append(values, 0.0), values[:, None], values[0],
                    values.tolist(), other):
            with pytest.raises(ValueError, match="flat values"):
                op(bad)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("family, message", [
        ("affine", "operator produced non-finite output"),
        ("attention", "operator produced non-finite output"),
        ("table", "grid function values must be finite (no NaN/Inf)"),
        ("gnn", "block values must be finite (no NaN/Inf)"),
    ])
    def test_non_finite_flat_output_names_the_family(self, family, message):
        grid = grid_uniform(0, 1, 3)
        op, values = {
            "affine": lambda: (AffineOperator([[1e300]]), np.array([1e10])),
            "attention": lambda: (AttentionOperator([[1e300]], [[1.0]], [[1.0]]),
                                  np.array([[1e10]])),
            "table": lambda: (HammersteinOperator(grid, make_kernel("table",
                                                                   table=np.full((3, 3), 1e300))),
                              np.array([1e10, 1.0, 1.0])),
            "gnn": lambda: (GnnAggregateOperator(Graph(2, [(0, 1)]), [[1e300]]),
                            np.array([1e10, 2.0])),
        }[family]()
        with pytest.raises(NonFiniteError) as err:
            op(values)
        assert str(err.value) == message


def _outside_the_space(case):
    """An operator and a value outside its space, keyed by the Space.values branch it hits."""
    grid = grid_uniform(0, 1, 4)
    ops = {"affine": AffineOperator(0.5 * np.eye(3)),
           "attention": AttentionOperator(*(0.5 * np.eye(2),) * 3),
           "hammerstein": HammersteinOperator(grid, make_kernel("separable-linear")),
           "gnn": GnnAggregateOperator(Graph(2, [(0, 1)]), 0.5 * np.eye(2))}
    family, branch = case.split(":")
    x = {
        "wrong-grid": GridFunction(grid_uniform(0, 2, 4), np.ones(4)),
        "wrong-block-count": np.ones(2),
        "wrong-flat-shape": {"affine": np.ones(4), "attention": np.ones((3, 4)),
                             "hammerstein": np.ones(3), "gnn": np.ones((2, 2))}[family],
        "wrong-type": ([np.ones(4)] if family == "hammerstein"
                       else GridFunction(grid, np.ones(4))),
    }[branch]
    return ops[family], x


class TestSpace:
    @pytest.mark.parametrize("case, message", [
        ("affine:wrong-flat-shape", r"expected an array of 3 flat values, got \(4,\)"),
        ("affine:wrong-type", "expected an array of 3 flat values, got GridFunction"),
        ("attention:wrong-flat-shape", r"expected an array of m x 2 flat values, got \(3, 4\)"),
        ("attention:wrong-type", "expected an array of m x 2 flat values, got GridFunction"),
        ("hammerstein:wrong-grid", "input must be a GridFunction on the operator's grid"),
        ("hammerstein:wrong-flat-shape", r"expected an array of 4 flat values, got \(3,\)"),
        ("hammerstein:wrong-type", "expected an array of 4 flat values, got list"),
        ("gnn:wrong-block-count", r"expected an array of 4 flat values, got \(2,\)"),
        ("gnn:wrong-flat-shape", r"expected an array of 4 flat values, got \(2, 2\)"),
        ("gnn:wrong-type", "expected an array of 4 flat values, got GridFunction"),
    ])
    def test_value_outside_the_space_is_refused_before_any_apply(self, monkeypatch, case,
                                                                 message):
        op, x = _outside_the_space(case)
        with pytest.raises(ValueError, match=message):
            op(x)
        applied = []
        monkeypatch.setattr(picard, "apply", lambda op, y: applied.append(y) or op(y))
        for solve in (lambda: picard.picard_solve(op, PicardConfig(0.5, 1e-12, 50), x),
                      lambda: picard.damped_solve(op, 0.5, x, 1e-12, 50)):
            with pytest.raises(ValueError, match=message):
                solve()
        assert applied == []


class TestApply:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_output_is_divergence(self):
        op = AffineOperator(np.array([[1e308]]), np.zeros(1))
        with pytest.raises(DivergenceError):
            apply(op, np.array([1e10]))

    def test_user_subclass_with_only_space_and_map_works_everywhere(self):
        class HalfTanh(Operator):
            def __init__(self, grid):
                self.space = Space((grid.n,), grid=grid)

            def _map(self, values):
                out = 0.5 * np.tanh(values)
                require_finite(out, "grid function values")
                return out

        grid = grid_uniform(0, 1, 4)
        op = HalfTanh(grid)
        f = GridFunction(grid, [0.1, 0.2, 0.3, 0.4])
        sol, trace = picard_solve(op, PicardConfig(lam=1.0, epsilon=1e-13, max_iter=200), f)
        assert isinstance(sol, GridFunction) and sol.grid is grid and trace.converged
        assert residual(op, 1.0, f, sol) <= 1e-12
        # y = 0.5 tanh(y) has the one fixed point 0
        fixed, damped = damped_solve(op, 0.5, f, 1e-13, 200)
        assert isinstance(fixed, GridFunction) and damped.converged
        assert np.abs(fixed.values).max() <= 1e-12
        sample = lipschitz_sample(op, lambda rng: GridFunction(grid, rng.standard_normal(4)), 50)
        assert 0.0 < sample.value <= 0.5
        with pytest.raises(DivergenceError, match="grid function values must be finite"):
            apply(op, np.array([np.nan, 0.0, 0.0, 0.0]))


COMPLEX_CASES = {
    "hammerstein-apply": lambda: HammersteinOperator(
        grid_uniform(0, 1, 5), make_kernel("table", table=np.eye(5)))(np.ones(5, dtype=complex)),
    "affine-apply": lambda: AffineOperator(0.5 * np.eye(2))(np.ones(2, dtype=complex)),
    "picard-solve": lambda: picard_solve(AffineOperator(0.5 * np.eye(2)),
                                         PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50),
                                         (1 + 1j) * np.ones(2)),
}


@pytest.mark.parametrize("case", COMPLEX_CASES)
def test_complex_values_are_refused_not_cast(case):
    # a complex value lies in no space: neither mapped to a complex output nor
    # cut to its real part with only a ComplexWarning
    with pytest.raises(ValueError, match=r"^expected real values, got dtype complex128$"):
        COMPLEX_CASES[case]()


CFG = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50)
PUBLIC_ENTRIES = {
    "picard_solve": lambda fn: picard_solve(fn, CFG, np.ones(2)),
    "damped_solve": lambda fn: damped_solve(fn, 0.5, np.ones(2), 1e-12, 50),
    "pign_embed": lambda fn: pign_embed(fn, np.ones(4), 0.5, 10, 1e-12),
    "residual": lambda fn: residual(fn, 1.0, np.ones(2), np.ones(2)),
    "uniqueness_check": lambda fn: uniqueness_check(fn, CFG, np.ones(2),
                                                    (np.ones(2), np.zeros(2))),
    "fd_directional": lambda fn: fd_directional(fn, np.ones(2), np.ones(2)),
    "frechet_check": lambda fn: frechet_check(fn, np.ones((2, 2)), np.ones((2, 2))),
    "lipschitz_sample": lambda fn: lipschitz_sample(fn, lambda rng: rng.standard_normal(2), 5),
}


@pytest.mark.parametrize("entry", PUBLIC_ENTRIES)
def test_plain_function_is_refused_by_every_public_entry(entry):
    calls = []

    def half(x):
        calls.append(x)
        return 0.5 * x

    with pytest.raises(TypeError, match=r"^expected an Operator, got function: a custom map "
                                        r"must subclass picardop\.Operator"):
        PUBLIC_ENTRIES[entry](half)
    assert calls == []


class TestOperatorConfig:
    def test_affine_inline(self):
        op = operator_from_config({"type": "affine", "A": [[0.5, 0], [0, 0.5]],
                                   "b": [1, 2]})
        assert isinstance(op, AffineOperator)
        assert np.array_equal(apply(op, np.zeros(2)), [1.0, 2.0])

    def test_affine_matrix_by_path(self, tmp_path):
        (tmp_path / "A.txt").write_text("0.5 0\n0 0.5\n")
        op = operator_from_config({"type": "affine", "A": "A.txt"}, base_dir=tmp_path)
        assert np.array_equal(op.A, [[0.5, 0.0], [0.0, 0.5]])

    def test_attention_config(self):
        op = operator_from_config({"type": "attention", "Wq": [[1]], "Wk": [[1]],
                                   "Wv": [[1]]})
        assert isinstance(op, AttentionOperator)

    def test_hammerstein_config(self):
        op = operator_from_config({
            "type": "hammerstein",
            "grid": {"a": 0, "b": 1, "n": 11, "rule": "trapezoid"},
            "kernel": "separable-linear",
            "params": [0, 0, 0, 1],
        })
        assert isinstance(op, HammersteinOperator)

    def test_gnn_config_inline_edges(self):
        op = operator_from_config({
            "type": "gnn",
            "graph": {"n": 3, "edges": [[0, 1], [1, 2]], "include_self": False},
            "W": [[0.1, 0], [0, 0.1]],
        })
        assert isinstance(op, GnnAggregateOperator)
        assert op.graph.include_self is False

    def test_gnn_config_edgelist_file(self, tmp_path):
        (tmp_path / "g.edges").write_text("0 1\n")
        op = operator_from_config({
            "type": "gnn",
            "graph": {"edgelist": "g.edges"},
            "W": [[1.0]],
        }, base_dir=tmp_path)
        assert op.graph.n == 2

    @pytest.mark.parametrize("cfg, field", [
        ({"type": 3}, "operator.type"),
        ({"type": "affine", "A": [[float("nan")]]}, "operator.A"),
        ({"type": "affine", "A": [[0.5]], "b": "missing.txt"}, "operator.b"),
        ({"type": "hammerstein", "grid": {"a": 0, "b": 1, "n": 10, "rule": "simpson"}},
         "operator.grid"),
        ({"type": "hammerstein", "grid": {"a": 1, "b": 0, "n": 11}}, "operator.grid"),
        ({"type": "hammerstein", "grid": {"a": 0, "b": "x", "n": 11}}, "operator.grid.b"),
        ({"type": "hammerstein", "grid": {"a": 0, "b": 1, "n": 11}, "kernel": "cubic"},
         "operator.kernel"),
        ({"type": "hammerstein", "grid": {"a": 0, "b": 1, "n": 11},
          "params": [0, 0, float("inf"), 1]}, "operator.params"),
        ({"type": "gnn", "graph": {"n": 2, "edges": [[0, 1]], "include_self": "false"},
          "W": [[1.0]]}, "operator.graph.include_self"),
        ({"type": "gnn", "graph": {"n": 2, "edges": 5}, "W": [[1.0]]},
         "operator.graph.edges"),
        ({"type": "gnn", "graph": {"n": 2, "edges": [[0, None]]}, "W": [[1.0]]},
         "operator.graph.edges"),
        ({"type": "gnn", "graph": 3, "W": [[1.0]]}, "operator.graph"),
    ], ids=["type-not-a-name", "nan-matrix", "missing-vector-file", "even-simpson-n",
            "empty-interval", "non-numeric-end", "unknown-kernel", "infinite-param",
            "string-boolean", "edges-not-a-list", "null-node", "graph-not-object"])
    def test_bad_entry_names_field(self, cfg, field):
        with pytest.raises(ConfigError) as err:
            operator_from_config(cfg)
        assert err.value.field == field

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            operator_from_config({"type": "fourier"})

    def test_missing_field_named(self):
        with pytest.raises(ConfigError) as err:
            operator_from_config({"type": "affine"})
        assert "operator.A" in str(err.value)
