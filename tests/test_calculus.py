import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from picardop import (
    AffineOperator,
    AttentionOperator,
    DivergenceError,
    GnnAggregateOperator,
    Graph,
    GridFunction,
    HammersteinOperator,
    NonFiniteError,
    Operator,
    PicardConfig,
    Space,
    fd_directional,
    frechet_check,
    gnn_lipschitz_report,
    grid_uniform,
    lipschitz_sample,
    make_kernel,
    picard_solve,
    rescale_to_contraction,
    spectral_norm,
)


class UserMap(Operator):
    """A user's map ``fn`` on the flat values of ``space``; its output goes unchecked."""

    def __init__(self, space, fn):
        self.space, self._map = space, fn


def random_attention(rng, d):
    scale = 1.0 / np.sqrt(d)
    return AttentionOperator(scale * rng.standard_normal((d, d)),
                             scale * rng.standard_normal((d, d)),
                             scale * rng.standard_normal((d, d)))


class TestAttentionFrechet:
    def test_zero_direction(self):
        rng = np.random.default_rng(60)
        op = random_attention(rng, 3)
        Y = rng.standard_normal((4, 3))
        assert np.array_equal(op.derivative(Y, np.zeros((4, 3))), np.zeros((4, 3)))

    def test_scalar_cubic_derivative(self):
        op = AttentionOperator([[1.0]], [[1.0]], [[1.0]])
        out = op.derivative(np.array([[2.0]]), np.array([[1.0]]))
        assert np.allclose(out, [[12.0]])  # 3 y^2 h at y=2, h=1

    def test_linearity_in_direction(self):
        rng = np.random.default_rng(61)
        op = random_attention(rng, 3)
        Y = rng.standard_normal((5, 3))
        H1, H2 = rng.standard_normal((2, 5, 3))
        a, b = 1.7, -0.3
        lhs = op.derivative(Y, a * H1 + b * H2)
        rhs = a * op.derivative(Y, H1) + b * op.derivative(Y, H2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_shape_mismatch(self):
        op = AttentionOperator(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            op.derivative(np.ones((3, 2)), np.ones((4, 2)))
        # a (1, 2) direction would broadcast against the (3, 2) point if unchecked
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 2\) vs \(1, 2\)$"):
            fd_directional(op, np.ones((3, 2)), np.ones((1, 2)))


class TestFdDirectional:
    def test_affine_derivative_is_matrix(self):
        rng = np.random.default_rng(62)
        op = AffineOperator(rng.standard_normal((5, 5)), rng.standard_normal(5))
        y, h = rng.standard_normal(5), rng.standard_normal(5)
        for t in (1e-3, 1e-5, 1e-7):
            fd = fd_directional(op, y, h, t)
            assert np.abs(fd - op.A @ h).max() <= 1e-6

    def test_zero_operator(self):
        op = AffineOperator(np.zeros((3, 3)))
        fd = fd_directional(op, np.ones(3), np.ones(3), 1e-5)
        assert np.abs(fd).max() <= 1e-10

    def test_matches_attention_derivative(self):
        rng = np.random.default_rng(63)
        op = random_attention(rng, 4)
        Y = rng.standard_normal((4, 4))
        Y /= np.linalg.norm(Y)
        H = rng.standard_normal((4, 4))
        H /= np.linalg.norm(H)
        res = frechet_check(op, Y, H, t=1e-5)
        assert res.rel_error <= 1e-6

    def test_consistency_sweep_and_order(self):
        rng = np.random.default_rng(64)
        errs_t, errs_half = [], []
        for _ in range(100):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            op = random_attention(rng, d)
            Y = rng.standard_normal((m, d))
            Y *= rng.uniform(0.5, 1.0) / np.linalg.norm(Y)
            H = rng.standard_normal((m, d))
            H *= rng.uniform(0.5, 1.0) / np.linalg.norm(H)
            assert frechet_check(op, Y, H, t=1e-5).rel_error <= 1e-6
            r1 = frechet_check(op, Y, H, t=1e-3)
            r2 = frechet_check(op, Y, H, t=5e-4)
            errs_t.append(np.linalg.norm(r1.analytic - r1.finite_difference))
            errs_half.append(np.linalg.norm(r2.analytic - r2.finite_difference))
        # central differences are second order: halving t divides the error by ~4
        assert max(errs_t) / max(errs_half) >= 3.0
        assert float(np.median(np.array(errs_t) / np.array(errs_half))) >= 3.0


def random_points(rng, S, m, d):
    """S points and directions of Frobenius norm in [0.5, 1], stacked (S, m, d)."""
    Y, H = rng.standard_normal((2, S, m, d))
    Y *= rng.uniform(0.5, 1.0, (S, 1, 1)) / np.linalg.norm(Y, axis=(1, 2), keepdims=True)
    H *= rng.uniform(0.5, 1.0, (S, 1, 1)) / np.linalg.norm(H, axis=(1, 2), keepdims=True)
    return Y, H


class TestBatchedFrechetCheck:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), S=st.integers(1, 6), m=st.integers(1, 5),
           d=st.integers(1, 5), t=st.sampled_from([1e-5, 1e-3, 5e-4, 0.1]))
    def test_stack_gives_the_bytes_of_each_pair(self, seed, S, m, d, t):
        rng = np.random.default_rng(seed)
        op = random_attention(rng, d)
        Y, H = random_points(rng, S, m, d)
        stacked = frechet_check(op, Y, H, t=t)
        assert stacked.rel_error.shape == (S,) and stacked.step == t
        assert np.array_equal(op.derivative(Y, H), stacked.analytic)
        gap = stacked.analytic - stacked.finite_difference
        assert np.array_equal(stacked.abs_error, [np.linalg.norm(e) for e in gap])
        for s in range(S):
            pair = frechet_check(op, Y[s], H[s], t=t)
            assert isinstance(pair.rel_error, float) and isinstance(pair.abs_error, float)
            assert pair.analytic.tobytes() == stacked.analytic[s].tobytes()
            assert pair.finite_difference.tobytes() == stacked.finite_difference[s].tobytes()
            assert np.float64(pair.rel_error).tobytes() == stacked.rel_error[s].tobytes()
            assert np.float64(pair.abs_error).tobytes() == stacked.abs_error[s].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_stack_is_divergence(self):
        op = AttentionOperator(*(1e110 * np.eye(2),) * 3)
        Y, H = random_points(np.random.default_rng(70), 4, 3, 2)
        Y[2] *= 1e10  # only this point's map overflows
        with pytest.raises(DivergenceError) as pair:
            frechet_check(op, Y[2], H[2])
        with pytest.raises(DivergenceError) as stack:
            frechet_check(op, Y, H)
        assert str(stack.value) == str(pair.value) == (
            "operator produced non-finite output")

    @pytest.mark.parametrize("Y_shape, H_shape, message", [
        ((3, 3), (3, 3), r"expected an m x 2 matrix or an S x m x 2 stack, got shape \(3, 3\)"),
        ((4, 3, 3), (4, 3, 3), r"got shape \(4, 3, 3\)"),
        ((3,), (3,), r"got shape \(3,\)"),
        ((1, 4, 3, 2), (1, 4, 3, 2), r"got shape \(1, 4, 3, 2\)"),
        ((4, 3, 2), (5, 3, 2), r"Y and H must share a shape, got \(4, 3, 2\) vs \(5, 3, 2\)"),
        ((4, 3, 2), (4, 2, 2), r"share a shape"),
        ((4, 3, 2), (3, 2), r"share a shape"),
    ], ids=["pair-dim", "stack-dim", "vector", "4-d", "stack-count", "row-count", "stack-vs-pair"])
    def test_wrong_shapes_are_value_errors(self, Y_shape, H_shape, message):
        op = AttentionOperator(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=message):
            frechet_check(op, np.ones(Y_shape), np.ones(H_shape))
        with pytest.raises(ValueError, match=message):
            op.derivative(np.ones(Y_shape), np.ones(H_shape))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            A = rng.standard_normal((8, 8))
            want = np.linalg.svd(A, compute_uv=False)[0]
            assert spectral_norm(A) == pytest.approx(want, rel=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(66)
        A = rng.standard_normal((4, 9))
        want = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(want, rel=1e-8)

    def test_gram_matrix_identity(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            A = rng.standard_normal((6, 6))
            s = spectral_norm(A)
            assert s ** 2 == pytest.approx(spectral_norm(A.T @ A), rel=1e-8)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.floats(-1e3, 1e3)))
    def test_equals_largest_singular_value(self, A):
        assert spectral_norm(A) == np.linalg.svd(A, compute_uv=False)[0]


class TestLipschitzSample:
    def test_scaled_identity_exact(self):
        op = AffineOperator(-2.5 * np.eye(4))
        est = lipschitz_sample(op, lambda rng: rng.standard_normal(4), 100, seed=1)
        assert est.value == pytest.approx(2.5, abs=1e-12)

    def test_affine_bounded_by_spectral_norm(self):
        rng = np.random.default_rng(69)
        A = rng.standard_normal((6, 6))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        op = AffineOperator(A)
        v_top = np.linalg.svd(A)[2][0]
        est = lipschitz_sample(op, lambda r: r.standard_normal(6), 1000, seed=2,
                               extra_pairs=[(np.zeros(6), v_top)])
        assert est.value <= sigma + 1e-9
        assert est.value >= 0.99 * sigma

    def test_relu_is_one_lipschitz(self):
        est = lipschitz_sample(UserMap(Space((5,)), lambda x: np.maximum(x, 0.0)),
                               lambda rng: rng.standard_normal(5), 500, seed=3)
        assert est.value <= 1.0 + 1e-12

    def test_degenerate_pairs_rejected(self):
        op = AffineOperator(np.eye(2))
        with pytest.raises(ValueError):
            lipschitz_sample(op, lambda rng: np.zeros(2), 10, seed=4)

    def test_zero_operator(self):
        op = AffineOperator(np.zeros((3, 3)))
        est = lipschitz_sample(op, lambda rng: rng.standard_normal(3), 5)
        assert est.value == 0.0

    def test_scalar_cubic_secant_approaches_three(self):
        # T(y) = y^3 on |y| <= 1: the secant slope x^2 + xy + y^2 has sup 3, near (1, 1)
        op = AttentionOperator([[1.0]], [[1.0]], [[1.0]])
        est = lipschitz_sample(op, lambda rng: rng.uniform(-1.0, 1.0, (1, 1)), 2000, seed=6,
                               extra_pairs=[(np.full((1, 1), 0.999), np.ones((1, 1)))])
        assert 2.9 <= est.value <= 3.0

    def test_linear_hammerstein_reaches_the_operator_norm(self):
        # a linear integral operator: the secant along the top right singular vector
        # of K diag(w) reads its spectral norm
        g = grid_uniform(0, 1, 21)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        B = op._K * g.weights[None, :]
        v1 = np.linalg.svd(B)[2][0]
        est = lipschitz_sample(op, lambda rng: GridFunction(g, rng.standard_normal(21)), 20,
                               seed=7, extra_pairs=[(np.zeros(21), v1)])
        assert est.value == pytest.approx(spectral_norm(B), rel=1e-12)

    @pytest.mark.parametrize("case, message", [
        ("other-grid-same-n", "input must be a GridFunction on the operator's grid"),
        ("affine-wrong-length", r"expected an array of 3 flat values, got \(5,\)"),
    ])
    def test_point_outside_the_domain_is_refused(self, case, message):
        # distances are measured in the operator's space, which checks each point
        op, point = {
            "other-grid-same-n": lambda: (
                HammersteinOperator(grid_uniform(0, 1, 11), make_kernel("bounded-nonlinear")),
                GridFunction(grid_uniform(0, 2, 11), np.zeros(11))),
            "affine-wrong-length": lambda: (AffineOperator(0.5 * np.eye(3)), np.zeros(5)),
        }[case]()
        with pytest.raises(ValueError, match=message):
            lipschitz_sample(op, lambda rng: point, 2)

    def test_non_finite_user_map_output(self):
        # a _map that does not check its own output: the secant's difference refuses it
        op = UserMap(Space((2,)), lambda x: x + np.array([0.0, np.nan]))
        with pytest.raises(NonFiniteError, match="linear combination must be finite"):
            lipschitz_sample(op, lambda rng: rng.standard_normal(2), 1)


class TestGnnReport:
    def test_single_node_with_self(self):
        op = GnnAggregateOperator(Graph(1, [], include_self=True), 0.5 * np.eye(2))
        report = gnn_lipschitz_report(op)
        assert list(report.coeffs) == [1]
        assert report.alpha_max == 1
        assert report.product == pytest.approx(report.L)

    def test_three_node_path(self):
        g = Graph(3, [(0, 1), (1, 2)], include_self=False)
        report = gnn_lipschitz_report(GnnAggregateOperator(g, np.eye(2)))
        assert list(report.coeffs) == [1, 2, 1]
        assert report.alpha_max == 2

    def test_star_graph(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], include_self=False)
        report = gnn_lipschitz_report(GnnAggregateOperator(g, np.eye(3)))
        assert list(report.coeffs) == [4, 1, 1, 1, 1]
        assert report.alpha_max == 4

    def test_certified_flag(self):
        g = Graph(3, [(0, 1), (1, 2)], include_self=True)
        small = GnnAggregateOperator(g, 0.1 * np.eye(2))
        big = GnnAggregateOperator(g, 2.0 * np.eye(2))
        assert gnn_lipschitz_report(small).certified
        assert not gnn_lipschitz_report(big).certified


class TestRescale:
    def test_two_identity_example(self):
        W2 = rescale_to_contraction(2.0 * np.eye(3), alpha_max=2, target=0.9)
        assert np.allclose(W2, 0.45 * np.eye(3))
        assert spectral_norm(W2) * 2 == pytest.approx(0.9, abs=1e-12)

    def test_scales_up_too(self):
        W2 = rescale_to_contraction(0.001 * np.eye(2), alpha_max=1, target=0.5)
        assert spectral_norm(W2) == pytest.approx(0.5, abs=1e-12)

    def test_random_composition_hits_target(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph(n, edges, include_self=True)
            W = rng.standard_normal((3, 3))
            report0 = gnn_lipschitz_report(GnnAggregateOperator(g, W))
            W2 = rescale_to_contraction(W, report0.alpha_max, 0.99)
            report = gnn_lipschitz_report(GnnAggregateOperator(g, W2))
            assert report.product == pytest.approx(0.99, abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            rescale_to_contraction(np.zeros((2, 2)), 1, 0.9)

    def test_target_range(self):
        with pytest.raises(ValueError):
            rescale_to_contraction(np.eye(2), 1, 1.0)


class TestGnnLemmaInequality:
    def test_sum_bound_on_random_pairs(self):
        rng = np.random.default_rng(73)
        n, d = 8, 3
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges, include_self=True)
        op = GnnAggregateOperator(g, rng.standard_normal((d, d)))
        report = gnn_lipschitz_report(op)
        for _ in range(500):
            F = rng.standard_normal((n, d))
            G = rng.standard_normal((n, d))
            lhs = op.space.norm("direct-sum")(op(F.ravel()) - op(G.ravel()))
            block_gaps = np.array([np.linalg.norm(a - b) for a, b in zip(F, G)])
            mid = report.L * float(report.coeffs @ block_gaps)
            outer = report.L * report.alpha_max * float(block_gaps.sum())
            assert lhs <= mid * (1 + 1e-12)
            assert mid <= outer * (1 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           p_edge=st.floats(0.0, 1.0), include_self=st.booleans(),
           log_w=st.floats(-3, 3), log_gap=st.floats(-12, 1), spike=st.booleans())
    def test_sum_bound_on_random_graphs(self, n, d, seed, p_edge, include_self, log_w,
                                        log_gap, spike):
        # ||T F - T G|| <= L sum_i c_i ||F_i - G_i||. A spike case moves only node i,
        # whose large positive row is the max in all c_i neighbourhoods it is in,
        # under W = w I: there the bound is an equality, so each c_i is the count
        # it must be. Each W F_i carries rounding of at most d ulps of |W| |F_i|.
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge]
        W = 10.0 ** log_w * (np.eye(d) if spike else rng.standard_normal((d, d)))
        op = GnnAggregateOperator(Graph(n, np.array(pairs, dtype=int), include_self), W)
        report = gnn_lipschitz_report(op)
        F = rng.uniform(-1.0, 1.0, (n, d))
        G = F + 10.0 ** log_gap * rng.uniform(-1.0, 1.0, (n, d))
        if spike:
            i = int(rng.integers(n))
            F[i] = 100.0
            G = F.copy()
            G[i] += 10.0 ** log_gap * rng.uniform(-1.0, 1.0, d)
        lhs = op.space.norm("direct-sum")(op(F.ravel()) - op(G.ravel()))
        rhs = report.L * float(report.coeffs @ np.linalg.norm(F - G, axis=1))
        sizes = np.linalg.norm(F, axis=1) + np.linalg.norm(G, axis=1)
        rounding = 4 * d * np.finfo(float).eps * np.linalg.norm(W) * (report.coeffs @ sizes)
        assert lhs <= rhs * (1 + 1e-12) + rounding
        if spike:
            assert lhs >= rhs * (1 - 1e-12) - rounding

    def test_certified_operator_has_unique_fixed_point(self):
        rng = np.random.default_rng(74)
        n, d = 6, 2
        g = Graph(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
                  include_self=True)
        W0 = rng.standard_normal((d, d))
        report0 = gnn_lipschitz_report(GnnAggregateOperator(g, W0))
        op = GnnAggregateOperator(g, rescale_to_contraction(W0, report0.alpha_max, 0.9))
        f = rng.standard_normal(n * d)
        eps = 1e-10
        cfg = PicardConfig(lam=1.0, epsilon=eps, max_iter=5000, norm_kind="direct-sum")
        reference, _ = picard_solve(
            op, PicardConfig(1.0, 1e-13, 50000, norm_kind="direct-sum"), f)
        for _ in range(10):
            start = 5 * rng.standard_normal(n * d)
            sol, trace = picard_solve(op, cfg, f, x0=start)
            assert trace.converged
            gap = op.space.norm("direct-sum")(sol - reference)
            assert gap <= 10 * eps
