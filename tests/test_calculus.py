import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from picardop import (
    AffineOperator,
    AttentionOperator,
    DirectSumVector,
    GnnAggregateOperator,
    Graph,
    GridFunction,
    HammersteinOperator,
    PicardConfig,
    attention_frechet,
    derivative_bound_lipschitz,
    direct_sum_norm,
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
        assert np.array_equal(attention_frechet(op, Y, np.zeros((4, 3))), np.zeros((4, 3)))

    def test_scalar_cubic_derivative(self):
        op = AttentionOperator([[1.0]], [[1.0]], [[1.0]])
        out = attention_frechet(op, np.array([[2.0]]), np.array([[1.0]]))
        assert np.allclose(out, [[12.0]])  # 3 y^2 h at y=2, h=1

    def test_linearity_in_direction(self):
        rng = np.random.default_rng(61)
        op = random_attention(rng, 3)
        Y = rng.standard_normal((5, 3))
        H1, H2 = rng.standard_normal((2, 5, 3))
        a, b = 1.7, -0.3
        lhs = attention_frechet(op, Y, a * H1 + b * H2)
        rhs = a * attention_frechet(op, Y, H1) + b * attention_frechet(op, Y, H2)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    def test_shape_mismatch(self):
        op = AttentionOperator(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            attention_frechet(op, np.ones((3, 2)), np.ones((4, 2)))


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

    def test_matches_attention_frechet(self):
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
        assert not est.is_upper_bound
        assert est.method == "pair-sampling"

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
        est = lipschitz_sample(lambda x: np.maximum(x, 0.0),
                               lambda rng: rng.standard_normal(5), 500, seed=3)
        assert est.value <= 1.0 + 1e-12

    def test_degenerate_pairs_rejected(self):
        op = AffineOperator(np.eye(2))
        with pytest.raises(ValueError):
            lipschitz_sample(op, lambda rng: np.zeros(2), 10, seed=4)

    def test_json_record(self):
        op = AffineOperator(np.eye(2))
        est = lipschitz_sample(op, lambda rng: rng.standard_normal(2), 10, seed=5)
        record = est.to_json_dict()
        assert set(record) == {"method", "value", "samples", "seed", "is_upper_bound"}


class TestDerivativeBound:
    def test_affine_is_exact(self):
        rng = np.random.default_rng(70)
        A = rng.standard_normal((5, 5))
        op = AffineOperator(A, rng.standard_normal(5))
        est = derivative_bound_lipschitz(op, np.zeros(5), radius=2.0, n_samples=3)
        assert est.value == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-8)
        assert est.is_upper_bound

    def test_scalar_cubic_sup_of_derivative(self):
        # T(y) = y^3 on |y| <= 1 has derivative 3 y^2 with sup 3
        op = AttentionOperator([[1.0]], [[1.0]], [[1.0]])
        est = derivative_bound_lipschitz(op, np.zeros((1, 1)), radius=1.0,
                                         n_samples=2000, seed=6)
        assert 2.9 <= est.value <= 3.0 + 1e-9

    def test_zero_operator(self):
        op = AffineOperator(np.zeros((3, 3)))
        est = derivative_bound_lipschitz(op, np.zeros(3), radius=1.0, n_samples=5)
        assert est.value == 0.0

    def test_fd_jacobian_dimension_cap(self):
        g = grid_uniform(0, 1, 65)
        op = HammersteinOperator(g, make_kernel("bounded-nonlinear"))
        center = GridFunction(g, np.zeros(65))
        with pytest.raises(ValueError):
            derivative_bound_lipschitz(op, center, radius=1.0, n_samples=2)

    def test_fd_jacobian_path_matches_linear_theory(self):
        # linear integral operator: derivative norm equals the operator norm
        g = grid_uniform(0, 1, 21)
        op = HammersteinOperator(g, make_kernel("separable-linear", [0, 0, 0, 1]))
        B = op._K * g.weights[None, :]
        est = derivative_bound_lipschitz(op, GridFunction(g, np.zeros(21)),
                                         radius=1.0, n_samples=3, seed=7)
        assert est.value == pytest.approx(spectral_norm(B), rel=1e-6)

    @pytest.mark.parametrize("case, message", [
        ("other-grid-same-n", "input must be a GridFunction on the operator's grid"),
        ("mixed-block-dims", r"expected blocks of dim 2, got \(1, 3\)"),
    ])
    def test_center_outside_the_domain_is_refused(self, case, message):
        # the first Jacobian column passes the center's own type, which the operator checks
        op, center = {
            "other-grid-same-n": lambda: (
                HammersteinOperator(grid_uniform(0, 1, 11), make_kernel("bounded-nonlinear")),
                GridFunction(grid_uniform(0, 2, 11), np.zeros(11))),
            "mixed-block-dims": lambda: (
                GnnAggregateOperator(Graph(2, [(0, 1)]), 0.5 * np.eye(2)),
                DirectSumVector([[1.0], [1.0, 2.0, 3.0]])),
        }[case]()
        with pytest.raises(ValueError, match=message):
            derivative_bound_lipschitz(op, center, radius=1.0, n_samples=2)

    def test_non_finite_plain_callable_output(self):
        # apply does not check a plain callable's output; spectral_norm refuses the Jacobian
        with pytest.raises(ValueError, match="^A must have finite entries$"):
            derivative_bound_lipschitz(lambda x: x + np.array([0.0, np.nan]), np.zeros(2),
                                       radius=1.0, n_samples=1)

    def test_mean_value_bound_on_attention(self):
        rng = np.random.default_rng(71)
        op = random_attention(rng, 2)
        center = np.zeros((2, 2))
        est = derivative_bound_lipschitz(op, center, radius=1.0, n_samples=400, seed=8)
        for _ in range(200):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            u *= rng.uniform(0, 1.0) / np.linalg.norm(u)
            v *= rng.uniform(0, 1.0) / np.linalg.norm(v)
            U, V = u.reshape(2, 2), v.reshape(2, 2)
            gap = np.linalg.norm(U - V)
            if gap < 1e-12:
                continue
            assert np.linalg.norm(op(U) - op(V)) <= est.value * gap * (1 + 1e-6)


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
            F = DirectSumVector.from_matrix(rng.standard_normal((n, d)))
            G = DirectSumVector.from_matrix(rng.standard_normal((n, d)))
            lhs = direct_sum_norm(
                DirectSumVector([a - b for a, b in zip(op(F).blocks, op(G).blocks)]))
            block_gaps = np.array([np.linalg.norm(a - b)
                                   for a, b in zip(F.blocks, G.blocks)])
            mid = report.L * float(report.coeffs @ block_gaps)
            outer = report.L * report.alpha_max * float(block_gaps.sum())
            assert lhs <= mid * (1 + 1e-12)
            assert mid <= outer * (1 + 1e-12)

    def test_certified_operator_has_unique_fixed_point(self):
        rng = np.random.default_rng(74)
        n, d = 6, 2
        g = Graph(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
                  include_self=True)
        W0 = rng.standard_normal((d, d))
        report0 = gnn_lipschitz_report(GnnAggregateOperator(g, W0))
        op = GnnAggregateOperator(g, rescale_to_contraction(W0, report0.alpha_max, 0.9))
        f = DirectSumVector.from_matrix(rng.standard_normal((n, d)))
        eps = 1e-10
        cfg = PicardConfig(lam=1.0, epsilon=eps, max_iter=5000, norm_kind="direct-sum")
        reference, _ = picard_solve(
            op, PicardConfig(1.0, 1e-13, 50000, norm_kind="direct-sum"), f)
        for _ in range(10):
            start = DirectSumVector.from_matrix(5 * rng.standard_normal((n, d)))
            sol, trace = picard_solve(op, cfg, f, x0=start)
            assert trace.converged
            gap = direct_sum_norm(DirectSumVector(
                [a - b for a, b in zip(sol.blocks, reference.blocks)]))
            assert gap <= 10 * eps
