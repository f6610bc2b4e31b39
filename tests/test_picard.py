import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    banach_bounds,
    grid_uniform,
    lincomb,
    lipschitz_sample,
    make_kernel,
    norm,
    picard_solve,
    rescale_to_contraction,
    predicted_iterations,
    residual,
    spectral_norm,
    trace_csv_text,
    uniqueness_check,
)
from picardop import picard
from picardop.cli import RATES_ROUNDING
from picardop.errors import ConfigError, DivergenceError, NonFiniteError
from picardop.operators import neighborhood_membership_counts, norm_in
from picardop.picard import TRACE_CSV_HEADER
from picardop.spaces import NORM_KINDS


class UserMap(Operator):
    """A user's map ``fn`` on the flat values of ``space``; its output goes unchecked."""

    def __init__(self, space, fn):
        self.space, self._map = space, fn


def contraction(rng, d, sigma):
    """Random affine operator with spectral norm exactly sigma."""
    A = rng.standard_normal((d, d))
    A *= sigma / np.linalg.svd(A, compute_uv=False)[0]
    return AffineOperator(A, rng.standard_normal(d))


class TestPicardSolve:
    def test_zero_operator_converges_immediately(self):
        op = AffineOperator(np.zeros((3, 3)))
        f = np.array([1.0, 2.0, 3.0])
        cfg = PicardConfig(lam=0.5, epsilon=1e-10, max_iter=50)
        sol, trace = picard_solve(op, cfg, f)
        assert trace.converged
        assert trace.iterations_used == 1
        assert np.array_equal(sol, f)
        assert trace.steps[0].residual == 0.0

    def test_scalar_identity_geometric(self):
        # y_{k+1} = 1 + 0.5 y_k from y_0 = 1 converges to 2 like 0.5^k
        op = AffineOperator(np.eye(1))
        cfg = PicardConfig(lam=0.5, epsilon=1e-300, max_iter=40)
        sol, trace = picard_solve(op, cfg, np.array([1.0]))
        assert abs(sol[0] - 2.0) < 1e-12
        assert not trace.converged  # epsilon unreachable, ran all 40

    def test_affine_matches_dense_solve(self):
        rng = np.random.default_rng(42)
        op = contraction(rng, 8, 0.8)
        f = rng.standard_normal(8)
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=10000)
        sol, trace = picard_solve(op, cfg, f)
        expected = np.linalg.solve(np.eye(8) - op.A, op.b + f)
        assert trace.converged
        assert np.linalg.norm(sol - expected) <= 1e-10

    def test_smoothing_reaches_same_fixed_point(self):
        rng = np.random.default_rng(43)
        op = contraction(rng, 5, 0.6)
        f = rng.standard_normal(5)
        plain = picard_solve(op, PicardConfig(1.0, 1e-13, 10000), f)[0]
        smoothed = picard_solve(op, PicardConfig(1.0, 1e-13, 10000, smoothing=0.5), f)[0]
        assert np.linalg.norm(plain - smoothed) <= 1e-11

    def test_geometric_step_decay(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            sigma = rng.uniform(0.3, 0.9)
            lam = rng.uniform(0.4, 1.0)
            op = contraction(rng, int(rng.integers(2, 10)), sigma)
            f = rng.standard_normal(op.dim)
            _, trace = picard_solve(op, PicardConfig(lam, 1e-9, 5000), f)
            steps = trace.step_norms
            for n in range(len(steps) - 1):
                assert steps[n + 1] <= lam * sigma * steps[n] * (1 + 1e-9)

    def test_divergence_guard_raises(self):
        op = AffineOperator(np.eye(2) * 1.5)
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=1000)
        with pytest.raises(DivergenceError) as err:
            picard_solve(op, cfg, np.ones(2))
        assert err.value.trace is not None
        assert err.value.trace.iterations_used > 0

    def test_step_ratio_exit_names_the_iteration_and_keeps_the_trace(self):
        # steps grow by 1.5 a step, so the 70th (index 69) is the first above
        # 1e12 x the first, long before max_iter
        op = AffineOperator(np.eye(2) * 1.5)
        with pytest.raises(DivergenceError) as err:
            picard_solve(op, PicardConfig(1.0, 1e-12, 100), np.ones(2))
        assert str(err.value) == (
            "step norm exceeded 1e+12 x its initial value at iteration 69")
        assert err.value.trace.iterations_used == 70
        assert [s.index for s in err.value.trace.steps] == list(range(70))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_iterate_raises(self):
        op = AffineOperator(np.array([[1e200]]))
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50)
        with pytest.raises(DivergenceError):
            picard_solve(op, cfg, np.array([1e200]))

    def test_config_validation(self):
        for lam in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                PicardConfig(lam=lam, epsilon=1e-6, max_iter=10)
        with pytest.raises(ConfigError):
            PicardConfig.from_json(json.loads('{"lambda": NaN, "epsilon": 1e-6, "max_iter": 10}'))
        with pytest.raises(ValueError):
            PicardConfig(lam=1.0, epsilon=0.0, max_iter=10)
        with pytest.raises(ValueError):
            PicardConfig(lam=1.0, epsilon=1e-6, max_iter=0)
        with pytest.raises(ValueError):
            PicardConfig(lam=1.0, epsilon=1e-6, max_iter=10, smoothing=1.5)
        with pytest.raises(ValueError):
            PicardConfig(lam=1.0, epsilon=1e-6, max_iter=10, norm_kind="L1")

    @pytest.mark.parametrize("max_iter", [2.5, True, "5"])
    def test_non_integer_max_iter_is_refused_before_any_apply(self, monkeypatch, max_iter):
        applied = []
        monkeypatch.setattr(picard, "apply", lambda op, y: applied.append(y) or op(y))
        with pytest.raises(ValueError, match=r"^max_iter must be an integer, got "):
            picard_solve(AffineOperator(0.5 * np.eye(2)),
                         PicardConfig(1.0, 1e-6, max_iter), np.ones(2))
        assert applied == []

    def test_integral_float_max_iter_runs_that_many_iterations(self):
        cfg = PicardConfig(1.0, 1e-300, 3.0)
        assert type(cfg.max_iter) is int
        _, trace = picard_solve(AffineOperator(0.5 * np.eye(2)), cfg, np.ones(2))
        assert trace.iterations_used == 3 and not trace.converged

    @pytest.mark.parametrize("run_max_iter, n", [(100, 11), (4, 4)],
                             ids=["run-converges", "run-capped"])
    def test_record_run_keeps_only_its_iterates(self, run_max_iter, n):
        # T(x) = 0.5 x + 1 from 0: step k is 0.5**k, first <= 1e-3 at k = 10
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=100)
        full_x, full = picard_solve(op, cfg, np.zeros(1), record_iterates=True)
        x, trace = picard_solve(op, cfg, np.zeros(1), record_iterates=True,
                                record_run=PicardConfig(1.0, 1e-3, run_max_iter))
        assert len(trace.iterates) == n + 1
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, full.iterates))
        assert np.array_equal(x, full_x) and trace.steps == full.steps


def oracle_norm(x, kind, blocks=None):
    """The norm as a Python sum of np.linalg.norm calls on ``blocks`` (n, d): n blocks of dim d."""
    values = x if isinstance(x, np.ndarray) else x.values
    if kind == "direct-sum" and blocks is not None:
        n, d = blocks
        return float(sum(np.linalg.norm(values[v * d:(v + 1) * d]) for v in range(n)))
    return float(np.max(np.abs(values)) if kind == "sup" else np.linalg.norm(values.ravel()))


def oracle_lincomb(a, x, b, y):
    if isinstance(x, np.ndarray):
        return a * x + b * y
    return x.space.wrap(a * x.values + b * y.values)


def oracle_solve(op, cfg, f):
    """The Picard loop on vector objects: an apply, four combinations and two norms a step."""
    blocks = op.space.shape if op.space.blocks else None
    alpha, y, steps = cfg.smoothing, f, []
    for _ in range(cfg.max_iter):
        target = oracle_lincomb(cfg.lam, op(y), 1.0, f)
        resid = oracle_norm(oracle_lincomb(1.0, target, -1.0, y), cfg.norm_kind, blocks)
        y_next = target if alpha == 0.0 else oracle_lincomb(alpha, y, 1.0 - alpha, target)
        step = oracle_norm(oracle_lincomb(1.0, y_next, -1.0, y), cfg.norm_kind, blocks)
        steps.append((step, resid))
        y = y_next
        if step <= cfg.epsilon:
            break
    return y, steps


def random_problem(family, rng):
    """A contractive operator of ``family`` and a free term in its space."""
    if family == "affine":
        d = int(rng.integers(1, 20))
        return contraction(rng, d, rng.uniform(0.3, 0.95)), rng.standard_normal(d)
    if family == "attention":
        # small weights and free term keep the cubic map contractive near f
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        W = rng.uniform(-0.5, 0.5, (3, d, d)) / d
        return AttentionOperator(*W), rng.uniform(-0.5, 0.5, (m, d))
    if family == "gnn":
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 7))
        edges = rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))
        graph = Graph(n, edges[edges[:, 0] != edges[:, 1]], include_self=True)
        alpha_max = int(np.diff(graph.indptr).max())
        W = rescale_to_contraction(rng.standard_normal((d, d)), alpha_max,
                                   rng.uniform(0.3, 0.95))
        scale = 10.0 ** rng.uniform(-4, 4)
        op = GnnAggregateOperator(graph, W)
        return op, op.space.wrap(scale * rng.standard_normal((n, d)))
    n = int(rng.integers(3, 80))
    grid = grid_uniform(0.0, 1.0, n)
    if family == "table":
        kernel = make_kernel("table", table=rng.uniform(-0.9, 0.9, (n, n)))
    else:
        kernel = make_kernel(family, params=rng.uniform(-0.45, 0.45, 4))
    return HammersteinOperator(grid, kernel), GridFunction(grid, rng.standard_normal(n))


FAMILIES = ("affine", "separable-linear", "bounded-nonlinear", "table", "gnn", "attention")


class TestFlatArrayLoop:
    """The flat-array loop against the loop on vector objects, compared with ==."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("norm_kind", NORM_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_object_loop(self, family, norm_kind, alpha):
        rng = np.random.default_rng([FAMILIES.index(family), NORM_KINDS.index(norm_kind),
                                     int(10 * alpha)])
        for _ in range(8):
            op, f = random_problem(family, rng)
            cfg = PicardConfig(lam=rng.uniform(0.5, 1.0), epsilon=1e-11, max_iter=300,
                               smoothing=alpha, norm_kind=norm_kind)
            sol, trace = picard_solve(op, cfg, f)
            ref_sol, ref_steps = oracle_solve(op, cfg, f)
            assert [(s.step_norm, s.residual) for s in trace.steps] == ref_steps
            values = sol if isinstance(sol, np.ndarray) else sol.values
            ref_values = ref_sol if isinstance(ref_sol, np.ndarray) else ref_sol.values
            assert values.tobytes() == ref_values.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_combination_names_the_iteration(self):
        # each apply stays finite; lambda*T(y) + f first overflows at iteration 3
        op = AffineOperator(np.eye(1))
        cfg = PicardConfig(lam=2.0, epsilon=1e-12, max_iter=50)
        with pytest.raises(DivergenceError) as err:
            picard_solve(op, cfg, np.array([1e307]))
        assert str(err.value) == "iterate became non-finite at iteration 3"
        assert err.value.trace.iterations_used == 3

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("family, message", [
        ("affine", "operator produced non-finite output (iteration 0)"),
        ("attention", "operator produced non-finite output (iteration 0)"),
        ("gnn", "block values must be finite (no NaN/Inf) (iteration 0)"),
        ("table", "grid function values must be finite (no NaN/Inf) (iteration 0)"),
    ])
    def test_non_finite_apply_keeps_the_operator_message(self, family, message):
        # every operator maps its 1e10-sized free term past the float range
        grid = grid_uniform(0, 1, 3)
        op, f = {
            "affine": lambda: (AffineOperator([[1e300]]), np.array([1e10])),
            "attention": lambda: (AttentionOperator([[1e300]], [[1.0]], [[1.0]]),
                                  np.array([[1e10]])),
            "gnn": lambda: (GnnAggregateOperator(Graph(2, [(0, 1)]), [[1e300]]),
                            np.array([1e10, 2.0])),
            "table": lambda: (HammersteinOperator(grid, make_kernel("table",
                                                                   table=np.full((3, 3), 1e300))),
                              GridFunction(grid, [1e10, 1.0, 1.0])),
        }[family]()
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50)
        with pytest.raises(DivergenceError) as err:
            picard_solve(op, cfg, f)
        assert str(err.value) == message
        assert err.value.trace.iterations_used == 0

    def test_non_finite_plain_callable_is_caught_by_the_guard(self):
        # a _map that does not check its own output is caught by the loop's norm guard
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50)
        op = UserMap(Space((2,)), lambda x: x + np.array([0.0, np.nan]))
        with pytest.raises(DivergenceError) as err:
            picard_solve(op, cfg, np.ones(2))
        assert str(err.value) == "iterate became non-finite at iteration 0"

    @pytest.mark.parametrize("wrong_from_call", [1, 2])
    def test_plain_callable_output_shape_is_checked(self, wrong_from_call):
        # a (1,) output would broadcast against the (3,) iterate if it went unchecked
        calls = []

        def fn(x):
            calls.append(x)
            return 0.5 * x[:1] if len(calls) >= wrong_from_call else 0.5 * x

        cfg = PicardConfig(lam=0.5, epsilon=1e-12, max_iter=50)
        with pytest.raises(ValueError, match=r"shape mismatch: \(1,\) vs \(3,\)"):
            picard_solve(UserMap(Space((3,)), fn), cfg, np.ones(3))
        assert len(calls) == wrong_from_call

    @pytest.mark.parametrize("solver", ["picard", "damped"])
    @pytest.mark.parametrize("case, message", [
        ("other-grid-same-n", "input must be a GridFunction on the operator's grid"),
        ("grid-function-to-gnn", "expected an array of 4 flat values, got GridFunction"),
    ])
    def test_start_outside_the_domain_is_refused(self, solver, case, message):
        # a flat array carries no grid or block dims, so the solver checks x0
        # itself against the operator's space before its first step
        gnn = GnnAggregateOperator(Graph(2, [(0, 1)]), 0.5 * np.eye(2))
        op, x0 = {
            "other-grid-same-n": lambda: (
                HammersteinOperator(grid_uniform(0, 1, 11), make_kernel("separable-linear")),
                GridFunction(grid_uniform(0, 2, 11), np.ones(11))),
            "grid-function-to-gnn": lambda: (gnn, GridFunction(grid_uniform(0, 1, 4),
                                                               np.ones(4))),
        }[case]()
        with pytest.raises(ValueError, match=message):
            if solver == "picard":
                picard_solve(op, PicardConfig(lam=0.5, epsilon=1e-12, max_iter=50), x0)
            else:  # the damped update: lambda = 1, f = 0 and the mix as smoothing
                picard_solve(op, PicardConfig(1.0, 1e-12, 50, smoothing=0.5),
                             np.zeros(op.space.flat_shape), x0=x0)

    def test_flat_free_term_takes_the_start_form(self):
        # op.space reads the start and f in either form; the start's form comes back
        grid = grid_uniform(0, 1, 5)
        op = HammersteinOperator(grid, make_kernel("separable-linear"))
        cfg = PicardConfig(lam=0.5, epsilon=1e-12, max_iter=50)
        f = GridFunction(grid, np.linspace(1.0, 2.0, 5))
        ref, ref_trace = picard_solve(op, cfg, f)
        for free, start, form in ((f.values, f, GridFunction), (f, f.values, np.ndarray)):
            sol, trace = picard_solve(op, cfg, free, x0=start)
            values = sol.values if form is GridFunction else sol
            assert type(sol) is form and values.tobytes() == ref.values.tobytes()
            assert trace.steps == ref_trace.steps
        seeds = (GridFunction(grid, np.zeros(5)), GridFunction(grid, np.ones(5)))
        flat_seeds = uniqueness_check(op, cfg, f, [s.values for s in seeds])
        assert flat_seeds[0] and flat_seeds == uniqueness_check(op, cfg, f, seeds)
        with pytest.raises(ValueError, match="input must be a GridFunction on the operator's grid"):
            picard_solve(op, cfg, GridFunction(grid_uniform(0, 2, 5), f.values), x0=f)

    def test_one_row_free_term_is_not_broadcast_over_the_tokens(self):
        # attention's free row count admits both, but the loop needs one shape
        op = AttentionOperator(*(0.1 * np.eye(2) for _ in range(3)))
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 2\) vs \(1, 2\)$"):
            picard_solve(op, PicardConfig(1.0, 1e-12, 50), np.ones((1, 2)), x0=np.ones((3, 2)))

    def test_plain_callable_gets_flat_values_from_the_first_step(self):
        grid = grid_uniform(0, 1, 5)
        seen = []

        def fn(y):
            seen.append(type(y))
            return 0.5 * y

        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=50)
        op = UserMap(Space((5,), grid=grid), fn)
        sol, trace = picard_solve(op, cfg, GridFunction(grid, np.ones(5)))
        assert trace.converged and isinstance(sol, GridFunction)
        assert len(seen) == trace.iterations_used and set(seen) == {np.ndarray}

    @pytest.mark.parametrize("norm_kind", ["discrete-L2", "direct-sum"])
    def test_overflowing_norm_of_finite_entries_is_no_error(self, norm_kind):
        # 1e200**2 overflows the sum of squares, but every entry stays finite, and
        # so does each step norm, within 7 roundings of math.hypot (under 1 ulp)
        op = AffineOperator(0.5 * np.eye(2))
        cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=5, norm_kind=norm_kind)
        sol, trace = picard_solve(op, cfg, np.array([1e200, 1e200]), record_iterates=True)
        assert trace.iterations_used == 5
        assert all(s.step_norm == s.residual for s in trace.steps)
        want = np.array([math.hypot(*gap) for gap in np.diff(trace.iterates, axis=0)])
        assert np.all(np.abs(trace.step_norms - want) <= 7 * 2.0 ** -53 * want)
        assert np.isfinite(sol).all()


class TestResidual:
    def test_exact_fixed_point(self):
        rng = np.random.default_rng(45)
        op = contraction(rng, 6, 0.7)
        f = rng.standard_normal(6)
        x_star = np.linalg.solve(np.eye(6) - op.A, op.b + f)
        assert residual(op, 1.0, f, x_star) <= 1e-12

    def test_zero_operator(self):
        op = AffineOperator(np.zeros((2, 2)))
        f = np.array([1.0, -1.0])
        assert residual(op, 3.0, f, f) == 0.0

    def test_identity_everything_fixed(self):
        op = AffineOperator(np.eye(1))
        assert residual(op, 1.0, np.zeros(1), np.array([1.0])) == 0.0

    def test_non_finite_plain_callable_output(self):
        # a _map that does not check its own output is caught by lincomb
        op = UserMap(Space((2,)), lambda x: x + np.array([0.0, np.nan]))
        with pytest.raises(NonFiniteError) as err:
            residual(op, 1.0, np.ones(2), np.ones(2))
        assert str(err.value) == "linear combination must be finite (no NaN/Inf)"


class TestPredictedIterations:
    def test_zero_norm(self):
        assert predicted_iterations(0.5, 1.0, 0.0, 0.1) == 0

    def test_small_norm_needs_nothing(self):
        assert predicted_iterations(0.5, 1.0, 1e-3, 0.1) == 0

    def test_half_power_count(self):
        # 0.5^3 = 0.125 >= 0.1 but 0.5^4 = 0.0625 < 0.1
        assert predicted_iterations(0.5, 1.0, 1.0, 0.1) == 4

    def test_scaled_lambda_case(self):
        # smallest n with 0.45^n * 0.5 * 2 < 1e-6
        assert predicted_iterations(0.9, 0.5, 2.0, 1e-6) == 18

    def test_lambda_above_one_counts_the_first_step(self):
        # ||y_1 - y_0|| = |lambda| ||T(f)|| = 0.5; 0.5^2 * 0.5 = 0.125 >= 0.1
        op = AffineOperator(np.array([[0.25]]))
        f = np.array([1.0])
        nu = predicted_iterations(0.25, 2.0, float(np.abs(op(f))[0]), 0.1)
        assert nu == 3
        y = f
        for _ in range(nu):
            y = 2.0 * op(y) + f
        assert residual(op, 2.0, f, y) == 0.0625

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           lam_abs=st.floats(0.05, 4.0), negative=st.booleans(),
           rate=st.floats(0.01, 0.9, exclude_max=True), log_eps=st.floats(-9, -1))
    def test_nu_updates_reach_epsilon_on_affine_contractions(self, d, seed, lam_abs,
                                                             negative, rate, log_eps):
        rng = np.random.default_rng(seed)
        lam = -lam_abs if negative else lam_abs
        op = contraction(rng, d, rate / lam_abs)
        k = float(np.linalg.svd(op.A, compute_uv=False)[0])
        f = rng.standard_normal(d)
        eps = 10.0 ** log_eps
        nu = predicted_iterations(k, lam, float(np.linalg.norm(op(f))), eps)
        y = f
        for _ in range(nu):
            y = lam * op(y) + f
        # the computed residual carries rounding of the order of its terms
        rounding = 16 * np.finfo(float).eps * (
            np.linalg.norm(lam * op(y)) + np.linalg.norm(f) + np.linalg.norm(y))
        assert residual(op, lam, f, y) < eps + rounding

    def test_rejects_non_contraction(self):
        with pytest.raises(ValueError):
            predicted_iterations(0.8, 1.3, 1.0, 0.1)

    def test_minimality(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            k = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.1, 1.0 / k * 0.99)
            m = rng.uniform(0.01, 100)
            eps = 10.0 ** rng.uniform(-10, -1)
            nu = predicted_iterations(k, lam, m, eps)
            r = abs(lam) * k
            assert r ** nu * (abs(lam) * m) < eps
            if nu > 0:
                assert r ** (nu - 1) * (abs(lam) * m) >= eps


@pytest.mark.parametrize("section, field", [
    ({"lambda": 0}, "picard.lambda"),
    ({"epsilon": "x"}, "picard.epsilon"),
    ({"max_iter": None}, "picard.max_iter"),
    ({"smoothing": 1.5}, "picard.smoothing"),
    ({"norm": "l1"}, "picard.norm"),
], ids=["zero-lambda", "string-epsilon", "missing-max-iter", "smoothing-above-one",
        "unknown-norm"])
def test_from_json_names_the_field(section, field):
    obj = dict({"lambda": 1.0, "epsilon": 1e-6, "max_iter": 10}, **section)
    with pytest.raises(ConfigError) as err:
        PicardConfig.from_json(obj)
    assert err.value.field == field


@st.composite
def contraction_cases(draw, max_rate=0.95, smoothing=True):
    """An operator, a free term and two starts, with (lambda, smoothing, norm) whose
    iteration map y -> alpha y + (1 - alpha)(lambda T(y) + f) contracts at k_map
    (alpha = 0 unless ``smoothing``).

    Affine maps contract by sigma_1(A) in L2 and by the max row sum of |A| in
    sup; gnn maps by sigma_1(W) * alpha_max in direct-sum, on flat block values.
    """
    case = draw(st.sampled_from(["affine-L2", "affine-sup", "gnn"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
    rate = draw(st.floats(0.05, max_rate))
    alpha = draw(st.floats(0.0, 1.0, exclude_max=True)) * rate if smoothing else 0.0
    k_T = (rate - alpha) / ((1.0 - alpha) * abs(lam))
    if case.startswith("affine"):
        d = int(rng.integers(1, 7))
        A = rng.standard_normal((d, d))
        A *= k_T / (spectral_norm(A) if case == "affine-L2" else np.abs(A).sum(axis=1).max())
        op, f = AffineOperator(A, rng.standard_normal(d)), rng.standard_normal(d)
        norm_kind = "discrete-L2" if case == "affine-L2" else "sup"
    else:
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        edges = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2))
        graph = Graph(n, edges[edges[:, 0] != edges[:, 1]],
                      include_self=bool(rng.random() < 0.8))
        alpha_max = max(int(np.diff(graph.indptr).max()), 1)
        W = rng.standard_normal((d, d))
        op = GnnAggregateOperator(graph, W * (k_T / (spectral_norm(W) * alpha_max)))
        f = rng.standard_normal(n * d)
        norm_kind = "direct-sum"
    k_map = alpha + (1.0 - alpha) * abs(lam) * k_T
    starts = tuple(10.0 ** rng.uniform(-1, 1) * rng.standard_normal(f.size) for _ in range(2))
    return op, f, starts, PicardConfig(lam, 1e-7, 10000, alpha, norm_kind), k_map


class TestBanachBounds:
    def test_scalar_contraction_by_hand(self):
        # T(x) = 0.5 x + 1 iterated from 0: iterates 0, 1, 1.5, 1.75, ... limit 2
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        cfg = PicardConfig(lam=1.0, epsilon=1e-300, max_iter=10)
        _, trace = picard_solve(op, cfg, np.zeros(1), record_iterates=True)
        records = banach_bounds(trace, 0.5, reference=np.array([2.0]))
        # a priori at n=2: 0.25/0.5 * |u1 - u0| = 0.5; actual |1.5 - 2| = 0.5
        assert records[2].apriori_bound == pytest.approx(0.5)
        assert records[2].actual_error == pytest.approx(0.5)
        assert records[2].actual_error <= records[2].apriori_bound
        # a posteriori at n=2: (0.5/0.5) * |u1 - u2| = 0.5
        assert records[2].aposteriori_bound == pytest.approx(0.5)
        assert records[2].actual_error <= records[2].aposteriori_bound
        # n=0 row: a priori = ||u0 - u1|| / (1 - k), no a posteriori
        assert records[0].apriori_bound == pytest.approx(trace.steps[0].step_norm / 0.5)
        assert records[0].aposteriori_bound is None

    def test_bounds_dominate_error_on_random_contractions(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            sigma = rng.uniform(0.2, 0.9)
            op = contraction(rng, int(rng.integers(2, 12)), sigma)
            f = rng.standard_normal(op.dim)
            cfg = PicardConfig(lam=1.0, epsilon=1e-11, max_iter=20000)
            _, trace = picard_solve(op, cfg, f, record_iterates=True)
            reference = np.linalg.solve(np.eye(op.dim) - op.A, op.b + f)
            for rec in banach_bounds(trace, sigma, reference=reference):
                assert rec.actual_error <= rec.apriori_bound
                if rec.aposteriori_bound is not None:
                    assert rec.actual_error <= rec.aposteriori_bound

    @settings(max_examples=80, deadline=None)
    @given(contraction_cases())
    def test_bounds_dominate_the_actual_error_in_the_operators_norm(self, case):
        # the allowance of cli's rates check: the reference's own error, and
        # rounding of the iterates' size
        op, f, _, cfg, k_map = case
        _, trace = picard_solve(op, cfg, f, record_iterates=True)
        reference, ref_trace = picard_solve(
            op, PicardConfig(cfg.lam, 1e-12, 100000, cfg.smoothing, cfg.norm_kind), f)
        scale = norm_in(op, reference, cfg.norm_kind) + norm_in(op, f, cfg.norm_kind)
        slack = (k_map * ref_trace.final_step + RATES_ROUNDING * scale) / (1.0 - k_map)
        for rec in banach_bounds(trace, k_map, reference=reference):
            error = norm_in(op, lincomb(1.0, trace.iterates[rec.n], -1.0, reference),
                            cfg.norm_kind)
            assert rec.actual_error == error
            for bound in (rec.apriori_bound, rec.aposteriori_bound):
                if bound is not None:
                    assert error <= bound * (1 + RATES_ROUNDING) + slack

    def test_rejects_bad_constant(self):
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        _, trace = picard_solve(op, PicardConfig(1.0, 1e-10, 100), np.zeros(1))
        with pytest.raises(ValueError):
            banach_bounds(trace, 1.0)

    def test_constant_map_contracts_with_zero(self):
        # T(x) = 1: u_1 is the fixed point, so the bounds are exact at k = 0
        op = AffineOperator(np.zeros((1, 1)), np.array([1.0]))
        _, trace = picard_solve(op, PicardConfig(1.0, 1e-10, 100), np.zeros(1),
                                record_iterates=True)
        records = banach_bounds(trace, 0.0, reference=np.array([1.0]))
        assert [r.apriori_bound for r in records] == [1.0, 0.0, 0.0]
        assert [r.aposteriori_bound for r in records] == [None, 0.0, 0.0]
        assert [r.actual_error for r in records] == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            banach_bounds(trace, -0.1)

    def test_flat_and_structured_forms_give_one_actual_error_column(self):
        # a gnn solved under direct-sum measures its actual errors by blocks, as
        # its steps and bounds, from a flat start or one made from its (n, d)
        # matrix, and against either reference
        rng = np.random.default_rng(36)
        graph = Graph(6, [(i, i + 1) for i in range(5)])
        alpha_max = int(neighborhood_membership_counts(graph).max())
        op = GnnAggregateOperator(
            graph, rescale_to_contraction(rng.standard_normal((2, 2)), alpha_max, 0.8))
        M = rng.standard_normal((6, 2))
        cfg = PicardConfig(lam=1.0, epsilon=1e-8, max_iter=500, norm_kind="direct-sum")
        reference, _ = picard_solve(op, dataclasses.replace(cfg, epsilon=1e-14), M.ravel())
        flat, blocks = (picard_solve(op, cfg, start, record_iterates=True)[1]
                        for start in (M.ravel(), op.space.wrap(M)))
        assert (flat.space, flat.norm_kind) == (op.space, "direct-sum")
        expected = [op.space.norm("direct-sum")(x - reference) for x in blocks.iterates]
        assert expected != [norm(x - reference) for x in blocks.iterates]
        for trace in (flat, blocks):
            for ref in (reference, op.space.wrap(reference.reshape(6, 2))):
                assert [r.actual_error for r in banach_bounds(trace, 0.8, ref)] == expected

    def test_actual_errors_need_recorded_iterates(self):
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        _, trace = picard_solve(op, PicardConfig(1.0, 1e-10, 100), np.zeros(1))
        with pytest.raises(ValueError):
            banach_bounds(trace, 0.5, reference=np.array([2.0]))


class TestUniqueness:
    def test_contractive_operator_unique(self):
        rng = np.random.default_rng(48)
        op = contraction(rng, 5, 0.6)
        f = rng.standard_normal(5)
        cfg = PicardConfig(lam=1.0, epsilon=1e-11, max_iter=10000)
        ok, distance = uniqueness_check(op, cfg, f,
                                        (rng.standard_normal(5) * 10,
                                         rng.standard_normal(5) * 10))
        assert ok
        assert distance <= 10 * cfg.epsilon

    @settings(max_examples=60, deadline=None)
    @given(contraction_cases(max_rate=0.8))
    def test_two_starts_reach_one_fixed_point(self, case):
        # each limit lies within k/(1-k) * epsilon <= 4 epsilon of the fixed point
        op, f, starts, cfg, _ = case
        ok, distance = uniqueness_check(op, cfg, f, starts)
        assert ok and distance <= 10 * cfg.epsilon

    def test_identity_is_not_unique(self):
        op = AffineOperator(np.eye(1))
        cfg = PicardConfig(lam=1.0, epsilon=1e-10, max_iter=100)
        ok, distance = uniqueness_check(op, cfg, np.zeros(1),
                                        (np.array([0.0]), np.array([1.0])))
        assert not ok
        assert distance == pytest.approx(1.0)

    def test_zero_operator_unique(self):
        op = AffineOperator(np.zeros((2, 2)))
        cfg = PicardConfig(lam=1.0, epsilon=1e-10, max_iter=100)
        ok, _ = uniqueness_check(op, cfg, np.ones(2),
                                 (np.array([5.0, 5.0]), np.array([-9.0, 2.0])))
        assert ok


class TestFixedPointProperties:
    @settings(max_examples=200, deadline=None)
    @given(contraction_cases(smoothing=False), st.floats(-8, -1))
    def test_nu_plain_updates_reach_epsilon_in_the_solves_norm(self, case, log_eps):
        op, f, _, cfg, rate = case
        cfg = dataclasses.replace(cfg, epsilon=10.0 ** log_eps)
        nu = predicted_iterations(rate / abs(cfg.lam), cfg.lam,
                                  norm_in(op, op(f), cfg.norm_kind), cfg.epsilon)
        y = f
        if nu > 0:
            y, _ = picard_solve(op, dataclasses.replace(cfg, max_iter=nu), f)
        # the allowance of cli's rates check for rounding of the iterates' size
        scale = norm_in(op, y, cfg.norm_kind) + norm_in(op, f, cfg.norm_kind)
        rounding = RATES_ROUNDING * scale / (1.0 - rate)
        assert residual(op, cfg.lam, f, y, cfg.norm_kind) < cfg.epsilon + rounding

    @settings(max_examples=60, deadline=None)
    @given(contraction_cases(max_rate=0.8, smoothing=False),
           st.floats(0.0, 0.9, exclude_max=True))
    def test_damping_leaves_the_fixed_point_unchanged(self, case, alpha):
        # each limit lies within its a posteriori bound of the one fixed point
        op, f, _, cfg, rate = case
        bound, limits = 0.0, []
        for a in (0.0, alpha):
            x, trace = picard_solve(op, dataclasses.replace(cfg, smoothing=a), f)
            assert trace.converged
            k = a + (1.0 - a) * rate
            scale = trace.norm(x) + trace.norm(f)
            bound += banach_bounds(trace, k)[-1].aposteriori_bound
            bound += RATES_ROUNDING * scale / (1.0 - k)
            limits.append(x)
        assert trace.distance(*limits) <= bound


class TestDampedSolve:
    """The damped update x <- (1 - m) T(x) + m x: picard_solve with lambda = 1, f = 0
    and smoothing m, whose fixed points are those of T."""

    def test_full_damping_freezes(self):
        rng = np.random.default_rng(49)
        op = contraction(rng, 4, 0.5)
        x0 = rng.standard_normal(4)
        sol, trace = picard_solve(op, PicardConfig(1.0, 1e-12, 100, smoothing=1.0),
                                  np.zeros(4), x0=x0)
        assert trace.converged
        assert trace.iterations_used == 1
        assert trace.steps[0].step_norm == 0.0
        assert np.array_equal(sol, x0)

    def test_no_damping_is_plain_iteration(self):
        rng = np.random.default_rng(50)
        op = contraction(rng, 4, 0.5)
        x0 = rng.standard_normal(4)
        sol, _ = picard_solve(op, PicardConfig(1.0, 1e-13, 10000), np.zeros(4), x0=x0)
        expected = np.linalg.solve(np.eye(4) - op.A, op.b)
        assert np.linalg.norm(sol - expected) <= 1e-11

    def test_damping_reaches_same_fixed_point(self):
        rng = np.random.default_rng(51)
        op = contraction(rng, 6, 0.8)
        x0 = rng.standard_normal(6)
        expected = np.linalg.solve(np.eye(6) - op.A, op.b)
        eps = 1e-12
        for mix in (0.0, 0.5):
            sol, _ = picard_solve(op, PicardConfig(1.0, eps, 50000, smoothing=mix),
                                  np.zeros(6), x0=x0)
            assert np.linalg.norm(sol - expected) <= 10 * eps

    def test_damping_preserves_fixed_points(self):
        rng = np.random.default_rng(52)
        op = contraction(rng, 5, 0.7)
        x_star = np.linalg.solve(np.eye(5) - op.A, op.b)
        for mix in (0.0, 0.25, 0.5, 0.75, 1.0):
            update = lincomb(1 - mix, op(x_star), mix, x_star)
            assert norm(lincomb(1.0, update, -1.0, x_star)) <= 1e-12

    def test_damped_map_contraction_constant(self):
        rng = np.random.default_rng(53)
        sigma = 0.6
        op = contraction(rng, 5, sigma)
        alpha = 0.5
        bound = alpha + (1 - alpha) * sigma
        for _ in range(200):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            gap = np.linalg.norm(x - y)
            if gap < 1e-12:
                continue
            damped_x = alpha * x + (1 - alpha) * op(x)
            damped_y = alpha * y + (1 - alpha) * op(y)
            assert np.linalg.norm(damped_x - damped_y) / gap <= bound + 1e-9

    def test_rejects_bad_mix(self):
        for mix in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^smoothing must lie in \[0, 1\]$"):
                PicardConfig(1.0, 1e-6, 10, smoothing=mix)


class TestUniformNu:
    def test_single_nu_works_for_many_f(self):
        # bounded integral operator: nu computed from the global bound M
        g = grid_uniform(0, 1, 51)
        op = HammersteinOperator(g, make_kernel("bounded-nonlinear", [0, 0, 0, 1]))
        B = np.abs(op._K) * g.weights[None, :]
        k_cert = spectral_norm(B)
        M = float(np.linalg.norm(np.abs(op._K) @ g.weights))
        assert k_cert < 1
        eps = 1e-8
        nu = predicted_iterations(k_cert, 1.0, M, eps)
        rng = np.random.default_rng(54)
        cfg = PicardConfig(lam=1.0, epsilon=eps, max_iter=nu)
        for scale in (0.01, 1.0, 50.0):
            for _ in range(4):
                f = GridFunction(g, scale * rng.standard_normal(g.n))
                sol, _ = picard_solve(op, cfg, f)
                assert residual(op, 1.0, f, sol) < eps


class TestTheOperatorsSpaceDecidesTheNorm:
    @pytest.mark.parametrize("function", ["picard_solve", "residual", "uniqueness_check",
                                          "lipschitz_sample"])
    def test_flat_and_structured_gnn_values_give_equal_numbers(self, function):
        # under direct-sum a gnn measures its flat values by the blocks of its
        # space: each number equals the per-block sum over the rows of the (n, d)
        # matrix, and differs from the plain L2 measure of the same flat values
        rng = np.random.default_rng(31)
        op = GnnAggregateOperator(Graph(3, [(0, 1), (1, 2)]),
                                  rescale_to_contraction(rng.standard_normal((2, 2)), 3, 0.8))
        F, G = (op.space.wrap(rng.standard_normal((3, 2))) for _ in range(2))
        cfg = PicardConfig(lam=0.9, epsilon=1e-10, max_iter=5, norm_kind="direct-sum")

        def measured(x, kind):
            return oracle_norm(x, kind, op.space.shape)

        def solve(x0):
            return picard_solve(op, cfg, F, x0=x0)[0]

        run, reference = {
            "picard_solve": (
                lambda: list(picard_solve(op, cfg, F)[1].step_norms),
                lambda kind: [step for step, _ in oracle_solve(
                    op, dataclasses.replace(cfg, norm_kind=kind), F)[1]]),
            "residual": (
                lambda: residual(op, 0.9, F, G, "direct-sum"),
                lambda kind: measured(0.9 * op(G) + F - G, kind)),
            "uniqueness_check": (
                lambda: uniqueness_check(op, cfg, F, (F, G))[1],
                lambda kind: measured(solve(F) - solve(G), kind)),
            "lipschitz_sample": (
                lambda: lipschitz_sample(op, lambda r: F, 1, norm_kind="direct-sum",
                                         extra_pairs=[(F, G)]).value,
                lambda kind: measured(op(F) - op(G), kind) / measured(F - G, kind)),
        }[function]
        got = run()
        assert got == pytest.approx(reference("direct-sum"), rel=1e-12)
        assert got != pytest.approx(reference("discrete-L2"), rel=1e-6)


class TestTraceCsv:
    def test_header_and_row_count(self):
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        cfg = PicardConfig(lam=1.0, epsilon=1e-6, max_iter=100)
        _, trace = picard_solve(op, cfg, np.zeros(1), record_iterates=True)
        text = trace_csv_text(trace)
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 1 + trace.iterations_used
        # bound columns are empty without bound records
        assert lines[1].split(",")[3:] == ["", "", ""]

    def test_with_bounds_has_extra_row(self):
        op = AffineOperator(np.array([[0.5]]), np.array([1.0]))
        cfg = PicardConfig(lam=1.0, epsilon=1e-6, max_iter=100)
        _, trace = picard_solve(op, cfg, np.zeros(1), record_iterates=True)
        bounds = banach_bounds(trace, 0.5, reference=np.array([2.0]))
        lines = trace_csv_text(trace, bounds).strip().split("\n")
        assert len(lines) == 1 + trace.iterations_used + 1
        last = lines[-1].split(",")
        assert last[1] == "" and last[2] == ""  # no step at the final iterate
        assert last[3] != "" and last[5] != ""
        first = lines[1].split(",")
        assert first[4] == ""  # no a posteriori bound at n=0
