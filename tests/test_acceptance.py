"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria share the same frozen instance sets via module fixtures, so
reruns are deterministic.
"""

import json
import time

import numpy as np
import pytest

from picardop import (
    AffineOperator,
    GnnAggregateOperator,
    Graph,
    GridFunction,
    HammersteinOperator,
    PicardConfig,
    banach_bounds,
    damped_solve,
    frechet_check,
    gnn_lipschitz_report,
    grid_uniform,
    make_kernel,
    neighborhood_membership_counts,
    picard_solve,
    predicted_iterations,
    rescale_to_contraction,
    residual,
    run_pign_experiment,
    spectral_norm,
)
from picardop.cli import main as cli_main
from picardop.pign import report_csv_text


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def random_contraction(rng, d, sigma):
    A = rng.standard_normal((d, d))
    A *= sigma / np.linalg.svd(A, compute_uv=False)[0]
    return AffineOperator(A, rng.standard_normal(d))


@pytest.fixture(scope="module")
def affine_runs():
    """100 random affine contractions solved at lambda=1, eps=1e-11, with iterates."""
    rng = np.random.default_rng(20240101)
    runs = []
    start = time.monotonic()
    for _ in range(100):
        d = int(rng.integers(2, 17))
        sigma = float(rng.uniform(0.3, 0.95))
        op = random_contraction(rng, d, sigma)
        f = rng.standard_normal(d)
        k = float(np.linalg.svd(op.A, compute_uv=False)[0])
        cfg = PicardConfig(lam=1.0, epsilon=1e-11, max_iter=100000)
        solution, trace = picard_solve(op, cfg, f, record_iterates=True)
        reference = np.linalg.solve(np.eye(d) - op.A, op.b + f)
        runs.append({"op": op, "f": f, "k": k, "lam": 1.0, "solution": solution,
                     "trace": trace, "reference": reference})
    return {"runs": runs, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def nu_runs():
    """100 contractive instances run for exactly nu predicted iterations."""
    rng = np.random.default_rng(20240102)
    eps = 1e-8
    runs = []
    for _ in range(100):
        d = int(rng.integers(2, 17))
        sigma = float(rng.uniform(0.3, 0.95))
        lam = float(rng.uniform(0.3, 1.0))
        if lam * sigma >= 0.999:
            sigma = 0.95 / lam
        op = random_contraction(rng, d, sigma)
        f = rng.standard_normal(d)
        k = float(np.linalg.svd(op.A, compute_uv=False)[0])
        norm_Tf = float(np.linalg.norm(op(f)))
        nu = predicted_iterations(k, lam, norm_Tf, eps)
        if nu == 0:
            final = f
            trace = None
        else:
            # cap at exactly nu updates; stopping at the step tolerance keeps
            # recorded steps above the float noise floor without weakening the
            # claim that nu iterations reach the residual target
            cfg = PicardConfig(lam=lam, epsilon=eps, max_iter=nu)
            final, trace = picard_solve(op, cfg, f)
        runs.append({"op": op, "f": f, "k": k, "lam": lam, "nu": nu,
                     "solution": final, "trace": trace, "epsilon": eps})
    return runs


@pytest.fixture(scope="module")
def bounded_operator_runs():
    """One bounded integral operator, one nu, 50 random free terms."""
    g = grid_uniform(0, 1, 51)
    op = HammersteinOperator(g, make_kernel("bounded-nonlinear", [0, 0, 0, 1]))
    # |tanh| < 1 and |tanh'| <= 1 give a free-term-independent output bound M
    # and a linearization bound k_cert for the quadrature operator
    B = np.abs(op._K) * g.weights[None, :]
    k_cert = spectral_norm(B)
    M = float(np.linalg.norm(np.abs(op._K) @ g.weights))
    eps = 1e-8
    nu = predicted_iterations(k_cert, 1.0, M, eps)
    rng = np.random.default_rng(20240103)
    runs = []
    cfg = PicardConfig(lam=1.0, epsilon=eps, max_iter=nu)
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-2, 2)
        f = GridFunction(g, scale * rng.standard_normal(g.n))
        solution, trace = picard_solve(op, cfg, f)
        runs.append({"op": op, "f": f, "k": k_cert, "lam": 1.0,
                     "solution": solution, "trace": trace})
    return {"runs": runs, "nu": nu, "epsilon": eps, "k": k_cert, "M": M}


def test_criterion_1_fixed_point_oracle(affine_runs):
    worst = 0.0
    for run in affine_runs["runs"]:
        err = float(np.linalg.norm(run["solution"] - run["reference"]))
        worst = max(worst, err)
    elapsed = affine_runs["elapsed"]
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(1, ok, f"100 affine solves vs dense oracle: worst error {worst:.3e} "
                  f"(<= 1e-9), runtime {elapsed:.2f}s (<= 10s)")
    assert worst <= 1e-9
    assert elapsed <= 10.0


def test_criterion_2_banach_rate_dominance(affine_runs):
    checks = 0
    violations = 0
    for run in affine_runs["runs"]:
        records = banach_bounds(run["trace"], run["k"], reference=run["reference"])
        for rec in records:
            checks += 1
            if rec.actual_error > rec.apriori_bound:
                violations += 1
            if rec.aposteriori_bound is not None and rec.actual_error > rec.aposteriori_bound:
                violations += 1
    ok = violations == 0
    report(2, ok, f"a priori / a posteriori bounds dominate the error in "
                  f"{checks} records across 100 runs; {violations} violations")
    assert violations == 0


def test_criterion_3_nu_sufficiency(nu_runs, bounded_operator_runs):
    bad = 0
    for run in nu_runs:
        res = residual(run["op"], run["lam"], run["f"], run["solution"])
        if not res < run["epsilon"]:
            bad += 1
    bad_uniform = 0
    for run in bounded_operator_runs["runs"]:
        res = residual(run["op"], run["lam"], run["f"], run["solution"])
        if not res < bounded_operator_runs["epsilon"]:
            bad_uniform += 1
    ok = bad == 0 and bad_uniform == 0
    report(3, ok, f"nu iterations reached residual < 1e-8 on 100 random instances "
                  f"({bad} failures) and one nu={bounded_operator_runs['nu']} "
                  f"covered 50 free terms ({bad_uniform} failures)")
    assert bad == 0
    assert bad_uniform == 0


def test_criterion_4_geometric_step_decay(affine_runs, nu_runs, bounded_operator_runs):
    checks = 0
    violations = 0

    def check(trace, lam, k):
        nonlocal checks, violations
        if trace is None:
            return
        steps = trace.step_norms
        for n in range(len(steps) - 1):
            checks += 1
            if steps[n + 1] > abs(lam) * k * steps[n] * (1 + 1e-9):
                violations += 1

    for run in affine_runs["runs"]:
        check(run["trace"], run["lam"], run["k"])
    for run in nu_runs:
        check(run["trace"], run["lam"], run["k"])
    for run in bounded_operator_runs["runs"]:
        check(run["trace"], run["lam"], run["k"])
    ok = violations == 0
    report(4, ok, f"step(n+1) <= |lambda| k step(n) (1+1e-9) held in {checks} "
                  f"consecutive-step checks; {violations} violations")
    assert violations == 0


def test_criterion_5_attention_frechet():
    rng = np.random.default_rng(20240105)
    max_rel = 0.0
    errs_t, errs_half = [], []
    for _ in range(100):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        scale = 1.0 / np.sqrt(d)
        from picardop import AttentionOperator
        op = AttentionOperator(scale * rng.standard_normal((d, d)),
                               scale * rng.standard_normal((d, d)),
                               scale * rng.standard_normal((d, d)))
        Y = rng.standard_normal((m, d))
        Y *= rng.uniform(0.5, 1.0) / np.linalg.norm(Y)
        H = rng.standard_normal((m, d))
        H *= rng.uniform(0.5, 1.0) / np.linalg.norm(H)
        max_rel = max(max_rel, frechet_check(op, Y, H, t=1e-5).rel_error)
        r1 = frechet_check(op, Y, H, t=1e-3)
        r2 = frechet_check(op, Y, H, t=5e-4)
        errs_t.append(np.linalg.norm(r1.analytic - r1.finite_difference))
        errs_half.append(np.linalg.norm(r2.analytic - r2.finite_difference))
    ratio = max(errs_t) / max(errs_half)
    median_ratio = float(np.median(np.array(errs_t) / np.array(errs_half)))
    ok = max_rel <= 1e-6 and ratio >= 3.0
    report(5, ok, f"analytic vs central-difference derivative: max rel error "
                  f"{max_rel:.3e} (<= 1e-6); halving t scaled the error by "
                  f"1/{ratio:.2f} (median 1/{median_ratio:.2f}, factor >= 3)")
    assert max_rel <= 1e-6
    assert ratio >= 3.0
    assert median_ratio >= 3.0


def test_criterion_6_gnn_contraction_certificate():
    rng = np.random.default_rng(20240106)
    eps = 1e-10
    lemma_checks = 0
    lemma_violations = 0
    convergence_failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 7))
        p_edge = float(rng.uniform(0.05, 0.5))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p_edge]
        g = Graph(n, edges, include_self=bool(rng.random() < 0.8))
        W0 = rng.standard_normal((d, d))
        alpha_max = int(neighborhood_membership_counts(g).max())
        op = GnnAggregateOperator(g, rescale_to_contraction(W0, alpha_max, 0.9))
        rep = gnn_lipschitz_report(op)
        assert rep.product == pytest.approx(0.9, abs=1e-9)
        assert rep.certified

        direct_sum = op.space.norm("direct-sum")
        f = rng.standard_normal(n * d)
        tight = PicardConfig(lam=1.0, epsilon=1e-13, max_iter=50000,
                             norm_kind="direct-sum")
        reference, _ = picard_solve(op, tight, f)
        cfg = PicardConfig(lam=1.0, epsilon=eps, max_iter=20000,
                           norm_kind="direct-sum")
        for _ in range(10):
            start = 5 * rng.standard_normal(n * d)
            sol, trace = picard_solve(op, cfg, f, x0=start)
            gap = direct_sum(sol - reference)
            if not (trace.converged and gap <= 10 * eps):
                convergence_failures += 1

        for _ in range(500):
            F = rng.standard_normal((n, d))
            G2 = rng.standard_normal((n, d))
            lhs = direct_sum(op(F.ravel()) - op(G2.ravel()))
            gaps = np.array([np.linalg.norm(a - b) for a, b in zip(F, G2)])
            rhs = rep.L * float(rep.coeffs @ gaps)
            lemma_checks += 1
            if lhs > rhs * (1 + 1e-12):
                lemma_violations += 1
    ok = convergence_failures == 0 and lemma_violations == 0
    report(6, ok, f"50 certified graphs: 10 starts each reached the common fixed "
                  f"point within 10*eps ({convergence_failures} failures); the "
                  f"degree-counting bound held in {lemma_checks} sampled pairs "
                  f"({lemma_violations} violations)")
    assert convergence_failures == 0
    assert lemma_violations == 0


def test_criterion_7_damping_fixed_point_invariance():
    rng = np.random.default_rng(20240107)
    eps = 1e-12
    mixes = (0.0, 0.25, 0.5, 0.75)
    worst_gap = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 13))
        sigma = float(rng.uniform(0.3, 0.8))
        op = random_contraction(rng, d, sigma)
        k = float(np.linalg.svd(op.A, compute_uv=False)[0])
        assert k < 1  # contraction-certified
        x0 = rng.standard_normal(d)
        solutions = []
        for mix in mixes:
            k_mix = mix + (1 - mix) * k
            eps_run = eps * (1 - k_mix) / k_mix
            sol, trace = damped_solve(op, mix, x0, epsilon=eps_run, max_iter=200000)
            assert trace.converged
            solutions.append(sol)
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                worst_gap = max(worst_gap, float(np.linalg.norm(
                    solutions[i] - solutions[j])))
    ok = worst_gap <= 10 * eps
    report(7, ok, f"damped solves at mix 0/0.25/0.5/0.75 agree on the fixed "
                  f"point: worst pairwise gap {worst_gap:.3e} (<= {10 * eps:.0e})")
    assert worst_gap <= 10 * eps


def test_criterion_8_pign_desk_scale_experiment():
    cfg = {
        "dataset": {"n": 200, "d": 8, "p_in": 0.03, "p_out": 0.01,
                    "separation": 4.0, "seed": 7},
        "noise": {"p": 0.5, "magnitude": 3.0, "seed": 100},
        "operator": {"dim": 8, "target_contraction": 0.9, "seed": 200},
        "picard": {"alpha": 0.5, "epsilon": 1e-6, "max_iter": 10},
        "readout": {"lr": 0.5, "epochs": 300, "split_seed": 300},
        "mode": "anchored",
    }
    seeds = list(range(10))
    start = time.monotonic()
    noisy = run_pign_experiment(cfg, seeds)
    control_cfg = dict(cfg, dataset=dict(cfg["dataset"], separation=0.0))
    control = run_pign_experiment(control_cfg, seeds)
    elapsed = time.monotonic() - start
    pign_acc = float(np.mean([r.readout_accuracy for r in noisy]))
    base_acc = float(np.mean([r.baseline_accuracy for r in noisy]))
    ctrl_pign = float(np.mean([r.readout_accuracy for r in control]))
    ctrl_base = float(np.mean([r.baseline_accuracy for r in control]))
    ok = (pign_acc >= base_acc and ctrl_pign <= 0.65 and ctrl_base <= 0.65
          and elapsed <= 60.0)
    report(8, ok, f"noisy graphs (p=0.5): pign {pign_acc:.3f} >= baseline "
                  f"{base_acc:.3f}; zero-signal control {ctrl_pign:.3f}/"
                  f"{ctrl_base:.3f} (<= 0.65); runtime {elapsed:.1f}s (<= 60s)")
    assert pign_acc >= base_acc
    assert ctrl_pign <= 0.65
    assert ctrl_base <= 0.65
    assert elapsed <= 60.0


def test_criterion_9_integral_equation_closed_form():
    g = grid_uniform(0, 1, 1001)
    kernel = make_kernel("separable-linear", [0, 0, 0, 1])
    op = HammersteinOperator(g, kernel)
    # product kernel t*s is rank one with L2 operator norm 1/3 < 1
    B = op._K * g.weights[None, :]
    k_cert = spectral_norm(B)
    f = GridFunction(g, np.ones(g.n))
    cfg = PicardConfig(lam=1.0, epsilon=1e-12, max_iter=500)
    solution, trace = picard_solve(op, cfg, f)
    exact = 1.0 + 0.75 * g.points
    max_err = float(np.max(np.abs(solution.values - exact)))
    ok = max_err <= 1e-4 and trace.converged and k_cert < 1
    report(9, ok, f"linear integral equation vs closed form 1 + (3/4)t: max grid "
                  f"error {max_err:.3e} (<= 1e-4); discrete operator bound "
                  f"{k_cert:.4f} < 1 (continuum 1/3)")
    assert max_err <= 1e-4
    assert trace.converged
    assert k_cert < 1


def test_criterion_10_determinism(tmp_path):
    solve_cfg = {
        "operator": {"type": "affine",
                     "A": [[0.4, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.3]],
                     "b": [1.0, -1.0, 0.5]},
        "f": [0.5, 0.5, -0.5],
        "picard": {"lambda": 1.0, "epsilon": 1e-11, "max_iter": 5000},
        "rates": {"reference_epsilon": 1e-13},
    }
    # a symmetric kernel table, so the solve applies it by dsymv
    t = np.linspace(0.0, 1.0, 201)
    table_cfg = {
        "operator": {"type": "hammerstein",
                     "grid": {"a": 0.0, "b": 1.0, "n": 201, "rule": "simpson"},
                     "kernel": "table",
                     "table": (0.5 * np.exp(-np.abs(t[:, None] - t[None, :]))).tolist()},
        "f": {"constant": 1.0},
        "picard": {"lambda": 1.0, "epsilon": 1e-12, "max_iter": 200},
    }
    runs = (("solve", solve_cfg, ("solve", "rates")), ("table", table_cfg, ("solve",)))
    for name, cfg, _ in runs:
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    artifact_sets = []
    for tag in ("a", "b"):
        files = {}
        for name, _, commands in runs:
            for command in commands:
                out = tmp_path / f"{name}_{command}_{tag}"
                code = cli_main([command, "--config", str(tmp_path / f"{name}.json"),
                                 "--out", str(out), "--seed", "17", "--quiet"])
                assert code == 0
                for p in sorted(out.iterdir()):
                    files[f"{name}/{command}/{p.name}"] = p.read_bytes()
        artifact_sets.append(files)
    cli_identical = artifact_sets[0] == artifact_sets[1]

    pign_cfg = {
        "dataset": {"n": 60, "d": 4, "p_in": 0.1, "p_out": 0.02,
                    "separation": 2.0, "seed": 7},
        "noise": {"p": 0.5, "magnitude": 3.0, "seed": 100},
        "operator": {"dim": 4, "target_contraction": 0.9, "seed": 200},
        "picard": {"alpha": 0.5, "epsilon": 1e-6, "max_iter": 10},
        "readout": {"lr": 0.5, "epochs": 100, "split_seed": 300},
        "mode": "anchored",
    }
    csv_a = report_csv_text(run_pign_experiment(pign_cfg, seeds=[0, 1, 2]))
    csv_b = report_csv_text(run_pign_experiment(pign_cfg, seeds=[0, 1, 2]))
    pign_identical = csv_a == csv_b
    ok = cli_identical and pign_identical
    report(10, ok, f"re-running scenarios with fixed seeds reproduced artifacts "
                   f"byte for byte (cli: {cli_identical}, experiment csv: "
                   f"{pign_identical})")
    assert cli_identical
    assert pign_identical
